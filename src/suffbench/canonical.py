"""The one canonical JSON, sorted keys and no spaces, of cache keys, run ids,
manifest.json and the cache entries of scored rows and embedding groups."""

import hashlib
import json

canonical_json = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":")).encode


def canonical_digest(obj) -> str:
    """SHA-256 hex of the canonical JSON of `obj`."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
