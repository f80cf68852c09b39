"""Append-only on-disk storage for one evaluation run.

A run directory holds a manifest plus one CSV table per pipeline
artifact. Every append is a single O_APPEND write of one encoded row,
so a killed process leaves at worst one torn final line; resuming trims
the incomplete tail before any further writes. Appends deduplicate on
the work key (item_id, language, generator_model, level), which makes
every stage idempotent under restarts.

Stores are single-writer: callers must serialize appends.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

from .constrainer import Explanation
from .masker import MaskReport
from .metrics import AggregateCell, SimilarityRecord
from .scorer import ScoreResult

MANIFEST_NAME = "manifest.json"

EXPLANATIONS = "explanations.csv"
MASKS = "masks.csv"
SCORES = "scores.csv"
SIMILARITY = "similarity.csv"
AGGREGATES = "aggregates.csv"
AUDIT = "audit.csv"

COLUMNS = {
    EXPLANATIONS: (
        "run_id", "item_id", "language", "generator_model", "level",
        "word_count", "length_status", "text",
    ),
    MASKS: (
        "run_id", "item_id", "language", "generator_model", "level",
        "label_hits", "text_hits", "masked_text",
    ),
    SCORES: (
        "run_id", "item_id", "language", "generator_model", "level",
        "option_prob_A", "option_prob_B", "option_prob_C", "option_prob_D",
        "sufficiency", "predicted", "correct", "scorer_model", "prompt_fingerprint",
    ),
    SIMILARITY: (
        "run_id", "item_id", "language", "generator_model", "level", "cosine",
    ),
    AGGREGATES: (
        "run_id", "generator_model", "language", "level", "n_items",
        "n_excluded", "accuracy", "mean_sufficiency", "mean_similarity",
    ),
    AUDIT: (
        "run_id", "stage", "item_id", "language", "generator_model", "level",
        "event", "detail",
    ),
}


class StoreError(RuntimeError):
    """Corrupt or inconsistent run store state."""


class ManifestMismatch(StoreError):
    """Existing store was created from a different run configuration."""


def _canonical(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def digest(obj: dict) -> str:
    """SHA-256 hex of the canonical JSON of `obj`; run identities hash this."""
    return hashlib.sha256(_canonical(obj).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Identity of a run: its id plus the fully resolved configuration.

    created_at is provenance only and excluded from the identity hash,
    so a resumed run written at a later time still matches. The store
    format is written alongside; stores of any other format are refused
    before the identity is compared.
    """

    STORE_FORMAT = 2

    run_id: str
    config: dict
    created_at: str

    @classmethod
    def new(cls, run_id: str, config: dict) -> "RunManifest":
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        return cls(run_id=run_id, config=config, created_at=stamp)

    def identity(self) -> str:
        return digest({"run_id": self.run_id, "config": self.config})

    def to_json(self) -> str:
        return _canonical({
            "format": self.STORE_FORMAT, "run_id": self.run_id,
            "config": self.config, "created_at": self.created_at,
        })

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StoreError(f"manifest is not valid JSON: {exc}") from exc
        missing = {"run_id", "config", "created_at"} - set(data)
        if missing:
            raise StoreError(f"manifest missing fields: {sorted(missing)}")
        # stores written before the format field existed are format 1
        found = data.get("format", 1)
        if found != cls.STORE_FORMAT:
            raise StoreError(
                f"run store format {found!r} is not supported (this version reads "
                f"format {cls.STORE_FORMAT}); use a new store_dir"
            )
        return cls(run_id=data["run_id"], config=data["config"], created_at=data["created_at"])


@dataclass(frozen=True)
class AuditRecord:
    """Stage event worth keeping: failures, exclusions, salvage notes.

    Unparseable generations are recorded here and nowhere else, so the
    audit row doubles as the done-marker that stops resumed runs from
    re-attempting them.
    """

    stage: str
    item_id: str
    language: str
    generator_model: str
    level: int | str
    event: str
    detail: str
    run_id: str = ""


_QUOTE = ord('"')
_NEWLINE = ord("\n")


def _complete_prefix_length(data: bytes) -> int:
    """Byte length of the longest prefix ending on a row boundary.

    Quote-aware: newlines inside a quoted field are data, and a doubled
    quote inside a quoted field does not close it. Only the writer's own
    output is scanned, so stray quotes in unquoted fields cannot occur.
    """
    end = 0
    in_quotes = False
    i = 0
    n = len(data)
    while i < n:
        byte = data[i]
        if in_quotes:
            if byte == _QUOTE:
                if i + 1 < n and data[i + 1] == _QUOTE:
                    i += 2
                    continue
                in_quotes = False
        elif byte == _QUOTE:
            in_quotes = True
        elif byte == _NEWLINE:
            end = i + 1
        i += 1
    return end


def _encode_row(values: Sequence) -> bytes:
    sink = io.StringIO()
    csv.writer(sink, lineterminator="\n", quoting=csv.QUOTE_MINIMAL).writerow(values)
    return sink.getvalue().encode("utf-8")


def _parse_level(raw: str) -> int | str:
    return int(raw) if raw.lstrip("-").isdigit() else raw


def _parse_bool(raw: str) -> bool:
    if raw not in ("true", "false"):
        raise StoreError(f"boolean field must be true/false, got {raw!r}")
    return raw == "true"


def work_key(record) -> tuple:
    """The (item_id, language, generator_model, level) key a row is stored under."""
    return (record.item_id, record.language, record.generator_model, record.level)


class RunStore:
    """One run directory: manifest, append-only tables, rewrite aggregates."""

    def __init__(self, root: Path, manifest: RunManifest, salvage_report: dict[str, int]):
        self.root = Path(root)
        self.manifest = manifest
        self.run_id = manifest.run_id
        self.salvage_report = salvage_report
        self._keys: dict[str, set[tuple]] = {
            name: set() for name in (EXPLANATIONS, MASKS, SCORES, SIMILARITY, AUDIT)
        }
        for name in self._keys:
            for row in self._read_rows(name):
                self._keys[name].add(self._row_key(name, row))

    # -- lifecycle -------------------------------------------------------

    @classmethod
    def create(cls, root: Path | str, manifest: RunManifest) -> "RunStore":
        root = Path(root)
        manifest_path = root / MANIFEST_NAME
        if manifest_path.exists():
            raise StoreError(f"store already initialized: {manifest_path}")
        root.mkdir(parents=True, exist_ok=True)
        manifest_path.write_text(manifest.to_json() + "\n", encoding="utf-8")
        for name, columns in COLUMNS.items():
            (root / name).write_bytes(_encode_row(columns))
        return cls(root, manifest, salvage_report={})

    @classmethod
    def open_resume(cls, root: Path | str, manifest: RunManifest) -> "RunStore":
        """Open an existing store for further writes.

        The identity of `manifest` must match what the store was created
        with; the on-disk manifest (with the original created_at) wins.
        Torn final lines left by a killed writer are truncated away.
        """
        root = Path(root)
        existing = cls._read_manifest(root)
        if existing.identity() != manifest.identity():
            raise ManifestMismatch(
                f"store {root} belongs to run {existing.run_id!r} with a "
                "different configuration; refusing to mix runs"
            )
        salvage = {}
        for name in COLUMNS:
            dropped = cls._truncate_torn_tail(root / name)
            if dropped:
                salvage[name] = dropped
        return cls(root, existing, salvage_report=salvage)

    @classmethod
    def open_or_create(cls, root: Path | str, manifest: RunManifest) -> "RunStore":
        root = Path(root)
        if (root / MANIFEST_NAME).exists():
            return cls.open_resume(root, manifest)
        return cls.create(root, manifest)

    @classmethod
    def load(cls, root: Path | str) -> "RunStore":
        """Read-only open for reporting; does not modify files."""
        root = Path(root)
        return cls(root, cls._read_manifest(root), salvage_report={})

    @staticmethod
    def _read_manifest(root: Path) -> RunManifest:
        path = root / MANIFEST_NAME
        if not path.exists():
            raise StoreError(f"no run store at {root} (missing {MANIFEST_NAME})")
        return RunManifest.from_json(path.read_text(encoding="utf-8"))

    @staticmethod
    def _truncate_torn_tail(path: Path) -> int:
        if not path.exists():
            return 0
        data = path.read_bytes()
        keep = _complete_prefix_length(data)
        if keep == len(data):
            return 0
        with open(path, "r+b") as fh:
            fh.truncate(keep)
        return len(data) - keep

    # -- row codecs ------------------------------------------------------

    def _row_key(self, name: str, row: dict[str, str]) -> tuple:
        key = (
            row["item_id"], row["language"], row["generator_model"], _parse_level(row["level"])
        )
        if name == AUDIT:
            return (row["stage"], row["event"]) + key
        return key

    def _read_rows(self, name: str) -> list[dict[str, str]]:
        path = self.root / name
        if not path.exists():
            return []
        data = path.read_bytes()
        text = data[:_complete_prefix_length(data)].decode("utf-8")
        reader = csv.reader(io.StringIO(text, newline=""))
        try:
            header = next(reader)
        except StopIteration:
            return []
        if tuple(header) != COLUMNS[name]:
            raise StoreError(f"{name}: unexpected header {header!r}")
        rows = []
        for values in reader:
            if len(values) != len(header):
                raise StoreError(f"{name}: row width {len(values)} != {len(header)}")
            row = dict(zip(header, values))
            if row["run_id"] != self.run_id:
                raise StoreError(
                    f"{name}: row for run {row['run_id']!r} in store for {self.run_id!r}"
                )
            rows.append(row)
        return rows

    def _append(self, name: str, record, values: Sequence) -> bool:
        if record.run_id != self.run_id:
            raise StoreError(f"record run_id {record.run_id!r} != store run {self.run_id!r}")
        key = work_key(record)
        if name == AUDIT:
            key = (record.stage, record.event) + key
        if key in self._keys[name]:
            return False
        with open(self.root / name, "ab") as fh:
            fh.write(_encode_row(values))
        self._keys[name].add(key)
        return True

    # -- appends (return False when the work key is already stored) ------

    def append_explanation(self, e: Explanation) -> bool:
        return self._append(EXPLANATIONS, e, (
            e.run_id, e.item_id, e.language, e.generator_model, e.level,
            e.word_count, e.length_status, e.text,
        ))

    def append_mask(self, m: MaskReport) -> bool:
        return self._append(MASKS, m, (
            m.run_id, m.item_id, m.language, m.generator_model, m.level,
            m.label_hits, m.text_hits, m.masked_text,
        ))

    def append_score(self, s: ScoreResult) -> bool:
        probs = s.option_probs
        return self._append(SCORES, s, (
            s.run_id, s.item_id, s.language, s.generator_model, s.level,
            probs["A"], probs["B"], probs["C"], probs["D"],
            s.sufficiency, s.predicted, "true" if s.correct else "false",
            s.scorer_model, s.prompt_fingerprint,
        ))

    def append_similarity(self, s: SimilarityRecord) -> bool:
        return self._append(SIMILARITY, s, (
            s.run_id, s.item_id, s.language, s.generator_model, s.level, s.cosine,
        ))

    def append_audit(self, a: AuditRecord) -> bool:
        return self._append(AUDIT, a, (
            a.run_id, a.stage, a.item_id, a.language, a.generator_model, a.level,
            a.event, a.detail,
        ))

    # -- loads -----------------------------------------------------------

    def load_explanations(self) -> tuple[Explanation, ...]:
        return tuple(
            Explanation(
                item_id=r["item_id"], language=r["language"],
                generator_model=r["generator_model"], level=int(r["level"]),
                text=r["text"], word_count=int(r["word_count"]),
                length_status=r["length_status"],
                run_id=r["run_id"],
            )
            for r in self._read_rows(EXPLANATIONS)
        )

    def load_masks(self) -> tuple[MaskReport, ...]:
        return tuple(
            MaskReport(
                item_id=r["item_id"], language=r["language"],
                generator_model=r["generator_model"], level=int(r["level"]),
                label_hits=int(r["label_hits"]), text_hits=int(r["text_hits"]),
                masked_text=r["masked_text"], run_id=r["run_id"],
            )
            for r in self._read_rows(MASKS)
        )

    def load_scores(self) -> tuple[ScoreResult, ...]:
        return tuple(
            ScoreResult(
                item_id=r["item_id"], language=r["language"],
                generator_model=r["generator_model"], level=_parse_level(r["level"]),
                option_probs={o: float(r[f"option_prob_{o}"]) for o in "ABCD"},
                sufficiency=float(r["sufficiency"]), predicted=r["predicted"],
                correct=_parse_bool(r["correct"]), scorer_model=r["scorer_model"],
                prompt_fingerprint=r["prompt_fingerprint"], run_id=r["run_id"],
            )
            for r in self._read_rows(SCORES)
        )

    def load_similarities(self) -> tuple[SimilarityRecord, ...]:
        return tuple(
            SimilarityRecord(
                item_id=r["item_id"], language=r["language"],
                generator_model=r["generator_model"], level=int(r["level"]),
                cosine=float(r["cosine"]), run_id=r["run_id"],
            )
            for r in self._read_rows(SIMILARITY)
        )

    def load_audit(self) -> tuple[AuditRecord, ...]:
        return tuple(
            AuditRecord(
                stage=r["stage"], item_id=r["item_id"], language=r["language"],
                generator_model=r["generator_model"], level=_parse_level(r["level"]),
                event=r["event"], detail=r["detail"], run_id=r["run_id"],
            )
            for r in self._read_rows(AUDIT)
        )

    def load_aggregates(self) -> tuple[AggregateCell, ...]:
        return tuple(
            AggregateCell(
                generator_model=r["generator_model"], language=r["language"],
                level=_parse_level(r["level"]), n_items=int(r["n_items"]),
                n_excluded=int(r["n_excluded"]), accuracy=float(r["accuracy"]),
                mean_sufficiency=float(r["mean_sufficiency"]),
                mean_similarity=float(r["mean_similarity"]) if r["mean_similarity"] else None,
                run_id=r["run_id"],
            )
            for r in self._read_rows(AGGREGATES)
        )

    # -- derived views ---------------------------------------------------

    def done_keys(self, name: str) -> frozenset[tuple]:
        if name not in self._keys:
            raise StoreError(f"unknown table {name!r}")
        return frozenset(self._keys[name])

    def audit_keys(self, stage: str, event: str | None = None) -> frozenset[tuple]:
        """Work keys audited for `stage` (optionally one event kind)."""
        return frozenset(
            key[2:] for key in self._keys[AUDIT]
            if key[0] == stage and (event is None or key[1] == event)
        )

    # -- aggregates (full atomic rewrite, not append) ---------------------

    def write_aggregates(self, cells: Iterable[AggregateCell]) -> None:
        chunks = [_encode_row(COLUMNS[AGGREGATES])]
        for c in cells:
            if c.run_id != self.run_id:
                raise StoreError(
                    f"cell run_id {c.run_id!r} != store run {self.run_id!r}"
                )
            chunks.append(_encode_row((
                c.run_id, c.generator_model, c.language, c.level, c.n_items,
                c.n_excluded, c.accuracy, c.mean_sufficiency,
                "" if c.mean_similarity is None else c.mean_similarity,
            )))
        path = self.root / AGGREGATES
        tmp = path.with_suffix(".csv.tmp")
        with open(tmp, "wb") as fh:
            fh.write(b"".join(chunks))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
