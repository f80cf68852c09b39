"""The deterministic offline backend behind ``mock://<seed>`` endpoints.

The Gateway serves every request to a mock endpoint from a MockBackend of
that endpoint's seed, in process: the replies have the wire shapes of the
OpenAI-compatible endpoints and go through the same parsers.
"""

from __future__ import annotations

import hashlib
import random
import re
import threading
from operator import mul
from typing import Sequence
from urllib.parse import urlparse

from .numeric import ordered_sum

_BUDGET_RE = re.compile(r"(?:at most|حداکثر)\s+(\d+)\s+(?:words|کلمه)")
_WORD_POOL = (
    "the", "plant", "uses", "light", "energy", "to", "move", "heat", "through",
    "air", "water", "cells", "store", "food", "and", "rocks", "change", "slowly",
    "over", "time", "animals", "adapt", "while", "systems", "stay", "balanced",
)


def _mock_seed(base_url: str) -> int:
    netloc = urlparse(base_url).netloc
    if netloc.isdigit():
        return int(netloc)
    return int.from_bytes(hashlib.sha256(netloc.encode("utf-8")).digest()[:4], "big")


class MockBackend:
    """Deterministic offline stand-in for all three endpoint kinds.

    Generation is a pure function of (seed, model, prompt, params).
    Rewrite prompts stating a word budget get exactly that many words
    back; anything else gets a parseable Answer/Explanation block.
    Scoring gives every continuation token a logprob of -1.0, so the
    four option letters always tie; one call scores a tuple of
    continuations, one choice each, as an endpoint answers a list prompt:
    `prompt_texts` holds the prompt of each, so one call answers the
    options of several rows. Its arguments are strings and tuples of
    strings, and so hashable.
    Embeddings are unit-norm vectors seeded by the text hash, fixed width
    EMBED_DIM; `input` is what the wire carries, a text, which gets one
    item, or a sequence of texts, which gets one item per text.
    `counts` counts calls, that is requests, per kind.
    """

    EMBED_DIM = 32

    def __init__(self, seed: int):
        self.seed = seed
        self.counts = {"generate": 0, "logprobs": 0, "embeddings": 0}
        self._lock = threading.Lock()

    def _rng(self, *parts) -> random.Random:
        blob = "\x1f".join(str(p) for p in parts).encode("utf-8")
        return random.Random(int.from_bytes(hashlib.sha256(blob).digest()[:8], "big"))

    def generate(self, model_id: str, prompt_text: str, temperature: float, max_tokens: int) -> dict:
        with self._lock:
            self.counts["generate"] += 1
        rng = self._rng("generate", self.seed, model_id, prompt_text, temperature, max_tokens)
        budget_match = _BUDGET_RE.search(prompt_text)
        if budget_match:
            budget = int(budget_match.group(1))
            text = " ".join(rng.choice(_WORD_POOL) for _ in range(budget))
        else:
            letter = rng.choice("ABCD")
            body = " ".join(rng.choice(_WORD_POOL) for _ in range(rng.randint(18, 32)))
            text = f"Answer: {letter}\nExplanation: The {body}."
        return {
            "object": "chat.completion",
            "model": model_id,
            "choices": [
                {
                    "index": 0,
                    "message": {"role": "assistant", "content": text},
                    "finish_reason": "stop",
                }
            ],
        }

    def score(
        self, model_id: str, prompt_texts: tuple[str, ...], continuations: tuple[str, ...]
    ) -> dict:
        with self._lock:
            self.counts["logprobs"] += 1
        return {
            "object": "text_completion",
            "model": model_id,
            "choices": [
                self._echo_choice(index, prompt, continuation)
                for index, (prompt, continuation) in enumerate(zip(prompt_texts, continuations))
            ],
        }

    @staticmethod
    def _echo_choice(index: int, prompt_text: str, continuation: str) -> dict:
        # prompt echoed as one scoreless token; continuation split on
        # whitespace-prefixed runs so offsets line up exactly
        tokens = re.findall(r"\s*\S+", continuation)
        consumed = "".join(tokens)
        if consumed != continuation:
            tokens.append(continuation[len(consumed):])
        offsets, pos = [], len(prompt_text)
        for token in tokens:
            offsets.append(pos)
            pos += len(token)
        return {
            "index": index,
            "text": prompt_text + continuation,
            "finish_reason": "stop",
            "logprobs": {
                "tokens": [prompt_text] + tokens,
                "token_logprobs": [None] + [-1.0] * len(tokens),
                "text_offset": [0] + offsets,
            },
        }

    def embed(self, model_id: str, input: str | Sequence[str]) -> dict:
        with self._lock:
            self.counts["embeddings"] += 1
        texts = (input,) if isinstance(input, str) else input
        return {
            "object": "list",
            "model": model_id,
            "data": [
                {"object": "embedding", "index": index, "embedding": self._unit_vector(text)}
                for index, text in enumerate(texts)
            ],
        }

    def _unit_vector(self, text: str) -> list[float]:
        rng = self._rng("embed", text)
        vector = [rng.gauss(0.0, 1.0) for _ in range(self.EMBED_DIM)]
        norm = ordered_sum(map(mul, vector, vector)) ** 0.5
        return [x / norm for x in vector]
