"""Seeded synthetic ARC-format corpora for the benchmark.

Option texts are drawn from the mock generator's word pool, so the mock's
explanations contain real copies of option texts and masking does real
replacements. Stems are short sentences in the corpus language. The same
(seed, language, size) always gives byte-identical files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from suffbench.gateway import _WORD_POOL

_STEMS = {
    "en": (
        "Which process best explains how {a} and {b} interact?",
        "What most likely happens when {a} meets {b}?",
        "Which statement about {a} is supported by the passage on {b}?",
        "Why do scientists study {a} together with {b}?",
    ),
    "fa": (
        "کدام فرایند رابطه {a} و {b} را بهتر توضیح می‌دهد؟",
        "وقتی {a} با {b} روبه‌رو می‌شود چه رخ می‌دهد؟",
        "کدام گزاره درباره {a} با متن {b} سازگار است؟",
        "چرا دانشمندان {a} را همراه با {b} بررسی می‌کنند؟",
    ),
}

LABELS = ("A", "B", "C", "D")


def _option_text(rng: random.Random) -> str:
    # one-word options are copied by almost every mock explanation, so they
    # are kept rare: about a fifth of explanations then need a text mask
    n_words = rng.choices((1, 2, 3), weights=(1, 4, 2))[0]
    return " ".join(rng.choice(_WORD_POOL) for _ in range(n_words))


def make_records(seed: int, language: str, n_items: int) -> list[dict]:
    """ARC-format records: four distinct options, one gold label each."""
    if language not in _STEMS:
        raise ValueError(f"no stems for language {language!r}")
    rng = random.Random(f"{seed}:{language}")
    records = []
    for index in range(n_items):
        options: list[str] = []
        while len(options) < 4:
            text = _option_text(rng)
            if text not in options:
                options.append(text)
        stem = rng.choice(_STEMS[language]).format(
            a=rng.choice(_WORD_POOL), b=rng.choice(_WORD_POOL)
        )
        records.append({
            "id": f"s{seed}-{language}-{index:05d}",
            "question": {
                "stem": stem,
                "choices": [{"text": t, "label": l} for t, l in zip(options, LABELS)],
            },
            "answerKey": rng.choice(LABELS),
        })
    return records


def write_corpus(path: Path, seed: int, language: str, n_items: int) -> Path:
    lines = [json.dumps(r, ensure_ascii=False) for r in make_records(seed, language, n_items)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
