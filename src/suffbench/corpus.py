"""Ingestion of ARC-format multiple-choice corpora.

Each corpus file is line-delimited JSON, one four-option question per
line, either in English or already translated. Records are validated
and normalized (NFC text, digit labels remapped to letters) into
immutable in-memory corpora.
"""

from __future__ import annotations

import json
import logging
import random
import re
import unicodedata
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

log = logging.getLogger(__name__)

LABELS = ("A", "B", "C", "D")
LANGUAGES = ("en", "fa")

_DIGITS = ("1", "2", "3", "4")


class CorpusError(ValueError):
    """Unreadable corpus file or a record violating the question schema."""


def _nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


@dataclass(frozen=True)
class QuestionItem:
    """One four-option question with a single gold label."""

    id: str
    stem: str
    options: dict[str, str]
    gold: str
    language: str

    def __post_init__(self) -> None:
        if not self.id:
            raise CorpusError("item id must be non-empty")
        if not self.stem.strip():
            raise CorpusError(f"{self.id}: stem must be non-empty")
        if tuple(self.options) != LABELS:
            raise CorpusError(
                f"{self.id}: options must be keyed A-D in order, got {tuple(self.options)}"
            )
        for label, text in self.options.items():
            if not text.strip():
                raise CorpusError(f"{self.id}: option {label} text must be non-empty")
        if self.gold not in LABELS:
            raise CorpusError(f"{self.id}: gold label {self.gold!r} outside A-D")
        if self.language not in LANGUAGES:
            raise CorpusError(f"{self.id}: unknown language {self.language!r}")

    @cached_property
    def option_patterns(self) -> tuple[re.Pattern[str], ...]:
        """The masker's full-copy patterns of the options, compiled at first
        use and kept with the item, and so with the loaded corpus: however
        large the corpus, each item's are compiled once."""
        from .masker import compile_option_patterns  # masker imports this module

        return compile_option_patterns(self.options)


@dataclass(frozen=True)
class Corpus:
    language: str
    items: tuple[QuestionItem, ...]
    _index: dict[str, QuestionItem] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index: dict[str, QuestionItem] = {}
        for item in self.items:
            if item.id in index:
                raise CorpusError(f"duplicate item id {item.id!r}")
            index[item.id] = item
            if item.language != self.language:
                raise CorpusError(
                    f"{item.id}: item language {item.language!r} != corpus {self.language!r}"
                )
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, item_id: str) -> QuestionItem:
        return self._index[item_id]


def _normalize_record(rec: dict, language: str, where: str) -> QuestionItem:
    try:
        item_id = rec["id"]
        stem = rec["question"]["stem"]
        choices = rec["question"]["choices"]
        answer_key = rec["answerKey"]
    except (KeyError, TypeError) as exc:
        raise CorpusError(f"{where}: missing field {exc}") from exc
    if not isinstance(choices, list) or len(choices) != 4:
        raise CorpusError(f"{where}: expected exactly 4 choices, got {len(choices) if isinstance(choices, list) else type(choices).__name__}")

    options: dict[str, str] = {}
    original_labels: list[str] = []
    for i, choice in enumerate(choices):
        try:
            text, label = choice["text"], choice["label"]
        except (KeyError, TypeError) as exc:
            raise CorpusError(f"{where}: choice {i} missing field {exc}") from exc
        original_labels.append(str(label))
        # Digit labels map to the letter at the choice's position.
        letter = LABELS[i] if str(label) in _DIGITS else str(label)
        if letter in options:
            raise CorpusError(f"{where}: duplicate choice label {letter!r}")
        options[letter] = _nfc(str(text))
    if set(options) != set(LABELS):
        raise CorpusError(f"{where}: choice labels {sorted(options)} do not normalize to A-D")
    options = {label: options[label] for label in LABELS}

    answer_key = str(answer_key)
    if answer_key in _DIGITS:
        gold = LABELS[original_labels.index(answer_key)]
    else:
        gold = answer_key
    if gold not in LABELS:
        raise CorpusError(f"{where}: answerKey {rec['answerKey']!r} outside A-D after normalization")

    return QuestionItem(
        id=str(item_id),
        stem=_nfc(str(stem)),
        options=options,
        gold=gold,
        language=language,
    )


def load_corpus(path: str | Path, language: str) -> Corpus:
    """Read one line-delimited JSON corpus file.

    Raises CorpusError for a missing file, malformed JSON (with the line
    number), a record with anything other than four options, or a gold
    label outside A-D. An empty file yields an empty corpus.
    """
    if language not in LANGUAGES:
        raise CorpusError(f"unknown language {language!r}")
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {path}: {exc}") from exc

    items: list[QuestionItem] = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path.name}:{lineno}"
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{where}: malformed JSON ({exc.msg})") from exc
        items.append(_normalize_record(rec, language, where))
    log.info("loaded %d items from %s (%s)", len(items), path, language)
    return Corpus(language=language, items=tuple(items))


def subset(corpus: Corpus, n: int, seed: int) -> Corpus:
    """Deterministic sample of n items, original order preserved.

    Selection: ``indices = sorted(random.Random(seed).sample(range(len(corpus)), k))``
    with ``k = min(n, len(corpus))``. Same (corpus, n, seed) always gives
    the same items.
    """
    if n < 1:
        raise ValueError(f"subset size must be >= 1, got {n}")
    k = min(n, len(corpus.items))
    indices = sorted(random.Random(seed).sample(range(len(corpus.items)), k))
    picked = tuple(corpus.items[i] for i in indices)
    return replace(corpus, items=picked)
