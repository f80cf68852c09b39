"""Answer-leak masking for explanation texts.

Before an explanation is scored, any mention of an option label and any
verbatim copy of a full option text is replaced with the fixed token
``[MASK]``, so the scoring model cannot read the answer straight out of
the explanation. Replacement never rewrites anything else: unchanged
regions stay byte-identical and the pass is idempotent.

Label mentions covered (Latin letters only, also inside Persian text):
``(X)``, ``X)``, ``option X`` / ``choice X`` / ``answer X`` /
``answer is X`` (keywords case-insensitive), a bare capital letter at
sentence start directly followed by punctuation, and the Persian
keyword forms ``گزینه X`` / ``پاسخ X`` / ``جواب X``. A lone mid-sentence
article "a" never matches.

Option-text copies must cover the full option text; comparison is
case-insensitive with runs of whitespace collapsed. Overlapping copies
resolve longest-first, then leftmost. Input text is expected to be NFC
(corpus loading and explanation construction already guarantee it).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .constrainer import ALL_LEVELS, Explanation
from .corpus import QuestionItem

MASK_TOKEN = "[MASK]"
MASKING_RULES_VERSION = "1"

_LABEL_PATTERNS = (
    re.compile(r"\(([A-D])\)"),
    re.compile(r"\b([A-D])\)"),
    re.compile(r"\b(?:option|choice|answer(?:\s+is)?)\s+([A-D])\b", re.IGNORECASE),
    # bare capital letter opening a sentence, directly followed by punctuation
    re.compile(r"(?:\A|[.!?]\s|\n)\s*([A-D])(?=[.,:;!?])"),
    re.compile(r"(?:گزینه|پاسخ|جواب)\s+([A-D])\b"),
)


class MaskingError(ValueError):
    """Masking applied to the wrong item, or a malformed report."""


@dataclass(frozen=True)
class MaskReport:
    item_id: str
    language: str
    generator_model: str
    level: int
    label_hits: int
    text_hits: int
    masked_text: str

    def __post_init__(self) -> None:
        if self.level not in ALL_LEVELS:
            raise MaskingError(f"level {self.level!r} not in {ALL_LEVELS}")
        if self.label_hits < 0 or self.text_hits < 0:
            raise MaskingError("hit counts must be non-negative")


def compile_option_patterns(options: dict[str, str]) -> tuple[re.Pattern[str], ...]:
    """Full-copy patterns for an item's options, keyed by label in LABELS
    order. QuestionItem.option_patterns compiles them once per item and
    keeps them, so masking an item's rows and verifying them at score time
    share them."""
    # longest option first so nested copies resolve to the longer text;
    # sorted() is stable, so equal lengths keep label order
    patterns = []
    for option in sorted(options.values(), key=lambda o: -len(" ".join(o.split()))):
        body = r"\s+".join(re.escape(w) for w in option.split())
        patterns.append(re.compile(r"(?<!\w)" + body + r"(?!\w)", re.IGNORECASE))
    return tuple(patterns)


def _option_spans(text: str, item: QuestionItem) -> list[tuple[int, int]]:
    claimed: list[tuple[int, int]] = []
    for pattern in item.option_patterns:
        for m in pattern.finditer(text):
            start, end = m.span()
            if not any(s < end and start < e for s, e in claimed):
                claimed.append((start, end))
    return sorted(claimed)


def _label_spans(text: str) -> list[tuple[int, int]]:
    spans = {m.span(1) for pattern in _LABEL_PATTERNS for m in pattern.finditer(text)}
    return sorted(spans)


def _splice(text: str, spans: list[tuple[int, int]]) -> str:
    out: list[str] = []
    last = 0
    for start, end in spans:
        out.append(text[last:start])
        out.append(MASK_TOKEN)
        last = end
    out.append(text[last:])
    return "".join(out)


def mask_explanation(explanation: Explanation, item: QuestionItem) -> MaskReport:
    """Mask one explanation against its own item's labels and options.

    The report carries the masked text and one count per replacement
    kind; label_hits + text_hits equals the number of mask tokens
    introduced.
    """
    if explanation.item_id != item.id:
        raise MaskingError(
            f"explanation {explanation.item_id!r} does not belong to item {item.id!r}"
        )
    text_spans = _option_spans(explanation.text, item)
    partially = _splice(explanation.text, text_spans)
    label_spans = _label_spans(partially)
    return MaskReport(
        item_id=item.id,
        language=explanation.language,
        generator_model=explanation.generator_model,
        level=explanation.level,
        label_hits=len(label_spans),
        text_hits=len(text_spans),
        masked_text=_splice(partially, label_spans),
    )


def verify_masked(text: str, item: QuestionItem) -> bool:
    """True when no label pattern and no full option-text copy matches,
    which is when _label_spans and _option_spans find no span. It builds no
    span list: the check ends at the first match of any pattern."""
    return not any(pattern.search(text) for pattern in _LABEL_PATTERNS) and not any(
        pattern.search(text) for pattern in item.option_patterns
    )
