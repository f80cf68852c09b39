"""Answer-leak masking for explanation texts.

Before an explanation is scored, any mention of an option label and any
verbatim copy of a full option text is replaced with the fixed token
``[MASK]``, so the scoring model cannot read the answer straight out of
the explanation. Replacement never rewrites anything else: unchanged
regions stay byte-identical and the pass is idempotent.

Label mentions covered (Latin letters only, also inside Persian text):
``(X)``, ``X)``, ``option X`` / ``choice X`` / ``answer X`` /
``answer is X``, a bare capital letter at sentence start directly
followed by punctuation, and the Persian keyword forms ``گزینه X`` /
``پاسخ X`` / ``جواب X``. The English keyword forms ignore case, in the
keyword and in the letter after it: "choice a" is a leak, and "the answer
is a plant" masks its article. Elsewhere a lone mid-sentence article "a"
never matches.

Option-text copies must cover the full option text; comparison is
case-insensitive with runs of whitespace collapsed. Overlapping copies
resolve longest-first, then leftmost. Input text is expected to be NFC
(corpus loading and explanation construction already guarantee it).

Each item keeps two compiled forms of its options. One pattern, an
alternation of every option's full copy (QuestionItem.copy_pattern),
answers whether a text copies any option: verify_masked searches it once,
and masking searches it first. Only a text it matches is searched with
the four longest-first patterns (QuestionItem.option_patterns), which
give the spans masking claims, so an item whose texts copy no option
never compiles them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .constrainer import ALL_LEVELS, Explanation, check_key
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
        check_key(self, ALL_LEVELS, MaskingError)
        if self.label_hits < 0 or self.text_hits < 0:
            raise MaskingError("hit counts must be non-negative")


def _option_bodies(options: dict[str, str]) -> list[str]:
    """The full-copy body of each option: its words escaped and joined by
    runs of whitespace. Longest option first, so nested copies resolve to
    the longer text; sorted() is stable, so equal lengths keep label order."""
    return [
        r"\s+".join(map(re.escape, option.split()))
        for option in sorted(options.values(), key=lambda o: -len(" ".join(o.split())))
    ]


def compile_option_patterns(options: dict[str, str]) -> tuple[re.Pattern[str], ...]:
    """One full-copy pattern per option, longest first: the spans masking
    claims. QuestionItem.option_patterns compiles them at the first text of
    the item that copies an option, and keeps them."""
    return tuple(
        re.compile(r"(?<!\w)" + body + r"(?!\w)", re.IGNORECASE)
        for body in _option_bodies(options)
    )


def compile_copy_pattern(options: dict[str, str]) -> re.Pattern[str]:
    """One pattern whose search matches exactly when one of
    compile_option_patterns' does: the same bodies as one alternation,
    with the lookarounds outside it. Where a body matches but the
    lookahead fails, the engine backtracks into the alternation and tries
    the next body. QuestionItem.copy_pattern compiles it once per item."""
    bodies = "|".join(_option_bodies(options))
    return re.compile(r"(?<!\w)(?:" + bodies + r")(?!\w)", re.IGNORECASE)


def _option_spans(text: str, item: QuestionItem) -> list[tuple[int, int]]:
    # most texts copy no option: one search settles them, and the four
    # patterns are compiled and searched only for a text that does
    if item.copy_pattern.search(text) is None:
        return []
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
    span list, and one search of the item's copy pattern stands for the
    four option patterns: the check ends at the first match of any pattern."""
    return (
        not any(pattern.search(text) for pattern in _LABEL_PATTERNS)
        and item.copy_pattern.search(text) is None
    )
