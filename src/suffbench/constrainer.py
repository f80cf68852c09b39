"""Explanations, word budgets, and budget-constrained regeneration.

A level-0 explanation is the model's free-length justification of its
answer. For each enforced reduction level v in {10..90} the explanation
is regenerated under a word budget of floor((1 - v/100) * base words),
retried a fixed number of times on violation, then hard-truncated.

It also owns the key of every stored row, (item_id, language,
generator_model, level): every record checks it with check_key, and the
store reads a level back with parse_level.
"""

from __future__ import annotations

import logging
import re
import unicodedata
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING

from .corpus import LANGUAGES, QuestionItem

if TYPE_CHECKING:
    from .gateway import Gateway, GenerationResult, ModelEndpoint
    from .prompts import PromptTemplateSet

log = logging.getLogger(__name__)

CONSTRAINT_LEVELS = tuple(range(10, 100, 10))
ALL_LEVELS = (0,) + CONSTRAINT_LEVELS
# the model and level of each language's no-explanation row
BASELINE_MODEL = "baseline"
BASELINE_LEVEL = "noexp"
SCORED_LEVELS = ALL_LEVELS + (BASELINE_LEVEL,)
_LEVEL_OF_TEXT = {str(level): level for level in SCORED_LEVELS}
# the key a row is stored under, and its item's: the key without the level
WORK_KEY = ("item_id", "language", "generator_model", "level")
work_key = attrgetter(*WORK_KEY)
item_key = attrgetter(*WORK_KEY[:3])

# regenerations after the first attempt, before hard truncation
BUDGET_RETRIES = 3

LENGTH_STATUSES = ("within_budget", "truncated")


class ExplanationError(ValueError):
    """Invalid explanation state or level."""


class UnparseableOutput(ExplanationError):
    """Generator output does not follow the Answer/Explanation format."""


class EmptyRegeneration(ExplanationError):
    """Constrained regeneration produced no usable text after all retries."""


def parse_level(text: str) -> int | str:
    """The level stored as `text`, str(level): '010' or '۱۰' is no level.
    A ValueError, not a KeyError, so the store's reader names the row."""
    try:
        return _LEVEL_OF_TEXT[text]
    except KeyError:
        raise ValueError(f"level {text!r} not in {tuple(_LEVEL_OF_TEXT)}") from None


def check_key(record, levels: tuple, error: type[Exception]) -> None:
    """Raise `error` unless `record`'s language is one of LANGUAGES, its
    level one of `levels` (its table's), and it pairs the baseline level
    with the baseline model and no other."""
    if record.language not in LANGUAGES:
        raise error(f"unknown language {record.language!r}")
    if record.level not in levels:
        raise error(f"level {record.level!r} not in {levels}")
    if (record.level == BASELINE_LEVEL) != (record.generator_model == BASELINE_MODEL):
        raise error("a baseline row pairs level 'noexp' with model 'baseline'")


def count_words(text: str) -> int:
    """Number of maximal non-whitespace runs after NFC normalization; the
    rule is script-agnostic."""
    return len(unicodedata.normalize("NFC", text).split())


@dataclass(frozen=True)
class Explanation:
    """One explanation text at one reduction level.

    word_count must equal count_words(text); level 0 is the
    unconstrained base and is always within budget by definition.
    """

    item_id: str
    language: str
    generator_model: str
    level: int
    text: str
    word_count: int
    length_status: str = "within_budget"

    def __post_init__(self) -> None:
        check_key(self, ALL_LEVELS, ExplanationError)
        if self.length_status not in LENGTH_STATUSES:
            raise ExplanationError(f"unknown length status {self.length_status!r}")
        if self.level == 0 and self.length_status != "within_budget":
            raise ExplanationError("level 0 explanations are unconstrained")
        actual = count_words(self.text)
        if self.word_count != actual:
            raise ExplanationError(
                f"{self.item_id}: word_count {self.word_count} != counted {actual}"
            )


def make_explanation(
    item_id: str,
    language: str,
    generator_model: str,
    level: int,
    text: str,
    *,
    length_status: str = "within_budget",
) -> Explanation:
    """Build an Explanation with NFC-normalized, LF-only text (the store's
    csv reader splits rows at a bare CR) and derived word count."""
    text = unicodedata.normalize("NFC", text).replace("\r\n", "\n").replace("\r", "\n")
    return Explanation(
        item_id=item_id,
        language=language,
        generator_model=generator_model,
        level=level,
        text=text,
        word_count=count_words(text),
        length_status=length_status,
    )


def word_budget(base: Explanation, level: int) -> int:
    """Word budget for rewriting the level-0 `base` at `level`:
    max(1, floor((1 - level/100) * base words)).

    Computed in integer arithmetic; float multiplication loses exactness
    (e.g. a 20-word base at level 90 must give 2, not floor(1.9999...)).
    """
    if base.level != 0:
        raise ExplanationError(f"budgets derive from the level-0 base, got level {base.level}")
    if base.word_count < 1:
        raise ExplanationError("base explanation must contain at least one word")
    if level not in CONSTRAINT_LEVELS:
        raise ExplanationError(f"level {level!r} not in {CONSTRAINT_LEVELS}")
    return max(1, (100 - level) * base.word_count // 100)


_ANSWER_RE = re.compile(r"^\s*answer\s*:\s*(\S+)\s*$", re.IGNORECASE)
_EXPLANATION_RE = re.compile(r"^\s*explanation\s*:\s*(.*)$", re.IGNORECASE)


def extract_answer_and_explanation(raw: "GenerationResult | str") -> tuple[str, str]:
    """Parse the required generator output format:

        Answer: <letter>
        Explanation: <free text, may span lines>

    Keywords tolerate leading whitespace and any case; the letter itself
    must be an uppercase A-D. Anything else, or a generation cut off at
    max_tokens (finish_reason "length"), raises UnparseableOutput.
    """
    if not isinstance(raw, str) and raw.finish_reason == "length":
        raise UnparseableOutput("generation cut off at max_tokens")
    text = raw if isinstance(raw, str) else raw.text
    lines = text.splitlines()
    i = 0
    while i < len(lines) and not lines[i].strip():
        i += 1
    if i == len(lines):
        raise UnparseableOutput("empty generator output")
    m = _ANSWER_RE.match(lines[i])
    if not m:
        raise UnparseableOutput(f"first line is not an answer declaration: {lines[i]!r}")
    letter = m.group(1)
    if letter not in ("A", "B", "C", "D"):
        raise UnparseableOutput(f"answer label {letter!r} outside A-D")
    i += 1
    while i < len(lines) and not lines[i].strip():
        i += 1
    if i == len(lines):
        raise UnparseableOutput("no explanation section")
    m = _EXPLANATION_RE.match(lines[i])
    if not m:
        raise UnparseableOutput(f"expected an explanation section, got {lines[i]!r}")
    parts = [m.group(1)] + lines[i + 1:]
    explanation = "\n".join(parts).strip()
    if not explanation:
        raise UnparseableOutput("empty explanation body")
    return letter, explanation


def _strip_regenerated(text: str) -> str:
    """Constrained rewrites should be bare text, but tolerate a leading
    Explanation: keyword echoed back by the generator."""
    text = text.strip()
    m = _EXPLANATION_RE.match(text)
    if m:
        text = text[m.start(1):].strip()
    return text


def _truncate_words(text: str, budget: int) -> str:
    return " ".join(unicodedata.normalize("NFC", text).split()[:budget])


def constrain_explanation(
    item: "QuestionItem",
    base: Explanation,
    level: int,
    endpoint: "ModelEndpoint",
    templates: "PromptTemplateSet",
    gateway: "Gateway",
    *,
    temperature: float = 0.0,
    max_tokens: int = 512,
) -> Explanation:
    """Regenerate `base` under the word budget for `level`.

    Retries up to BUDGET_RETRIES times on a budget violation; if every attempt
    is over budget the last text is hard-truncated to the first budget
    words and marked length_status="truncated". An attempt that is empty
    or cut off at max_tokens (finish_reason "length") is retried as well
    and gives no text; the truncated text is the last over-budget one, and
    if no attempt gives text, EmptyRegeneration is raised. Retried
    requests carry a cache salt so they are distinct deterministic calls
    rather than replays of the identical one.
    """
    from .prompts import render_constrain

    budget = word_budget(base, level)
    prompt = render_constrain(item, base, budget, templates)

    over = ""
    for attempt in range(BUDGET_RETRIES + 1):
        salt = f"retry-{attempt}" if attempt else ""
        result = gateway.generate(
            endpoint, prompt, temperature=temperature, max_tokens=max_tokens, cache_salt=salt
        )
        # a rewrite cut off at max_tokens is no more usable than an empty one
        text = "" if result.finish_reason == "length" else _strip_regenerated(result.text)
        if not text:
            continue
        if count_words(text) <= budget:
            return make_explanation(
                item.id, item.language, endpoint.model_id, level, text,
                length_status="within_budget",
            )
        over = text
        log.debug(
            "%s level %d attempt %d over budget (%d > %d)",
            item.id, level, attempt, count_words(text), budget,
        )
    if not over:
        raise EmptyRegeneration(f"{item.id}: no usable text after {BUDGET_RETRIES + 1} attempts")
    return make_explanation(
        item.id, item.language, endpoint.model_id, level, _truncate_words(over, budget),
        length_status="truncated",
    )

