"""Option-probability scoring with a fixed probe model.

Each of the four option letters is teacher-forced as the continuation
" X" of a prompt ending in "The answer is ", its token logprobs are
summed without length normalization, and a numerically stable softmax
over the four sums gives the option distribution. Sufficiency is the
probability assigned to the gold option; the prediction is the argmax
with alphabetical tie-breaking.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from .constrainer import ALL_LEVELS
from .corpus import LABELS, LANGUAGES, QuestionItem
from .gateway import Gateway, LogprobResult, ModelEndpoint
from .numeric import ordered_sum
from .prompts import RenderedPrompt, render_scoring

if TYPE_CHECKING:
    from .masker import MaskReport
    from .prompts import PromptTemplateSet

BASELINE_MODEL = "baseline"
BASELINE_LEVEL = "noexp"
# what each option's letter is teacher-forced as, in LABELS order
_CONTINUATIONS = tuple(f" {option}" for option in LABELS)
_LABEL_SET = frozenset(LABELS)


class ScoringError(ValueError):
    """Malformed scoring input or result."""


def softmax_probs(logprobs: Mapping[str, float]) -> dict[str, float]:
    """Softmax over the four option logprob sums, max-subtracted so very
    negative inputs underflow to 0.0 instead of overflowing; the exps are
    summed in LABELS order (ordered_sum)."""
    if logprobs.keys() != _LABEL_SET:
        raise ScoringError(f"logprobs must cover exactly {LABELS}, got {sorted(logprobs)}")
    peak = max(logprobs.values())
    exps = [math.exp(logprobs[option] - peak) for option in LABELS]
    total = ordered_sum(exps)
    return {option: exp / total for option, exp in zip(LABELS, exps)}


def predict(option_probs: Mapping[str, float]) -> str:
    """Argmax option; max() keeps the first maximum, so ties resolve
    alphabetically."""
    return max(LABELS, key=option_probs.__getitem__)


@dataclass(frozen=True)
class ScoreResult:
    item_id: str
    language: str
    generator_model: str
    level: int | str
    option_probs: dict[str, float]
    sufficiency: float
    predicted: str
    correct: bool
    scorer_model: str
    prompt_fingerprint: str

    def __post_init__(self) -> None:
        if self.language not in LANGUAGES:
            raise ScoringError(f"unknown language {self.language!r}")
        if self.level != BASELINE_LEVEL and self.level not in ALL_LEVELS:
            raise ScoringError(f"level {self.level!r} not in {ALL_LEVELS} or {BASELINE_LEVEL!r}")
        if (self.level == BASELINE_LEVEL) != (self.generator_model == BASELINE_MODEL):
            raise ScoringError("baseline rows pair level 'noexp' with model 'baseline'")
        if tuple(self.option_probs) != LABELS:
            raise ScoringError(f"option_probs must be keyed {LABELS} in order")
        if any(p < 0.0 for p in self.option_probs.values()):
            raise ScoringError("option probabilities must be non-negative")
        if abs(sum(self.option_probs.values()) - 1.0) > 1e-9:
            raise ScoringError("option probabilities must sum to 1")
        if not 0.0 <= self.sufficiency <= 1.0:
            raise ScoringError(f"sufficiency {self.sufficiency} outside [0, 1]")
        if self.predicted not in LABELS:
            raise ScoringError(f"predicted {self.predicted!r} outside A-D")


def _prompt_fingerprint(scorer_model: str, prompt_text: str) -> str:
    blob = f"{scorer_model}\n{prompt_text}".encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _check_kind(prompt: RenderedPrompt) -> None:
    if prompt.kind not in ("score", "baseline"):
        raise ScoringError(f"cannot score a {prompt.kind!r} prompt")


def score_rows(
    gateway: Gateway, scorer: ModelEndpoint, prompts: Sequence[RenderedPrompt]
) -> list[list[LogprobResult] | None]:
    """The LogprobResults of the four options of each scoring or baseline
    prompt, with the options of every prompt sent to the scorer as one
    request with a list prompt (Gateway.score_prompts). A row is None if
    the scorer refuses a list as long as that: score_options scores it on
    its own."""
    for prompt in prompts:
        _check_kind(prompt)
    return gateway.score_prompts(scorer, [prompt.text for prompt in prompts], _CONTINUATIONS)


def score_options(
    gateway: Gateway,
    scorer: ModelEndpoint,
    prompt: RenderedPrompt,
    results: Sequence[LogprobResult] | None = None,
) -> dict[str, float]:
    """Option distribution for one scoring or baseline prompt, from the
    LogprobResults of its four options.

    Unless the caller has them (score_rows), the four option continuations
    go to the scorer as one row, Gateway.score_prompts of this one prompt:
    one cache entry, and one request with a list prompt, which has its own
    probe, or one per option on the calling thread for a scorer that
    refuses it. The score stage keeps an HTTP scorer busy by running more
    units at once (pipeline.requests_in_flight).
    """
    _check_kind(prompt)
    if results is None:
        [results] = gateway.score_prompts(scorer, [prompt.text], _CONTINUATIONS)
    return softmax_probs(
        {option: result.total_logprob for option, result in zip(LABELS, results)}
    )


def score_item(
    gateway: Gateway,
    scorer: ModelEndpoint,
    item: QuestionItem,
    mask: "MaskReport | None",
    templates: "PromptTemplateSet",
    prompt: RenderedPrompt | None = None,
    results: Sequence[LogprobResult] | None = None,
) -> ScoreResult:
    """Score one masked explanation, or the no-explanation baseline when
    mask is None. `prompt` is the row's prompt, render_scoring(item, mask,
    templates), and `results` its options' LogprobResults (score_rows), if
    the caller has them; what the caller leaves None is made here."""
    if prompt is None:
        prompt = render_scoring(item, mask, templates)
    option_probs = score_options(gateway, scorer, prompt, results)
    predicted = predict(option_probs)
    return ScoreResult(
        item_id=item.id,
        language=item.language,
        generator_model=mask.generator_model if mask else BASELINE_MODEL,
        level=mask.level if mask else BASELINE_LEVEL,
        option_probs=option_probs,
        sufficiency=option_probs[item.gold],
        predicted=predicted,
        correct=predicted == item.gold,
        scorer_model=scorer.model_id,
        prompt_fingerprint=_prompt_fingerprint(scorer.model_id, prompt.text),
    )
