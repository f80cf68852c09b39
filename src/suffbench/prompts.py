"""Prompt construction from versioned on-disk template sets.

A template set lives in ``<root>/<template_id>/`` with one UTF-8 file
per (kind, language): generate, constrain, score, baseline. Placeholders
use ``{name}`` syntax and every template must contain exactly the
placeholders its kind requires, checked at load time.

Scoring and baseline templates must end with the exact suffix
``"The answer is "`` so that option letters can be teacher-forced as the
continuation; the loader strips only trailing newline characters so the
trailing space survives.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .corpus import QuestionItem

if TYPE_CHECKING:
    from .constrainer import Explanation
    from .masker import MaskReport

ANSWER_SUFFIX = "The answer is "
# kind -> the PromptTemplateSet field that holds its template
_TEMPLATE_FIELDS = {
    "generate": "generation_template",
    "constrain": "constrain_template",
    "score": "scoring_template",
    "baseline": "baseline_template",
}
KINDS = tuple(_TEMPLATE_FIELDS)
DEFAULT_TEMPLATE_ID = "default-v1"

REQUIRED_PLACEHOLDERS: dict[str, frozenset[str]] = {
    "generate": frozenset({"stem", "options"}),
    "constrain": frozenset({"stem", "options", "base_explanation", "word_budget"}),
    "score": frozenset({"stem", "explanation", "options"}),
    "baseline": frozenset({"stem", "options"}),
}


class PromptError(ValueError):
    """Invalid render request."""


class TemplateError(PromptError):
    """Missing template file or malformed placeholder set."""


class UnmaskedExplanationError(PromptError):
    """Explanation text that still leaks the answer reached scoring."""


def default_template_root() -> Path:
    return Path(__file__).resolve().parent / "templates"


def _check_placeholders(kind: str, template: str) -> None:
    found: set[str] = set()
    for _literal, field_name, format_spec, conversion in string.Formatter().parse(template):
        if field_name is None:
            continue
        if field_name == "" or field_name.isdigit():
            raise TemplateError(f"{kind}: positional placeholders are not allowed")
        if format_spec or conversion is not None:
            raise TemplateError(f"{kind}: placeholder {{{field_name}}} must be bare")
        found.add(field_name)
    required = REQUIRED_PLACEHOLDERS[kind]
    if found != required:
        missing = sorted(required - found)
        extra = sorted(found - required)
        raise TemplateError(
            f"{kind}: placeholder set mismatch (missing {missing}, unexpected {extra})"
        )


@dataclass(frozen=True)
class PromptTemplateSet:
    """The four templates for one (template_id, language)."""

    template_id: str
    language: str
    generation_template: str
    constrain_template: str
    scoring_template: str
    baseline_template: str

    def __post_init__(self) -> None:
        for kind, field in _TEMPLATE_FIELDS.items():
            _check_placeholders(kind, getattr(self, field))
        for kind in ("score", "baseline"):
            if not getattr(self, _TEMPLATE_FIELDS[kind]).endswith(ANSWER_SUFFIX):
                raise TemplateError(f"{kind}: template must end with {ANSWER_SUFFIX!r}")


def load_template_set(
    template_id: str, language: str, root: Path | None = None
) -> PromptTemplateSet:
    """Read one template set from disk; strips only trailing newlines."""
    root = root if root is not None else default_template_root()
    set_dir = Path(root) / template_id
    if not set_dir.is_dir():
        raise TemplateError(f"unknown template id {template_id!r} under {root}")
    texts: dict[str, str] = {}
    for kind in KINDS:
        path = set_dir / f"{kind}_{language}.txt"
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise TemplateError(f"missing template file {path}: {exc}") from exc
        texts[kind] = raw.rstrip("\r\n")
    return PromptTemplateSet(
        template_id=template_id,
        language=language,
        generation_template=texts["generate"],
        constrain_template=texts["constrain"],
        scoring_template=texts["score"],
        baseline_template=texts["baseline"],
    )


@dataclass(frozen=True)
class RenderedPrompt:
    kind: str
    text: str

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise PromptError(f"unknown prompt kind {self.kind!r}")
        if not self.text:
            raise PromptError("rendered prompt must be non-empty")
        if self.kind in ("score", "baseline") and not self.text.endswith(ANSWER_SUFFIX):
            raise PromptError(f"{self.kind} prompt must end with {ANSWER_SUFFIX!r}")


def format_options(item: QuestionItem) -> str:
    return "\n".join(f"{label}) {text}" for label, text in item.options.items())


def _render(kind: str, templates: PromptTemplateSet, mapping: dict[str, str]) -> str:
    return getattr(templates, _TEMPLATE_FIELDS[kind]).format_map(mapping)


def _check_language(item: QuestionItem, templates: PromptTemplateSet) -> None:
    if item.language != templates.language:
        raise PromptError(
            f"item {item.id} is {item.language!r} but templates are {templates.language!r}"
        )


def render_generation(item: QuestionItem, templates: PromptTemplateSet) -> RenderedPrompt:
    """Prompt asking for an answer letter plus a free-length explanation."""
    _check_language(item, templates)
    text = _render("generate", templates, {"stem": item.stem, "options": format_options(item)})
    return RenderedPrompt("generate", text)


def render_constrain(
    item: QuestionItem,
    base: "Explanation",
    word_budget: int,
    templates: PromptTemplateSet,
) -> RenderedPrompt:
    """Prompt asking to rewrite the level-0 base within `word_budget` words,
    as given by constrainer.word_budget."""
    _check_language(item, templates)
    if base.item_id != item.id:
        raise PromptError(f"explanation {base.item_id!r} does not belong to item {item.id!r}")
    text = _render(
        "constrain",
        templates,
        {
            "stem": item.stem,
            "options": format_options(item),
            "base_explanation": base.text,
            "word_budget": str(word_budget),
        },
    )
    return RenderedPrompt("constrain", text)


def render_scoring(
    item: QuestionItem,
    mask: "MaskReport | None",
    templates: PromptTemplateSet,
) -> RenderedPrompt:
    """Scoring prompt for one masked explanation, or the no-explanation
    baseline when mask is None.

    Masked text is read back from the store, so it is checked again here:
    text that still trips the leak check must never reach the scoring
    model.
    """
    from .masker import verify_masked

    _check_language(item, templates)
    if mask is None:
        text = _render(
            "baseline", templates, {"stem": item.stem, "options": format_options(item)}
        )
        return RenderedPrompt("baseline", text)

    if mask.item_id != item.id:
        raise PromptError(
            f"explanation {mask.item_id!r} does not belong to item {item.id!r}"
        )
    if not verify_masked(mask.masked_text, item):
        raise UnmaskedExplanationError(f"{item.id}: masked explanation still leaks the answer")
    text = _render(
        "score",
        templates,
        {
            "stem": item.stem,
            "explanation": mask.masked_text,
            "options": format_options(item),
        },
    )
    return RenderedPrompt("score", text)
