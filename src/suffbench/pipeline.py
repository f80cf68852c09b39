"""Stage orchestration over a run store.

Six stages, each idempotent against the store's done-keys, so a run can
be interrupted and resumed at any point without repeating model calls:

    generate    level-0 explanations, one per item x language x model
    constrain   budget-limited rewrites at each reduction level
    mask        answer-leak masking of every stored explanation
    score       option probabilities for baseline and masked rows
    similarity  embedding cosine between base and constrained texts
    aggregate   per-cell accuracy / sufficiency / similarity table

Model calls run in a small thread pool, but results are committed to
the store from the calling thread in planning order, so table contents
are byte-identical regardless of worker count or scheduling.
"""

from __future__ import annotations

import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from .constrainer import (
    CONSTRAINT_LEVELS,
    EmptyRegeneration,
    UnparseableOutput,
    constrain_explanation,
    extract_answer_and_explanation,
    make_explanation,
)
from .corpus import Corpus
from .gateway import Gateway, ModelEndpoint
from .masker import mask_explanation
from .metrics import SimilarityRecord, aggregate, cosine
from .prompts import PromptTemplateSet, render_generation
from .runstore import EXPLANATIONS, MASKS, SCORES, SIMILARITY, AuditRecord, RunStore
from .scorer import BASELINE_LEVEL, BASELINE_MODEL, score_item

log = logging.getLogger(__name__)

# audit events that exclude an item from every cell of its model x language
EXCLUSION_EVENTS = ("unparseable", "empty_regeneration")


class PipelineError(RuntimeError):
    """Invalid pipeline request."""


class StageFailure(PipelineError):
    """A stage hit an error that is not an expected per-item failure."""


@dataclass
class RunContext:
    """Everything the stages need, resolved once by the caller."""

    store: RunStore
    gateway: Gateway
    corpora: dict[str, Corpus]
    generators: tuple[ModelEndpoint, ...]
    scorer: ModelEndpoint
    embedder: ModelEndpoint
    templates: dict[str, PromptTemplateSet]
    levels: tuple[int, ...] = CONSTRAINT_LEVELS
    temperature: float = 0.0
    max_tokens: int = 512
    workers: int = 4

    def __post_init__(self) -> None:
        if not self.generators:
            raise PipelineError("at least one generator model is required")
        if set(self.corpora) != set(self.templates):
            raise PipelineError(
                f"corpora languages {sorted(self.corpora)} != "
                f"template languages {sorted(self.templates)}"
            )
        bad = [v for v in self.levels if v not in CONSTRAINT_LEVELS]
        if bad or len(set(self.levels)) != len(self.levels):
            raise PipelineError(f"levels must be distinct values from {CONSTRAINT_LEVELS}")
        if self.workers < 1:
            raise PipelineError("workers must be >= 1")

    @property
    def run_id(self) -> str:
        return self.store.run_id

    def sorted_generators(self) -> list[ModelEndpoint]:
        return sorted(self.generators, key=lambda e: e.model_id)

    def item(self, language: str, item_id: str):
        return self.corpora[language][item_id]


@dataclass
class StageReport:
    stage: str
    planned: int = 0
    completed: int = 0
    failed: int = 0

    def line(self) -> str:
        return (
            f"{self.stage}: planned={self.planned} "
            f"completed={self.completed} failed={self.failed}"
        )


def expand_stages(requested: Iterable[str]) -> tuple[str, ...]:
    """Requested stages plus transitive dependencies, in canonical order."""
    want: set[str] = set()

    def add(name: str) -> None:
        if name not in _STAGE_TABLE:
            raise PipelineError(f"unknown stage {name!r}; expected one of {STAGES}")
        if name in want:
            return
        for dep in _STAGE_TABLE[name][2]:
            add(dep)
        want.add(name)

    for name in requested:
        add(name)
    return tuple(s for s in STAGES if s in want)


def _map_ordered(ctx: RunContext, units: Sequence, fn: Callable):
    """Run fn over units in a worker pool; return (unit, result, error)
    triples in planning order once every unit has finished."""
    if not units:
        return []
    workers = max(1, min(ctx.workers, len(units)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, unit) for unit in units]
    out = []
    for unit, future in zip(units, futures):
        error = future.exception()
        out.append((unit, None if error else future.result(), error))
    return out


def _audit(ctx: RunContext, stage: str, key: tuple, event: str, detail: str) -> None:
    item_id, language, model, level = key
    ctx.store.append_audit(AuditRecord(
        stage=stage, item_id=item_id, language=language, generator_model=model,
        level=level, event=event, detail=detail, run_id=ctx.run_id,
    ))


# -- generate ---------------------------------------------------------------


def plan_generate(ctx: RunContext) -> list[tuple]:
    done = ctx.store.done_keys(EXPLANATIONS) | ctx.store.audit_keys("generate")
    units = []
    for language in sorted(ctx.corpora):
        for endpoint in ctx.sorted_generators():
            for item in sorted(ctx.corpora[language], key=lambda i: i.id):
                key = (item.id, language, endpoint.model_id, 0)
                if key not in done:
                    units.append((key, endpoint, item))
    return units


def run_generate(ctx: RunContext, units: Sequence[tuple]) -> StageReport:
    def job(unit):
        key, endpoint, item = unit
        prompt = render_generation(item, ctx.templates[item.language])
        result = ctx.gateway.generate(
            endpoint, prompt, temperature=ctx.temperature, max_tokens=ctx.max_tokens
        )
        _, body = extract_answer_and_explanation(result)
        return make_explanation(item.id, item.language, endpoint.model_id, 0, body)

    report = StageReport("generate", planned=len(units))
    for (key, endpoint, item), explanation, error in _map_ordered(ctx, units, job):
        if error is None:
            ctx.store.append_explanation(replace(explanation, run_id=ctx.run_id))
            report.completed += 1
        elif isinstance(error, UnparseableOutput):
            log.warning("generate %s: unparseable output: %s", key, error)
            _audit(ctx, "generate", key, "unparseable", str(error))
            report.failed += 1
        else:
            raise StageFailure(f"generate {key}: {error}") from error
    return report


# -- constrain ----------------------------------------------------------------


def plan_constrain(ctx: RunContext) -> list[tuple]:
    done = ctx.store.done_keys(EXPLANATIONS) | ctx.store.audit_keys("constrain")
    bases = [e for e in ctx.store.load_explanations() if e.level == 0]
    units = []
    for base in sorted(bases, key=lambda e: (e.language, e.generator_model, e.item_id)):
        for level in sorted(ctx.levels):
            key = (base.item_id, base.language, base.generator_model, level)
            if key not in done:
                units.append((key, base, level))
    return units


def run_constrain(ctx: RunContext, units: Sequence[tuple]) -> StageReport:
    endpoints = {e.model_id: e for e in ctx.generators}

    def job(unit):
        key, base, level = unit
        item = ctx.item(base.language, base.item_id)
        return constrain_explanation(
            item, base, level, endpoints[base.generator_model],
            ctx.templates[base.language], ctx.gateway,
            temperature=ctx.temperature, max_tokens=ctx.max_tokens,
        )

    report = StageReport("constrain", planned=len(units))
    for (key, base, level), constrained, error in _map_ordered(ctx, units, job):
        if error is None:
            ctx.store.append_explanation(replace(constrained, run_id=ctx.run_id))
            report.completed += 1
        elif isinstance(error, EmptyRegeneration):
            log.warning("constrain %s: %s", key, error)
            _audit(ctx, "constrain", key, "empty_regeneration", str(error))
            report.failed += 1
        else:
            raise StageFailure(f"constrain {key}: {error}") from error
    return report


# -- mask ---------------------------------------------------------------------


def plan_mask(ctx: RunContext) -> list[tuple]:
    done = ctx.store.done_keys(MASKS)
    units = []
    explanations = ctx.store.load_explanations()
    order = sorted(explanations, key=lambda e: (e.language, e.generator_model, e.item_id, e.level))
    for e in order:
        key = (e.item_id, e.language, e.generator_model, e.level)
        if key not in done:
            units.append((key, e))
    return units


def run_mask(ctx: RunContext, units: Sequence[tuple]) -> StageReport:
    def job(unit):
        key, explanation = unit
        item = ctx.item(explanation.language, explanation.item_id)
        return mask_explanation(explanation, item)

    report = StageReport("mask", planned=len(units))
    for (key, _), mask_report, error in _map_ordered(ctx, units, job):
        if error is not None:
            raise StageFailure(f"mask {key}: {error}") from error
        ctx.store.append_mask(replace(mask_report, run_id=ctx.run_id))
        report.completed += 1
    return report


# -- score ----------------------------------------------------------------------


def plan_score(ctx: RunContext) -> list[tuple]:
    done = ctx.store.done_keys(SCORES)
    units = []
    for language in sorted(ctx.corpora):
        for item in sorted(ctx.corpora[language], key=lambda i: i.id):
            key = (item.id, language, BASELINE_MODEL, BASELINE_LEVEL)
            if key not in done:
                units.append((key, None))
    masks = ctx.store.load_masks()
    order = sorted(masks, key=lambda m: (m.language, m.generator_model, m.item_id, m.level))
    for m in order:
        key = (m.item_id, m.language, m.generator_model, m.level)
        if key not in done:
            units.append((key, m))
    return units


def run_score(ctx: RunContext, units: Sequence[tuple]) -> StageReport:
    def job(unit):
        key, mask = unit
        item_id, language, _, _ = key
        item = ctx.item(language, item_id)
        return score_item(ctx.gateway, ctx.scorer, item, mask, ctx.templates[language])

    report = StageReport("score", planned=len(units))
    for (key, _), result, error in _map_ordered(ctx, units, job):
        if error is not None:
            raise StageFailure(f"score {key}: {error}") from error
        ctx.store.append_score(replace(result, run_id=ctx.run_id))
        report.completed += 1
    return report


# -- similarity -------------------------------------------------------------------


def plan_similarity(ctx: RunContext) -> list[tuple]:
    done = ctx.store.done_keys(SIMILARITY)
    explanations = ctx.store.load_explanations()
    bases = {
        (e.item_id, e.language, e.generator_model): e
        for e in explanations if e.level == 0
    }
    units = []
    order = sorted(
        (e for e in explanations if e.level != 0),
        key=lambda e: (e.language, e.generator_model, e.item_id, e.level),
    )
    for e in order:
        key = (e.item_id, e.language, e.generator_model, e.level)
        if key in done:
            continue
        base = bases.get((e.item_id, e.language, e.generator_model))
        if base is None:
            raise StageFailure(f"similarity {key}: constrained row without a level-0 base")
        units.append((key, base, e))
    return units


def run_similarity(ctx: RunContext, units: Sequence[tuple]) -> StageReport:
    # comparison is between the raw texts; masking only affects scoring
    memo: dict[str, tuple[float, ...]] = {}
    memo_lock = threading.Lock()

    def embed_text(text: str) -> tuple[float, ...]:
        with memo_lock:
            vector = memo.get(text)
        if vector is None:
            vector = ctx.gateway.embed(ctx.embedder, text).vector
            with memo_lock:
                memo[text] = vector
        return vector

    def job(unit):
        key, base, constrained = unit
        value = cosine(embed_text(base.text), embed_text(constrained.text))
        return SimilarityRecord(
            item_id=constrained.item_id, language=constrained.language,
            generator_model=constrained.generator_model, level=constrained.level,
            cosine=value,
        )

    report = StageReport("similarity", planned=len(units))
    for (key, _, _), record, error in _map_ordered(ctx, units, job):
        if error is not None:
            raise StageFailure(f"similarity {key}: {error}") from error
        ctx.store.append_similarity(replace(record, run_id=ctx.run_id))
        report.completed += 1
    return report


# -- aggregate ---------------------------------------------------------------------


def exclusion_keys(store: RunStore) -> set[tuple[str, str, str]]:
    """(language, model, item) triples dropped from every level's cell."""
    return {
        (a.language, a.generator_model, a.item_id)
        for a in store.load_audit() if a.event in EXCLUSION_EVENTS
    }


def plan_aggregate(ctx: RunContext) -> list[tuple]:
    # always recomputed; the write is a cheap atomic rewrite
    return [()]


def run_aggregate(ctx: RunContext, units: Sequence[tuple]) -> StageReport:
    scores = ctx.store.load_scores()
    similarities = ctx.store.load_similarities()
    try:
        cells = aggregate(scores, similarities, exclusion_keys(ctx.store), run_id=ctx.run_id)
    except ValueError as exc:
        raise StageFailure(f"aggregate: {exc}") from exc
    ctx.store.write_aggregates(cells)
    return StageReport("aggregate", planned=1, completed=len(cells))


# name -> (planner, runner, dependencies), in canonical execution order
_STAGE_TABLE: dict[str, tuple[Callable, Callable, tuple[str, ...]]] = {
    "generate": (plan_generate, run_generate, ()),
    "constrain": (plan_constrain, run_constrain, ("generate",)),
    "mask": (plan_mask, run_mask, ("constrain",)),
    "score": (plan_score, run_score, ("mask",)),
    "similarity": (plan_similarity, run_similarity, ("constrain",)),
    "aggregate": (plan_aggregate, run_aggregate, ("score", "similarity")),
}

STAGES = tuple(_STAGE_TABLE)


def run_stage(ctx: RunContext, name: str, *, dry_run: bool = False) -> StageReport:
    if name not in _STAGE_TABLE:
        raise PipelineError(f"unknown stage {name!r}; expected one of {STAGES}")
    plan, execute, _ = _STAGE_TABLE[name]
    units = plan(ctx)
    if dry_run:
        return StageReport(name, planned=len(units))
    return execute(ctx, units)


def run(ctx: RunContext, requested: Iterable[str], *, dry_run: bool = False) -> list[StageReport]:
    """Execute the requested stages plus their dependencies, in order.

    Dry-run plans against the store's current contents without any model
    calls, so counts for later stages reflect work visible now, not work
    earlier stages would create.
    """
    reports = []
    for name in expand_stages(requested):
        report = run_stage(ctx, name, dry_run=dry_run)
        log.info("%s", report.line())
        reports.append(report)
    return reports
