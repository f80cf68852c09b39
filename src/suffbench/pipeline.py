"""Stage orchestration over a run store.

Six stages, each idempotent against the store's done-keys, so a run can
be interrupted and resumed at any point without repeating model calls:

    generate    level-0 explanations, one per item x language x model
    constrain   budget-limited rewrites at each reduction level
    mask        answer-leak masking of every stored explanation
    score       option probabilities for baseline and masked rows
    similarity  embedding cosine between base and constrained texts
    aggregate   per-cell accuracy / sufficiency / similarity table

A stage that calls an HTTP endpoint runs its units in a thread pool, one
request in flight per thread; every other stage (mask, and any stage whose
endpoints are all mock://) is CPU work under one GIL and runs its units
inline on the calling thread. Either way each result is committed to the
store from the calling thread, in planning order, as soon as it and every
unit before it have finished: table contents are byte-identical regardless
of worker count or scheduling, and a run killed mid-stage loses only the
units in flight. Once a result is committed only the store keeps it, and
the similarity stage drops a batch's embedding vectors once its rows have
their cosines: apart from the store's records, a stage holds memory for
its work in flight, not for the whole corpus.

Two stages batch their requests. The similarity stage embeds by group, a
level-0 base and its rewrites, and sends as many whole groups as fit in
EMBED_BATCH texts per request. The score stage sends the options of
SCORE_BATCH rows as one request, a list of 64 prompts. From the first
batch, in plan order, with a row the scorer refused in that list, it falls
back to one row per request, then one option per request for a scorer that
refuses lists too; no list size between a row's and a batch's is tried.
Each numbers its batches over its full plan, done or not, so a resumed run
sends the requests an uninterrupted run would.
"""

from __future__ import annotations

import logging
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Container, Iterable, Iterator, Sequence

from .constrainer import (
    BASELINE_LEVEL,
    BASELINE_MODEL,
    EmptyRegeneration,
    UnparseableOutput,
    constrain_explanation,
    extract_answer_and_explanation,
    item_key,
    make_explanation,
    work_key,
)
from .corpus import Corpus
from .gateway import Gateway, ModelEndpoint
from .masker import mask_explanation
from .metrics import SimilarityRecord, aggregate, cosine, excluded, norm
from .prompts import PromptTemplateSet, render_generation, render_scoring
from .runstore import EXPLANATIONS, MASKS, SCORES, SIMILARITY, AuditRecord, RunStore
from .scorer import ScoreResult, score_item, score_rows

log = logging.getLogger(__name__)

# requests in flight per worker on a stage that calls an HTTP endpoint: sized
# on the http-latency bench (25 ms loopback stub), not on what the stages do
REQUESTS_PER_WORKER = 4
# units a pool thread may have submitted but not yet yielded: results that
# land behind a slow head unit wait for it, so at most this many per thread
# are held; a similarity unit is a batch of up to EMBED_BATCH texts, so that
# is up to UNITS_AHEAD_PER_THREAD x EMBED_BATCH = 320 vectors per thread (256
# with batches of 16 texts). No bench workload has a stage with more units
# than the cap. A cap of 2 per thread made
# http-latency 3-15% slower (CHANGES.md, the entry that embeds the similarity
# stage's texts in batched /embeddings requests): a head unit in a 429
# backoff left the other threads idle
UNITS_AHEAD_PER_THREAD = 16
# texts per /embeddings request in the similarity stage, a whole number of
# groups (a base and its rewrites), or one larger group: at 9 levels a group
# is 10 texts, so two go out per request. A stage holds the vectors of the
# batches in flight, so up to 20 vectors per batch (16 with batches of 16
# texts). 20 rather than 16 cut the mock-cold bench at seed 1 from 125
# embedding requests to 100
EMBED_BATCH = 20
# scored rows whose options go out as one /completions request, a list of
# 4 x SCORE_BATCH prompts. 16 rows rather than 4 cut the mock-cold bench at
# seed 1 from 2650 model requests to 2257 (scoring 525 -> 132). An endpoint
# that takes fewer than 64 prompts per request refuses the batch and gets
# one row, 4 prompts, per request
SCORE_BATCH = 16


class PipelineError(RuntimeError):
    """Invalid pipeline request."""


class StageFailure(PipelineError):
    """A stage hit an error that is not an expected per-item failure."""


@dataclass
class RunContext:
    """Everything the stages need, resolved and checked once by the caller
    (cli.load_config): at least one generator, one template set per
    corpus language, distinct ascending levels from CONSTRAINT_LEVELS,
    and workers >= 1."""

    store: RunStore
    gateway: Gateway
    corpora: dict[str, Corpus]
    generators: tuple[ModelEndpoint, ...]
    scorer: ModelEndpoint
    embedder: ModelEndpoint
    templates: dict[str, PromptTemplateSet]
    levels: tuple[int, ...]
    temperature: float
    max_tokens: int
    workers: int

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


def requests_in_flight(workers: int) -> int:
    """Requests a stage that calls an HTTP endpoint keeps in flight, one per
    pool thread; the HTTP session keeps a connection for each."""
    return REQUESTS_PER_WORKER * workers


def _map_ordered(ctx: RunContext, units: Sequence, fn: Callable, endpoints: Iterable = ()):
    """Run fn over units; yield (unit, result, error) triples in planning
    order, each as soon as its unit and every unit before it have finished.

    If any of the `endpoints` fn calls is HTTP, the units run on a pool of
    requests_in_flight(workers) threads, with at most UNITS_AHEAD_PER_THREAD
    units per thread submitted and not yet yielded: the results that land
    behind a slow head unit are held, up to that many. The units not yet
    started are cancelled when the caller stops early. Otherwise, or with
    one unit, they run inline on the calling thread, whatever `workers` is:
    threads would only slow CPU-bound mock work down. Inline only an
    Exception is caught, so a KeyboardInterrupt stops the stage at once.
    Either way a result is released once it is yielded, so it lives no
    longer than the caller keeps it."""
    http = any(not endpoint.is_mock for endpoint in endpoints)
    threads = min(requests_in_flight(ctx.workers), len(units)) if http else 1
    if threads <= 1:
        for unit in units:
            yield unit, *_attempt(fn, unit)
        return
    window = UNITS_AHEAD_PER_THREAD * threads
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        futures: deque = deque()
        for i, unit in enumerate(units):
            for ahead in units[i + len(futures):i + window]:
                futures.append(pool.submit(fn, ahead))
            future = futures.popleft()
            error = future.exception()
            yield unit, None if error else future.result(), error
    finally:
        pool.shutdown(cancel_futures=True)


def _attempt(fn: Callable, *args) -> tuple:
    """(fn(*args), None), or (None, the Exception it raised)."""
    try:
        return fn(*args), None
    except Exception as exc:
        return None, exc


def _commit(
    ctx: RunContext, stage: str, planned: int, results: Iterator[tuple], append: Callable,
    expected: type[Exception] | tuple = (), event: str = "",
) -> StageReport:
    """Append each result of `results`, (unit, result, error) triples in
    planning order with each unit led by its work key, as it lands.

    An `expected` error is audited as `event` and counted as failed; any
    other error raises StageFailure, with the units before it stored and
    `results` closed, which cancels the units not yet started.
    """
    report = StageReport(stage, planned=planned)
    with closing(results):
        for unit, result, error in results:
            key = unit[0]
            if error is None:
                append(result)
                report.completed += 1
            elif isinstance(error, expected):
                log.warning("%s %s: %s: %s", stage, key, event, error)
                # an audit record's fields are the stage, the work key, the event and the detail
                ctx.store.append_audit(AuditRecord(stage, *key, event, str(error)))
                report.failed += 1
            else:
                raise StageFailure(f"{stage} {key}: {error}") from error
    return report


def _pending(records: Iterable, done: Container[tuple]) -> list[tuple]:
    """(work key, record) for each record whose key is not in `done`,
    ordered by (language, generator_model, item_id, level)."""
    pending = [(work_key(r), r) for r in records]
    pending.sort(key=lambda unit: (unit[0][1], unit[0][2], unit[0][0], unit[0][3]))
    return [unit for unit in pending if unit[0] not in done]


# -- generate ---------------------------------------------------------------


def plan_generate(ctx: RunContext) -> list[tuple]:
    done = ctx.store.done_keys(EXPLANATIONS) | ctx.store.audit_keys("generate")
    units = []
    for language in sorted(ctx.corpora):
        for endpoint in sorted(ctx.generators, key=lambda e: e.model_id):
            for item in sorted(ctx.corpora[language], key=lambda i: i.id):
                key = (item.id, language, endpoint.model_id, 0)
                if key not in done:
                    units.append((key, endpoint, item))
    return units


def run_generate(ctx: RunContext, units: Sequence[tuple]) -> StageReport:
    def job(unit):
        _, endpoint, item = unit
        prompt = render_generation(item, ctx.templates[item.language])
        result = ctx.gateway.generate(
            endpoint, prompt, temperature=ctx.temperature, max_tokens=ctx.max_tokens
        )
        _, body = extract_answer_and_explanation(result)
        return make_explanation(item.id, item.language, endpoint.model_id, 0, body)

    return _commit(
        ctx, "generate", len(units), _map_ordered(ctx, units, job, ctx.generators),
        ctx.store.append_explanation, UnparseableOutput, "unparseable",
    )


# -- constrain ----------------------------------------------------------------


def plan_constrain(ctx: RunContext) -> list[tuple]:
    done = ctx.store.done_keys(EXPLANATIONS) | ctx.store.audit_keys("constrain")
    bases = [e for e in ctx.store.load_explanations() if e.level == 0]
    units = []
    for base_key, base in _pending(bases, ()):
        for level in ctx.levels:
            key = base_key[:3] + (level,)
            if key not in done:
                units.append((key, base, level))
    return units


def run_constrain(ctx: RunContext, units: Sequence[tuple]) -> StageReport:
    endpoints = {e.model_id: e for e in ctx.generators}

    def job(unit):
        _, base, level = unit
        item = ctx.item(base.language, base.item_id)
        return constrain_explanation(
            item, base, level, endpoints[base.generator_model],
            ctx.templates[base.language], ctx.gateway,
            temperature=ctx.temperature, max_tokens=ctx.max_tokens,
        )

    return _commit(
        ctx, "constrain", len(units), _map_ordered(ctx, units, job, ctx.generators),
        ctx.store.append_explanation, EmptyRegeneration, "empty_regeneration",
    )


# -- mask ---------------------------------------------------------------------


def plan_mask(ctx: RunContext) -> list[tuple]:
    return _pending(ctx.store.load_explanations(), ctx.store.done_keys(MASKS))


def run_mask(ctx: RunContext, units: Sequence[tuple]) -> StageReport:
    def job(unit):
        _, explanation = unit
        return mask_explanation(explanation, ctx.item(explanation.language, explanation.item_id))

    return _commit(ctx, "mask", len(units), _map_ordered(ctx, units, job), ctx.store.append_mask)


# -- score ----------------------------------------------------------------------


def plan_score(ctx: RunContext) -> list[tuple]:
    """(key, mask, batch) for each row not yet scored: each item's
    no-explanation baseline (mask None), then each masked explanation. A
    row's batch is its position, over SCORE_BATCH, in the plan of every
    row, scored or not, so a resumed run cuts the batches an uninterrupted
    run would have (see plan_similarity)."""
    done = ctx.store.done_keys(SCORES)
    baselines = [
        ((item.id, language, BASELINE_MODEL, BASELINE_LEVEL), None)
        for language in sorted(ctx.corpora)
        for item in sorted(ctx.corpora[language], key=lambda i: i.id)
    ]
    rows = baselines + _pending(ctx.store.load_masks(), ())
    return [
        (key, mask, position // SCORE_BATCH)
        for position, (key, mask) in enumerate(rows) if key not in done
    ]


def run_score(ctx: RunContext, units: Sequence[tuple]) -> StageReport:
    """Score each planned row by its prompt's four options.

    The rows go out in the batches plan_score numbered, the options of a
    batch's rows as one request (scorer.score_rows), through _map_ordered:
    an HTTP scorer gets the batches on a pool, and a failed request fails
    every row of its batch. Each landed batch's rows are scored on the
    calling thread. At the first landed batch with a row the scorer
    refused to take in that list, the batch pool is closed, and that
    batch's rows and every later row are units of their own, so the pool
    keeps as many rows in flight as it kept batches. A row whose batch was
    fetched with all its options keeps them and its rendered prompt; for
    any other, score_item sends the row's options as one request, or one
    per option to a scorer that refuses lists too.
    """
    # work key -> (unit, (item, prompt), its options' results, or None if the
    # scorer refused the row in its batch's list), from the batch's fetch
    # until the row is scored
    fetched: dict[tuple, tuple] = {}

    def score(row: tuple) -> ScoreResult:
        # a row is (unit, (item, prompt) or None, its options' results or
        # None); score_item makes what is None
        ((item_id, language, _, _), mask, _), rendered, options = row
        item, prompt = rendered or (ctx.item(language, item_id), None)
        return score_item(
            ctx.gateway, ctx.scorer, item, mask, ctx.templates[language], prompt, options
        )

    def fetch(batch: list[tuple]) -> None:
        rendered = []
        for (item_id, language, _, _), mask, _ in batch:
            item = ctx.item(language, item_id)
            rendered.append((item, render_scoring(item, mask, ctx.templates[language])))
        found = score_rows(ctx.gateway, ctx.scorer, [prompt for _, prompt in rendered])
        for unit, item_prompt, options in zip(batch, rendered, found):
            fetched[unit[0]] = unit, item_prompt, options

    def results():
        batches = [list(rows) for _, rows in groupby(units, key=lambda unit: unit[2])]
        rest = []
        with closing(_map_ordered(ctx, batches, fetch, (ctx.scorer,))) as landed:
            for number, (batch, _, error) in enumerate(landed):
                if not error and any(fetched[unit[0]][2] is None for unit in batch):
                    rest = [unit for later in batches[number:] for unit in later]
                    break
                for unit in batch:
                    if error:
                        yield unit, None, error
                    else:
                        yield unit, *_attempt(score, fetched.pop(unit[0]))
        # refused: each row from here on is a unit of its own
        rows = [fetched.pop(unit[0], (unit, None, None)) for unit in rest]
        with closing(_map_ordered(ctx, rows, score, (ctx.scorer,))) as landed:
            for row, result, error in landed:
                yield row[0], result, error

    return _commit(ctx, "score", len(units), results(), ctx.store.append_score)


# -- similarity -------------------------------------------------------------------


def plan_similarity(ctx: RunContext) -> list[tuple]:
    """(key, texts, index, batch) for each constrained row not yet done.
    `texts` is the row's group: the text of its level-0 base, then that of
    each rewrite of the base, done or not, in ascending level order; the
    row's own text is texts[index]. A batch is as many whole groups as fit
    in EMBED_BATCH texts, and at least one, packed greedily over every
    group in plan order, done or not, so a resumed run cuts the batches an
    uninterrupted run would have: a group is cached whole or not at all, so
    with a cache it costs a resume one request or none."""
    explanations = ctx.store.load_explanations()
    bases = {item_key(e): e for e in explanations if e.level == 0}
    constrained = _pending([e for e in explanations if e.level != 0], ())
    done = ctx.store.done_keys(SIMILARITY)
    units = []
    batch, size = 0, 0
    for group, rows in groupby(constrained, key=lambda unit: unit[0][:3]):
        rows = list(rows)
        base = bases.get(group)
        if base is None:
            raise StageFailure(f"similarity {rows[0][0]}: constrained row without a level-0 base")
        texts = (base.text, *(e.text for _, e in rows))
        if size and size + len(texts) > EMBED_BATCH:
            batch, size = batch + 1, 0
        size += len(texts)
        units.extend(
            (key, texts, index, batch)
            for index, (key, _) in enumerate(rows, 1) if key not in done
        )
    return units


def run_similarity(ctx: RunContext, units: Sequence[tuple]) -> StageReport:
    """Cosine between each constrained text and its level-0 base, in one
    streaming pass. The comparison is between the raw texts; masking only
    affects scoring.

    The groups go out in the batches plan_similarity numbered, in order,
    one embed_groups call and so one request each, through _map_ordered:
    an HTTP embedder gets the batches on a pool, and a failed request fails
    every row of its batch. Each landed batch's rows get their cosines on
    the calling thread, with each group's base norm computed once for the
    batch, and the batch's vectors are then dropped: the stage
    holds the vectors of the batches in flight, at most EMBED_BATCH each,
    never one for every text. With an HTTP embedder, the batches that land
    while an earlier one is still in flight wait for it.
    """
    batches = [list(rows) for _, rows in groupby(units, key=lambda unit: unit[3])]

    def embed(batch: list[tuple]) -> dict[tuple, tuple[list[tuple[float, ...]], float]]:
        # group -> the vector of each of its texts, and the norm of its base's
        groups = {key[:3]: texts for key, texts, _, _ in batch}
        found = ctx.gateway.embed_groups(ctx.embedder, list(groups.values()))
        landed = {}
        for group, results in zip(groups, found):
            vectors = [result.vector for result in results]
            landed[group] = vectors, norm(vectors[0])
        return landed

    def similarity(unit: tuple, vectors: dict) -> SimilarityRecord:
        key, _, index, _ = unit
        group, base_norm = vectors[key[:3]]
        # a similarity record's fields are the work key and the cosine
        return SimilarityRecord(*key, cosine(group[0], group[index], base_norm))

    def results():
        with closing(_map_ordered(ctx, batches, embed, (ctx.embedder,))) as landed:
            for batch, vectors, error in landed:
                for unit in batch:
                    if error:
                        yield unit, None, error
                    else:
                        yield unit, *_attempt(similarity, unit, vectors)

    return _commit(ctx, "similarity", len(units), results(), ctx.store.append_similarity)


# -- aggregate ---------------------------------------------------------------------


def plan_aggregate(ctx: RunContext) -> list[tuple]:
    # always recomputed; the write is a cheap atomic rewrite
    return [()]


def run_aggregate(ctx: RunContext, units: Sequence[tuple]) -> StageReport:
    scores = ctx.store.load_scores()
    similarities = ctx.store.load_similarities()
    cells = aggregate(scores, similarities, excluded(ctx.store.load_audit()))
    ctx.store.write_aggregates(cells)
    return StageReport("aggregate", planned=1, completed=1)


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
