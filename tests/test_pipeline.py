import csv
import io
import itertools
import sys
import threading
import time
import weakref
from collections import Counter
from contextlib import ExitStack, closing, contextmanager
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suffbench import gateway as gateway_module
from suffbench import masker, mock, pipeline
from suffbench.cli import write_curves, write_heatmaps
from suffbench.corpus import Corpus, subset
from suffbench.gateway import (
    EmbeddingResult,
    Gateway,
    GenerationResult,
    MockBackend,
    ModelEndpoint,
    ResponseCache,
)
from suffbench.pipeline import (
    EMBED_BATCH,
    EXCLUSION_EVENTS,
    SCORE_BATCH,
    STAGES,
    UNITS_AHEAD_PER_THREAD,
    PipelineError,
    RunContext,
    StageFailure,
    expand_stages,
    exclusion_keys,
    plan_constrain,
    plan_generate,
    requests_in_flight,
    run,
    run_stage,
)
from suffbench.prompts import load_template_set
from suffbench.runstore import (
    AUDIT,
    COLUMNS,
    EXPLANATIONS,
    MASKS,
    SCORES,
    SIMILARITY,
    RunManifest,
    RunStore,
    work_key,
)

from tests.conftest import (
    FaultyMockSession,
    FixtureServer,
    caps_list_prompts,
    drops_list_prompts,
    rejects_list_prompts,
    route_mock,
)

RUN = "run-pipe"

GEN = ModelEndpoint(base_url="mock://11", model_id="gen-1")
GEN_B = ModelEndpoint(base_url="mock://11", model_id="gen-2")
PROBE = ModelEndpoint(base_url="mock://12", model_id="probe-1")
EMBED = ModelEndpoint(base_url="mock://13", model_id="embed-1")

TEMPLATES = {
    "en": load_template_set("default-v1", "en"),
    "fa": load_template_set("default-v1", "fa"),
}


def new_context(
    tmp_path,
    corpora,
    *,
    levels=(10, 90),
    generators=(GEN,),
    scorer=PROBE,
    embedder=EMBED,
    workers=2,
    gateway=None,
    store=None,
):
    if store is None:
        store = RunStore.open_or_create(
            tmp_path / "store", RunManifest.new(RUN, {"levels": list(levels)})
        )
    return RunContext(
        store=store,
        gateway=gateway or Gateway(),
        corpora=dict(corpora),
        generators=tuple(generators),
        scorer=scorer,
        embedder=embedder,
        templates={k: TEMPLATES[k] for k in corpora},
        levels=tuple(levels),
        temperature=0.0,
        max_tokens=512,
        workers=workers,
    )


@pytest.fixture
def make_ctx():
    """new_context, with every store it opens or is handed closed at teardown."""
    with ExitStack() as stores:
        def make(*args, **kwargs):
            ctx = new_context(*args, **kwargs)
            stores.enter_context(ctx.store)
            return ctx

        yield make


@pytest.fixture
def pools(monkeypatch):
    """The thread count of every pool _map_ordered builds, in order."""
    built = []
    real = pipeline.ThreadPoolExecutor

    def spy(max_workers):
        built.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", spy)
    return built


def store_bytes(root):
    return {
        name: (root / name).read_bytes()
        for name in (EXPLANATIONS, MASKS, SCORES, SIMILARITY, "aggregates.csv", AUDIT)
    }


class TestStageGraph:
    def test_single_stage_no_deps(self):
        assert expand_stages(["generate"]) == ("generate",)

    def test_transitive_deps_in_order(self):
        assert expand_stages(["score"]) == ("generate", "constrain", "mask", "score")
        assert expand_stages(["similarity"]) == ("generate", "constrain", "similarity")

    def test_aggregate_pulls_everything(self):
        assert expand_stages(["aggregate"]) == STAGES == (
            "generate", "constrain", "mask", "score", "similarity", "aggregate",
        )

    def test_duplicates_collapse(self):
        assert expand_stages(["mask", "constrain", "mask"]) == (
            "generate", "constrain", "mask",
        )

    def test_unknown_stage_rejected(self):
        with pytest.raises(PipelineError, match="unknown stage"):
            expand_stages(["polish"])
        with pytest.raises(PipelineError, match="unknown stage"):
            run_stage(None, "polish")


class TestFullRun:
    @pytest.fixture
    def small(self, en_corpus):
        return subset(en_corpus, 3, seed=7)  # q0003, q0006, q0007

    def test_row_counts(self, make_ctx, tmp_path, small):
        ctx = make_ctx(tmp_path, {"en": small})
        reports = run(ctx, ["aggregate"])
        by_stage = {r.stage: r for r in reports}
        assert by_stage["generate"].completed == 3
        assert by_stage["constrain"].completed == 6
        assert by_stage["mask"].completed == 9
        assert by_stage["score"].completed == 12  # 3 baseline + 9 masked
        assert by_stage["similarity"].completed == 6
        # the aggregate stage's one unit, not its cells
        assert by_stage["aggregate"].line() == "aggregate: planned=1 completed=1 failed=0"
        assert len(ctx.store.load_explanations()) == 9
        assert len(ctx.store.load_masks()) == 9
        assert len(ctx.store.load_scores()) == 12
        assert len(ctx.store.load_similarities()) == 6

    def test_aggregate_cells(self, make_ctx, tmp_path, small):
        ctx = make_ctx(tmp_path, {"en": small})
        run(ctx, ["aggregate"])
        cells = ctx.store.load_aggregates()
        heads = [(c.generator_model, c.level) for c in cells]
        assert heads == [("baseline", "noexp"), ("gen-1", 0), ("gen-1", 10), ("gen-1", 90)]
        for cell in cells:
            assert cell.n_items == 3
            assert cell.n_excluded == 0
        assert cells[0].mean_sufficiency == 0.25  # mock scorer ties every option

    def test_constrained_rows_within_budget(self, make_ctx, tmp_path, small):
        ctx = make_ctx(tmp_path, {"en": small})
        run(ctx, ["constrain"])
        bases = {e.item_id: e for e in ctx.store.load_explanations() if e.level == 0}
        for e in ctx.store.load_explanations():
            if e.level == 0:
                continue
            budget = max(1, (100 - e.level) * bases[e.item_id].word_count // 100)
            assert e.word_count <= budget

    def test_masked_rows_verify(self, make_ctx, tmp_path, small):
        from suffbench.masker import verify_masked

        ctx = make_ctx(tmp_path, {"en": small})
        run(ctx, ["mask"])
        for m in ctx.store.load_masks():
            assert verify_masked(m.masked_text, small[m.item_id])

    def test_run_id_stamped_everywhere(self, make_ctx, tmp_path, small):
        ctx = make_ctx(tmp_path, {"en": small})
        run(ctx, ["aggregate"])
        for name in COLUMNS:
            with open(tmp_path / "store" / name, encoding="utf-8", newline="") as fh:
                header, *rows = csv.reader(fh)
            assert header[0] == "run_id"
            assert rows or name == AUDIT, name
            assert all(row[0] == RUN for row in rows), name

    def test_both_languages(self, make_ctx, tmp_path, en_corpus, fa_corpus):
        small_en = subset(en_corpus, 2, seed=1)
        small_fa = subset(fa_corpus, 2, seed=1)
        ctx = make_ctx(tmp_path, {"en": small_en, "fa": small_fa}, levels=(50,))
        run(ctx, ["aggregate"])
        scores = ctx.store.load_scores()
        assert {s.language for s in scores} == {"en", "fa"}
        assert len(scores) == 2 * (2 + 4)  # per language: 2 baseline + 2 items x 2 levels


class TestAppendHandles:
    def test_full_run_opens_each_table_once(self, make_ctx, tmp_path, en_corpus, monkeypatch):
        ctx = make_ctx(tmp_path, {"en": subset(en_corpus, 3, seed=7)})
        opened = Counter()
        real = open

        def spy(file, mode="r", *args, **kwargs):
            if "a" in mode:
                opened[Path(file).name] += 1
            return real(file, mode, *args, **kwargs)

        monkeypatch.setattr("builtins.open", spy)
        run(ctx, STAGES)
        assert opened == dict.fromkeys((EXPLANATIONS, MASKS, SCORES, SIMILARITY), 1)


class TestDeterminism:
    def test_worker_count_does_not_change_bytes(self, make_ctx, tmp_path, en_corpus, pools):
        # the workers=4 run calls its endpoints over HTTP, so every stage
        # but mask and aggregate runs on a pool (six levels give three groups
        # of 7 texts, two embedding batches); route_mock answers as the
        # in-process mock does
        small = subset(en_corpus, 3, seed=7)
        levels = (10, 20, 30, 50, 70, 90)
        ctx1 = make_ctx(tmp_path / "a", {"en": small}, levels=levels, workers=1)
        run(ctx1, ["aggregate"])
        with FixtureServer() as server:
            ctx4 = make_ctx(
                tmp_path / "b", {"en": small}, levels=levels, workers=4,
                generators=(live(server, GEN),), scorer=live(server, PROBE),
                embedder=live(server, EMBED),
            )
            run(ctx4, ["aggregate"])
        assert len(pools) == 4
        assert store_bytes(tmp_path / "a" / "store") == store_bytes(tmp_path / "b" / "store")


_APPENDS = tuple(
    f"append_{name}" for name in ("explanation", "mask", "score", "similarity", "audit")
)


class _Killed(Exception):
    """Stands in for the process dying at an append."""


def _kill_at_append(store, k):
    """Make the k-th call (from 0) to any of `store`'s append methods raise
    _Killed instead of appending; returns the count of calls made."""
    calls = itertools.count()
    for name in _APPENDS:
        def append(record, inner=getattr(store, name)):
            if next(calls) == k:
                raise _Killed
            return inner(record)
        setattr(store, name, append)
    return calls


def _tear_at_write(store, k, cut):
    """Make the k-th row write (from 0) of `store` write only the first
    cut(row) bytes of its row through the table's kept handle and then
    raise _Killed; returns the count of writes made and a list that gets
    (table, bytes written, row length) for the torn write."""
    writes, torn = itertools.count(), []

    def write(name, row, inner=store._write):
        if next(writes) == k:
            written = cut(row)
            torn.append((name, written, len(row)))
            inner(name, row[:written])
            raise _Killed
        inner(name, row)

    store._write = write
    return writes, torn


@contextmanager
def _texts_embedded():
    """A Counter of the texts MockBackend embeds while the block runs, one
    count per text of each request."""
    embedded = Counter()
    real = MockBackend.embed

    def embed(backend, model_id, input):
        embedded.update((input,) if isinstance(input, str) else input)
        return real(backend, model_id, input)

    MockBackend.embed = embed
    try:
        yield embedded
    finally:
        MockBackend.embed = real


@contextmanager
def _options_scored():
    """A Counter of the (prompt, continuation) pairs MockBackend scores
    while the block runs, one count per pair of each request."""
    scored = Counter()
    real = MockBackend.score

    def score(backend, model_id, prompt_texts, continuations):
        scored.update(zip(prompt_texts, continuations))
        return real(backend, model_id, prompt_texts, continuations)

    MockBackend.score = score
    try:
        yield scored
    finally:
        MockBackend.score = real


def _assert_no_call_repeated(first, resumed, counts, texts, embedded):
    """A killed run (Gateway `first`) and its resume together made the
    requests `counts` of an uninterrupted run, and embedded each of its
    `texts` once."""
    assert {
        kind: first.mock_counts()[kind] + resumed.mock_counts()[kind] for kind in counts
    } == counts
    assert embedded == texts


FAULT_EVERY = 5


def _over_http(endpoint: ModelEndpoint) -> ModelEndpoint:
    """`endpoint` with an HTTP base URL that FaultyMockSession answers as
    the mock:// one, and no rate limit to wait on."""
    seed = endpoint.base_url.removeprefix("mock://")
    return replace(
        endpoint, base_url=f"http://faulty/{seed}", requests_per_minute=1_000_000
    )


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory, en_corpus):
    """Table bytes, mock counts, texts embedded, append count and row-write
    count of one uninterrupted run."""
    root = tmp_path_factory.mktemp("uninterrupted")
    gateway = Gateway(cache_dir=root / "cache")
    ctx = new_context(root, {"en": en_corpus}, gateway=gateway)
    calls = _kill_at_append(ctx.store, -1)
    writes, _ = _tear_at_write(ctx.store, -1, None)
    with _texts_embedded() as embedded:
        run(ctx, STAGES)
    ctx.store.close()
    return (
        store_bytes(root / "store"), gateway.mock_counts(), embedded, next(calls), next(writes)
    )


def _mock_contexts(root, corpus):
    """A function that makes a run context over `corpus` under `root` with
    a Gateway of its own, given the store to resume or none, and the list
    of the Gateways it made."""
    gateways = []

    def context(store=None):
        gateways.append(Gateway(cache_dir=root / "cache"))
        return new_context(root, {"en": corpus}, gateway=gateways[-1], store=store)

    return context, gateways


def _faulty_contexts(root, corpus):
    """As _mock_contexts, except that every endpoint is HTTP, answered as
    its mock:// twin would be by a FaultyMockSession of its own, which fails
    the first attempt of one distinct request in FAULT_EVERY; returns the
    function, the sessions it made and the sleeps their Gateways took."""
    sessions, sleeps = [], []

    def context(store=None):
        sessions.append(FaultyMockSession(every=FAULT_EVERY))
        gateway = Gateway(cache_dir=root / "cache", sleep=sleeps.append, session=sessions[-1])
        return new_context(
            root, {"en": corpus}, generators=(_over_http(GEN),),
            scorer=_over_http(PROBE), embedder=_over_http(EMBED),
            gateway=gateway, store=store,
        )

    return context, sessions, sleeps


def _assert_each_fault_retried_once(sessions, sleeps):
    """Every kind of fault was injected, and each fault cost one first
    backoff and nothing else."""
    faults = sum((session.faults for session in sessions), Counter())
    assert set(faults) == set(FaultyMockSession.FAULTS)
    assert len(sleeps) == sum(faults.values())
    assert set(sleeps) == {Gateway.BACKOFF_BASE}


def _resume(root, context):
    """Run every stage of context(store) on the store under `root`,
    reopened for resume."""
    store = RunStore.open_resume(root / "store", RunManifest.new(RUN, {"levels": [10, 90]}))
    run(context(store), STAGES)
    store.close()
    return store


def _kill_and_resume(root, context, k):
    """Run context() until its k-th append, then resume it."""
    ctx = context()
    _kill_at_append(ctx.store, k)
    with pytest.raises(_Killed):
        run(ctx, STAGES)
    ctx.store.close()
    _resume(root, context)


def _tear_and_resume(root, context, k, data):
    """Run context() until its k-th row write, which writes only part of
    its row (a number of bytes `data` draws), then resume it: resume
    salvages the torn tail, and a row written whole is kept."""
    ctx = context()
    _, torn = _tear_at_write(
        ctx.store, k,
        lambda row: data.draw(st.integers(min_value=0, max_value=len(row)), label="bytes"),
    )
    with pytest.raises(_Killed):
        run(ctx, STAGES)
    ctx.store.close()
    [(name, written, size)] = torn
    store = _resume(root, context)
    assert store.salvage_report == ({name: written} if 0 < written < size else {})


class TestResume:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_killed_at_any_append_resumes_to_the_same_store(
        self, uninterrupted, tmp_path_factory, en_corpus, data
    ):
        tables, counts, texts, appends, _ = uninterrupted
        k = data.draw(st.integers(min_value=0, max_value=appends - 1), label="killed at append")
        root = tmp_path_factory.mktemp("killed")
        context, gateways = _mock_contexts(root, en_corpus)
        with _texts_embedded() as embedded:
            _kill_and_resume(root, context, k)
        assert store_bytes(root / "store") == tables
        # each call the first run completed is answered by the cache
        _assert_no_call_repeated(*gateways, counts, texts, embedded)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_torn_write_at_any_append_resumes_to_the_same_store(
        self, uninterrupted, tmp_path_factory, en_corpus, data
    ):
        tables, counts, texts, _, writes = uninterrupted
        k = data.draw(st.integers(min_value=0, max_value=writes - 1), label="torn at write")
        root = tmp_path_factory.mktemp("torn")
        context, gateways = _mock_contexts(root, en_corpus)
        with _texts_embedded() as embedded:
            _tear_and_resume(root, context, k, data)
        assert store_bytes(root / "store") == tables
        _assert_no_call_repeated(*gateways, counts, texts, embedded)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_killed_at_any_append_under_injected_faults_resumes_to_the_same_store(
        self, uninterrupted, tmp_path_factory, en_corpus, data
    ):
        tables, _, _, appends, _ = uninterrupted
        k = data.draw(st.integers(min_value=0, max_value=appends - 1), label="killed at append")
        root = tmp_path_factory.mktemp("faults")
        context, sessions, sleeps = _faulty_contexts(root, en_corpus)
        _kill_and_resume(root, context, k)
        assert store_bytes(root / "store") == tables
        _assert_each_fault_retried_once(sessions, sleeps)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_torn_write_at_any_append_under_injected_faults_resumes_to_the_same_store(
        self, uninterrupted, tmp_path_factory, en_corpus, data
    ):
        tables, _, _, _, writes = uninterrupted
        k = data.draw(st.integers(min_value=0, max_value=writes - 1), label="torn at write")
        root = tmp_path_factory.mktemp("torn-faults")
        context, sessions, sleeps = _faulty_contexts(root, en_corpus)
        _tear_and_resume(root, context, k, data)
        assert store_bytes(root / "store") == tables
        _assert_each_fault_retried_once(sessions, sleeps)

    @pytest.mark.parametrize("killed_at", [1, 7, 15, 16, 18, 30])
    def test_resumed_similarity_sends_the_batches_of_an_uninterrupted_run(
        self, make_ctx, tmp_path, en_corpus, killed_at
    ):
        # 4 items at 9 levels: four groups of 10 texts, two batches of 18
        # rows. A resume numbers each group's batch as the uninterrupted
        # plan does, so a batch the killed run embedded costs it nothing and
        # any other one request
        corpus = subset(en_corpus, 4, seed=7)
        levels = tuple(range(10, 100, 10))
        whole = make_ctx(tmp_path / "whole", {"en": corpus}, levels=levels)
        run(whole, ["constrain"])
        planned = pipeline.plan_similarity(whole)
        with _texts_embedded() as texts:
            run_stage(whole, "similarity")
        assert whole.gateway.mock_counts()["embeddings"] == 2

        first = Gateway(cache_dir=tmp_path / "cache")
        ctx = make_ctx(tmp_path / "killed", {"en": corpus}, levels=levels, gateway=first)
        run(ctx, ["constrain"])
        appends = itertools.count()

        def append(record, inner=ctx.store.append_similarity):
            if next(appends) == killed_at:
                raise _Killed
            return inner(record)

        ctx.store.append_similarity = append
        with _texts_embedded() as embedded:
            with pytest.raises(_Killed):
                run_stage(ctx, "similarity")
            ctx.store.close()
            store = RunStore.open_resume(
                tmp_path / "killed" / "store", RunManifest.new(RUN, {"levels": list(levels)})
            )
            resumed = Gateway(cache_dir=tmp_path / "cache")
            ctx = make_ctx(
                tmp_path / "killed", {"en": corpus}, levels=levels, gateway=resumed, store=store,
            )
            units = pipeline.plan_similarity(ctx)
            assert units == planned[killed_at:]
            run_stage(ctx, "similarity")
        assert embedded == texts
        assert first.mock_counts()["embeddings"] + resumed.mock_counts()["embeddings"] == 2
        assert ctx.store.load_similarities() == whole.store.load_similarities()

    @pytest.mark.parametrize(
        "killed_at", [1, SCORE_BATCH, SCORE_BATCH + 2, 3 * SCORE_BATCH - 1]
    )
    def test_resumed_score_sends_the_batches_of_an_uninterrupted_run(
        self, make_ctx, tmp_path, en_corpus, killed_at
    ):
        # three batches of rows, killed inside the first, after it, inside
        # the second and at the third's last row. A resume numbers each
        # row's batch as the uninterrupted plan does, so a batch the killed
        # run scored costs it nothing and any other one request. Killed
        # inside a batch, batches cut from the pending rows would cost one
        # request more
        corpus = _scored_rows(en_corpus, 3 * SCORE_BATCH)
        whole = make_ctx(tmp_path / "whole", {"en": corpus})
        run(whole, ["mask"])
        planned = pipeline.plan_score(whole)
        with _options_scored() as options:
            run_stage(whole, "score")
        assert len(planned) == 3 * SCORE_BATCH
        assert whole.gateway.mock_counts()["logprobs"] == 3

        first = Gateway(cache_dir=tmp_path / "cache")
        ctx = make_ctx(tmp_path / "killed", {"en": corpus}, gateway=first)
        run(ctx, ["mask"])
        appends = itertools.count()

        def append(record, inner=ctx.store.append_score):
            if next(appends) == killed_at:
                raise _Killed
            return inner(record)

        ctx.store.append_score = append
        with _options_scored() as scored:
            with pytest.raises(_Killed):
                run_stage(ctx, "score")
            ctx.store.close()
            store = RunStore.open_resume(
                tmp_path / "killed" / "store", RunManifest.new(RUN, {"levels": [10, 90]})
            )
            resumed = Gateway(cache_dir=tmp_path / "cache")
            ctx = make_ctx(tmp_path / "killed", {"en": corpus}, gateway=resumed, store=store)
            assert pipeline.plan_score(ctx) == planned[killed_at:]
            run_stage(ctx, "score")
        assert scored == options
        assert first.mock_counts()["logprobs"] + resumed.mock_counts()["logprobs"] == 3
        assert ctx.store.load_scores() == whole.store.load_scores()

    def test_fresh_gateway_resume_makes_no_model_calls(self, make_ctx, tmp_path, en_corpus):
        small = subset(en_corpus, 3, seed=7)
        ctx = make_ctx(tmp_path, {"en": small})
        run(ctx, ["aggregate"])
        ctx.store.close()
        before = store_bytes(tmp_path / "store")

        resumed_store = RunStore.open_resume(
            tmp_path / "store", RunManifest.new(RUN, {"levels": [10, 90]})
        )
        gateway = Gateway()
        ctx2 = make_ctx(tmp_path, {"en": small}, gateway=gateway, store=resumed_store)
        reports = run(ctx2, ["aggregate"])
        resumed_store.close()
        assert gateway.mock_counts() == {"generate": 0, "logprobs": 0, "embeddings": 0}
        assert store_bytes(tmp_path / "store") == before
        assert all(r.planned == 0 for r in reports if r.stage != "aggregate")

    def test_warm_resume_reads_one_entry_per_pending_row_and_group(
        self, make_ctx, tmp_path, en_corpus, fa_corpus, monkeypatch
    ):
        # an en+fa store cut mid-score, resumed on the cache an uninterrupted
        # run filled: each scored row still to do is one cache read, as is
        # each group to embed, and no request reaches the mock
        corpora = {"en": subset(en_corpus, 3, seed=7), "fa": subset(fa_corpus, 3, seed=7)}
        cache = tmp_path / "cache"
        whole = make_ctx(tmp_path / "whole", corpora, gateway=Gateway(cache_dir=cache))
        run(whole, STAGES)
        whole.store.close()
        ctx = make_ctx(tmp_path / "cut", corpora, gateway=Gateway(cache_dir=cache))
        run(ctx, ["mask"])
        rows = len(pipeline.plan_score(ctx))
        _kill_at_append(ctx.store, rows // 2)
        with pytest.raises(_Killed):
            run_stage(ctx, "score")
        ctx.store.close()
        store = RunStore.open_resume(
            tmp_path / "cut" / "store", RunManifest.new(RUN, {"levels": [10, 90]})
        )
        resumed = Gateway(cache_dir=cache)
        ctx = make_ctx(tmp_path / "cut", corpora, gateway=resumed, store=store)
        pending = pipeline.plan_score(ctx)
        groups = _groups(pipeline.plan_similarity(ctx))
        reads = Counter()
        real = ResponseCache.get

        def get(response_cache, key):
            body = real(response_cache, key)
            reads[key] += 1
            assert body is not None
            return body

        monkeypatch.setattr(ResponseCache, "get", get)
        run(ctx, STAGES)
        store.close()
        assert len(pending) == rows - rows // 2 and len(groups) == 6
        assert len(reads) == sum(reads.values()) == len(pending) + len(groups)
        assert resumed.mock_counts() == {"generate": 0, "logprobs": 0, "embeddings": 0}
        assert store_bytes(tmp_path / "cut" / "store") == store_bytes(tmp_path / "whole" / "store")

    def test_loaded_rows_share_their_key_strings_across_tables(
        self, make_ctx, tmp_path, en_corpus
    ):
        # an empty rewrite of q0006 gives two audit rows with one stage and event
        small = subset(en_corpus, 3, seed=7)
        gateway = _SabotagedGeneration(
            Gateway(), small["q0006"].stem, kind="constrain", text=" \n ",
        )
        ctx = make_ctx(tmp_path, {"en": small}, gateway=gateway)
        run(ctx, ["aggregate"])
        ctx.store.close()

        store = RunStore.open_resume(tmp_path / "store", RunManifest.new(RUN, {"levels": [10, 90]}))
        with store:
            tables = {
                "explanations": store.load_explanations(), "masks": store.load_masks(),
                "scores": store.load_scores(), "similarity": store.load_similarities(),
                "audit": store.load_audit(),
            }
        assert len(tables["audit"]) == 2
        columns = ["item_id", "language", "generator_model"]
        extra = {
            "explanations": ["length_status"], "scores": ["scorer_model"],
            "audit": ["stage", "event"],
        }
        shared, seen = {}, Counter()
        for name, records in tables.items():
            for record in records:
                for column in columns + extra.get(name, []):
                    value = getattr(record, column)
                    assert shared.setdefault(value, value) is value, (name, column, value)
                    seen[value] += 1
        # every item id, say, was read from several rows of several tables
        assert all(seen[item_id] > 5 for item_id in ("q0003", "q0006", "q0007"))

    def test_partial_resume_skips_finished_stage(self, make_ctx, tmp_path, en_corpus):
        small = subset(en_corpus, 3, seed=7)
        ctx = make_ctx(tmp_path, {"en": small})
        run(ctx, ["generate"])
        ctx.store.close()

        resumed_store = RunStore.open_resume(
            tmp_path / "store", RunManifest.new(RUN, {"levels": [10, 90]})
        )
        ctx2 = make_ctx(tmp_path, {"en": small}, store=resumed_store)
        assert plan_generate(ctx2) == []
        reports = run(ctx2, ["score"])
        resumed_store.close()
        by_stage = {r.stage: r for r in reports}
        assert by_stage["generate"].planned == 0
        assert by_stage["constrain"].completed == 6
        assert by_stage["score"].completed == 12


class _SabotagedGeneration:
    """Delegates to a real gateway but returns `text` for the prompts of
    one kind that contain every needle (junk for a generation prompt by
    default)."""

    def __init__(
        self, inner, *needles, kind="generate", text="I cannot answer that.",
        finish_reason="stop",
    ):
        self._inner = inner
        self._needles = needles
        self._kind = kind
        self._text = text
        self._finish_reason = finish_reason

    def generate(self, endpoint, prompt, **kwargs):
        if prompt.kind == self._kind and all(n in prompt.text for n in self._needles):
            return GenerationResult(text=self._text, finish_reason=self._finish_reason)
        return self._inner.generate(endpoint, prompt, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestExpectedFailures:
    def test_unparseable_generation_is_audited_and_excluded(self, make_ctx, tmp_path, en_corpus):
        small = subset(en_corpus, 3, seed=7)  # q0003, q0006, q0007
        needle = small["q0006"].stem
        gateway = _SabotagedGeneration(Gateway(), needle)
        ctx = make_ctx(tmp_path, {"en": small}, gateway=gateway)
        reports = run(ctx, ["aggregate"])
        by_stage = {r.stage: r for r in reports}
        assert by_stage["generate"].completed == 2
        assert by_stage["generate"].failed == 1

        audit = ctx.store.load_audit()
        assert len(audit) == 1
        assert audit[0].item_id == "q0006"
        assert audit[0].event in EXCLUSION_EVENTS
        assert exclusion_keys(ctx.store) == {("en", "gen-1", "q0006")}

        # excluded from every generator cell, still in the baseline
        scores = ctx.store.load_scores()
        assert len([s for s in scores if s.generator_model == "baseline"]) == 3
        assert not [s for s in scores if s.item_id == "q0006" and s.level != "noexp"]
        for cell in ctx.store.load_aggregates():
            if cell.generator_model == "gen-1":
                assert cell.n_items == 2
                assert cell.n_excluded == 1

    def test_generation_cut_at_max_tokens_is_audited_and_excluded(
        self, make_ctx, tmp_path, en_corpus
    ):
        small = subset(en_corpus, 3, seed=7)
        gateway = _SabotagedGeneration(
            Gateway(), small["q0006"].stem,
            text="Answer: A\nExplanation: Plants take in", finish_reason="length",
        )
        ctx = make_ctx(tmp_path, {"en": small}, gateway=gateway)
        run(ctx, ["aggregate"])
        audit = ctx.store.load_audit()
        assert [(a.stage, a.item_id, a.event) for a in audit] == [
            ("generate", "q0006", "unparseable"),
        ]
        assert not [e for e in ctx.store.load_explanations() if e.item_id == "q0006"]
        gen_cells = [c for c in ctx.store.load_aggregates() if c.generator_model == "gen-1"]
        assert gen_cells
        assert all((c.n_items, c.n_excluded) == (2, 1) for c in gen_cells)

    def test_curves_leave_out_excluded_items(self, make_ctx, tmp_path, en_corpus):
        small = subset(en_corpus, 3, seed=7)
        # q0006's 28-word base gets a 25-word budget at level 10 only
        gateway = _SabotagedGeneration(
            Gateway(), small["q0006"].stem, "at most 25 words", kind="constrain", text=" ",
        )
        ctx = make_ctx(tmp_path, {"en": small}, gateway=gateway)
        run(ctx, ["aggregate"])
        assert exclusion_keys(ctx.store) == {("en", "gen-1", "q0006")}

        words = {(e.item_id, e.level): e.word_count for e in ctx.store.load_explanations()}
        kept = [1 - words[item, 90] / words[item, 0] for item in ("q0003", "q0007")]
        write_curves(ctx.store, tmp_path)
        with open(tmp_path / "curves_en.csv", encoding="utf-8", newline="") as fh:
            rows = {(r["model"], r["level"]): r for r in csv.DictReader(fh)}
        assert rows["gen-1", "90"]["n_items"] == "2"
        assert rows["gen-1", "90"]["mean_realized_reduction"] == f"{sum(kept) / 2:.4f}"

    def test_heatmaps_leave_out_excluded_items(self, make_ctx, tmp_path, en_corpus):
        small = subset(en_corpus, 3, seed=7)
        gateway = _SabotagedGeneration(
            Gateway(), small["q0006"].stem, "at most 25 words", kind="constrain", text=" ",
        )
        ctx = make_ctx(tmp_path, {"en": small}, gateway=gateway)
        run(ctx, ["aggregate"])
        assert exclusion_keys(ctx.store) == {("en", "gen-1", "q0006")}

        cell = next(
            c for c in ctx.store.load_aggregates() if (c.generator_model, c.level) == ("gen-1", 90)
        )
        write_heatmaps(ctx.store, tmp_path)
        with open(tmp_path / "heatmap_en.csv", encoding="utf-8", newline="") as fh:
            rows = {r["model"]: r for r in csv.DictReader(fh)}
        assert rows["gen-1"]["90"] == f"{cell.mean_similarity:.6f}" == "-0.200490"

    def test_resume_does_not_retry_audited_item(self, make_ctx, tmp_path, en_corpus):
        small = subset(en_corpus, 3, seed=7)
        needle = small["q0006"].stem
        gateway = _SabotagedGeneration(Gateway(), needle)
        ctx = make_ctx(tmp_path, {"en": small}, gateway=gateway)
        run(ctx, ["generate"])

        resumed_store = RunStore.open_resume(
            tmp_path / "store", RunManifest.new(RUN, {"levels": [10, 90]})
        )
        ctx2 = make_ctx(tmp_path, {"en": small}, store=resumed_store)
        assert plan_generate(ctx2) == []


    def test_empty_regeneration_is_audited_and_excluded(self, make_ctx, tmp_path, en_corpus):
        small = subset(en_corpus, 3, seed=7)
        needle = small["q0006"].stem
        gateway = _SabotagedGeneration(Gateway(), needle, kind="constrain", text=" \n ")
        ctx = make_ctx(tmp_path, {"en": small}, gateway=gateway)
        reports = run(ctx, ["constrain"])
        constrain = {r.stage: r for r in reports}["constrain"]
        assert (constrain.planned, constrain.completed, constrain.failed) == (6, 4, 2)

        # one audit row per planned level of the item
        audit = ctx.store.load_audit()
        assert sorted((a.stage, a.item_id, a.level, a.event) for a in audit) == [
            ("constrain", "q0006", 10, "empty_regeneration"),
            ("constrain", "q0006", 90, "empty_regeneration"),
        ]
        assert exclusion_keys(ctx.store) == {("en", "gen-1", "q0006")}

        resumed_store = RunStore.open_resume(
            tmp_path / "store", RunManifest.new(RUN, {"levels": [10, 90]})
        )
        ctx2 = make_ctx(tmp_path, {"en": small}, store=resumed_store)
        assert plan_constrain(ctx2) == []

        run(ctx2, ["aggregate"])
        gen_cells = [c for c in ctx2.store.load_aggregates() if c.generator_model == "gen-1"]
        assert [c.level for c in gen_cells] == [0, 10, 90]
        assert all(c.n_excluded == 1 for c in gen_cells)
        # the item's level-0 row is dropped too: it counts only in n_excluded
        assert all(c.n_items == 2 for c in gen_cells)


def blank_reply(payload):
    """A chat completion whose content is only whitespace."""
    return {"choices": [{"message": {"content": " \n "}, "finish_reason": "stop"}]}


class TestBlankLiveReplies:
    def test_blank_rewrite_is_retried_then_audited(
        self, make_ctx, tmp_path, en_corpus, monkeypatch
    ):
        salts = []
        generate = Gateway.generate

        def spy(self, endpoint, prompt, **kwargs):
            if prompt.kind == "constrain":
                salts.append(kwargs["cache_salt"])
            return generate(self, endpoint, prompt, **kwargs)

        monkeypatch.setattr(Gateway, "generate", spy)
        with FixtureServer() as server:
            ctx = make_ctx(
                tmp_path, {"en": subset(en_corpus, 1, seed=7)}, levels=(10,),
                generators=(live(server, GEN),),
            )
            run(ctx, ["generate"])
            server.route("/11/chat/completions", blank_reply)
            before = len(server.requests)
            report = run_stage(ctx, "constrain")
            sent = len(server.requests) - before
        assert sent == 4
        assert salts == ["", "retry-1", "retry-2", "retry-3"]
        assert (report.planned, report.completed, report.failed) == (1, 0, 1)
        assert [(a.stage, a.level, a.event) for a in ctx.store.load_audit()] == [
            ("constrain", 10, "empty_regeneration"),
        ]

    def test_blank_generation_is_audited_unparseable(self, make_ctx, tmp_path, en_corpus):
        with FixtureServer() as server:
            ctx = make_ctx(
                tmp_path, {"en": subset(en_corpus, 2, seed=7)}, generators=(live(server, GEN),),
            )
            server.route("/11/chat/completions", blank_reply)
            report = run_stage(ctx, "generate")
        assert (report.planned, report.completed, report.failed) == (2, 0, 2)
        assert [(a.stage, a.level, a.event) for a in ctx.store.load_audit()] == [
            ("generate", 0, "unparseable"),
        ] * 2


class _BrokenEmbeddings:
    """Delegates to a real gateway, but fails every batch that holds `text`,
    or every batch when it is None."""

    def __init__(self, inner, text=None):
        self._inner = inner
        self._text = text

    def embed_groups(self, endpoint, groups):
        if self._text is None or any(self._text in group for group in groups):
            raise RuntimeError("embedding backend exploded")
        return self._inner.embed_groups(endpoint, groups)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _CountingEmbeddings:
    """Delegates to a real gateway; every group of every batch is counted,
    as a tuple of its texts, and each batch sleeps, so that concurrent
    units overlap."""

    def __init__(self, inner):
        self._inner = inner
        self._lock = threading.Lock()
        self.calls = Counter()

    def embed_groups(self, endpoint, groups):
        with self._lock:
            self.calls.update(tuple(group) for group in groups)
        time.sleep(0.05)
        return self._inner.embed_groups(endpoint, groups)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _Vector(tuple):
    """An embedding vector that tells its `owner` when it is freed. CPython
    takes no weakref to a tuple subclass, so __del__ does the counting."""

    def __del__(self):
        self.owner.freed()


class _TrackedEmbeddings:
    """Delegates to a real gateway; every vector embed_groups returns is a
    _Vector, and live() counts those not yet freed."""

    def __init__(self, inner):
        self._inner = inner
        # reentrant: a vector may be freed on a thread that holds the lock
        self._lock = threading.RLock()
        self._live = 0

    def embed_groups(self, endpoint, groups):
        found = []
        for results in self._inner.embed_groups(endpoint, groups):
            found.append([])
            for result in results:
                vector = _Vector(result.vector)
                vector.owner = self
                with self._lock:
                    self._live += 1
                found[-1].append(EmbeddingResult(vector=vector))
        return found

    def freed(self) -> None:
        with self._lock:
            self._live -= 1

    def live(self) -> int:
        with self._lock:
            return self._live

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _groups(units) -> dict[tuple, tuple[str, ...]]:
    """The texts of each group of similarity units, by the group's
    (item, language, generator), in plan order."""
    return {key[:3]: texts for key, texts, _, _ in units}


def _copies(corpus: Corpus, n: int) -> Corpus:
    """`corpus` with each item repeated `n` times under its own id and stem,
    so the mock writes each copy texts of its own."""
    return replace(corpus, items=tuple(
        replace(item, id=f"{item.id}-{k}", stem=f"{item.stem} ({k})")
        for k in range(n) for item in corpus
    ))


def _scored_rows(corpus: Corpus, rows: int, levels: tuple = (10, 90)) -> Corpus:
    """Items of `corpus`, and of copies of it, that make `rows` scored rows
    at `levels`: each item's baseline, its level-0 row and one row per
    level."""
    items, rest = divmod(rows, 2 + len(levels))
    assert not rest, f"{rows} rows are not whole items at levels {levels}"
    return subset(_copies(corpus, -(-items // len(corpus))), items, seed=7)


def _refuses_list_inputs(route):
    """`route`, except that a list input is answered 400, as an embedder
    that takes one text per request does."""
    def refuse(payload):
        if isinstance(payload["input"], list):
            return 400, {"error": {"message": "input must be a string"}}
        return route(payload)
    return refuse


class TestSimilarity:
    def test_each_group_embedded_once_across_workers(
        self, make_ctx, tmp_path, en_corpus, pools
    ):
        # with repeats, every rewrite is the same one word, so each group
        # holds it three times; at workers=4 the embedder is HTTP, so the
        # batches are embedded on a pool. 20 groups of 4 texts make four
        # batches either way
        corpus = _copies(en_corpus, 2)
        with FixtureServer() as server:
            for workers, repeats in itertools.product((1, 4), (False, True)):
                gateway = _CountingEmbeddings(Gateway())
                if repeats:
                    gateway = _SabotagedGeneration(gateway, kind="constrain", text="Light")
                ctx = make_ctx(
                    tmp_path / f"{workers}-{repeats}", {"en": corpus}, levels=(10, 50, 90),
                    workers=workers, gateway=gateway,
                    embedder=live(server, EMBED) if workers > 1 else EMBED,
                )
                run(ctx, ["constrain"])
                units = pipeline.plan_similarity(ctx)
                pools.clear()
                run_stage(ctx, "similarity")
                assert bool(pools) == (workers > 1)
                groups = _groups(units)
                assert len(groups) == 20 and units[-1][3] == 3
                assert all(len(texts) == 4 for texts in groups.values())
                if repeats:
                    assert all(texts[1:] == ("Light",) * 3 for texts in groups.values())
                assert len(ctx.store.load_similarities()) == 60
                assert gateway.calls == Counter(groups.values())

    def test_a_batch_is_whole_groups_packed_greedily(self, make_ctx, tmp_path, en_corpus):
        # at 9 levels a group is 10 texts, two to a batch; at 2 levels it is
        # 3 texts, six to a batch of 18
        for levels, per_batch in ((tuple(range(10, 100, 10)), 2), ((10, 90), 6)):
            ctx = make_ctx(tmp_path / str(len(levels)), {"en": en_corpus}, levels=levels)
            run(ctx, ["constrain"])
            units = pipeline.plan_similarity(ctx)
            groups = list(_groups(units))
            assert len(groups) == 10
            batches = {key[:3]: batch for key, _, _, batch in units}
            assert [batches[g] for g in groups] == [i // per_batch for i in range(10)]
            # the base first, then each rewrite in level order
            text_of = {work_key(e): e.text for e in ctx.store.load_explanations()}
            assert all(
                texts[0] == text_of[key[:3] + (0,)] and texts[index] == text_of[key]
                and index == levels.index(key[3]) + 1
                for key, texts, index, _ in units
            )

    @pytest.mark.parametrize("workers", [1, 4])
    def test_live_vectors_do_not_grow_with_the_corpus(
        self, make_ctx, tmp_path, en_corpus, fa_corpus, workers
    ):
        # the vectors held are about those of the batches in flight, each of
        # at most EMBED_BATCH texts: inline, the batch that landed last and
        # what is left of the one before it; at workers=4 the embedder is
        # HTTP, with requests_in_flight(4) = 16 requests held 10 ms each
        if workers == 1:
            bound = 2 * EMBED_BATCH + 4
        else:
            bound = 2 * requests_in_flight(workers) * EMBED_BATCH
        sizes = {
            "small": {"en": _copies(en_corpus, 7)},
            "large": {"en": _copies(en_corpus, 12), "fa": _copies(fa_corpus, 12)},
        }
        peaks = {}
        with FixtureServer() as server:
            embedder = live(server, EMBED) if workers > 1 else EMBED
            InFlight(server, hold=0.01)
            for size, corpora in sizes.items():
                gateway = _TrackedEmbeddings(Gateway())
                ctx = make_ctx(
                    tmp_path / size, corpora, levels=tuple(range(10, 100, 10)),
                    workers=workers, gateway=gateway, embedder=embedder,
                )
                run(ctx, ["constrain"])
                groups = _groups(pipeline.plan_similarity(ctx))
                assert sum(len(texts) for texts in groups.values()) > bound

                counts = []
                append = ctx.store.append_similarity

                def counted(record, append=append, gateway=gateway, counts=counts):
                    counts.append(gateway.live())
                    return append(record)

                ctx.store.append_similarity = counted
                with closing(gateway):
                    report = run_stage(ctx, "similarity")
                assert report.completed == report.planned == len(counts)
                peaks[size] = max(counts)
        assert all(peak <= bound for peak in peaks.values()), peaks

    @pytest.mark.parametrize("workers", [1, 3])
    def test_a_warm_resume_reads_one_entry_per_group_and_sends_nothing(
        self, make_ctx, tmp_path, en_corpus, monkeypatch, workers
    ):
        # a cache filled by one run, read by a second store's similarity
        # stage: each group is one cache read, no request goes out, and the
        # table has the bytes of an uncached run. At workers=3 the embedder
        # is HTTP, so the batches are read on a pool
        corpus = subset(en_corpus, 4, seed=7)
        levels = tuple(range(10, 100, 10))
        plain = make_ctx(tmp_path / "plain", {"en": corpus}, levels=levels)
        run(plain, ["similarity"])
        plain.store.close()
        with FixtureServer() as server:
            embedder = live(server, EMBED) if workers > 1 else EMBED
            with closing(Gateway(cache_dir=tmp_path / "cache")) as writer:
                run(make_ctx(
                    tmp_path / "cold", {"en": corpus}, levels=levels, workers=workers,
                    gateway=writer, embedder=embedder,
                ), ["similarity"])
            del server.requests[:]
            gateway = Gateway(cache_dir=tmp_path / "cache")
            ctx = make_ctx(
                tmp_path / "warm", {"en": corpus}, levels=levels, workers=workers,
                gateway=gateway, embedder=embedder,
            )
            run(ctx, ["constrain"])
            groups = _groups(pipeline.plan_similarity(ctx))
            reads = Counter()
            real = ResponseCache.get

            def get(response_cache, key):
                reads[key] += 1
                return real(response_cache, key)

            monkeypatch.setattr(ResponseCache, "get", get)
            with closing(gateway):
                report = run_stage(ctx, "similarity")
            ctx.store.close()
        assert report.completed == report.planned == 36
        assert len(groups) == len(reads) == sum(reads.values()) == 4
        assert gateway.mock_counts()["embeddings"] == 0
        assert server.requests == []
        warm, uncached = (
            (root / "store" / SIMILARITY).read_bytes() for root in (tmp_path / "warm", tmp_path / "plain")
        )
        assert warm == uncached

    @pytest.mark.parametrize("workers", [1, 4])
    def test_a_cache_written_one_group_at_a_time_is_fully_hit(
        self, make_ctx, tmp_path, en_corpus, workers
    ):
        # embed_groups writes each group's cache entry as a request of its
        # own would; the batched stage reads them all and sends nothing.
        # At workers=4 the embedder is HTTP and answers as the mock does
        corpus = subset(en_corpus, 4, seed=7)
        levels = tuple(range(10, 100, 10))
        expected = make_ctx(tmp_path / "plain", {"en": corpus}, levels=levels)
        run(expected, ["constrain"])
        groups = _groups(pipeline.plan_similarity(expected))
        run_stage(expected, "similarity")
        with FixtureServer() as server:
            embedder = live(server, EMBED) if workers > 1 else EMBED
            writer = Gateway(cache_dir=tmp_path / "cache")
            for texts in groups.values():
                writer.embed_groups(embedder, [texts])
            writer.close()
            del server.requests[:]
            gateway = Gateway(cache_dir=tmp_path / "cache")
            ctx = make_ctx(
                tmp_path / "cached", {"en": corpus}, levels=levels, workers=workers,
                gateway=gateway, embedder=embedder,
            )
            run(ctx, ["constrain"])
            with closing(gateway):
                report = run_stage(ctx, "similarity")
        assert report.completed == report.planned == 36
        assert gateway.mock_counts()["embeddings"] == 0
        assert server.requests == []
        assert ctx.store.load_similarities() == expected.store.load_similarities()

    def test_a_cache_written_by_a_refusing_embedder_is_fully_hit(
        self, make_ctx, tmp_path, en_corpus
    ):
        # an embedder that refuses list inputs gets one text per request,
        # and each group is cached once all its texts are back; an embedder
        # that takes lists then finds every group in the cache
        corpus = subset(en_corpus, 4, seed=7)
        levels = tuple(range(10, 100, 10))
        with FixtureServer() as server:
            taking = live(server, EMBED)
            server.route("/refuses/embeddings", _refuses_list_inputs(server.httpd.routes["/13/embeddings"]))
            refusing = replace(taking, base_url=f"{server.base_url}/refuses")
            stores = {}
            for name, embedder in (("refusing", refusing), ("taking", taking)):
                before = len(server.requests)
                gateway = Gateway(cache_dir=tmp_path / "cache")
                ctx = make_ctx(
                    tmp_path / name, {"en": corpus}, levels=levels, workers=3,
                    gateway=gateway, embedder=embedder,
                )
                run(ctx, ["constrain"])
                groups = _groups(pipeline.plan_similarity(ctx))
                with closing(gateway):
                    report = run_stage(ctx, "similarity")
                assert report.completed == report.planned == 36
                stores[name] = store_bytes(tmp_path / name / "store")
                sent = [r["payload"]["input"] for r in server.requests[before:]]
                if name == "refusing":
                    # the refused probe of two groups, then each group's
                    # refused probe and its texts one by one
                    assert sum(isinstance(i, list) for i in sent) == 2
                    assert len(sent) - 2 == sum(len(t) for t in groups.values()) == 40
                else:
                    assert sent == []
        assert stores["refusing"] == stores["taking"]

    @pytest.mark.parametrize("workers, offset", [(1, 0), (1, 1), (3, 0), (3, 1)])
    def test_embed_error_stores_exactly_the_units_before_its_batch(
        self, make_ctx, tmp_path, en_corpus, pools, workers, offset
    ):
        # offset 0 fails the batch through the level-0 base text of its
        # first group, offset 1 through a rewrite; six groups make three
        # batches, and the middle one fails. The units before that batch's
        # first group are stored, and none after. At workers=3 the embedder
        # is HTTP, so the batches are embedded on a pool
        with FixtureServer() as server:
            ctx = make_ctx(
                tmp_path, {"en": subset(en_corpus, 6, seed=7)},
                levels=tuple(range(10, 100, 10)), workers=workers,
                embedder=live(server, EMBED) if workers > 1 else EMBED,
            )
            run(ctx, ["constrain"])
            units = pipeline.plan_similarity(ctx)
            assert units[-1][3] == 2
            first = next(i for i, unit in enumerate(units) if unit[3] == 1)
            assert 0 < first < len(units) - 1
            ctx.gateway = _BrokenEmbeddings(ctx.gateway, units[first][1][offset])
            with pytest.raises(StageFailure, match="embedding backend exploded"):
                run_stage(ctx, "similarity")
        assert bool(pools) == (workers > 1)
        stored = RunStore.load(tmp_path / "store").load_similarities()
        assert [work_key(s) for s in stored] == [unit[0] for unit in units[:first]]


def live(server, endpoint: ModelEndpoint) -> ModelEndpoint:
    """`endpoint` served over HTTP by `server`, answering as it would in
    process; no retries, so a request the server drops fails its unit."""
    seed = int(endpoint.base_url.removeprefix("mock://"))
    return ModelEndpoint(
        base_url=route_mock(server, seed), model_id=endpoint.model_id,
        max_retries=0, requests_per_minute=100_000,
    )


class InFlight:
    """Holds every request `server` answers for `hold` seconds and records
    the most it has had in flight at once, across all routes."""

    def __init__(self, server, hold: float):
        self._hold = hold
        self._lock = threading.Lock()
        self._now = 0
        self.peak = 0
        for path, answer in list(server.httpd.routes.items()):
            server.route(path, self._counted(answer))

    def _counted(self, answer):
        def route(payload):
            with self._lock:
                self._now += 1
                self.peak = max(self.peak, self._now)
            try:
                time.sleep(self._hold)
                return answer(payload)
            finally:
                with self._lock:
                    self._now -= 1
        return route


def _record_threads(monkeypatch) -> set[int]:
    """The idents of the threads that make a unit's model calls or mask
    its explanation, collected into the returned set."""
    threads = set()

    def spy(real):
        def call(*args, **kwargs):
            threads.add(threading.get_ident())
            return real(*args, **kwargs)
        return call

    for owner, name in (
        (Gateway, "generate"), (Gateway, "score_prompts"),
        (Gateway, "score_continuation"), (Gateway, "embed_groups"), (Gateway, "embed"),
        (pipeline, "mask_explanation"),
    ):
        monkeypatch.setattr(owner, name, spy(getattr(owner, name)))
    return threads


class TestRequestsInFlight:
    """A stage that calls an HTTP endpoint keeps requests_in_flight(workers)
    requests in flight, one per pool thread; a stage that calls only mock://
    endpoints, or none, runs inline on the calling thread."""

    @pytest.mark.parametrize("stage, path", [
        ("generate", "/11/chat/completions"),
        ("constrain", "/11/chat/completions"),
        ("score", "/12/completions"),
        ("similarity", "/13/embeddings"),
    ])
    def test_http_stage_reaches_four_requests_at_one_worker(
        self, make_ctx, tmp_path, en_corpus, stage, path
    ):
        # the first four requests of the stage are answered only once all
        # four have arrived; with fewer in flight the barrier times out and
        # the dropped request fails the stage. One HTTP generator next to a
        # mock one makes generate and constrain HTTP stages. The scorer's and
        # the embedder's first request is a list probe, which the other
        # threads wait on, so there the four after it are held; nine levels
        # give the embedder ten groups of 10 texts, five batches.
        assert requests_in_flight(1) == 4
        levels = tuple(range(10, 100, 10)) if stage == "similarity" else (10, 90)
        with FixtureServer() as server:
            ctx = make_ctx(
                tmp_path, {"en": en_corpus}, levels=levels, workers=1,
                generators=(live(server, GEN), GEN_B),
                scorer=live(server, PROBE), embedder=live(server, EMBED),
            )
            run(ctx, expand_stages([stage])[:-1])
            answer = server.httpd.routes[path]
            together = threading.Barrier(4, timeout=2)
            arrivals = itertools.count()
            first_held = 1 if stage in ("score", "similarity") else 0

            def held(payload):
                if first_held <= next(arrivals) < first_held + 4:
                    together.wait()
                return answer(payload)

            server.route(path, held)
            report = run_stage(ctx, stage)
        assert report.planned >= 4
        assert report.completed == report.planned
        assert not together.broken

    def test_no_stage_exceeds_four_requests_per_worker(self, make_ctx, tmp_path, en_corpus):
        with FixtureServer() as server:
            ctx = make_ctx(
                tmp_path, {"en": en_corpus}, workers=2, generators=(live(server, GEN),),
                scorer=live(server, PROBE), embedder=live(server, EMBED),
            )
            in_flight = InFlight(server, hold=0.01)
            run(ctx, ["aggregate"])
        assert len(ctx.store.load_scores()) == 40
        assert 2 < in_flight.peak <= requests_in_flight(2) == 8

    @pytest.mark.parametrize("workers", [1, 4])
    def test_mock_stages_run_inline_at_any_worker_count(
        self, make_ctx, tmp_path, en_corpus, monkeypatch, workers
    ):
        # CPU-bound mock work on more threads only contends for one GIL
        def no_pool(*args, **kwargs):
            raise AssertionError("a stage with no HTTP endpoint made a thread pool")

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", no_pool)
        threads = _record_threads(monkeypatch)
        ctx = make_ctx(tmp_path, {"en": en_corpus}, levels=(10, 50, 90), workers=workers)
        reports = run(ctx, STAGES)
        assert all(r.completed == r.planned > 2 for r in reports[:-1])
        assert threads == {threading.get_ident()}


class TestScorerListPrompts:
    """SCORE_BATCH scored rows are one request to a scorer that takes list
    prompts, a row is one request to a scorer that takes only one row's
    prompts, and four to one that refuses list prompts; the stored scores
    are the same. Each plan spans three batches or more."""

    def scores(self, make_ctx, root, corpus, scorer, sleeps):
        ctx = make_ctx(root, {"en": corpus}, workers=4, scorer=scorer,
                       gateway=Gateway(sleep=sleeps.append))
        run(ctx, ["score"])
        return ctx.store.load_scores()

    @pytest.mark.parametrize("refuse", [drops_list_prompts, rejects_list_prompts])
    def test_refusing_scorer_is_probed_once_with_no_sleep(
        self, make_ctx, tmp_path, en_corpus, pools, refuse
    ):
        corpus = _scored_rows(en_corpus, 3 * SCORE_BATCH)
        expected = self.scores(make_ctx, tmp_path / "mock", corpus, PROBE, [])
        sleeps = []
        with FixtureServer() as server:
            scorer = replace(live(server, PROBE), max_retries=3)
            path = "/12/completions"
            server.route(path, refuse(server.httpd.routes[path]))
            got = self.scores(make_ctx, tmp_path / "http", corpus, scorer, sleeps)
        assert sleeps == []
        # the first batch's list of several rows is refused, so the batch
        # pool of 3 threads is closed and every row is a unit of its own; 16
        # threads score at once: one sends the probe of one row's list, the
        # rest wait for it
        probes = [r["payload"]["prompt"] for r in server.requests
                  if isinstance(r["payload"]["prompt"], list)]
        assert [len(prompts) for prompts in probes] == [4 * SCORE_BATCH, 4]
        assert pools == [3, requests_in_flight(4)] == [3, 16]
        assert got == expected
        assert len(server.requests) == 2 + 4 * len(expected)

    def test_scorer_that_takes_one_rows_prompts_gets_one_request_per_row(
        self, make_ctx, tmp_path, en_corpus, pools
    ):
        corpus = _scored_rows(en_corpus, 3 * SCORE_BATCH)
        expected = self.scores(make_ctx, tmp_path / "mock", corpus, PROBE, [])
        sleeps = []
        with FixtureServer() as server:
            scorer = replace(live(server, PROBE), max_retries=3)
            path = "/12/completions"
            server.route(path, caps_list_prompts(4, server.httpd.routes[path]))
            got = self.scores(make_ctx, tmp_path / "http", corpus, scorer, sleeps)
        assert sleeps == []
        assert got == expected
        # one refused probe of the first batch, then one request per row
        sent = [len(r["payload"]["prompt"]) for r in server.requests]
        assert sent == [4 * SCORE_BATCH] + [4] * len(expected)
        assert pools == [3, requests_in_flight(4)] == [3, 16]

    def test_scorer_capped_below_a_batch_gets_one_request_per_row(
        self, make_ctx, tmp_path, en_corpus
    ):
        # a scorer that takes the 16 prompts of 4 rows refuses a batch's
        # 4 * SCORE_BATCH, and then gets one row per request: no list
        # between one row's and a batch's is tried. It stores the bytes a
        # scorer that takes a batch's list stores
        corpus = _scored_rows(en_corpus, 3 * SCORE_BATCH)
        sent = {}
        with FixtureServer() as server:
            scorer = replace(live(server, PROBE), max_retries=3)
            path = "/12/completions"
            takes_lists = server.httpd.routes[path]
            for name, route in (("lists", takes_lists),
                                ("capped", caps_list_prompts(16, takes_lists))):
                server.route(path, route)
                before = len(server.requests)
                self.scores(make_ctx, tmp_path / name, corpus, scorer, [])
                sent[name] = [len(r["payload"]["prompt"]) for r in server.requests[before:]]
        assert sent["lists"] == [4 * SCORE_BATCH] * 3
        assert sent["capped"] == [4 * SCORE_BATCH] + [4] * 3 * SCORE_BATCH
        capped = store_bytes(tmp_path / "capped" / "store")
        assert capped == store_bytes(tmp_path / "lists" / "store")

    def test_rows_after_a_refused_batch_fill_the_pool_when_the_first_is_cached(
        self, make_ctx, tmp_path, en_corpus, pools
    ):
        # the first batch is answered from the cache, so the multi-row probe
        # goes out with the second; once it is refused the rows left are
        # units of their own on a pool of requests_in_flight(2) threads
        corpus = _scored_rows(en_corpus, 3 * SCORE_BATCH)
        expected = self.scores(make_ctx, tmp_path / "mock", corpus, PROBE, [])
        assert len(expected) == 3 * SCORE_BATCH
        warm = make_ctx(tmp_path / "warm", {"en": corpus},
                        gateway=Gateway(cache_dir=tmp_path / "cache"))
        run(warm, ["mask"])
        pipeline.run_score(warm, pipeline.plan_score(warm)[:SCORE_BATCH])
        sleeps = []
        with FixtureServer() as server:
            scorer = replace(live(server, PROBE), max_retries=3)
            path = "/12/completions"
            server.route(path, caps_list_prompts(4, server.httpd.routes[path]))
            ctx = make_ctx(tmp_path / "http", {"en": corpus}, workers=2, scorer=scorer,
                           gateway=Gateway(cache_dir=tmp_path / "cache", sleep=sleeps.append))
            run(ctx, ["mask"])
            pools.clear()
            with closing(ctx.gateway):
                run_stage(ctx, "score")
        assert sleeps == []
        assert ctx.store.load_scores() == expected
        sent = [len(r["payload"]["prompt"]) for r in server.requests]
        assert sent == [4 * SCORE_BATCH] + [4] * 2 * SCORE_BATCH
        assert pools == [3, requests_in_flight(2)] == [3, 8]

    def test_a_row_fetched_whole_before_the_switch_is_not_sent_again(
        self, make_ctx, tmp_path, en_corpus, pools
    ):
        # two full batches and one of 1 row, fetched at once on a pool of
        # 3. The last batch's 4 prompts are a list of one row's, which the
        # scorer takes while it refuses the first batch's 4 * SCORE_BATCH;
        # with no cache, that row is scored from its batch's reply, not sent
        # again
        corpus = _scored_rows(en_corpus, 2 * SCORE_BATCH + 1, levels=(10,))
        expected = make_ctx(tmp_path / "mock", {"en": corpus}, levels=(10,))
        run(expected, ["score"])
        with FixtureServer() as server:
            scorer = replace(live(server, PROBE), max_retries=3)
            path = "/12/completions"
            server.route(path, caps_list_prompts(4, server.httpd.routes[path]))
            ctx = make_ctx(tmp_path / "http", {"en": corpus}, levels=(10,), workers=2,
                           scorer=scorer)
            run(ctx, ["mask"])
            pools.clear()
            with closing(ctx.gateway):
                run_stage(ctx, "score")
        assert ctx.store.load_scores() == expected.store.load_scores()
        sent = sorted(len(r["payload"]["prompt"]) for r in server.requests)
        assert sent == [4] * (2 * SCORE_BATCH + 1) + [4 * SCORE_BATCH]
        assert pools == [3, requests_in_flight(2)]

    def test_rows_fetched_before_the_switch_are_each_scored_once_under_thread_churn(
        self, make_ctx, tmp_path, en_corpus
    ):
        # 14 full batches and one of 1 row on 16 threads, more than the
        # cores, switching often: the rows fetched before the switch are
        # shared with the calling thread, and one lost or scored twice would
        # show as a wrong table or a request sent again
        corpus = {"en": _scored_rows(en_corpus, 14 * SCORE_BATCH + 1, levels=(10,))}
        expected = make_ctx(tmp_path / "mock", corpus, levels=(10,))
        run(expected, ["score"])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with FixtureServer() as server:
                scorer = replace(live(server, PROBE), max_retries=3)
                path = "/12/completions"
                server.route(path, caps_list_prompts(4, server.httpd.routes[path]))
                ctx = make_ctx(tmp_path / "http", corpus, levels=(10,), workers=4,
                               scorer=scorer)
                with closing(ctx.gateway):
                    run(ctx, ["score"])
        finally:
            sys.setswitchinterval(interval)
        assert len(ctx.store.load_scores()) == 14 * SCORE_BATCH + 1
        assert ctx.store.load_scores() == expected.store.load_scores()
        sent = sorted(len(r["payload"]["prompt"]) for r in server.requests)
        assert sent == [4] * (14 * SCORE_BATCH + 1) + [4 * SCORE_BATCH]

    def test_429_on_the_probe_is_retried_and_batching_stays_on(
        self, make_ctx, tmp_path, en_corpus
    ):
        corpus = _scored_rows(en_corpus, 3 * SCORE_BATCH)
        expected = self.scores(make_ctx, tmp_path / "mock", corpus, PROBE, [])
        sleeps = []
        with FixtureServer() as server:
            scorer = replace(live(server, PROBE), max_retries=3)
            server.script_statuses([429])
            got = self.scores(make_ctx, tmp_path / "http", corpus, scorer, sleeps)
        assert sleeps == [Gateway.BACKOFF_BASE]
        assert got == expected
        # the first batch twice, its 429 and its retry, then one per batch
        sent = [len(r["payload"]["prompt"]) for r in server.requests]
        assert len(expected) == 3 * SCORE_BATCH
        assert sent == [4 * SCORE_BATCH] * 4


class TestFatalFailures:
    def test_unexpected_error_becomes_stage_failure(self, make_ctx, tmp_path, en_corpus):
        small = subset(en_corpus, 2, seed=7)
        ctx = make_ctx(tmp_path, {"en": small}, gateway=_BrokenEmbeddings(Gateway()))
        run(ctx, ["constrain"])
        with pytest.raises(StageFailure, match="similarity"):
            run_stage(ctx, "similarity")

    def test_constrained_row_without_its_base_fails_the_plan(self, make_ctx, tmp_path, en_corpus):
        # a store edited from outside can hold a rewrite whose level-0 row
        # is gone: no cosine can be computed for it, so the plan refuses it
        small = subset(en_corpus, 2, seed=7)
        ctx = make_ctx(tmp_path, {"en": small})
        run(ctx, ["constrain"])
        ctx.store.close()
        path = tmp_path / "store" / EXPLANATIONS
        header, *rows = csv.reader(io.StringIO(path.read_text(encoding="utf-8"), newline=""))
        orphaned = next(row for row in rows if row[4] == "0")
        rows.remove(orphaned)
        sink = io.StringIO()
        csv.writer(sink, lineterminator="\n").writerows([header, *rows])
        path.write_text(sink.getvalue(), encoding="utf-8")
        ctx = make_ctx(tmp_path, {"en": small})
        with pytest.raises(StageFailure, match=(
            rf"similarity \('{orphaned[1]}', 'en', 'gen-1', 10\): "
            "constrained row without a level-0 base"
        )):
            pipeline.plan_similarity(ctx)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_stage_failure_stores_exactly_the_units_before_it(
        self, make_ctx, tmp_path, en_corpus, monkeypatch, pools, workers
    ):
        # at workers=3 the generator is HTTP, so the constrain units run on
        # a pool of requests_in_flight(3) threads; at workers=1 it is
        # mock:// and they run inline
        with FixtureServer() as server:
            ctx = make_ctx(
                tmp_path, {"en": subset(en_corpus, 4, seed=7)}, levels=tuple(range(10, 100, 10)),
                workers=workers, generators=(live(server, GEN) if workers > 1 else GEN,),
            )
            run(ctx, ["generate"])
            keys = [unit[0] for unit in plan_constrain(ctx)]
            k = len(keys) // 2
            started = []
            real = pipeline.constrain_explanation

            def constrain(item, base, level, *args, **kwargs):
                key = work_key(base)[:3] + (level,)
                started.append(key)
                if key == keys[k]:
                    raise RuntimeError("constrainer exploded")
                if key in keys[k + 1:]:
                    time.sleep(0.5)  # the failure reaches the calling thread meanwhile
                return real(item, base, level, *args, **kwargs)

            monkeypatch.setattr(pipeline, "constrain_explanation", constrain)
            pools.clear()
            with pytest.raises(StageFailure, match="constrainer exploded"):
                run_stage(ctx, "constrain")
        stored = RunStore.load(tmp_path / "store").load_explanations()
        assert [work_key(e) for e in stored if e.level] == keys[:k]
        assert pools == ([requests_in_flight(workers)] if workers > 1 else [])
        # the units not started by then are cancelled: no thread starts
        # more than one unit after the failing one, and inline none
        assert set(keys[:k + 1]) <= set(started)
        assert len(started) <= k + 1 + sum(pools) < len(keys)


class _InterruptedConstrain:
    """Delegates to a real gateway, but raises KeyboardInterrupt in place
    of its k-th (from 1) constrain generation call."""

    def __init__(self, inner, k):
        self._inner = inner
        self._k = k
        self._calls = itertools.count(1)

    def generate(self, endpoint, prompt, **kwargs):
        if prompt.kind == "constrain" and next(self._calls) == self._k:
            raise KeyboardInterrupt
        return self._inner.generate(endpoint, prompt, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture(scope="module")
def uncached(tmp_path_factory, en_corpus):
    """Corpus, table bytes, mock counts and constrain work keys, in planning
    order, of one uninterrupted run at workers=1 with no cache."""
    root = tmp_path_factory.mktemp("uncached")
    corpora = {"en": subset(en_corpus, 4, seed=7)}
    gateway = Gateway()
    ctx = new_context(root, corpora, workers=1, gateway=gateway)
    with ctx.store:
        run(ctx, ["generate"])
        keys = [unit[0] for unit in plan_constrain(ctx)]
        reports = run(ctx, STAGES)
    # one generation call per generate and per constrain unit
    assert gateway.mock_counts()["generate"] == len(corpora["en"]) + len(keys)
    assert reports[1].completed == len(keys)
    return corpora, store_bytes(root / "store"), gateway.mock_counts(), keys


class _Result:
    """A unit result that a weakref can follow."""


class TestCommitsAsResultsLand:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_result_is_freed_once_the_caller_drops_it(self, pools, threads):
        # two units of a stage that calls an HTTP endpoint run on a pool of
        # two threads; with no endpoint they run inline
        endpoints = (ModelEndpoint(base_url="http://127.0.0.1:9", model_id="gen-1"),)
        results = pipeline._map_ordered(
            SimpleNamespace(workers=1), range(2), lambda unit: _Result(),
            endpoints if threads > 1 else (),
        )
        with closing(results):
            _, first, _ = next(results)
            dropped = weakref.ref(first)
            del first
            _, second, _ = next(results)
            assert dropped() is None
            assert isinstance(second, _Result)
        assert pools == ([threads] if threads > 1 else [])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_units_ahead_of_a_stalled_head_are_capped(self, pools, workers):
        # the head unit waits until the pool has started every unit it may,
        # UNITS_AHEAD_PER_THREAD per thread counting the head; a thread
        # that finds no unit to start stays idle
        threads = requests_in_flight(workers)
        cap = UNITS_AHEAD_PER_THREAD * threads
        units = range(3 * cap)
        started, seen = [], []
        lock, release = threading.Lock(), threading.Event()

        def fn(unit):
            with lock:
                started.append(unit)
            if unit == 0:
                assert release.wait(timeout=10)
            return unit

        def release_head():
            deadline = time.monotonic() + 10
            while len(started) < cap and time.monotonic() < deadline:
                time.sleep(0.005)
            time.sleep(0.1)  # time for any unit past the cap to start
            seen.append(len(started))
            release.set()

        endpoints = (ModelEndpoint(base_url="http://127.0.0.1:9", model_id="gen-1"),)
        watcher = threading.Thread(target=release_head)
        watcher.start()
        try:
            results = pipeline._map_ordered(SimpleNamespace(workers=workers), units, fn, endpoints)
            got = [result for _, result, error in results if error is None]
        finally:
            release.set()
            watcher.join()
        assert pools == [threads]
        assert seen == [cap]
        assert got == list(units)
        assert sorted(started) == list(units)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_interrupt_loses_only_the_unit_in_flight(self, uncached, tmp_path_factory, data):
        # no cache: a unit lost to the interrupt is paid for again on resume
        corpora, tables, counts, keys = uncached
        k = data.draw(st.integers(min_value=1, max_value=len(keys)), label="interrupted call")
        root = tmp_path_factory.mktemp("interrupted")
        first = Gateway()
        ctx = new_context(root, corpora, workers=1, gateway=_InterruptedConstrain(first, k))
        with ctx.store, pytest.raises(KeyboardInterrupt):
            run(ctx, STAGES)
        stored = RunStore.load(root / "store").load_explanations()
        assert [work_key(e) for e in stored if e.level != 0] == keys[:k - 1]

        resumed = Gateway()
        manifest = RunManifest.new(RUN, {"levels": [10, 90]})
        with RunStore.open_resume(root / "store", manifest) as store:
            run(new_context(root, corpora, workers=1, gateway=resumed, store=store), STAGES)
        assert store_bytes(root / "store") == tables
        assert {
            kind: first.mock_counts()[kind] + resumed.mock_counts()[kind] for kind in counts
        } == counts

    def test_http_stage_commits_before_its_last_unit_answers(
        self, make_ctx, tmp_path, en_corpus
    ):
        # ten generate units on eight threads: the last unit's request is
        # held until the first row is in the table file
        last = max(en_corpus, key=lambda item: item.id)
        table = tmp_path / "store" / EXPLANATIONS
        landed, done, released = threading.Event(), threading.Event(), []
        with FixtureServer() as server:
            ctx = make_ctx(
                tmp_path, {"en": en_corpus}, workers=2, generators=(live(server, GEN),)
            )
            header = table.stat().st_size
            answer = server.httpd.routes["/11/chat/completions"]

            def hold_last(payload):
                if last.stem in payload["messages"][0]["content"]:
                    released.append(landed.wait(timeout=5))
                return answer(payload)

            def watch():
                while not done.wait(0.005):
                    if table.stat().st_size > header:
                        landed.set()
                        return

            server.route("/11/chat/completions", hold_last)
            watcher = threading.Thread(target=watch)
            watcher.start()
            try:
                report = run_stage(ctx, "generate")
            finally:
                done.set()
                watcher.join()
        assert released == [True]
        assert report.completed == report.planned == len(en_corpus)


class TestDryRun:
    def test_plans_without_calls(self, make_ctx, tmp_path, en_corpus):
        small = subset(en_corpus, 3, seed=7)
        gateway = Gateway()
        ctx = make_ctx(tmp_path, {"en": small}, gateway=gateway)
        reports = run(ctx, ["aggregate"], dry_run=True)
        by_stage = {r.stage: r for r in reports}
        assert by_stage["generate"].planned == 3
        assert by_stage["generate"].completed == 0
        # later stages see no stored rows yet, so they plan nothing
        assert by_stage["constrain"].planned == 0
        assert gateway.mock_counts() == {"generate": 0, "logprobs": 0, "embeddings": 0}
        assert len(ctx.store.load_explanations()) == 0

    def test_dry_run_after_generate_sees_constrain_work(self, make_ctx, tmp_path, en_corpus):
        small = subset(en_corpus, 3, seed=7)
        ctx = make_ctx(tmp_path, {"en": small})
        run(ctx, ["generate"])
        reports = run(ctx, ["constrain"], dry_run=True)
        by_stage = {r.stage: r for r in reports}
        assert by_stage["constrain"].planned == 6


class TestBenchContract:
    """Names the benchmark harness looks up: bench/tracing.py drives each
    stage through its public plan_/run_ pair and patches the attributes
    listed here, so renaming any of them breaks traced runs."""

    def test_public_stage_pairs_are_the_stage_table(self):
        for stage in STAGES:
            plan, execute, _ = pipeline._STAGE_TABLE[stage]
            assert getattr(pipeline, f"plan_{stage}") is plan
            assert getattr(pipeline, f"run_{stage}") is execute

    def test_traced_attributes_exist(self):
        patched = [
            (Corpus, "__getitem__"),
            (pipeline, "mask_explanation"),
            (pipeline, "constrain_explanation"),
            (pipeline, "score_item"),
            (pipeline, "aggregate"),
            (masker, "verify_masked"),
            (gateway_module, "request_fingerprint"),
            (ResponseCache, "get"),
            (ResponseCache, "put"),
            *((MockBackend, name) for name in ("generate", "score", "embed")),
            *((Gateway, name) for name in ("generate", "score_continuation", "embed")),
            *((RunStore, f"append_{name}")
              for name in ("explanation", "mask", "score", "similarity", "audit")),
            *((RunStore, f"load_{name}") for name in (
                "explanations", "masks", "scores", "similarities", "audit", "aggregates",
            )),
        ]
        missing = [
            f"{owner.__name__}.{name}" for owner, name in patched
            if not callable(getattr(owner, name, None))
        ]
        assert missing == []

    def test_mock_names_stay_importable_from_gateway(self):
        # bench/ imports the mock's names from suffbench.gateway
        assert gateway_module.MockBackend is mock.MockBackend
        assert gateway_module._WORD_POOL is mock._WORD_POOL
