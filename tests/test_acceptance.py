"""Acceptance checks for the evaluation harness.

One test per shipped guarantee, each printing a single PASS/FAIL line
(with its runtime) straight to the terminal, including under pytest's
output capture. Runtime bounds are part of the contract and enforced.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from suffbench.cli import build_context, load_config, main
from suffbench.constrainer import CONSTRAINT_LEVELS, make_explanation, word_budget
from suffbench.corpus import QuestionItem, load_corpus
from suffbench.gateway import Gateway, ModelEndpoint
from suffbench.masker import mask_explanation, verify_masked
from suffbench.metrics import (
    SimilarityRecord,
    accuracy,
    aggregate,
    cosine,
    heatmap_matrix,
    mean_sufficiency,
)
from suffbench.pipeline import run as run_stages
from suffbench.prompts import load_template_set
from suffbench.runstore import RunStore
from suffbench.scorer import predict, score_item, softmax_probs
from tests.conftest import FIXTURES

CSV_TABLES = (
    "explanations.csv", "masks.csv", "scores.csv",
    "similarity.csv", "aggregates.csv", "audit.csv",
)

SOFTMAX_ORACLE = {
    "A": 0.6439142598879723,
    "B": 0.23688281808991013,
    "C": 0.08714431874203257,
    "D": 0.03205860328008499,
}

COSINE_ORACLE = 0.9746318461970762  # (1,2,3) vs (4,5,6)


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def checked(name: str, budget_seconds: float):
        start = time.monotonic()
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\nFAIL  {name}")
            raise
        elapsed = time.monotonic() - start
        if elapsed >= budget_seconds:
            with capsys.disabled():
                print(f"\nFAIL  {name}  [{elapsed:.2f}s over the {budget_seconds:.0f}s budget]")
            pytest.fail(f"{name}: took {elapsed:.2f}s, budget {budget_seconds}s")
        with capsys.disabled():
            print(f"\nPASS  {name}  [{elapsed:.2f}s < {budget_seconds:.0f}s]")

    return checked


def bilingual_config(tmp_path, store_name: str) -> dict:
    return {
        "store_dir": str(tmp_path / store_name),
        "corpus": {
            "en": str(FIXTURES / "corpus_en.jsonl"),
            "fa": str(FIXTURES / "corpus_fa.jsonl"),
        },
        "generators": [
            {"base_url": "mock://41", "model_id": "gen-1"},
            {"base_url": "mock://41", "model_id": "gen-2"},
        ],
        "scorer": {"base_url": "mock://42", "model_id": "probe-1"},
        "embedder": {"base_url": "mock://43", "model_id": "embed-1"},
    }


def write_json(tmp_path, name: str, payload: dict):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def table_bytes(store_dir):
    return {name: (store_dir / name).read_bytes() for name in CSV_TABLES}


def test_softmax_suite(criterion):
    with criterion(
        "softmax: shift-invariant (<1e-9), normalized, exact ties, oracle to 1e-4", 1.0
    ):
        rng = random.Random(2026)
        for _ in range(1000):
            logprobs = {o: rng.uniform(-30.0, 0.0) for o in "ABCD"}
            shift = rng.uniform(-50.0, 50.0)
            base = softmax_probs(logprobs)
            moved = softmax_probs({o: lp + shift for o, lp in logprobs.items()})
            assert abs(sum(base.values()) - 1.0) <= 1e-9
            for option in "ABCD":
                assert abs(base[option] - moved[option]) < 1e-9

        ties = softmax_probs({o: -3.25 for o in "ABCD"})
        assert all(p == 0.25 for p in ties.values())
        assert predict(ties) == "A"

        example = softmax_probs({"A": -1.0, "B": -2.0, "C": -3.0, "D": -4.0})
        for option, expected in SOFTMAX_ORACLE.items():
            assert example[option] == pytest.approx(expected, abs=1e-4)


def test_budget_suite(criterion):
    with criterion(
        "budgets: 50-word base at level 20 -> 40, floor 1, non-increasing (500 bases)", 1.0
    ):
        fifty = make_explanation("x", "en", "m", 0, " ".join(["w"] * 50))
        assert word_budget(fifty, 20) == 40

        tiny = make_explanation("x", "en", "m", 0, "single")
        assert word_budget(tiny, 90) == 1

        rng = random.Random(7)
        for _ in range(500):
            words = rng.randint(1, 400)
            base = make_explanation("x", "en", "m", 0, " ".join(["w"] * words))
            values = [word_budget(base, v) for v in CONSTRAINT_LEVELS]
            assert all(a >= b for a, b in zip(values, values[1:]))
            assert all(b >= 1 for b in values)
            for level, value in zip(CONSTRAINT_LEVELS, values):
                assert value == max(1, int(Fraction(100 - level, 100) * words))


def test_masking_golden_suite(criterion):
    golden = json.loads((FIXTURES / "masking_golden.json").read_text(encoding="utf-8"))
    with criterion(
        "masking: all 12 golden cases match, idempotent, outputs verify leak-free", 1.0
    ):
        assert len(golden["cases"]) == 12
        for case in golden["cases"]:
            item = QuestionItem(
                id="g1", stem="stem?", options=dict(case["options"]),
                gold="A", language=case["language"],
            )
            raw = make_explanation("g1", case["language"], "gen-1", 0, case["text"])
            report = mask_explanation(raw, item)
            assert report.masked_text == case["masked"]
            assert report.label_hits == case["label_hits"]
            assert report.text_hits == case["text_hits"]
            assert verify_masked(report.masked_text, item)
            again = mask_explanation(
                make_explanation("g1", case["language"], "gen-1", 0, report.masked_text), item
            )
            assert again.masked_text == report.masked_text
            assert again.label_hits == again.text_hits == 0


def test_uniform_scorer_oracle(criterion):
    with criterion(
        "uniform scorer: sufficiency 0.25 exactly, all-A predictions, accuracy = gold-A rate",
        5.0,
    ):
        corpus = load_corpus(FIXTURES / "corpus_en.jsonl", "en")
        templates = load_template_set("default-v1", "en")
        gateway = Gateway()
        probe = ModelEndpoint(base_url="mock://5", model_id="probe-1")
        rows = [score_item(gateway, probe, item, None, templates) for item in corpus]

        gold_a_rate = sum(1 for item in corpus if item.gold == "A") / len(corpus)
        assert gold_a_rate == 0.3  # fixture property the oracle depends on
        assert accuracy(rows) == gold_a_rate
        assert mean_sufficiency(rows) == 0.25
        assert all(row.predicted == "A" for row in rows)
        assert all(row.option_probs[o] == 0.25 for row in rows for o in "ABCD")


def test_end_to_end_mock_run(criterion, tmp_path):
    with criterion(
        "end-to-end mock run: full bilingual row counts, loadable CSVs, "
        "order-free aggregates, byte-identical reruns",
        30.0,
    ):
        config_a = write_json(tmp_path, "a.json", bilingual_config(tmp_path, "store_a"))
        config_b = write_json(tmp_path, "b.json", bilingual_config(tmp_path, "store_b"))
        assert main(["run", "--config", str(config_a), "--all"]) == 0
        assert main(["run", "--config", str(config_b), "--all"]) == 0

        store = RunStore.load(tmp_path / "store_a")
        scores = store.load_scores()
        for language in ("en", "fa"):
            explained = [
                s for s in scores if s.language == language and s.level != "noexp"
            ]
            baseline = [
                s for s in scores if s.language == language and s.level == "noexp"
            ]
            assert len(explained) == 10 * 2 * 10  # items x models x levels 0-90
            assert len(baseline) == 10  # scored once per item, model-independent
        assert len(store.load_explanations()) == 400
        assert len(store.load_masks()) == 400
        assert len(store.load_similarities()) == 360
        assert len(store.load_audit()) == 0
        cells = store.load_aggregates()
        assert len(cells) == 2 * (1 + 2 * 10)  # per language: baseline + models x levels

        shuffled_scores = list(scores)
        shuffled_sims = list(store.load_similarities())
        random.Random(3).shuffle(shuffled_scores)
        random.Random(4).shuffle(shuffled_sims)
        assert aggregate(shuffled_scores, shuffled_sims) == list(cells)

        assert table_bytes(tmp_path / "store_a") == table_bytes(tmp_path / "store_b")


def test_resume_correctness(criterion, tmp_path):
    with criterion(
        "resume: after a kill post-constrain, zero regenerated requests and "
        "byte-identical final CSVs",
        60.0,
    ):
        config_path = write_json(tmp_path, "a.json", bilingual_config(tmp_path, "store_a"))
        config = load_config(config_path)

        with RunStore.open_or_create(config.store_dir, config.manifest()) as first_store:
            first_ctx = build_context(config, first_store, Gateway())
            run_stages(first_ctx, ["constrain"])
        # the process "dies" here; nothing from first_ctx is reused

        fresh_gateway = Gateway()
        with RunStore.open_or_create(config.store_dir, config.manifest()) as resumed_store:
            resumed_ctx = build_context(config, resumed_store, fresh_gateway)
            run_stages(resumed_ctx, ["aggregate"])
        assert fresh_gateway.mock_counts()["generate"] == 0
        assert fresh_gateway.mock_counts()["logprobs"] > 0

        reference = write_json(tmp_path, "b.json", bilingual_config(tmp_path, "store_b"))
        assert main(["run", "--config", str(reference), "--all"]) == 0
        assert table_bytes(tmp_path / "store_a") == table_bytes(tmp_path / "store_b")


def test_similarity_suite(criterion):
    with criterion(
        "similarity: identity 1.0, orthogonal 0.0, 3-vector oracle to 1e-6, "
        "identical embeddings give an all-1.0 heatmap",
        1.0,
    ):
        gateway = Gateway()
        embedder = ModelEndpoint(base_url="mock://6", model_id="embed-1")
        vector = gateway.embed(embedder, "Plants need light to grow.").vector
        assert cosine(vector, vector) == pytest.approx(1.0, abs=1e-12)
        assert cosine((1.0, 0.0), (0.0, 2.0)) == 0.0
        assert cosine((1, 2, 3), (4, 5, 6)) == pytest.approx(COSINE_ORACLE, abs=1e-6)

        records = [
            SimilarityRecord("q1", "en", model, level, cosine(vector, vector))
            for model in ("gen-1", "gen-2")
            for level in CONSTRAINT_LEVELS
        ]
        matrix = heatmap_matrix(records)
        assert matrix.models == ("gen-1", "gen-2")
        for row in matrix.values:
            for value in row:
                assert value == pytest.approx(1.0, abs=1e-12)
