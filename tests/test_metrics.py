from __future__ import annotations

import csv
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from suffbench.metrics import (
    AggregateCell,
    HeatmapMatrix,
    MetricsError,
    SimilarityRecord,
    accuracy,
    aggregate,
    cosine,
    heatmap_matrix,
    mean,
    mean_sufficiency,
    norm,
    render_heatmap_svg,
)
from suffbench.numeric import ordered_sum
from suffbench.runstore import AGGREGATES, RunManifest, RunStore
from suffbench.scorer import ScoreResult


def score_row(
    item_id="q0001",
    language="en",
    model="gen-1",
    level=0,
    sufficiency=0.25,
    correct=False,
) -> ScoreResult:
    remainder = (1.0 - sufficiency) / 3
    probs = {o: remainder for o in "ABCD"}
    probs["A"] = sufficiency
    return ScoreResult(
        item_id=item_id,
        language=language,
        generator_model=model,
        level=level,
        option_probs=probs,
        sufficiency=sufficiency,
        predicted="A",
        correct=correct,
        scorer_model="probe",
        prompt_fingerprint="f" * 64,
    )


def baseline_row(item_id="q0001", language="en", correct=True) -> ScoreResult:
    return ScoreResult(
        item_id=item_id,
        language=language,
        generator_model="baseline",
        level="noexp",
        option_probs={"A": 0.25, "B": 0.25, "C": 0.25, "D": 0.25},
        sufficiency=0.25,
        predicted="A",
        correct=correct,
        scorer_model="probe",
        prompt_fingerprint="f" * 64,
    )


class TestCosine:
    def test_oracle_value(self):
        # 32 / (sqrt(14) * sqrt(77)), computed independently
        assert cosine((1, 2, 3), (4, 5, 6)) == pytest.approx(0.9746318461970762, abs=1e-12)

    def test_identical_vectors(self):
        assert cosine((0.3, -0.4, 0.5), (0.3, -0.4, 0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_vectors(self):
        assert cosine((1.0, 0.0), (0.0, 3.0)) == 0.0

    def test_opposite_vectors(self):
        assert cosine((1.0, 2.0), (-1.0, -2.0)) == pytest.approx(-1.0, abs=1e-12)

    def test_result_always_clamped(self):
        value = cosine((1e-8,) * 300, (1e-8,) * 300)
        assert -1.0 <= value <= 1.0

    def test_dim_mismatch_rejected(self):
        with pytest.raises(MetricsError, match="dims differ"):
            cosine((1.0, 2.0), (1.0, 2.0, 3.0))

    def test_zero_norm_rejected(self):
        with pytest.raises(MetricsError, match="zero-norm"):
            cosine((0.0, 0.0), (1.0, 2.0))

    @pytest.mark.parametrize("component", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("first", [True, False])
    def test_a_non_finite_component_is_not_read_as_similarity(self, component, first):
        # min(1.0, nan) is 1.0: clamped, a NaN would read as a perfect match
        u, v = (component, 1.0), (1.0, 0.0)
        with pytest.raises(MetricsError, match="non-finite"):
            cosine(u, v) if first else cosine(v, u)

    @given(
        st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=8).filter(
            lambda v: any(abs(x) > 1e-6 for x in v)
        )
    )
    def test_bounded(self, vector):
        other = [x + 0.5 for x in vector]
        if all(abs(x) < 1e-9 for x in other):
            other[0] += 1.0
        assert -1.0 <= cosine(vector, other) <= 1.0


    @given(
        st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=40),
        st.randoms(use_true_random=False),
    )
    def test_a_precomputed_base_norm_gives_the_same_bits(self, base, rng):
        other = [rng.uniform(-1e3, 1e3) for _ in base]
        if norm(base) == 0.0 or norm(other) == 0.0:
            return
        assert cosine(base, other, norm(base)) == cosine(base, other)

    def test_a_precomputed_norm_of_zero_is_still_refused(self):
        with pytest.raises(MetricsError, match="zero-norm"):
            cosine((0.0, 0.0), (1.0, 2.0), 0.0)


class TestOrderedSum:
    """Float sums that reach a table add left to right on every version:
    from Python 3.12 the builtin sum() compensates, and gives other bits."""

    def test_adds_left_to_right(self):
        # 0.1 + 0.1 + ... rounds at each step; compensated, it is 1.0
        assert ordered_sum([0.1] * 10) == 0.9999999999999999

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), max_size=30))
    def test_is_a_left_fold_from_zero(self, values):
        total = 0.0
        for value in values:
            total += value
        assert ordered_sum(values) == total
        assert ordered_sum(iter(values)) == total

    def test_an_empty_sum_is_a_float_zero(self):
        assert ordered_sum([]) == 0.0 and type(ordered_sum([])) is float


class TestMeans:
    def test_accuracy(self):
        rows = [score_row(correct=True), score_row(correct=False), score_row(correct=True)]
        assert accuracy(rows) == pytest.approx(2 / 3)

    def test_mean_sufficiency_uniform_rows_exact(self):
        rows = [baseline_row(item_id=f"q{i}") for i in range(10)]
        assert mean_sufficiency(rows) == 0.25

    def test_mean_sums_in_sorted_order_whatever_the_input_order(self):
        values = [0.1, 1e16, 0.3, -1e16, 0.7, 0.2]
        for order in itertools.permutations(values):
            assert mean(order) == ordered_sum(sorted(values)) / len(values)

    def test_empty_inputs_rejected(self):
        with pytest.raises(MetricsError):
            accuracy([])
        with pytest.raises(MetricsError):
            mean_sufficiency([])


class TestSimilarityRecord:
    def test_level_zero_rejected(self):
        with pytest.raises(MetricsError, match="similarity level"):
            SimilarityRecord("q1", "en", "gen-1", 0, 0.9)

    def test_cosine_domain(self):
        with pytest.raises(MetricsError, match="outside"):
            SimilarityRecord("q1", "en", "gen-1", 10, 1.5)


def build_inputs():
    scores = []
    for language in ("en", "fa"):
        for i in range(4):
            scores.append(baseline_row(item_id=f"q{i}", language=language, correct=i % 2 == 0))
        for model in ("gen-b", "gen-a"):
            for level in (0, 10):
                for i in range(4):
                    scores.append(
                        score_row(
                            item_id=f"q{i}",
                            language=language,
                            model=model,
                            level=level,
                            # distinct irregular values so order-dependent
                            # float summation would show up in the means
                            sufficiency=0.5 if model == "gen-b" else 0.1 + i * 0.137,
                            correct=i == 0,
                        )
                    )
    similarities = [
        SimilarityRecord(f"q{i}", "en", "gen-a", 10, 0.8 - i * 0.123)
        for i in range(4)
    ]
    exclusions = [("en", "gen-a", "q9"), ("en", "gen-a", "q8")]
    return scores, similarities, exclusions


class TestAggregate:
    def test_cell_grid_and_order(self):
        scores, similarities, exclusions = build_inputs()
        cells = aggregate(scores, similarities, exclusions)
        heads = [(c.language, c.generator_model, c.level) for c in cells]
        assert heads == [
            ("en", "baseline", "noexp"),
            ("en", "gen-a", 0),
            ("en", "gen-a", 10),
            ("en", "gen-b", 0),
            ("en", "gen-b", 10),
            ("fa", "baseline", "noexp"),
            ("fa", "gen-a", 0),
            ("fa", "gen-a", 10),
            ("fa", "gen-b", 0),
            ("fa", "gen-b", 10),
        ]

    def test_cell_values(self):
        scores, similarities, exclusions = build_inputs()
        cells = {
            (c.language, c.generator_model, c.level): c
            for c in aggregate(scores, similarities, exclusions)
        }
        baseline = cells[("en", "baseline", "noexp")]
        assert baseline.n_items == 4
        assert baseline.accuracy == pytest.approx(0.5)
        assert baseline.mean_sufficiency == 0.25
        assert baseline.mean_similarity is None
        assert baseline.n_excluded == 0

        gen_a_10 = cells[("en", "gen-a", 10)]
        assert gen_a_10.n_items == 4
        assert gen_a_10.accuracy == pytest.approx(0.25)
        assert gen_a_10.mean_similarity == pytest.approx(0.8 - 1.5 * 0.123)
        assert gen_a_10.n_excluded == 2

        gen_a_0 = cells[("en", "gen-a", 0)]
        assert gen_a_0.mean_similarity is None
        assert gen_a_0.n_excluded == 2

        gen_b_10 = cells[("en", "gen-b", 10)]
        assert gen_b_10.mean_similarity is None
        assert gen_b_10.n_excluded == 0

    def test_excluded_item_rows_dropped(self):
        scores, similarities, _ = build_inputs()
        full = {
            (c.language, c.generator_model, c.level): c
            for c in aggregate(scores, similarities)
        }
        cells = {
            (c.language, c.generator_model, c.level): c
            for c in aggregate(scores, similarities, [("en", "gen-a", "q3")])
        }
        for level in (0, 10):
            cell = cells[("en", "gen-a", level)]
            assert (cell.n_items, cell.n_excluded) == (3, 1)
        kept = [0.8 - i * 0.123 for i in range(3)]
        assert cells[("en", "gen-a", 10)].mean_similarity == sum(sorted(kept)) / 3
        for key, cell in cells.items():
            if key[:2] != ("en", "gen-a"):
                assert cell == full[key]

    def test_permutation_invariant(self):
        scores, similarities, exclusions = build_inputs()
        expected = aggregate(scores, similarities, exclusions)
        rng = random.Random(3)
        for _ in range(3):
            shuffled_scores = scores[:]
            shuffled_sims = similarities[:]
            rng.shuffle(shuffled_scores)
            rng.shuffle(shuffled_sims)
            assert aggregate(shuffled_scores, shuffled_sims, exclusions) == expected

    def test_cells_carry_run_id(self, tmp_path):
        # Cells hold no run id themselves; the store that writes them stamps
        # its own id on every row and reads the same cells back.
        scores, similarities, exclusions = build_inputs()
        cells = aggregate(scores, similarities, exclusions)
        store = RunStore.create(tmp_path, RunManifest.new("run-x", {"seed": 1}))
        store.write_aggregates(cells)
        with open(tmp_path / AGGREGATES, encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header[0] == "run_id"
        assert len(rows) == len(cells)
        assert {row[0] for row in rows} == {"run-x"}
        assert RunStore.load(tmp_path).load_aggregates() == tuple(cells)


class TestHeatmap:
    def cells(self):
        similarities = [
            SimilarityRecord("q1", "en", "gen-a", 10, 1.0),
            SimilarityRecord("q2", "en", "gen-a", 10, 0.5),
            SimilarityRecord("q1", "en", "gen-b", 90, 0.0),
        ]
        scores = [baseline_row("q1"), score_row("q1", model="gen-a", level=0)] + [
            score_row(r.item_id, model=r.generator_model, level=r.level) for r in similarities
        ]
        return aggregate(scores, similarities)

    def test_matrix_shape(self):
        matrix = heatmap_matrix(self.cells())
        assert matrix.models == ("gen-a", "gen-b")
        assert matrix.levels == (10, 20, 30, 40, 50, 60, 70, 80, 90)
        assert matrix.values[0][0] == pytest.approx(0.75)
        assert matrix.values[0][1] is None
        assert matrix.values[1][8] == 0.0

    def test_svg_cells_and_labels(self):
        matrix = heatmap_matrix(self.cells())
        svg = render_heatmap_svg(matrix, title="similarity")
        assert svg.startswith("<svg")
        assert svg.count("<rect") == 2  # one per non-missing cell
        assert "gen-a" in svg and "gen-b" in svg
        assert "similarity" in svg

    def test_svg_grayscale_mapping(self):
        matrix = HeatmapMatrix(
            models=("m",), levels=(10, 20), values=((1.0, 0.0),)
        )
        svg = render_heatmap_svg(matrix)
        assert 'fill="rgb(0,0,0)"' in svg  # most similar renders darkest
        assert 'fill="rgb(255,255,255)"' in svg
