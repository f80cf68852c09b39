from __future__ import annotations

import hashlib
import math
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from suffbench.constrainer import BASELINE_LEVEL, BASELINE_MODEL, make_explanation
from suffbench.gateway import Gateway, MockBackend, ModelEndpoint
from suffbench.masker import mask_explanation
from suffbench.prompts import DEFAULT_TEMPLATE_ID, RenderedPrompt, load_template_set
from suffbench.scorer import (
    ScoreResult,
    ScoringError,
    predict,
    score_item,
    score_options,
    softmax_probs,
)

from tests.conftest import option_logprobs

MOCK_SCORER = ModelEndpoint(base_url="mock://11", model_id="mock-probe")
EN = load_template_set(DEFAULT_TEMPLATE_ID, "en")

# independently computed at 50-digit precision
ORACLE_1234 = {
    "A": 0.6439142598879723,
    "B": 0.23688281808991013,
    "C": 0.08714431874203257,
    "D": 0.03205860328008499,
}
ORACLE_NEAR_CERTAIN_GOLD = 0.9781484098314917
ORACLE_FIXTURE = {
    "A": 0.20747183702798411,
    "B": 0.23509639118319289,
    "C": 0.11821388935391849,
    "D": 0.43921788243490450,
}


class TestSoftmax:
    def test_descending_unit_gaps(self):
        probs = softmax_probs({"A": -1.0, "B": -2.0, "C": -3.0, "D": -4.0})
        for option, expected in ORACLE_1234.items():
            assert probs[option] == pytest.approx(expected, abs=1e-12)

    def test_near_certain_option(self):
        probs = softmax_probs({"A": -0.1, "B": -5.0, "C": -5.0, "D": -5.0})
        assert probs["A"] == pytest.approx(ORACLE_NEAR_CERTAIN_GOLD, abs=1e-12)

    def test_uniform_ties_are_exact_quarters(self):
        probs = softmax_probs({"A": -1.0, "B": -1.0, "C": -1.0, "D": -1.0})
        assert probs == {"A": 0.25, "B": 0.25, "C": 0.25, "D": 0.25}

    def test_huge_negative_inputs_stay_finite(self):
        probs = softmax_probs({"A": -1e9, "B": -1e9 - 1, "C": -1e9 - 2, "D": -1e9 - 3})
        assert all(math.isfinite(p) for p in probs.values())
        # shift invariance: same distribution as (-1,-2,-3,-4)
        for option, expected in ORACLE_1234.items():
            assert probs[option] == pytest.approx(expected, abs=1e-12)

    def test_extreme_spread_underflows_to_zero(self):
        probs = softmax_probs({"A": 0.0, "B": -800.0, "C": -800.0, "D": -800.0})
        assert probs["A"] == pytest.approx(1.0, abs=1e-12)
        assert probs["B"] == 0.0

    def test_missing_option_rejected(self):
        with pytest.raises(ScoringError, match="exactly"):
            softmax_probs({"A": -1.0, "B": -2.0, "C": -3.0})

    @given(
        st.dictionaries(
            keys=st.sampled_from("ABCD"),
            values=st.floats(min_value=-1e6, max_value=0.0, allow_nan=False),
            min_size=4,
        )
    )
    def test_valid_distribution(self, logprobs):
        probs = softmax_probs(logprobs)
        assert abs(sum(probs.values()) - 1.0) < 1e-9
        assert all(0.0 <= p <= 1.0 for p in probs.values())
        ranked = sorted("ABCD", key=logprobs.__getitem__)
        assert all(
            probs[a] <= probs[b] + 1e-15 for a, b in zip(ranked, ranked[1:])
        )


class TestPredict:
    def test_alphabetical_tie_break_full_tie(self):
        assert predict({"A": 0.25, "B": 0.25, "C": 0.25, "D": 0.25}) == "A"

    def test_alphabetical_tie_break_partial_tie(self):
        assert predict({"A": 0.1, "B": 0.4, "C": 0.4, "D": 0.1}) == "B"

    def test_plain_argmax(self):
        assert predict({"A": 0.1, "B": 0.2, "C": 0.3, "D": 0.4}) == "D"


class TestScoreOptions:
    def test_uniform_mock_scorer(self, en_corpus):
        prompt = RenderedPrompt("baseline", "Question: Q?\nThe answer is ")
        probs = score_options(Gateway(), MOCK_SCORER, prompt)
        assert probs == {"A": 0.25, "B": 0.25, "C": 0.25, "D": 0.25}

    def test_http_fixture_distribution(self, server):
        endpoint = ModelEndpoint(
            base_url=server.base_url, model_id="probe-fixture", requests_per_minute=10_000
        )
        prompt = RenderedPrompt("baseline", "Question: Q?\nThe answer is ")
        probs = score_options(Gateway(), endpoint, prompt)
        for option, expected in ORACLE_FIXTURE.items():
            assert probs[option] == pytest.approx(expected, abs=1e-12)
        assert predict(probs) == "D"
        # one teacher-forced request for the four option letters
        [sent] = server.requests
        assert sent["payload"]["prompt"] == [f"Question: Q?\nThe answer is  {o}" for o in "ABCD"]

    def test_mock_scorer_stays_on_the_calling_thread(self, monkeypatch):
        threads = []
        real = MockBackend.score

        def spy(self, *args):
            threads.append(threading.get_ident())
            return real(self, *args)

        monkeypatch.setattr(MockBackend, "score", spy)
        prompt = RenderedPrompt("baseline", "Question: Q?\nThe answer is ")
        score_options(Gateway(), MOCK_SCORER, prompt)
        # one mock call scores the four options
        assert threads == [threading.get_ident()]

    def test_wrong_prompt_kind_rejected(self):
        prompt = RenderedPrompt("generate", "anything")
        with pytest.raises(ScoringError, match="cannot score"):
            score_options(Gateway(), MOCK_SCORER, prompt)


class TestScoreItem:
    def masked(self, item, text):
        raw = make_explanation(item.id, item.language, "gen-1", 10, text)
        return mask_explanation(raw, item)

    def test_baseline_row_shape(self, en_corpus):
        item = en_corpus["q0002"]  # gold A
        result = score_item(Gateway(), MOCK_SCORER, item, None, EN)
        assert result.generator_model == BASELINE_MODEL
        assert result.level == BASELINE_LEVEL
        assert result.option_probs == {"A": 0.25, "B": 0.25, "C": 0.25, "D": 0.25}
        assert result.sufficiency == 0.25
        assert result.predicted == "A"
        assert result.correct is True
        assert result.scorer_model == "mock-probe"

    def test_uniform_scorer_only_right_when_gold_is_a(self, en_corpus):
        item = en_corpus["q0001"]  # gold B
        result = score_item(Gateway(), MOCK_SCORER, item, None, EN)
        assert result.predicted == "A"
        assert result.correct is False
        assert result.sufficiency == 0.25

    def test_explanation_row_carries_level_and_model(self, en_corpus):
        item = en_corpus["q0001"]
        result = score_item(
            Gateway(), MOCK_SCORER, item, self.masked(item, "This gas feeds leaves."), EN
        )
        assert result.generator_model == "gen-1"
        assert result.level == 10
        assert result.item_id == "q0001"
        assert result.language == "en"

    def test_429_retries_only_its_own_request(self, server, en_corpus):
        server.route("/completions", option_logprobs)
        endpoint = ModelEndpoint(
            base_url=server.base_url, model_id="probe-live", requests_per_minute=10_000
        )
        item = en_corpus["q0002"]
        expected = score_item(Gateway(), endpoint, item, None, EN)
        assert len(server.requests) == 1
        del server.requests[:]
        server.script_statuses([429])
        waits = []
        result = score_item(Gateway(sleep=waits.append), endpoint, item, None, EN)
        assert result == expected
        assert result.option_probs == pytest.approx(ORACLE_1234, abs=1e-12)
        assert waits == [Gateway.BACKOFF_BASE]
        # the refused request, then its one retry, each the row's four prompts
        sent = [[prompt[-1] for prompt in r["payload"]["prompt"]] for r in server.requests]
        assert sent == [["A", "B", "C", "D"]] * 2

    def test_prompt_fingerprint_pins_scorer_and_prompt(self, en_corpus):
        from suffbench.prompts import render_scoring

        item = en_corpus["q0001"]
        mask = self.masked(item, "This gas feeds leaves.")
        result = score_item(Gateway(), MOCK_SCORER, item, mask, EN)
        prompt = render_scoring(item, mask, EN)
        expected = hashlib.sha256(f"mock-probe\n{prompt.text}".encode()).hexdigest()
        assert result.prompt_fingerprint == expected


class TestScoreResultValidation:
    def valid_kwargs(self):
        return dict(
            item_id="q0001",
            language="en",
            generator_model="gen-1",
            level=10,
            option_probs={"A": 0.25, "B": 0.25, "C": 0.25, "D": 0.25},
            sufficiency=0.25,
            predicted="A",
            correct=False,
            scorer_model="probe",
            prompt_fingerprint="f" * 64,
        )

    def test_probs_must_sum_to_one(self):
        kwargs = self.valid_kwargs()
        kwargs["option_probs"] = {"A": 0.5, "B": 0.5, "C": 0.5, "D": 0.5}
        with pytest.raises(ScoringError, match="sum to 1"):
            ScoreResult(**kwargs)

    def test_baseline_pairing_enforced(self):
        kwargs = self.valid_kwargs()
        kwargs["level"] = "noexp"
        with pytest.raises(ScoringError, match="baseline"):
            ScoreResult(**kwargs)

    def test_level_domain(self):
        kwargs = self.valid_kwargs()
        kwargs["level"] = 15
        with pytest.raises(ScoringError, match="level"):
            ScoreResult(**kwargs)

    def test_predicted_domain(self):
        kwargs = self.valid_kwargs()
        kwargs["predicted"] = "E"
        with pytest.raises(ScoringError, match="outside A-D"):
            ScoreResult(**kwargs)
