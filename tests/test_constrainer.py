from __future__ import annotations

import json
import unicodedata
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from suffbench.constrainer import (
    ALL_LEVELS,
    CONSTRAINT_LEVELS,
    EmptyRegeneration,
    Explanation,
    ExplanationError,
    UnparseableOutput,
    constrain_explanation,
    count_words,
    extract_answer_and_explanation,
    make_explanation,
    word_budget,
)
from suffbench.gateway import Gateway, GenerationResult, ModelEndpoint
from suffbench.prompts import DEFAULT_TEMPLATE_ID, load_template_set
from suffbench.runstore import RunManifest, RunStore

FIXTURES = Path(__file__).parent / "fixtures"


def base_explanation(text: str, **kw) -> Explanation:
    return make_explanation("q0001", "en", "gen-1", 0, text, **kw)


class TestCountWords:
    @pytest.mark.parametrize(
        ("text", "expected"),
        [
            ("", 0),
            ("   \t\n ", 0),
            ("hello", 1),
            ("hello world", 2),
            ("hello   world", 2),
            ("one\ntwo\tthree", 3),
            ("گیاهان به نور نیاز دارند", 5),
            ("نور خورشید گرم است.", 4),
        ],
    )
    def test_whitespace_runs(self, text, expected):
        assert count_words(text) == expected

    def test_same_rule_for_both_languages(self):
        text = "چرخه آب با تبخیر آغاز می‌شود"
        assert count_words(text) == 6

    def test_normalization_insensitive(self):
        nfd = unicodedata.normalize("NFD", "café au lait")
        assert count_words(nfd) == 3

    @given(st.lists(st.text(alphabet="abcآب", min_size=1), min_size=0, max_size=20))
    def test_matches_word_list_length(self, words):
        text = " ".join(words)
        assert count_words(text) == len(unicodedata.normalize("NFC", text).split())


class TestBudgets:
    def test_fifty_word_base_at_level_20_allows_40(self):
        base = base_explanation(" ".join(["w"] * 50))
        assert word_budget(base, 20) == 40

    def test_twenty_word_base_at_level_90_allows_2(self):
        # float arithmetic would floor 1.9999... down to 1
        base = base_explanation(" ".join(["w"] * 20))
        assert word_budget(base, 90) == 2

    def test_budget_never_below_one(self):
        base = base_explanation("single")
        assert all(word_budget(base, level) == 1 for level in CONSTRAINT_LEVELS)

    def test_rejects_levels_outside_the_domain(self):
        base = base_explanation(" ".join(["w"] * 33))
        for level in (0, 15, 100):
            with pytest.raises(ExplanationError, match="not in"):
                word_budget(base, level)

    def test_rejects_constrained_base(self):
        constrained = make_explanation("q0001", "en", "gen-1", 10, "short text")
        with pytest.raises(ExplanationError, match="level-0"):
            word_budget(constrained, 20)

    def test_rejects_empty_base(self):
        with pytest.raises(ExplanationError, match="at least one word"):
            word_budget(base_explanation(""), 10)

    @given(wc=st.integers(min_value=1, max_value=2000))
    def test_matches_exact_fraction_oracle(self, wc):
        base = base_explanation(" ".join(["w"] * wc))
        for level in CONSTRAINT_LEVELS:
            exact = Fraction(100 - level, 100) * wc
            assert word_budget(base, level) == max(1, exact.numerator // exact.denominator)

    @given(wc=st.integers(min_value=1, max_value=2000))
    def test_non_increasing_and_positive(self, wc):
        base = base_explanation(" ".join(["w"] * wc))
        values = [word_budget(base, level) for level in CONSTRAINT_LEVELS]
        assert all(b >= 1 for b in values)
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestExplanation:
    def test_word_count_must_match_text(self):
        with pytest.raises(ExplanationError, match="word_count"):
            Explanation(
                item_id="q0001", language="en", generator_model="g", level=0,
                text="two words", word_count=3,
            )

    def test_level_zero_cannot_be_truncated(self):
        with pytest.raises(ExplanationError, match="unconstrained"):
            make_explanation("q0001", "en", "g", 0, "text", length_status="truncated")

    def test_level_domain(self):
        with pytest.raises(ExplanationError, match="level"):
            make_explanation("q0001", "en", "g", 15, "text")
        assert ALL_LEVELS == (0, 10, 20, 30, 40, 50, 60, 70, 80, 90)

    def test_make_explanation_normalizes_nfc(self):
        nfd = unicodedata.normalize("NFD", "café")
        exp = make_explanation("q0001", "en", "g", 0, nfd)
        assert exp.text == "café"
        assert exp.word_count == 1


class TestExtractAnswerAndExplanation:
    def test_golden_cases(self):
        cases = json.loads((FIXTURES / "messy_outputs.json").read_text(encoding="utf-8"))["cases"]
        assert len(cases) == 5
        for case in cases:
            if case["answer"] is None:
                with pytest.raises(UnparseableOutput):
                    extract_answer_and_explanation(case["raw"])
            else:
                answer, explanation = extract_answer_and_explanation(case["raw"])
                assert answer == case["answer"], case["name"]
                assert explanation == case["explanation"], case["name"]

    def test_blank_line_between_sections_tolerated(self):
        answer, explanation = extract_answer_and_explanation("Answer: D\n\nExplanation: fine")
        assert (answer, explanation) == ("D", "fine")

    def test_lowercase_letter_rejected(self):
        # case tolerance applies to the keywords, not the label
        with pytest.raises(UnparseableOutput, match="outside A-D"):
            extract_answer_and_explanation("Answer: b\nExplanation: nope")

    def test_empty_explanation_rejected(self):
        with pytest.raises(UnparseableOutput, match="empty explanation"):
            extract_answer_and_explanation("Answer: A\nExplanation:   ")

    def test_empty_output_rejected(self):
        with pytest.raises(UnparseableOutput, match="empty generator output"):
            extract_answer_and_explanation("   \n  ")


class ScriptedGateway:
    """Returns canned generation texts in order, recording cache salts. A
    text given as a (text, finish_reason) pair ends with that reason,
    any other with "stop"."""

    def __init__(self, texts):
        self.texts = [t if isinstance(t, tuple) else (t, "stop") for t in texts]
        self.salts: list[str] = []

    def generate(self, endpoint, prompt, *, temperature=0.0, max_tokens=512, cache_salt=""):
        self.salts.append(cache_salt)
        text, finish_reason = self.texts.pop(0)
        return GenerationResult(text=text, finish_reason=finish_reason)


class TestConstrainExplanation:
    ENDPOINT = ModelEndpoint(base_url="mock://7", model_id="mock-gen")
    TEMPLATES = load_template_set(DEFAULT_TEMPLATE_ID, "en")

    def base(self, words: int = 20) -> Explanation:
        return base_explanation(" ".join(f"w{i}" for i in range(words)))

    def item(self, en_corpus):
        return en_corpus["q0001"]

    def test_mock_generator_meets_budget_first_try(self, en_corpus):
        result = constrain_explanation(
            self.item(en_corpus), self.base(20), 50, self.ENDPOINT, self.TEMPLATES, Gateway()
        )
        assert result.level == 50
        assert result.word_count == 10
        assert result.length_status == "within_budget"
        assert result.generator_model == "mock-gen"

    def test_level_90_of_twenty_words_gets_two(self, en_corpus):
        result = constrain_explanation(
            self.item(en_corpus), self.base(20), 90, self.ENDPOINT, self.TEMPLATES, Gateway()
        )
        assert result.word_count == 2

    def test_deterministic_across_gateways(self, en_corpus):
        first = constrain_explanation(
            self.item(en_corpus), self.base(20), 30, self.ENDPOINT, self.TEMPLATES, Gateway()
        )
        second = constrain_explanation(
            self.item(en_corpus), self.base(20), 30, self.ENDPOINT, self.TEMPLATES, Gateway()
        )
        assert first.text == second.text

    def test_retry_salts_then_truncation(self, en_corpus):
        over = " ".join(["over"] * 30)
        gateway = ScriptedGateway([over, over, over, over])
        result = constrain_explanation(
            self.item(en_corpus), self.base(20), 50, self.ENDPOINT, self.TEMPLATES, gateway
        )
        assert gateway.salts == ["", "retry-1", "retry-2", "retry-3"]
        assert result.length_status == "truncated"
        assert result.word_count == 10
        assert result.text == " ".join(["over"] * 10)

    def test_retry_succeeds_midway(self, en_corpus):
        gateway = ScriptedGateway([" ".join(["x"] * 30), "short enough now"])
        result = constrain_explanation(
            self.item(en_corpus), self.base(20), 50, self.ENDPOINT, self.TEMPLATES, gateway
        )
        assert gateway.salts == ["", "retry-1"]
        assert result.length_status == "within_budget"
        assert result.text == "short enough now"

    def test_explanation_keyword_echo_stripped(self, en_corpus):
        gateway = ScriptedGateway(["Explanation: brief and clear"])
        result = constrain_explanation(
            self.item(en_corpus), self.base(20), 50, self.ENDPOINT, self.TEMPLATES, gateway
        )
        assert result.text == "brief and clear"

    def test_carriage_returns_stored_as_newlines(self, en_corpus, tmp_path):
        gateway = ScriptedGateway(["Plants need light.\rThey grow.\r\nFast."])
        result = constrain_explanation(
            self.item(en_corpus), self.base(20), 50, self.ENDPOINT, self.TEMPLATES, gateway
        )
        assert result.text == "Plants need light.\nThey grow.\nFast."
        manifest = RunManifest.new("run-cr", {"seed": 1})
        with RunStore.create(tmp_path, manifest) as store:
            assert store.append_explanation(result)
        assert RunStore.open_resume(tmp_path, manifest).load_explanations() == (result,)

    def test_all_empty_attempts_raise(self, en_corpus):
        gateway = ScriptedGateway(["  ", " ", "  ", " "])
        with pytest.raises(EmptyRegeneration, match="after 4 attempts"):
            constrain_explanation(
                self.item(en_corpus), self.base(20), 50, self.ENDPOINT, self.TEMPLATES, gateway
            )

    def test_cut_off_attempt_is_retried(self, en_corpus):
        # within budget, but cut off at max_tokens: not a usable rewrite
        gateway = ScriptedGateway([("Plants take in", "length"), "short enough now"])
        result = constrain_explanation(
            self.item(en_corpus), self.base(20), 50, self.ENDPOINT, self.TEMPLATES, gateway
        )
        assert gateway.salts == ["", "retry-1"]
        assert result.length_status == "within_budget"
        assert result.text == "short enough now"

    def test_all_cut_off_attempts_raise(self, en_corpus):
        gateway = ScriptedGateway([("Plants take in", "length")] * 4)
        with pytest.raises(EmptyRegeneration, match="after 4 attempts"):
            constrain_explanation(
                self.item(en_corpus), self.base(20), 50, self.ENDPOINT, self.TEMPLATES, gateway
            )
        assert gateway.salts == ["", "retry-1", "retry-2", "retry-3"]

    def test_over_budget_text_outlives_later_unusable_attempts(self, en_corpus):
        over = " ".join(["over"] * 30)
        gateway = ScriptedGateway([over, ("Plants take in", "length"), " ", ("cut", "length")])
        result = constrain_explanation(
            self.item(en_corpus), self.base(20), 50, self.ENDPOINT, self.TEMPLATES, gateway
        )
        assert result.length_status == "truncated"
        assert result.text == " ".join(["over"] * 10)

    def test_level_domain_enforced(self, en_corpus):
        with pytest.raises(ExplanationError, match="level"):
            constrain_explanation(
                self.item(en_corpus), self.base(20), 0, self.ENDPOINT, self.TEMPLATES, Gateway()
            )
