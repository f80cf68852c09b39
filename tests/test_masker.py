from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from suffbench import masker
from suffbench.constrainer import make_explanation
from suffbench.corpus import Corpus, QuestionItem
from suffbench.masker import (
    MASK_TOKEN,
    MASKING_RULES_VERSION,
    MaskingError,
    mask_explanation,
    verify_masked,
)
from suffbench.prompts import UnmaskedExplanationError, load_template_set, render_scoring

FIXTURES = Path(__file__).parent / "fixtures"

GOLDEN = json.loads((FIXTURES / "masking_golden.json").read_text(encoding="utf-8"))


def item_for(case: dict) -> QuestionItem:
    return QuestionItem(
        id="g1",
        stem="stem?",
        options=dict(case["options"]),
        gold="A",
        language=case["language"],
    )


def raw_explanation(case: dict):
    return make_explanation("g1", case["language"], "gen-1", 0, case["text"])


class TestGoldenCases:
    def test_fixture_shape(self):
        assert GOLDEN["version"] == MASKING_RULES_VERSION
        assert len(GOLDEN["cases"]) == 12
        languages = {c["language"] for c in GOLDEN["cases"]}
        assert languages == {"en", "fa"}

    @pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: c["name"])
    def test_masked_text_and_counts(self, case):
        report = mask_explanation(raw_explanation(case), item_for(case))
        assert report.masked_text == case["masked"]
        assert report.label_hits == case["label_hits"]
        assert report.text_hits == case["text_hits"]

    @pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: c["name"])
    def test_verify_flags_input(self, case):
        assert verify_masked(case["text"], item_for(case)) is case["input_leak_free"]

    @pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: c["name"])
    def test_masked_output_is_leak_free(self, case):
        report = mask_explanation(raw_explanation(case), item_for(case))
        assert verify_masked(report.masked_text, item_for(case))

    @pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: c["name"])
    def test_idempotent(self, case):
        report = mask_explanation(raw_explanation(case), item_for(case))
        again = mask_explanation(
            make_explanation("g1", case["language"], "gen-1", 0, report.masked_text),
            item_for(case),
        )
        assert again.masked_text == report.masked_text
        assert again.label_hits == 0 and again.text_hits == 0

    @pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: c["name"])
    def test_mask_count_equals_hits(self, case):
        report = mask_explanation(raw_explanation(case), item_for(case))
        introduced = report.masked_text.count(MASK_TOKEN) - case["text"].count(MASK_TOKEN)
        assert introduced == report.label_hits + report.text_hits

    @pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: c["name"])
    def test_conservation_outside_replacements(self, case):
        # leak-free inputs must come back byte-identical
        report = mask_explanation(raw_explanation(case), item_for(case))
        if report.label_hits == report.text_hits == 0:
            assert report.masked_text == case["text"]


class TestRules:
    ITEM = QuestionItem(
        id="x1", stem="s?",
        options={"A": "heat", "B": "heat energy", "C": "cold", "D": "wind chill"},
        gold="A", language="en",
    )

    def exp(self, text: str):
        return make_explanation("x1", "en", "g", 0, text)

    def test_longest_option_wins_overlap(self):
        report = mask_explanation(self.exp("Because heat energy flows."), self.ITEM)
        assert report.masked_text == "Because [MASK] flows."
        assert report.text_hits == 1

    def test_equal_length_overlap_goes_to_the_earlier_label(self):
        item = QuestionItem(
            id="x1", stem="s?",
            options={"A": "sun set", "B": "red sun", "C": "cold", "D": "wind"},
            gold="A", language="en",
        )
        report = mask_explanation(self.exp("The red sun set."), item)
        assert report.masked_text == "The red [MASK]."
        assert report.text_hits == 1

    def test_option_keyword_form(self):
        report = mask_explanation(self.exp("Thus option D fits."), self.ITEM)
        assert report.masked_text == "Thus option [MASK] fits."
        assert report.label_hits == 1

    def test_partial_option_copy_not_masked(self):
        # "wind" alone is not the full option text "wind chill"
        report = mask_explanation(self.exp("The wind blows."), self.ITEM)
        assert report.masked_text == "The wind blows."
        assert report.text_hits == 0

    def test_substring_inside_word_not_masked(self):
        report = mask_explanation(self.exp("Reheating is colder."), self.ITEM)
        assert report.masked_text == "Reheating is colder."

    def test_persian_answer_keyword(self):
        item = QuestionItem(
            id="x1", stem="s?",
            options={"A": "آب", "B": "نور", "C": "خاک", "D": "هوا"},
            gold="A", language="fa",
        )
        exp = make_explanation("x1", "fa", "g", 0, "پاسخ A درست است.")
        report = mask_explanation(exp, item)
        assert report.masked_text == "پاسخ [MASK] درست است."
        assert report.label_hits == 1

    def test_wrong_item_rejected(self):
        other = QuestionItem(
            id="x2", stem="s?", options=dict(self.ITEM.options), gold="A", language="en",
        )
        with pytest.raises(MaskingError, match="does not belong"):
            mask_explanation(self.exp("text"), other)

    def test_mask_token_is_exactly_six_chars(self):
        assert MASK_TOKEN == "[MASK]"
        assert len(MASK_TOKEN) == 6


class TestCompiledOnce:
    # option texts no other test uses, so no earlier call has compiled them
    ITEM = QuestionItem(
        id="c1", stem="s?",
        options={"A": "amber quartz", "B": "basalt", "C": "chalk dust", "D": "dolomite"},
        gold="A", language="en",
    )
    WORDS = ("amber", "basalt", "chalk", "dolomite")

    def test_mask_and_verify_of_one_item_compile_its_patterns_once(self, monkeypatch):
        compiled = []
        real = re.compile

        def spy(pattern, flags=0):
            if any(word in str(pattern) for word in self.WORDS):
                compiled.append(pattern)
            return real(pattern, flags)

        monkeypatch.setattr(re, "compile", spy)
        reports = [
            mask_explanation(
                make_explanation("c1", "en", "g", level, f"Amber  quartz, not basalt, at {level}."),
                self.ITEM,
            )
            for level in range(0, 100, 10)
        ]
        assert all(r.masked_text.startswith("[MASK], not [MASK]") for r in reports)
        assert all(verify_masked(r.masked_text, self.ITEM) for r in reports)
        assert len(compiled) == 4

    def test_tampered_stored_row_still_fails_the_leak_check(self):
        templates = load_template_set("default-v1", "en")
        report = mask_explanation(
            make_explanation("c1", "en", "g", 10, "It is chalk dust."), self.ITEM
        )
        assert render_scoring(self.ITEM, report, templates).kind == "score"
        # as read back from a masks.csv row edited after masking
        for leak in ("It is chalk  dust.", "It is (C)."):
            tampered = replace(report, masked_text=leak)
            with pytest.raises(UnmaskedExplanationError, match="still leaks"):
                render_scoring(self.ITEM, tampered, templates)


LEAK_SNIPPETS = st.sampled_from(
    ["answer is B", "(C)", "option D", "A.", "choice a", "heat energy", "cold"]
)
CLEAN_SNIPPETS = st.sampled_from(
    ["the", "warm", "flows", "because", "energy", "moves", "quickly", "گرما"]
)


class TestProperties:
    ITEM = TestRules.ITEM

    @given(st.lists(st.one_of(LEAK_SNIPPETS, CLEAN_SNIPPETS), min_size=1, max_size=8))
    def test_masking_is_idempotent_and_leak_free(self, pieces):
        text = " ".join(pieces)
        exp = make_explanation("x1", "en", "g", 0, text)
        report = mask_explanation(exp, self.ITEM)
        assert verify_masked(report.masked_text, self.ITEM)
        introduced = report.masked_text.count(MASK_TOKEN) - text.count(MASK_TOKEN)
        assert introduced == report.label_hits + report.text_hits
        again = mask_explanation(
            make_explanation("x1", "en", "g", 0, report.masked_text), self.ITEM
        )
        assert again.masked_text == report.masked_text
        assert again.label_hits == again.text_hits == 0


def test_each_items_patterns_are_compiled_once_past_any_cache_bound(monkeypatch):
    # more items than the 1024 entries the patterns were once cached in: a
    # pass that masks every item's rows, then one that verifies them, as the
    # mask and score stages do, still compiles each item's patterns once
    compiled = []
    real = masker.compile_option_patterns

    def spy(options):
        compiled.append(tuple(options.values()))
        return real(options)

    monkeypatch.setattr(masker, "compile_option_patterns", spy)
    corpus = Corpus("en", tuple(
        QuestionItem(
            id=f"q{i}", stem="stem?", gold="A", language="en",
            options={label: f"{label.lower()} option {i}" for label in "ABCD"},
        )
        for i in range(1100)
    ))
    masked = {}
    for level in (0, 10):
        for item in corpus:
            text = f"Option {item.options['B']} (B) is right."
            report = mask_explanation(make_explanation(item.id, "en", "gen-1", level, text), item)
            masked[item.id, level] = report.masked_text
    assert all(verify_masked(text, corpus[item_id]) for (item_id, _), text in masked.items())
    assert set(masked.values()) == {f"Option {MASK_TOKEN} ({MASK_TOKEN}) is right."}
    assert len(compiled) == len(set(compiled)) == 1100


# texts and options from words that the label and option patterns look for
LEAKY_WORDS = st.sampled_from([
    "A", "B)", "(C)", "D.", "option", "answer is", "choice", "گزینه", "پاسخ", "جواب",
    "light", "energy", "LIGHT ENERGY", "water", "the sun", "a", "is", ".", "\n",
])
LEAKY_TEXT = st.lists(LEAKY_WORDS, max_size=12).map(" ".join)
OPTION_TEXT = st.lists(
    st.sampled_from(["light", "energy", "water", "the", "sun", "is"]), min_size=1, max_size=3
).map(" ".join)


@given(LEAKY_TEXT, st.lists(OPTION_TEXT, min_size=4, max_size=4))
def test_verify_masked_is_the_absence_of_every_span(text, options):
    # verify_masked stops at a first match; it must still say what the
    # full span lists say
    item = QuestionItem(
        id="v1", stem="stem?", options=dict(zip("ABCD", options)), gold="A", language="en",
    )
    assert verify_masked(text, item) == (
        not masker._label_spans(text) and not masker._option_spans(text, item)
    )
