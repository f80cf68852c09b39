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
    OPTIONS = {"A": "amber quartz", "B": "basalt", "C": "chalk dust", "D": "dolomite"}
    WORDS = ("amber", "basalt", "chalk", "dolomite")

    def item(self, item_id: str = "c1") -> QuestionItem:
        # a fresh item per test: each keeps its own compiled patterns
        return QuestionItem(
            id=item_id, stem="s?", options=dict(self.OPTIONS), gold="A", language="en",
        )

    @pytest.fixture
    def compiled(self, monkeypatch):
        compiled = []
        real = re.compile

        def spy(pattern, flags=0):
            if any(word in str(pattern) for word in self.WORDS):
                compiled.append(pattern)
            return real(pattern, flags)

        monkeypatch.setattr(re, "compile", spy)
        return compiled

    def test_mask_and_verify_of_one_item_compile_its_patterns_once(self, compiled):
        # a text that copies an option compiles the copy pattern and then the
        # four patterns that give its spans, each once over every mask and verify
        item = self.item()
        reports = [
            mask_explanation(
                make_explanation("c1", "en", "g", level, f"Amber  quartz, not basalt, at {level}."),
                item,
            )
            for level in range(0, 100, 10)
        ]
        assert all(r.masked_text.startswith("[MASK], not [MASK]") for r in reports)
        assert all(verify_masked(r.masked_text, item) for r in reports)
        assert len(compiled) == len(set(compiled)) == 5
        assert compiled[0] == item.copy_pattern.pattern
        assert compiled[1:] == [p.pattern for p in item.option_patterns]

    def test_an_item_whose_texts_copy_no_option_compiles_one_pattern(self, compiled):
        item = self.item()
        reports = [
            mask_explanation(
                make_explanation("c1", "en", "g", level, f"Option B, not amber, at {level}."),
                item,
            )
            for level in range(0, 100, 10)
        ]
        assert all(r.text_hits == 0 and r.label_hits == 1 for r in reports)
        assert all(verify_masked(r.masked_text, item) for r in reports)
        assert compiled == [item.copy_pattern.pattern]

    def test_verifying_stored_texts_compiles_one_pattern_per_item(self, compiled):
        # a resumed score stage masks nothing: it only checks stored texts,
        # leaks among them, with each item's copy pattern alone
        items = [self.item("c1"), self.item("c2")]
        for item in items:
            for text in ("It is [MASK].", "Not [MASK] but chalk.", "It is chalk  dust."):
                verify_masked(text, item)
        assert not verify_masked("It is chalk  dust.", items[0])
        assert compiled == [item.copy_pattern.pattern for item in items]
        assert compiled[0] == compiled[1]

    def test_tampered_stored_row_still_fails_the_leak_check(self):
        templates = load_template_set("default-v1", "en")
        item = self.item()
        report = mask_explanation(make_explanation("c1", "en", "g", 10, "It is chalk dust."), item)
        assert render_scoring(item, report, templates).kind == "score"
        # as read back from a masks.csv row edited after masking
        for leak in ("It is chalk  dust.", "It is (C)."):
            tampered = replace(report, masked_text=leak)
            with pytest.raises(UnmaskedExplanationError, match="still leaks"):
                render_scoring(item, tampered, templates)


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


# The copy pattern must find a copy exactly where one of the four option
# patterns does, and masking through it must claim the spans it claimed
# when it searched the four patterns alone. Options and texts are built
# from words that stress the alternation: options nested in one another,
# single letters, Persian words, and letters that IGNORECASE folds across
# scripts (long s, dotless i, dotted capital I, the Kelvin sign).
COPY_WORDS = [
    "heat", "energy", "sun", "sunset", "set", "light", "is", "k", "s", "i",
    "\u017fun", "l\u0131ght", "\u0130ron", "\u212aelvin", "kelvin", "iron",
    "نور", "خورشید", "گرما", "انرژی",
]
PHRASE = st.lists(st.sampled_from(COPY_WORDS), min_size=1, max_size=3).map(" ".join)
CASES = st.sampled_from([str, str.upper, str.lower, str.title, str.swapcase, str.casefold])
SPACES = st.sampled_from([" ", "  ", "\t", "\n", " \n ", "\u00a0", "\u2009"])
EDGES = st.sampled_from(["", "", " ", "x", "_", "1", "ا", ".", ",", "(", ")", "-", "'", "\n"])


@st.composite
def nested_options(draw) -> dict[str, str]:
    base, extra = draw(PHRASE), draw(PHRASE)
    # another option equal to it, or with it as prefix, suffix or infix
    nested = draw(st.sampled_from(
        [base, f"{base} {extra}", f"{extra} {base}", f"{extra} {base} {extra}"]
    ))
    others = draw(st.lists(PHRASE, min_size=2, max_size=2))
    return dict(zip("ABCD", draw(st.permutations([base, nested, *others]))))


@st.composite
def copy_texts(draw, options: dict[str, str]) -> str:
    pieces = draw(st.lists(
        st.one_of(st.sampled_from(list(options.values())), st.sampled_from(COPY_WORDS)),
        max_size=6,
    ))
    out = []
    for piece in pieces:
        piece = " ".join(draw(CASES)(word) for word in piece.split(" "))
        piece = re.sub(" ", lambda _: draw(SPACES), piece)
        out.append(draw(EDGES) + piece)
    return "".join(out) + draw(EDGES)


def reference_option_spans(text: str, options: dict[str, str]) -> list[tuple[int, int]]:
    # the option spans as masking found them with the four patterns alone
    claimed: list[tuple[int, int]] = []
    for option in sorted(options.values(), key=lambda o: -len(" ".join(o.split()))):
        body = r"\s+".join(re.escape(w) for w in option.split())
        for m in re.finditer(r"(?<!\w)" + body + r"(?!\w)", text, re.IGNORECASE):
            start, end = m.span()
            if not any(s < end and start < e for s, e in claimed):
                claimed.append((start, end))
    return sorted(claimed)


@given(st.data(), st.sampled_from(["en", "fa"]))
def test_the_copy_pattern_finds_a_copy_exactly_where_the_four_patterns_do(data, language):
    options = data.draw(nested_options(), label="options")
    text = data.draw(copy_texts(options), label="text")
    item = QuestionItem(id="p1", stem="stem?", options=options, gold="A", language=language)
    assert (item.copy_pattern.search(text) is not None) == any(
        pattern.search(text) for pattern in item.option_patterns
    )
    exp = make_explanation("p1", language, "gen-1", 0, text)
    text_spans = reference_option_spans(exp.text, options)
    partially = masker._splice(exp.text, text_spans)
    label_spans = masker._label_spans(partially)
    assert mask_explanation(exp, item) == masker.MaskReport(
        item_id="p1", language=language, generator_model="gen-1", level=0,
        label_hits=len(label_spans), text_hits=len(text_spans),
        masked_text=masker._splice(partially, label_spans),
    )
