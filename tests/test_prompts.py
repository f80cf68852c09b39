from __future__ import annotations

import pytest

from suffbench.constrainer import make_explanation
from suffbench.masker import MaskReport, mask_explanation
from suffbench.prompts import (
    ANSWER_SUFFIX,
    DEFAULT_TEMPLATE_ID,
    PromptError,
    PromptTemplateSet,
    RenderedPrompt,
    TemplateError,
    UnmaskedExplanationError,
    default_template_root,
    format_options,
    load_template_set,
    render_constrain,
    render_generation,
    render_scoring,
)

EN = load_template_set(DEFAULT_TEMPLATE_ID, "en")
FA = load_template_set(DEFAULT_TEMPLATE_ID, "fa")


def masked_explanation(item, text: str):
    return mask_explanation(make_explanation(item.id, item.language, "gen-1", 10, text), item)


class TestLoading:
    def test_default_set_ships_both_languages(self):
        for templates in (EN, FA):
            assert templates.template_id == DEFAULT_TEMPLATE_ID
            assert templates.scoring_template.endswith(ANSWER_SUFFIX)
            assert templates.baseline_template.endswith(ANSWER_SUFFIX)

    def test_trailing_space_survives_loading(self):
        # files end with a newline; only the newline may be stripped
        raw = (default_template_root() / DEFAULT_TEMPLATE_ID / "score_en.txt").read_text(
            encoding="utf-8"
        )
        assert raw.endswith(ANSWER_SUFFIX + "\n")
        assert EN.scoring_template.endswith(ANSWER_SUFFIX)

    def test_unknown_template_id(self):
        with pytest.raises(TemplateError, match="unknown template id"):
            load_template_set("no-such-set", "en")

    def test_missing_file(self, tmp_path):
        set_dir = tmp_path / "half-set"
        set_dir.mkdir()
        (set_dir / "generate_en.txt").write_text("{stem} {options}", encoding="utf-8")
        with pytest.raises(TemplateError, match="missing template file"):
            load_template_set("half-set", "en", root=tmp_path)

    def test_missing_placeholder_rejected(self):
        with pytest.raises(TemplateError, match="missing \\['options'\\]"):
            PromptTemplateSet(
                template_id="t", language="en",
                generation_template="{stem}",
                constrain_template="{stem} {options} {base_explanation} {word_budget}",
                scoring_template="{stem} {explanation} {options} " + ANSWER_SUFFIX,
                baseline_template="{stem} {options} " + ANSWER_SUFFIX,
            )

    def test_unexpected_placeholder_rejected(self):
        with pytest.raises(TemplateError, match="unexpected \\['gold'\\]"):
            PromptTemplateSet(
                template_id="t", language="en",
                generation_template="{stem} {options} {gold}",
                constrain_template="{stem} {options} {base_explanation} {word_budget}",
                scoring_template="{stem} {explanation} {options} " + ANSWER_SUFFIX,
                baseline_template="{stem} {options} " + ANSWER_SUFFIX,
            )

    def test_positional_placeholder_rejected(self):
        with pytest.raises(TemplateError, match="positional"):
            PromptTemplateSet(
                template_id="t", language="en",
                generation_template="{} {stem} {options}",
                constrain_template="{stem} {options} {base_explanation} {word_budget}",
                scoring_template="{stem} {explanation} {options} " + ANSWER_SUFFIX,
                baseline_template="{stem} {options} " + ANSWER_SUFFIX,
            )

    def test_scoring_template_must_end_with_suffix(self):
        with pytest.raises(TemplateError, match="must end with"):
            PromptTemplateSet(
                template_id="t", language="en",
                generation_template="{stem} {options}",
                constrain_template="{stem} {options} {base_explanation} {word_budget}",
                scoring_template="{stem} {explanation} {options}",
                baseline_template="{stem} {options} " + ANSWER_SUFFIX,
            )


class TestRendering:
    def test_generation_prompt_embeds_stem_and_options(self, en_corpus):
        item = en_corpus.items[0]
        prompt = render_generation(item, EN)
        assert prompt.kind == "generate"
        assert item.stem in prompt.text
        assert "A) oxygen" in prompt.text
        assert "D) helium" in prompt.text

    def test_options_block_in_label_order(self, en_corpus):
        block = format_options(en_corpus.items[0])
        assert block.splitlines() == [
            "A) oxygen", "B) carbon dioxide", "C) nitrogen", "D) helium",
        ]

    def test_constrain_prompt_embeds_base_and_budget(self, en_corpus):
        item = en_corpus.items[0]
        base = make_explanation(item.id, "en", "gen-1", 0, "Plants take in this gas for photosynthesis.")
        prompt = render_constrain(item, base, 7, EN)
        assert base.text in prompt.text
        assert "at most 7 words" in prompt.text

    def test_language_mismatch_rejected(self, fa_corpus):
        with pytest.raises(PromptError, match="templates are 'en'"):
            render_generation(fa_corpus.items[0], EN)

    def test_persian_constrain_prompt_carries_budget(self, fa_corpus):
        item = fa_corpus.items[0]
        base = make_explanation(item.id, "fa", "gen-1", 0, "گیاهان برای فتوسنتز به این گاز نیاز دارند.")
        prompt = render_constrain(item, base, 4, FA)
        assert "حداکثر 4 کلمه" in prompt.text


class TestScoringRender:
    def test_baseline_prompt(self, en_corpus):
        item = en_corpus.items[0]
        prompt = render_scoring(item, None, EN)
        assert prompt.kind == "baseline"
        assert prompt.text.endswith(ANSWER_SUFFIX)
        assert "Explanation" not in prompt.text

    def test_masked_explanation_accepted(self, en_corpus):
        item = en_corpus.items[0]
        masked = masked_explanation(item, "This gas feeds photosynthesis.")
        prompt = render_scoring(item, masked, EN)
        assert prompt.kind == "score"
        assert prompt.text.endswith(ANSWER_SUFFIX)
        assert masked.masked_text in prompt.text

    def test_leaky_explanation_rejected_even_if_marked_masked(self, en_corpus):
        # a mask report read back from a hand-edited store still leaks
        item = en_corpus.items[0]
        leaky = MaskReport(
            item_id=item.id, language="en", generator_model="gen-1", level=10,
            label_hits=0, text_hits=0, masked_text="The answer is B here.",
        )
        with pytest.raises(UnmaskedExplanationError, match="still leaks"):
            render_scoring(item, leaky, EN)

    def test_mask_of_another_item_rejected(self, en_corpus):
        item, other = en_corpus.items[0], en_corpus.items[1]
        with pytest.raises(PromptError, match="does not belong"):
            render_scoring(item, masked_explanation(other, "Some words."), EN)

    def test_persian_scoring_prompt_keeps_latin_suffix(self, fa_corpus):
        item = fa_corpus.items[0]
        masked = masked_explanation(item, "این گاز برای فتوسنتز لازم است.")
        prompt = render_scoring(item, masked, FA)
        assert prompt.text.endswith(ANSWER_SUFFIX)
        assert "A) اکسیژن" in prompt.text


class TestRenderedPrompt:
    def test_scoring_kind_enforces_suffix(self):
        with pytest.raises(PromptError, match="must end with"):
            RenderedPrompt("score", "no suffix here")

    def test_unknown_kind_rejected(self):
        with pytest.raises(PromptError, match="unknown prompt kind"):
            RenderedPrompt("translate", "text")
