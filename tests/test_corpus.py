from __future__ import annotations

import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from suffbench.corpus import LABELS, Corpus, CorpusError, QuestionItem, load_corpus, subset


class TestLoadCorpus:
    def test_loads_ten_items_in_file_order(self, en_corpus):
        assert len(en_corpus) == 10
        assert [item.id for item in en_corpus] == [f"q{n:04d}" for n in range(1, 11)]
        assert en_corpus.language == "en"

    def test_gold_labels(self, en_corpus):
        golds = [item.gold for item in en_corpus]
        assert golds == ["B", "A", "C", "D", "A", "B", "C", "A", "D", "B"]
        # the uniform-scorer accuracy oracle depends on this fraction
        assert golds.count("A") == 3

    def test_options_keyed_a_through_d_in_order(self, en_corpus):
        for item in en_corpus:
            assert tuple(item.options) == LABELS

    def test_persian_corpus_mirrors_ids_and_golds(self, en_corpus, fa_corpus):
        assert [i.id for i in fa_corpus] == [i.id for i in en_corpus]
        assert [i.gold for i in fa_corpus] == [i.gold for i in en_corpus]
        assert fa_corpus.language == "fa"

    def test_digit_labels_normalized_by_position(self, fixtures):
        corpus = load_corpus(fixtures / "corpus_digit_labels.jsonl", "en")
        by_id = {item.id: item for item in corpus}
        assert by_id["d001"].gold == "B"
        assert by_id["d001"].options == {"A": "one", "B": "two", "C": "three", "D": "five"}
        assert by_id["d002"].gold == "A"
        assert by_id["d003"].gold == "D"

    def test_text_fields_nfc_normalized(self, tmp_path):
        decomposed = unicodedata.normalize("NFD", "café")
        assert decomposed != "café"
        line = (
            '{"id": "x1", "question": {"stem": "Try %s?", "choices": ['
            '{"text": "%s", "label": "A"}, {"text": "b", "label": "B"}, '
            '{"text": "c", "label": "C"}, {"text": "d", "label": "D"}]}, "answerKey": "A"}'
        ) % (decomposed, decomposed)
        path = tmp_path / "c.jsonl"
        path.write_text(line, encoding="utf-8")
        item = load_corpus(path, "en").items[0]
        assert item.stem == "Try café?"
        assert item.options["A"] == "café"

    def test_empty_file_gives_empty_corpus(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert len(load_corpus(path, "en")) == 0

    def test_blank_lines_skipped(self, tmp_path, fixtures):
        raw = (fixtures / "corpus_en.jsonl").read_text(encoding="utf-8")
        lines = raw.splitlines()
        path = tmp_path / "gappy.jsonl"
        path.write_text(lines[0] + "\n\n" + lines[1] + "\n", encoding="utf-8")
        assert len(load_corpus(path, "en")) == 2

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CorpusError, match="cannot read"):
            load_corpus(tmp_path / "nope.jsonl", "en")

    def test_malformed_json_reports_line_number(self, tmp_path, fixtures):
        good = (fixtures / "corpus_en.jsonl").read_text(encoding="utf-8").splitlines()[0]
        path = tmp_path / "bad.jsonl"
        path.write_text(good + "\n{not json\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=r"bad\.jsonl:2"):
            load_corpus(path, "en")

    @pytest.mark.parametrize("char", [
        "\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
    ])
    def test_only_a_newline_ends_a_record(self, tmp_path, fixtures, char):
        # str.splitlines() breaks at each of these, and
        # json.dumps(..., ensure_ascii=False) writes the first three raw
        good = (fixtures / "corpus_en.jsonl").read_text(encoding="utf-8").splitlines()[0]
        line = good.replace('"stem": "', '"stem": "' + char, 1)
        assert line != good
        path = tmp_path / "c.jsonl"
        path.write_text(f"{line}\n{{not json\n", encoding="utf-8")
        if char < " ":
            # JSON holds a control character only escaped: the record is
            # refused whole, on its own line
            with pytest.raises(CorpusError, match=r"c\.jsonl:1: malformed JSON \(Invalid control"):
                load_corpus(path, "en")
            return
        with pytest.raises(CorpusError, match=r"c\.jsonl:2: malformed JSON"):
            load_corpus(path, "en")
        path.write_text(line + "\n", encoding="utf-8")
        [item] = load_corpus(path, "en")
        assert item.stem.startswith(char)

    def test_crlf_line_ends(self, tmp_path, fixtures):
        lines = (fixtures / "corpus_en.jsonl").read_text(encoding="utf-8").splitlines()
        path = tmp_path / "crlf.jsonl"
        path.write_bytes("\r\n".join(lines[:2] + ["{not json", ""]).encode("utf-8"))
        with pytest.raises(CorpusError, match=r"crlf\.jsonl:3: malformed JSON"):
            load_corpus(path, "en")
        path.write_bytes("\r\n".join(lines[:2] + [""]).encode("utf-8"))
        assert [item.id for item in load_corpus(path, "en")] == ["q0001", "q0002"]

    def test_wrong_choice_count_rejected(self, tmp_path):
        line = (
            '{"id": "x1", "question": {"stem": "s?", "choices": ['
            '{"text": "a", "label": "A"}, {"text": "b", "label": "B"}, '
            '{"text": "c", "label": "C"}]}, "answerKey": "A"}'
        )
        path = tmp_path / "three.jsonl"
        path.write_text(line, encoding="utf-8")
        with pytest.raises(CorpusError, match="4 choices"):
            load_corpus(path, "en")

    def test_gold_outside_domain_rejected(self, tmp_path):
        line = (
            '{"id": "x1", "question": {"stem": "s?", "choices": ['
            '{"text": "a", "label": "A"}, {"text": "b", "label": "B"}, '
            '{"text": "c", "label": "C"}, {"text": "d", "label": "D"}]}, "answerKey": "E"}'
        )
        path = tmp_path / "bad_gold.jsonl"
        path.write_text(line, encoding="utf-8")
        with pytest.raises(CorpusError, match="answerKey"):
            load_corpus(path, "en")

    def test_duplicate_ids_rejected(self, tmp_path, fixtures):
        good = (fixtures / "corpus_en.jsonl").read_text(encoding="utf-8").splitlines()[0]
        path = tmp_path / "dup.jsonl"
        path.write_text(good + "\n" + good + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="duplicate item id"):
            load_corpus(path, "en")

    def test_unknown_language_rejected(self, fixtures):
        with pytest.raises(CorpusError, match="language"):
            load_corpus(fixtures / "corpus_en.jsonl", "de")


class TestQuestionItem:
    def test_unordered_options_rejected(self):
        with pytest.raises(CorpusError, match="keyed A-D in order"):
            QuestionItem(
                id="x", stem="s?", gold="A", language="en",
                options={"B": "b", "A": "a", "C": "c", "D": "d"},
            )

    def test_empty_option_text_rejected(self):
        with pytest.raises(CorpusError, match="option B"):
            QuestionItem(
                id="x", stem="s?", gold="A", language="en",
                options={"A": "a", "B": "  ", "C": "c", "D": "d"},
            )


class TestSubset:
    def test_frozen_selection_for_seed_7(self, en_corpus):
        # oracle: sorted(random.Random(7).sample(range(10), 3)) == [2, 5, 6]
        picked = subset(en_corpus, 3, seed=7)
        assert [i.id for i in picked] == ["q0003", "q0006", "q0007"]

    def test_n_larger_than_corpus_returns_everything(self, en_corpus):
        assert len(subset(en_corpus, 99, seed=0)) == 10

    def test_zero_rejected(self, en_corpus):
        with pytest.raises(ValueError, match=">= 1"):
            subset(en_corpus, 0, seed=0)

    @given(n=st.integers(min_value=1, max_value=15), seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_deterministic_and_order_preserving(self, n, seed):
        items = tuple(
            QuestionItem(
                id=f"i{k}", stem=f"stem {k}?", gold="A", language="en",
                options={"A": "a", "B": "b", "C": "c", "D": "d"},
            )
            for k in range(10)
        )
        corpus = Corpus(language="en", items=items)
        first = subset(corpus, n, seed)
        second = subset(corpus, n, seed)
        assert [i.id for i in first] == [i.id for i in second]
        assert len(first) == min(n, 10)
        positions = [int(i.id[1:]) for i in first]
        assert positions == sorted(positions)



class TestLookup:
    def test_subset_finds_only_its_items(self, en_corpus):
        picked = subset(en_corpus, 3, seed=7)
        assert picked["q0006"] is en_corpus["q0006"]
        with pytest.raises(KeyError):
            picked["q0001"]
