import csv
import dataclasses
import io
import itertools
import json
import os
import sys
import threading
from collections import Counter
from contextlib import suppress
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from suffbench.constrainer import make_explanation
from suffbench.masker import MaskReport
from suffbench.metrics import AggregateCell, SimilarityRecord
from suffbench.runstore import (
    _DECODERS,
    _PARSERS,
    AGGREGATES,
    AUDIT,
    COLUMNS,
    EXPLANATIONS,
    MASKS,
    SCORES,
    SIMILARITY,
    TABLES,
    AuditRecord,
    ManifestMismatch,
    RunManifest,
    RunStore,
    StoreError,
    _complete_prefix_length,
    _encode_row,
    _RowEncoder,
)
from suffbench.scorer import ScoreResult

RUN = "run-abc"


def manifest(run_id=RUN, seed=1):
    return RunManifest.new(run_id, {"seed": seed, "models": ["gen-1"]})


def explanation(item_id="q0001", level=0, text="Light drives growth.", **kw):
    return make_explanation(item_id, "en", "gen-1", level, text, **kw)


def mask_report(item_id="q0001", level=10):
    return MaskReport(
        item_id=item_id, language="en", generator_model="gen-1", level=level,
        label_hits=1, text_hits=0, masked_text="Because [MASK] is right.",
    )


def score(item_id="q0001", level=10, model="gen-1"):
    return ScoreResult(
        item_id=item_id, language="en", generator_model=model, level=level,
        option_probs={"A": 0.4, "B": 0.3, "C": 0.2, "D": 0.1},
        sufficiency=0.3, predicted="A", correct=False,
        scorer_model="probe", prompt_fingerprint="a" * 64,
    )


def similarity(item_id="q0001", level=10):
    return SimilarityRecord(item_id, "en", "gen-1", level, 0.875)


def audit(item_id="q0002", event="unparseable"):
    return AuditRecord(
        stage="generate", item_id=item_id, language="en", generator_model="gen-1",
        level=0, event=event, detail="first line is not an answer declaration",
    )


def cell(level=10, mean_similarity=0.9):
    return AggregateCell(
        generator_model="gen-1", language="en", level=level, n_items=10,
        n_excluded=1, accuracy=0.7, mean_sufficiency=0.55,
        mean_similarity=mean_similarity,
    )


class TestManifest:
    def test_identity_ignores_created_at(self):
        a = RunManifest(RUN, {"seed": 1}, "2026-08-14T00:00:00+00:00")
        b = RunManifest(RUN, {"seed": 1}, "2026-08-15T12:34:56+00:00")
        assert a.identity() == b.identity()

    def test_identity_tracks_config(self):
        a = manifest(seed=1)
        b = manifest(seed=2)
        assert a.identity() != b.identity()

    def test_json_round_trip(self):
        m = manifest()
        again = RunManifest.from_json(m.to_json())
        assert again == m

    def test_canonical_key_order(self):
        m = RunManifest(RUN, {"b": 1, "a": 2}, "2026-08-14T00:00:00+00:00")
        assert m.to_json().index('"config"') < m.to_json().index('"created_at"')
        assert '"a":2,"b":1' in m.to_json()

    def test_from_json_rejects_missing_fields(self):
        with pytest.raises(StoreError, match="missing fields"):
            RunManifest.from_json(json.dumps({"run_id": RUN}))

    def test_from_json_rejects_garbage(self):
        with pytest.raises(StoreError, match="not valid JSON"):
            RunManifest.from_json("{nope")


class TestLifecycle:
    def test_create_writes_manifest_and_headers(self, tmp_path):
        store = RunStore.create(tmp_path / "run", manifest())
        assert store.run_id == RUN
        for name, columns in COLUMNS.items():
            first_line = (tmp_path / "run" / name).read_text(encoding="utf-8").splitlines()[0]
            assert first_line == ",".join(columns)

    def test_create_twice_rejected(self, tmp_path):
        RunStore.create(tmp_path, manifest())
        with pytest.raises(StoreError, match="already initialized"):
            RunStore.create(tmp_path, manifest())

    def test_resume_requires_same_identity(self, tmp_path):
        RunStore.create(tmp_path, manifest(seed=1))
        with pytest.raises(ManifestMismatch, match="different configuration"):
            RunStore.open_resume(tmp_path, manifest(seed=2))

    def test_mismatch_names_the_config_keys_that_differ(self, tmp_path):
        RunStore.create(tmp_path, manifest(seed=1))
        with pytest.raises(ManifestMismatch) as caught:
            RunStore.open_resume(tmp_path, manifest(seed=2))
        assert "different configuration (config keys that differ: seed);" in str(caught.value)

    def test_mismatch_of_run_id_alone_names_it(self, tmp_path):
        RunStore.create(tmp_path, manifest())
        with pytest.raises(ManifestMismatch, match=r"\(run id 'run-other' differs\)"):
            RunStore.open_resume(tmp_path, manifest(run_id="run-other"))

    def test_resume_keeps_original_created_at(self, tmp_path):
        first = manifest()
        RunStore.create(tmp_path, first)
        later = RunManifest(first.run_id, first.config, "2030-01-01T00:00:00+00:00")
        resumed = RunStore.open_resume(tmp_path, later)
        assert resumed.manifest.created_at == first.created_at

    def test_open_or_create_dispatch(self, tmp_path):
        with RunStore.open_or_create(tmp_path, manifest()) as first:
            first.append_explanation(explanation())
        second = RunStore.open_or_create(tmp_path, manifest())
        assert len(second.load_explanations()) == 1

    def test_load_requires_manifest(self, tmp_path):
        with pytest.raises(StoreError, match="missing manifest.json"):
            RunStore.load(tmp_path)

    def test_missing_table_rejected(self, tmp_path):
        RunStore.create(tmp_path, manifest())
        (tmp_path / SCORES).unlink()
        with pytest.raises(StoreError, match=r"scores\.csv: table file is missing"):
            RunStore.load(tmp_path).load_scores()
        with pytest.raises(StoreError, match=r"scores\.csv: table file is missing"):
            RunStore.open_resume(tmp_path, manifest())
        assert not (tmp_path / SCORES).exists()

    def test_headerless_table_rejected_before_append(self, tmp_path):
        store = RunStore.create(tmp_path, manifest())
        (tmp_path / SCORES).write_bytes(b"")
        with pytest.raises(StoreError, match=r"scores\.csv: unexpected header None"):
            store.append_score(score())
        assert (tmp_path / SCORES).read_bytes() == b""

    def test_header_drift_rejected(self, tmp_path):
        store = RunStore.create(tmp_path, manifest())
        (tmp_path / EXPLANATIONS).write_text("nope,columns\n", encoding="utf-8")
        with pytest.raises(StoreError, match="unexpected header"):
            store.load_explanations()


class TestTableSpec:
    def test_columns_are_the_record_fields(self):
        probs = tuple(f"option_prob_{label}" for label in "ABCD")
        for name, (record_type, columns) in TABLES.items():
            assert columns == COLUMNS[name]
            fields = []
            for f in dataclasses.fields(record_type):
                fields.extend(probs if f.name == "option_probs" else [f.name])
            # run_id leads every table and is no record's field
            assert columns[0] == "run_id"
            assert sorted(columns[1:]) == sorted(fields), name


class TestRoundTrip:
    def test_explanation(self, tmp_path):
        with RunStore.create(tmp_path, manifest()) as store:
            e = explanation(text='Line one,\n"quoted" line two.', level=0)
            assert store.append_explanation(e)
            assert store.load_explanations() == (e,)

    def test_explanation_persian(self, tmp_path):
        with RunStore.create(tmp_path, manifest()) as store:
            e = explanation(text="گیاهان برای رشد به نور نیاز دارند.")
            store.append_explanation(e)
            assert store.load_explanations()[0].text == e.text

    def test_mask_report(self, tmp_path):
        with RunStore.create(tmp_path, manifest()) as store:
            m = mask_report()
            assert store.append_mask(m)
            assert store.load_masks() == (m,)

    def test_score_floats_exact(self, tmp_path):
        with RunStore.create(tmp_path, manifest()) as store:
            s = dataclasses.replace(
                score(),
                option_probs={"A": 0.6439142598879723, "B": 0.23688281808991013,
                              "C": 0.08714431874203257, "D": 0.03205860328008499},
                sufficiency=0.6439142598879723, predicted="A", correct=True,
            )
            store.append_score(s)
            loaded = store.load_scores()[0]
            assert loaded == s  # float text round-trips bit-exact

    def test_baseline_score_level_stays_string(self, tmp_path):
        with RunStore.create(tmp_path, manifest()) as store:
            s = score(model="baseline", level="noexp")
            store.append_score(s)
            assert store.load_scores()[0].level == "noexp"

    def test_similarity(self, tmp_path):
        with RunStore.create(tmp_path, manifest()) as store:
            assert store.append_similarity(similarity())
            assert store.load_similarities() == (similarity(),)

    def test_audit(self, tmp_path):
        with RunStore.create(tmp_path, manifest()) as store:
            assert store.append_audit(audit())
            assert store.load_audit() == (audit(),)

    def test_aggregates_none_similarity(self, tmp_path):
        store = RunStore.create(tmp_path, manifest())
        cells = (cell(level=10, mean_similarity=0.9), cell(level="noexp", mean_similarity=None))
        store.write_aggregates(cells)
        assert store.load_aggregates() == cells

    def test_aggregates_rewrite_replaces(self, tmp_path):
        store = RunStore.create(tmp_path, manifest())
        store.write_aggregates([cell(level=10)])
        store.write_aggregates([cell(level=20)])
        loaded = store.load_aggregates()
        assert len(loaded) == 1
        assert loaded[0].level == 20
        assert not (tmp_path / "aggregates.csv.tmp").exists()


class TestDedupAndRunChecks:
    def test_duplicate_key_skipped(self, tmp_path):
        with RunStore.create(tmp_path, manifest()) as store:
            assert store.append_explanation(explanation())
            assert not store.append_explanation(explanation(text="Different words entirely."))
            assert len(store.load_explanations()) == 1

    def test_same_item_other_level_kept(self, tmp_path):
        with RunStore.create(tmp_path, manifest()) as store:
            store.append_explanation(explanation(level=0))
            assert store.append_explanation(explanation(level=50))
            assert len(store.load_explanations()) == 2

    def test_dedup_survives_resume(self, tmp_path):
        with RunStore.create(tmp_path, manifest()) as store:
            store.append_explanation(explanation())
        resumed = RunStore.open_resume(tmp_path, manifest())
        assert not resumed.append_explanation(explanation())

    def test_audit_dedup_includes_event(self, tmp_path):
        with RunStore.create(tmp_path, manifest()) as store:
            assert store.append_audit(audit(event="unparseable"))
            assert store.append_audit(audit(event="empty_regeneration"))
            assert not store.append_audit(audit(event="unparseable"))

    def test_foreign_run_id_rejected_on_load(self, tmp_path):
        with RunStore.create(tmp_path, manifest()) as store:
            store.append_explanation(explanation())
        other = dataclasses.replace(manifest(), run_id="run-other")
        (tmp_path / "manifest.json").write_text(other.to_json(), encoding="utf-8")
        with pytest.raises(StoreError, match="row for run"):
            RunStore.load(tmp_path).load_explanations()

    def test_repeated_key_in_file_rejected(self, tmp_path):
        with RunStore.create(tmp_path, manifest()) as store:
            store.append_similarity(similarity())
        path = tmp_path / SIMILARITY
        row = path.read_bytes().splitlines(keepends=True)[-1]
        with open(path, "ab") as fh:
            fh.write(row.replace(b"0.875", b"0.5"))
        with pytest.raises(StoreError, match=r"similarity\.csv: key .* stored twice"):
            RunStore.load(tmp_path).load_similarities()
        with pytest.raises(StoreError, match=r"similarity\.csv: key .* stored twice"):
            RunStore.open_resume(tmp_path, manifest()).done_keys(SIMILARITY)


class TestReads:
    def test_each_table_read_once_at_first_use(self, tmp_path, monkeypatch):
        with RunStore.create(tmp_path, manifest()) as store:
            store.append_explanation(explanation())
            store.write_aggregates([cell()])
        reads = Counter()
        real = Path.read_bytes

        def spy(path):
            if path.name in COLUMNS:
                reads[path.name] += 1
            return real(path)

        monkeypatch.setattr(Path, "read_bytes", spy)
        loaded = RunStore.load(tmp_path)
        assert loaded.load_aggregates() == (cell(),)
        assert reads == {"aggregates.csv": 1}
        assert loaded.load_explanations() == (explanation(),)
        assert loaded.load_explanations() == (explanation(),)
        assert loaded.done_keys(EXPLANATIONS) == {("q0001", "en", "gen-1", 0)}
        assert reads == {"aggregates.csv": 1, EXPLANATIONS: 1}


class _ShortWrites:
    """A kept handle whose writes take at most three bytes each."""

    def __init__(self, inner):
        self.inner = inner

    def write(self, data):
        return self.inner.write(data[:3])

    def close(self):
        self.inner.close()


class TestAppendHandles:
    def test_short_writes_are_finished(self, tmp_path):
        whole = RunStore.create(tmp_path / "whole", manifest())
        short = RunStore.create(tmp_path / "short", manifest())
        for store in (whole, short):
            store.append_explanation(explanation(item_id="q0000"))
        short._handles[EXPLANATIONS] = _ShortWrites(short._handles[EXPLANATIONS])
        for store in (whole, short):
            store.append_explanation(explanation(item_id="q0001", text="Naïve café, \"quoted\"."))
            store.close()
        assert (tmp_path / "short" / EXPLANATIONS).read_bytes() == (
            tmp_path / "whole" / EXPLANATIONS
        ).read_bytes()
        assert len(RunStore.load(tmp_path / "short").load_explanations()) == 2

    def test_append_after_close_raises(self, tmp_path):
        store = RunStore.create(tmp_path, manifest())
        store.append_explanation(explanation())
        store.close()
        store.close()
        with pytest.raises(StoreError, match="closed"):
            store.append_explanation(explanation(item_id="q0002"))
        with pytest.raises(StoreError, match="closed"):
            store.append_audit(audit())
        assert store.load_explanations() == (explanation(),)
        assert RunStore.open_resume(tmp_path, manifest()).load_explanations() == (explanation(),)


class TestDoneKeys:
    def test_done_keys_track_appends(self, tmp_path):
        with RunStore.create(tmp_path, manifest()) as store:
            store.append_explanation(explanation(item_id="q0001", level=0))
            store.append_explanation(explanation(item_id="q0002", level=0))
            assert store.done_keys(EXPLANATIONS) == {
                ("q0001", "en", "gen-1", 0),
                ("q0002", "en", "gen-1", 0),
            }

    def test_score_keys_include_baseline(self, tmp_path):
        with RunStore.create(tmp_path, manifest()) as store:
            store.append_score(score(model="baseline", level="noexp"))
            assert ("q0001", "en", "baseline", "noexp") in store.done_keys(SCORES)

    def test_unknown_table_rejected(self, tmp_path):
        store = RunStore.create(tmp_path, manifest())
        with pytest.raises(StoreError, match="unknown table"):
            store.done_keys("nope.csv")

    def test_audit_keys_filter(self, tmp_path):
        with RunStore.create(tmp_path, manifest()) as store:
            store.append_audit(audit(item_id="q0002", event="unparseable"))
            store.append_audit(audit(item_id="q0003", event="empty_regeneration"))
            assert store.audit_keys("generate") == {
                ("q0002", "en", "gen-1", 0),
                ("q0003", "en", "gen-1", 0),
            }
            assert store.audit_keys("score") == frozenset()


class _Killed(Exception):
    """Stands in for the process dying part way through a write."""


def _kill_at_write(monkeypatch, k):
    """Make the k-th file write or rename fail; a write is torn half-way."""
    count = itertools.count()

    def tearing(write):
        def patched(path, data, *args, **kwargs):
            if next(count) == k:
                write(path, data[: len(data) // 2], *args, **kwargs)
                raise _Killed
            return write(path, data, *args, **kwargs)
        return patched

    def replace(src, dst, real=os.replace):
        if next(count) == k:
            raise _Killed
        real(src, dst)

    monkeypatch.setattr(Path, "write_bytes", tearing(Path.write_bytes))
    monkeypatch.setattr(Path, "write_text", tearing(Path.write_text))
    monkeypatch.setattr(os, "replace", replace)


class TestTornTails:
    @pytest.mark.parametrize("k", range(8))
    def test_create_killed_at_any_write_recovers(self, tmp_path, monkeypatch, k):
        with monkeypatch.context() as patched, suppress(_Killed):
            _kill_at_write(patched, k)
            RunStore.create(tmp_path, manifest())
        records = (explanation(), mask_report(), score(), similarity(), audit())
        with RunStore.open_or_create(tmp_path, manifest()) as store:
            appends = (
                store.append_explanation, store.append_mask, store.append_score,
                store.append_similarity, store.append_audit,
            )
            assert all(append(r) for append, r in zip(appends, records))
        reopened = RunStore.open_or_create(tmp_path, manifest())
        loaded = (
            reopened.load_explanations(), reopened.load_masks(), reopened.load_scores(),
            reopened.load_similarities(), reopened.load_audit(),
        )
        assert loaded == tuple((r,) for r in records)
        assert reopened.load_aggregates() == ()

    def test_resume_truncates_partial_line(self, tmp_path):
        with RunStore.create(tmp_path, manifest()) as store:
            store.append_explanation(explanation(item_id="q0001"))
        path = tmp_path / EXPLANATIONS
        clean = path.read_bytes()
        torn = b"run-abc,q0002,en,gen-1,0,3,wi"  # killed mid-row
        with open(path, "ab") as fh:
            fh.write(torn)
        resumed = RunStore.open_resume(tmp_path, manifest())
        assert resumed.salvage_report == {EXPLANATIONS: len(torn)}
        assert path.read_bytes() == clean
        assert len(resumed.load_explanations()) == 1

    def test_appends_after_salvage_are_clean(self, tmp_path):
        with RunStore.create(tmp_path, manifest()) as store:
            store.append_explanation(explanation(item_id="q0001"))
        with open(tmp_path / EXPLANATIONS, "ab") as fh:
            fh.write(b"run-abc,q0002,en")
        with RunStore.open_resume(tmp_path, manifest()) as resumed:
            assert resumed.append_explanation(explanation(item_id="q0002"))
            assert len(resumed.load_explanations()) == 2

    def test_newline_inside_quoted_field_not_a_boundary(self, tmp_path):
        with RunStore.create(tmp_path, manifest()) as store:
            store.append_explanation(explanation(item_id="q0001"))
        torn = 'run-abc,q0002,en,gen-1,0,4,within_budget,raw,"line one\nline'
        with open(tmp_path / EXPLANATIONS, "ab") as fh:
            fh.write(torn.encode("utf-8"))
        resumed = RunStore.open_resume(tmp_path, manifest())
        assert resumed.salvage_report[EXPLANATIONS] == len(torn)
        assert len(resumed.load_explanations()) == 1

    def test_complete_multiline_row_survives(self, tmp_path):
        e = explanation(text="first line\nsecond line")
        with RunStore.create(tmp_path, manifest()) as store:
            store.append_explanation(e)
        resumed = RunStore.open_resume(tmp_path, manifest())
        assert resumed.salvage_report == {}
        assert resumed.load_explanations() == (e,)

    def test_readonly_load_skips_torn_tail_without_truncating(self, tmp_path):
        with RunStore.create(tmp_path, manifest()) as store:
            store.append_explanation(explanation())
        path = tmp_path / EXPLANATIONS
        with open(path, "ab") as fh:
            fh.write(b"run-abc,q0009")
        size_before = path.stat().st_size
        loaded = RunStore.load(tmp_path)
        assert len(loaded.load_explanations()) == 1
        assert path.stat().st_size == size_before


ROW_TEXT = st.text(
    alphabet=st.sampled_from(list('ab,"\n ')), min_size=0, max_size=12
)


class TestPrefixScan:
    @given(st.lists(ROW_TEXT, min_size=1, max_size=5), st.integers(min_value=0))
    def test_any_cut_lands_on_a_row_boundary(self, fields, cut_seed):
        rows = [_encode_row(("id", field)) for field in fields]
        blob = b"".join(rows)
        boundaries = []
        total = 0
        for row in rows:
            total += len(row)
            boundaries.append(total)
        cut = cut_seed % (len(blob) + 1)
        keep = _complete_prefix_length(blob[:cut])
        assert keep in [0] + boundaries
        assert keep <= cut
        # keep is the largest boundary not past the cut
        assert keep == max([0] + [b for b in boundaries if b <= cut])

    def test_doubled_quotes_stay_inside_field(self):
        row = _encode_row(("id", 'say ""hi""\nthere'))
        assert _complete_prefix_length(row) == len(row)
        assert _complete_prefix_length(row[:-1]) == 0


def fresh_writer_row(values) -> bytes:
    """A row as a csv writer made for that row alone writes it."""
    sink = io.StringIO()
    csv.writer(sink, lineterminator="\n", quoting=csv.QUOTE_MINIMAL).writerow(values)
    return sink.getvalue().encode("utf-8")


def fresh_writer_record(name, run_id, record) -> bytes:
    """A record's row as the store wrote it with a fresh writer per row:
    each column looked up by name, bools written true/false."""
    values = [run_id]
    for column in COLUMNS[name][1:]:
        if column.startswith("option_prob_"):
            value = record.option_probs[column[len("option_prob_"):]]
        else:
            value = getattr(record, column)
        values.append(("true" if value else "false") if isinstance(value, bool) else value)
    return fresh_writer_row(values)


def dict_decode(name, values):
    """A row's record as the store decoded it by column name: a dict of the
    parsed columns, passed as keywords."""
    fields = {
        column: raw if parse is None else parse(raw)
        for column, raw in zip(COLUMNS[name][1:], values[1:])
        for parse in (_PARSERS.get(column),)
    }
    if name == SCORES:
        fields["option_probs"] = {label: fields.pop("option_prob_" + label) for label in "ABCD"}
    return TABLES[name][0](**fields)


# field text with what the writer must quote: commas, quotes, newlines,
# leading and trailing spaces, and Persian script
FIELD_TEXT = st.lists(
    st.sampled_from(list('ab ,"\n') + ["گزینه", "پاسخ", "é"]), max_size=10
).map("".join)
WORDY_TEXT = FIELD_TEXT.filter(lambda text: text.split())
PROBS = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4).filter(
    lambda probs: sum(probs) > 0
).map(lambda probs: dict(zip("ABCD", (p / sum(probs) for p in probs))))


@st.composite
def records(draw):
    """(table name, a record of that table) with drawn texts, bools and Nones."""
    name = draw(st.sampled_from((EXPLANATIONS, MASKS, SCORES, SIMILARITY, AGGREGATES, AUDIT)))
    item_id = draw(FIELD_TEXT.filter(bool))
    level = draw(st.sampled_from((10, 50, 90)))
    if name == EXPLANATIONS:
        return name, make_explanation(item_id, "fa", "gen-1", level, draw(WORDY_TEXT))
    if name == MASKS:
        return name, MaskReport(item_id, "en", "gen-1", level, draw(st.integers(0, 9)),
                                draw(st.integers(0, 9)), draw(FIELD_TEXT))
    if name == SCORES:
        probs = draw(PROBS)
        if abs(sum(probs.values()) - 1.0) > 1e-9:
            probs = {"A": 0.25, "B": 0.25, "C": 0.25, "D": 0.25}
        return name, ScoreResult(item_id, "en", "gen-1", level, probs, probs["B"], "A",
                                 draw(st.booleans()), draw(FIELD_TEXT), "f" * 64)
    if name == SIMILARITY:
        return name, SimilarityRecord(item_id, "en", "gen-1", level,
                                      draw(st.floats(min_value=-1.0, max_value=1.0)))
    if name == AGGREGATES:
        return name, AggregateCell(draw(FIELD_TEXT), "en", draw(st.sampled_from((0, "noexp"))),
                                   draw(st.integers(0, 99)), draw(st.integers(0, 9)),
                                   draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)),
                                   draw(st.one_of(st.none(), st.floats(-1.0, 1.0))))
    return name, AuditRecord(draw(FIELD_TEXT), item_id, "en", "gen-1", level,
                             draw(FIELD_TEXT), draw(FIELD_TEXT))


class TestRowCodec:
    """The store's one writer and its positional decoders give what a fresh
    writer per row and a decoder by column name give."""

    @given(st.lists(st.lists(st.one_of(
        FIELD_TEXT, st.text(max_size=6), st.none(), st.booleans(), st.integers(),
        st.floats(allow_nan=False),
    ), max_size=6), min_size=1, max_size=8))
    def test_one_writer_writes_the_rows_a_fresh_writer_per_row_does(self, rows):
        encoder = _RowEncoder()
        assert [encoder.row(row) for row in rows] == [fresh_writer_row(row) for row in rows]

    @given(st.lists(records(), min_size=1, max_size=8))
    def test_records_encode_and_decode_as_by_column_name(self, drawn):
        encoder = _RowEncoder()
        for name, record in drawn:
            row = encoder.record(name, RUN, record)
            assert row == fresh_writer_record(name, RUN, record)
            [values] = csv.reader(io.StringIO(row.decode("utf-8"), newline=""))
            decoded = _DECODERS[name](values)
            assert decoded == dict_decode(name, values) == record
            if hasattr(decoded, "item_id"):
                assert decoded.item_id is sys.intern(decoded.item_id)

    def test_two_stores_on_two_threads_write_their_own_rows(self, tmp_path):
        texts = ('say "hi", then\nstop', "گزینه الف, و ب")
        stores = [RunStore.create(tmp_path / f"run{i}", manifest()) for i in range(2)]

        def fill(store, text):
            for i in range(300):
                store.append_explanation(explanation(f"q{i:04d}", text=text))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fill, args=pair) for pair in zip(stores, texts)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for store, text in zip(stores, texts):
            store.close()
            loaded = RunStore.load(store.root).load_explanations()
            assert [e.text for e in loaded] == [text] * 300
