import csv
import json
import logging
import subprocess
import sys
import time
from pathlib import Path

import pytest

from suffbench.cli import (
    EXIT_CONFIG,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_STAGE,
    ConfigError,
    load_config,
    main,
)
from suffbench.constrainer import CONSTRAINT_LEVELS
from tests.conftest import FIXTURES, option_logprobs


def write_config(tmp_path, **overrides):
    cfg = {
        "store_dir": str(tmp_path / "store"),
        "corpus": {"en": str(FIXTURES / "corpus_en.jsonl")},
        "generators": [{"base_url": "mock://21", "model_id": "gen-1"}],
        "scorer": {"base_url": "mock://22", "model_id": "probe-1"},
        "embedder": {"base_url": "mock://23", "model_id": "embed-1"},
        "levels": [10, 90],
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestLoadConfig:
    def test_defaults(self, tmp_path):
        path = write_config(tmp_path)
        config = load_config(path)
        config_full = load_config(write_config(tmp_path, levels=None or list(CONSTRAINT_LEVELS)))
        assert config.levels == (10, 90)
        assert config_full.levels == CONSTRAINT_LEVELS
        assert config.template_id == "default-v1"
        assert config.temperature == 0.0
        assert config.max_tokens == 512
        assert config.workers == 4
        assert config.cache_dir is None
        assert config.sample is None

    def test_derived_run_id_is_stable(self, tmp_path):
        path = write_config(tmp_path)
        first = load_config(path)
        second = load_config(path)
        assert first.run_id == second.run_id
        assert first.run_id.startswith("run-")
        assert len(first.run_id) == len("run-") + 12

    def test_run_id_tracks_experiment_not_plumbing(self, tmp_path):
        base = load_config(write_config(tmp_path))
        moved = load_config(write_config(tmp_path, store_dir=str(tmp_path / "elsewhere")))
        cached = load_config(write_config(tmp_path, cache_dir=str(tmp_path / "cache")))
        threaded = load_config(write_config(tmp_path, workers=1))
        other_levels = load_config(write_config(tmp_path, levels=[10, 50]))
        assert base.run_id == moved.run_id == cached.run_id == threaded.run_id
        assert base.run_id != other_levels.run_id

    def test_level_order_does_not_change_run_id(self, tmp_path):
        ascending = load_config(write_config(tmp_path, levels=[10, 20]))
        descending = load_config(write_config(tmp_path, levels=[20, 10]))
        assert ascending.levels == descending.levels == (10, 20)
        assert ascending.run_id == descending.run_id
        assert ascending.manifest().identity() == descending.manifest().identity()

    def test_derived_run_id_is_pinned(self, tmp_path):
        # a change to how the identity is hashed would orphan every
        # existing store: resuming it would exit with EXIT_MISMATCH
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "store_dir": "s",
            "corpus": {"en": "c.jsonl"},
            "generators": [{"base_url": "mock://101", "model_id": "g"}],
            "scorer": {"base_url": "mock://102", "model_id": "p"},
            "embedder": {"base_url": "mock://103", "model_id": "e"},
        }), encoding="utf-8")
        assert load_config(path).run_id == "run-ba593f99d855"

    def test_sample_enters_run_identity(self, tmp_path):
        path = write_config(tmp_path)
        assert load_config(path).run_id != load_config(path, sample=3, seed=7).run_id
        assert (
            load_config(path, sample=3, seed=7).run_id
            == load_config(path, sample=3, seed=7).run_id
        )

    def test_explicit_run_id_kept(self, tmp_path):
        config = load_config(write_config(tmp_path, run_id="run-manual"))
        assert config.run_id == "run-manual"

    def test_experiment_config_shape(self, tmp_path):
        config = load_config(write_config(tmp_path))
        experiment = config.experiment_config()
        assert set(experiment) == {
            "corpus", "generators", "scorer", "embedder", "template_id",
            "levels", "temperature", "max_tokens", "sample", "seed",
        }
        assert "store_dir" not in experiment
        assert experiment["generators"][0]["model_id"] == "gen-1"

    @pytest.mark.parametrize(
        ("overrides", "message"),
        [
            ({"surprise": 1}, "unknown keys"),
            ({"generators": []}, "non-empty list"),
            ({"generators": [{"base_url": "mock://1", "model_id": "g", "zap": 1}]},
             "unknown keys"),
            ({"generators": [{"model_id": "g"}]}, "base_url"),
            ({"levels": [10, 15]}, "distinct values"),
            ({"levels": [10, 10]}, "distinct values"),
            ({"levels": []}, "non-empty list"),
            ({"corpus": {}}, "corpus must map"),
            ({"corpus": {"de": "x.jsonl"}}, "not in"),
            ({"temperature": -1}, "non-negative"),
            ({"temperature": True}, "non-negative number"),
            ({"max_tokens": 0}, "positive integer"),
            ({"workers": 0}, "positive integer"),
            ({"run_id": ""}, "run_id"),
            ({"template_id": ""}, "template_id"),
        ],
    )
    def test_rejections(self, tmp_path, overrides, message):
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, **overrides))

    def test_duplicate_generator_ids(self, tmp_path):
        path = write_config(tmp_path, generators=[
            {"base_url": "mock://1", "model_id": "g"},
            {"base_url": "mock://2", "model_id": "g"},
        ])
        with pytest.raises(ConfigError, match="unique"):
            load_config(path)

    def test_missing_required_keys(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"store_dir": "s"}', encoding="utf-8")
        with pytest.raises(ConfigError, match="missing required keys"):
            load_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{oops", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_sample_flag_pairing(self, tmp_path):
        path = write_config(tmp_path)
        with pytest.raises(ConfigError, match="requires --seed"):
            load_config(path, sample=3)
        with pytest.raises(ConfigError, match="requires --sample"):
            load_config(path, seed=7)


class TestRunCommand:
    def test_full_run_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", "--config", str(path), "--all"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "generate: planned=10 completed=10" in out
        store = tmp_path / "store"
        assert (store / "manifest.json").exists()
        assert len((store / "scores.csv").read_text(encoding="utf-8").splitlines()) == 1 + 10 + 30

    def test_rerun_is_a_noop(self, tmp_path):
        path = write_config(tmp_path)
        main(["run", "--config", str(path), "--all"])
        before = {
            f.name: f.read_bytes() for f in (tmp_path / "store").iterdir() if f.suffix == ".csv"
        }
        assert main(["run", "--config", str(path), "--all"]) == EXIT_OK
        after = {
            f.name: f.read_bytes() for f in (tmp_path / "store").iterdir() if f.suffix == ".csv"
        }
        assert after == before

    def test_single_stage_with_deps(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", "--config", str(path), "--stage", "constrain"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "generate: planned=10" in out
        assert "constrain: planned=20" in out
        assert "mask" not in out

    def test_sample_flag_subsets(self, tmp_path):
        path = write_config(tmp_path)
        code = main(["run", "--config", str(path), "--all", "--sample", "3", "--seed", "7"])
        assert code == EXIT_OK
        lines = (tmp_path / "store" / "explanations.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 3 * 3  # header + 3 items x (base + 2 levels)
        assert all(",q000" in line for line in lines[1:])

    def test_changed_config_hits_exit_4(self, tmp_path, capsys):
        path = write_config(tmp_path)
        main(["run", "--config", str(path), "--stage", "generate"])
        changed = write_config(tmp_path, levels=[10, 50])
        assert main(["run", "--config", str(changed), "--all"]) == EXIT_MISMATCH
        assert "different configuration" in capsys.readouterr().err

    def test_dry_run_makes_no_rows(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", "--config", str(path), "--all", "--dry-run"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "planned generate: planned=10" in out
        rows = (tmp_path / "store" / "explanations.csv").read_text(encoding="utf-8").splitlines()
        assert len(rows) == 1  # header only

    def test_unreachable_backend_is_stage_failure(self, tmp_path, capsys):
        path = write_config(tmp_path, generators=[{
            "base_url": "http://127.0.0.1:9", "model_id": "gen-dead",
            "max_retries": 0, "timeout": 2.0,
        }])
        assert main(["run", "--config", str(path), "--stage", "generate"]) == EXIT_STAGE
        assert "generate" in capsys.readouterr().err

    def test_config_error_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, levels=[13])
        assert main(["run", "--config", str(path), "--all"]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err


class TestHttpScorer:
    def test_connection_pool_holds_every_request_in_flight(self, tmp_path, server, caplog):
        # at workers=4 up to 16 option requests are in flight to the scorer,
        # more than the 10 connections requests keeps per host by default
        def slow_reply(payload):
            time.sleep(0.02)
            return option_logprobs(payload)

        server.route("/completions", slow_reply)
        scorer = {"base_url": server.base_url, "model_id": "probe-1", "requests_per_minute": 10_000}
        path = write_config(tmp_path, scorer=scorer, workers=4)
        caplog.set_level(logging.WARNING, logger="urllib3")
        assert main(["run", "--config", str(path), "--stage", "score"]) == EXIT_OK
        assert len(server.requests) == 4 * 40
        full = [r for r in caplog.records if "Connection pool is full" in r.getMessage()]
        assert full == []


class TestStoreBoundaries:
    def test_store_without_format_is_refused(self, tmp_path, capsys):
        path = write_config(tmp_path)
        store = tmp_path / "store"
        assert main(["run", "--config", str(path), "--all", "--dry-run"]) == EXIT_OK
        # a store written before the format field: no "format", old explanations header
        manifest = json.loads((store / "manifest.json").read_text(encoding="utf-8"))
        del manifest["format"]
        (store / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        (store / "explanations.csv").write_text(
            "run_id,item_id,language,generator_model,level,"
            "word_count,length_status,masking,text\n",
            encoding="utf-8",
        )
        capsys.readouterr()
        for argv in (
            ["run", "--config", str(path), "--all"],
            ["report", "--store", str(store), "--kind", "tables"],
        ):
            assert main(argv) == EXIT_STAGE
            err = capsys.readouterr().err
            assert "format 1" in err and "format 2" in err and "new store_dir" in err
            assert "unexpected header" not in err

    def test_missing_table_is_refused(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", "--config", str(path), "--all"]) == EXIT_OK
        masks = tmp_path / "store" / "masks.csv"
        masks.unlink()
        capsys.readouterr()
        assert main(["run", "--config", str(path), "--all"]) == EXIT_STAGE
        assert "masks.csv: table file is missing" in capsys.readouterr().err
        assert not masks.exists()

    def test_leaky_masks_row_never_scored(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", "--config", str(path), "--stage", "mask"]) == EXIT_OK
        masks_path = tmp_path / "store" / "masks.csv"
        with open(masks_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        header, edited = rows[0], rows[1]
        edited[header.index("masked_text")] = "The answer is B"
        with open(masks_path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        capsys.readouterr()

        assert main(["run", "--config", str(path), "--stage", "score"]) == EXIT_STAGE
        assert "still leaks" in capsys.readouterr().err
        key = edited[1:5]  # item_id, language, generator_model, level
        with open(tmp_path / "store" / "scores.csv", encoding="utf-8", newline="") as fh:
            scored = [row[1:5] for row in list(csv.reader(fh))[1:]]
        assert key not in scored


class TestValidateCommand:
    def test_ok(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["validate-config", str(path)]) == EXIT_OK
        assert "config OK" in capsys.readouterr().out

    def test_missing_corpus_file(self, tmp_path, capsys):
        path = write_config(tmp_path, corpus={"en": str(tmp_path / "absent.jsonl")})
        assert main(["validate-config", str(path)]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_unknown_template_id(self, tmp_path):
        path = write_config(tmp_path, template_id="missing-v9")
        assert main(["validate-config", str(path)]) == EXIT_CONFIG


class TestReportCommand:
    @pytest.fixture
    def finished_store(self, tmp_path):
        path = write_config(tmp_path)
        main(["run", "--config", str(path), "--all"])
        return tmp_path / "store"

    def test_tables(self, finished_store, capsys):
        assert main(["report", "--store", str(finished_store), "--kind", "tables"]) == EXIT_OK
        text = (finished_store / "reports" / "tables.txt").read_text(encoding="utf-8")
        assert text.splitlines()[0].split() == [
            "language", "model", "level", "n_items", "n_excluded",
            "accuracy", "sufficiency", "similarity",
        ]
        assert "baseline" in text
        assert "0.2500" in text  # mock scorer sufficiency

    def test_heatmap(self, finished_store):
        assert main(["report", "--store", str(finished_store), "--kind", "heatmap"]) == EXIT_OK
        svg = (finished_store / "reports" / "heatmap_en.svg").read_text(encoding="utf-8")
        assert svg.startswith("<svg")
        matrix = (finished_store / "reports" / "heatmap_en.csv").read_text(encoding="utf-8")
        header = matrix.splitlines()[0].split(",")
        assert header == ["model"] + [str(v) for v in range(10, 100, 10)]
        assert matrix.splitlines()[1].startswith("gen-1,")

    def test_curves(self, finished_store):
        assert main(["report", "--store", str(finished_store), "--kind", "curves"]) == EXIT_OK
        lines = (finished_store / "reports" / "curves_en.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == (
            "model,level,conciseness,n_items,accuracy,mean_sufficiency,mean_realized_reduction"
        )
        rows = [line.split(",") for line in lines[1:]]
        assert [r[:2] for r in rows] == [
            ["baseline", "noexp"], ["gen-1", "0"], ["gen-1", "10"], ["gen-1", "90"],
        ]
        assert rows[0][2] == "" and rows[0][6] == ""
        assert rows[1][2] == "0.0000" and rows[1][6] == "0.0000"
        assert rows[2][2] == "0.1000"
        assert float(rows[3][6]) > 0.5  # level 90 really shrank the text

    def test_report_before_aggregate_fails(self, tmp_path, capsys):
        path = write_config(tmp_path)
        main(["run", "--config", str(path), "--stage", "generate"])
        code = main(["report", "--store", str(tmp_path / "store"), "--kind", "tables"])
        assert code == EXIT_STAGE
        assert "aggregate" in capsys.readouterr().err

    def test_report_missing_store(self, tmp_path):
        assert main(["report", "--store", str(tmp_path / "none"), "--kind", "tables"]) == EXIT_STAGE


class TestMockDemo:
    def test_quick_start_runs(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / "run_mock_demo.py"
        proc = subprocess.run(
            [sys.executable, str(script), "--out", str(tmp_path), "--sample", "3"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "store" / "aggregates.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) > 1  # header plus at least one cell


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        path = write_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "suffbench.cli", "validate-config", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "config OK" in proc.stdout
