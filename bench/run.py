"""suffbench benchmark: whole runs of the harness, timed from outside.

    python3 bench/run.py --workload mock-cold --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from --seed, then runs iterations until
--seconds have been measured (at least MIN_ITERATIONS). Each iteration is a
fresh child process (bench/child.py) that sets up, runs all six stages and
writes every report, so setup time and peak RSS are per iteration. Every
iteration's output is checked. The metrics are medians over iterations.

--trace 1 alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones, plus the tracing overhead.

Prints one line per metric with its unit, then, as the last line, a JSON
object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
if not (SRC / "suffbench").is_dir():
    sys.exit(f"error: no program to measure at {SRC / 'suffbench'}")
sys.path.insert(0, str(SRC))

import corpusgen  # noqa: E402  (imports the program)
import spans  # noqa: E402

MIN_ITERATIONS = 3
# calibration_s of child.calibrate on the machine the bounds were set on:
# CPU-bound times are scaled by REFERENCE_CALIBRATION_S / calibration_s
REFERENCE_CALIBRATION_S = 0.05
# setup_s and report_s are medians of at least this many samples: the
# iterations' own, then children that only set up or only write the reports
# (python start-up varies most; the reports of a small store take a few ms)
SETUP_SAMPLES = 9
REPORT_SAMPLES = 15
CHILD_TIMEOUT_S = 120

GENERATORS = ("mock-gen-a", "mock-gen-b")
LEVELS = 9
TABLES = (
    "explanations.csv", "masks.csv", "scores.csv", "similarity.csv", "audit.csv",
    "aggregates.csv",
)


def _endpoints(base: str) -> dict:
    """Generator, scorer and embedder blocks answering as mock seeds 101-103.

    `base` is "mock://" for the in-process mock, or the stub's URL, whose
    first path segment names the mock seed it answers as.
    """
    rpm = {} if base == "mock://" else {"requests_per_minute": 1_000_000}
    return {
        "generators": [
            {"base_url": f"{base}101", "model_id": model, **rpm} for model in GENERATORS
        ],
        "scorer": {"base_url": f"{base}102", "model_id": "mock-probe", **rpm},
        "embedder": {"base_url": f"{base}103", "model_id": "mock-embed", **rpm},
    }


def _reset_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def table_digests(store: Path) -> dict[str, str]:
    return {name: hashlib.sha256((store / name).read_bytes()).hexdigest() for name in TABLES}


def table_rows(store: Path, name: str) -> list[list[str]]:
    with open(store / name, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def rows_without_run_id(store: Path) -> dict[str, list[list[str]]]:
    # run_id is the first column of every table
    return {name: [row[1:] for row in table_rows(store, name)] for name in TABLES}


class Workload:
    """One set of inputs. Subclasses say how to prepare, reset and check."""

    languages: tuple[str, ...] = ("en",)
    items = 0
    workers = 1
    # whether run_s is CPU time of the child, and so scaled by machine speed
    cpu_bound = True

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.corpus = {
            language: str(corpusgen.write_corpus(
                work / f"corpus_{language}.jsonl", seed, language, self.items
            ))
            for language in self.languages
        }
        self.store = work / "store"
        self.cache = work / "cache"

    def config(self, store: Path, endpoints: dict, cache: Path | None) -> Path:
        data = {
            "store_dir": str(store),
            "corpus": self.corpus,
            "workers": self.workers,
            **endpoints,
        }
        if cache is not None:
            data["cache_dir"] = str(cache)
        path = self.work / f"config_{store.name}.json"
        path.write_text(json.dumps(data, indent=1), encoding="utf-8")
        return path

    def prepare(self) -> None:
        """Untimed work done once per invocation."""

    def reset(self) -> Path:
        """Untimed: put the store in its starting state; return the config."""
        raise NotImplementedError

    def backend_calls(self, result: dict) -> int:
        return result["mock_calls"]

    def check(self, result: dict) -> list[str]:
        """Names of the output checks this iteration failed."""
        raise NotImplementedError

    def describe(self) -> str:
        """A line about the last iteration, for the printed report."""
        return ""

    def close(self) -> None:
        pass


class MockCold(Workload):
    """The baseline configuration: a fresh store, no cache, in-process mock."""

    items = 100
    first_digests = None

    def reset(self) -> Path:
        shutil.rmtree(self.store, ignore_errors=True)
        return self.config(self.store, _endpoints("mock://"), None)

    def check(self, result: dict) -> list[str]:
        n, g = self.items * len(self.languages), len(GENERATORS)
        expected = {
            "explanations.csv": n * g * (1 + LEVELS),
            "masks.csv": n * g * (1 + LEVELS),
            "scores.csv": n + n * g * (1 + LEVELS),
            "similarity.csv": n * g * LEVELS,
            "audit.csv": 0,
            "aggregates.csv": len(self.languages) * (g * (1 + LEVELS) + 1),
        }
        counts = {name: len(table_rows(self.store, name)) for name in TABLES}
        failed = [
            f"{name} has {counts[name]} rows, expected {count}"
            for name, count in expected.items() if counts[name] != count
        ]
        digests = table_digests(self.store)
        if self.first_digests is None:
            self.first_digests = digests
        failed += [
            f"{name} differs from the first iteration's"
            for name in TABLES if digests[name] != self.first_digests[name]
        ]
        return failed


class ResumeWarm(Workload):
    """Kill-and-resume: a store cut mid-score, resumed against a warm cache."""

    languages = ("en", "fa")
    items = 60
    # bytes of the next scores.csv row left behind as a torn tail
    TORN_BYTES = 40

    def prepare(self) -> None:
        self.reference = self.work / "reference"
        run_child(self.config(self.reference, _endpoints("mock://"), self.cache), self.work)
        cut = self.work / "cut"
        shutil.copytree(self.reference, cut)
        with open(cut / "scores.csv", "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        header, rows = lines[0], lines[1:]
        kept = rows[: len(rows) // 2]
        torn = rows[len(kept)][: self.TORN_BYTES]
        (cut / "scores.csv").write_bytes(header + b"".join(kept) + torn)
        for name in ("similarity.csv", "aggregates.csv"):
            with open(cut / name, "rb") as fh:
                header = fh.readline()
            (cut / name).write_bytes(header)
        self.cut = cut
        self.torn_bytes = len(torn)
        self.reference_digests = table_digests(self.reference)

    def reset(self) -> Path:
        shutil.rmtree(self.store, ignore_errors=True)
        shutil.copytree(self.cut, self.store)
        return self.config(self.store, _endpoints("mock://"), self.cache)

    def check(self, result: dict) -> list[str]:
        digests = table_digests(self.store)
        failed = [
            f"{name} differs from the uninterrupted reference"
            for name in TABLES if digests[name] != self.reference_digests[name]
        ]
        if result["salvaged_bytes"] != self.torn_bytes:
            failed.append(
                f"salvaged {result['salvaged_bytes']} bytes, expected {self.torn_bytes}"
            )
        # the reference run filled the cache with every call the resume makes
        if result["mock_calls"] != 0:
            failed.append(f"{result['mock_calls']} model calls missed the warm cache")
        return failed


class HttpLatency(Workload):
    """Real traffic shape: every call crosses HTTP to a stub with fixed latency."""

    items = 3
    workers = 2
    cpu_bound = False

    def prepare(self) -> None:
        self.stub = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py")],
            stdout=subprocess.PIPE, env=child_env(), text=True,
        )
        port = int(self.stub.stdout.readline())
        self.url = f"http://127.0.0.1:{port}"
        reference = self.work / "reference"
        run_child(self.config(reference, _endpoints("mock://"), None), self.work)
        self.reference_rows = rows_without_run_id(reference)

    def _stub(self, path: str, data: bytes | None = None) -> dict:
        with urllib.request.urlopen(self.url + path, data=data, timeout=10) as response:
            return json.loads(response.read())

    def reset(self) -> Path:
        shutil.rmtree(self.store, ignore_errors=True)
        shutil.rmtree(self.cache, ignore_errors=True)
        self._stub("/reset", b"")
        return self.config(self.store, _endpoints(f"{self.url}/"), self.cache)

    def backend_calls(self, result: dict) -> int:
        self.stats = self._stub("/stats")
        return self.stats["requests"]

    def describe(self) -> str:
        return (f"stub, last iteration: {self.stats['requests']} requests, "
                f"{self.stats['rejected']} injected 429s, "
                f"{self.stats['repeated']} repeated payloads")

    def check(self, result: dict) -> list[str]:
        rows = rows_without_run_id(self.store)
        return [
            f"{name} differs from the in-process mock run"
            for name in TABLES if rows[name] != self.reference_rows[name]
        ]

    def close(self) -> None:
        if getattr(self, "stub", None) is not None:
            self.stub.terminate()
            self.stub.wait(timeout=10)
            self.stub.stdout.close()


WORKLOADS = {"mock-cold": MockCold, "resume-warm": ResumeWarm, "http-latency": HttpLatency}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(config: Path, work: Path, *flags: str) -> dict:
    """Run one iteration in a fresh process and return its result."""
    out = work / "result.json"
    out.unlink(missing_ok=True)
    command = [
        sys.executable, str(BENCH / "child.py"), "--config", str(config),
        "--reports", str(work / "reports"), "--out", str(out),
    ]
    command += [*flags, "--spawned-at", repr(time.time())]
    done = subprocess.run(
        command, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"iteration failed ({done.returncode}):\n{done.stderr}")
    return json.loads(out.read_text(encoding="utf-8"))


def scaled(seconds: float, *calibrations: float) -> float:
    """A CPU-bound time scaled to the reference machine speed, measured by
    the calibrations taken around it."""
    return seconds * REFERENCE_CALIBRATION_S / statistics.mean(calibrations)


def end_to_end(result: dict, backend_calls: int, cpu_bound: bool) -> dict[str, float]:
    rows = result["rows"]
    cal = result["calibrations"]
    if cpu_bound:
        run_s = sum(scaled(t, before, after) for t, before, after in
                    zip(result["stage_s"], cal, cal[1:]))
    else:
        run_s = sum(result["stage_s"])
    return {
        "setup_s": scaled(result["setup_s"], cal[0]),
        "run_s": run_s,
        "rows_per_s": rows / run_s,
        "report_s": scaled(statistics.mean(result["report_passes"]), cal[-2], cal[-1]),
        "wall_run_s": sum(result["stage_s"]),
        "calibration_s": statistics.median(cal),
        "peak_rss_mb": result["peak_rss_mb"],
        "model_calls_per_row": (result["cache_hits"] + backend_calls) / rows,
    }


def medians(samples: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def measure(workload: Workload, seconds: float, trace: bool) -> dict:
    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    started = time.perf_counter()
    durations: list[float] = []
    while True:
        with_spans = trace and len(plain) > len(traced)
        spans_path = workload.work / "spans.jsonl"
        config = workload.reset()
        began = time.perf_counter()
        result = run_child(config, workload.work, *(
            ("--spans", str(spans_path)) if with_spans else ()
        ))
        durations.append(time.perf_counter() - began)
        backend_calls = workload.backend_calls(result)
        checks = workload.check(result)
        problems += checks
        attempted += result["planned"]
        failed += result["failed"] + len(checks)
        if with_spans:
            sample = spans.layer_metrics(spans.load_spans(spans_path), result)
            sample["run_s"] = sum(result["stage_s"])
            traced.append(sample)
        else:
            plain.append(end_to_end(result, backend_calls, workload.cpu_bound))
        elapsed = time.perf_counter() - started
        enough = len(plain) + len(traced) >= (2 if trace else MIN_ITERATIONS)
        if enough and elapsed + statistics.median(durations) > seconds:
            break
    reports = [sample["report_s"] for sample in plain]
    while not trace and len(reports) < REPORT_SAMPLES:
        probe = run_child(config, workload.work, "--report-only")
        reports.append(scaled(statistics.mean(probe["report_passes"]), *probe["calibrations"]))
    setups = [sample["setup_s"] for sample in plain]
    while not trace and len(setups) < SETUP_SAMPLES:
        probe = run_child(workload.reset(), workload.work, "--setup-only")
        setups.append(scaled(probe["setup_s"], *probe["calibrations"]))
    return {
        "plain": plain, "traced": traced, "attempted": attempted, "failed": failed,
        "problems": problems, "setups": setups, "reports": reports,
    }


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the BENCHMARK.json metrics of one kind."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def print_metrics(values: dict[str, float], units: dict[str, str]) -> None:
    for name, unit in units.items():
        print(f"{name:<34} {values[name]:>14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = _reset_dir(WORK / args.workload)
    workload = WORKLOADS[args.workload](work, args.seed)
    try:
        workload.prepare()
        outcome = measure(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()

    values = medians(outcome["plain"])
    values["setup_s"] = statistics.median(outcome["setups"])
    values["report_s"] = statistics.median(outcome["reports"])
    units = metric_units("end_to_end")
    print(f"# {args.workload} seed={args.seed}: {len(outcome['plain'])} untraced, "
          f"{len(outcome['traced'])} traced iterations; calibration "
          f"{values['calibration_s']:.4f} s (reference {REFERENCE_CALIBRATION_S} s)")
    if workload.describe():
        print(f"# {workload.describe()}")
    print_metrics(values, units)
    print(f"{'fail_ratio':<34} {outcome['failed'] / outcome['attempted']:>14.6g} ratio")
    for problem in outcome["problems"]:
        print(f"check failed: {problem}")
    if args.trace:
        layer = medians(outcome["traced"])
        layer["trace.overhead_s"] = layer.pop("run_s") - values["wall_run_s"]
        values, units = layer, metric_units("per_layer")
        print_metrics(values, units)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
