"""One benchmark iteration, in a fresh process.

Sets the run up as `suffbench run` does (config, corpora, templates, store
open with torn-tail salvage), runs all six stages, writes the three report
kinds, then writes its timings and counters as JSON. A calibration loop
runs after set-up, after each stage and after the reports; its time gives
the machine's speed at that moment. With --spans the same work runs under tracing.install and the
spans are written too; with --setup-only it stops before the first stage,
and with --report-only it only writes the reports of a finished store.

    python3 bench/child.py --config cfg.json --reports DIR --out result.json \\
        --spawned-at UNIX_TIME [--spans spans.jsonl | --setup-only | --report-only]
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import json
import re
import resource
import sys
import threading
import time
from pathlib import Path

from suffbench import cli, pipeline
from suffbench.gateway import ResponseCache
from suffbench.runstore import AUDIT, EXPLANATIONS, MASKS, SCORES, SIMILARITY, RunStore

APPENDED_TABLES = (EXPLANATIONS, MASKS, SCORES, SIMILARITY, AUDIT)
REPORT_WRITERS = (
    ("tables", cli.write_tables),
    ("heatmap", cli.write_heatmaps),
    ("curves", cli.write_curves),
)
# untraced, the reports are written again until both limits are reached:
# one pass on a small store takes a few ms
MIN_REPORT_PASSES = 3
MIN_REPORT_S = 0.25
CALIBRATION_ROUNDS = 2000


class CacheHits:
    """Counts ResponseCache.get calls that find a body: the model calls the
    cache answers, which no counter of the program reports."""

    def __init__(self) -> None:
        self.count = 0
        lock = threading.Lock()
        get = ResponseCache.get

        def counting_get(cache, key):
            body = get(cache, key)
            if body is not None:
                with lock:
                    self.count += 1
            return body

        ResponseCache.get = counting_get


def calibrate() -> float:
    """Seconds this process takes for a fixed piece of pure-Python work of
    the kinds the harness does most: JSON, SHA-256, regex and CSV. It
    involves no code of the program, and the cyclic GC is off while it runs,
    so no collection walks the program's live objects: it measures the
    machine's speed."""
    record = {"id": "q00001", "text": "the plant uses light energy to move heat " * 3}
    pattern = re.compile(r"(?<!\w)light\s+energy(?!\w)", re.IGNORECASE)
    writer = csv.writer(io.StringIO())
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(CALIBRATION_ROUNDS):
            blob = json.dumps({**record, "round": i}, sort_keys=True)
            hashlib.sha256(blob.encode("utf-8")).hexdigest()
            pattern.findall(record["text"])
            writer.writerow(json.loads(blob).values())
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def write_reports(store: RunStore, out_dir: Path, call, repeat: bool) -> list[float]:
    """Write every report kind; with repeat, until both MIN_REPORT limits
    are reached. Returns the time of each pass."""
    out_dir.mkdir(parents=True, exist_ok=True)
    passes: list[float] = []
    while not passes or repeat and (
        len(passes) < MIN_REPORT_PASSES or sum(passes) < MIN_REPORT_S
    ):
        start = time.perf_counter()
        for kind, writer in REPORT_WRITERS:
            call(f"cli.report.{kind}", writer, store, out_dir)
        passes.append(time.perf_counter() - start)
    return passes


def _table_bytes(store: RunStore) -> int:
    return sum((store.root / name).stat().st_size for name in APPENDED_TABLES)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--reports", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans", type=Path)
    probe = parser.add_mutually_exclusive_group()
    probe.add_argument("--setup-only", action="store_true",
                       help="stop after set-up and report setup_s alone")
    probe.add_argument("--report-only", action="store_true",
                       help="only write the reports of the finished store")
    args = parser.parse_args(argv)

    cache_hits = CacheHits()
    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    def call(name, fn, *fn_args):
        return tracer.call(name, fn, *fn_args) if tracer else fn(*fn_args)

    config = cli.load_config(args.config)
    if args.report_only:
        store = RunStore.load(config.store_dir)
        calibrations = [calibrate()]
        passes = write_reports(store, args.reports, call, repeat=True)
        calibrations.append(calibrate())
        args.out.write_text(json.dumps({"report_passes": passes, "calibrations": calibrations}))
        return 0
    store = call("runstore.open", RunStore.open_or_create, config.store_dir, config.manifest())
    opened_bytes = _table_bytes(store)
    gateway = tracing.traced_gateway(tracer, config.cache_dir) if tracer else None
    ctx = cli.build_context(config, store, gateway=gateway)

    stages_started = time.time()
    calibrations = [calibrate()]
    if args.setup_only:
        args.out.write_text(json.dumps({
            "setup_s": stages_started - args.spawned_at, "calibrations": calibrations,
        }))
        return 0
    # pipeline.run is run_stage over STAGES; stage by stage, each stage's
    # time lies between two calibrations
    reports, stage_s = [], []
    for stage in pipeline.STAGES:
        start = time.perf_counter()
        if tracer:
            reports.append(tracing.run_stage(tracer, ctx, stage))
        else:
            reports.append(pipeline.run_stage(ctx, stage))
        stage_s.append(time.perf_counter() - start)
        calibrations.append(calibrate())

    passes = write_reports(store, args.reports, call, repeat=tracer is None)
    calibrations.append(calibrate())

    result = {
        "setup_s": stages_started - args.spawned_at,
        "stage_s": stage_s,
        "calibrations": calibrations,
        "report_passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "planned": sum(r.planned for r in reports),
        "failed": sum(r.failed for r in reports),
        "rows": sum(r.completed for r in reports if r.stage != "aggregate"),
        "mock_calls": sum(ctx.gateway.mock_counts().values()),
        "cache_hits": cache_hits.count,
        "salvaged_bytes": sum(store.salvage_report.values()),
        "appended_bytes": _table_bytes(store) - opened_bytes,
        "duplicate_calls": tracer.duplicate_calls if tracer else None,
    }
    args.out.write_text(json.dumps(result), encoding="utf-8")
    if tracer:
        tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
