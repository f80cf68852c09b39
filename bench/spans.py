"""Reduction of a traced iteration's spans to the per-layer metrics.

A span is the tuple (id, parent id, name, start, end, work key, value)
that tracing.Tracer records. A layer's time is the summed duration of its
spans; where a span contains other layers' spans, its self time is its
duration minus the part of it that its children cover.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

# span tuple fields
ID, PARENT, NAME, START, END, KEY, VALUE = range(7)


def load_spans(path: Path) -> list[tuple]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh]


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover.

    Children on several threads can overlap each other; the covered part
    is their union, clipped to the parent's interval.
    """
    children: dict[int, list] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c[START], s[START]), min(c[END], s[END]))
            for c in children.get(s[ID], ()) if c[END] > s[START] and c[START] < s[END]
        )
        out[s[ID]] = (s[END] - s[START]) - covered
    return out


def _ancestor_names(spans) -> dict[int, set]:
    by_id = {s[ID]: s for s in spans}
    memo: dict[int, set] = {}

    def names(span_id):
        if span_id is None:
            return set()
        if span_id not in memo:
            span = by_id[span_id]
            memo[span_id] = {span[NAME]} | names(span[PARENT])
        return memo[span_id]

    return {s[ID]: names(s[PARENT]) for s in spans}


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, result: dict) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, from its spans and the
    counters in the iteration's result (see child.py)."""
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total_s(name):
        return sum(s[END] - s[START] for s in named(name))

    def ratio(num, den):
        return num / den if den else 0.0

    ancestors = _ancestor_names(spans)
    selfs = self_times(spans)
    stages = [s[NAME].split(".")[1] for s in sorted(spans, key=lambda s: s[START])
              if s[NAME].startswith("pipeline.") and s[NAME].endswith(".plan")]
    out: dict[str, float] = {}
    for stage in stages:
        out[f"pipeline.{stage}.plan_s"] = total_s(f"pipeline.{stage}.plan")
        out[f"pipeline.{stage}.exec_s"] = total_s(f"pipeline.{stage}.exec")
    for name in ("corpus.lookup", "masker.mask", "masker.verify", "gateway.fingerprint",
                 "gateway.cache.get", "gateway.cache.put", "gateway.mock",
                 "runstore.append", "runstore.load"):
        out[f"{name}.calls"] = len(named(name))
        out[f"{name}.s"] = total_s(name)
    constrain_generates = sum(
        1 for s in named("gateway.generate") if "constrainer.constrain" in ancestors[s[ID]]
    )
    out["constrainer.attempts_per_unit"] = ratio(
        constrain_generates, len(named("constrainer.constrain"))
    )
    scorer_calls = sum(
        1 for s in named("gateway.score") if "scorer.score_item" in ancestors[s[ID]]
    )
    out["scorer.calls_per_row"] = ratio(scorer_calls, len(named("scorer.score_item")))
    out["scorer.score_item.self_s"] = sum(selfs[s[ID]] for s in named("scorer.score_item"))
    out["gateway.cache.hit_ratio"] = ratio(
        sum(s[VALUE] for s in named("gateway.cache.get")), len(named("gateway.cache.get"))
    )
    out["gateway.cache.put.bytes"] = sum(s[VALUE] for s in named("gateway.cache.put"))
    http = named("gateway.http")
    http_ms = [(s[END] - s[START]) * 1000.0 for s in http]
    out["gateway.http.requests"] = len(http)
    out["gateway.http.p50_ms"] = _percentile(http_ms, 50)
    out["gateway.http.p99_ms"] = _percentile(http_ms, 99)
    out["gateway.http.busy_s"] = union_length((s[START], s[END]) for s in http)
    out["gateway.retries"] = sum(1 for s in http if s[VALUE] != 200)
    out["gateway.sleep_s"] = sum(s[VALUE] for s in named("gateway.sleep"))
    out["gateway.duplicate_calls"] = result["duplicate_calls"]
    out["gateway.backend_calls_per_row"] = ratio(
        len(http) + len(named("gateway.mock")), result["rows"]
    )
    out["runstore.open.s"] = total_s("runstore.open")
    out["runstore.salvaged_bytes"] = result["salvaged_bytes"]
    out["runstore.append.bytes"] = result["appended_bytes"]
    out["runstore.load.rows"] = sum(s[VALUE] for s in named("runstore.load"))
    out["metrics.aggregate.s"] = total_s("metrics.aggregate")
    for kind in ("tables", "heatmap", "curves"):
        out[f"cli.report.{kind}_s"] = total_s(f"cli.report.{kind}")
    return out
