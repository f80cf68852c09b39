"""Spans around the program's public functions, for the traced runs.

A traced iteration patches functions where their callers look them up and
records one span per call: id, parent id, name, start, end, the unit's work
key and one number (bytes, rows, HTTP status or a hit flag). Spans stay in
memory until the iteration ends, then go to a JSON-lines file that
spans.py reduces to the per-layer metrics.

Recording is thread-safe: the pipeline runs units on worker threads. A
span opened on a thread with no open span hangs under `Tracer.root`, which
run_stage sets to the running stage's span.
"""

from __future__ import annotations

import functools
import hashlib
import json
import threading
import time
from pathlib import Path

import requests

from suffbench import gateway as gateway_mod
from suffbench import masker, pipeline
from suffbench.corpus import Corpus
from suffbench.gateway import Gateway, MockBackend, ResponseCache
from suffbench.runstore import RunStore

class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.root: int | None = None
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._answered: set = set()
        self.duplicate_calls = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, key=None, value_of=None, as_root=False, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`.

        The key defaults to the enclosing span's; value_of(args, result)
        gives the span's number. With as_root, spans opened meanwhile on
        threads with no open span become this span's children.
        """
        stack = self._stack()
        if stack:
            parent, parent_key = stack[-1]
        else:
            parent, parent_key = self.root, None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        key = parent_key if key is None else key
        stack.append((span_id, key))
        if as_root:
            self.root = span_id
        value = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if value_of is not None:
                value = value_of(args, result)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            if as_root:
                self.root = parent
            with self._lock:
                self.spans.append((span_id, parent, name, start, end, key, value))

    def count_answer(self, *request) -> None:
        """Count a backend answer to a request already answered in the run."""
        with self._lock:
            if request in self._answered:
                self.duplicate_calls += 1
            else:
                self._answered.add(request)

    def wrap(self, fn, name: str, key_of=None, value_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = key_of(*args) if key_of is not None else None
            return self.call(name, fn, *args, key=key, value_of=value_of, **kwargs)
        return traced

    def patch(self, owner, attr: str, name: str, key_of=None, value_of=None) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, key_of, value_of))

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- patching the program ------------------------------------------------------


def _unit_key(e) -> tuple:
    return (e.item_id, e.language, e.generator_model, e.level)


def install(tracer: Tracer) -> None:
    """Patch every traced function where its callers look it up.

    pipeline imports mask_explanation, constrain_explanation, score_item
    and aggregate by name; render_scoring imports verify_masked from
    masker at call time; the gateway calls request_fingerprint, the cache
    and the mock through module and class attributes.
    """
    tracer.patch(Corpus, "__getitem__", "corpus.lookup")
    tracer.patch(pipeline, "mask_explanation", "masker.mask",
                 key_of=lambda explanation, item: _unit_key(explanation))
    tracer.patch(masker, "verify_masked", "masker.verify")
    tracer.patch(pipeline, "constrain_explanation", "constrainer.constrain",
                 key_of=lambda item, base, level, *rest, **kw:
                 (item.id, item.language, base.generator_model, level))
    tracer.patch(pipeline, "score_item", "scorer.score_item",
                 key_of=lambda gw, scorer, item, explanation, *rest:
                 _unit_key(explanation) if explanation
                 else (item.id, item.language, "baseline", "noexp"))
    tracer.patch(pipeline, "aggregate", "metrics.aggregate")
    tracer.patch(gateway_mod, "request_fingerprint", "gateway.fingerprint")
    tracer.patch(ResponseCache, "get", "gateway.cache.get",
                 value_of=lambda args, body: int(body is not None))
    tracer.patch(ResponseCache, "put", "gateway.cache.put",
                 value_of=lambda args, result: len(args[2]))
    for method in ("generate", "score", "embed"):
        tracer.patch(
            MockBackend, method, "gateway.mock",
            value_of=lambda args, result, method=method:
            tracer.count_answer(method, args[0].seed, *args[1:]),
        )
    for method, name in (("generate", "gateway.generate"),
                         ("score_continuation", "gateway.score"),
                         ("embed", "gateway.embed")):
        tracer.patch(Gateway, method, name)
    for method in ("append_explanation", "append_mask", "append_score",
                   "append_similarity", "append_audit"):
        tracer.patch(RunStore, method, "runstore.append")
    for method in ("load_explanations", "load_masks", "load_scores",
                   "load_similarities", "load_audit", "load_aggregates"):
        tracer.patch(RunStore, method, "runstore.load",
                     value_of=lambda args, rows: len(rows))


class TracedSession(requests.Session):
    """Session whose POSTs are spans carrying the HTTP status."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self._tracer = tracer

    def post(self, url, json=None, **kwargs):
        def status(args, response):
            if response.status_code == 200:
                self._tracer.count_answer(url, _digest(json))
            return response.status_code
        return self._tracer.call("gateway.http", super().post, url, json=json,
                                 value_of=status, **kwargs)


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def traced_gateway(tracer: Tracer, cache_dir: str | None) -> Gateway:
    """The program's Gateway with a recording session and sleep."""
    sleep = tracer.wrap(time.sleep, "gateway.sleep", value_of=lambda args, _: args[0])
    return Gateway(cache_dir, sleep=sleep, session=TracedSession(tracer))


def run_stage(tracer: Tracer, ctx, stage: str):
    """One stage through its public plan_<stage>/run_<stage> pair, which is
    what pipeline.run_stage does through its private dispatch."""
    units = tracer.call(f"pipeline.{stage}.plan", getattr(pipeline, f"plan_{stage}"), ctx)
    return tracer.call(
        f"pipeline.{stage}.exec", getattr(pipeline, f"run_{stage}"), ctx, units, as_root=True
    )
