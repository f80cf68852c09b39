"""Tests for the benchmark's own helpers: the corpus generator, the HTTP
stub's echo tokens and the span reduction."""

from __future__ import annotations

import threading

import pytest

import corpusgen
import spans
from stub import StubServer
from suffbench.corpus import load_corpus
from suffbench.gateway import _WORD_POOL, Gateway, MockBackend, ModelEndpoint
from suffbench.prompts import load_template_set, render_scoring


@pytest.mark.parametrize("language", ["en", "fa"])
def test_corpus_is_a_function_of_the_seed(tmp_path, language):
    first = corpusgen.write_corpus(tmp_path / "a.jsonl", 7, language, 30).read_bytes()
    again = corpusgen.write_corpus(tmp_path / "b.jsonl", 7, language, 30).read_bytes()
    other = corpusgen.write_corpus(tmp_path / "c.jsonl", 8, language, 30).read_bytes()
    assert first == again
    assert first != other
    corpus = load_corpus(tmp_path / "a.jsonl", language)
    assert len(corpus) == 30
    for item in corpus:
        assert len(set(item.options.values())) == 4
        for text in item.options.values():
            assert set(text.split()) <= set(_WORD_POOL)


@pytest.fixture
def stub_server():
    server = StubServer(("127.0.0.1", 0), latency_s=0.0, reject_every=1_000_000)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.mark.parametrize("language", ["en", "fa"])
def test_stub_echo_tokens_split_at_the_continuation(tmp_path, stub_server, language):
    corpusgen.write_corpus(tmp_path / "c.jsonl", 3, language, 1)
    item = next(iter(load_corpus(tmp_path / "c.jsonl", language)))
    prompt = render_scoring(item, None, load_template_set("default-v1", language))
    port = stub_server.server_address[1]
    endpoint = ModelEndpoint(base_url=f"http://127.0.0.1:{port}/102", model_id="probe")
    mock = ModelEndpoint(base_url="mock://102", model_id="probe")
    for option in "ABCD":
        live = Gateway().score_continuation(endpoint, prompt.text, f" {option}")
        offline = Gateway().score_continuation(mock, prompt.text, f" {option}")
        assert live.continuation == offline.continuation == f" {option}"
        assert [t for t, _ in live.token_logprobs] == [" ", option]
    assert stub_server.stats() == {"requests": 4, "rejected": 0, "repeated": 0}


def test_stub_refuses_first_attempts_and_counts_repeats(stub_server):
    stub_server.reject_every = 2
    port = stub_server.server_address[1]
    endpoint = ModelEndpoint(base_url=f"http://127.0.0.1:{port}/103", model_id="embed")
    waits = []
    gateway = Gateway(sleep=waits.append)
    vectors = [gateway.embed(endpoint, text).vector for text in ("one", "two", "one")]
    assert vectors[0] == vectors[2]
    assert list(vectors[0]) == MockBackend(103).embed("embed", "one")["data"][0]["embedding"]
    # "two" is the second distinct payload: refused once, then retried
    assert waits == [Gateway.BACKOFF_BASE]
    assert stub_server.stats() == {"requests": 4, "rejected": 1, "repeated": 1}


def _span(span_id, parent, start, end, name="x"):
    return (span_id, parent, name, start, end, None, None)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(0, None, 0.0, 10.0),
        # two children on different threads overlap each other
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 2.0, 5.0),
        # a child running past its parent's end counts only inside it
        _span(3, 0, 8.0, 12.0),
        _span(4, 2, 2.5, 3.5),
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[4] == pytest.approx(1.0)


def test_union_length():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 1), (1, 2), (5, 6)]) == pytest.approx(3.0)
    assert spans.union_length([(0, 4), (1, 2)]) == pytest.approx(4.0)


def test_tracer_keeps_every_span_from_many_threads():
    import sys

    import tracing

    tracer = tracing.Tracer()

    def unit():
        for _ in range(300):
            tracer.call("leaf", tracer.call, "inner", int)

    def stage():
        threads = [threading.Thread(target=unit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        tracer.call("stage", stage, as_root=True)
    finally:
        sys.setswitchinterval(interval)
    recorded = {s[spans.ID]: s for s in tracer.spans}
    assert len(recorded) == len(tracer.spans) == 1 + 8 * 300 * 2
    (root,) = [s for s in tracer.spans if s[spans.NAME] == "stage"]
    for s in tracer.spans:
        if s[spans.NAME] == "leaf":
            assert s[spans.PARENT] == root[spans.ID]
        elif s[spans.NAME] == "inner":
            assert recorded[s[spans.PARENT]][spans.NAME] == "leaf"
