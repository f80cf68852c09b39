from __future__ import annotations

import base64
import hashlib
import json
import math
import os
import random
import re
import struct
import sys
import threading
import time
from collections import Counter

import pytest
import requests
from hypothesis import given
from hypothesis import strategies as st

from suffbench import transport
from suffbench.constrainer import count_words, extract_answer_and_explanation
from suffbench.gateway import (
    _READ_SIZE,
    EmbeddingDimensionError,
    EmptyCompletion,
    Gateway,
    GatewayError,
    GenerationResult,
    LogprobResult,
    LogprobsUnsupported,
    MockBackend,
    ModelEndpoint,
    RateLimiter,
    RequestFailed,
    ResponseCache,
    RetriesExhausted,
    TokenAlignmentError,
    _embed_payload,
    _logprob_result,
    _score_payload,
    request_fingerprint,
)
from suffbench.prompts import (
    DEFAULT_TEMPLATE_ID,
    RenderedPrompt,
    load_template_set,
    render_scoring,
)
from suffbench.scorer import score_item, score_options, softmax_probs
from suffbench.transport import HttpSession

from tests.conftest import (
    CHAT_BODY,
    DROP,
    OPTION_LOGPROBS,
    FixtureServer,
    caps_list_prompts,
    drops_list_prompts,
    mock_routes,
    option_logprobs,
    rejects_list_prompts,
    route_mock,
)

SCORING_PROMPT = "Question: Q?\nThe answer is "


def prompt_of(text: str) -> RenderedPrompt:
    return RenderedPrompt("generate", text)


def live_endpoint(server, **kw) -> ModelEndpoint:
    defaults = {"base_url": server.base_url, "model_id": "live-1", "requests_per_minute": 10_000}
    defaults.update(kw)
    return ModelEndpoint(**defaults)


MOCK = ModelEndpoint(base_url="mock://7", model_id="mock-gen")


class VirtualClock:
    def __init__(self):
        self.now = 0.0
        self.sleeps: list[float] = []

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += max(seconds, 0.0)


class FakeResponse:
    def __init__(self, status_code: int, body: dict | bytes):
        self.status_code = status_code
        self.content = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")


class FakeSession:
    """Scripted transport: each entry is a status code, a (status, body)
    pair with a dict or raw bytes body, or an exception to raise."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers or {}, "timeout": timeout})
        action = self.script.pop(0)
        if isinstance(action, Exception):
            raise action
        if isinstance(action, tuple):
            status, body = action
        else:
            status, body = action, {"error": {"message": "scripted failure"}}
        return FakeResponse(status, body)


class TestFingerprint:
    def test_key_order_canonicalized(self):
        assert request_fingerprint({"a": 1, "b": [2, 3]}) == request_fingerprint({"b": [2, 3], "a": 1})

    def test_different_payloads_differ(self):
        assert request_fingerprint({"a": 1}) != request_fingerprint({"a": 2})

    def test_cache_salt_changes_fingerprint(self):
        base = {"kind": "chat.completions", "model": "m", "prompt": "p", "temperature": 0.0, "max_tokens": 4}
        salted = dict(base, cache_salt="retry-1")
        assert request_fingerprint(base) != request_fingerprint(salted)


# the cache key of one entry of each kind, a generation, a scored row and
# a group of embedded texts, and the SHA-256 of the entry's bytes: a change
# to the payloads or to their canonical JSON orphans every cache already on
# disk, and one to an entry's layout, or to the mock's numbers, gives other
# bytes. CI runs this on every Python version it supports, so an entry
# written on one is read on another. The generation key and entry are the
# ones the store has always written; a scored row's key and entry replaced
# those of the row's raw reply, and a group's those of its raw reply
CACHE_KEYS = {
    "generate": (
        lambda gw: gw.generate(
            MOCK, prompt_of("Explain in at most 12 words: چرا آسمان آبی است? naïve"),
            temperature=0.0, max_tokens=64, cache_salt="retry-1",
        ),
        "79dceae9b3fc92137a2ca11c7ed3a725ab792400224fff40030ce6d84f3e5de4",
        "fa3827ca9a14f7e654516d36235d3a4ae284ab534ff4604b598c80f0bec242fd",
    ),
    "score": (
        lambda gw: gw.score_prompts(
            MOCK, ["Question: چرا؟\nThe answer is"], (" A", " B", " C", " D")
        ),
        "beafd2cc137ea3b0009a7785e394227744e7e345431c14dc3019ad84f905ff07",
        "85880ef1fed764ae1a271a045c748486b34e5078e36ee89cd07d087bea1db471",
    ),
    "embed": (
        lambda gw: gw.embed_groups(MOCK, [["نور خورشید — café", "نور"]]),
        "c0a19e1c4f7b59ce145969a5d776a0529545ffe20d602150308d0c55f39b06d1",
        "f66de7e948084502208cabffe69c0c1fea0e4905237548c824c89d958352b195",
    ),
}


@pytest.mark.parametrize("kind", sorted(CACHE_KEYS))
def test_cache_keys_are_pinned(kind, tmp_path):
    call, key, _ = CACHE_KEYS[kind]
    call(Gateway(cache_dir=tmp_path))
    assert [path.stem for path in tmp_path.rglob("*.json")] == [key]


@pytest.mark.parametrize("kind", sorted(CACHE_KEYS))
def test_cache_entries_are_pinned(kind, tmp_path):
    call, _, digest = CACHE_KEYS[kind]
    first = call(Gateway(cache_dir=tmp_path))
    [entry] = tmp_path.rglob("*.json")
    assert hashlib.sha256(entry.read_bytes()).hexdigest() == digest
    # and a hit rebuilds what the miss returned
    assert call(Gateway(cache_dir=tmp_path)) == first


class TestRateLimiter:
    def test_no_waiting_under_limit(self):
        vc = VirtualClock()
        limiter = RateLimiter(100, clock=vc.clock, sleep=vc.sleep)
        for _ in range(5):
            limiter.acquire()
        assert vc.sleeps == []

    def test_any_60s_window_bounded(self):
        vc = VirtualClock()
        limit = 3
        limiter = RateLimiter(limit, clock=vc.clock, sleep=vc.sleep)
        admissions = []
        for _ in range(10):
            limiter.acquire()
            admissions.append(vc.now)
        # bounded half-open windows: the (i+limit)-th admission must sit
        # at least 60s after the i-th
        for i in range(len(admissions) - limit):
            assert admissions[i + limit] - admissions[i] >= 60.0
        assert admissions == sorted(admissions)

    def test_burst_does_not_carry_over(self):
        vc = VirtualClock()
        limiter = RateLimiter(2, clock=vc.clock, sleep=vc.sleep)
        times = []
        for _ in range(6):
            limiter.acquire()
            times.append(vc.now)
        assert times == [0.0, 0.0, 60.0, 60.0, 120.0, 120.0]

    def test_thread_safe_counting(self):
        limiter = RateLimiter(1000)
        done = []

        def work():
            limiter.acquire()
            done.append(1)

        threads = [threading.Thread(target=work) for _ in range(50)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(done) == 50

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            RateLimiter(0)


class TestMockBackend:
    def test_generation_deterministic_across_gateways(self, tmp_path):
        prompt = prompt_of("Question: why?\nOptions:\nA) a\nB) b\nC) c\nD) d")
        first = Gateway(cache_dir=tmp_path / "a").generate(MOCK, prompt)
        second = Gateway(cache_dir=tmp_path / "b").generate(MOCK, prompt)
        assert first.text == second.text
        # both gateways key the request the same way
        assert len(cache_files(tmp_path / "a")) == 1
        assert cache_files(tmp_path / "a") == cache_files(tmp_path / "b")

    def test_different_seed_changes_output(self):
        prompt = prompt_of("Question: why?")
        a = Gateway().generate(MOCK, prompt)
        b = Gateway().generate(ModelEndpoint(base_url="mock://8", model_id="mock-gen"), prompt)
        assert a.text != b.text

    def test_unconstrained_output_is_parseable(self):
        result = Gateway().generate(MOCK, prompt_of("Question: why?"))
        letter, explanation = extract_answer_and_explanation(result)
        assert letter in "ABCD"
        assert count_words(explanation) > 0

    def test_budget_prompt_en_gets_exactly_budget_words(self):
        result = Gateway().generate(MOCK, prompt_of("Rewrite using at most 7 words."))
        assert count_words(result.text) == 7

    def test_budget_prompt_fa_gets_exactly_budget_words(self):
        result = Gateway().generate(MOCK, prompt_of("بازنویسی با حداکثر 5 کلمه انجام بده."))
        assert count_words(result.text) == 5

    def test_scoring_uniform_minus_one_per_token(self):
        result = Gateway().score_continuation(MOCK, SCORING_PROMPT, " A")
        assert result.continuation == " A"
        assert [lp for _, lp in result.token_logprobs] == [-1.0]
        assert result.total_logprob == -1.0

    def test_scoring_multiword_continuation(self):
        result = Gateway().score_continuation(MOCK, SCORING_PROMPT, " two words")
        assert "".join(t for t, _ in result.token_logprobs) == " two words"
        assert result.total_logprob == -2.0

    def test_embedding_list_input_gets_one_item_per_text(self):
        backend = MockBackend(7)
        one = backend.embed("m", "a")
        many = backend.embed("m", ("a", "b"))
        assert backend.counts["embeddings"] == 2
        assert [item["index"] for item in many["data"]] == [0, 1]
        assert many["data"][0] == one["data"][0]
        assert many["data"][1] == {**backend.embed("m", "b")["data"][0], "index": 1}

    def test_embedding_unit_norm_and_fixed_dim(self):
        gw = Gateway()
        result = gw.embed(MOCK, "some text")
        assert len(result.vector) == 32
        assert math.isqrt  # noqa: B018 - keep flake quiet about import use
        assert abs(sum(x * x for x in result.vector) - 1.0) < 1e-9
        assert gw.embed(MOCK, "some text").vector == result.vector
        assert gw.embed(MOCK, "other text").vector != result.vector

    def test_counters_track_backend_calls(self):
        gw = Gateway()
        gw.generate(MOCK, prompt_of("p1"))
        gw.generate(MOCK, prompt_of("p2"))
        gw.score_continuation(MOCK, SCORING_PROMPT, " A")
        gw.embed(MOCK, "text")
        assert gw.mock_counts() == {"generate": 2, "logprobs": 1, "embeddings": 1}


class TestCache:
    def test_mock_hit_skips_backend(self, tmp_path):
        gw = Gateway(cache_dir=tmp_path)
        prompt = prompt_of("cache me")
        first = gw.generate(MOCK, prompt)
        second = gw.generate(MOCK, prompt)
        assert first.text == second.text
        assert gw.mock_counts()["generate"] == 1

    def test_cache_shared_between_gateways(self, tmp_path):
        prompt = prompt_of("cache me")
        Gateway(cache_dir=tmp_path).generate(MOCK, prompt)
        gw2 = Gateway(cache_dir=tmp_path)
        gw2.generate(MOCK, prompt)
        assert gw2.mock_counts()["generate"] == 0

    def test_http_hit_skips_network(self, server, tmp_path):
        endpoint = live_endpoint(server)
        gw = Gateway(cache_dir=tmp_path)
        prompt = prompt_of("net once")
        gw.generate(endpoint, prompt)
        gw.generate(endpoint, prompt)
        assert len(server.requests) == 1

    def test_corrupt_cache_entry_fails_loudly(self, tmp_path):
        gw = Gateway(cache_dir=tmp_path)
        prompt = prompt_of("poison")
        gw.generate(MOCK, prompt)
        [entry] = tmp_path.rglob("*.json")
        ResponseCache(tmp_path).put(entry.stem, b"\xff not json")
        with pytest.raises(GatewayError, match="unreadable response body"):
            Gateway(cache_dir=tmp_path).generate(MOCK, prompt)

    @pytest.mark.parametrize("body", [
        # a 200 that is not JSON, such as a proxy's error page
        b"<html>Bad gateway</html>",
        # an integer past int's string conversion limit, which json refuses
        # with a bare ValueError
        b'{"choices": [{"index": 1' + b"0" * 5000 + b"}]}",
    ], ids=["html", "long-int"])
    def test_unreadable_reply_is_not_cached(self, body, tmp_path):
        session = FakeSession([(200, body), (200, CHAT_BODY)])
        endpoint = ModelEndpoint(base_url="http://fake", model_id="m")
        with pytest.raises(GatewayError, match="unreadable response body"):
            Gateway(cache_dir=tmp_path, session=session).generate(endpoint, prompt_of("p"))
        assert not [path for path in tmp_path.rglob("*") if path.is_file()]
        result = Gateway(cache_dir=tmp_path, session=session).generate(endpoint, prompt_of("p"))
        assert len(session.calls) == 2
        assert result.text.startswith("Answer: B")

    def test_a_lone_reply_is_cached_as_its_bytes(self, tmp_path):
        # the server indents its JSON and escapes non-ASCII, as the cache's
        # own encoding does not: a generation's entry is the reply's bytes as
        # they came. A scored row's entry and a group's hold their checked
        # results, not a reply (TestRowEntries, TestGroupEntries)
        generation = MockBackend(7).generate("mock-gen", "پرسش؟", 0.0, 512)
        generation["choices"][0]["message"]["content"] = "Answer: B\nExplanation: نور خورشید"
        reply = json.dumps(generation, indent=2).encode("ascii")
        endpoint = ModelEndpoint(base_url="http://fake", model_id="mock-gen")
        session = FakeSession([(200, reply)])
        live = Gateway(cache_dir=tmp_path, session=session).generate(endpoint, prompt_of("پرسش؟"))
        assert list(cache_files(tmp_path).values()) == [reply]
        fresh = FakeSession([])
        assert Gateway(cache_dir=tmp_path, session=fresh).generate(endpoint, prompt_of("پرسش؟")) == live
        assert fresh.calls == []
        assert live.text.endswith("نور خورشید")

    @pytest.mark.parametrize("item", [None, "x"], ids=repr)
    @pytest.mark.parametrize("kind", ["generate", "score_continuation"])
    def test_a_choice_that_is_not_an_object_is_an_empty_completion(self, tmp_path, kind, item):
        # a generation is cached only once its reply passes its checks, and a
        # continuation sent on its own is cached by no entry: either reply
        # leaves no entry, so each call sends it again
        endpoint = ModelEndpoint(base_url="http://fake", model_id="m")

        def call(gw):
            if kind == "generate":
                return gw.generate(endpoint, prompt_of("p"))
            return gw.score_continuation(endpoint, SCORING_PROMPT, " A")

        with pytest.raises(EmptyCompletion, match="carries a non-object choices item") as live:
            call(Gateway(session=FakeSession([(200, {"choices": [item]})])))
        assert "a m request to /" in str(live.value)
        session = FakeSession([(200, {"choices": [item]})] * 2)
        for _ in range(2):
            with pytest.raises(EmptyCompletion, match="non-object") as cached:
                call(Gateway(cache_dir=tmp_path, session=session))
            if kind == "generate":
                assert re.search("response for request [0-9a-f]{64} ", str(cached.value))
            assert cache_files(tmp_path) == {}
        assert len(session.calls) == 2

    @pytest.mark.parametrize("message, error", [
        ("x", "carries a non-object message"),
        ({"role": "assistant", "content": 5}, "carries a non-string message content"),
    ], ids=["message", "content"])
    def test_a_message_of_the_wrong_shape_is_an_empty_completion(
        self, message, error, tmp_path, monkeypatch
    ):
        endpoint = ModelEndpoint(base_url="http://fake", model_id="m")
        choice = {"index": 0, "message": message, "finish_reason": "stop"}
        session = FakeSession([(200, {"choices": [choice]})] * 3)
        with pytest.raises(EmptyCompletion, match=error) as live:
            Gateway(session=session).generate(endpoint, prompt_of("p"))
        assert "response for a m request to /chat/completions " in str(live.value)
        # with a cache, the reply leaves no entry, on HTTP as from the mock
        for _ in range(2):
            with pytest.raises(EmptyCompletion, match=error):
                Gateway(cache_dir=tmp_path, session=session).generate(endpoint, prompt_of("p"))
        assert len(session.calls) == 3
        monkeypatch.setattr(MockBackend, "generate", lambda *_: {"choices": [choice]})
        gw = Gateway(cache_dir=tmp_path)
        for _ in range(2):
            with pytest.raises(EmptyCompletion, match=error):
                gw.generate(MOCK, prompt_of("p"))
        assert cache_files(tmp_path) == {}

    @pytest.mark.parametrize("choice", [
        {"message": {"role": "assistant"}},
        {"message": {"role": "assistant", "content": None}},
        {"message": None},
        {},
    ], ids=repr)
    def test_a_missing_or_null_content_is_an_empty_text(self, choice):
        endpoint = ModelEndpoint(base_url="http://fake", model_id="m")
        session = FakeSession([(200, {"choices": [{"index": 0, **choice}]})])
        result = Gateway(session=session).generate(endpoint, prompt_of("p"))
        assert result == GenerationResult(text="", finish_reason="other")

    def test_cache_salt_keys_the_cache_not_the_wire(self, server, tmp_path):
        endpoint = live_endpoint(server)
        gw = Gateway(cache_dir=tmp_path)
        gw.generate(endpoint, prompt_of("p"))
        plain = set(cache_files(tmp_path))
        gw.generate(endpoint, prompt_of("p"), cache_salt="retry-1")
        salted = set(cache_files(tmp_path)) - plain
        assert len(plain) == len(salted) == 1
        first, second = server.requests
        assert (second["path"], second["payload"]) == (first["path"], first["payload"])
        fresh = Gateway(cache_dir=tmp_path)
        fresh.generate(endpoint, prompt_of("p"))
        fresh.generate(endpoint, prompt_of("p"), cache_salt="retry-1")
        assert len(server.requests) == 2

    def test_roundtrip_bytes(self, tmp_path):
        cache = ResponseCache(tmp_path)
        key = "ab" + "0" * 62
        assert cache.get(key) is None
        cache.put(key, "متن".encode("utf-8"))
        assert cache.get(key) == "متن".encode("utf-8")

    def test_entry_longer_than_one_read_reads_back_whole(self, tmp_path):
        # get reads _READ_SIZE bytes at a time: an entry of three reads and
        # a few bytes more comes back byte for byte
        cache = ResponseCache(tmp_path)
        key = "cd" + "0" * 62
        body = bytes(range(256)) * (3 * _READ_SIZE // 256) + "متن".encode("utf-8")
        cache.put(key, body)
        assert cache.get(key) == body


class TestRetryPolicy:
    def run_generate(self, script, **endpoint_kw):
        vc = VirtualClock()
        session = FakeSession(script)
        gw = Gateway(clock=vc.clock, sleep=vc.sleep, session=session)
        endpoint = ModelEndpoint(base_url="http://fake", model_id="m", **endpoint_kw)
        result = gw.generate(endpoint, prompt_of("p"))
        return result, session, vc

    def test_two_503s_then_success(self):
        result, session, vc = self.run_generate(
            [503, 503, (200, CHAT_BODY)], max_retries=2
        )
        assert result.text.startswith("Answer: B")
        assert len(session.calls) == 3
        assert vc.sleeps == [0.5, 1.0]

    def test_429_is_retryable(self):
        result, session, _ = self.run_generate([429, (200, CHAT_BODY)], max_retries=1)
        assert len(session.calls) == 2

    def test_timeout_is_retryable(self):
        result, session, _ = self.run_generate(
            [requests.Timeout("slow"), (200, CHAT_BODY)], max_retries=1
        )
        assert len(session.calls) == 2

    @pytest.mark.parametrize("error", [
        requests.Timeout("slow"), TimeoutError("slow"),
        requests.ConnectionError("refused"), ConnectionError("refused"),
    ], ids=lambda error: f"{type(error).__module__}.{type(error).__name__}")
    def test_transport_errors_are_retried_with_backoff(self, error):
        result, session, vc = self.run_generate([error, error, (200, CHAT_BODY)], max_retries=2)
        assert result.text.startswith("Answer: B")
        assert len(session.calls) == 3
        assert vc.sleeps == [0.5, 1.0]

    @pytest.mark.parametrize("error", [
        requests.exceptions.InvalidURL("no host"), ValueError("bad payload"), OSError("disk"),
    ], ids=lambda error: f"{type(error).__module__}.{type(error).__name__}")
    def test_other_errors_raise_after_one_attempt(self, error):
        vc = VirtualClock()
        session = FakeSession([error, (200, CHAT_BODY)])
        gw = Gateway(clock=vc.clock, sleep=vc.sleep, session=session)
        endpoint = ModelEndpoint(base_url="http://fake", model_id="m", max_retries=3)
        with pytest.raises(type(error)):
            gw.generate(endpoint, prompt_of("p"))
        assert len(session.calls) == 1
        assert vc.sleeps == []

    def test_retries_exhausted(self):
        with pytest.raises(RetriesExhausted, match="after 2 attempts"):
            self.run_generate([503, 503], max_retries=1)

    def test_400_fails_immediately_with_body(self):
        with pytest.raises(RequestFailed) as excinfo:
            self.run_generate([(400, {"error": {"message": "bad request"}})], max_retries=3)
        assert excinfo.value.status == 400
        assert "bad request" in excinfo.value.body

    def test_api_key_header_sent(self, monkeypatch):
        monkeypatch.setenv("FAKE_KEY", "sk-123")
        session = FakeSession([(200, CHAT_BODY)])
        gw = Gateway(session=session)
        endpoint = ModelEndpoint(
            base_url="http://fake", model_id="m", api_key_ref="FAKE_KEY"
        )
        gw.generate(endpoint, prompt_of("p"))
        assert session.calls[0]["headers"]["Authorization"] == "Bearer sk-123"

    def test_missing_api_key_env_fails(self, monkeypatch):
        # load_config refuses such an endpoint; one built in code fails at
        # its first request, before anything is sent
        monkeypatch.delenv("NO_SUCH_KEY", raising=False)
        session = FakeSession([(200, CHAT_BODY)])
        gw = Gateway(session=session)
        endpoint = ModelEndpoint(
            base_url="http://fake", model_id="m", api_key_ref="NO_SUCH_KEY"
        )
        with pytest.raises(GatewayError, match="NO_SUCH_KEY"):
            gw.generate(endpoint, prompt_of("p"))
        assert session.calls == []

    @pytest.mark.parametrize("base_url", ["ftp://127.0.0.1:9/x", "127.0.0.1:8000/v1", "file:///x"])
    def test_a_base_url_no_request_can_reach_is_refused(self, base_url):
        with pytest.raises(ValueError, match="not an http, https or mock URL"):
            ModelEndpoint(base_url=base_url, model_id="m")

    @pytest.mark.parametrize("base_url", [
        "http://h", "HTTPS://h/v1", "mock://7", "http://user:p%40ss@h:8000/v1",
        "http://[::1]:8000/v1", "mock://102?probe=overlap",
    ])
    def test_http_https_and_mock_urls_are_taken(self, base_url):
        assert ModelEndpoint(base_url=base_url, model_id="m").base_url == base_url


class TestLiveGeneration:
    def test_wire_payload_and_result(self, server):
        endpoint = live_endpoint(server)
        result = Gateway().generate(
            endpoint, prompt_of("Question: Q?"), temperature=0.0, max_tokens=128
        )
        assert result.text == "Answer: B\nExplanation: Light drives photosynthesis."
        assert result.finish_reason == "stop"
        sent = server.requests[0]
        assert sent["path"] == "/chat/completions"
        assert sent["payload"]["messages"] == [{"role": "user", "content": "Question: Q?"}]
        assert sent["payload"]["temperature"] == 0.0
        assert sent["payload"]["max_tokens"] == 128

    def test_unknown_finish_reason_mapped_to_other(self, server):
        server.route(
            "/chat/completions",
            lambda payload: {
                "choices": [{"message": {"content": "text"}, "finish_reason": "content_filter"}]
            },
        )
        result = Gateway().generate(live_endpoint(server), prompt_of("p"))
        assert result.finish_reason == "other"


class TestLiveScoring:
    def test_single_token_sum(self, server):
        result = Gateway().score_continuation(live_endpoint(server), SCORING_PROMPT, " A")
        # hand-summed from the fixture's logprob array
        assert result.total_logprob == -1.6875
        assert result.token_logprobs == ((" A", -1.6875),)

    def test_multi_token_sum(self, server):
        result = Gateway().score_continuation(live_endpoint(server), SCORING_PROMPT, " B")
        assert result.total_logprob == -1.5625
        assert result.token_logprobs == ((" ", -0.5), ("B", -1.0625))

    def test_wire_payload_uses_echo_mode(self, server):
        Gateway().score_continuation(live_endpoint(server), SCORING_PROMPT, " A")
        sent = server.requests[0]
        assert sent["path"] == "/completions"
        assert sent["payload"]["prompt"] == SCORING_PROMPT + " A"
        assert sent["payload"]["max_tokens"] == 0
        assert sent["payload"]["echo"] is True
        assert sent["payload"]["logprobs"] == 1

    def test_misaligned_boundary_is_fatal(self, server):
        with pytest.raises(TokenAlignmentError, match="expected 27"):
            Gateway().score_continuation(
                live_endpoint(server), "Question: R?\nThe answer is ", " A"
            )

    def test_missing_logprobs_is_fatal(self, server):
        with pytest.raises(LogprobsUnsupported, match="no logprobs"):
            Gateway().score_continuation(
                live_endpoint(server), "Question: S?\nThe answer is ", " A"
            )

    def test_empty_continuation_rejected(self, server):
        with pytest.raises(ValueError, match="non-empty"):
            Gateway().score_continuation(live_endpoint(server), SCORING_PROMPT, "")

    def test_logprob_result_validates_concatenation(self):
        with pytest.raises(TokenAlignmentError):
            LogprobResult(" A", ((" B", -1.0),))


OPTIONS = (" A", " B", " C", " D")
FA_PROMPT = "پرسش: چرا آسمان آبی است؟\nپاسخ "


def cache_files(root) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(root.rglob("*.json"))}


def list_reply(prompt_text, continuations, model="m", seed=7) -> dict:
    """The reply an endpoint that takes list prompts gives, as mock://<seed>:
    `prompt_text` is every continuation's prompt, or a sequence of them."""
    if isinstance(prompt_text, str):
        prompt_text = [prompt_text] * len(continuations)
    return MockBackend(seed).score(model, tuple(prompt_text), tuple(continuations))


def score_row(gw, endpoint, prompt_text) -> dict[str, float]:
    """scorer.score_options of the scoring prompt `prompt_text`: its four
    options as one list request, and one request for each option the
    endpoint refuses in that list."""
    return score_options(gw, endpoint, RenderedPrompt("score", prompt_text))


class TestScoreContinuations:
    """One prompt's continuations through score_prompts: a row, one cache
    entry, and one list request if the cache misses it."""

    def test_results_match_single_calls_which_cache_nothing(self, tmp_path):
        # mock:// in process, and the same seed over HTTP, as a row and one
        # continuation at a time: every result agrees, the row is one cache
        # entry, and a continuation sent on its own is cached by none
        with FixtureServer() as server:
            endpoints = {
                "mock": ModelEndpoint(base_url="mock://7", model_id="probe"),
                "http": ModelEndpoint(base_url=route_mock(server, 7), model_id="probe",
                                      requests_per_minute=10_000),
            }
            results, files, sent = {}, {}, {}
            for name, endpoint in endpoints.items():
                for way in ("batched", "single"):
                    gw = Gateway(cache_dir=tmp_path / name / way)
                    before = len(server.requests)
                    if way == "batched":
                        [got] = gw.score_prompts(endpoint, [FA_PROMPT], OPTIONS)
                    else:
                        got = [gw.score_continuation(endpoint, FA_PROMPT, c) for c in OPTIONS]
                    results[name, way] = got
                    files[name, way] = cache_files(tmp_path / name / way)
                    sent[name, way] = len(server.requests) - before
                    gw.close()
        assert len(set(map(tuple, results.values()))) == 1
        assert [r.continuation for r in results["mock", "batched"]] == list(OPTIONS)
        assert len(files["mock", "batched"]) == 1
        assert files["http", "batched"] == files["mock", "batched"]
        assert files["mock", "single"] == files["http", "single"] == {}
        assert sent == {("mock", "batched"): 0, ("mock", "single"): 0,
                        ("http", "batched"): 1, ("http", "single"): 4}

    def test_mock_scores_a_prompt_in_one_call(self):
        gw = Gateway()
        gw.score_prompts(MOCK, [SCORING_PROMPT], OPTIONS)
        assert gw.mock_counts() == {"generate": 0, "logprobs": 1, "embeddings": 0}

    def test_a_row_is_keyed_by_its_continuations_in_order(self, tmp_path):
        order = (" D", " C", " B", " A")
        with FixtureServer() as server:
            endpoint = live_endpoint(server, base_url=route_mock(server, 7))
            warm = Gateway(cache_dir=tmp_path)
            [expected] = warm.score_prompts(endpoint, [SCORING_PROMPT], OPTIONS)
            warm.close()
            del server.requests[:]
            fresh = Gateway(cache_dir=tmp_path)
            [again] = fresh.score_prompts(endpoint, [SCORING_PROMPT], OPTIONS)
            assert server.requests == []
            [got] = fresh.score_prompts(endpoint, [SCORING_PROMPT], order)
            fresh.close()
        assert again == expected
        assert got == expected[::-1]
        [sent] = server.requests
        assert sent["payload"] == {
            "model": "live-1", "prompt": [SCORING_PROMPT + c for c in order],
            "max_tokens": 0, "echo": True, "logprobs": 1,
        }
        assert len(cache_files(tmp_path)) == 2

    def test_a_cached_row_sends_nothing(self, tmp_path):
        session = FakeSession([])
        endpoint = ModelEndpoint(base_url="http://fake", model_id="m")
        key = request_fingerprint(_score_payload("m", SCORING_PROMPT, OPTIONS))
        ResponseCache(tmp_path).put(key, json.dumps({
            "tokens": [[" ", "A"], [" B"], [" C"], [" D"]],
            "token_logprobs": [[-0.5, -0.25], [-1.0], [-1.0], [-2.0]],
        }).encode("utf-8"))
        [got] = Gateway(cache_dir=tmp_path, session=session).score_prompts(
            endpoint, [SCORING_PROMPT], OPTIONS
        )
        assert got[0] == LogprobResult(" A", ((" ", -0.5), ("A", -0.25)))
        assert [r.total_logprob for r in got] == [-0.75, -1.0, -1.0, -2.0]
        assert session.calls == []

    def test_entries_of_older_layouts_are_never_read(self, tmp_path, monkeypatch):
        # a cache written when each option was an entry of its own, and one
        # written when a row's entry was its raw one-row list reply: the row
        # misses, so it is sent once, and no older entry is looked up
        cache = ResponseCache(tmp_path)
        for c in OPTIONS:
            key = request_fingerprint({
                "kind": "completions.logprobs", "model": "m",
                "prompt": SCORING_PROMPT, "continuation": c,
            })
            cache.put(key, json.dumps(list_reply(SCORING_PROMPT, [c])).encode("utf-8"))
        key = request_fingerprint({
            "kind": "completions.logprobs", "model": "m",
            "prompt": SCORING_PROMPT, "continuations": list(OPTIONS),
        })
        cache.put(key, json.dumps(list_reply(SCORING_PROMPT, OPTIONS)).encode("utf-8"))
        old = {name.removesuffix(".json") for name in cache_files(tmp_path)}
        reads = cache_reads(monkeypatch)
        session = FakeSession([(200, list_reply(SCORING_PROMPT, OPTIONS))])
        endpoint = ModelEndpoint(base_url="http://fake", model_id="m")
        [got] = Gateway(cache_dir=tmp_path, session=session).score_prompts(
            endpoint, [SCORING_PROMPT], OPTIONS
        )
        assert got == Gateway().score_prompts(MOCK, [SCORING_PROMPT], OPTIONS)[0]
        assert [len(call["json"]["prompt"]) for call in session.calls] == [4]
        assert len(reads) == 1 and not old & set(reads)
        assert len(cache_files(tmp_path)) == len(old) + 1

    def test_choices_out_of_index_order_are_mapped_by_index(self, server):
        def reversed_choices(payload):
            reply = option_logprobs(payload)
            return {**reply, "choices": reply["choices"][::-1]}

        server.route("/completions", reversed_choices)
        [got] = Gateway().score_prompts(live_endpoint(server), [SCORING_PROMPT], OPTIONS)
        assert [r.continuation for r in got] == list(OPTIONS)
        assert [r.total_logprob for r in got] == [OPTION_LOGPROBS[c[-1]] for c in OPTIONS]
        [sent] = server.requests
        assert [prompt[-1] for prompt in sent["payload"]["prompt"]] == ["A", "B", "C", "D"]

    @pytest.mark.parametrize("fault", ["missing", "extra", "duplicate", "out of range", "no index"])
    def test_a_reply_without_one_choice_per_prompt_is_fatal(self, fault, tmp_path):
        other = "Question: R?\nThe answer is "
        bad = list_reply(other, OPTIONS)
        choices = bad["choices"]
        if fault == "missing":
            del choices[2]
        elif fault == "extra":
            choices.append({**choices[0], "index": 4})
        elif fault == "duplicate":
            choices[2]["index"] = 1
        elif fault == "out of range":
            choices[2]["index"] = 4
        else:
            del choices[2]["index"]
        session = FakeSession([(200, list_reply(SCORING_PROMPT, OPTIONS)), (200, bad)])
        gw = Gateway(cache_dir=tmp_path, session=session)
        endpoint = ModelEndpoint(base_url="http://fake", model_id="m")
        # the first list-prompt request settles that the endpoint takes them
        [first] = gw.score_prompts(endpoint, [SCORING_PROMPT], OPTIONS)
        assert [r.total_logprob for r in first] == [-1.0] * 4
        with pytest.raises(GatewayError, match="a reply to 4 prompts carries"):
            gw.score_prompts(endpoint, [other], OPTIONS)
        assert len(session.calls) == 2
        # no choice of the faulty reply was cached: only the first row is
        assert len(cache_files(tmp_path)) == 1

    def test_empty_continuation_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            Gateway().score_prompts(MOCK, [SCORING_PROMPT], (" A", ""))


class TestScorePrompts:
    """Several prompts' continuations go out as one list request; a list of
    more prompts than one prompt's continuations is probed apart from a
    shorter one."""

    PROMPTS = (SCORING_PROMPT, FA_PROMPT, "Question: R?\nThe answer is ")

    def test_results_and_cache_files_match_one_row_calls(self, tmp_path):
        # each row is cached as the reply to a one-row list of its own,
        # with indexes 0..3, whatever its place in the list
        with FixtureServer() as server:
            endpoints = {
                "mock": ModelEndpoint(base_url="mock://7", model_id="probe"),
                "http": ModelEndpoint(base_url=route_mock(server, 7), model_id="probe",
                                      requests_per_minute=10_000),
            }
            results, files, sent = {}, {}, {}
            for name, endpoint in endpoints.items():
                for way in ("batched", "single"):
                    gw = Gateway(cache_dir=tmp_path / name / way)
                    before = len(server.requests)
                    if way == "batched":
                        got = gw.score_prompts(endpoint, self.PROMPTS, OPTIONS)
                    else:
                        got = [gw.score_prompts(endpoint, [p], OPTIONS)[0] for p in self.PROMPTS]
                    results[name, way] = got
                    files[name, way] = cache_files(tmp_path / name / way)
                    sent[name, way] = len(server.requests) - before
                    gw.close()
        assert all(got == results["mock", "single"] for got in results.values())
        assert len(files["mock", "single"]) == 3
        assert all(got == files["mock", "single"] for got in files.values())
        assert sent == {("mock", "batched"): 0, ("mock", "single"): 0,
                        ("http", "batched"): 1, ("http", "single"): 3}

    def test_mock_scores_several_prompts_in_one_call(self):
        gw = Gateway()
        got = gw.score_prompts(MOCK, self.PROMPTS, OPTIONS)
        assert gw.mock_counts() == {"generate": 0, "logprobs": 1, "embeddings": 0}
        assert got == [Gateway().score_prompts(MOCK, [p], OPTIONS)[0] for p in self.PROMPTS]

    def test_only_cache_misses_are_sent_in_input_order(self, tmp_path):
        warm = Gateway(cache_dir=tmp_path)
        warm.score_prompts(MOCK, [self.PROMPTS[1]], OPTIONS)
        session = FakeSession([(200, list_reply(
            (self.PROMPTS[0],) * 4 + (self.PROMPTS[2],) * 4, OPTIONS * 2, model="mock-gen",
        ))])
        endpoint = ModelEndpoint(base_url="http://fake", model_id="mock-gen")
        got = Gateway(cache_dir=tmp_path, session=session).score_prompts(
            endpoint, self.PROMPTS, OPTIONS
        )
        assert got == Gateway().score_prompts(MOCK, self.PROMPTS, OPTIONS)
        [call] = session.calls
        assert call["json"]["prompt"] == [
            p + c for p in (self.PROMPTS[0], self.PROMPTS[2]) for c in OPTIONS
        ]
        assert len(cache_files(tmp_path)) == 3

    def test_a_refused_list_of_several_prompts_leaves_one_prompts_lists_on(self):
        vc = VirtualClock()
        session = FakeSession([
            400, (200, list_reply(SCORING_PROMPT, OPTIONS)), (200, list_reply(FA_PROMPT, OPTIONS)),
        ])
        gw = Gateway(clock=vc.clock, sleep=vc.sleep, session=session)
        endpoint = ModelEndpoint(base_url="http://fake", model_id="m", max_retries=3)
        # each row of a refused list is None
        assert gw.score_prompts(endpoint, self.PROMPTS[:2], OPTIONS) == [None, None]
        # settled: a list of several prompts is not sent again
        assert gw.score_prompts(endpoint, self.PROMPTS[:2], OPTIONS) == [None, None]
        [first] = gw.score_prompts(endpoint, [SCORING_PROMPT], OPTIONS)
        [second] = gw.score_prompts(endpoint, [FA_PROMPT], OPTIONS)
        assert vc.sleeps == []
        assert [len(call["json"]["prompt"]) for call in session.calls] == [8, 4, 4]
        assert first == Gateway().score_prompts(MOCK, [SCORING_PROMPT], OPTIONS)[0]
        assert second == Gateway().score_prompts(MOCK, [FA_PROMPT], OPTIONS)[0]

    def test_a_refused_list_still_returns_the_rows_the_cache_found(self, tmp_path):
        # only the missed rows of a refused list are None
        warm = Gateway(cache_dir=tmp_path)
        [cached] = warm.score_prompts(MOCK, [self.PROMPTS[0]], OPTIONS)
        session = FakeSession([400])
        gw = Gateway(cache_dir=tmp_path, session=session)
        endpoint = ModelEndpoint(base_url="http://fake", model_id="mock-gen")
        got = gw.score_prompts(endpoint, self.PROMPTS, OPTIONS)
        assert got == [cached, None, None]
        assert [len(call["json"]["prompt"]) for call in session.calls] == [8]

    def test_a_list_of_several_prompts_is_probed_like_any_list(self):
        # a 503 on it is retried, and lists of several prompts stay on
        vc = VirtualClock()
        pair = self.PROMPTS[:2]
        reply = list_reply([p for p in pair for _ in OPTIONS], OPTIONS * 2)
        session = FakeSession([503, (200, reply), (200, reply)])
        gw = Gateway(clock=vc.clock, sleep=vc.sleep, session=session)
        endpoint = ModelEndpoint(base_url="http://fake", model_id="m", max_retries=3)
        twice = [gw.score_prompts(endpoint, pair, OPTIONS) for _ in range(2)]
        assert vc.sleeps == [Gateway.BACKOFF_BASE]
        assert [len(call["json"]["prompt"]) for call in session.calls] == [8, 8, 8]
        assert twice[0] == twice[1] == Gateway().score_prompts(MOCK, pair, OPTIONS)


class TestRowEntries:
    """A scored row is one cache entry: for each continuation in order, the
    tokens selected for it and their logprobs, with the same bytes however
    the row was fetched: in a batch, as a one-row list, or one continuation
    per request."""

    PROMPTS = tuple(f"Question {i}? نور\nThe answer is " for i in range(16))

    def test_a_rows_entry_has_the_same_bytes_on_every_path(self, tmp_path):
        row = self.PROMPTS[5]
        key = request_fingerprint(_score_payload("probe", row, OPTIONS))
        entries, files, results = {}, {}, {}
        with FixtureServer() as server:
            score = mock_routes(7)["/completions"]
            server.route("/refuses/completions", rejects_list_prompts(score))
            server.route("/caps/completions", caps_list_prompts(3, score))
            endpoints = {
                name: ModelEndpoint(base_url=url, model_id="probe", requests_per_minute=10_000)
                for name, url in (
                    ("mock", "mock://7"), ("http", route_mock(server, 7)),
                    ("refuses", f"{server.base_url}/refuses"), ("caps", f"{server.base_url}/caps"),
                )
            }
            ways = [(name, "batch") for name in ("mock", "http")] + [
                (name, "row") for name in endpoints
            ]
            for name, way in ways:
                gw = Gateway(cache_dir=tmp_path / name / way)
                prompts = self.PROMPTS if way == "batch" else [row]
                before = len(server.requests)
                results[name, way] = gw.score_prompts(endpoints[name], prompts, OPTIONS)
                sent = [r["payload"]["prompt"] for r in server.requests[before:]]
                gw.close()
                files[name, way] = cache_files(tmp_path / name / way)
                entries[name, way] = ResponseCache(tmp_path / name / way).get(key)
                if name in ("refuses", "caps"):
                    # the refused probe, then one request per option
                    assert sent == [[row + c for c in OPTIONS], *(row + c for c in OPTIONS)]
        # the mock gives each option's one token a logprob of -1.0
        assert set(entries.values()) == {
            b'{"token_logprobs":[[-1.0],[-1.0],[-1.0],[-1.0]],'
            b'"tokens":[[" A"],[" B"],[" C"],[" D"]]}'
        }
        assert {way: len(got) for (_, way), got in files.items()} == {"batch": 16, "row": 1}
        assert all(got == results["mock", "row"] for (_, way), got in results.items()
                   if way == "row")
        assert results["http", "batch"] == results["mock", "batch"]


def single_replies(prompt_text, continuations) -> list:
    return [(200, list_reply(prompt_text, [c])) for c in continuations]


class TestListPromptProbe:
    """An HTTP endpoint's first list-prompt request is a probe: a 429, a 5xx
    or a timeout is retried as for any request, and any other failure sends
    the endpoint one prompt per request from then on, with no backoff."""

    OTHER = "Question: R?\nThe answer is "

    @pytest.mark.parametrize("refusal", [
        400, 404, 413,
        ConnectionError("reset"), requests.ConnectionError("reset"),
        (200, b"<html>Bad gateway</html>"),
        (200, {"choices": list_reply(SCORING_PROMPT, OPTIONS)["choices"][:1]}),
    ], ids=repr)
    def test_refused_probe_falls_back_with_no_sleep(self, refusal, tmp_path):
        vc = VirtualClock()
        session = FakeSession([
            refusal,
            *single_replies(SCORING_PROMPT, OPTIONS),
            *single_replies(self.OTHER, OPTIONS),
        ])
        gw = Gateway(cache_dir=tmp_path, clock=vc.clock, sleep=vc.sleep, session=session)
        endpoint = ModelEndpoint(base_url="http://fake", model_id="m", max_retries=3)
        first = score_row(gw, endpoint, SCORING_PROMPT)
        second = score_row(gw, endpoint, self.OTHER)
        assert vc.sleeps == []
        prompts = [call["json"]["prompt"] for call in session.calls]
        assert prompts[0] == [SCORING_PROMPT + c for c in OPTIONS]
        # the probe, then one request per continuation, and no second probe
        assert prompts[1:] == [p + c for p in (SCORING_PROMPT, self.OTHER) for c in OPTIONS]
        assert first == second == score_row(Gateway(), MOCK, SCORING_PROMPT)
        assert len(cache_files(tmp_path)) == 2

    def test_threads_racing_to_the_first_list_prompt_send_one_probe(self, server):
        # the endpoint drops list prompts, so a second probe would show as a
        # second list-prompt request
        server.route("/completions", drops_list_prompts(option_logprobs))
        sleeps, results = [], []
        gw = Gateway(sleep=sleeps.append, session=HttpSession())
        endpoint = live_endpoint(server, max_retries=3)
        barrier = threading.Barrier(16)

        def score(i):
            barrier.wait(timeout=10)
            prompt = f"Question {i}?\nThe answer is "
            results.append(score_row(gw, endpoint, prompt))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=score, args=(i,), daemon=True) for i in range(16)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
            gw.close()
        assert not any(thread.is_alive() for thread in threads)
        assert sleeps == []
        lists = [r for r in server.requests if isinstance(r["payload"]["prompt"], list)]
        assert len(lists) == 1
        assert len(server.requests) == 1 + 16 * 4
        assert results == [softmax_probs(OPTION_LOGPROBS)] * 16

    def assert_probe_retried(self, failure):
        vc = VirtualClock()
        session = FakeSession([
            failure,
            (200, list_reply(SCORING_PROMPT, OPTIONS)),
            (200, list_reply(self.OTHER, OPTIONS)),
        ])
        gw = Gateway(clock=vc.clock, sleep=vc.sleep, session=session)
        endpoint = ModelEndpoint(base_url="http://fake", model_id="m", max_retries=3)
        gw.score_prompts(endpoint, [SCORING_PROMPT], OPTIONS)
        gw.score_prompts(endpoint, [self.OTHER], OPTIONS)
        assert vc.sleeps == [Gateway.BACKOFF_BASE]
        assert [len(call["json"]["prompt"]) for call in session.calls] == [4, 4, 4]

    def test_429_on_the_probe_is_retried_and_batching_stays_on(self):
        self.assert_probe_retried(429)

    @pytest.mark.parametrize("failure", [
        500, 503, TimeoutError("slow"), requests.Timeout("slow"),
    ], ids=repr)
    def test_probe_retries_5xx_and_timeouts(self, failure):
        self.assert_probe_retried(failure)

    def test_a_probe_whose_503s_run_out_falls_back(self, tmp_path):
        vc = VirtualClock()
        session = FakeSession([
            503, 503, 503, 503,
            *single_replies(SCORING_PROMPT, OPTIONS),
            *single_replies(self.OTHER, OPTIONS),
        ])
        gw = Gateway(cache_dir=tmp_path, clock=vc.clock, sleep=vc.sleep, session=session)
        endpoint = ModelEndpoint(base_url="http://fake", model_id="m", max_retries=3)
        first = score_row(gw, endpoint, SCORING_PROMPT)
        second = score_row(gw, endpoint, self.OTHER)
        assert vc.sleeps == [0.5, 1.0, 2.0]
        prompts = [call["json"]["prompt"] for call in session.calls]
        assert prompts[:4] == [[SCORING_PROMPT + c for c in OPTIONS]] * 4
        assert prompts[4:] == [p + c for p in (SCORING_PROMPT, self.OTHER) for c in OPTIONS]
        assert first == second == score_row(Gateway(), MOCK, SCORING_PROMPT)
        assert len(cache_files(tmp_path)) == 2

    def test_a_503_on_the_first_list_prompt_leaves_one_request_per_row(self):
        # the probe's 503 is retried, so the next 10 rows send 10 requests,
        # not 40 with one prompt each
        sleeps = []
        with FixtureServer() as server:
            endpoint = ModelEndpoint(base_url=route_mock(server, 7), model_id="m",
                                     requests_per_minute=10_000)
            gw = Gateway(sleep=sleeps.append)
            server.script_statuses([503])
            gw.score_prompts(endpoint, [SCORING_PROMPT], OPTIONS)
            probe = list(server.requests)
            del server.requests[:]
            rows = [gw.score_prompts(endpoint, [f"Question {i}?\nThe answer is "], OPTIONS)
                    for i in range(10)]
            gw.close()
        assert sleeps == [Gateway.BACKOFF_BASE]
        assert [len(r["payload"]["prompt"]) for r in probe] == [4, 4]
        assert [len(r["payload"]["prompt"]) for r in server.requests] == [4] * 10
        mock = ModelEndpoint(base_url="mock://7", model_id="m")
        assert rows == [Gateway().score_prompts(mock, [f"Question {i}?\nThe answer is "],
                                                OPTIONS) for i in range(10)]

    def test_failures_after_a_batched_success_are_retried(self):
        vc = VirtualClock()
        session = FakeSession([
            (200, list_reply(SCORING_PROMPT, OPTIONS)),
            503, ConnectionError("reset"),
            (200, list_reply(self.OTHER, OPTIONS)),
        ])
        gw = Gateway(clock=vc.clock, sleep=vc.sleep, session=session)
        endpoint = ModelEndpoint(base_url="http://fake", model_id="m", max_retries=3)
        gw.score_prompts(endpoint, [SCORING_PROMPT], OPTIONS)
        gw.score_prompts(endpoint, [self.OTHER], OPTIONS)
        assert vc.sleeps == [0.5, 1.0]
        assert [len(call["json"]["prompt"]) for call in session.calls] == [4, 4, 4, 4]

    def test_a_probe_that_runs_out_of_429_retries_settles_nothing(self):
        vc = VirtualClock()
        session = FakeSession([429, 429, 400, *single_replies(SCORING_PROMPT, OPTIONS)])
        gw = Gateway(clock=vc.clock, sleep=vc.sleep, session=session)
        endpoint = ModelEndpoint(base_url="http://fake", model_id="m", max_retries=1)
        with pytest.raises(RetriesExhausted):
            score_row(gw, endpoint, SCORING_PROMPT)
        # the next row probes again, and this probe's 400 refuses list prompts
        score_row(gw, endpoint, SCORING_PROMPT)
        assert [isinstance(call["json"]["prompt"], list) for call in session.calls] == [
            True, True, True, False, False, False, False,
        ]
        assert vc.sleeps == [Gateway.BACKOFF_BASE]


def cache_reads(monkeypatch) -> Counter:
    """A Counter of the keys ResponseCache.get is asked for from now on."""
    reads = Counter()
    real = ResponseCache.get

    def get(cache, key):
        reads[key] += 1
        return real(cache, key)

    monkeypatch.setattr(ResponseCache, "get", get)
    return reads


class TestCacheReads:
    """A batched call reads each cache entry it finds once, and sends only
    the misses: as one list request, or one per request on an endpoint that
    refuses lists. A scored row is one entry, read once however its misses
    go out. A missed group of a refused list of several groups looks its
    entry up a second time, when it is sent on its own."""

    OTHER = "Question: R?\nThe answer is "
    THIRD = "Question: S?\nThe answer is "

    @pytest.mark.parametrize("refuses", [False, True])
    def test_score_rows_read_each_entry_once(self, refuses, tmp_path, monkeypatch):
        Gateway(cache_dir=tmp_path).score_prompts(MOCK, [SCORING_PROMPT], OPTIONS)
        [found] = {path.stem for path in tmp_path.rglob("*.json")}
        misses = (self.OTHER, self.THIRD)
        if refuses:
            replies = [400, *single_replies(self.OTHER, OPTIONS),
                       *single_replies(self.THIRD, OPTIONS)]
        else:
            replies = [(200, list_reply(p, OPTIONS)) for p in misses]
        session = FakeSession(replies)
        gw = Gateway(cache_dir=tmp_path, session=session)
        endpoint = ModelEndpoint(base_url="http://fake", model_id="mock-gen")
        reads = cache_reads(monkeypatch)
        rows = [score_row(gw, endpoint, p) for p in (SCORING_PROMPT, *misses)]
        assert rows == [score_row(Gateway(), MOCK, SCORING_PROMPT)] * 3
        assert found in reads and len(reads) == 3 and set(reads.values()) == {1}
        prompts = [call["json"]["prompt"] for call in session.calls]
        listed = [[p + c for c in OPTIONS] for p in misses]
        assert prompts == ([listed[0], *listed[0], *listed[1]] if refuses else listed)
        assert len(cache_files(tmp_path)) == 3

    @pytest.mark.parametrize("refuses", [False, True])
    def test_embed_groups_read_each_entry_once(self, refuses, tmp_path, monkeypatch):
        # two calls of groups the cache misses, after one it finds; on an
        # endpoint that refuses lists, the first call's missed groups are
        # read again when each is sent on its own, and the second call's,
        # sent on their own once that is settled, are read once
        groups = [[f"text {i} {j}" for j in range(3)] for i in range(5)]
        Gateway(cache_dir=tmp_path).embed_groups(MOCK, groups[:1])
        [found] = {path.stem for path in tmp_path.rglob("*.json")}
        first, second = groups[1:3], groups[3:]
        if refuses:
            replies = [400, 400, *((200, embed_reply([t])) for g in groups[1:] for t in g)]
        else:
            replies = [(200, embed_reply(g[0] + g[1])) for g in (first, second)]
        session = FakeSession(replies)
        gw = Gateway(cache_dir=tmp_path, session=session)
        endpoint = ModelEndpoint(base_url="http://fake", model_id="mock-gen")
        reads = cache_reads(monkeypatch)
        got = gw.embed_groups(endpoint, groups[:3])
        later = set(reads)
        got += gw.embed_groups(endpoint, second)
        assert got == Gateway().embed_groups(MOCK, groups)
        assert reads[found] == 1 and len(reads) == 5
        assert sum(reads[key] for key in later) == (5 if refuses else 3)
        assert all(reads[key] == 1 for key in set(reads) - later)
        inputs = [call["json"]["input"] for call in session.calls]
        if refuses:
            assert inputs == [first[0] + first[1], first[0], *(t for g in groups[1:] for t in g)]
        else:
            assert inputs == [first[0] + first[1], second[0] + second[1]]
        assert len(cache_files(tmp_path)) == 5


def embed_reply(texts, model="mock-gen", seed=7) -> dict:
    """The reply an endpoint that takes list inputs gives, as mock://<seed>."""
    return MockBackend(seed).embed(model, tuple(texts))


class TestEmbedGroups:
    """Several groups' texts go out as one list request; a list of several
    groups is probed apart from one group's."""

    GROUPS = (
        ("نور 0 — café 0", "نور 1", "café 2"),
        ("نور 3", "café 4"),
        ("light 5", "light 5", "heat 6"),
    )

    def test_results_and_cache_files_match_one_group_calls(self, tmp_path):
        # mock:// in process, and the same seed over HTTP, batched and one
        # group at a time: every result and every cache file agree
        with FixtureServer() as server:
            endpoints = {
                "mock": ModelEndpoint(base_url="mock://7", model_id="embed"),
                "http": ModelEndpoint(base_url=route_mock(server, 7), model_id="embed",
                                      requests_per_minute=10_000),
            }
            results, files, sent = {}, {}, {}
            for name, endpoint in endpoints.items():
                for way in ("batched", "single"):
                    gw = Gateway(cache_dir=tmp_path / name / way)
                    before = len(server.requests)
                    if way == "batched":
                        got = gw.embed_groups(endpoint, self.GROUPS)
                    else:
                        got = [gw.embed_groups(endpoint, [group])[0] for group in self.GROUPS]
                    results[name, way] = got
                    files[name, way] = cache_files(tmp_path / name / way)
                    sent[name, way] = len(server.requests) - before
                    gw.close()
        assert all(got == results["mock", "single"] for got in results.values())
        assert [[r.vector for r in group] for group in results["mock", "single"]] == [
            [Gateway().embed(MOCK, text).vector for text in group] for group in self.GROUPS
        ]
        assert len(files["mock", "single"]) == 3
        assert all(got == files["mock", "single"] for got in files.values())
        assert sent == {("mock", "batched"): 0, ("mock", "single"): 0,
                        ("http", "batched"): 1, ("http", "single"): 3}

    def test_mock_embeds_a_batch_in_one_call(self):
        gw = Gateway()
        gw.embed_groups(MOCK, self.GROUPS)
        assert gw.mock_counts() == {"generate": 0, "logprobs": 0, "embeddings": 1}

    def test_only_cache_misses_are_sent_in_input_order(self, tmp_path):
        Gateway(cache_dir=tmp_path).embed_groups(MOCK, self.GROUPS[1:2])
        session = FakeSession([(200, embed_reply(self.GROUPS[0] + self.GROUPS[2]))])
        endpoint = ModelEndpoint(base_url="http://fake", model_id="mock-gen")
        got = Gateway(cache_dir=tmp_path, session=session).embed_groups(endpoint, self.GROUPS)
        assert got == Gateway().embed_groups(MOCK, self.GROUPS)
        [call] = session.calls
        assert call["json"] == {"model": "mock-gen", "input": [*self.GROUPS[0], *self.GROUPS[2]]}
        assert len(cache_files(tmp_path)) == 3

    def test_items_are_placed_by_a_shuffled_index(self):
        texts = [text for group in self.GROUPS for text in group]
        reply = embed_reply(texts)
        random.Random(3).shuffle(reply["data"])
        assert [item["index"] for item in reply["data"]] != list(range(len(texts)))
        session = FakeSession([(200, reply)])
        endpoint = ModelEndpoint(base_url="http://fake", model_id="mock-gen")
        got = Gateway(session=session).embed_groups(endpoint, self.GROUPS)
        assert got == Gateway().embed_groups(MOCK, self.GROUPS)
        [call] = session.calls
        assert call["json"] == {"model": "mock-gen", "input": texts}

    @pytest.mark.parametrize("refusal", ["one vector", "400"])
    def test_a_refused_probe_is_sent_once_then_one_text_per_request(self, refusal, tmp_path):
        # a list input gets the first text's vector alone, or a 400: the
        # probe of several groups is refused with no sleep, then that of one
        # group, nothing of their replies is cached, and every text is then
        # sent on its own, with no third probe. Each group is cached once
        # all its texts are back
        with FixtureServer() as server:
            base_url = route_mock(server, 7)
            path = "/7/embeddings"
            answer = server.httpd.routes[path]

            def refuse(payload):
                if not isinstance(payload["input"], list):
                    return answer(payload)
                if refusal == "400":
                    return 400, {"error": {"message": "input must be a string"}}
                return answer({**payload, "input": payload["input"][0]})

            server.route(path, refuse)
            sleeps = []
            gw = Gateway(cache_dir=tmp_path, sleep=sleeps.append)
            endpoint = ModelEndpoint(base_url=base_url, model_id="mock-gen", max_retries=3)
            first = gw.embed_groups(endpoint, self.GROUPS[:2])
            second = gw.embed_groups(endpoint, self.GROUPS[2:])
            gw.close()
        assert sleeps == []
        inputs = [r["payload"]["input"] for r in server.requests]
        assert inputs == [
            [*self.GROUPS[0], *self.GROUPS[1]], list(self.GROUPS[0]),
            *self.GROUPS[0], *self.GROUPS[1], *self.GROUPS[2],
        ]
        assert first + second == Gateway().embed_groups(MOCK, self.GROUPS)
        assert len(cache_files(tmp_path)) == 3

    def test_a_refused_list_of_several_groups_leaves_one_groups_lists_on(self):
        g0, g1, g2 = map(list, self.GROUPS)
        vc = VirtualClock()
        session = FakeSession([400, *((200, embed_reply(g)) for g in (g0, g1, g1, g2))])
        gw = Gateway(clock=vc.clock, sleep=vc.sleep, session=session)
        endpoint = ModelEndpoint(base_url="http://fake", model_id="mock-gen", max_retries=3)
        first = gw.embed_groups(endpoint, self.GROUPS[:2])
        # settled: a list of several groups is not sent again
        second = gw.embed_groups(endpoint, self.GROUPS[1:])
        assert vc.sleeps == []
        assert [call["json"]["input"] for call in session.calls] == [g0 + g1, g0, g1, g1, g2]
        assert first + second[1:] == Gateway().embed_groups(MOCK, self.GROUPS)

    def test_threads_racing_to_the_first_list_input_send_one_probe(self):
        # the endpoint drops list inputs, so a second probe would show as a
        # second list request
        with FixtureServer() as server:
            base_url = route_mock(server, 7)
            path = "/7/embeddings"
            answer = server.httpd.routes[path]
            server.route(path, lambda p: DROP if isinstance(p["input"], list) else answer(p))
            sleeps, results = [], []
            gw = Gateway(sleep=sleeps.append, session=HttpSession())
            endpoint = ModelEndpoint(base_url=base_url, model_id="mock-gen", max_retries=3)
            barrier = threading.Barrier(16)

            def embed(i):
                barrier.wait(timeout=10)
                results.append(gw.embed_groups(endpoint, [[f"text {i} {j}" for j in range(3)]]))

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [
                    threading.Thread(target=embed, args=(i,), daemon=True) for i in range(16)
                ]
                for thread in threads:
                    thread.start()
                deadline = time.monotonic() + 30
                for thread in threads:
                    thread.join(timeout=max(0.0, deadline - time.monotonic()))
            finally:
                sys.setswitchinterval(interval)
                gw.close()
        assert not any(thread.is_alive() for thread in threads)
        assert sleeps == []
        lists = [r for r in server.requests if isinstance(r["payload"]["input"], list)]
        assert len(lists) == 1
        assert len(server.requests) == 1 + 16 * 3
        assert len(results) == 16

    def test_probes_are_kept_per_path(self):
        # an endpoint that refuses list prompts may still take list inputs
        texts = [text for group in self.GROUPS for text in group]
        session = FakeSession([
            400, *single_replies(SCORING_PROMPT, OPTIONS), (200, embed_reply(texts)),
        ])
        gw = Gateway(session=session)
        endpoint = ModelEndpoint(base_url="http://fake", model_id="mock-gen")
        score_row(gw, endpoint, SCORING_PROMPT)
        gw.embed_groups(endpoint, self.GROUPS)
        assert session.calls[-1]["json"]["input"] == texts
        assert len(session.calls) == 6

    def test_429_on_a_batch_is_retried_not_refused(self):
        vc = VirtualClock()
        first, second = list(self.GROUPS[0]), [*self.GROUPS[1], *self.GROUPS[2]]
        session = FakeSession([429, (200, embed_reply(first)), 429, (200, embed_reply(second))])
        gw = Gateway(clock=vc.clock, sleep=vc.sleep, session=session)
        endpoint = ModelEndpoint(base_url="http://fake", model_id="mock-gen", max_retries=3)
        got = gw.embed_groups(endpoint, self.GROUPS[:1]) + gw.embed_groups(endpoint, self.GROUPS[1:])
        assert vc.sleeps == [Gateway.BACKOFF_BASE] * 2
        assert [call["json"]["input"] for call in session.calls] == [first, first, second, second]
        assert got == Gateway().embed_groups(MOCK, self.GROUPS)

    def test_a_reply_without_one_item_per_text_after_the_probe_is_fatal(self, tmp_path):
        bad = embed_reply(self.GROUPS[2])
        del bad["data"][1]
        session = FakeSession([(200, embed_reply(self.GROUPS[1])), (200, bad)])
        gw = Gateway(cache_dir=tmp_path, session=session)
        endpoint = ModelEndpoint(base_url="http://fake", model_id="mock-gen")
        gw.embed_groups(endpoint, self.GROUPS[1:2])
        with pytest.raises(GatewayError, match="a reply to 3 inputs carries 2 data items"):
            gw.embed_groups(endpoint, self.GROUPS[2:])
        assert len(cache_files(tmp_path)) == 1

    def test_width_mismatch_inside_one_group_is_fatal(self, server):
        endpoint = live_endpoint(server)
        with pytest.raises(EmbeddingDimensionError, match="dim 8, previously 1024"):
            Gateway().embed_groups(endpoint, [["The sun warms the ground.", "short vector"]])
        [sent] = server.requests
        assert sent["payload"]["input"] == ["The sun warms the ground.", "short vector"]

    @pytest.mark.parametrize("groups", [[["fine"], ["fine", " \n"]], [["fine"], []]], ids=repr)
    def test_a_blank_text_or_an_empty_group_raises_before_any_request(self, groups, tmp_path):
        session = FakeSession([])
        endpoint = ModelEndpoint(base_url="http://fake", model_id="m")
        with pytest.raises(ValueError, match="non-empty"):
            Gateway(cache_dir=tmp_path, session=session).embed_groups(endpoint, groups)
        assert session.calls == []

    def test_embed_reads_and_writes_no_entry(self, tmp_path, monkeypatch):
        # a text sent on its own is a part of a group, which the cache keeps whole
        reads = cache_reads(monkeypatch)
        gw = Gateway(cache_dir=tmp_path)
        assert gw.embed(MOCK, "نور") == gw.embed(MOCK, "نور") == gw.embed_groups(MOCK, [["نور"]])[0][0]
        assert gw.mock_counts()["embeddings"] == 3
        assert len(reads) == 1 and len(cache_files(tmp_path)) == 1


def group_entry(vectors) -> bytes:
    """A group's cache entry: base64 of its vectors' little-endian float64
    bytes, text after text."""
    values = [x for vector in vectors for x in vector]
    packed = base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")
    return json.dumps({"vectors": packed}, separators=(",", ":")).encode("ascii")


class TestGroupEntries:
    """A group is one cache entry: its vectors, text after text, as base64
    of their little-endian float64 bytes, with the same bytes however the
    group was fetched: in a batch, as a one-group list, or one text per
    request."""

    GROUPS = tuple((f"base {i} نور", f"rewrite {i}", "light") for i in range(4))

    def test_a_groups_entry_has_the_same_bytes_on_every_path(self, tmp_path):
        group = self.GROUPS[2]
        key = request_fingerprint(_embed_payload("embed", group))
        entries = {}
        with FixtureServer() as server:
            embed = mock_routes(7)["/embeddings"]
            server.route(
                "/refuses/embeddings",
                lambda p: (400, {}) if isinstance(p["input"], list) else embed(p),
            )
            endpoints = {
                name: ModelEndpoint(base_url=url, model_id="embed", requests_per_minute=10_000)
                for name, url in (
                    ("mock", "mock://7"), ("http", route_mock(server, 7)),
                    ("refuses", f"{server.base_url}/refuses"),
                )
            }
            ways = [(name, "batch") for name in ("mock", "http")] + [
                (name, "group") for name in endpoints
            ]
            for name, way in ways:
                gw = Gateway(cache_dir=tmp_path / name / way)
                gw.embed_groups(endpoints[name], self.GROUPS if way == "batch" else [group])
                gw.close()
                entries[name, way] = ResponseCache(tmp_path / name / way).get(key)
        reply = MockBackend(7).embed("embed", group)
        assert set(entries.values()) == {group_entry(item["embedding"] for item in reply["data"])}


class TestNonFiniteEmbeddings:
    """JSON replies may carry NaN or Infinity, which json parses; an
    embedding with such a component, or one that is not a number, is
    refused with an error that names its request."""

    @pytest.mark.parametrize("component", [
        float("nan"), float("inf"), float("-inf"), "1.0", True, None, 10**400,
    ], ids=lambda component: repr(component)[:12])
    @pytest.mark.parametrize("cached", [False, True])
    def test_a_component_that_is_not_a_finite_number_is_refused(
        self, component, cached, tmp_path
    ):
        reply = embed_reply(["a", "b"])
        reply["data"][1]["embedding"][3] = component
        body = json.dumps(reply).encode("utf-8")
        endpoint = ModelEndpoint(base_url="http://fake", model_id="mock-gen")
        gw = Gateway(cache_dir=tmp_path if cached else None, session=FakeSession([(200, body)]))
        key = request_fingerprint(_embed_payload("mock-gen", ["a", "b"]))
        name = f"request {key}" if cached else "a mock-gen request to /embeddings"
        with pytest.raises(GatewayError, match=f"response for {name} .* not a finite number"):
            gw.embed_groups(endpoint, [["a", "b"]])

    def test_a_lone_text_with_a_nan_is_refused(self):
        reply = embed_reply(["a"])
        reply["data"][0]["embedding"][0] = float("nan")
        session = FakeSession([(200, json.dumps(reply).encode("utf-8"))])
        endpoint = ModelEndpoint(base_url="http://fake", model_id="mock-gen")
        with pytest.raises(GatewayError, match="a mock-gen request to /embeddings .* finite"):
            Gateway(session=session).embed(endpoint, "a")


def misaligned_row() -> dict:
    """A one-row reply whose third choice echoes its prompt one character
    short, so its continuation starts before the prompt's end."""
    reply = list_reply(SCORING_PROMPT, OPTIONS)
    reply["choices"][2]["logprobs"]["text_offset"][1] -= 1
    return reply


def nan_group() -> dict:
    reply = embed_reply(["a", "b"])
    reply["data"][1]["embedding"][3] = float("nan")
    return reply


class TestRefusedRepliesLeaveNoEntry:
    """A reply that fails its checks is cached by no entry, so a later
    call sends its request again instead of replaying the failure."""

    @pytest.mark.parametrize("kind", ["score", "embed"])
    def test_a_refused_reply_is_sent_again(self, kind, tmp_path):
        endpoint = ModelEndpoint(base_url="http://fake", model_id="mock-gen")
        if kind == "score":
            body, error = misaligned_row(), TokenAlignmentError
            call = lambda gw: gw.score_prompts(endpoint, [SCORING_PROMPT], OPTIONS)  # noqa: E731
        else:
            body, error = nan_group(), GatewayError
            call = lambda gw: gw.embed_groups(endpoint, [["a", "b"]])  # noqa: E731
        session = FakeSession([(200, json.dumps(body).encode("utf-8"))] * 2)
        for sent in (1, 2):
            with pytest.raises(error, match="response for request "):
                call(Gateway(cache_dir=tmp_path, session=session))
            assert cache_files(tmp_path) == {}
            assert len(session.calls) == sent

    def test_no_row_of_a_reply_is_cached_if_one_fails(self, tmp_path):
        # the first row's choices pass, the second's do not: neither is cached
        other = "Question: R?\nThe answer is "
        reply = list_reply((SCORING_PROMPT,) * 4 + (other,) * 4, OPTIONS * 2)
        reply["choices"][6]["logprobs"]["text_offset"][1] -= 1
        session = FakeSession([(200, reply)])
        endpoint = ModelEndpoint(base_url="http://fake", model_id="mock-gen")
        with pytest.raises(TokenAlignmentError):
            Gateway(cache_dir=tmp_path, session=session).score_prompts(
                endpoint, [SCORING_PROMPT, other], OPTIONS
            )
        assert cache_files(tmp_path) == {}


class TestEntryChecks:
    """A cache hit rebuilds its results through the checks of a live
    reply's, and an entry that fails them is refused with an error that
    names its request."""

    ENDPOINT = ModelEndpoint(base_url="http://fake", model_id="mock-gen")

    def read_row(self, tmp_path, entry: dict):
        key = request_fingerprint(_score_payload("mock-gen", SCORING_PROMPT, OPTIONS))
        ResponseCache(tmp_path).put(key, json.dumps(entry).encode("utf-8"))
        gw = Gateway(cache_dir=tmp_path, session=FakeSession([]))
        return key, lambda: gw.score_prompts(self.ENDPOINT, [SCORING_PROMPT], OPTIONS)

    def read_group(self, tmp_path, entry: bytes, gw=None):
        key = request_fingerprint(_embed_payload("mock-gen", ["a", "b"]))
        ResponseCache(tmp_path).put(key, entry)
        gw = gw or Gateway(cache_dir=tmp_path, session=FakeSession([]))
        return key, lambda: gw.embed_groups(self.ENDPOINT, [["a", "b"]])

    def test_a_row_entry_with_the_wrong_number_of_options_is_refused(self, tmp_path):
        key, read = self.read_row(tmp_path, {
            "tokens": [[c] for c in OPTIONS[:3]], "token_logprobs": [[-1.0]] * 3,
        })
        with pytest.raises(GatewayError, match=f"request {key} .* each of 4 options"):
            read()

    def test_a_row_entry_with_fewer_logprobs_than_tokens_is_refused(self, tmp_path):
        key, read = self.read_row(tmp_path, {
            "tokens": [[" ", "A"], [" B"], [" C"], [" D"]], "token_logprobs": [[-1.0]] * 4,
        })
        with pytest.raises(GatewayError, match=f"request {key} .* for option 0"):
            read()

    def test_a_row_entry_whose_tokens_do_not_make_the_continuation_is_refused(self, tmp_path):
        key, read = self.read_row(tmp_path, {
            "tokens": [[" A"], [" B"], [" E"], [" D"]], "token_logprobs": [[-1.0]] * 4,
        })
        with pytest.raises(
            TokenAlignmentError, match=f"response for request {key}: tokens ' E' do not"
        ):
            read()

    @pytest.mark.parametrize("logprob", ["NaN", "Infinity", '"-1.0"', "null"])
    def test_a_row_entry_with_a_bad_logprob_is_refused(self, logprob, tmp_path):
        key = request_fingerprint(_score_payload("mock-gen", SCORING_PROMPT, OPTIONS))
        ResponseCache(tmp_path).put(key, (
            '{"token_logprobs":[[-1.0],[-1.0],[%s],[-1.0]],'
            '"tokens":[[" A"],[" B"],[" C"],[" D"]]}' % logprob
        ).encode("utf-8"))
        gw = Gateway(cache_dir=tmp_path, session=FakeSession([]))
        with pytest.raises(
            GatewayError, match=f"response for request {key} carries a token logprob"
        ):
            gw.score_prompts(self.ENDPOINT, [SCORING_PROMPT], OPTIONS)

    @pytest.mark.parametrize("entry, bad", [
        ({"tokens": [[" A"], [" B"], [7], [None]], "token_logprobs": [[-1.0]] * 4},
         "a token 7 that is not a string"),
        ({"tokens": [[" A"], [" B"], [" C"], [" D"]],
          "token_logprobs": [[-1.0], [-1.0], ["x"], [None]]},
         "a token logprob 'x' that is neither"),
    ], ids=["token", "logprob"])
    def test_a_row_entry_names_its_first_bad_value(self, entry, bad, tmp_path):
        # a row's values are checked in one pass over all its options
        key, read = self.read_row(tmp_path, entry)
        with pytest.raises(GatewayError, match=f"response for request {key} carries {bad}"):
            read()

    @pytest.mark.parametrize("size", [0, 8, 8 * 5])
    def test_a_group_entry_not_a_whole_number_of_vectors_is_refused(self, size, tmp_path):
        packed = base64.b64encode(bytes(size)).decode("ascii")
        key, read = self.read_group(tmp_path, json.dumps({"vectors": packed}).encode("ascii"))
        with pytest.raises(GatewayError, match=f"request {key} holds {size} bytes"):
            read()

    @pytest.mark.parametrize("entry", [b'{"vectors": "not base64!"}', b'{"vectors": 5}', b"[]"])
    def test_a_group_entry_without_base64_vectors_is_refused(self, entry, tmp_path):
        key, read = self.read_group(tmp_path, entry)
        with pytest.raises(GatewayError, match=f"request {key} holds no base64 vectors"):
            read()

    @pytest.mark.parametrize("component", [float("nan"), float("inf"), float("-inf")], ids=repr)
    def test_a_group_entry_with_a_non_finite_bit_pattern_is_refused(self, component, tmp_path):
        vectors = [[0.5] * 4, [0.5, 0.5, component, 0.5]]
        key, read = self.read_group(tmp_path, group_entry(vectors))
        with pytest.raises(
            GatewayError, match=f"response for request {key} carries an embedding component"
        ):
            read()

    def test_a_group_entry_of_another_width_is_refused(self, tmp_path):
        gw = Gateway(cache_dir=tmp_path, session=FakeSession([(200, embed_reply(["c"]))]))
        gw.embed_groups(self.ENDPOINT, [["c"]])  # pins the model's width at 32
        key, read = self.read_group(tmp_path, group_entry([[0.5] * 16] * 2), gw)
        with pytest.raises(
            EmbeddingDimensionError, match=f"request {key}: mock-gen returned dim 16, previously 32"
        ):
            read()

    def test_a_group_entry_reads_back_its_vectors_bit_for_bit(self, tmp_path):
        vectors = [[0.1, -0.0, 5e-324, 1.7976931348623157e308], [1 / 3, -2.5, 1e-300, 7.0]]
        _, read = self.read_group(tmp_path, group_entry(vectors))
        [got] = read()
        assert [struct.pack("<4d", *r.vector) for r in got] == [
            struct.pack("<4d", *vector) for vector in vectors
        ]


def echo_choice(tokens, logprobs, offsets) -> dict:
    return {"index": 0, "logprobs": {
        "tokens": tokens, "token_logprobs": logprobs, "text_offset": offsets,
    }}


class TestLogprobSelection:
    """An echo's continuation is the tokens at text offsets from the
    prompt's end on, wherever they stand in the lists."""

    def test_tokens_are_selected_by_offset_not_position(self):
        # " A" is the only token from offset 3 on, though not the last
        choice = echo_choice(["ab", " A", "c"], [None, -0.5, -2.0], [0, 3, 2])
        got = _logprob_result(MOCK, "abc", " A", choice, "request r")
        assert got == LogprobResult(" A", ((" A", -0.5),))

    def test_a_misaligned_echo_is_refused(self):
        for offsets in ([0, 2, 4], [0, 4, 2]):
            choice = echo_choice(["ab", "c ", "A"], [None, -1.0, -1.0], offsets)
            with pytest.raises(
                TokenAlignmentError, match="response for request r .* start at offset 4, expected 3"
            ):
                _logprob_result(MOCK, "abc", " A", choice, "request r")

    @pytest.mark.parametrize("choice, error", [
        ({"index": 0}, "returned no logprobs in the response for request r"),
        ({"index": 0, "logprobs": {"tokens": ["abc", " A"]}},
         "logprobs block is incomplete in the response for request r"),
        (echo_choice(["abc", " A"], [None, None], [0, 3]),
         "omitted continuation logprobs in the response for request r"),
    ], ids=["none", "incomplete", "omitted"])
    def test_a_reply_without_continuation_logprobs_names_its_request(self, choice, error):
        with pytest.raises(LogprobsUnsupported, match=f"^mock-gen {error}"):
            _logprob_result(MOCK, "abc", " A", choice, "request r")

    def test_tokens_that_do_not_make_the_continuation_are_refused(self):
        choice = echo_choice(["abc", " B"], [None, -1.0], [0, 3])
        with pytest.raises(TokenAlignmentError, match="response for request r: tokens ' B'"):
            _logprob_result(MOCK, "abc", " A", choice, "request r")


class TestMalformedLogprobs:
    """A logprob that is not a number, or is NaN, +Infinity or past the
    float range, is refused with an error that names its request; a
    -Infinity logprob, a token of probability 0, is taken."""

    @pytest.mark.parametrize("logprob", [
        float("nan"), float("inf"), "-1.0", True, 10**400,
    ], ids=lambda logprob: repr(logprob)[:12])
    @pytest.mark.parametrize("cached", [False, True])
    def test_a_logprob_that_is_not_a_number_below_infinity_is_refused(
        self, logprob, cached, tmp_path
    ):
        reply = list_reply(SCORING_PROMPT, OPTIONS)
        reply["choices"][2]["logprobs"]["token_logprobs"][-1] = logprob
        body = json.dumps(reply).encode("utf-8")
        endpoint = ModelEndpoint(base_url="http://fake", model_id="probe")
        gw = Gateway(cache_dir=tmp_path if cached else None, session=FakeSession([(200, body)]))
        key = request_fingerprint(_score_payload("probe", SCORING_PROMPT, OPTIONS))
        name = f"request {key}" if cached else "a probe request to /completions"
        with pytest.raises(GatewayError, match=f"response for {name} carries a token logprob"):
            gw.score_prompts(endpoint, [SCORING_PROMPT], OPTIONS)

    def test_a_minus_infinity_logprob_round_trips_through_its_entry(self, tmp_path, en_corpus):
        # a live reply with a -Infinity logprob is cached, and a run over
        # that cache scores the row to the same ScoreResult, sending nothing
        item = en_corpus["q0002"]
        templates = load_template_set(DEFAULT_TEMPLATE_ID, "en")
        prompt = render_scoring(item, None, templates).text
        reply = list_reply(prompt, OPTIONS)
        reply["choices"][1]["logprobs"]["token_logprobs"][-1] = float("-inf")
        endpoint = ModelEndpoint(base_url="http://fake", model_id="probe")
        session = FakeSession([(200, json.dumps(reply).encode("utf-8"))])
        live = score_item(Gateway(cache_dir=tmp_path, session=session), endpoint, item, None,
                          templates)
        [entry] = cache_files(tmp_path).values()
        assert b"-Infinity" in entry
        fresh = FakeSession([])
        cached = score_item(Gateway(cache_dir=tmp_path, session=fresh), endpoint, item, None,
                            templates)
        assert cached == live and fresh.calls == []
        assert live.option_probs == {"A": 1 / 3, "B": 0.0, "C": 1 / 3, "D": 1 / 3}

    def test_a_minus_infinity_logprob_is_a_token_of_probability_zero(self):
        reply = list_reply(SCORING_PROMPT, OPTIONS)
        reply["choices"][1]["logprobs"]["token_logprobs"][-1] = float("-inf")
        body = json.dumps(reply).encode("utf-8")
        endpoint = ModelEndpoint(base_url="http://fake", model_id="probe")
        gw = Gateway(session=FakeSession([(200, body)]))
        [results] = gw.score_prompts(endpoint, [SCORING_PROMPT], OPTIONS)
        assert results[1].total_logprob == float("-inf")
        probs = softmax_probs(dict(zip("ABCD", (r.total_logprob for r in results))))
        assert probs == {"A": 1 / 3, "B": 0.0, "C": 1 / 3, "D": 1 / 3}


class TestLiveEmbeddings:
    def test_vector_dim_from_fixture(self, server):
        result = Gateway().embed(live_endpoint(server), "The sun warms the ground.")
        assert len(result.vector) == 1024

    def test_dimension_change_is_fatal(self, server):
        gw = Gateway()
        endpoint = live_endpoint(server)
        gw.embed(endpoint, "The sun warms the ground.")
        with pytest.raises(EmbeddingDimensionError, match="dim 8"):
            gw.embed(endpoint, "short vector")

    def test_empty_text_rejected(self, server):
        with pytest.raises(ValueError, match="non-empty"):
            Gateway().embed(live_endpoint(server), "   ")


class TestSessionLifecycle:
    def test_close_before_any_request_neither_creates_a_session_nor_imports_requests(
        self, monkeypatch
    ):
        # a None entry in sys.modules makes `import requests` raise
        monkeypatch.setitem(sys.modules, "requests", None)
        gw = Gateway()
        gw.generate(MOCK, prompt_of("a mock call needs no session"))
        gw.close()
        assert gw._session is None

    def test_plain_http_session_needs_no_requests(self, server, monkeypatch, tmp_path):
        # no proxy variable and no netrc file: a plain-http host is sent over
        # http.client, and a refused connect is retried as a builtin error
        for name in [name for name in os.environ if name.lower().endswith("_proxy")]:
            monkeypatch.delenv(name)
        monkeypatch.setenv("NETRC", str(tmp_path / "absent"))
        monkeypatch.setitem(sys.modules, "requests", None)
        vc = VirtualClock()
        gw = Gateway(sleep=vc.sleep, session=HttpSession())
        result = gw.generate(live_endpoint(server), prompt_of("Q?"))
        assert result.text == CHAT_BODY["choices"][0]["message"]["content"]
        refused = ModelEndpoint(base_url="http://127.0.0.1:9", model_id="m", max_retries=1)
        with pytest.raises(RetriesExhausted, match="connection error"):
            gw.generate(refused, prompt_of("Q?"))
        assert vc.sleeps == [0.5]
        gw.close()

    def test_threads_racing_to_the_first_request_create_one_default_session(
        self, server, monkeypatch
    ):
        created = []

        class CountedSession(transport.HttpSession):
            def __init__(self):
                super().__init__()
                time.sleep(0.05)  # a second creation would start in this window
                created.append(self)

        monkeypatch.setattr(transport, "HttpSession", CountedSession)
        gw = Gateway()
        endpoint = live_endpoint(server)
        barrier = threading.Barrier(8)
        results = []

        def first_request(i):
            barrier.wait(timeout=10)
            results.append(gw.generate(endpoint, prompt_of(f"question {i}")))

        threads = [threading.Thread(target=first_request, args=(i,), daemon=True) for i in range(8)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 30
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8
        assert len(created) == 1 and gw._session is created[0]
        gw.close()

    def test_caller_session_is_used_as_given_and_closed(self):
        class ClosableSession(FakeSession):
            closed = 0

            def close(self):
                self.closed += 1

        session = ClosableSession([(200, CHAT_BODY)])
        gw = Gateway(session=session)
        endpoint = ModelEndpoint(base_url="http://example.invalid/v1", model_id="live-1")
        result = gw.generate(endpoint, prompt_of("Q?"))
        assert result.text == CHAT_BODY["choices"][0]["message"]["content"]
        assert [call["url"] for call in session.calls] == [
            "http://example.invalid/v1/chat/completions"
        ]
        gw.close()
        assert session.closed == 1 and gw._session is session
