"""Access layer for generation, teacher-forced scoring, and embeddings.

All three request kinds go through one Gateway that adds, in order: an
optional on-disk response cache keyed by the SHA-256 of the canonical
request JSON, per-endpoint rate limiting, and retry with exponential
backoff. A Gateway without a cache_dir computes no request keys, and its
error messages name a request by its model and path.

Endpoints whose base_url uses the ``mock://<seed>`` scheme are served
by a deterministic in-process backend (suffbench.mock) instead of HTTP,
which lets the whole pipeline run offline. Mock responses use the same
wire shapes as the OpenAI-compatible endpoints and flow through the same
parsers.

Each call makes its requests one at a time on the calling thread, and a
Gateway is safe to share between threads, so the caller's thread count
sets how many requests are in flight: a pipeline stage that calls an
HTTP endpoint keeps pipeline.requests_in_flight(workers) of them, one per
pool thread. Each request is still rate-limited and retried on its own.

The cache keeps one entry per generation, one per scored row and one per
group of texts embedded together. A generation's entry is the reply's
body, replayed through the same parser. A scored row's entry is its
checked result, each option's selected continuation tokens and their
logprobs (_row_entry), and a group's is its vectors as base64 of their
little-endian float64 bytes (_group_entry): no echoed prompt and no
decimal vector is stored or parsed again. A generation, a row or a group
is cached only once every part of the reply that carries it has passed
every check, and a cache hit rebuilds its results through the same
checks, so cached and live runs give the same bits.

score_prompts sends the continuations of one prompt or of several as one
/completions request with a list prompt, so a scored row, or several,
costs one request, and embed_groups sends the texts of one group or of
several as one /embeddings request with a list input. An endpoint's first
list request of a kind is a probe, and a list of several rows or groups
is a kind apart from one row's or group's. A probe is retried on a 429, a
5xx or a timeout like any request. If it gets any other 4xx, a failed
connection or a reply without one item per input, or its retries run out
on 5xx replies or timeouts, the endpoint refuses that kind of list from
then on: score_prompts leaves each row of several it could not send as
None, for the caller to send one row per call, and embed_groups sends
each group of several on its own. A lone row or group the endpoint
refuses in a list goes out one input per request (score_continuation,
embed), and is cached once every input has its reply.

HTTP requests go through a session: any object with
`post(url, json=, headers=, timeout=)` returning a reply with
`status_code` and `content`, and a `close()`. Unless the caller passes
one, the Gateway opens a suffbench.transport.HttpSession at its first HTTP
request, and only then loads that module, so a mock-only run or a dry run
never loads http.client. The session keeps a connection for each request
it had in flight at once. A timeout or a failed connection, the builtin
TimeoutError and ConnectionError or those of a requests.Session, is retried.
"""

from __future__ import annotations

import base64
import json
import logging
import math
import os
import struct
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, NoReturn, Sequence
from urllib.parse import urlsplit

from .canonical import canonical_digest, canonical_json
# MockBackend and _WORD_POOL are also imported from here, by the benchmark harness
from .mock import _WORD_POOL, MockBackend, _mock_seed
from .numeric import ordered_sum

if TYPE_CHECKING:
    from .prompts import RenderedPrompt

log = logging.getLogger(__name__)

FINISH_REASONS = ("stop", "length", "other")


class GatewayError(RuntimeError):
    """Base class for transport and response-shape failures."""


class RequestFailed(GatewayError):
    """Non-retryable HTTP error (4xx other than 429), body attached."""

    def __init__(self, message: str, status: int | None = None, body: str = ""):
        super().__init__(message)
        self.status = status
        self.body = body


class RetriesExhausted(GatewayError):
    """Retryable failures (429/5xx/timeout) persisted past the budget."""


class EmptyCompletion(GatewayError):
    """HTTP success but the reply carries no choices, or no embeddings, or
    one that is not of the shape its request asks for."""


class LogprobsUnsupported(GatewayError):
    """Backend cannot return per-token logprobs; scoring must fail loudly."""


class ListRequestRefused(GatewayError):
    """An endpoint refused its first list request of a kind (see
    Gateway._post and _list_key), so it is sent no list of that kind from
    then on."""


class TokenAlignmentError(GatewayError):
    """Echoed tokens do not line up with the prompt/continuation split."""


class EmbeddingDimensionError(GatewayError):
    """Embedding width changed between calls to the same model."""


@dataclass(frozen=True)
class ModelEndpoint:
    """One OpenAI-compatible endpoint (or a mock:// stand-in)."""

    base_url: str
    model_id: str
    api_key_ref: str = ""
    max_retries: int = 3
    requests_per_minute: int = 60
    timeout: float = 60.0

    def __post_init__(self) -> None:
        for name in ("base_url", "model_id"):
            if not isinstance(getattr(self, name), str) or not getattr(self, name):
                raise ValueError(f"{name} must be a non-empty string")
        if not isinstance(self.api_key_ref, str):
            raise ValueError("api_key_ref must be a string")
        # a bool is an int to isinstance, and no count or number of seconds
        for name, least in (("max_retries", 0), ("requests_per_minute", 1)):
            if type(getattr(self, name)) is not int or getattr(self, name) < least:
                raise ValueError(f"{name} must be an integer >= {least}")
        # a socket takes no timeout past threading.TIMEOUT_MAX, nor NaN
        if type(self.timeout) not in (int, float) or not 0 < self.timeout <= threading.TIMEOUT_MAX:
            raise ValueError(
                f"timeout must be a positive number of seconds, at most {threading.TIMEOUT_MAX}"
            )
        if not self.base_url.isascii():
            raise ValueError(
                f"base_url {self.base_url!r} is not ASCII: give its host in punycode"
                " (xn--...) and percent-encode its path"
            )
        if self.is_mock:
            return
        parts = urlsplit(self.base_url)
        if parts.scheme not in ("http", "https"):
            raise ValueError(f"base_url {self.base_url!r} is not an http, https or mock URL")
        try:
            parts.port  # a ValueError for a port out of range or not a number
        except ValueError as exc:
            raise ValueError(f"base_url {self.base_url!r}: {exc}") from None
        # each request appends its path to base_url
        if not parts.hostname or "?" in self.base_url or "#" in self.base_url:
            raise ValueError(f"base_url {self.base_url!r} needs a host, and no query or fragment")

    @property
    def is_mock(self) -> bool:
        return self.base_url.startswith("mock://")


@dataclass(frozen=True)
class GenerationResult:
    text: str
    finish_reason: str

    def __post_init__(self) -> None:
        if self.finish_reason not in FINISH_REASONS:
            raise ValueError(f"finish_reason {self.finish_reason!r} not in {FINISH_REASONS}")


# the text and the logprob of a (text, logprob) token
_TOKEN_TEXT = itemgetter(0)
_TOKEN_LOGPROB = itemgetter(1)


@dataclass(frozen=True)
class LogprobResult:
    """Teacher-forced logprobs for one continuation.

    Token texts must concatenate exactly to the continuation. The total is
    not given but computed, once: the plain (unnormalized) sum of the token
    logprobs, left to right (ordered_sum).
    """

    continuation: str
    token_logprobs: tuple[tuple[str, float], ...]
    total_logprob: float = field(init=False)

    def __post_init__(self) -> None:
        joined = "".join(map(_TOKEN_TEXT, self.token_logprobs))
        if joined != self.continuation:
            raise TokenAlignmentError(
                f"tokens {joined!r} do not concatenate to continuation {self.continuation!r}"
            )
        total = ordered_sum(map(_TOKEN_LOGPROB, self.token_logprobs))
        object.__setattr__(self, "total_logprob", total)


@dataclass(frozen=True)
class EmbeddingResult:
    vector: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.vector:
            raise ValueError("embedding vector must be non-empty")


# the cache key of a request: its own name, which the benchmark traces,
# apart from the run-id digests that call canonical_digest
request_fingerprint = canonical_digest


# what ResponseCache.get asks of each os.read: more than any scored row's
# or group's entry holds
_READ_SIZE = 1 << 16


class ResponseCache:
    """Content-addressed entries, written atomically: the entry of request
    `key` is `root/<key[:2]>/<key>.json`. Entry paths are plain strings,
    with no pathlib object per read or write."""

    def __init__(self, root: str | os.PathLike):
        self.root = os.fspath(root)

    def get(self, key: str) -> bytes | None:
        """The entry stored for request `key`, or None if it has no entry.
        An entry is read whole on its file descriptor, with no file object
        around it: os.read until end of file, one read for an entry of up
        to 64 KiB and one more that finds the end. Every cache read goes
        through here, so the benchmark counts cache reads by this method."""
        try:
            fd = os.open(f"{self.root}/{key[:2]}/{key}.json", os.O_RDONLY)
        except FileNotFoundError:
            return None
        try:
            body = os.read(fd, _READ_SIZE)
            while chunk := os.read(fd, _READ_SIZE):
                body += chunk
            return body
        finally:
            os.close(fd)

    def put(self, key: str, body: bytes) -> None:
        folder = f"{self.root}/{key[:2]}"
        tmp = f"{folder}/.{key}.json.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            fh = open(tmp, "wb")
        except FileNotFoundError:  # the first entry under this prefix
            os.makedirs(folder, exist_ok=True)
            fh = open(tmp, "wb")
        with fh:
            fh.write(body)
        os.replace(tmp, f"{folder}/{key}.json")


class RateLimiter:
    """At most `limit` admissions within any 60-second window.

    Keeps a sliding log of admission times instead of a refill counter:
    a refill scheme lets a burst straddle two refills and overrun the
    windowed bound this class has to keep. An admission exactly 60 s
    after another no longer counts against it (half-open window).
    """

    WINDOW = 60.0

    def __init__(self, limit: int, clock=time.monotonic, sleep=time.sleep):
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self._limit = limit
        self._clock = clock
        self._sleep = sleep
        self._log: deque[float] = deque()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = self._clock()
                while self._log and now - self._log[0] >= self.WINDOW:
                    self._log.popleft()
                if len(self._log) < self._limit:
                    self._log.append(now)
                    return
                wait = self.WINDOW - (now - self._log[0])
            self._sleep(max(wait, 0.0))


def _encode(data: dict) -> bytes:
    """The cache entry of a mock generation: its reply, as JSON."""
    return json.dumps(data, ensure_ascii=False).encode("utf-8")


def _endpoint_key(endpoint: ModelEndpoint) -> tuple[str, str]:
    return (endpoint.base_url, endpoint.model_id)


def _list_key(endpoint: ModelEndpoint, path: str, long: bool) -> tuple:
    """What Gateway._takes_lists files an endpoint's probe outcome under:
    its lists to `path` of the inputs of several payloads (`long`), or
    those of one payload's."""
    return _endpoint_key(endpoint) + (path, long)


def _uncached_name(endpoint: ModelEndpoint, path: str) -> str:
    """What error messages call a request when no cache keys it."""
    return f"a {endpoint.model_id} request to {path}"


def _decode(body: bytes, what: str) -> dict:
    try:
        return json.loads(body.decode("utf-8"))
    # a UnicodeDecodeError, a JSONDecodeError, or the ValueError of an integer
    # longer than int's string conversion limit (sys.get_int_max_str_digits)
    except ValueError as exc:
        raise GatewayError(f"unreadable response body for {what}: {exc}") from exc


def _score_payload(model_id: str, prompt_text: str, continuations: Sequence[str]) -> dict:
    """What keys the cache entry of one scored row: the logprobs of each
    of `continuations` after `prompt_text`. Its kind keys the entries of
    _row_entry apart from those of raw replies, which no longer are read."""
    return {
        "kind": "completions.logprobs.selected",
        "model": model_id,
        "prompt": prompt_text,
        "continuations": list(continuations),
    }


def _embed_payload(model_id: str, texts: Sequence[str]) -> dict:
    """What keys the cache entry of one group's embeddings: the vector of
    each of `texts`, in order. Its kind keys the entries of _group_entry
    apart from those of raw replies, which no longer are read."""
    return {"kind": "embeddings.float64le", "model": model_id, "input": list(texts)}


def _score_wire(model_id: str, prompt: str | list[str]) -> dict:
    """An echo-mode /completions request: max_tokens 0 scores the given text
    instead of sampling. A list prompt gets one choice per prompt."""
    return {"model": model_id, "prompt": prompt, "max_tokens": 0, "echo": True, "logprobs": 1}


# path -> (what error messages call one input, the reply field that carries
# one item per input), for the two paths that take lists of inputs
_ITEM_FIELDS = {
    "/completions": ("prompt", "choices"),
    "/embeddings": ("input", "data"),
}


def _items_by_index(data: dict, path: str, count: int) -> list[dict]:
    """The items of a reply to a list of `count` inputs sent to `path`, in
    input order, placed by their `index` and not by their position: exactly
    one per input, or GatewayError."""
    inputs, field = _ITEM_FIELDS[path]
    items = data.get(field) if isinstance(data, dict) else None
    if not isinstance(items, list) or len(items) != count:
        got = len(items) if isinstance(items, list) else "no"
        raise GatewayError(f"a reply to {count} {inputs}s carries {got} {field} items")
    ordered: list[dict | None] = [None] * count
    for item in items:
        index = item.get("index") if isinstance(item, dict) else None
        if type(index) is not int or not 0 <= index < count or ordered[index] is not None:
            raise GatewayError(
                f"a reply to {count} {inputs}s carries a {field} item with index {index!r}"
            )
        ordered[index] = item
    return ordered


_NUMBER_TYPES = frozenset((int, float))


def _is_number(value, accept: Callable[[float], bool]) -> bool:
    """Whether `value` is an int or a float (a bool is neither) that converts
    to a float without overflow, and `accept` holds of that float."""
    if type(value) not in _NUMBER_TYPES:
        return False
    try:
        return accept(float(value))
    except OverflowError:  # an int past the float range
        return False


def _floats(
    values: list, name: str, what: str, accept: Callable[[float], bool]
) -> tuple[float, ...]:
    """`values`, numbers from the reply to the request named `name` or from
    its cache entry, as floats: each an int or a float that converts without overflow, and
    `accept` holds of each. The checks are passes that run in C; only a bad
    reply is walked in Python, to name its first bad value in the
    GatewayError: `what` is the message's end, with {!r} for that value."""
    if _NUMBER_TYPES.issuperset(map(type, values)):
        try:
            floats = tuple(map(float, values))
        except OverflowError:
            pass
        else:
            if all(map(accept, floats)):
                return floats
    _refuse(values, name, what, accept)


def _refuse(values: Sequence, name: str, what: str, accept: Callable[[float], bool]) -> NoReturn:
    """Raise the GatewayError that names the first of `values` that is not
    a number `accept` holds of (see _floats)."""
    bad = next(value for value in values if not _is_number(value, accept))
    raise GatewayError(f"response for {name} carries " + what.format(bad))


def _is_logprob(value: float) -> bool:
    # -Infinity is a token of probability 0, and so a logprob
    return not math.isnan(value) and value != math.inf


_STR_TYPE = frozenset((str,))


def _checked_tokens(tokens: list, logprobs: list, name: str) -> tuple[float, ...]:
    """The logprobs of `tokens`, as many, in the reply to the request named
    `name` or in its cache entry, as floats: each a number, finite or
    -Infinity (a token of probability 0), and each token a string."""
    values = _floats(
        logprobs, name, "a token logprob {!r} that is neither a finite number nor -Infinity",
        _is_logprob,
    )
    if not _STR_TYPE.issuperset(map(type, tokens)):
        bad = next(token for token in tokens if type(token) is not str)
        raise GatewayError(f"response for {name} carries a token {bad!r} that is not a string")
    return values


def _aligned(continuation: str, token_logprobs: tuple, name: str) -> LogprobResult:
    """The LogprobResult of `continuation` from checked (token, logprob)
    pairs of the request named `name`, whose tokens must concatenate to it."""
    try:
        return LogprobResult(continuation, token_logprobs)
    except TokenAlignmentError as exc:
        raise TokenAlignmentError(f"response for {name}: {exc}") from None


def _logprob_result(
    endpoint: ModelEndpoint, prompt_text: str, continuation: str, choice: dict, name: str
) -> LogprobResult:
    """The summed logprobs of `continuation` in one echo-mode choice for
    `prompt_text + continuation`, from the reply to the request named
    `name`. Its tokens are selected by text offset; any misalignment with
    the prompt boundary is a hard error, never silently truncated. The
    selected tokens are checked by _checked_tokens and _aligned."""
    model = endpoint.model_id
    blob = choice.get("logprobs")
    if not blob:
        raise LogprobsUnsupported(
            f"{model} returned no logprobs in the response for {name};"
            " teacher-forced scoring is impossible"
        )
    tokens = blob.get("tokens")
    logprobs = blob.get("token_logprobs")
    offsets = blob.get("text_offset")
    if tokens is None or logprobs is None or offsets is None:
        raise LogprobsUnsupported(
            f"{model} logprobs block is incomplete in the response for {name}"
        )
    boundary = len(prompt_text)
    selected = [
        (token, lp, off)
        for token, lp, off in zip(tokens, logprobs, offsets)
        if off >= boundary
    ]
    if not selected or selected[0][2] != boundary:
        got = selected[0][2] if selected else "none"
        raise TokenAlignmentError(
            f"response for {name} carries continuation tokens that start at offset {got},"
            f" expected {boundary}"
        )
    values = [lp for _, lp, _ in selected]
    if None in values:
        raise LogprobsUnsupported(
            f"{model} omitted continuation logprobs in the response for {name}"
        )
    tokens = [token for token, _, _ in selected]
    return _aligned(continuation, tuple(zip(tokens, _checked_tokens(tokens, values, name))), name)


def _row_entry(results: Sequence[LogprobResult]) -> bytes:
    """The cache entry of a scored row whose options' results passed their
    checks: for each option in order, the tokens selected for its
    continuation and their logprobs. Each float is written as its repr, or
    as -Infinity, so it reads back to the same bits."""
    return canonical_json({
        "tokens": [list(map(_TOKEN_TEXT, r.token_logprobs)) for r in results],
        "token_logprobs": [list(map(_TOKEN_LOGPROB, r.token_logprobs)) for r in results],
    }).encode("utf-8")


def _load_row(continuations: Sequence[str], body: bytes, name: str) -> list[LogprobResult]:
    """The LogprobResult of each of `continuations` from the cache entry
    `body` of the request named `name` (see _row_entry): as many options as
    continuations, and as many logprobs as tokens in each, through the
    checks of a live reply's: _checked_tokens once over the row's tokens
    and logprobs, then _aligned for each option."""
    data = _decode(body, name)
    tokens = data.get("tokens") if isinstance(data, dict) else None
    logprobs = data.get("token_logprobs") if isinstance(data, dict) else None
    count = len(continuations)
    if type(tokens) is not list or type(logprobs) is not list or not (
        len(tokens) == len(logprobs) == count
    ):
        raise GatewayError(
            f"cache entry for {name} holds no tokens and logprobs for each of {count} options"
        )
    for option, (t, lp) in enumerate(zip(tokens, logprobs)):
        if type(t) is not list or type(lp) is not list or len(t) != len(lp):
            raise GatewayError(
                f"cache entry for {name} holds no list of tokens and one of as many logprobs"
                f" for option {option}"
            )
    values = iter(_checked_tokens(
        list(chain.from_iterable(tokens)), list(chain.from_iterable(logprobs)), name
    ))
    # zip stops at the end of an option's tokens before it takes a value, so
    # each option takes the next len(t) values
    return [_aligned(c, tuple(zip(t, values)), name) for c, t in zip(continuations, tokens)]


def _group_entry(results: Sequence[EmbeddingResult]) -> bytes:
    """The cache entry of a group whose vectors passed their checks: one
    JSON object whose "vectors" is base64 of the vectors' little-endian
    float64 bytes, text after text, which read back to the same bits."""
    values = [x for result in results for x in result.vector]
    packed = struct.pack(f"<{len(values)}d", *values)
    return canonical_json({"vectors": base64.b64encode(packed).decode("ascii")}).encode("ascii")


# the end of the message that refuses an embedding component (see _floats)
_COMPONENT = "an embedding component {!r} that is not a finite number"


def _item_vector(item: dict, name: str) -> list:
    """The vector of one embedding item of the reply to the request named
    `name`: a non-empty list, its components not yet checked."""
    try:
        raw = item["embedding"]
    except (KeyError, TypeError):
        raise GatewayError(f"response for {name} carries no embedding") from None
    if not isinstance(raw, list) or not raw:
        raise GatewayError(f"response for {name} carries an empty embedding")
    return raw


def _transport_errors() -> tuple[tuple[type, ...], tuple[type, ...]]:
    """The exceptions that mean a timeout, and those that mean a failed
    connection: the builtins, and requests' own once requests is loaded.
    All of them are OSErrors. requests' are here only because a caller may
    still pass a requests.Session, as the benchmark's tracing session is;
    suffbench itself never imports requests. If requests is not loaded, no
    session can have raised one of its exceptions."""
    requests = sys.modules.get("requests")
    if requests is None:
        return (TimeoutError,), (ConnectionError,)
    return (TimeoutError, requests.Timeout), (ConnectionError, requests.ConnectionError)


class Gateway:
    """Entry point for every outbound model call the pipeline makes."""

    BACKOFF_BASE = 0.5

    def __init__(
        self,
        cache_dir: str | os.PathLike | None = None,
        *,
        clock=time.monotonic,
        sleep=time.sleep,
        session=None,
    ):
        self._cache = ResponseCache(cache_dir) if cache_dir is not None else None
        self._clock = clock
        self._sleep = sleep
        self._session = session
        self._mocks: dict[str, MockBackend] = {}
        self._limiters: dict[tuple[str, str], RateLimiter] = {}
        self._embed_dims: dict[str, int] = {}
        self._lock = threading.Lock()
        # _list_key -> whether the endpoint takes that kind of list, once its
        # probe has settled it; a probe in flight is in _probing, and the
        # other threads wait on _probe_settled
        self._takes_lists: dict[tuple, bool] = {}
        self._probing: set[tuple] = set()
        self._probe_settled = threading.Condition(self._lock)

    def close(self) -> None:
        """Close the HTTP session and the connections it keeps, if any."""
        if self._session is not None:
            self._session.close()

    # -- shared plumbing ---------------------------------------------------

    def _mock(self, endpoint: ModelEndpoint) -> MockBackend:
        with self._lock:
            backend = self._mocks.get(endpoint.base_url)
            if backend is None:
                backend = MockBackend(_mock_seed(endpoint.base_url))
                self._mocks[endpoint.base_url] = backend
            return backend

    def mock_counts(self) -> dict[str, int]:
        """Requests the mock endpoints answered, per kind, summed over them:
        a batch of continuations or of texts counts one."""
        totals = {"generate": 0, "logprobs": 0, "embeddings": 0}
        with self._lock:
            for backend in self._mocks.values():
                for kind, count in backend.counts.items():
                    totals[kind] += count
        return totals

    def _limiter(self, endpoint: ModelEndpoint) -> RateLimiter:
        key = _endpoint_key(endpoint)
        with self._lock:
            limiter = self._limiters.get(key)
            if limiter is None:
                limiter = RateLimiter(endpoint.requests_per_minute, self._clock, self._sleep)
                self._limiters[key] = limiter
            return limiter

    def _fetch(
        self,
        endpoint: ModelEndpoint,
        path: str,
        payloads: Sequence[dict],
        widths: Sequence[int],
        wire: Callable[[list[int]], dict],
        mock_call: Callable[[MockBackend, list[int]], dict],
        check: Callable[[int, list[dict], str], list],
        load: Callable[[int, bytes, str], list],
        dump: Callable[[list], bytes],
        singly: Callable[[], list] | None = None,
    ) -> list[list | None]:
        """The checked results that answer each payload at `path`, in input
        order: payload i covers widths[i] consecutive inputs of a list
        request, the continuations of a scored row or the texts of a group.
        With a cache, payload i is keyed, and named in error messages, by
        the fingerprint of `payloads[i]`; without one nothing is
        fingerprinted and the name gives the model and path.

        Each cache entry is read once, and `load(i, entry, name)` rebuilds
        its results through the checks of a live reply's. The misses, at
        positions `misses`, are answered by one mock call,
        `mock_call(backend, misses)`, or by one list request `wire(misses)`
        of every input of every miss (see _post_list), and
        `check(i, items, name)` gives the results of miss i from its slice
        of the reply's items. Only once every miss has passed its checks is
        each cached, as `dump(results)`: a reply that fails them leaves no
        entry, and is sent again by the next call.

        Whether the endpoint takes a list of several payloads' inputs at
        `path` is probed and settled apart from whether it takes one
        payload's. If the endpoint refuses a list of the kind the misses
        would make, `singly()`, given for a lone payload, answers it with
        one request per input and returns its checked results; without
        `singly` each miss is None, for the caller to send on its own.
        """
        results: list[list | None]
        if self._cache is None:
            keys = None
            names = [_uncached_name(endpoint, path)] * len(payloads)
            results = [None] * len(payloads)
        else:
            keys = [request_fingerprint(payload) for payload in payloads]
            names = [f"request {key}" for key in keys]
            results = []
            for i, key in enumerate(keys):
                body = self._cache.get(key)
                results.append(None if body is None else load(i, body, names[i]))
        misses = [i for i, result in enumerate(results) if result is None]
        if not misses:
            return results
        count = sum(widths[i] for i in misses)
        if endpoint.is_mock:
            items = _items_by_index(mock_call(self._mock(endpoint), misses), path, count)
        else:
            items = None
            long = len(misses) > 1
            if not self._refuses_lists(endpoint, path, long):
                items = self._post_list(endpoint, path, long, wire(misses), count)
        if items is not None:
            checked, start = [], 0
            for i in misses:
                checked.append(check(i, items[start:start + widths[i]], names[i]))
                start += widths[i]
        elif singly is not None:
            checked = [singly()]
        else:
            return results
        for i, got in zip(misses, checked):
            results[i] = got
            if keys is not None:
                self._cache.put(keys[i], dump(got))
        return results

    def _refuses_lists(self, endpoint: ModelEndpoint, path: str, long: bool) -> bool:
        """Whether a probe settled that the endpoint refuses lists to `path`
        of several payloads' inputs (`long`) or of one payload's: one that
        refuses the short kind is sent no list of either."""
        return False in {
            self._takes_lists.get(_list_key(endpoint, path, False)),
            self._takes_lists.get(_list_key(endpoint, path, long)),
        }

    def _post_list(
        self, endpoint: ModelEndpoint, path: str, long: bool, wire: dict, count: int
    ) -> list[dict] | None:
        """The items of the reply to `wire`, a list of `count` inputs sent to
        `path`, in input order; or None if the endpoint refuses lists of its
        kind, `long` or not (see _list_key).

        The endpoint's first list request of a kind is a probe, and threads
        that come while it is in flight wait for its outcome. If it is
        refused (see _post) or its reply has not one item per input, the
        endpoint refuses that kind of list for the Gateway's life. A probe
        that raises anything else (such as 429s past max_retries) settles
        nothing: the next list request of its kind is a probe again.
        """
        key = _list_key(endpoint, path, long)
        with self._probe_settled:
            while key in self._probing:
                self._probe_settled.wait()
            takes = self._takes_lists.get(key)
            if takes is None:
                self._probing.add(key)
        if takes is False:
            return None
        probe = takes is None
        try:
            body = self._post(endpoint, path, wire, probe=probe)
            try:
                data = _decode(body, f"a list of {count} inputs")
                items = _items_by_index(data, path, count)
            except GatewayError as exc:
                if probe:
                    raise ListRequestRefused(str(exc)) from exc
                raise
            takes = True
            return items
        except ListRequestRefused as exc:
            log.warning(
                "%s refused a list of %d inputs to %s (%s); sending fewer per request",
                endpoint.base_url, count, path, exc,
            )
            takes = False
            return None
        finally:
            if probe:
                with self._probe_settled:
                    self._probing.discard(key)
                    if takes is not None:
                        self._takes_lists[key] = takes
                    self._probe_settled.notify_all()

    @staticmethod
    def _first_item(data: dict, field: str, name: str) -> dict:
        """The first of the items under `field`, the choices or the
        embeddings, of the reply `data` to the request named `name`: a JSON
        object, or EmptyCompletion."""
        try:
            item = data[field][0]
        except (KeyError, IndexError, TypeError):
            raise EmptyCompletion(f"response for {name} carries no {field}") from None
        if not isinstance(item, dict):
            raise EmptyCompletion(f"response for {name} carries a non-object {field} item")
        return item

    def _post(
        self, endpoint: ModelEndpoint, path: str, payload: dict, probe: bool = False
    ) -> bytes:
        """The body of a 200 reply to `payload`. A 429, a 5xx, a timeout or
        a failed connection is retried with backoff. With `probe`, a failed
        connection or a 4xx other than 429 raises ListRequestRefused at once,
        and so do retries that run out on anything but a 429."""
        url = endpoint.base_url.rstrip("/") + path
        headers = {}
        if endpoint.api_key_ref:
            api_key = os.environ.get(endpoint.api_key_ref)
            if not api_key:
                raise GatewayError(
                    f"api_key_ref names env var {endpoint.api_key_ref!r}, which is not set"
                )
            headers["Authorization"] = f"Bearer {api_key}"
        with self._lock:
            if self._session is None:
                from .transport import HttpSession  # loaded for HTTP, not with this module
                self._session = HttpSession()
            session = self._session
        attempts = endpoint.max_retries + 1
        failure = ""
        for attempt in range(attempts):
            if attempt:
                self._sleep(self.BACKOFF_BASE * 2 ** (attempt - 1))
            self._limiter(endpoint).acquire()
            try:
                response = session.post(
                    url, json=payload, headers=headers, timeout=endpoint.timeout
                )
            except OSError as exc:
                timeouts, failures = _transport_errors()
                if isinstance(exc, timeouts):
                    failure = "timeout"
                elif isinstance(exc, failures):
                    failure = f"connection error: {exc}"
                    if probe:
                        raise ListRequestRefused(failure) from exc
                else:
                    raise
                log.warning("%s attempt %d/%d failed: %s", url, attempt + 1, attempts, failure)
                continue
            status = response.status_code
            if status == 200:
                return response.content
            failure = f"HTTP {status}"
            if status == 429 or status >= 500:
                log.warning("%s attempt %d/%d got %s", url, attempt + 1, attempts, failure)
                continue
            text = response.content.decode("utf-8", errors="replace")
            if probe:
                raise ListRequestRefused(f"{failure}: {text[:500]}")
            raise RequestFailed(
                f"{url} rejected the request: {failure}: {text[:500]}", status=status, body=text
            )
        if probe and failure != "HTTP 429":
            raise ListRequestRefused(f"still failing after {attempts} attempts ({failure})")
        raise RetriesExhausted(f"{url} still failing after {attempts} attempts ({failure})")

    # -- generation ----------------------------------------------------------

    def generate(
        self,
        endpoint: ModelEndpoint,
        prompt: "RenderedPrompt",
        *,
        temperature: float = 0.0,
        max_tokens: int = 512,
        cache_salt: str = "",
    ) -> GenerationResult:
        """Chat completion for one rendered prompt.

        cache_salt distinguishes deliberate re-asks of an identical
        deterministic request (budget-violation retries); it enters the
        fingerprint but not the wire payload.
        """
        payload = {
            "kind": "chat.completions",
            "model": endpoint.model_id,
            "prompt": prompt.text,
            "temperature": temperature,
            "max_tokens": max_tokens,
        }
        if cache_salt:
            payload["cache_salt"] = cache_salt
        wire = {
            "model": endpoint.model_id,
            "messages": [{"role": "user", "content": prompt.text}],
            "temperature": temperature,
            "max_tokens": max_tokens,
        }
        path = "/chat/completions"
        key = body = None
        if self._cache is None:
            name = _uncached_name(endpoint, path)
        else:
            key = request_fingerprint(payload)
            name = f"request {key}"
            body = self._cache.get(key)
        hit = body is not None
        if hit:
            data = _decode(body, name)
        elif endpoint.is_mock:
            data = self._mock(endpoint).generate(
                endpoint.model_id, prompt.text, temperature, max_tokens
            )
        else:
            body = self._post(endpoint, path, wire)
            data = _decode(body, name)
        choice = self._first_item(data, "choices", name)
        # a missing or null message or content is an empty generation
        message = {} if choice.get("message") is None else choice["message"]
        if not isinstance(message, dict):
            raise EmptyCompletion(f"response for {name} carries a non-object message")
        text = "" if message.get("content") is None else message["content"]
        if not isinstance(text, str):
            raise EmptyCompletion(f"response for {name} carries a non-string message content")
        finish = choice.get("finish_reason")
        if finish not in FINISH_REASONS:
            finish = "other"
        # a reply is cached only once it has passed the checks above, as its
        # bytes (a mock's as its JSON), so one that fails them is never
        # replayed: the next call sends it again
        if key is not None and not hit:
            self._cache.put(key, _encode(data) if endpoint.is_mock else body)
        return GenerationResult(text=text, finish_reason=finish)

    # -- teacher-forced scoring ----------------------------------------------

    def score_continuation(
        self, endpoint: ModelEndpoint, prompt_text: str, continuation: str
    ) -> LogprobResult:
        """Sum of token logprobs for `continuation` appended to `prompt_text`,
        sent as a request of its own (see _score_wire and _logprob_result).
        It reads and writes no cache entry: the cache keeps whole rows, and
        score_prompts sends a row this way, one continuation after another,
        to an endpoint that refuses lists."""
        if not continuation:
            raise ValueError("continuation must be non-empty")
        model = endpoint.model_id
        name = _uncached_name(endpoint, "/completions")
        if endpoint.is_mock:
            data = self._mock(endpoint).score(model, (prompt_text,), (continuation,))
        else:
            wire = _score_wire(model, prompt_text + continuation)
            data = _decode(self._post(endpoint, "/completions", wire), name)
        choice = self._first_item(data, "choices", name)
        return _logprob_result(endpoint, prompt_text, continuation, choice, name)

    def score_prompts(
        self, endpoint: ModelEndpoint, prompt_texts: Sequence[str], continuations: Sequence[str]
    ) -> list[list[LogprobResult] | None]:
        """The LogprobResult of each continuation of each prompt, prompt by
        prompt: a row. Each row is one cache entry (_row_entry), and the
        rows the cache misses go out as one /completions request with a list
        prompt; a list of several prompts' continuations is probed apart
        from one prompt's (see _fetch). Where the endpoint refuses a list of
        several rows, each of them is None, for the caller to send one per
        call. A lone row the endpoint refuses in a list goes out one
        continuation per request, in turn on the calling thread, through
        score_continuation, and is cached once every continuation has its
        reply."""
        if not all(continuations):
            raise ValueError("continuation must be non-empty")
        model = endpoint.model_id

        def inputs(misses: list[int]) -> tuple[tuple[str, ...], tuple[str, ...]]:
            # the prompt and the continuation of each input of the rows `misses`
            return (tuple(prompt_texts[i] for i in misses for _ in continuations),
                    tuple(continuations) * len(misses))

        def check(i: int, choices: list[dict], name: str) -> list[LogprobResult]:
            return [
                _logprob_result(endpoint, prompt_texts[i], c, choice, name)
                for c, choice in zip(continuations, choices)
            ]

        return self._fetch(
            endpoint, "/completions",
            [_score_payload(model, p, continuations) for p in prompt_texts],
            [len(continuations)] * len(prompt_texts),
            lambda misses: _score_wire(model, [p + c for p, c in zip(*inputs(misses))]),
            lambda mock, misses: mock.score(model, *inputs(misses)),
            check,
            lambda _, body, name: _load_row(continuations, body, name),
            _row_entry,
            singly=(
                (lambda: [self.score_continuation(endpoint, prompt_texts[0], c)
                          for c in continuations])
                if len(prompt_texts) == 1 else None
            ),
        )

    # -- embeddings ------------------------------------------------------------

    def embed(self, endpoint: ModelEndpoint, text: str) -> EmbeddingResult:
        """Embedding vector for one text, sent as a request of its own; see
        _embedding for the checks. It reads and writes no cache entry: the
        cache keeps whole groups, and embed_groups sends a group this way,
        one text after another, to an endpoint that refuses lists."""
        if not text.strip():
            raise ValueError("embedding input must be non-empty")
        model = endpoint.model_id
        name = _uncached_name(endpoint, "/embeddings")
        if endpoint.is_mock:
            data = self._mock(endpoint).embed(model, text)
        else:
            data = _decode(self._post(endpoint, "/embeddings", {"model": model, "input": text}), name)
        item = self._first_item(data, "data", name)
        return self._embedding(endpoint, _item_vector(item, name), name)

    def embed_groups(
        self, endpoint: ModelEndpoint, groups: Sequence[Sequence[str]]
    ) -> list[list[EmbeddingResult]]:
        """The EmbeddingResult of each text of each group, group by group.
        Each group is one cache entry (_group_entry), and the groups the
        cache misses go out as one /embeddings request with a list input; a
        list of several groups' texts is probed apart from one group's (see
        _fetch). Where the endpoint refuses a list of several groups, each
        of them is sent on its own. A lone group the endpoint refuses in a
        list goes out one text per request, in turn on the calling thread,
        through embed, and is cached once every text has its reply."""
        if not all(groups) or not all(text.strip() for group in groups for text in group):
            raise ValueError("embedding input must be non-empty")
        if len(groups) > 1 and self._refuses_lists(endpoint, "/embeddings", True):
            return [self.embed_groups(endpoint, [group])[0] for group in groups]
        model = endpoint.model_id

        def inputs(misses: list[int]) -> list[str]:
            # the texts of the groups `misses`, in order
            return [text for i in misses for text in groups[i]]

        def check(_: int, items: list[dict], name: str) -> list[EmbeddingResult]:
            return [self._embedding(endpoint, _item_vector(item, name), name) for item in items]

        fetched = self._fetch(
            endpoint, "/embeddings", [_embed_payload(model, group) for group in groups],
            [len(group) for group in groups],
            lambda misses: {"model": model, "input": inputs(misses)},
            lambda mock, misses: mock.embed(model, tuple(inputs(misses))),
            check,
            lambda i, body, name: self._load_group(endpoint, len(groups[i]), body, name),
            _group_entry,
            singly=(
                (lambda: [self.embed(endpoint, text) for text in groups[0]])
                if len(groups) == 1 else None
            ),
        )
        return [
            self.embed_groups(endpoint, [group])[0] if found is None else found
            for group, found in zip(groups, fetched)
        ]

    def _load_group(
        self, endpoint: ModelEndpoint, count: int, body: bytes, name: str
    ) -> list[EmbeddingResult]:
        """The EmbeddingResult of each of the `count` texts of a group from
        the cache entry `body` of the request named `name` (see
        _group_entry): a whole number of float64 components for each text,
        through the checks of a live reply's (_embedding), made once over
        the whole group. Unpacked float64s are floats, so of those checks
        only the one for NaN and infinities can fail."""
        data = _decode(body, name)
        encoded = data.get("vectors") if isinstance(data, dict) else None
        if not isinstance(encoded, str):
            raise GatewayError(f"cache entry for {name} holds no base64 vectors")
        try:
            raw = base64.b64decode(encoded, validate=True)
        except ValueError as exc:  # binascii.Error, or a character past ASCII
            raise GatewayError(f"cache entry for {name} holds no base64 vectors: {exc}") from None
        if not raw or len(raw) % (8 * count):
            raise GatewayError(
                f"cache entry for {name} holds {len(raw)} bytes, not a whole number"
                f" of float64 components for each of its {count} texts"
            )
        values = struct.unpack(f"<{len(raw) // 8}d", raw)
        if not all(map(math.isfinite, values)):
            _refuse(values, name, _COMPONENT, math.isfinite)
        width = len(values) // count
        self._pin_width(endpoint, width, name)
        return [
            EmbeddingResult(vector=values[start:start + width])
            for start in range(0, len(values), width)
        ]

    def _embedding(
        self, endpoint: ModelEndpoint, values: Sequence, name: str
    ) -> EmbeddingResult:
        """The EmbeddingResult of one vector, `values`, from the reply to the
        request named `name` or from its cache entry. Each component must be
        a finite number (see _floats): JSON replies may carry NaN or
        Infinity, which no cosine can use, or an integer past the float
        range, and an entry's bytes may hold a NaN or an infinity. Its width
        is pinned by the first vector per model and any later mismatch is
        fatal."""
        vector = _floats(values, name, _COMPONENT, math.isfinite)
        self._pin_width(endpoint, len(vector), name)
        return EmbeddingResult(vector=vector)

    def _pin_width(self, endpoint: ModelEndpoint, width: int, name: str) -> None:
        """Pin the model's embedding width at `width` if no vector has yet,
        or raise EmbeddingDimensionError, naming the request, if it differs
        from the width pinned."""
        with self._lock:
            expected = self._embed_dims.setdefault(endpoint.model_id, width)
        if width != expected:
            raise EmbeddingDimensionError(
                f"response for {name}: {endpoint.model_id} returned dim {width},"
                f" previously {expected}"
            )
