from __future__ import annotations

import json
import ssl
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import urlparse

import pytest
from hypothesis import settings

from suffbench.corpus import load_corpus
from suffbench.gateway import MockBackend
from suffbench.runstore import COLUMNS

# `pytest --hypothesis-profile=ci`: each property on a fixed sample, ten
# times the default size, the same on every run of one Python version
settings.register_profile("ci", derandomize=True, max_examples=1000, deadline=None)

FIXTURES = Path(__file__).parent / "fixtures"
# the self-signed certificate of the loopback https servers (fixtures/tls)
TLS_CERT = FIXTURES / "tls" / "cert.pem"

LOGPROB_FIXTURE = json.loads((FIXTURES / "completions_logprobs.json").read_text(encoding="utf-8"))
EMBED_FIXTURE = json.loads((FIXTURES / "embeddings.json").read_text(encoding="utf-8"))

CHAT_BODY = {
    "object": "chat.completion",
    "model": "gen-live",
    "choices": [
        {
            "index": 0,
            "message": {
                "role": "assistant",
                "content": "Answer: B\nExplanation: Light drives photosynthesis.",
            },
            "finish_reason": "stop",
        }
    ],
}


_CANONICAL = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode

# what a route returns to have the connection closed with no reply
DROP = object()


class _FixtureHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):  # keep test output clean
        pass

    def do_POST(self):
        server = self.server
        length = int(self.headers.get("Content-Length", "0"))
        payload = json.loads(self.rfile.read(length) or b"{}")
        server.requests.append({
            "path": self.path, "payload": payload, "headers": dict(self.headers),
            "port": self.client_address[1],
        })
        # as a proxy, the server is sent the absolute URL, and answers as
        # the origin it names
        path = "/" + self.path.split("/", 3)[3] if "://" in self.path else self.path
        if path.startswith("/307/"):
            self.send_response(307)
            self.send_header("Location", path.removeprefix("/307"))
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if server.status_script:
            status = server.status_script.pop(0)
            if status != 200:
                body = json.dumps({"error": {"message": "scripted failure"}}).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                return
        handler = server.routes.get(path)
        if handler is None:
            self.send_response(404)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        reply = handler(payload)
        if reply is DROP:
            # close the connection with no reply, as a server whose handler
            # raised does
            self.close_connection = True
            return
        status, reply = reply if isinstance(reply, tuple) else (200, reply)
        body = json.dumps(reply, ensure_ascii=False).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class _KeepAliveFixtureHandler(_FixtureHandler):
    protocol_version = "HTTP/1.1"


class _FixtureHTTPServer(ThreadingHTTPServer):
    # a stage keeps up to 4 x workers connections opening at once; past the
    # default backlog of 5 the kernel drops a connect, which the client
    # repeats only a second later
    request_queue_size = 64


class FixtureServer:
    """Local OpenAI-shaped endpoint with per-path canned responses and an
    optional scripted status sequence. A route answers with a body, a
    (status, body) pair, or DROP; a path under /307/ is answered with a
    307 to the rest of it. Sent an absolute URL, as a proxy is, the server
    answers as the origin it names. With keep_alive the server speaks
    HTTP/1.1 and keeps each connection open for more requests; with tls it
    serves https with the certificate TLS_CERT. Each request is recorded
    with its client port."""

    def __init__(self, keep_alive: bool = False, tls: bool = False):
        handler = _KeepAliveFixtureHandler if keep_alive else _FixtureHandler
        self.httpd = _FixtureHTTPServer(("127.0.0.1", 0), handler)
        if tls:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(TLS_CERT, FIXTURES / "tls" / "key.pem")
            self.httpd.socket = context.wrap_socket(self.httpd.socket, server_side=True)
        self.scheme = "https" if tls else "http"
        self.httpd.requests = []
        self.httpd.routes = {}
        self.httpd.status_script = []
        self.thread = threading.Thread(
            target=lambda: self.httpd.serve_forever(poll_interval=0.02), daemon=True
        )

    @property
    def base_url(self) -> str:
        return f"{self.scheme}://127.0.0.1:{self.httpd.server_address[1]}"

    @property
    def requests(self):
        return self.httpd.requests

    def route(self, path, handler):
        self.httpd.routes[path] = handler

    def script_statuses(self, statuses):
        self.httpd.status_script = list(statuses)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.httpd.shutdown()
        self.httpd.server_close()


# each option letter's logprob in option_logprobs replies
OPTION_LOGPROBS = {"A": -1.0, "B": -2.0, "C": -3.0, "D": -4.0}


def each_prompt(answer):
    """A /completions route that answers a list prompt with one choice per
    prompt, the i-th with index i, each taken from `answer` to that prompt
    alone; a single prompt gets `answer`'s reply as it is."""
    def route(payload):
        prompts = payload["prompt"]
        if isinstance(prompts, str):
            return answer(payload)
        replies = [answer({**payload, "prompt": prompt}) for prompt in prompts]
        choices = [{**reply["choices"][0], "index": i} for i, reply in enumerate(replies)]
        return {**replies[0], "choices": choices}
    return route


def each_input(answer):
    """An /embeddings route that answers a list input with one item per
    text, the i-th with index i, each taken from `answer` to that text
    alone; a single text gets `answer`'s reply as it is."""
    def route(payload):
        texts = payload["input"]
        if isinstance(texts, str):
            return answer(payload)
        replies = [answer({**payload, "input": text}) for text in texts]
        items = [{**reply["data"][0], "index": i} for i, reply in enumerate(replies)]
        return {**replies[0], "data": items}
    return route


@each_prompt
def option_logprobs(payload):
    """A /completions echo reply for any scoring prompt ending in one of
    the continuations " A".." D": the prompt is one scoreless token and
    the continuation one token scored by OPTION_LOGPROBS."""
    text = payload["prompt"]
    prompt, continuation = text[:-2], text[-2:]
    return {
        "choices": [{
            "index": 0,
            "text": text,
            "logprobs": {
                "tokens": [prompt, continuation],
                "token_logprobs": [None, OPTION_LOGPROBS[continuation[-1]]],
                "text_offset": [0, len(prompt)],
            },
        }],
    }


def fixture_embedding(payload):
    """An /embeddings reply with the EMBED_FIXTURE vector of one text."""
    return {
        "object": "list",
        "model": payload["model"],
        "data": [
            {"object": "embedding", "index": 0, "embedding": EMBED_FIXTURE[payload["input"]]}
        ],
    }


def drops_list_prompts(route):
    """`route`, except that a list prompt has its connection closed with no
    reply, as bench/stub.py's handler does when it fails on one."""
    return lambda payload: DROP if isinstance(payload["prompt"], list) else route(payload)


def rejects_list_prompts(route):
    """`route`, except that a list prompt is answered 400."""
    def reject(payload):
        if isinstance(payload["prompt"], list):
            return 400, {"error": {"message": "prompt must be a string"}}
        return route(payload)
    return reject


def caps_list_prompts(most: int, route):
    """`route`, except that a list of more than `most` prompts is answered
    400, as an endpoint that caps the prompts per request does."""
    def cap(payload):
        prompts = payload["prompt"]
        if isinstance(prompts, list) and len(prompts) > most:
            return 400, {"error": {"message": f"at most {most} prompts per request"}}
        return route(payload)
    return cap


def mock_routes(seed: int) -> dict:
    """Routes, by path, that answer requests with the bodies mock://<seed>
    builds in process, as bench/stub.py does. A scoring prompt's
    continuation is its last two characters, " A".." D", and the text
    before them is its own; a list prompt is answered as one mock call,
    whatever its prompts' texts."""
    backend = MockBackend(seed)

    def score(p):
        prompts = [p["prompt"]] if isinstance(p["prompt"], str) else p["prompt"]
        return backend.score(
            p["model"], tuple(t[:-2] for t in prompts), tuple(t[-2:] for t in prompts)
        )

    return {
        "/chat/completions": lambda p: backend.generate(
            p["model"], p["messages"][0]["content"], p["temperature"], p["max_tokens"]
        ),
        "/completions": score,
        "/embeddings": lambda p: backend.embed(p["model"], p["input"]),
    }


def route_mock(server: FixtureServer, seed: int) -> str:
    """Answer requests under /<seed>/ as mock://<seed> does (see
    mock_routes), and return that base URL: a run against it stores the
    same tables as a mock:// run."""
    for path, route in mock_routes(seed).items():
        server.route(f"/{seed}{path}", route)
    return f"{server.base_url}/{seed}"


def table_reads(monkeypatch) -> Counter:
    """A Counter of the run-store table files read from now on, by name."""
    reads = Counter()
    real = Path.read_bytes

    def spy(path):
        if path.name in COLUMNS:
            reads[path.name] += 1
        return real(path)

    monkeypatch.setattr(Path, "read_bytes", spy)
    return reads


class _Reply:
    def __init__(self, status_code: int, body: dict):
        self.status_code = status_code
        self.content = json.dumps(body, ensure_ascii=False).encode("utf-8")


class FaultyMockSession:
    """A Gateway session that answers a POST to http://<host>/<seed><path>
    as mock://<seed> does (see mock_routes), with no server, except that the
    first attempt of the first distinct request, by URL and payload, and of
    every `every`-th one after it, fails: in turn with a 503, a timeout and
    a 429. So the first request a resumed run sends, often an endpoint's
    first list request, gets a 503. A later attempt of the same request is
    answered. `faults` counts the failures by kind."""

    FAULTS = (503, "timeout", 429)

    def __init__(self, every: int):
        self.every = every
        self.faults: Counter = Counter()
        self._seen: set[tuple[str, str]] = set()
        self._routes: dict[str, dict] = {}
        self._lock = threading.Lock()

    def post(self, url, json=None, headers=None, timeout=None):
        _, seed, path = urlparse(url).path.split("/", 2)
        request = (url, _CANONICAL(json))
        with self._lock:
            fault = None
            if request not in self._seen:
                self._seen.add(request)
                if (len(self._seen) - 1) % self.every == 0:
                    fault = self.FAULTS[(len(self._seen) - 1) // self.every % len(self.FAULTS)]
                    self.faults[fault] += 1
            routes = self._routes.setdefault(seed, mock_routes(int(seed)))
        if fault == "timeout":
            raise TimeoutError("injected timeout")
        if fault is not None:
            return _Reply(fault, {"error": {"message": "injected failure"}})
        return _Reply(200, routes["/" + path](json))

    def close(self) -> None:
        pass


@pytest.fixture
def server():
    with FixtureServer() as srv:
        srv.route("/chat/completions", lambda payload: CHAT_BODY)
        srv.route("/completions", each_prompt(lambda payload: LOGPROB_FIXTURE[payload["prompt"]]))
        srv.route("/embeddings", each_input(fixture_embedding))
        yield srv


@pytest.fixture(scope="session")
def fixtures() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def en_corpus():
    return load_corpus(FIXTURES / "corpus_en.jsonl", "en")


@pytest.fixture(scope="session")
def fa_corpus():
    return load_corpus(FIXTURES / "corpus_fa.jsonl", "fa")
