"""Loopback OpenAI-compatible endpoint with fixed latency and injected 429s.

Serves /chat/completions, /completions (echo + logprobs) and /embeddings
under a path prefix that names the mock seed, e.g. base_url
``http://127.0.0.1:PORT/101`` answers as ``mock://101`` would: bodies are
built by suffbench.gateway.MockBackend, so a run against the stub stores
the same tables as an in-process mock run.

Every request waits LATENCY_S before its reply. The first attempt of
every REJECT_EVERY-th distinct payload is refused with HTTP 429, so the
number of injected 429s (and of client backoffs) is the same for any corpus
of the same size. ``GET /stats`` returns the counters and ``POST /reset``
clears them.

    python3 bench/stub.py

prints the bound port on its first stdout line and serves until killed.
"""

from __future__ import annotations

import hashlib
import json
import re
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from suffbench.gateway import MockBackend

LATENCY_S = 0.025
REJECT_EVERY = 200

_TOKEN_RE = re.compile(r"\s|\S+")


def echo_tokens(text: str) -> tuple[list[str], list[int]]:
    """Split text into tokens with their character offsets.

    Every whitespace character is a token of its own, so a scoring prompt
    ending in "is " followed by the continuation " A" has a token starting
    exactly at the prompt/continuation boundary.
    """
    tokens, offsets = [], []
    for match in _TOKEN_RE.finditer(text):
        tokens.append(match.group())
        offsets.append(match.start())
    return tokens, offsets


def completion_body(model: str, text: str) -> dict:
    """Echo-mode /completions reply: the first token has no logprob, every
    later token scores -1.0, as MockBackend's continuation tokens do."""
    tokens, offsets = echo_tokens(text)
    return {
        "object": "text_completion",
        "model": model,
        "choices": [{
            "index": 0,
            "text": text,
            "finish_reason": "length",
            "logprobs": {
                "tokens": tokens,
                "token_logprobs": [None] + [-1.0] * (len(tokens) - 1),
                "text_offset": offsets,
            },
        }],
    }


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, latency_s: float, reject_every: int):
        super().__init__(address, StubHandler)
        self.latency_s = latency_s
        self.reject_every = reject_every
        self.lock = threading.Lock()
        self.backends: dict[int, MockBackend] = {}
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.requests = 0
            self.rejected = 0
            self.repeated = 0
            self.answered: set[str] = set()
            self.seen: set[str] = set()

    def stats(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "rejected": self.rejected,
                "repeated": self.repeated,
            }

    def admit(self, digest: str) -> bool:
        """Count one request; False when it is to be refused with 429."""
        with self.lock:
            self.requests += 1
            if digest not in self.seen:
                self.seen.add(digest)
                if len(self.seen) % self.reject_every == 0:
                    self.rejected += 1
                    return False
            if digest in self.answered:
                self.repeated += 1
            self.answered.add(digest)
            return True

    def backend(self, seed: int) -> MockBackend:
        with self.lock:
            if seed not in self.backends:
                self.backends[seed] = MockBackend(seed)
            return self.backends[seed]


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self) -> None:
        super().setup()
        # replies go out in one write; without NODELAY a small reply can
        # still wait on the client's delayed ACK
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def log_message(self, *args) -> None:
        pass

    def _reply(self, status: int, data: dict) -> None:
        body = json.dumps(data, ensure_ascii=False).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)

    def do_GET(self) -> None:
        if self.path == "/stats":
            self._reply(200, self.server.stats())
        else:
            self._reply(404, {"error": {"message": f"no route {self.path}"}})

    def do_POST(self) -> None:
        raw = self.rfile.read(int(self.headers.get("Content-Length", "0")))
        if self.path == "/reset":
            self.server.reset()
            self._reply(200, {})
            return
        match = re.fullmatch(r"/(\d+)/(chat/completions|completions|embeddings)", self.path)
        if match is None:
            self._reply(404, {"error": {"message": f"no route {self.path}"}})
            return
        time.sleep(self.server.latency_s)
        digest = hashlib.sha256(self.path.encode("utf-8") + b"\0" + raw).hexdigest()
        if not self.server.admit(digest):
            self._reply(429, {"error": {"message": "rate limited (injected)"}})
            return
        payload = json.loads(raw)
        backend = self.server.backend(int(match.group(1)))
        model = payload["model"]
        kind = match.group(2)
        if kind == "chat/completions":
            data = backend.generate(
                model, payload["messages"][0]["content"],
                payload["temperature"], payload["max_tokens"],
            )
        elif kind == "completions":
            data = completion_body(model, payload["prompt"])
        else:
            data = backend.embed(model, payload["input"])
        self._reply(200, data)


def main() -> int:
    server = StubServer(("127.0.0.1", 0), LATENCY_S, REJECT_EVERY)
    print(server.server_address[1], flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main())
