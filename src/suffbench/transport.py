"""The HTTP transport: the pooled session a run gives its Gateway.

cli loads this module only for a config that names an http(s) endpoint, so
a mock-only run, a report or a config check never loads http.client. It
loads requests only at the first request that needs it: an https,
proxied, netrc or redirecting host. A run whose hosts are all plain http
never imports requests, urllib3 or charset_normalizer.

The Gateway accepts any session with `post(url, json=, headers=, timeout=)`
whose reply has `status_code` and `content`, and a `close()`.
"""

from __future__ import annotations

import http.client
import json as jsonlib
import os
import select
import sys
import threading
from typing import NamedTuple
from urllib.parse import urlsplit

from . import __version__

# what the lean path sends besides the caller's headers: requests' default
# headers, except that it asks for an uncompressed reply and names this
# package as the client
LEAN_HEADERS = {
    "User-Agent": f"suffbench/{__version__}",
    "Accept-Encoding": "identity",
    "Accept": "*/*",
    "Connection": "keep-alive",
    "Content-Type": "application/json",
}


class Reply(NamedTuple):
    """A plain-http reply: the two parts of a requests.Response that the
    Gateway reads."""

    status_code: int
    content: bytes


def _may_need_requests() -> bool:
    """Whether requests could find a proxy or a netrc login for some host.

    On Linux requests reads proxies only from `*_proxy` environment
    variables, and netrc logins only from $NETRC, ~/.netrc or ~/_netrc; with
    none of them every plain-http host is plain. Anywhere else this says
    yes, and requests.utils decides.
    """
    if sys.platform != "linux" or any(name.lower().endswith("_proxy") for name in os.environ):
        return True
    netrc = os.environ.get("NETRC")
    locations = (netrc,) if netrc is not None else ("~/.netrc", "~/_netrc")
    return any(os.path.exists(os.path.expanduser(location)) for location in locations)


class HttpSession:
    """Keeps up to `pool_size` connections per host and sends the Gateway's
    JSON POSTs to plain-http hosts over http.client.

    Per request, requests costs the client three to four times the CPU of
    http.client. With many requests in flight to a fast local endpoint that
    CPU, taken under one GIL, sets the run time, and a run moves with the
    machine's speed. The lean path sends requests' body bytes and
    LEAN_HEADERS, and it keeps no cookies. A host is sent that way when its
    URL is http with no login and the environment gives it no proxy and no
    netrc login, read once per host; any other request, and any host that
    answers with a redirect, goes through a requests.Session that keeps as
    many connections per host, created at the first such request.
    """

    def __init__(self, pool_size: int) -> None:
        self._pool_size = pool_size
        self._plain: dict[str, bool] = {}
        self._idle: dict[str, list[http.client.HTTPConnection]] = {}
        self._fallback = None
        self._lock = threading.Lock()

    def __enter__(self) -> HttpSession:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def post(self, url: str, json, headers=None, timeout=None):
        parts = urlsplit(url)
        if not url.isascii() or not self._is_plain(parts):
            return self._requests().post(url, json=json, headers=headers, timeout=timeout)
        body = jsonlib.dumps(json, allow_nan=False).encode("utf-8")
        connection = self._checkout(parts, timeout)
        try:
            target = parts.path or "/"
            connection.request("POST", f"{target}?{parts.query}" if parts.query else target,
                               body, {**LEAN_HEADERS, **(headers or {})})
            reply = connection.getresponse()
            content = reply.read()
        except (TimeoutError, ConnectionError):
            connection.close()
            raise
        except (OSError, http.client.HTTPException) as exc:
            connection.close()
            raise ConnectionError(exc) from exc
        self._checkin(parts.netloc, connection, reply.will_close)
        if 300 <= reply.status < 400:
            self._plain[parts.netloc] = False
            return self._requests().post(url, json=json, headers=headers, timeout=timeout)
        return Reply(reply.status, content)

    def _requests(self):
        """The requests.Session for every request the lean path does not
        send, created, and requests imported, at the first such request."""
        with self._lock:
            if self._fallback is None:
                import requests
                from requests.adapters import HTTPAdapter

                self._fallback = requests.Session()
                adapter = HTTPAdapter(pool_maxsize=self._pool_size)
                self._fallback.mount("http://", adapter)
                self._fallback.mount("https://", adapter)
            return self._fallback

    def _is_plain(self, parts) -> bool:
        """Whether a host is plain http with no login in the URL, no proxy
        and no netrc login in the environment; read once per host."""
        if parts.netloc not in self._plain:
            plain = parts.scheme == "http" and "@" not in parts.netloc
            if plain and _may_need_requests():
                from requests.utils import get_environ_proxies, get_netrc_auth, select_proxy

                origin = f"{parts.scheme}://{parts.netloc}/"
                plain = (not select_proxy(origin, get_environ_proxies(origin))
                         and not get_netrc_auth(origin))
            self._plain[parts.netloc] = plain
        return self._plain[parts.netloc]

    def _checkout(self, parts, timeout) -> http.client.HTTPConnection:
        """An idle connection to the host that the peer has not closed, or a
        new one."""
        while True:
            with self._lock:
                idle = self._idle.get(parts.netloc)
                connection = idle.pop() if idle else None
            if connection is None:
                return http.client.HTTPConnection(parts.hostname, parts.port, timeout=timeout)
            # a kept connection is readable only once the peer closed it
            if connection.sock is not None and not select.select([connection.sock], [], [], 0)[0]:
                connection.timeout = timeout
                connection.sock.settimeout(timeout)
                return connection
            connection.close()

    def _checkin(self, netloc: str, connection, will_close: bool) -> None:
        with self._lock:
            idle = self._idle.setdefault(netloc, [])
            if not will_close and len(idle) < self._pool_size:
                idle.append(connection)
                return
        connection.close()

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, {}
            fallback, self._fallback = self._fallback, None
        for connection in (c for kept in idle.values() for c in kept):
            connection.close()
        if fallback is not None:
            fallback.close()
