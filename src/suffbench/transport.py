"""The HTTP transport: the session a Gateway opens at its first HTTP request.

The Gateway loads this module only then, so a mock-only run, a dry run or a
report never loads http.client. Every request goes over http.client, to
plain-http and https hosts alike, and the package needs no HTTP library.

The Gateway accepts any session with `post(url, json=, headers=, timeout=)`
whose reply has `status_code` and `content`, and a `close()`.
"""

from __future__ import annotations

import base64
import http.client
import json as jsonlib
import netrc
import os
import select
import ssl
import threading
import urllib.request
import weakref
from typing import Callable, NamedTuple
from urllib.parse import unquote, urljoin, urlsplit

from . import __version__

# what every request sends besides the caller's headers: requests' default
# headers, except that it asks for an uncompressed reply and names this
# package as the client
LEAN_HEADERS = {
    "User-Agent": f"suffbench/{__version__}",
    "Accept-Encoding": "identity",
    "Accept": "*/*",
    "Connection": "keep-alive",
    "Content-Type": "application/json",
}

# a 307 or 308 is followed this many times at most, as requests does
MAX_REDIRECTS = 30


class Reply(NamedTuple):
    """A reply's status and body, the two parts of it that the Gateway
    reads."""

    status_code: int
    content: bytes


class _Route(NamedTuple):
    """How to reach one origin: what opens a connection to it, the prefix
    that makes a path its request target, and the headers that a login or
    a proxy adds."""

    connect: Callable[[float | None], http.client.HTTPConnection]
    prefix: str
    headers: dict[str, str]


def _basic(user: str, password: str) -> str:
    """A Basic credential, encoded as requests encodes it."""
    token = base64.b64encode(f"{user}:{password}".encode("latin-1")).decode("ascii")
    return f"Basic {token}"


def _netrc_login(host: str) -> tuple[str, str] | None:
    """The login and password that the netrc file gives `host`, as requests
    reads them: the first of $NETRC, or else ~/.netrc and ~/_netrc, that
    exists. An unreadable or malformed file gives none."""
    path = os.environ.get("NETRC")
    locations = (path,) if path is not None else ("~/.netrc", "~/_netrc")
    found = [p for p in map(os.path.expanduser, locations) if os.path.exists(p)]
    if not found:
        return None
    try:
        entry = netrc.netrc(found[0]).authenticators(host)
    except (netrc.NetrcParseError, OSError):
        return None
    if not entry:
        return None
    login, account, password = entry
    return (login or account, password)


def _tls_context() -> ssl.SSLContext:
    """A verifying TLS context that trusts $REQUESTS_CA_BUNDLE or
    $CURL_CA_BUNDLE, a file or a directory, as requests does, or else the
    system's store, where ssl reads $SSL_CERT_FILE and $SSL_CERT_DIR."""
    bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
    if bundle and os.path.isdir(bundle):
        return ssl.create_default_context(capath=bundle)
    return ssl.create_default_context(cafile=bundle or None)


class HttpSession:
    """Sends the Gateway's JSON POSTs over http.client, and keeps each
    connection that a reply leaves open for the next request to its origin,
    so it keeps no more per origin than it had requests in flight to it.

    Per request, requests costs the client three to four times the CPU of
    http.client. With many requests in flight to a fast local endpoint that
    CPU, taken under one GIL, sets the run time, and a run moves with the
    machine's speed. A request carries requests' body bytes and
    LEAN_HEADERS, and the session keeps no cookies.

    The environment is read once per origin, as requests reads it: a proxy
    from the `*_proxy` variables unless `no_proxy` names the host, a login
    in the URL or else from the netrc file, and for https the CA bundle. A
    caller's Authorization header wins over either login. A 307 or 308 is
    followed with the same body, and the caller's Authorization header is
    dropped when the scheme, host or port changes; any other reply, a 301,
    302 or 303 too, is returned as it came.
    """

    def __init__(self) -> None:
        self._routes: dict[str, _Route] = {}
        self._idle: dict[str, list[http.client.HTTPConnection]] = {}
        self._context: ssl.SSLContext | None = None
        self._lock = threading.Lock()
        # a session dropped unclosed, as a Gateway's default one may be,
        # still closes the connections it keeps
        weakref.finalize(self, _close_idle, self._idle, self._lock)

    def __enter__(self) -> HttpSession:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def post(self, url: str, json, headers=None, timeout=None) -> Reply:
        body = jsonlib.dumps(json, allow_nan=False).encode("utf-8")
        headers = dict(headers or {})
        for _ in range(MAX_REDIRECTS + 1):
            status, content, location = self._send(url, body, headers, timeout)
            if status not in (307, 308) or location is None:
                break
            moved = urljoin(url, location)
            if _host(moved) != _host(url):
                headers.pop("Authorization", None)
            url = moved
        return Reply(status, content)

    def _send(self, url: str, body: bytes, headers: dict, timeout):
        """One POST: the reply's status, its body and its Location."""
        parts = urlsplit(url)
        # routes and kept connections are filed by scheme and netloc, login
        # included
        origin = f"{parts.scheme}://{parts.netloc}"
        route = self._route(origin, parts)
        target = parts.path or "/"
        if parts.query:
            target = f"{target}?{parts.query}"
        connection = self._checkout(origin, route, timeout)
        try:
            connection.request("POST", route.prefix + target, body,
                               {**LEAN_HEADERS, **route.headers, **headers})
            reply = connection.getresponse()
            content = reply.read()
        except (TimeoutError, ConnectionError):
            connection.close()
            raise
        except (OSError, http.client.HTTPException) as exc:
            # an ssl.SSLError too: requests raises a ConnectionError for it
            connection.close()
            raise ConnectionError(exc) from exc
        self._checkin(origin, connection, reply.will_close)
        return reply.status, content, reply.getheader("Location")

    def _route(self, origin: str, parts) -> _Route:
        """How to reach `origin`, read from the environment at its first
        request."""
        with self._lock:
            if origin not in self._routes:
                self._routes[origin] = self._read_route(parts)
            return self._routes[origin]

    def _read_route(self, parts) -> _Route:
        if parts.scheme not in ("http", "https"):
            raise ValueError(f"cannot send to a {parts.scheme}:// URL")
        host = parts.netloc.rpartition("@")[2]
        headers = {}
        login = ((unquote(parts.username), unquote(parts.password or ""))
                 if parts.username else _netrc_login(parts.hostname))
        if login:
            headers["Authorization"] = _basic(*login)
        context = None
        if parts.scheme == "https":
            if self._context is None:
                self._context = _tls_context()
            context = self._context
        proxies = {} if urllib.request.proxy_bypass(host) else urllib.request.getproxies()
        proxy = proxies.get(parts.scheme) or proxies.get("all")
        if not proxy:
            return _Route(_opener(parts.hostname, parts.port, context), "", headers)
        proxy_parts = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        if proxy_parts.scheme != "http":
            raise ConnectionError(
                f"the proxy for {parts.scheme}://{host} is a {proxy_parts.scheme}:// URL;"
                " only http:// proxies are supported"
            )
        proxy_headers = {}
        if proxy_parts.username:
            proxy_headers["Proxy-Authorization"] = _basic(
                unquote(proxy_parts.username), unquote(proxy_parts.password or "")
            )
        connect = _opener(proxy_parts.hostname, proxy_parts.port, context)
        if context is None:
            # plain http: the proxy is sent the absolute URL
            return _Route(connect, f"http://{host}", {**headers, **proxy_headers})

        def tunnel(timeout):
            # https: the proxy relays a CONNECT tunnel to the host
            connection = connect(timeout)
            connection.set_tunnel(parts.hostname, parts.port, proxy_headers)
            return connection

        return _Route(tunnel, "", headers)

    def _checkout(self, origin: str, route: _Route, timeout) -> http.client.HTTPConnection:
        """An idle connection to the origin that the peer has not closed, or
        a new one."""
        while True:
            with self._lock:
                idle = self._idle.get(origin)
                connection = idle.pop() if idle else None
            if connection is None:
                return route.connect(timeout)
            # a kept connection is readable only once the peer closed it
            if connection.sock is not None and not select.select([connection.sock], [], [], 0)[0]:
                connection.timeout = timeout
                connection.sock.settimeout(timeout)
                return connection
            connection.close()

    def _checkin(self, origin: str, connection, will_close: bool) -> None:
        if will_close:
            connection.close()
            return
        with self._lock:
            self._idle.setdefault(origin, []).append(connection)

    def close(self) -> None:
        _close_idle(self._idle, self._lock)


def _close_idle(idle: dict[str, list[http.client.HTTPConnection]], lock) -> None:
    """Close and forget every connection in `idle`."""
    with lock:
        kept = [connection for connections in idle.values() for connection in connections]
        idle.clear()
    for connection in kept:
        connection.close()


def _host(url: str) -> tuple:
    """The scheme, host and port of a URL."""
    parts = urlsplit(url)
    return parts.scheme, parts.hostname, parts.port


def _opener(host: str, port: int | None, context: ssl.SSLContext | None):
    """What opens a connection to host:port, over TLS with `context`."""
    if context is None:
        return lambda timeout: http.client.HTTPConnection(host, port, timeout=timeout)
    return lambda timeout: http.client.HTTPSConnection(
        host, port, timeout=timeout, context=context
    )
