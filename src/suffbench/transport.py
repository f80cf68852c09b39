"""The HTTP transport: the pooled session a run gives its Gateway.

This is the only module that imports requests at load time. cli loads it
only for a config that names an http(s) endpoint, so a mock-only run, a
report or a config check never loads requests, urllib3 or http.client.
"""

from __future__ import annotations

import http.client
import select
import threading
from urllib.parse import urlsplit

import requests
from requests.adapters import HTTPAdapter


class HttpSession(requests.Session):
    """A requests.Session that keeps up to `pool_size` connections per host
    and sends the Gateway's JSON POSTs to plain-http hosts over http.client.

    Per request, requests costs the client three to four times the CPU of
    http.client. With many requests in flight to a fast local endpoint that
    CPU, taken under one GIL, sets the run time, and a run moves with the
    machine's speed. The lean path sends requests' body bytes and default
    headers, except that it asks for an uncompressed reply, and it keeps no
    cookies. A host is sent that way when its URL has no login and the
    environment gives it no proxy and no netrc login, read once per host;
    any other request, and any host that answers with a redirect, goes
    through requests.
    """

    def __init__(self, pool_size: int) -> None:
        super().__init__()
        adapter = HTTPAdapter(pool_maxsize=pool_size)
        self.mount("http://", adapter)
        self.mount("https://", adapter)
        self._pool_size = pool_size
        self._plain: dict[str, bool] = {}
        self._idle: dict[str, list[http.client.HTTPConnection]] = {}
        self._lock = threading.Lock()

    def post(self, url, data=None, json=None, **kwargs):
        parts = urlsplit(url)
        lean = (
            data is None and json is not None and url.isascii()
            and not set(kwargs) - {"headers", "timeout"}
        )
        if not (lean and self._is_plain(parts)):
            return super().post(url, data=data, json=json, **kwargs)
        body = requests.compat.json.dumps(json, allow_nan=False).encode("utf-8")
        headers = {
            **self.headers, "Accept-Encoding": "identity",
            "Content-Type": "application/json", **(kwargs.get("headers") or {}),
        }
        connection = self._checkout(parts, kwargs.get("timeout"))
        try:
            target = parts.path or "/"
            connection.request("POST", f"{target}?{parts.query}" if parts.query else target,
                               body, headers)
            reply = connection.getresponse()
            content = reply.read()
        except TimeoutError as exc:
            connection.close()
            raise requests.ReadTimeout(exc) from exc
        except (OSError, http.client.HTTPException) as exc:
            connection.close()
            raise requests.ConnectionError(exc) from exc
        self._checkin(parts.netloc, connection, reply.will_close)
        if 300 <= reply.status < 400:
            self._plain[parts.netloc] = False
            return super().post(url, json=json, **kwargs)
        response = requests.Response()
        response.status_code, response.reason, response._content = reply.status, reply.reason, content
        response.headers = requests.structures.CaseInsensitiveDict(reply.getheaders())
        response.encoding = requests.utils.get_encoding_from_headers(response.headers)
        response.url = url
        return response

    def _is_plain(self, parts) -> bool:
        """Whether a host is plain http with no login in the URL, no proxy
        and no netrc login in the environment; read once per host."""
        if parts.netloc not in self._plain:
            origin = f"{parts.scheme}://{parts.netloc}/"
            self._plain[parts.netloc] = (
                parts.scheme == "http" and "@" not in parts.netloc
                and not requests.utils.select_proxy(
                    origin, requests.utils.get_environ_proxies(origin)
                )
                and not requests.utils.get_netrc_auth(origin)
            )
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
        for connection in (c for kept in idle.values() for c in kept):
            connection.close()
        super().close()
