"""Shared run-cache service: HTTP daemon + client backend.

``repro cache serve`` exposes one run-cache directory over HTTP so N
sweep workers — CI matrix jobs, separate hosts, parallel ``evaluate``
invocations — share a single result store instead of each warming its
own.  The daemon is a stdlib :class:`http.server.ThreadingHTTPServer`
in front of the same :class:`~repro.evaluation.runcache
.LocalDirectoryBackend` layout the in-process cache uses, so the two
backends answer each other's entries byte-identically: pointing
``--cache-dir`` at a served directory and ``--cache-url`` at its
daemon read and write the very same files.

Protocol (keys are 64-hex-digit SHA-256 content addresses):

==========================  ============================================
``GET /runs/<key>``         entry bytes, or 404
``HEAD /runs/<key>``        presence probe for one key
``PUT /runs/<key>``         store (201), or 409 when an entry already
                            exists — **first writer wins**; results are
                            deterministic, so the loser's bytes were
                            identical and losing is not an error
``DELETE /runs/<key>``      best-effort removal (corrupt-entry path)
``POST /contains``          ``{"keys": [...]}`` -> ``{"present": [...]}``
                            — the whole sweep probed in one round-trip
``GET /stats``              ``{service, format_version, entries,
                            size_bytes}`` — also the reachability probe
                            ``repro cache info`` uses
``POST /clear``             delete every entry -> ``{"removed": n}``
==========================  ============================================

:class:`HTTPCacheBackend` is the thin client side of the
:class:`~repro.evaluation.runcache.CacheBackend` protocol.  It **fails
open**: any network error degrades to a miss (load), a skipped write
(store), or an all-absent probe (contains_many) — the sweep then
re-simulates locally rather than crashing, and every failure is counted
under ``runcache.http.errors`` (docs/observability.md).
"""

from __future__ import annotations

import json
import logging
import re
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Iterable, Iterator, Optional, Set, Union

from repro.evaluation.runcache import (
    CACHE_FORMAT_VERSION,
    LocalDirectoryBackend,
)
from repro.observability import telemetry as _telemetry

#: Entry keys are SHA-256 hex digests; anything else is rejected with
#: 400 before touching the filesystem (no path traversal).
KEY_RE = re.compile(r"^[0-9a-f]{64}$")

#: Value of the ``service`` field in ``GET /stats`` responses; the
#: client checks it so ``--cache-url`` pointed at some unrelated HTTP
#: server reads as unreachable instead of corrupting probes.
SERVICE_NAME = "repro-run-cache"

DEFAULT_TIMEOUT = 10.0

#: Consecutive transport failures after which :class:`HTTPCacheBackend`
#: logs one warning and counts ``runcache.http.failopen`` — the "your
#: cache daemon is dead and every run is silently re-simulating" alarm.
#: A successful reply re-arms the detector.
FAILOPEN_THRESHOLD = 3

_log = logging.getLogger(__name__)


class _CacheRequestHandler(BaseHTTPRequestHandler):
    """One request against the served directory; quiet by default."""

    server_version = "repro-cache/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------

    def log_message(self, fmt, *args):  # noqa: ARG002 - stdlib signature
        if self.server.verbose:
            super().log_message(fmt, *args)

    def _backend(self) -> LocalDirectoryBackend:
        return self.server.backend

    def _count(self, method: str) -> None:
        self.server.request_counts[method] = \
            self.server.request_counts.get(method, 0) + 1

    def _reply(self, status: int, body: bytes = b"",
               content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def _reply_json(self, status: int, payload: dict) -> None:
        self._reply(status, json.dumps(payload).encode("utf-8"))

    def _refuse_unread(self, status: int, payload: dict) -> None:
        """Reply without reading the request body, then close the
        connection: left unread on a keep-alive connection, the body
        would be parsed as the next request."""
        self.close_connection = True
        self._reply_json(status, payload)

    def _entry_key(self) -> Optional[str]:
        """The validated key of a ``/runs/<key>`` path, else None."""
        prefix, _, key = self.path.partition("/runs/")
        if prefix == "" and KEY_RE.fullmatch(key):
            return key
        return None

    def _read_body(self) -> bytes:
        """The request body, or ValueError for a missing, non-integer or
        negative ``Content-Length`` or a body cut short of it (the
        connection then closes after the reply: where the body ends is
        unknown)."""
        try:
            length = int(self.headers["Content-Length"])
        except (TypeError, ValueError):
            length = -1
        payload = self.rfile.read(length) if length >= 0 else b""
        if len(payload) != length:
            self.close_connection = True
            raise ValueError("bad Content-Length")
        return payload

    # -- verbs -------------------------------------------------------------

    def do_GET(self) -> None:
        self._count("GET")
        if self.path == "/stats":
            backend = self._backend()
            paths = list(backend.entry_paths())
            self._reply_json(200, {
                "service": SERVICE_NAME,
                "format_version": CACHE_FORMAT_VERSION,
                "root": str(backend.root),
                "entries": len(paths),
                "size_bytes": sum(p.stat().st_size for p in paths),
            })
            return
        key = self._entry_key()
        if key is None:
            self._reply_json(400, {"error": "bad key"})
            return
        payload = self._backend().load(key)
        if payload is None:
            self._reply_json(404, {"error": "not found"})
            return
        self._reply(200, payload)

    def do_HEAD(self) -> None:
        self._count("HEAD")
        key = self._entry_key()
        if key is None:
            self._reply(400)
        elif self._backend().path_for(key).exists():
            self._reply(200)
        else:
            self._reply(404)

    def do_PUT(self) -> None:
        self._count("PUT")
        key = self._entry_key()
        if key is None:
            self._refuse_unread(400, {"error": "bad key"})
            return
        try:
            payload = self._read_body()
        except ValueError as exc:
            self._reply_json(400, {"error": str(exc)})
            return
        if not payload:
            self._reply_json(400, {"error": "empty body"})
            return
        if self._backend().store(key, payload):
            self._reply_json(201, {"stored": True})
        else:
            # First writer won; deterministic results make this benign.
            self._reply_json(409, {"stored": False})

    def do_DELETE(self) -> None:
        self._count("DELETE")
        key = self._entry_key()
        if key is None:
            self._reply_json(400, {"error": "bad key"})
            return
        self._backend().delete(key)
        self._reply(204)

    def do_POST(self) -> None:
        self._count("POST")
        if self.path == "/contains":
            try:
                keys = json.loads(self._read_body().decode("utf-8"))["keys"]
                if not isinstance(keys, list):
                    raise TypeError("keys must be a list")
            except (UnicodeDecodeError, ValueError, KeyError, TypeError,
                    RecursionError):
                self._reply_json(400, {"error": "bad probe body"})
                return
            valid = [k for k in keys if isinstance(k, str)
                     and KEY_RE.fullmatch(k)]
            present = self._backend().contains_many(valid)
            self._reply_json(200, {"present": sorted(present)})
            return
        if self.path == "/clear":
            self._reply_json(200, {"removed": self._backend().clear()})
            return
        self._refuse_unread(404, {"error": "unknown endpoint"})


class CacheServer:
    """A ``repro cache serve`` daemon over one cache directory.

    Threaded (each request gets a handler thread over the shared
    directory backend; first-writer-wins stores keep concurrent PUTs of
    one key safe).  ``port=0`` binds an ephemeral port — read the real
    one back from :attr:`url`.
    """

    def __init__(self, root: Union[str, Path], host: str = "127.0.0.1",
                 port: int = 0, verbose: bool = False) -> None:
        self.backend = LocalDirectoryBackend(root)
        self.httpd = ThreadingHTTPServer((host, port), _CacheRequestHandler)
        self.httpd.backend = self.backend
        self.httpd.verbose = verbose
        self.httpd.request_counts = {}
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def request_counts(self) -> dict:
        """Requests handled so far, by HTTP method (test observability)."""
        return self.httpd.request_counts

    def serve_forever(self) -> None:
        self.httpd.serve_forever()

    def start(self) -> "CacheServer":
        """Serve on a daemon thread (the in-process/test harness path)."""
        self._thread = threading.Thread(target=self.serve_forever,
                                        daemon=True)
        self._thread.start()
        return self

    def shutdown(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


class HTTPCacheBackend:
    """Client half of the protocol: a :class:`CacheBackend` over HTTP.

    Every operation fails open on network trouble — the caller sees a
    miss / skipped store / empty probe and falls back to simulating
    locally, so a dead or flaky cache daemon can never fail a sweep,
    only slow it down.  ``runcache.http.*`` telemetry counts traffic
    and failures, and :data:`FAILOPEN_THRESHOLD` consecutive transport
    failures log one warning (plus one ``runcache.http.failopen``
    count) per outage so a dead daemon is loud instead of silently
    turning every warm sweep cold.
    """

    kind = "http"

    def __init__(self, url: str, timeout: float = DEFAULT_TIMEOUT) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        #: Transport failures since the last successful reply; at
        #: :data:`FAILOPEN_THRESHOLD` the backend warns once (and counts
        #: ``runcache.http.failopen``) that it is failing open — a dead
        #: daemon should be loud in logs/CI, not just slow.
        self.consecutive_failures = 0
        self._failopen_reported = False

    # -- request plumbing --------------------------------------------------

    def _request(self, method: str, path: str,
                 body: Optional[bytes] = None,
                 ok_statuses: Iterable[int] = (200,)
                 ) -> Optional[tuple]:
        """(status, body) for one request, or None on network failure."""
        req = urllib.request.Request(
            f"{self.url}{path}", data=body, method=method,
            headers={"Content-Type": "application/json"} if body else {})
        tel = _telemetry.get()
        tel.count("runcache.http.requests")
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                status, reply = resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            # An HTTP-level status is a *reply*, not a transport failure
            # (404 miss, 409 lost race); drain it and let callers map it.
            body = exc.read()
            if exc.code not in ok_statuses:
                tel.count("runcache.http.errors")
            self._note_reply()
            return exc.code, body
        except (urllib.error.URLError, OSError, TimeoutError):
            tel.count("runcache.http.errors")
            self._note_failure()
            return None
        self._note_reply()
        return status, reply

    def _note_reply(self) -> None:
        """Any reply from the daemon re-arms the fail-open detector."""
        self.consecutive_failures = 0
        self._failopen_reported = False

    def _note_failure(self) -> None:
        """Track a transport failure; warn once at the threshold.

        Individual failures are already counted per request under
        ``runcache.http.errors``; this detects the *dead daemon* case —
        every request failing open and re-simulating locally — and
        raises exactly one warning (plus one ``runcache.http.failopen``
        count) per outage so CI logs show it without being flooded.
        """
        self.consecutive_failures += 1
        if self.consecutive_failures >= FAILOPEN_THRESHOLD \
                and not self._failopen_reported:
            self._failopen_reported = True
            _telemetry.get().count("runcache.http.failopen")
            _log.warning(
                "run-cache daemon at %s failed %d consecutive requests; "
                "failing open (every miss re-simulates locally until it "
                "answers again)",
                self.url, self.consecutive_failures)

    # -- CacheBackend protocol --------------------------------------------

    def load(self, key: str) -> Optional[bytes]:
        reply = self._request("GET", f"/runs/{key}",
                              ok_statuses=(200, 404))
        if reply is None or reply[0] != 200:
            return None
        return reply[1]

    def store(self, key: str, payload: bytes) -> bool:
        reply = self._request("PUT", f"/runs/{key}", body=payload,
                              ok_statuses=(201, 409))
        return reply is not None and reply[0] == 201

    def contains_many(self, keys: Iterable[str]) -> Set[str]:
        keys = list(keys)
        if not keys:
            return set()
        body = json.dumps({"keys": keys}).encode("utf-8")
        reply = self._request("POST", "/contains", body=body)
        if reply is None or reply[0] != 200:
            return set()
        try:
            return set(json.loads(reply[1].decode("utf-8"))["present"])
        except (UnicodeDecodeError, ValueError, KeyError, TypeError):
            _telemetry.get().count("runcache.http.errors")
            return set()

    def delete(self, key: str) -> None:
        self._request("DELETE", f"/runs/{key}", ok_statuses=(200, 204))

    def entry_paths(self) -> Iterator[Path]:
        return iter(())

    def describe(self) -> dict:
        info = {"backend": self.kind, "location": self.url,
                "reachable": False}
        reply = self._request("GET", "/stats")
        if reply is None or reply[0] != 200:
            return info
        try:
            stats = json.loads(reply[1].decode("utf-8"))
            if stats.get("service") != SERVICE_NAME:
                return info
        except (UnicodeDecodeError, ValueError, TypeError):
            return info
        info["reachable"] = True
        info["entries"] = stats.get("entries", 0)
        info["size_bytes"] = stats.get("size_bytes", 0)
        info["format_version"] = stats.get("format_version")
        return info

    def clear(self) -> int:
        reply = self._request("POST", "/clear")
        if reply is None or reply[0] != 200:
            return 0
        try:
            return int(json.loads(reply[1].decode("utf-8"))["removed"])
        except (UnicodeDecodeError, ValueError, KeyError, TypeError):
            return 0
