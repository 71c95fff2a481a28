"""Client half of the shared run cache: the ``--cache-url`` backend.

``repro serve`` (and its alias ``repro cache serve``, which serves one
cache directory on port 8742) answers the run-cache protocol next to
``/v1/runs`` — see :mod:`repro.evaluation.simserver` for the endpoints
— so N sweep workers (CI matrix jobs, separate hosts, parallel
``evaluate`` invocations) share a single result store instead of each
warming its own.  The server keeps entries in the same
:class:`~repro.evaluation.runcache.LocalDirectoryBackend` layout the
in-process cache uses, so the two backends answer each other's entries
byte-identically: pointing ``--cache-dir`` at a served directory and
``--cache-url`` at its server read and write the very same files.

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
import urllib.error
import urllib.request
from pathlib import Path
from typing import Iterable, Iterator, Optional, Set

from repro.evaluation.simserver import SERVICE_NAME
from repro.observability import telemetry as _telemetry

DEFAULT_TIMEOUT = 10.0

#: Consecutive transport failures after which :class:`HTTPCacheBackend`
#: logs one warning and counts ``runcache.http.failopen`` — the "your
#: cache daemon is dead and every run is silently re-simulating" alarm.
#: A successful reply re-arms the detector.
FAILOPEN_THRESHOLD = 3

_log = logging.getLogger(__name__)


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
