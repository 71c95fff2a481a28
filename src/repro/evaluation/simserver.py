"""Simulation-as-a-service: ``repro serve``, the run farm and run cache.

``repro serve`` exposes the whole evaluation stack — request
construction, content-addressed run caching, and machine simulation —
behind one asyncio HTTP endpoint, so many clients (CI jobs, notebook
sessions, sweep fleets) share a single simulation farm instead of each
simulating locally.  Clients POST ``(benchmark, program_kind, width,
engine, repeat_factor)`` jobs to ``/v1/runs`` and get back the exact
:meth:`~repro.system.metrics.RunResult.to_dict` wire format the run
cache and process pool already speak.  The same server answers the
run-cache protocol that :class:`~repro.evaluation.cacheserver
.HTTPCacheBackend` speaks, so ``--cache-url`` sweeps share the farm's
result store (``repro cache serve`` is this server over a cache
directory).

The run handler answers each request from the cheapest possible source:

1. **memo / cache hit** — the key (the same engine-invariant
   :func:`~repro.evaluation.runcache.run_key_for_bytes` address every
   other consumer uses, derived once per request) is already answered:
   O(1), zero simulation, and the memoized result bytes are spliced
   into the reply unencoded.
2. **coalesced** — an identical request is *in flight*: the handler
   awaits the existing run instead of starting a second one
   (single-flight, keyed by run key).  A thousand simultaneous
   identical cold requests cost exactly one machine-run.
3. **cold** — the request is fanned out to a bounded, persistent
   ``ProcessPoolExecutor`` (``--jobs``, created on the first cold run)
   through the same ``_pool_worker`` transport the
   :class:`~repro.evaluation.runner.RunScheduler` uses, and the result
   is stored back into the cache (first-writer-wins) so every later
   consumer — this server, a ``repro sweep`` shard, a plain
   ``evaluate`` — answers warm.

Protocol (all bodies JSON except entry bytes; keys are 64-hex-digit
SHA-256 content addresses):

==========================  ============================================
``POST /v1/runs``           ``{"benchmark", "program_kind", "width",
                            "engine", "repeat_factor"}`` ->
                            ``{service, key, source, seconds, result}``
                            where ``source`` is ``hit`` | ``coalesced``
                            | ``cold`` and ``result`` is the telemetry-
                            stripped ``RunResult.to_dict()`` payload —
                            byte-identical to a direct scheduler run
``GET /stats``              ``{service, format_version, jobs, inflight,
                            backend, entries, size_bytes, stats}`` —
                            the readiness probe of both kinds of client
``GET /runs/<key>``         entry bytes, or 404
``HEAD /runs/<key>``        presence probe for one key
``PUT /runs/<key>``         store (201), or 409 when an entry already
                            exists — **first writer wins**; results are
                            deterministic, so the loser's bytes were
                            identical and losing is not an error
``DELETE /runs/<key>``      best-effort removal (204)
``POST /contains``          ``{"keys": [...]}`` -> ``{"present": [...]}``
                            — a whole sweep probed in one round-trip
``POST /clear``             delete every entry -> ``{"removed": n}``
==========================  ============================================

The cache endpoints exist only when the server has a cache; they run
against its backend on the default thread executor.

Failure modes: malformed or unknown-benchmark jobs get a 400 without
touching the pool; a ``POST``/``PUT`` whose ``Content-Length`` is
missing, any request whose ``Content-Length`` is non-integer or
negative, and a body cut short of its length get 400
``{"error": "bad Content-Length"}``; every 4xx reply closes the
connection.  A crashed worker (the pool dies with it) gets a clean 500
and the pool is rebuilt for the next request; a client that
disconnects mid-run abandons only its *reply* — the simulation
completes, is cached, and answers the next identical request warm.
Shutdown aborts every open connection instead of waiting on its peer.
``serve.*`` telemetry (docs/observability.md) attributes every run
request, and ``GET /stats`` serves the same counts unconditionally
(telemetry off included) for CI smoke gates.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from repro.core.scalarize import check_width
from repro.evaluation.runcache import CACHE_FORMAT_VERSION, RunCache
from repro.evaluation.runner import (
    PROGRAM_KINDS,
    RunRequest,
    RunScheduler,
    _pool_worker,
)
from repro.interp.executor import ENGINES
from repro.kernels.suite import BENCHMARK_ORDER
from repro.observability import telemetry as _telemetry
from repro.simd.accelerator import config_for_width
from repro.system.machine import MachineConfig
from repro.system.metrics import RunResult

#: Value of the ``service`` field in responses; clients (the
#: ``--cache-url`` backend included) check it so a URL pointed at some
#: unrelated HTTP server reads as unreachable.
SERVICE_NAME = "repro-sim-server"

#: Entry keys are SHA-256 hex digests; anything else is rejected with
#: 400 before touching the cache backend (no path traversal).
KEY_RE = re.compile(r"^[0-9a-f]{64}$")

#: In-process memo of recently answered keys, each held as its result's
#: compact JSON bytes: a warm storm of identical requests never re-reads
#: the cache entry from disk, and each hit splices those bytes into its
#: reply instead of encoding the result again.  Bounded FIFO — the
#: persistent cache remains the real store.
MEMO_ENTRIES = 256


class ServeRequestError(ValueError):
    """A client request that cannot be turned into a RunRequest."""


def parse_run_request(payload: dict) -> RunRequest:
    """Validate one ``POST /v1/runs`` body into a :class:`RunRequest`.

    Raises :class:`ServeRequestError` with a client-facing message on
    anything malformed; nothing here touches the pool or the cache.
    """
    if not isinstance(payload, dict):
        raise ServeRequestError("request body must be a JSON object")
    unknown = set(payload) - {"benchmark", "program_kind", "width",
                              "engine", "repeat_factor"}
    if unknown:
        raise ServeRequestError(
            f"unknown field{'s' if len(unknown) > 1 else ''}: "
            f"{', '.join(sorted(unknown))}")
    benchmark = payload.get("benchmark")
    if benchmark not in BENCHMARK_ORDER:
        raise ServeRequestError(
            f"unknown benchmark {benchmark!r}; "
            f"choices: {', '.join(BENCHMARK_ORDER)}")
    kind = payload.get("program_kind", "liquid")
    if kind not in PROGRAM_KINDS:
        raise ServeRequestError(
            f"program_kind must be one of {PROGRAM_KINDS}, got {kind!r}")
    engine = payload.get("engine", "fast")
    if engine not in ENGINES:
        raise ServeRequestError(
            f"engine must be one of {ENGINES}, got {engine!r}")
    repeat = payload.get("repeat_factor", 1)
    if not isinstance(repeat, int) or isinstance(repeat, bool) \
            or not 1 <= repeat <= 16:
        raise ServeRequestError(
            f"repeat_factor must be an integer in [1, 16], got {repeat!r}")
    width = payload.get("width")
    if kind == "baseline":
        if width is not None:
            raise ServeRequestError(
                "baseline runs take no accelerator; omit 'width'")
        accelerator = None
    else:
        if width is None:
            width = 8
        try:
            check_width(width)
        except ValueError as exc:
            raise ServeRequestError(str(exc)) from None
        accelerator = config_for_width(width)
    config = MachineConfig(accelerator=accelerator, engine=engine)
    return RunRequest(benchmark, kind, config, repeat_factor=repeat)


@dataclass
class ServeStats:
    """Where every ``/v1/runs`` request was answered from.

    Served unconditionally through ``GET /stats`` (telemetry may be
    off), so tests and the CI smoke can assert "cold ran exactly once,
    warm simulated nothing" without instrumenting the server.
    """

    requests: int = 0
    hits: int = 0          # answered from memo or persistent cache
    coalesced: int = 0     # awaited an identical in-flight run
    cold: int = 0          # started a new simulation
    executed: int = 0      # machine-runs completed by the pool
    errors: int = 0        # 5xx responses (worker crash, pool failure)
    bad_requests: int = 0  # 400s for a malformed job or bad framing
    max_queue_depth: int = 0

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "hits": self.hits,
            "coalesced": self.coalesced,
            "cold": self.cold,
            "executed": self.executed,
            "errors": self.errors,
            "bad_requests": self.bad_requests,
            "max_queue_depth": self.max_queue_depth,
        }


@dataclass
class _Inflight:
    """One cold run in flight: the task plus its waiter count."""

    task: asyncio.Task
    waiters: int = 0
    submitted: float = field(default_factory=time.perf_counter)


class SimServer:
    """The ``repro serve`` daemon: asyncio front end, process-pool back.

    One event loop accepts and parses requests; cache reads/writes run
    on the default thread executor (so a slow disk or a remote
    ``--cache-url`` backend never stalls accept), and simulations run
    on a bounded persistent :class:`ProcessPoolExecutor`, created on
    the first cold run (a farm that only serves the cache forks no
    workers).  ``port=0`` binds an ephemeral port — read the real one
    back from :attr:`url` after :meth:`start`.

    *worker* is a test seam: the pool entry point, defaulting to the
    scheduler's ``_pool_worker`` (crash tests inject one that dies).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 jobs: Optional[int] = None,
                 cache: Optional[RunCache] = None,
                 worker=None) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.host = host
        self.port = port
        self.jobs = jobs
        self.cache = cache
        self.stats = ServeStats()
        #: Key/encode memoization only — programs are built and encoded
        #: once per program_id, exactly as a sweep does, and each
        #: request's run key is derived once; this scheduler never
        #: simulates (the pool below does).
        self.scheduler = RunScheduler(jobs=1, cache=cache)
        self._worker = worker or _pool_worker
        self._memo: Dict[str, bytes] = {}
        self._inflight: Dict[str, _Inflight] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopping: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "SimServer":
        """Serve on a daemon thread; the CLI and tests both use this."""
        self._thread = threading.Thread(target=self._thread_main,
                                        daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=15.0):
            raise RuntimeError("sim server failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError("sim server failed to start") \
                from self._startup_error
        return self

    def shutdown(self) -> None:
        loop = self._loop
        if loop is not None and loop.is_running() \
                and self._stopping is not None:
            loop.call_soon_threadsafe(self._stopping.set)
        if self._thread is not None:
            self._thread.join(timeout=15.0)
            self._thread = None

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - reported to start()
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        server = await asyncio.start_server(self._handle_client,
                                            self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            await self._stopping.wait()
        finally:
            # Stop listening, but do not wait_closed(): since 3.12 it
            # waits for every open connection.  asyncio.run() cancels
            # the connection handlers once this returns.
            server.close()
            pool, self._pool = self._pool, None
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)

    # -- pool --------------------------------------------------------------

    def _executor(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def _reset_pool(self) -> None:
        """Replace a broken pool so one crashed worker cannot wedge the
        farm — the next cold request gets a fresh executor."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            await self._converse(reader, writer)
            writer.close()
            await writer.wait_closed()
        except (OSError, asyncio.CancelledError):
            # The client went away, or shutdown cancelled this handler:
            # abort rather than wait on a peer that may never read (one
            # that stopped reading parks the handler in drain()).  Any
            # run it started keeps going — other coalesced waiters (and
            # the cache) still want it.  The task must not end
            # cancelled: the stream protocol's done-callback would log
            # the CancelledError as an unhandled exception.
            writer.transport.abort()

    async def _converse(self, reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter) -> None:
        """Answer requests on one connection until either side closes."""
        while True:
            try:
                request_line = await reader.readline()
                method, path, _version = \
                    request_line.decode("latin-1").split(None, 2)
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
            except ValueError:  # EOF, garbage, or an overlong line
                return
            body = await self._read_body(reader, method, headers)
            if body is None:
                status, payload = self._bad_request("bad Content-Length")
            else:
                status, payload = await self._route(method, path, body)
            # A 4xx closes the connection: where a refused or malformed
            # request's body ends is not to be trusted.
            close = (400 <= status < 500
                     or headers.get("connection", "").lower() == "close")
            if isinstance(payload, dict):
                payload = json.dumps(payload,
                                     separators=(",", ":")).encode("utf-8")
            head_lines = [
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Status')}",
                "Content-Type: application/json",
                f"Content-Length: {len(payload)}",
            ]
            if close:
                head_lines.append("Connection: close")
            head = "\r\n".join(head_lines) + "\r\n\r\n"
            writer.write(head.encode("latin-1")
                         + (payload if method != "HEAD" else b""))
            await writer.drain()
            if close:
                return

    @staticmethod
    async def _read_body(reader: asyncio.StreamReader, method: str,
                         headers: Dict[str, str]) -> Optional[bytes]:
        """The request body, or None when its framing is bad: a
        ``POST``/``PUT`` without ``Content-Length``, a non-integer or
        negative one, or a body cut short of it."""
        length = headers.get("content-length")
        if length is None and method not in ("POST", "PUT"):
            return b""
        try:
            length = int(length)
            if length < 0:
                return None
            return await reader.readexactly(length)
        except (TypeError, ValueError, asyncio.IncompleteReadError):
            return None

    async def _route(self, method: str, path: str,
                     body: bytes) -> Tuple[int, Union[dict, bytes]]:
        if method == "POST" and path == "/v1/runs":
            return await self._handle_run(body)
        if method == "GET" and path == "/stats":
            return 200, await self._stats_payload()
        if self.cache is not None:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(None, self._cache_request,
                                              method, path, body)
        return 404, {"error": "unknown endpoint"}

    def _bad_request(self, message: str) -> Tuple[int, dict]:
        self.stats.bad_requests += 1
        _telemetry.get().count("serve.bad_requests")
        return 400, {"error": message}

    async def _stats_payload(self) -> dict:
        cache = self.cache
        backend, entries, size_bytes = None, 0, 0
        if cache is not None:
            loop = asyncio.get_running_loop()
            backend, entries, size_bytes = await loop.run_in_executor(
                None, lambda: (cache.describe(), cache.entry_count(),
                               cache.size_bytes()))
        return {
            "service": SERVICE_NAME,
            "format_version": CACHE_FORMAT_VERSION,
            "jobs": self.jobs,
            "inflight": len(self._inflight),
            "backend": backend,
            "entries": entries,
            "size_bytes": size_bytes,
            "stats": self.stats.to_dict(),
        }

    # -- the cache endpoints -----------------------------------------------

    def _cache_request(self, method: str, path: str,
                       body: bytes) -> Tuple[int, Union[dict, bytes]]:
        """Any other request, answered from the cache protocol against
        the cache's backend; runs on the default thread executor
        (backends block on I/O)."""
        backend = self.cache.backend
        if method == "POST" and path == "/contains":
            try:
                keys = json.loads(body.decode("utf-8"))["keys"]
                if not isinstance(keys, list):
                    raise TypeError("keys must be a list")
            except (UnicodeDecodeError, ValueError, KeyError, TypeError,
                    RecursionError):
                return 400, {"error": "bad probe body"}
            valid = [k for k in keys
                     if isinstance(k, str) and KEY_RE.fullmatch(k)]
            return 200, {"present": sorted(backend.contains_many(valid))}
        if method == "POST" and path == "/clear":
            return 200, {"removed": backend.clear()}
        if not path.startswith("/runs/") \
                or method not in ("GET", "HEAD", "PUT", "DELETE"):
            return 404, {"error": "unknown endpoint"}
        key = path[len("/runs/"):]
        if not KEY_RE.fullmatch(key):
            return 400, {"error": "bad key"}
        if method == "GET":
            entry = backend.load(key)
            return (200, entry) if entry is not None \
                else (404, {"error": "not found"})
        if method == "HEAD":
            return (200 if backend.contains_many([key]) else 404), b""
        if method == "DELETE":
            backend.delete(key)
            return 204, b""
        if not body:
            return 400, {"error": "empty body"}
        if backend.store(key, body):
            return 201, {"stored": True}
        # First writer won; deterministic results make this benign.
        return 409, {"stored": False}

    # -- the run endpoint --------------------------------------------------

    async def _handle_run(self, body: bytes
                          ) -> Tuple[int, Union[dict, bytes]]:
        start = time.perf_counter()
        tel = _telemetry.get()
        self.stats.requests += 1
        tel.count("serve.requests")
        try:
            payload = json.loads(body.decode("utf-8"))
            request = parse_run_request(payload)
        except (UnicodeDecodeError, ValueError, RecursionError) as exc:
            return self._bad_request(str(exc) or "malformed JSON body")

        key = self.scheduler.key_for(request)
        result = await self._load_warm(key)
        if result is not None:
            self.stats.hits += 1
            tel.count("serve.hits")
            return 200, self._envelope(key, "hit", start, result)

        entry = self._inflight.get(key)
        if entry is not None:
            self.stats.coalesced += 1
            tel.count("serve.coalesced")
            source = "coalesced"
        else:
            loop = asyncio.get_running_loop()
            entry = _Inflight(loop.create_task(self._simulate(key, request)))
            self._inflight[key] = entry
            self.stats.cold += 1
            tel.count("serve.cold")
            depth = len(self._inflight)
            if depth > self.stats.max_queue_depth:
                self.stats.max_queue_depth = depth
            tel.observe("serve.queue_depth", depth)
            source = "cold"
        entry.waiters += 1
        try:
            # shield(): a dropped client must never cancel a run other
            # waiters (and the cache) are counting on.
            result = await asyncio.shield(entry.task)
        except Exception as exc:  # noqa: BLE001 - mapped to a clean 5xx
            self.stats.errors += 1
            tel.count("serve.errors")
            return 500, {"error": f"simulation failed: {exc}"}
        return 200, self._envelope(key, source, start, result)

    def _envelope(self, key: str, source: str, start: float,
                  result: bytes) -> bytes:
        """The reply bytes: the encoded four-field head with the encoded
        *result* spliced in as its last field.

        ``json.dumps`` of the whole dict, ``"result"`` last, is these
        exact bytes — the head's encoding without its closing ``}``,
        then ``,"result":``, the result's encoding and ``}`` — so a hit
        copies the result instead of encoding it again.
        """
        head = json.dumps({
            "service": SERVICE_NAME,
            "key": key,
            "source": source,
            "seconds": round(time.perf_counter() - start, 6),
        }, separators=(",", ":")).encode("utf-8")
        return b"".join((head[:-1], b',"result":', result, b"}"))

    async def _load_warm(self, key: str) -> Optional[bytes]:
        """The encoded result for *key* from the memo or the cache, else
        None.

        A memo miss reads the cache on the default thread executor, so a
        remote backend's round-trip never blocks the accept loop.  The
        entry is validated by :meth:`RunCache.load` (format version,
        stored key, ``RunResult.from_dict``) and encoded once into the
        memo; its raw bytes are never served, since a client can ``PUT``
        any bytes under a valid key.
        """
        result = self._memo.get(key)
        if result is not None:
            return result
        if self.cache is None:
            return None
        loop = asyncio.get_running_loop()
        hit = await loop.run_in_executor(None, self.cache.load, key)
        if hit is None:
            return None
        wire = hit.to_dict()
        wire.pop("telemetry", None)
        return self._remember(key, wire)

    def _remember(self, key: str, wire: dict) -> bytes:
        """Encode *wire* into the memo under *key*; returns the bytes."""
        if len(self._memo) >= MEMO_ENTRIES:
            # FIFO bound: drop the oldest insertion (dicts preserve
            # insertion order); the persistent cache still has it.
            self._memo.pop(next(iter(self._memo)))
        result = json.dumps(wire, separators=(",", ":")).encode("utf-8")
        self._memo[key] = result
        return result

    async def _simulate(self, key: str, request: RunRequest) -> bytes:
        """Run one cold request on the pool, cache it, return the
        encoded result.

        Exactly one of these exists per key at a time (the single-flight
        map); every error path removes the key so a failed run can be
        retried cold instead of poisoning the key forever.
        """
        loop = asyncio.get_running_loop()
        try:
            encoded = self.scheduler.encoded_for(request)
            try:
                wire = await loop.run_in_executor(
                    self._executor(), self._worker, request, encoded)
            except BrokenProcessPool:
                self._reset_pool()
                raise
            self.stats.executed += 1
            _telemetry.get().count("serve.executed")
            wire.pop("telemetry", None)
            if self.cache is not None:
                await loop.run_in_executor(None, self.cache.store,
                                           key, RunResult.from_dict(wire))
            return self._remember(key, wire)
        finally:
            self._inflight.pop(key, None)


_REASONS = {200: "OK", 201: "Created", 204: "No Content",
            400: "Bad Request", 404: "Not Found", 409: "Conflict",
            500: "Internal Server Error"}
