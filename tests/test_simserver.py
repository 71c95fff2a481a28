"""Simulation-farm service tests (docs/serving.md).

The contract ``repro serve`` must honor:

* responses carry the exact ``RunResult.to_dict()`` wire format — byte
  identical to a direct scheduler run of the same request, whichever
  source answered, and a memo hit encodes only the reply's head,
* warm requests answer from the run cache with zero simulation,
* N simultaneous identical cold requests coalesce onto **one**
  machine-run (single-flight, the run-key analogue of the fragment
  store's first-writer-wins race),
* a crashed worker returns a clean 5xx and the pool is rebuilt — the
  farm never wedges,
* a client that disconnects mid-run abandons only its reply; the run
  completes, lands in the cache, and answers the next request warm,
* malformed jobs — garbage bodies of any shape — get a 400 without
  touching the pool or the memo,
* a cache that cannot be written costs the entry, never the reply,
* the run-cache endpoints share the server's cache with ``/v1/runs``,
  and an entry stored under the wrong key never answers a run,
* shutdown is prompt and quiet, whatever its clients are doing.
"""

import contextlib
import functools
import gc
import http.client
import json
import logging
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
import types
import urllib.error
import urllib.request
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
import repro.evaluation.simserver as simserver
from repro.evaluation.cacheserver import HTTPCacheBackend
from repro.evaluation.runcache import RunCache, entry_payload, run_key
from repro.evaluation.runner import (
    PROGRAM_KINDS,
    RunRequest,
    RunScheduler,
    _pool_worker,
    build_request_program,
    execute_request,
)
from repro.evaluation.simserver import (
    SERVICE_NAME,
    ServeRequestError,
    SimServer,
    parse_run_request,
)
from repro.interp.executor import ENGINES
from repro.kernels.suite import BENCHMARK_ORDER
from repro.observability import telemetry
from repro.system.machine import MachineConfig

FIR_W4 = {"benchmark": "FIR", "width": 4}


def post(server, payload, timeout=60.0):
    """(status, reply dict) for one POST /v1/runs."""
    status, body = post_raw(server, payload, timeout)
    return status, json.loads(body)


def post_raw(server, payload, timeout=60.0):
    """(status, raw reply bytes) for one POST /v1/runs on a new
    connection; *payload* is JSON-encoded unless it is already bytes."""
    if not isinstance(payload, bytes):
        payload = json.dumps(payload).encode("utf-8")
    conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                      timeout=timeout)
    try:
        conn.request("POST", "/v1/runs", body=payload,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def stats(server):
    with urllib.request.urlopen(server.url + "/stats", timeout=10) as resp:
        return json.loads(resp.read())


@functools.lru_cache(maxsize=None)
def _direct_bytes(payload_json: str) -> bytes:
    wire = execute_request(
        parse_run_request(json.loads(payload_json))).to_dict()
    wire.pop("telemetry", None)
    return json.dumps(wire, separators=(",", ":")).encode("utf-8")


def direct_bytes(payload: dict) -> bytes:
    """Compact JSON of a direct in-process run's telemetry-stripped
    ``RunResult.to_dict()`` (simulated once per payload)."""
    return _direct_bytes(json.dumps(payload, sort_keys=True))


def assert_reply(body: bytes, source: str, expected: bytes) -> None:
    """*body* is the compact ``json.dumps`` of the reply envelope: the
    head's four fields in order, then ``"result"`` holding exactly the
    *expected* result bytes."""
    head, sep, tail = body.partition(b',"result":')
    assert sep, f"no result in reply: {body[:200]!r}"
    fields = json.loads(head + b"}")
    assert list(fields) == ["service", "key", "source", "seconds"]
    assert fields["service"] == SERVICE_NAME
    assert fields["source"] == source
    assert tail == expected + b"}"


def raw_exchange(server, request: bytes):
    """(status line, reply dict) for one raw-socket request after which
    the server closes the connection."""
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=10) as sock:
        sock.sendall(request)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0].decode("latin-1"), json.loads(body)


@pytest.fixture()
def server(tmp_path):
    server = SimServer(jobs=2, cache=RunCache(tmp_path / "served")).start()
    yield server
    server.shutdown()


class TestParseRunRequest:
    def test_defaults(self):
        request = parse_run_request({"benchmark": "FIR"})
        assert request.program_kind == "liquid"
        assert request.config.accelerator.width == 8
        assert request.config.engine == "fast"
        assert request.repeat_factor == 1

    def test_baseline_has_no_accelerator(self):
        request = parse_run_request({"benchmark": "LU",
                                     "program_kind": "baseline"})
        assert request.config.accelerator is None

    @pytest.mark.parametrize("payload", [
        "not a dict",
        {},
        {"benchmark": "nope"},
        {"benchmark": "FIR", "program_kind": "mystery"},
        {"benchmark": "FIR", "engine": "warp"},
        {"benchmark": "FIR", "width": 1},
        {"benchmark": "FIR", "width": 4.0},
        {"benchmark": "FIR", "width": True},
        {"benchmark": "FIR", "width": 1 << 20},
        {"benchmark": "FIR", "repeat_factor": 0},
        {"benchmark": "FIR", "repeat_factor": 99},
        {"benchmark": "FIR", "program_kind": "baseline", "width": 4},
        {"benchmark": "FIR", "surprise": 1},
        {"benchmark": "FIR", "engine": "turbo"},
        {"benchmark": "FIR", "engine": "macro"},
        # widths the binaries cannot run: not a power of two, or past
        # their maximum vector length (16)
        {"benchmark": "FIR", "width": 12},
        {"benchmark": "FIR", "width": 32},
        {"benchmark": "FIR", "width": 64},
    ])
    def test_rejects_malformed(self, payload):
        with pytest.raises(ServeRequestError):
            parse_run_request(payload)


class TestColdWarm:
    def test_cold_then_hit(self, server):
        status, cold = post(server, FIR_W4)
        assert status == 200 and cold["source"] == "cold"
        assert cold["service"] == SERVICE_NAME
        assert cold["result"]["cycles"] > 0

        status, warm = post(server, FIR_W4)
        assert status == 200 and warm["source"] == "hit"
        assert warm["key"] == cold["key"]
        assert warm["result"] == cold["result"]

        served = stats(server)["stats"]
        assert served["cold"] == 1 and served["executed"] == 1
        assert served["hits"] == 1 and served["errors"] == 0

    def test_result_byte_identical_to_direct_scheduler_run(self, server):
        for source in ("cold", "hit"):
            status, body = post_raw(server, FIR_W4)
            assert status == 200
            assert_reply(body, source, direct_bytes(FIR_W4))

    def test_pre_populated_cache_answers_without_simulation(self,
                                                            tmp_path):
        cache = RunCache(tmp_path / "shared")
        request = parse_run_request(FIR_W4)
        RunScheduler(jobs=1, cache=cache).run(request)

        server = SimServer(jobs=1, cache=RunCache(tmp_path / "shared"))
        server.start()
        try:
            status, body = post_raw(server, FIR_W4)
            assert status == 200
            assert_reply(body, "hit", direct_bytes(FIR_W4))
            assert stats(server)["stats"]["executed"] == 0
        finally:
            server.shutdown()

    def test_keys_are_engine_invariant(self, server):
        """Engines are bit-identical, so a run served for one engine
        answers every other engine's identical request warm."""
        _, cold = post(server, dict(FIR_W4, engine="fast"))
        _, warm = post(server, dict(FIR_W4, engine="reference"))
        assert warm["source"] == "hit"
        assert warm["key"] == cold["key"]
        assert warm["result"] == cold["result"]

    def test_cold_run_lands_in_shared_cache(self, server):
        _, reply = post(server, FIR_W4)
        hit = server.cache.load(reply["key"])
        assert hit is not None
        wire = hit.to_dict()
        wire.pop("telemetry", None)
        assert wire == reply["result"]

    def test_serve_telemetry_counters(self, tmp_path):
        server = SimServer(jobs=1, cache=RunCache(tmp_path / "tel"))
        server.start()
        tel = telemetry.enable()
        try:
            post(server, FIR_W4)
            post(server, FIR_W4)
            post(server, {"benchmark": "nope"})
            counters = dict(tel.to_dict()["counters"])
        finally:
            telemetry.disable()
            server.shutdown()
        assert counters.get("serve.requests") == 3
        assert counters.get("serve.cold") == 1
        assert counters.get("serve.executed") == 1
        assert counters.get("serve.hits") == 1
        assert counters.get("serve.bad_requests") == 1


def _held_worker(flag_path, request, encoded):
    """Pool entry point that holds its run open while *flag_path*
    exists, so a test decides when a cold run lands."""
    while os.path.exists(flag_path):
        time.sleep(0.01)
    return _pool_worker(request, encoded)


def wait_for(predicate, seconds=30.0):
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


class TestReplyBytes:
    """Whichever source answers, a 200 is the compact ``json.dumps`` of
    the envelope with ``result`` last, and the result bytes are those
    of a direct run; a hit copies them instead of encoding them.
    (``TestColdWarm`` reads the bytes of a cold run, a memo hit and a
    hit from a pre-filled cache.)"""

    def test_coalesced(self, tmp_path):
        flag = tmp_path / "hold"
        flag.write_text("")
        server = SimServer(jobs=1, cache=RunCache(tmp_path / "cache"),
                           worker=functools.partial(_held_worker, str(flag)))
        server.start()
        replies = {}

        def fire(name):
            replies[name] = post_raw(server, FIR_W4)

        threads = {name: threading.Thread(target=fire, args=(name,))
                   for name in ("cold", "coalesced")}
        try:
            threads["cold"].start()
            wait_for(lambda: stats(server)["inflight"] == 1)
            threads["coalesced"].start()
            wait_for(lambda: stats(server)["stats"]["coalesced"] == 1)
        finally:
            flag.unlink()
            for thread in threads.values():
                thread.join(timeout=60)
            server.shutdown()
        for source, (status, body) in replies.items():
            assert status == 200
            assert_reply(body, source, direct_bytes(FIR_W4))

    def test_hit_after_memo_eviction(self, server, monkeypatch):
        monkeypatch.setattr(simserver, "MEMO_ENTRIES", 1)
        post_raw(server, FIR_W4)
        post_raw(server, {"benchmark": "FIR", "width": 2})  # evicts FIR_W4
        hits = server.cache.stats.hits
        status, body = post_raw(server, FIR_W4)
        assert status == 200
        assert_reply(body, "hit", direct_bytes(FIR_W4))
        assert server.cache.stats.hits == hits + 1, \
            "the evicted key must be answered from the cache"

    def test_a_memo_hit_encodes_only_the_head(self, server, monkeypatch):
        post_raw(server, FIR_W4)  # the cold fill
        encoded = []

        def dumps(obj, **kwargs):
            encoded.append(obj)
            return json.dumps(obj, **kwargs)

        monkeypatch.setattr(simserver, "json", types.SimpleNamespace(
            dumps=dumps, loads=json.loads))
        status, body = post_raw(server, FIR_W4)
        assert status == 200
        assert_reply(body, "hit", direct_bytes(FIR_W4))
        assert [list(obj) for obj in encoded] == \
            [["service", "key", "source", "seconds"]]


def _counting_worker(log_path, request, encoded):
    """Pool entry point that tallies every machine-run before running.

    O_APPEND writes are atomic at this size, so concurrent workers (or
    racing requests, if single-flight ever broke) each leave exactly
    one line.
    """
    with open(log_path, "a") as log:
        log.write(f"{request.benchmark}\n")
    time.sleep(0.2)  # hold the run open so duplicates must coalesce
    return _pool_worker(request, encoded)


class TestSingleFlight:
    def test_identical_concurrent_posts_one_machine_run(self, tmp_path):
        log_path = tmp_path / "runs.log"
        server = SimServer(
            jobs=2, cache=RunCache(tmp_path / "cache"),
            worker=functools.partial(_counting_worker, str(log_path)))
        server.start()
        replies = []

        def fire():
            replies.append(post(server, FIR_W4))

        try:
            threads = [threading.Thread(target=fire) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            served = stats(server)["stats"]
            server.shutdown()

        assert log_path.read_text().splitlines() == ["FIR"], \
            "8 identical cold requests must cost exactly one machine-run"
        assert served["executed"] == 1
        statuses = [status for status, _ in replies]
        assert statuses == [200] * 8
        sources = sorted(reply["source"] for _, reply in replies)
        assert sources.count("cold") == 1
        # The rest coalesced onto the in-flight run (or, if they raced
        # in after it landed, hit the cache) — never a second cold.
        assert all(s in ("cold", "coalesced", "hit") for s in sources)
        assert sources.count("coalesced") + sources.count("hit") == 7
        results = {json.dumps(reply["result"], sort_keys=True)
                   for _, reply in replies}
        assert len(results) == 1, "every waiter sees identical bytes"

    def test_distinct_requests_do_not_coalesce(self, server):
        _, a = post(server, {"benchmark": "FIR", "width": 4})
        _, b = post(server, {"benchmark": "FIR", "width": 8})
        assert a["key"] != b["key"]
        assert a["source"] == b["source"] == "cold"
        assert stats(server)["stats"]["executed"] == 2


def _crash_on_fft_worker(request, encoded):
    if request.benchmark == "FFT":
        os._exit(3)  # hard-kill the pool process, not an exception
    return _pool_worker(request, encoded)


def _raise_on_lu_worker(request, encoded):
    if request.benchmark == "LU":
        raise ValueError("injected simulation failure")
    return _pool_worker(request, encoded)


class TestFailureModes:
    def test_worker_crash_returns_500_and_pool_recovers(self, tmp_path):
        server = SimServer(jobs=1, cache=RunCache(tmp_path / "cache"),
                           worker=_crash_on_fft_worker)
        server.start()
        try:
            status, reply = post(server, {"benchmark": "FFT", "width": 4})
            assert status == 500 and "error" in reply
            # The broken pool was replaced: the next request simulates.
            status, reply = post(server, FIR_W4)
            assert status == 200 and reply["source"] == "cold"
            served = stats(server)["stats"]
            assert served["errors"] == 1 and served["executed"] == 1
        finally:
            server.shutdown()

    def test_worker_exception_returns_500_without_breaking_pool(
            self, tmp_path):
        server = SimServer(jobs=1, cache=RunCache(tmp_path / "cache"),
                           worker=_raise_on_lu_worker)
        server.start()
        try:
            status, reply = post(server, {"benchmark": "LU", "width": 4})
            assert status == 500
            assert "injected simulation failure" in reply["error"]
            status, reply = post(server, FIR_W4)
            assert status == 200 and reply["source"] == "cold"
        finally:
            server.shutdown()

    def test_unwritable_cache_still_answers(self, tmp_path):
        """A cache rooted at a regular file cannot store the finished
        run: the reply is still its result, counted as a cache error,
        and the memo answers the next request without a second run."""
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        server = SimServer(jobs=1, cache=RunCache(blocker)).start()
        try:
            replies = [post_raw(server, FIR_W4) for _ in range(2)]
            served = stats(server)["stats"]
        finally:
            server.shutdown()
        assert [status for status, _ in replies] == [200, 200]
        assert_reply(replies[0][1], "cold", direct_bytes(FIR_W4))
        assert_reply(replies[1][1], "hit", direct_bytes(FIR_W4))
        assert served["executed"] == 1 and served["errors"] == 0
        assert server.cache.stats.errors == 1

    def test_failed_key_can_be_retried(self, tmp_path):
        """An error must evict the in-flight entry, not poison the key."""
        flag = tmp_path / "fail-once"
        flag.write_text("x")
        server = SimServer(
            jobs=1, cache=RunCache(tmp_path / "cache"),
            worker=functools.partial(_fail_while_flagged, str(flag)))
        server.start()
        try:
            status, _ = post(server, FIR_W4)
            assert status == 500
            flag.unlink()
            status, reply = post(server, FIR_W4)
            assert status == 200 and reply["source"] == "cold"
        finally:
            server.shutdown()

    def test_client_disconnect_does_not_cancel_the_run(self, server):
        """Send a cold request, vanish before the reply: the run must
        complete, land in the cache, and answer the next request warm."""
        body = json.dumps(FIR_W4).encode("utf-8")
        raw = (f"POST /v1/runs HTTP/1.1\r\nHost: 127.0.0.1\r\n"
               f"Content-Length: {len(body)}\r\n\r\n").encode() + body
        sock = socket.create_connection(("127.0.0.1", server.port),
                                        timeout=10)
        sock.sendall(raw)
        sock.close()  # gone before the simulation finishes

        deadline = time.time() + 60
        while time.time() < deadline:
            if stats(server)["stats"]["executed"] == 1:
                break
            time.sleep(0.05)
        status, reply = post(server, FIR_W4)
        assert status == 200 and reply["source"] in ("hit", "coalesced")
        served = stats(server)["stats"]
        assert served["executed"] == 1, \
            "the abandoned run must be reused, not re-simulated"

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_is_400(self, server, length, caplog):
        """Where the body ends is unknown: a JSON 400, then the server
        closes the connection (no handler traceback, no silent drop)."""
        status, reply = raw_exchange(server, (
            f"POST /v1/runs HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {length}\r\n\r\n").encode())
        assert status == "HTTP/1.1 400 Bad Request"
        assert reply == {"error": "bad Content-Length"}
        assert stats(server)["stats"]["bad_requests"] == 1
        assert "Unhandled exception" not in caplog.text

    @pytest.mark.parametrize("head, body", [
        ("", b"{}"),
        ("Content-Length: 100\r\n", b'{"benchmark": "FIR"}'),
    ], ids=["missing", "cut-short"])
    def test_unframed_body_is_400(self, server, head, body, caplog):
        """A POST without a Content-Length, or whose body ends short of
        it (the client shuts its side), still gets its JSON 400."""
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as sock:
            sock.sendall((f"POST /v1/runs HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          f"{head}\r\n").encode() + body)
            sock.shutdown(socket.SHUT_WR)
            data = b""
            while chunk := sock.recv(65536):
                data += chunk
        status_line, _, rest = data.partition(b"\r\n")
        assert status_line == b"HTTP/1.1 400 Bad Request"
        assert json.loads(rest.partition(b"\r\n\r\n")[2]) == \
            {"error": "bad Content-Length"}
        assert stats(server)["stats"]["bad_requests"] == 1
        assert "Unhandled exception" not in caplog.text

    def test_too_deeply_nested_json_is_400(self, server, caplog):
        body = b"[" * 200_000
        status, reply = raw_exchange(server, (
            f"POST /v1/runs HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        ).encode() + body)
        assert status == "HTTP/1.1 400 Bad Request"
        assert "recursion" in reply["error"]
        assert stats(server)["stats"]["bad_requests"] == 1
        assert "Unhandled exception" not in caplog.text

    def test_malformed_json_is_400(self, server):
        req = urllib.request.Request(
            server.url + "/v1/runs", data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=10)
        assert excinfo.value.code == 400
        assert stats(server)["stats"]["bad_requests"] == 1

    def test_unknown_endpoint_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.url + "/nope", timeout=10)
        assert excinfo.value.code == 404


@contextlib.contextmanager
def cli_server(*args, preexec_fn=None):
    """``python -m repro *args`` in its own session; yields (process,
    server namespace with ``url`` and ``port``) once it prints its URL.
    *preexec_fn* runs in the child before it starts Python."""
    src = Path(repro.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": "1"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE, text=True, env=env,
        start_new_session=True, preexec_fn=preexec_fn)
    try:
        banner = proc.stdout.readline()
        url = re.search(r"http://[\d.]+:(\d+)", banner)
        assert url, f"no serving banner: {banner!r}"
        yield proc, types.SimpleNamespace(url=url.group(0),
                                          port=int(url.group(1)))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.stdout.close()
        proc.wait(timeout=10)


def _assert_stops_cleanly(proc, server, signum) -> None:
    """*signum* makes serve exit 0 within 10 s, no forked pool worker
    survives holding the listening socket, and the next client is
    refused instead of hanging."""
    proc.send_signal(signum)
    assert proc.wait(timeout=10) == 0
    deadline = time.time() + 10
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        assert time.time() < deadline, "a pool worker outlived serve"
        time.sleep(0.05)
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", server.port), timeout=5)


def test_sigterm_shuts_down_server_and_pool(tmp_path):
    """``repro serve`` treats SIGTERM like Ctrl-C: it exits promptly, no
    forked pool worker survives holding the listening socket, and the
    next client is refused instead of hanging."""
    with cli_server("serve", "--port", "0", "--jobs", "1",
                    "--cache-dir", str(tmp_path / "cache")) as (proc, server):
        status, reply = post(server, FIR_W4)
        assert status == 200 and reply["source"] == "cold"
        _assert_stops_cleanly(proc, server, signal.SIGTERM)


def _ignore_sigint():
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def test_sigint_stops_serve_started_with_sigint_ignored(tmp_path):
    """Under ``nohup`` or as a non-interactive shell's background job,
    serve starts with SIGINT ignored; Ctrl-C must still stop it the
    same clean way."""
    with cli_server("serve", "--port", "0", "--jobs", "1",
                    "--cache-dir", str(tmp_path / "cache"),
                    preexec_fn=_ignore_sigint) as (proc, server):
        status, reply = post(server, FIR_W4)
        assert status == 200 and reply["source"] == "cold"
        _assert_stops_cleanly(proc, server, signal.SIGINT)


def test_cache_serve_boots_the_same_server(tmp_path):
    """``repro cache serve`` is ``repro serve`` over a cache directory:
    the same ``/stats``, runs simulated into that directory, and the
    same SIGTERM exit."""
    cache_dir = tmp_path / "cache"
    with cli_server("cache", "serve", "--port", "0",
                    "--cache-dir", str(cache_dir)) as (proc, server):
        payload = stats(server)
        assert payload["service"] == SERVICE_NAME
        assert payload["backend"]["location"] == str(cache_dir)
        assert payload["entries"] == 0
        status, reply = post(server, FIR_W4)
        assert status == 200 and reply["source"] == "cold"
        assert stats(server)["entries"] == 1
        assert RunCache(cache_dir).load(reply["key"]) is not None

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0


def _fail_while_flagged(flag_path, request, encoded):
    if os.path.exists(flag_path):
        raise ValueError("flagged failure")
    return _pool_worker(request, encoded)


class TestStatsEndpoint:
    def test_identifies_service_and_backend(self, server):
        payload = stats(server)
        assert payload["service"] == SERVICE_NAME
        assert payload["jobs"] == 2
        assert payload["backend"]["backend"] == "local"
        assert payload["inflight"] == 0

    def test_no_cache_mode(self, tmp_path):
        server = SimServer(jobs=1, cache=None).start()
        try:
            assert stats(server)["backend"] is None
            status, a = post(server, FIR_W4)
            assert status == 200 and a["source"] == "cold"
            # Without a cache the memo still answers a repeat.
            _, b = post(server, FIR_W4)
            assert b["source"] == "hit"
            assert b["result"] == a["result"]
            assert stats(server)["stats"]["executed"] == 1
        finally:
            server.shutdown()

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            SimServer(jobs=0)


def warm_rounds(server, connections: int, rounds: int):
    """Send *rounds* FIR_W4 requests over each of *connections*
    keep-alive connections (every connection in flight at once each
    round); returns (the still-open connections, [(status, source)])."""
    conns = [http.client.HTTPConnection("127.0.0.1", server.port,
                                        timeout=60)
             for _ in range(connections)]
    body = json.dumps(FIR_W4).encode("utf-8")
    replies = []
    for _ in range(rounds):
        for conn in conns:
            conn.request("POST", "/v1/runs", body=body,
                         headers={"Content-Type": "application/json"})
        for conn in conns:
            response = conn.getresponse()
            replies.append((response.status,
                            json.loads(response.read())["source"]))
    return conns, replies


class TestKeepAlive:
    def test_warm_requests_over_keep_alive_connections(self, server):
        post(server, FIR_W4)  # the cold fill
        executed = stats(server)["stats"]["executed"]
        conns, replies = warm_rounds(server, connections=16, rounds=8)
        try:
            assert replies == [(200, "hit")] * 128
            # Still open: no reply asked for the connection to close.
            assert all(conn.sock is not None for conn in conns)
        finally:
            for conn in conns:
                conn.close()
        assert stats(server)["stats"]["executed"] == executed


def assert_clean_shutdown(server, caplog) -> None:
    """Shut *server* down: within 5 s, its loop thread finished, every
    connection closed by the server, and no asyncio error logged on the
    way."""
    thread = server._thread
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        start = time.monotonic()
        server.shutdown()
        assert time.monotonic() - start < 5.0
        gc.collect()
    assert not thread.is_alive()
    assert [str(w.message) for w in caught
            if "unclosed transport" in str(w.message)] == []
    errors = [record.getMessage() for record in caplog.records
              if record.name == "asyncio" and record.levelno >= logging.ERROR]
    assert errors == []


class TestShutdown:
    def test_shutdown_after_a_soak_logs_no_traceback(self, server, caplog):
        """64 keep-alive connections close just before shutdown, so their
        handlers are still closing when the loop cancels them: none may
        end cancelled (the stream callback would log a traceback)."""
        caplog.set_level(logging.ERROR, logger="asyncio")
        post(server, FIR_W4)
        conns, replies = warm_rounds(server, connections=64, rounds=4)
        assert replies == [(200, "hit")] * 256
        for conn in conns:
            conn.close()
        assert_clean_shutdown(server, caplog)

    def test_client_that_stops_reading_does_not_wedge_shutdown(
            self, server, caplog):
        """A client pipelines requests and reads no reply until its own
        send blocks — the server has stopped reading, its handler parked
        in drain() — and shutdown must still be prompt."""
        caplog.set_level(logging.ERROR, logger="asyncio")
        post(server, FIR_W4)
        body = json.dumps(FIR_W4).encode("utf-8")
        request = (f"POST /v1/runs HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                   f"Content-Length: {len(body)}\r\n\r\n").encode() + body
        sock = socket.create_connection(("127.0.0.1", server.port))
        try:
            sock.setblocking(False)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                try:
                    sock.send(request * 64)
                except BlockingIOError:
                    _, writable, _ = select.select([], [sock], [], 0.5)
                    if not writable:
                        break
            else:
                pytest.fail("the server never stopped reading")
            assert_clean_shutdown(server, caplog)
        finally:
            sock.close()

    def test_shutdown_during_a_cold_run_logs_no_traceback(self, tmp_path,
                                                          caplog):
        """A handler still awaiting its simulation when the loop cancels
        it ends quietly too, and drops its connection."""
        caplog.set_level(logging.ERROR, logger="asyncio")
        server = SimServer(
            jobs=1, cache=RunCache(tmp_path / "cache"),
            worker=functools.partial(_counting_worker,
                                     str(tmp_path / "runs.log")))
        server.start()
        body = json.dumps(FIR_W4).encode("utf-8")
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall((f"POST /v1/runs HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          f"Content-Length: {len(body)}\r\n\r\n").encode()
                         + body)
            deadline = time.monotonic() + 30
            while stats(server)["inflight"] == 0:
                assert time.monotonic() < deadline, "the run never started"
                time.sleep(0.01)
            assert_clean_shutdown(server, caplog)
            sock.settimeout(5)
            assert sock.recv(1) == b""


class TestCacheEndpoints:
    """The run-cache protocol served beside ``/v1/runs`` shares one
    cache with it (the wire-level suite is tests/test_cacheserver.py)."""

    def test_cold_run_is_listed_and_served_as_its_cache_file(self, server):
        _, reply = post(server, FIR_W4)
        key = reply["key"]
        backend = HTTPCacheBackend(server.url)
        assert backend.contains_many([key]) == {key}
        assert backend.load(key) == server.cache.path_for(key).read_bytes()

    def test_put_entry_answers_the_next_run_warm(self, server):
        request = parse_run_request(FIR_W4)
        key = run_key(build_request_program(request), request.config)
        entry = entry_payload(key, execute_request(request))
        assert HTTPCacheBackend(server.url).store(key, entry)
        status, reply = post(server, FIR_W4)
        assert status == 200 and reply["source"] == "hit"
        assert reply["key"] == key
        assert stats(server)["stats"]["executed"] == 0

    def test_entry_put_under_another_key_never_answers(self, server):
        """FIR's entry stored under LU's key is dropped as corrupt: LU
        simulates cold, byte-identical to a direct run, and is then
        cached under its own key."""
        _, fir = post(server, FIR_W4)
        lu_w4 = {"benchmark": "LU", "width": 4}
        request = parse_run_request(lu_w4)
        lu_key = run_key(build_request_program(request), request.config)
        backend = HTTPCacheBackend(server.url)
        assert backend.store(lu_key, backend.load(fir["key"]))

        status, reply = post(server, lu_w4)
        assert status == 200 and reply["source"] == "cold"
        direct = execute_request(request).to_dict()
        direct.pop("telemetry", None)
        assert (json.dumps(reply["result"], sort_keys=True)
                == json.dumps(direct, sort_keys=True))
        assert server.cache.stats.errors == 1
        _, again = post(server, lu_w4)
        assert again["source"] == "hit"
        assert again["result"] == reply["result"]

    def test_no_cache_serves_no_cache_endpoints(self):
        server = SimServer(jobs=1, cache=None).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{server.url}/runs/{'a' * 64}",
                                       timeout=10)
            excinfo.value.close()
            assert excinfo.value.code == 404
            assert stats(server)["entries"] == 0
        finally:
            server.shutdown()


class TestDeterminism:
    def test_served_result_round_trips_the_wire_format(self, server):
        _, reply = post(server, FIR_W4)
        request = RunRequest("FIR", "liquid", MachineConfig(
            accelerator=parse_run_request(FIR_W4).config.accelerator))
        program = build_request_program(request)
        direct = execute_request(request, program)
        assert reply["result"]["cycles"] == direct.cycles
        assert reply["result"]["arrays"] == direct.to_dict()["arrays"]


# -- wire robustness -----------------------------------------------------------

RUN_FIELDS = ("benchmark", "program_kind", "width", "engine", "repeat_factor")
FIR_W2 = {"benchmark": "FIR", "width": 2}

_json_scalars = (st.none() | st.booleans() | st.integers()
                 | st.floats(allow_nan=False) | st.text(max_size=16))
_json_values = st.recursive(
    _json_scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=8)
_oversized_text = st.integers(1_000, 100_000).map(lambda n: "x" * n)


def _is_int_in(value, low, high) -> bool:
    return type(value) is int and low <= value <= high


def _is_width(value) -> bool:
    """A width the binaries can run: a power of two in [2, 16]."""
    return _is_int_in(value, 2, 16) and value & (value - 1) == 0


#: Per field, values ``parse_run_request`` must refuse (a null width is
#: the default width, so it is no bad value).
_BAD_VALUES = {
    "benchmark": (_json_values | _oversized_text).filter(
        lambda v: v not in BENCHMARK_ORDER),
    "program_kind": (_json_values | _oversized_text).filter(
        lambda v: v not in PROGRAM_KINDS),
    "width": (_json_values | st.integers()).filter(
        lambda v: v is not None and not _is_width(v)),
    "engine": (_json_values | _oversized_text).filter(
        lambda v: v not in ENGINES),
    "repeat_factor": (_json_values | st.integers()).filter(
        lambda v: not _is_int_in(v, 1, 16)),
}


def _encoded(value) -> bytes:
    return json.dumps(value).encode("utf-8")


_valid_body = _encoded(FIR_W4)
_garbage_run_bodies = st.one_of(
    # truncated JSON: every proper prefix of a valid body
    st.integers(0, len(_valid_body) - 1).map(lambda n: _valid_body[:n]),
    st.binary(max_size=512),
    _json_values.filter(lambda v: not isinstance(v, dict)).map(_encoded),
    # one field wrong-typed, out of range or oversized
    st.sampled_from(RUN_FIELDS).flatmap(
        lambda name: _BAD_VALUES[name].map(
            lambda value: _encoded(dict(FIR_W4, **{name: value})))),
    st.tuples(st.text(min_size=1, max_size=16).filter(
        lambda name: name not in RUN_FIELDS), _json_values).map(
        lambda extra: _encoded(dict(FIR_W4, **{extra[0]: extra[1]}))),
    # an integer literal past the interpreter's digit limit
    st.integers(4_400, 20_000).map(
        lambda n: b'{"benchmark": "FIR", "width": ' + b"9" * n + b"}"),
)


@pytest.fixture(scope="module")
def battery_server(tmp_path_factory):
    """One server for the whole battery, with FIR_W4 answered (memo)."""
    server = SimServer(jobs=1, cache=RunCache(
        tmp_path_factory.mktemp("battery"))).start()
    status, body = post_raw(server, FIR_W4)
    assert status == 200
    assert_reply(body, "cold", direct_bytes(FIR_W4))
    yield server
    server.shutdown()


def put_entry(server, key: str, body: bytes) -> int:
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        conn.request("PUT", f"/runs/{key}", body=body)
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()


class TestWireRobustness:
    """Hypothesis batteries against one server: no request body of any
    shape gets past validation, simulates, or lands in the memo, and no
    garbage entry bytes ever answer a run."""

    @settings(max_examples=150, deadline=None)
    @given(body=_garbage_run_bodies)
    def test_garbage_run_bodies_get_a_clean_400(self, battery_server, body):
        server = battery_server
        before = stats(server)["stats"]
        memo_size = len(server._memo)
        status, reply = post_raw(server, body)
        assert status == 400
        assert list(json.loads(reply)) == ["error"]
        after = stats(server)["stats"]
        assert (after["cold"], after["executed"]) == \
            (before["cold"], before["executed"])
        assert after["bad_requests"] == before["bad_requests"] + 1
        assert len(server._memo) == memo_size
        # The 400 closed its connection; a new one is answered warm.
        status, reply = post_raw(server, FIR_W4)
        assert status == 200
        assert_reply(reply, "hit", direct_bytes(FIR_W4))

    @settings(max_examples=25, deadline=None)
    @given(garbage=st.binary(min_size=1, max_size=4096))
    def test_garbage_entry_bytes_never_answer_a_run(self, battery_server,
                                                    garbage):
        server = battery_server
        request = parse_run_request(FIR_W2)
        key = run_key(build_request_program(request), request.config)
        # Start from a key answered nowhere, so the POST below must read
        # the entry through the cache.
        server._memo.pop(key, None)
        server.cache.backend.delete(key)
        assert put_entry(server, key, garbage) in (201, 409)
        assert server.cache.load(key) is None, "garbage never validates"
        assert put_entry(server, key, garbage) in (201, 409)
        errors = server.cache.stats.errors
        status, body = post_raw(server, FIR_W2)
        assert status == 200
        assert_reply(body, "cold", direct_bytes(FIR_W2))
        assert server.cache.stats.errors == errors + 1, \
            "the run must have read, and refused, the garbage entry"
