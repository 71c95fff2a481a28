"""Shared run cache over HTTP: the cache endpoints of ``repro serve``
and the ``--cache-url`` backend (docs/evaluation-runner.md).

The fleet contract the server's cache endpoints must honor:

* local and HTTP backends answer each other's entries byte-identically
  (the server serves the very files ``--cache-dir`` writes),
* stores are first-writer-wins — concurrent writers of one key, in one
  process or racing across processes, leave exactly one valid entry,
* a whole sweep's presence probe costs one HTTP round-trip,
* every network failure fails open (miss / skipped store / empty
  probe), counted under ``runcache.http.errors``, never raised.
"""

import json
import socket
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.evaluation.cacheserver import HTTPCacheBackend, SERVICE_NAME
from repro.evaluation.runcache import (
    CACHE_FORMAT_VERSION,
    LocalDirectoryBackend,
    RunCache,
    entry_payload,
    run_key,
)
from repro.evaluation.runner import build_request_program, execute_request
from repro.evaluation.simserver import SimServer
from repro.observability import telemetry
from tests.test_runner import liquid_request

KEY_A = "aa" + "0" * 62
KEY_B = "bb" + "1" * 62


@pytest.fixture()
def server(tmp_path):
    server = SimServer(jobs=1, cache=RunCache(tmp_path / "served")).start()
    yield server
    server.shutdown()


def _http(server) -> HTTPCacheBackend:
    return HTTPCacheBackend(server.url)


def _counted(call):
    """(``call()``, the HTTP round-trips the ``--cache-url`` client made
    during it — its ``runcache.http.requests`` count)."""
    tel = telemetry.enable()
    try:
        result = call()
        return result, dict(tel.to_dict()["counters"]).get(
            "runcache.http.requests", 0)
    finally:
        telemetry.disable()


def _raw(server, method: str, path: str, headers=(), body: bytes = b""):
    """(status, reply dict) for one request sent with exactly *headers*
    (no ``Content-Length`` unless given) and *body*, after which the
    client shuts its side of the connection, as a client that died
    mid-body would."""
    host, port = server.host, server.port
    lines = [f"{method} {path} HTTP/1.1", f"Host: {host}"]
    lines += [f"{name}: {value}" for name, value in headers]
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall("\r\n".join(lines + ["", ""]).encode() + body)
        sock.shutdown(socket.SHUT_WR)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    head, _, reply = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(reply)


class TestRoundtrip:
    def test_store_then_load_bytes(self, server):
        backend = _http(server)
        assert backend.load(KEY_A) is None
        assert backend.store(KEY_A, b"payload-bytes") is True
        assert backend.load(KEY_A) == b"payload-bytes"

    def test_local_write_visible_over_http(self, server):
        server.cache.backend.store(KEY_A, b"written-locally")
        assert _http(server).load(KEY_A) == b"written-locally"

    def test_http_write_visible_locally(self, server):
        _http(server).store(KEY_A, b"written-remotely")
        assert server.cache.backend.load(KEY_A) == b"written-remotely"

    def test_backends_interoperate_on_real_entries(self, server):
        """A cached run stored via one backend is byte-identical and
        loadable through the other — the --cache-dir/--cache-url duality
        the CACHE_FORMAT_VERSION contract promises."""
        request = liquid_request()
        key = run_key(build_request_program(request), request.config)
        result = execute_request(request)
        via_http = RunCache(backend=_http(server))
        via_http.store(key, result)

        local = RunCache(backend=server.cache.backend)
        hit = local.load(key)
        assert hit is not None and hit.cycles == result.cycles
        assert server.cache.backend.load(key) == entry_payload(key, result)

    def test_delete_removes_entry(self, server):
        backend = _http(server)
        backend.store(KEY_A, b"x")
        backend.delete(KEY_A)
        assert backend.load(KEY_A) is None

    def test_clear_reports_removed(self, server):
        backend = _http(server)
        backend.store(KEY_A, b"x")
        backend.store(KEY_B, b"y")
        assert backend.clear() == 2
        assert backend.describe()["entries"] == 0


class TestFirstWriterWins:
    def test_second_store_loses(self, server):
        backend = _http(server)
        assert backend.store(KEY_A, b"first") is True
        assert backend.store(KEY_A, b"first") is False
        assert backend.load(KEY_A) == b"first"

    def test_race_is_counted_not_raised(self, server):
        cache = RunCache(backend=_http(server))
        request = liquid_request()
        key = run_key(build_request_program(request), request.config)
        result = execute_request(request)
        tel = telemetry.enable()
        try:
            cache.store(key, result)
            cache.store(key, result)
            counters = dict(tel.to_dict()["counters"])
        finally:
            telemetry.disable()
        assert cache.stats.stores == 1 and cache.stats.races == 1
        assert counters.get("runcache.stores") == 1
        assert counters.get("runcache.races") == 1


def _racing_store(root_and_tag):
    """Child-process body: store one key, report whether we won."""
    root, tag = root_and_tag
    backend = LocalDirectoryBackend(root)
    # Deterministic results mean racing writers hold identical bytes.
    return backend.store(KEY_A, b"identical-entry-bytes"), tag


class TestConcurrentWriters:
    def test_two_processes_one_valid_entry(self, tmp_path):
        """Two processes racing ``store()`` on one key: exactly one
        winner, and the surviving entry is intact (first writer
        wins)."""
        root = str(tmp_path / "raced")
        with ProcessPoolExecutor(max_workers=2) as pool:
            outcomes = list(pool.map(_racing_store,
                                     [(root, "a"), (root, "b")] * 4))
        wins = sum(1 for won, _ in outcomes if won)
        assert wins == 1, f"expected exactly one winning store: {outcomes}"
        backend = LocalDirectoryBackend(root)
        assert backend.load(KEY_A) == b"identical-entry-bytes"
        assert sum(1 for _ in backend.entry_paths()) == 1

    def test_no_tmp_litter_after_race(self, tmp_path):
        root = tmp_path / "raced"
        with ProcessPoolExecutor(max_workers=2) as pool:
            list(pool.map(_racing_store, [(str(root), "a"), (str(root), "b")]))
        leftovers = [p for p in root.rglob("*") if p.is_file()
                     and not p.name.endswith(".json")]
        assert leftovers == [], "losing writer must clean up its temp file"


class TestBatchProbe:
    def test_contains_many_is_one_round_trip(self, server):
        backend = _http(server)
        backend.store(KEY_A, b"x")
        present, requests = _counted(
            lambda: backend.contains_many([KEY_A, KEY_B]))
        assert present == {KEY_A}
        assert requests == 1

    def test_empty_probe_skips_network(self, server):
        present, requests = _counted(lambda: _http(server).contains_many([]))
        assert present == set()
        assert requests == 0


class TestFailOpen:
    @pytest.fixture()
    def dead(self, server):
        """A backend whose daemon has already gone away."""
        backend = _http(server)
        server.shutdown()
        return backend

    def test_load_fails_open(self, dead):
        assert dead.load(KEY_A) is None

    def test_store_fails_open(self, dead):
        assert dead.store(KEY_A, b"x") is False

    def test_probe_fails_open(self, dead):
        assert dead.contains_many([KEY_A, KEY_B]) == set()

    def test_describe_reports_unreachable(self, dead):
        info = dead.describe()
        assert info["backend"] == "http"
        assert info["reachable"] is False

    def test_failures_are_counted(self, dead):
        tel = telemetry.enable()
        try:
            dead.load(KEY_A)
            dead.store(KEY_A, b"x")
            counters = dict(tel.to_dict()["counters"])
        finally:
            telemetry.disable()
        assert counters.get("runcache.http.errors") == 2
        assert counters.get("runcache.http.requests") == 2

    def test_failopen_warns_once_at_threshold(self, dead, caplog):
        """Persistent unreachability surfaces exactly one warning (plus
        a ``runcache.http.failopen`` count) at the consecutive-failure
        threshold — not a warning per request, not silence forever."""
        import logging

        from repro.evaluation.cacheserver import FAILOPEN_THRESHOLD

        tel = telemetry.enable()
        try:
            with caplog.at_level(logging.WARNING,
                                 logger="repro.evaluation.cacheserver"):
                for _ in range(FAILOPEN_THRESHOLD + 4):
                    dead.load(KEY_A)
            counters = dict(tel.to_dict()["counters"])
        finally:
            telemetry.disable()
        warnings = [r for r in caplog.records
                    if "failing open" in r.getMessage()]
        assert len(warnings) == 1, \
            "one warning at the threshold, silence after"
        assert dead.url in warnings[0].getMessage()
        assert counters.get("runcache.http.failopen") == 1
        assert dead.consecutive_failures == FAILOPEN_THRESHOLD + 4

    def test_failures_below_threshold_stay_quiet(self, dead, caplog):
        import logging

        from repro.evaluation.cacheserver import FAILOPEN_THRESHOLD

        with caplog.at_level(logging.WARNING,
                             logger="repro.evaluation.cacheserver"):
            for _ in range(FAILOPEN_THRESHOLD - 1):
                dead.load(KEY_A)
        assert not [r for r in caplog.records
                    if "failing open" in r.getMessage()]

    def test_any_reply_rearms_the_detector(self, server):
        """A successful round-trip resets the consecutive-failure count
        and re-arms the one-shot warning, so a daemon that flaps warns
        on each outage rather than only the first."""
        backend = _http(server)
        backend.consecutive_failures = 7
        backend._failopen_reported = True
        assert backend.load(KEY_A) is None  # a served miss, not an error
        assert backend.consecutive_failures == 0
        assert backend._failopen_reported is False

    def test_scheduler_survives_dead_backend(self, dead):
        """A sweep against a dead daemon degrades to local simulation."""
        from repro.evaluation.runner import RunScheduler
        scheduler = RunScheduler(jobs=1, cache=RunCache(backend=dead))
        result = scheduler.run(liquid_request())
        assert result.cycles > 0
        assert scheduler.stats.executed == 1


class TestProtocolHygiene:
    def test_bad_keys_rejected(self, server):
        backend = _http(server)
        for bad in ("short", "../../etc/passwd", "Z" * 64, KEY_A[:-1] + "G"):
            assert backend.load(bad) is None
            assert backend.store(bad, b"x") is False
        assert server.cache.backend.entry_paths() is not None
        assert sum(1 for _ in server.cache.backend.entry_paths()) == 0

    def test_probe_filters_bad_keys(self, server):
        server.cache.backend.store(KEY_A, b"x")
        present = _http(server).contains_many(
            [KEY_A, "../../sneaky", "not-a-key"])
        assert present == {KEY_A}

    @pytest.mark.parametrize("length, body, error", [
        (None, b"", "bad Content-Length"),
        ("abc", b"", "bad Content-Length"),
        ("-5", b"", "bad Content-Length"),
        ("100", b"x" * 10, "bad Content-Length"),
        ("0", b"", "empty body"),
    ], ids=["missing", "non-integer", "negative", "truncated", "zero"])
    def test_put_without_a_valid_length_is_400(self, server, length, body,
                                               error):
        """Nothing is stored: an empty or cut-short entry would win
        first-writer-wins against the real result until a reader deleted
        it as corrupt."""
        headers = [] if length is None else [("Content-Length", length)]
        status, reply = _raw(server, "PUT", f"/runs/{KEY_A}", headers, body)
        assert (status, reply) == (400, {"error": error})
        assert not server.cache.backend.path_for(KEY_A).exists()
        assert _http(server).store(KEY_A, b"real")
        assert _http(server).load(KEY_A) == b"real"

    @pytest.mark.parametrize("method, path", [
        ("PUT", "/runs/not-a-key"),
        ("POST", "/no-such-endpoint"),
    ], ids=["put-bad-key", "post-unknown-endpoint"])
    def test_refused_body_is_not_read_as_a_request(self, server, method,
                                                   path):
        """A refused request gets one reply and the connection closes:
        the body of a refused request must never be parsed as the next
        request on a keep-alive connection."""
        host, port = server.host, server.port
        body = b"GET /stats HTTP/1.1\r\n\r\n"
        head = (f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(head.encode() + body)
            data = b""
            while chunk := sock.recv(65536):  # EOF, or socket.timeout
                data += chunk
        assert data.count(b"HTTP/1.1 ") == 1
        status_line, _, rest = data.partition(b"\r\n")
        assert int(status_line.split()[1]) in (400, 404)
        assert b"Connection: close" in rest.partition(b"\r\n\r\n")[0]

    def test_too_deeply_nested_probe_is_400(self, server):
        body = b"[" * 200_000
        status, reply = _raw(server, "POST", "/contains",
                             [("Content-Length", str(len(body)))], body)
        assert (status, reply) == (400, {"error": "bad probe body"})
        assert _http(server).describe()["reachable"] is True

    def test_stats_identifies_service(self, server):
        info = _http(server).describe()
        assert info["reachable"] is True
        assert info["format_version"] == CACHE_FORMAT_VERSION

    def test_wrong_service_reads_unreachable(self):
        """--cache-url pointed at some unrelated HTTP server must read
        as unreachable, not corrupt probes with bogus answers."""
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        class Impostor(BaseHTTPRequestHandler):
            def log_message(self, fmt, *args):
                pass

            def do_GET(self):
                body = json.dumps({"service": "something-else"}).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        httpd = HTTPServer(("127.0.0.1", 0), Impostor)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = httpd.server_address[:2]
            info = HTTPCacheBackend(f"http://{host}:{port}").describe()
        finally:
            httpd.shutdown()
            httpd.server_close()
        assert info["reachable"] is False
        assert SERVICE_NAME not in (None, "something-else")

    def test_stats_counts_entries_and_bytes(self, server):
        backend = _http(server)
        backend.store(KEY_A, b"four")
        backend.store(KEY_B, b"bytes!")
        info = backend.describe()
        assert info["entries"] == 2
        assert info["size_bytes"] == len(b"four") + len(b"bytes!")
        assert json.loads(json.dumps(info)) == info
