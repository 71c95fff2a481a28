"""Simulation-farm service tests (docs/serving.md).

The contract ``repro serve`` must honor:

* responses carry the exact ``RunResult.to_dict()`` wire format — byte
  identical to a direct scheduler run of the same request,
* warm requests answer from the run cache with zero simulation,
* N simultaneous identical cold requests coalesce onto **one**
  machine-run (single-flight, the run-key analogue of the fragment
  store's first-writer-wins race),
* a crashed worker returns a clean 5xx and the pool is rebuilt — the
  farm never wedges,
* a client that disconnects mid-run abandons only its reply; the run
  completes, lands in the cache, and answers the next request warm,
* malformed jobs get a 400 without touching the pool.
"""

import functools
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import types
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.evaluation.runcache import RunCache
from repro.evaluation.runner import (
    RunRequest,
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
from repro.observability import telemetry
from repro.system.machine import MachineConfig

FIR_W4 = {"benchmark": "FIR", "width": 4}


def post(server, payload, timeout=60.0):
    """(status, reply dict) for one POST /v1/runs."""
    req = urllib.request.Request(
        server.url + "/v1/runs",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def stats(server):
    with urllib.request.urlopen(server.url + "/stats", timeout=10) as resp:
        return json.loads(resp.read())


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
        _, reply = post(server, FIR_W4)
        direct = execute_request(parse_run_request(FIR_W4)).to_dict()
        direct.pop("telemetry", None)
        assert (json.dumps(reply["result"], sort_keys=True)
                == json.dumps(direct, sort_keys=True))

    def test_pre_populated_cache_answers_without_simulation(self,
                                                            tmp_path):
        cache = RunCache(tmp_path / "shared")
        request = parse_run_request(FIR_W4)
        from repro.evaluation.runner import RunScheduler
        RunScheduler(jobs=1, cache=cache).run(request)

        server = SimServer(jobs=1, cache=RunCache(tmp_path / "shared"))
        server.start()
        try:
            status, reply = post(server, FIR_W4)
            assert status == 200 and reply["source"] == "hit"
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


def _counting_worker(log_path, request, encoded):
    """Pool entry point that tallies every machine-run before running.

    O_APPEND writes are atomic at this size, so concurrent workers (or
    racing requests, if single-flight ever broke) each leave exactly
    one line — the same counting idiom as the fragment-store race
    tests, moved to the service layer.
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


def test_sigterm_shuts_down_server_and_pool(tmp_path):
    """``repro serve`` treats SIGTERM like Ctrl-C: it exits promptly, no
    forked pool worker survives holding the listening socket, and the
    next client is refused instead of hanging."""
    src = Path(repro.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": "1"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--jobs", "1", "--cache-dir", str(tmp_path / "cache")],
        stdout=subprocess.PIPE, text=True, env=env,
        start_new_session=True)
    try:
        banner = proc.stdout.readline()
        url = re.search(r"http://[\d.]+:(\d+)", banner)
        assert url, f"no serving banner: {banner!r}"
        port = int(url.group(1))
        server = types.SimpleNamespace(url=url.group(0))
        status, reply = post(server, FIR_W4)
        assert status == 200 and reply["source"] == "cold"

        proc.send_signal(signal.SIGTERM)
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
            socket.create_connection(("127.0.0.1", port), timeout=5)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.stdout.close()
        proc.wait(timeout=10)


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
            # Sequential identical requests re-simulate without a cache
            # (the memo only serves keys that went through the cache).
            _, b = post(server, FIR_W4)
            assert b["result"] == a["result"]
        finally:
            server.shutdown()

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            SimServer(jobs=0)


class TestDeterminism:
    def test_served_result_round_trips_the_wire_format(self, server):
        _, reply = post(server, FIR_W4)
        request = RunRequest("FIR", "liquid", MachineConfig(
            accelerator=parse_run_request(FIR_W4).config.accelerator))
        program = build_request_program(request)
        direct = execute_request(request, program)
        assert reply["result"]["cycles"] == direct.cycles
        assert reply["result"]["arrays"] == direct.to_dict()["arrays"]
