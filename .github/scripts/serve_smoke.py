"""CI smoke gate for the ``repro serve`` simulation farm.

Boots a real ``python -m repro serve`` subprocess (the exact artifact a
user runs, not an in-process harness) over a scratch cache and asserts
the service contract end to end:

1. **cold** — each distinct request simulates exactly once,
2. **storm** — concurrent duplicates of one unseen key coalesce onto a
   single machine-run,
3. **warm** — re-firing every request answers from the cache with zero
   further simulation,
4. **soak** — a 200-wide identical storm on another unseen key costs
   exactly one machine-run, then 2,000 warm requests over 64 keep-alive
   connections cost none; every reply is a 200, and every reply for one
   key carries the same result bytes,
5. **cache endpoints** — every key simulated above is listed by
   ``POST /contains``, and ``GET /runs/<key>`` returns the farm's cache
   file byte for byte,
6. **fidelity** — every served ``result`` is byte-identical to a direct
   in-process ``RunScheduler`` run of the same request: the reply's
   bytes after ``"result":`` are the direct run's compact JSON plus the
   closing ``}``, and equal the bytes after ``"result":`` in the farm's
   cache file for that key,
7. **hygiene** — zero 5xx errors; malformed jobs get a 400 without
   touching the pool.

Run from the repo root with ``PYTHONPATH=src``; exits non-zero with a
readable message on the first violated invariant.
"""

import http.client
import json
import os
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SERVICE_NAME = "repro-sim-server"
COLD_SET = [
    {"benchmark": "LU", "width": 4},
    {"benchmark": "FFT", "width": 8},
    {"benchmark": "FIR", "program_kind": "baseline"},
]
STORM_REQUEST = {"benchmark": "FIR", "width": 16}
STORM_SIZE = 8
SOAK_STORM_REQUEST = {"benchmark": "FFT", "width": 8, "repeat_factor": 2}
SOAK_STORM_SIZE = 200
SOAK_WARM_REQUESTS = 2000
SOAK_CONNECTIONS = 64


def fail(message: str) -> None:
    print(f"serve-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def get_stats(url: str) -> dict:
    with urllib.request.urlopen(f"{url}/stats", timeout=10) as resp:
        return json.loads(resp.read())


def post_run_raw(url: str, payload: dict) -> bytes:
    """The raw reply bytes of one ``POST /v1/runs``."""
    req = urllib.request.Request(
        f"{url}/v1/runs", data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=120) as resp:
        return resp.read()


def post_run(url: str, payload: dict) -> dict:
    return json.loads(post_run_raw(url, payload))


def result_bytes(body: bytes) -> bytes:
    """The bytes after the first ``"result":`` of a reply or a cache
    entry: the result's compact JSON and the closing ``}``."""
    cut = body.find(b'"result":')
    if cut < 0:
        fail(f"no result in {body[:120]!r}")
    return body[cut + len(b'"result":'):]


def keepalive_posts(port: int, payloads: list, connections: int) -> list:
    """``(status, reply, raw body)`` for every payload, POSTed to
    ``/v1/runs`` over *connections* keep-alive connections at once (a
    thread each)."""
    def worker(chunk: list) -> list:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            replies = []
            for payload in chunk:
                conn.request("POST", "/v1/runs", body=json.dumps(payload),
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                body = response.read()
                replies.append((response.status, json.loads(body), body))
            return replies
        finally:
            conn.close()

    chunks = [payloads[i::connections] for i in range(connections)]
    with ThreadPoolExecutor(max_workers=connections) as pool:
        return [reply for chunk in pool.map(worker, chunks)
                for reply in chunk]


def wait_ready(url: str, deadline: float = 30.0) -> None:
    end = time.time() + deadline
    while time.time() < end:
        try:
            payload = get_stats(url)
        except (OSError, ValueError):
            time.sleep(0.2)
            continue
        if payload.get("service") != SERVICE_NAME:
            fail(f"unexpected service at {url}: "
                 f"{payload.get('service')!r}")
        return
    fail(f"server at {url} not ready within {deadline}s")


def direct_results() -> dict:
    """Telemetry-stripped wire dicts from a direct in-process run."""
    from repro.evaluation.runner import RunScheduler
    from repro.evaluation.simserver import parse_run_request

    scheduler = RunScheduler(jobs=1, cache=None)
    wires = {}
    for payload in COLD_SET + [STORM_REQUEST]:
        wire = scheduler.run(parse_run_request(payload)).to_dict()
        wire.pop("telemetry", None)
        wires[json.dumps(payload, sort_keys=True)] = wire
    return wires


def main() -> None:
    port = free_port()
    url = f"http://127.0.0.1:{port}"
    scratch = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--jobs", "2", "--cache-dir", scratch],
        env={**os.environ, "PYTHONPATH": str(Path("src").resolve())})
    try:
        wait_ready(url)

        # Phase 1: distinct cold requests simulate exactly once each.
        simulated_keys = []
        for payload in COLD_SET:
            reply = post_run(url, payload)
            if reply["source"] != "cold":
                fail(f"first request for {payload} answered "
                     f"{reply['source']!r}, expected cold")
            simulated_keys.append(reply["key"])
        stats = get_stats(url)["stats"]
        if stats["executed"] != len(COLD_SET):
            fail(f"cold set of {len(COLD_SET)} executed "
                 f"{stats['executed']} machine-runs")

        # Phase 2: a concurrent identical-request storm on an unseen
        # key coalesces onto one machine-run.
        with ThreadPoolExecutor(max_workers=STORM_SIZE) as pool:
            replies = list(pool.map(
                lambda _: post_run(url, STORM_REQUEST),
                range(STORM_SIZE)))
        stats = get_stats(url)["stats"]
        storm_runs = stats["executed"] - len(COLD_SET)
        if storm_runs != 1:
            fail(f"{STORM_SIZE} identical concurrent requests cost "
                 f"{storm_runs} machine-runs, expected 1")
        if sum(1 for r in replies if r["source"] == "cold") != 1:
            fail("storm must contain exactly one cold response")
        if len({json.dumps(r["result"], sort_keys=True)
                for r in replies}) != 1:
            fail("storm waiters received differing payloads")
        simulated_keys.append(replies[0]["key"])

        # Phase 3: warm re-fires simulate nothing further.
        executed_before = stats["executed"]
        warm_bodies = {}
        for payload in COLD_SET + [STORM_REQUEST]:
            body = post_run_raw(url, payload)
            reply = json.loads(body)
            if reply["source"] != "hit":
                fail(f"warm re-fire of {payload} answered "
                     f"{reply['source']!r}, expected hit")
            warm_bodies[json.dumps(payload, sort_keys=True)] = body
        stats = get_stats(url)["stats"]
        if stats["executed"] != executed_before:
            fail("warm re-fires raised the machine-run count")

        # Phase 4: soak.  A 200-wide storm on an unseen key, then a warm
        # volume over 64 keep-alive connections.
        soak_start = time.perf_counter()
        replies = keepalive_posts(port, [SOAK_STORM_REQUEST] * SOAK_STORM_SIZE,
                                  SOAK_STORM_SIZE)
        bad = sorted({status for status, _, _ in replies if status != 200})
        if bad:
            fail(f"soak storm got non-200 replies: {bad}")
        after = get_stats(url)["stats"]
        if after["executed"] - stats["executed"] != 1:
            fail(f"{SOAK_STORM_SIZE} identical concurrent requests cost "
                 f"{after['executed'] - stats['executed']} machine-runs, "
                 f"expected 1")
        if sum(1 for _, r, _ in replies if r["source"] == "cold") != 1:
            fail("soak storm must contain exactly one cold response")
        simulated_keys.append(replies[0][1]["key"])
        warm_set = COLD_SET + [STORM_REQUEST, SOAK_STORM_REQUEST]
        replies = keepalive_posts(
            port, [warm_set[i % len(warm_set)]
                   for i in range(SOAK_WARM_REQUESTS)], SOAK_CONNECTIONS)
        bad = sorted({status for status, _, _ in replies if status != 200})
        if bad:
            fail(f"soak warm phase got non-200 replies: {bad}")
        if any(r["source"] != "hit" for _, r, _ in replies):
            fail("soak warm phase answered a request other than as a hit")
        tails = {}
        for _, reply, body in replies:
            tails.setdefault(reply["key"], set()).add(result_bytes(body))
        varied = sorted(key for key, seen in tails.items() if len(seen) != 1)
        if varied:
            fail(f"soak warm replies for {len(varied)} key(s) carried "
                 f"differing result bytes")
        stats = get_stats(url)["stats"]
        if stats["executed"] != after["executed"]:
            fail(f"{SOAK_WARM_REQUESTS} warm requests cost "
                 f"{stats['executed'] - after['executed']} machine-runs")
        soak_seconds = time.perf_counter() - soak_start

        # Phase 5: the cache endpoints serve what the runs stored.
        req = urllib.request.Request(
            f"{url}/contains",
            data=json.dumps({"keys": simulated_keys}).encode("utf-8"),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(req, timeout=10) as resp:
            present = json.loads(resp.read())["present"]
        if present != sorted(simulated_keys):
            fail(f"/contains listed {len(present)} of the "
                 f"{len(simulated_keys)} simulated keys")
        for key in simulated_keys:
            with urllib.request.urlopen(f"{url}/runs/{key}",
                                        timeout=10) as resp:
                served = resp.read()
            stored = Path(scratch) / key[:2] / f"{key}.json"
            if served != stored.read_bytes():
                fail(f"GET /runs/{key} differs from the farm's cache file")

        # Phase 6: served payloads are byte-identical to direct runs and
        # to the farm's cache files.
        for name, wire in direct_results().items():
            reply = json.loads(warm_bodies[name])
            served = json.dumps(reply["result"], sort_keys=True)
            direct = json.dumps(wire, sort_keys=True)
            if served != direct:
                fail(f"served result for {name} differs from a "
                     f"direct scheduler run")
            key = reply["key"]
            tail = result_bytes(warm_bodies[name])
            compact = json.dumps(wire, separators=(",", ":")).encode("utf-8")
            if tail != compact + b"}":
                fail(f"served result bytes for {name} differ from a "
                     f"direct scheduler run's")
            stored = Path(scratch) / key[:2] / f"{key}.json"
            if tail != result_bytes(stored.read_bytes()):
                fail(f"served result bytes for {name} differ from the "
                     f"farm's cache file")

        # Phase 7: hygiene.
        try:
            post_run(url, {"benchmark": "definitely-not-real"})
        except urllib.error.HTTPError as exc:
            if exc.code != 400:
                fail(f"malformed job got {exc.code}, expected 400")
        else:
            fail("malformed job was accepted")
        stats = get_stats(url)["stats"]
        if stats["errors"] != 0:
            fail(f"server recorded {stats['errors']} 5xx errors")

        print(f"serve-smoke: OK — {stats['executed']} machine-runs for "
              f"{stats['requests']} requests "
              f"({stats['hits']} hits, {stats['coalesced']} coalesced, "
              f"{stats['bad_requests']} rejected); soak "
              f"{soak_seconds:.1f}s")
    finally:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()


if __name__ == "__main__":
    main()
