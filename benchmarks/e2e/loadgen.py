"""`repro serve` lifecycle and the benchmark's HTTP load generator.

The server is a real ``python -m repro serve --jobs 1`` subprocess in
its own session (so ``os.killpg`` reaches its pool worker too).  The
generator is one asyncio client with a fixed number of keep-alive
connections; it never pipelines, so each connection has at most one
request outstanding.

* **Closed loop**: every connection sends its next request as soon as
  the previous reply arrives; completions per second is the capacity
  at that connection count.
* **Open loop**: request *i* is due at ``start + i / rate`` whatever the
  server does.  Latency is timed from the due time, so a stalled server
  also charges the requests queued behind it.  How late the generator
  itself woke up is reported separately (``late``): if it grows, the
  latencies measure the client rather than the server.
* **Lock-step**: every connection sends the same request at once.

Traffic runs in slices that end with nothing in flight, so the caller
can probe host speed between them without disturbing a request.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

_URL_LINE = re.compile(r"serving simulations at http://([\d.]+):(\d+)")
_BOOT_TIMEOUT_S = 30.0
_STOP_TIMEOUT_S = 10.0


def child_env(tmp: Path) -> dict:
    """Environment for benchmark subprocesses: this checkout's sources,
    unbuffered output, temp files inside the checkout.

    glibc's mmap threshold is pinned at its initial 128 KiB: left
    dynamic, it rises after the first large free, and peak RSS then
    depends on the order runs happen in (up to 4 MB between seeds).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = str(tmp)
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    return env


def pin_to(cpu: Optional[int]):
    """A ``preexec_fn`` pinning the child to *cpu* (None: no pinning)."""
    if cpu is None:
        return None
    return lambda: os.sched_setaffinity(0, {cpu})


def peak_rss_mb(pid: int = 0) -> float:
    """High-water resident set size (``VmHWM``) of *pid* (0: self)."""
    path = "/proc/self/status" if pid == 0 else f"/proc/{pid}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


class Server:
    """One ``repro serve --jobs 1`` subprocess over *cache_dir*.

    With *trace_out*, the server runs under ``serve_traced.py``: SIGUSR1
    opens the measured window and SIGUSR2 closes it and writes the
    window's layer metrics to *trace_out*.
    """

    def __init__(self, cache_dir: Path, tmp: Path, cpu: Optional[int] = None,
                 trace_out: Optional[Path] = None,
                 pgid_log: Optional[Path] = None) -> None:
        args = ["serve", "--jobs", "1", "--host", "127.0.0.1", "--port", "0",
                "--cache-dir", str(cache_dir)]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"),
                   str(trace_out), *args]
        self.trace_out = trace_out
        self.proc = subprocess.Popen(
            cmd, cwd=str(ROOT), env=child_env(tmp), stdout=subprocess.PIPE,
            start_new_session=True, preexec_fn=pin_to(cpu))
        self.pgid = self.proc.pid  # session leader: pgid == pid
        if pgid_log is not None:
            # The parent harness reaps these groups even if this process
            # is killed before it can stop its server.
            with open(pgid_log, "a", encoding="ascii") as log:
                log.write(f"{self.pgid}\n")
        self.host, self.port = self._read_address()
        self.stats()  # readiness: /stats answers

    def _read_address(self):
        deadline = time.monotonic() + _BOOT_TIMEOUT_S
        out = self.proc.stdout
        line = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([out], [], [], 0.5)
            if ready:
                line = out.readline()
                match = _URL_LINE.search(line.decode("utf-8", "replace"))
                if match:
                    return match.group(1), int(match.group(2))
                if not line:
                    break
            if self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError(f"repro serve did not start (last output: {line!r})")

    # -- requests ----------------------------------------------------------

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stats(self) -> dict:
        status, body = self.request("GET", "/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(body)["stats"]

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    # -- traced window -----------------------------------------------------

    def window_start(self) -> None:
        if self.trace_out is not None:
            os.kill(self.proc.pid, signal.SIGUSR1)

    def window_end(self) -> Optional[dict]:
        """Close the traced window; the server's layer report, if traced."""
        if self.trace_out is None:
            return None
        os.kill(self.proc.pid, signal.SIGUSR2)
        done = Path(str(self.trace_out) + ".done")
        deadline = time.monotonic() + 20.0
        while not done.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("traced server wrote no trace")
            time.sleep(0.02)
        with open(self.trace_out, encoding="utf-8") as handle:
            return json.load(handle)

    # -- shutdown ----------------------------------------------------------

    def stop(self) -> List[str]:
        """Ctrl-C the server, kill its group if it lingers, and check the
        port is closed.  Returns what went wrong (empty: clean stop)."""
        problems: List[str] = []
        proc = self.proc
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGINT)
            try:
                proc.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                problems.append("server ignored SIGINT; killed its group")
                _kill_group(self.pgid)
                proc.wait(timeout=_STOP_TIMEOUT_S)
        if _group_alive(self.pgid):
            problems.append("server left processes behind; killed its group")
            _kill_group(self.pgid)
        if proc.stdout is not None:
            proc.stdout.close()
        port = getattr(self, "port", None)
        if port is not None and not _refuses(self.host, port):
            problems.append(f"port {port} still accepts after stop")
        return problems


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _kill_group(pgid: int, timeout: float = 5.0) -> None:
    """SIGKILL every process of *pgid* and wait until none is left."""
    deadline = time.monotonic() + timeout
    while _group_alive(pgid) and time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def reap_groups(pgid_log: Path) -> None:
    """Kill any server group listed in *pgid_log* that is still alive,
    then forget them (so a reused process-group id is never hit)."""
    try:
        text = pgid_log.read_text(encoding="ascii")
    except FileNotFoundError:
        return
    for line in text.split():
        _kill_group(int(line))
    pgid_log.unlink()


def _refuses(host: str, port: int) -> bool:
    try:
        with socket.create_connection((host, port), timeout=1.0):
            return False
    except ConnectionRefusedError:
        return True


# -- the asyncio client --------------------------------------------------

def post_bytes(host: str, body: dict) -> bytes:
    """The full wire bytes of one ``POST /v1/runs`` request."""
    data = json.dumps(body, separators=(",", ":")).encode("utf-8")
    head = (f"POST /v1/runs HTTP/1.1\r\nHost: {host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n\r\n")
    return head.encode("latin-1") + data


async def _exchange(reader, writer, data: bytes):
    writer.write(data)
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body


@dataclass
class Sample:
    """One request as the generator saw it."""

    index: int
    sent: float              # perf_counter when sent (open loop: when due)
    latency: float           # seconds from ``sent`` to the full reply
    late: Optional[float]    # open loop: how late the generator woke up
    error: Optional[str]     # None when the reply checked out


Check = Callable[[int, int, bytes], Optional[str]]


class Session:
    """One load generator: *connections* keep-alive connections."""

    def __init__(self, host: str, port: int, wire: Sequence[bytes],
                 check: Check, connections: int) -> None:
        self.host, self.port = host, port
        self.wire = wire
        self.check = check
        self.connections = connections
        self.conns: List[list] = []

    async def __aenter__(self) -> "Session":
        for _ in range(self.connections):
            self.conns.append(list(await asyncio.open_connection(
                self.host, self.port)))
        return self

    async def __aexit__(self, *exc) -> None:
        for _reader, writer in self.conns:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def _one(self, slot: int, index: int, key: int, sent: float,
                   late: Optional[float]) -> Sample:
        reader, writer = self.conns[slot]
        try:
            status, body = await _exchange(reader, writer, self.wire[key])
        except (OSError, ValueError, asyncio.IncompleteReadError) as exc:
            writer.close()
            self.conns[slot] = list(await asyncio.open_connection(
                self.host, self.port))
            return Sample(index, sent, time.perf_counter() - sent, late,
                          f"request failed: {exc!r}")
        done = time.perf_counter()
        return Sample(index, sent, done - sent, late,
                      self.check(key, status, body))

    async def closed(self, sequence: Sequence[int], first: int,
                     duration: float):
        """Closed loop: the connections share a walk of *sequence* from
        index *first* until *duration* elapses.
        Returns ``(samples, wall_seconds, next_index)``."""
        clock = time.perf_counter
        samples: List[Sample] = []
        next_index = first
        start = clock()
        end = start + duration

        async def worker(slot: int) -> None:
            nonlocal next_index
            while clock() < end:
                i = next_index
                next_index += 1
                samples.append(await self._one(
                    slot, i, sequence[i % len(sequence)], clock(), None))

        await asyncio.gather(*(worker(s) for s in range(self.connections)))
        return samples, clock() - start, next_index

    async def open_loop(self, sequence: Sequence[int], first: int,
                        rate: float, duration: float):
        """Open loop: request *j* of the slice is due at
        ``start + j / rate``; a request waits for a free connection.
        Returns ``(samples, next_index)``."""
        clock = time.perf_counter
        samples: List[Sample] = []
        total = round(rate * duration)
        taken = 0
        start = clock()

        async def worker(slot: int) -> None:
            nonlocal taken
            while taken < total:
                j = taken
                taken += 1
                due = start + j / rate
                late = None
                now = clock()
                if due > now:
                    await asyncio.sleep(due - now)
                    late = clock() - due
                i = first + j
                samples.append(await self._one(
                    slot, i, sequence[i % len(sequence)], due, late))

        await asyncio.gather(*(worker(s) for s in range(self.connections)))
        return samples, first + total

    async def lockstep(self, index: int, key: int) -> List[Sample]:
        """Every connection sends request *key* at the same moment."""
        sent = time.perf_counter()
        return list(await asyncio.gather(*(
            self._one(slot, index, key, sent, None)
            for slot in range(self.connections))))
