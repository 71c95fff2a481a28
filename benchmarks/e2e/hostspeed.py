"""Host-speed probe: scales timings taken on a shared, noisy host.

On a virtual machine that shares cores with other tenants, the speed
of the same Python code drifts by tens of percent over seconds.  The
benchmark therefore probes host speed while it measures, on the CPU
whose speed bounds the work, and reports every time scaled to the
reference host speed::

    scaled = measured * REFERENCE_S / mean(probes during the interval)

The probe is a JSON decode/encode round-trip over a fixed document,
which slows down with the host the way the simulator's object-heavy
Python does; it touches no ``repro`` code, so a change to the program
never moves it.  The unscaled values are kept as diagnostics.

* In-process workloads take a probe every :data:`PERIOD_S` from a
  ``SIGALRM`` handler, so a three-second simulation is scaled by the
  speed the host had during those three seconds.  Probe time is
  subtracted from the intervals it interrupted.
* The serve workloads must probe the server's CPU: each vCPU drifts on
  its own, and scaling ``repro serve`` traffic by the load generator's
  CPU made the spread worse, not better.  They pause their traffic
  between slices and ask a sidecar pinned to the server's CPU
  (``python hostspeed.py``: one probe per byte read from stdin).
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

#: Seconds :func:`probe` takes on the reference host (2-core KVM guest,
#: Xeon at 2.1 GHz, Python 3.11) when nothing else slows it down.
REFERENCE_S = 1.1e-3
#: Seconds between in-process probes.
PERIOD_S = 0.25

_DOC = json.dumps({"rows": [{f"k{i}": [i, i * 0.5, f"s{i}"] for i in range(40)}
                            for _ in range(10)]})


def probe() -> float:
    """Seconds for the fixed kernel; best of two to drop interrupts."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        for _ in range(3):
            json.dumps(json.loads(_DOC))
        best = min(best, time.perf_counter() - start)
    return best


class Sidecar:
    """A probe process pinned to another CPU, probing on request."""

    def __init__(self, cpu: Optional[int], env: dict) -> None:
        preexec = (None if cpu is None
                   else (lambda: os.sched_setaffinity(0, {cpu})))
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, preexec_fn=preexec)

    def probe(self) -> float:
        self.proc.stdin.write(b"p")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("host-speed sidecar exited")
        return float(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class HostSpeed:
    """Timestamped probes over one run, and scales for intervals.

    Probes run on this process's CPU, or on the sidecar's when one is
    given (then only when :meth:`sample` is called).
    """

    def __init__(self, sidecar: Optional[Sidecar] = None) -> None:
        self.sidecar = sidecar
        self.times: List[float] = []    # perf_counter when each probe began
        self.samples: List[float] = []  # seconds each probe measured
        self._local: List[float] = []   # how long local probes stalled us
        self._sampling = False

    def sample(self) -> None:
        """Take one probe now."""
        start = time.perf_counter()
        seconds = probe() if self.sidecar is None else self.sidecar.probe()
        self.times.append(start)
        self.samples.append(seconds)
        self._local.append(time.perf_counter() - start
                           if self.sidecar is None else 0.0)

    def start_sampling(self) -> None:
        """Probe every :data:`PERIOD_S` until :meth:`stop_sampling`."""
        if self.sidecar is not None or self._sampling:
            return
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._sampling = True

    def stop_sampling(self) -> None:
        if self._sampling:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._sampling = False

    def stalled(self, start: float, end: float) -> float:
        """Seconds of local probing inside ``[start, end]``."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        return sum(self._local[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """Factor for a time measured over ``[start, end]``: the probes
        taken in it, widened to the two nearest on each side."""
        lo = max(0, bisect.bisect_left(self.times, start) - 2)
        hi = bisect.bisect_right(self.times, end) + 2
        window = self.samples[lo:hi]
        return REFERENCE_S / (sum(window) / len(window))

    def close(self) -> None:
        self.stop_sampling()
        if self.sidecar is not None:
            self.sidecar.close()
            self.sidecar = None


def _sidecar_main() -> None:
    while sys.stdin.buffer.read(1):
        sys.stdout.write(f"{probe()!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _sidecar_main()
