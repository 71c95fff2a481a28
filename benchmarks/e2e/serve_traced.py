"""`repro serve` with the benchmark's layer tracer installed.

    python benchmarks/e2e/serve_traced.py TRACE_OUT serve [serve options]

The serve workloads launch their server through this file on traced
runs only; untraced runs launch ``python -m repro serve`` itself.
SIGUSR1 opens the measured window and drops what set-up recorded.
SIGUSR2 closes it, writes the window's layer metrics and trace to
TRACE_OUT, then creates ``TRACE_OUT.done``.  Only the layers the host
process runs are wrapped; simulations run in the server's pool worker.
"""

from __future__ import annotations

import signal
import sys
import time
from pathlib import Path


def main(argv) -> int:
    import trace as e2e_trace
    from repro.__main__ import main as repro_main

    out = Path(argv[0])
    tracer = e2e_trace.Tracer().install(e2e_trace.SERVER_LAYERS)
    window = {"start": time.perf_counter()}

    def open_window(signum, frame) -> None:
        tracer.reset()
        window["start"] = time.perf_counter()

    def close_window(signum, frame) -> None:
        wall = time.perf_counter() - window["start"]
        snap = tracer.snapshot()
        e2e_trace.write_json(out, {
            "metrics": e2e_trace.layer_metrics(snap, wall, server=True),
            "trace": snap.to_json(wall),
        })
        Path(f"{out}.done").touch()

    signal.signal(signal.SIGUSR1, open_window)
    signal.signal(signal.SIGUSR2, close_window)
    return repro_main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
