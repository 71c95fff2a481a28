"""Scheduler micro-benchmark: parallel fan-out and warm-cache skips.

Runs the full fifteen-kernel liquid suite (width 8) through the
:class:`RunScheduler` three ways and records the timings in
``benchmarks/BENCH_parallel.json`` via the session fixture in conftest:

* cold cache, ``jobs=1``   — today's sequential in-process behavior,
* cold cache, ``jobs=4``   — the ProcessPoolExecutor fan-out,
* warm cache, ``jobs=1``   — every run answered from disk.

Acceptance (ISSUE 2): parallel and sequential schedules produce
identical results; the warm-cache pass performs **zero**
``Machine.run`` calls; and on a machine with >= 4 real cores the cold
``jobs=4`` pass is >= 2x faster than ``jobs=1``.  The speedup
assertion is gated on ``nproc`` — the CPUs this process may actually
run on (``os.sched_getaffinity``), which ``os.cpu_count()`` overstates
in a pinned container; one core can demonstrate correctness and cache
behavior but not physical parallelism — and whatever ratio was
measured is always recorded next to both counts.
"""

from __future__ import annotations

import os
import time

from repro.evaluation.experiments import EvalContext
from repro.evaluation.runcache import RunCache
from repro.evaluation.runner import RunScheduler
from repro.kernels.suite import BENCHMARK_ORDER
from repro.system.machine import Machine

WIDTH = 8
PARALLEL_JOBS = 4
MIN_SPEEDUP = 2.0


def _suite_requests(ctx):
    """The suite's width-8 Liquid runs, by benchmark."""
    return {name: ctx.liquid_request(name, WIDTH) for name in BENCHMARK_ORDER}


def _run_suite(jobs, cache_dir):
    scheduler = RunScheduler(jobs=jobs, cache=RunCache(cache_dir))
    ctx = EvalContext(scheduler=scheduler)
    start = time.perf_counter()
    runs = ctx.results(_suite_requests(ctx))
    seconds = time.perf_counter() - start
    cycles = {name: run.cycles for name, run in runs.items()}
    return seconds, cycles, scheduler.stats


def test_parallel_and_warm_cache_speedup(tmp_path, parallel_bench_records,
                                         monkeypatch):
    seq_seconds, seq_cycles, _ = _run_suite(1, tmp_path / "seq")
    par_seconds, par_cycles, par_stats = _run_suite(
        PARALLEL_JOBS, tmp_path / "par")

    # Identical results whichever schedule produced them.
    assert par_cycles == seq_cycles
    assert par_stats.executed == len(BENCHMARK_ORDER)

    # Warm cache: a fresh scheduler over the parallel run's cache dir
    # answers everything from disk — zero simulations.
    machine_runs = []
    real_run = Machine.run
    monkeypatch.setattr(
        Machine, "run",
        lambda self, program: machine_runs.append(program.name)
        or real_run(self, program))
    warm_seconds, warm_cycles, warm_stats = _run_suite(1, tmp_path / "par")
    assert machine_runs == [], \
        f"warm cache still simulated: {machine_runs}"
    assert warm_stats.cache_hits == len(BENCHMARK_ORDER)
    assert warm_stats.executed == 0
    assert warm_cycles == seq_cycles

    speedup = seq_seconds / par_seconds if par_seconds else float("inf")
    nproc = len(os.sched_getaffinity(0))
    parallel_bench_records["parallel_speedup"] = {
        "kernels": list(BENCHMARK_ORDER),
        "width": WIDTH,
        "cpu_count": os.cpu_count(),
        "nproc": nproc,
        "jobs": PARALLEL_JOBS,
        "cold_jobs1_seconds": round(seq_seconds, 3),
        f"cold_jobs{PARALLEL_JOBS}_seconds": round(par_seconds, 3),
        "speedup": round(speedup, 2),
        "warm_seconds": round(warm_seconds, 3),
        "warm_machine_runs": len(machine_runs),
    }
    print(f"\ncold jobs=1 {seq_seconds:.2f}s  "
          f"cold jobs={PARALLEL_JOBS} {par_seconds:.2f}s  "
          f"speedup {speedup:.2f}x  warm {warm_seconds:.3f}s "
          f"({nproc} usable cores)")

    # Warm cache must be dramatically faster than simulating.
    assert warm_seconds < seq_seconds / 5

    if nproc >= PARALLEL_JOBS:
        assert speedup >= MIN_SPEEDUP, \
            f"parallel scheduler only {speedup:.2f}x over sequential " \
            f"on {nproc} cores (required: {MIN_SPEEDUP}x)"
