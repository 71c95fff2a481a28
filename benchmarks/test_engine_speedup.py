"""Engine micro-benchmark: the accelerated engine vs. reference.

Runs the full fifteen-kernel liquid suite at hardware width 8 under both
engines and asserts the fast engine's (superblock fusion plus fragment
kernels) >= 2x wall-clock speedup over the reference interpreter.  The
measured numbers are recorded in ``benchmarks/BENCH_engine.json`` via
the session fixture in conftest.

The differential suite (``tests/test_engine_differential.py``) already
proves the two engines bit-identical, so this file only measures time;
it still cross-checks cycle counts as a cheap sanity net.
"""

from __future__ import annotations

import time

from repro.core.scalarize import build_liquid_program
from repro.kernels.suite import BENCHMARK_ORDER, build_kernel
from repro.simd.accelerator import config_for_width
from repro.system.machine import Machine, MachineConfig

WIDTH = 8
MIN_SPEEDUP = 2.0


def _run_suite(programs, engine):
    accel = config_for_width(WIDTH)
    cycles = 0
    start = time.perf_counter()
    for program in programs:
        result = Machine(MachineConfig(accelerator=accel,
                                       engine=engine)).run(program)
        cycles += result.cycles
    return time.perf_counter() - start, cycles


def test_engine_speedup(engine_bench_records):
    programs = [build_liquid_program(build_kernel(name))
                for name in BENCHMARK_ORDER]

    _run_suite(programs, "fast")  # warm imports and the allocator
    fast_seconds, fast_cycles = min(
        _run_suite(programs, "fast") for _ in range(2))
    ref_seconds, ref_cycles = _run_suite(programs, "reference")

    assert fast_cycles == ref_cycles, \
        "engines disagree on simulated cycles; run the differential suite"

    speedup = ref_seconds / fast_seconds
    engine_bench_records["engine_speedup"] = {
        "kernels": list(BENCHMARK_ORDER),
        "width": WIDTH,
        "fast_seconds": round(fast_seconds, 3),
        "reference_seconds": round(ref_seconds, 3),
        "speedup": round(speedup, 2),
    }
    print(f"\nfast {fast_seconds:.2f}s  reference {ref_seconds:.2f}s  "
          f"speedup {speedup:.2f}x")
    assert speedup >= MIN_SPEEDUP, \
        f"fast engine only {speedup:.2f}x over reference " \
        f"(required: {MIN_SPEEDUP}x)"
