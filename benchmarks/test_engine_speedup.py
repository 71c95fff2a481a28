"""Engine micro-benchmark: the accelerated engine vs. reference.

Two records, both asserting a wall-clock speedup of the fast engine
over the reference interpreter and both written to
``benchmarks/BENCH_engine.json`` via the session fixture in conftest:

* ``engine_speedup`` runs the full fifteen-kernel liquid suite at
  hardware width 8, where superblock fusion and the fragment kernels
  share the work;
* ``engine_speedup_baseline`` runs the scalar baseline programs of the
  evaluation CLI's ``FAST_SUBSET`` kernels on the accelerator-less
  machine, where nearly every instruction retires inside a fused
  self-loop window -- the scalar path the Figure 6 baselines take.

The differential suite (``tests/test_engine_differential.py``) already
proves the two engines bit-identical, so this file only measures time;
it still cross-checks cycle counts as a cheap sanity net.
"""

from __future__ import annotations

import time

from repro.core.scalarize import build_baseline_program, build_liquid_program
from repro.evaluation.cli import FAST_SUBSET
from repro.kernels.suite import BENCHMARK_ORDER, build_kernel
from repro.simd.accelerator import config_for_width
from repro.system.machine import Machine, MachineConfig

WIDTH = 8
MIN_SPEEDUP = 2.0


def _run_suite(programs, config):
    cycles = 0
    start = time.perf_counter()
    for program in programs:
        cycles += Machine(config).run(program).cycles
    return time.perf_counter() - start, cycles


def _measure(programs, **config):
    """(fast seconds, reference seconds), cycles cross-checked."""
    fast = MachineConfig(engine="fast", **config)
    _run_suite(programs, fast)  # warm imports and the allocator
    fast_seconds, fast_cycles = min(
        _run_suite(programs, fast) for _ in range(2))
    ref_seconds, ref_cycles = _run_suite(
        programs, MachineConfig(engine="reference", **config))
    assert fast_cycles == ref_cycles, \
        "engines disagree on simulated cycles; run the differential suite"
    return fast_seconds, ref_seconds


def _record(records, name, kernels, fast_seconds, ref_seconds, **extra):
    speedup = ref_seconds / fast_seconds
    records[name] = {
        "kernels": list(kernels),
        **extra,
        "fast_seconds": round(fast_seconds, 3),
        "reference_seconds": round(ref_seconds, 3),
        "speedup": round(speedup, 2),
    }
    print(f"\n{name}: fast {fast_seconds:.2f}s  "
          f"reference {ref_seconds:.2f}s  speedup {speedup:.2f}x")
    assert speedup >= MIN_SPEEDUP, \
        f"fast engine only {speedup:.2f}x over reference " \
        f"(required: {MIN_SPEEDUP}x)"


def test_engine_speedup(engine_bench_records):
    programs = [build_liquid_program(build_kernel(name))
                for name in BENCHMARK_ORDER]
    fast_seconds, ref_seconds = _measure(
        programs, accelerator=config_for_width(WIDTH))
    _record(engine_bench_records, "engine_speedup", BENCHMARK_ORDER,
            fast_seconds, ref_seconds, width=WIDTH)


def test_engine_speedup_baseline(engine_bench_records):
    programs = [build_baseline_program(build_kernel(name))
                for name in FAST_SUBSET]
    fast_seconds, ref_seconds = _measure(programs)
    _record(engine_bench_records, "engine_speedup_baseline", FAST_SUBSET,
            fast_seconds, ref_seconds)
