"""Engine micro-benchmark: the accelerated engine vs. reference.

Two records, both asserting a wall-clock speedup of the fast engine
over the reference interpreter and both written to
``benchmarks/BENCH_engine.json`` via the session fixture in conftest:

* ``engine_speedup`` runs the full fifteen-kernel liquid suite at
  hardware width 8, where self-loop windows and the fragment kernels
  share the work;
* ``engine_speedup_baseline`` runs the scalar baseline programs of all
  fifteen kernels on the accelerator-less machine, where nearly every
  instruction retires inside a fused self-loop window -- the scalar
  path the Figure 6 baselines take, and the set the e2e
  ``scalar-cold`` workload runs.  Over five kernels the fast side was
  20-40 ms a run, so one run's timer and scheduler jitter moved the
  ratio by up to 15%.

After a warm-up pass of the fast engine, which loads imports and warms
the allocator, one timed pass runs each program on both engines back
to back, alternating which engine goes first, and each side's time is
the sum over the programs.  A drift in host speed during the pass then
reaches both sides alike, where timing all of one engine minutes after
the other let it skew the ratio.  The pass starts from an empty
per-process code cache (``repro.codegen.emit._code``,
``docs/codegen.md``), so each fast run compiles every generated closure
as a program's first run in a fresh process does: the speedup includes
codegen.

The differential suite (``tests/test_engine_differential.py``) already
proves the two engines bit-identical, so this file only measures time;
it still cross-checks cycle counts as a cheap sanity net.
"""

from __future__ import annotations

import time

from repro.codegen import emit
from repro.core.scalarize import build_baseline_program, build_liquid_program
from repro.kernels.suite import BENCHMARK_ORDER, build_kernel
from repro.simd.accelerator import config_for_width
from repro.system.machine import Machine, MachineConfig

WIDTH = 8
MIN_SPEEDUP = 2.0


def _measure(programs, **config):
    """(fast seconds, reference seconds), cycles cross-checked: one
    pass from an empty code cache, each program run on both engines
    back to back, the engine that goes first alternating."""
    engines = (MachineConfig(engine="fast", **config),
               MachineConfig(engine="reference", **config))
    for program in programs:  # warm imports and the allocator
        Machine(engines[0]).run(program)
    emit._code.clear()
    seconds = [0.0, 0.0]
    for i, program in enumerate(programs):
        cycles = [0, 0]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            start = time.perf_counter()
            cycles[side] = Machine(engines[side]).run(program).cycles
            seconds[side] += time.perf_counter() - start
        assert cycles[0] == cycles[1], \
            "engines disagree on simulated cycles; run the differential suite"
    return seconds[0], seconds[1]


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
                for name in BENCHMARK_ORDER]
    fast_seconds, ref_seconds = _measure(programs)
    _record(engine_bench_records, "engine_speedup_baseline",
            BENCHMARK_ORDER, fast_seconds, ref_seconds)
