"""Differential conformance suite: fast vs. reference.

The fast engine (``engine="fast"``) must be observationally
indistinguishable from the reference interpreter — not just "same final
arrays" but the same *complete* execution record:

* bit-identical array snapshots,
* an identical retire-event stream (every field of every
  :class:`~repro.interp.events.RetireEvent`, scalar and microcode,
  in order, with the same source tags),
* identical cycle counts and pipeline statistics,
* an identical serialized :class:`~repro.system.metrics.RunResult`
  (``to_dict()``), including cache, translation and microcode-cache
  stats.

The fast engine needs both halves of the comparison: with a tracer
attached it runs its per-instruction handlers (eager events), and
*without* one it runs fused superblocks with batched timing plus
whole-loop fragment kernels, batched d-cache streams
(``Cache.access_stream``) and folded loop timing
(``PipelineModel.account_loop``) — the untraced ``to_dict()``
comparison below is what exercises those paths.

Every kernel of the paper's benchmark suite is swept at hardware widths
2/4/8 (width 16 rides behind the ``slow`` marker).  This is the
equivalence contract described in docs/execution-engines.md; any
optimization to the fast engine must keep this suite green.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.scalarize import build_liquid_program
from repro.kernels.suite import BENCHMARK_ORDER, build_kernel
from repro.simd.accelerator import config_for_width
from repro.system.machine import Machine, MachineConfig
from repro.system.trace import TraceRecorder

WIDTHS = (2, 4, 8)


class _Collector:
    """Unbounded retire-event collector (TraceRecorder is a ring)."""

    def __init__(self):
        self.events = []

    def record(self, event, source):
        self.events.append((source, event))


def _run(program, width, engine):
    tracer = _Collector()
    config = MachineConfig(accelerator=config_for_width(width),
                           engine=engine)
    result = Machine(config, tracer=tracer).run(program)
    return result, tracer.events


def _run_untraced(program, width, engine) -> dict:
    config = MachineConfig(accelerator=config_for_width(width),
                           engine=engine)
    return Machine(config).run(program).to_dict()


def _assert_identical(program, width):
    fast, fast_events = _run(program, width, "fast")
    ref, ref_events = _run(program, width, "reference")

    assert fast.arrays == ref.arrays
    assert fast.cycles == ref.cycles
    assert fast.instructions == ref.instructions
    assert dataclasses.asdict(fast.pipeline) == \
        dataclasses.asdict(ref.pipeline)
    assert dataclasses.asdict(fast.icache) == dataclasses.asdict(ref.icache)
    assert dataclasses.asdict(fast.dcache) == dataclasses.asdict(ref.dcache)
    assert fast.to_dict() == ref.to_dict()

    assert len(fast_events) == len(ref_events)
    for i, ((f_src, f_ev), (r_src, r_ev)) in enumerate(
            zip(fast_events, ref_events)):
        assert f_src == r_src, f"source diverges at event {i}"
        assert f_ev == r_ev, f"retire event diverges at event {i}: " \
                             f"{f_ev} != {r_ev}"

    # Untraced: fused superblocks and fragment kernels.
    assert _run_untraced(program, width, "fast") == ref.to_dict()


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("bench", BENCHMARK_ORDER)
def test_engines_bit_identical(bench, width):
    program = build_liquid_program(build_kernel(bench))
    _assert_identical(program, width)


@pytest.mark.slow
@pytest.mark.parametrize("bench", BENCHMARK_ORDER)
def test_engines_bit_identical_width16(bench):
    program = build_liquid_program(build_kernel(bench))
    _assert_identical(program, 16)


def test_scalar_machine_engines_identical():
    """No accelerator at all: the purely scalar path must also match."""
    program = build_liquid_program(build_kernel("FIR"))
    fast = Machine(MachineConfig(engine="fast")).run(program)
    ref = Machine(MachineConfig(engine="reference")).run(program)
    assert fast.arrays == ref.arrays
    assert fast.cycles == ref.cycles
    assert fast.instructions == ref.instructions
    assert fast.to_dict() == ref.to_dict()


@pytest.mark.parametrize("variant", [
    dict(translation_mode="software"),
    dict(observation_point="decode"),
    dict(verify_translations=True),
    dict(pretranslate=True),
    dict(interrupt_interval=500),
])
def test_turbo_identical_across_translator_configs(variant):
    """Translator-heavy configs: fused (untraced) and eager (traced)
    fast runs must agree."""
    program = build_liquid_program(build_kernel("FFT"))
    config = MachineConfig(accelerator=config_for_width(4), **variant)
    traced = Machine(config, tracer=TraceRecorder()).run(program)
    assert Machine(config).run(program).to_dict() == traced.to_dict()
