"""Differential conformance suite: fast vs. reference.

Both engines step the same per-instruction interpreter, the reference
:class:`~repro.interp.executor.Executor`, wherever an observer needs
retire events.  What the ``fast`` engine adds is everything that runs
*without* events: fused superblocks with batched timing, windows of
self-loop trips and whole-loop fragment kernels, both charged through
``PipelineModel.account_loop`` and its batched D-cache stream
(``Cache.access_stream``).  So the contract is fused/kernel vs.
reference: an untraced fast run must leave exactly the complete record
a traced reference run leaves —

* bit-identical array snapshots,
* identical cycle and instruction counts and pipeline, I-cache and
  D-cache statistics,
* an identical serialized :class:`~repro.system.metrics.RunResult`
  (``to_dict()``), including translation and microcode-cache stats.

One traced fast run (FFT at width 4) pins the other half: a tracer turns
fusion and fragment kernels off, in the main loop and in
``Machine._run_fragment`` alike, so its event stream is the reference's,
event for event.

Every kernel of the paper's benchmark suite is swept at hardware widths
2/4/8 (width 16 rides behind the ``slow`` marker), and so is its scalar
baseline program on the accelerator-less machine (the CLI's
``FAST_SUBSET`` kernels in tier-1, the rest behind ``slow``).  This is the
equivalence contract described in docs/execution-engines.md; any
optimization to the fast engine must keep this suite green.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.scalarize import build_baseline_program, build_liquid_program
from repro.evaluation.cli import FAST_SUBSET
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


def _config(width, engine):
    accelerator = config_for_width(width) if width is not None else None
    return MachineConfig(accelerator=accelerator, engine=engine)


def _run(program, width, engine):
    tracer = _Collector()
    result = Machine(_config(width, engine), tracer=tracer).run(program)
    return result, tracer.events


def _assert_identical(program, width):
    fast = Machine(_config(width, "fast")).run(program)
    ref, _events = _run(program, width, "reference")

    assert fast.arrays == ref.arrays
    assert fast.cycles == ref.cycles
    assert fast.instructions == ref.instructions
    assert dataclasses.asdict(fast.pipeline) == \
        dataclasses.asdict(ref.pipeline)
    assert dataclasses.asdict(fast.icache) == dataclasses.asdict(ref.icache)
    assert dataclasses.asdict(fast.dcache) == dataclasses.asdict(ref.dcache)
    assert fast.to_dict() == ref.to_dict()


@pytest.mark.parametrize("bench", ["FFT"])
def test_traced_fast_run_is_the_reference_event_stream(bench):
    """With a tracer attached the fast engine fuses nothing and runs no
    fragment kernel: every scalar and microcode retirement is one
    reference-executor step, in the reference's order."""
    program = build_liquid_program(build_kernel(bench))
    fast, fast_events = _run(program, 4, "fast")
    ref, ref_events = _run(program, 4, "reference")
    assert any(source == "ucode" for source, _event in ref_events)
    assert fast.to_dict() == ref.to_dict()
    assert len(fast_events) == len(ref_events)
    for i, ((f_src, f_ev), (r_src, r_ev)) in enumerate(
            zip(fast_events, ref_events)):
        assert f_src == r_src, f"source diverges at event {i}"
        assert f_ev == r_ev, f"retire event diverges at event {i}: " \
                             f"{f_ev} != {r_ev}"


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


@pytest.mark.parametrize("bench", [
    bench if bench in FAST_SUBSET
    else pytest.param(bench, marks=pytest.mark.slow)
    for bench in BENCHMARK_ORDER])
def test_baseline_engines_bit_identical(bench):
    """The plain ARM-926 baseline (no accelerator) over each kernel's
    inlined scalar program — the runs every Figure 6 speedup divides
    by.  Untraced, the fast engine charges their hot loops a window of
    trips at a time (``PipelineModel.account_loop``)."""
    program = build_baseline_program(build_kernel(bench))
    _assert_identical(program, None)


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
    dict(max_ucode_instructions=2),
    dict(attempt_plain_bl=True),
])
def test_turbo_identical_across_translator_configs(variant):
    """Translator-heavy configs: fused (untraced) and eager (traced,
    one executor step per retirement) fast runs must agree.  Untraced,
    blocks the translator ignores run fused during the observed call; a
    2-entry microcode buffer makes aborted attempts end at a fused
    block's ``ret``."""
    program = build_liquid_program(build_kernel("FFT"))
    config = MachineConfig(accelerator=config_for_width(4), **variant)
    traced = Machine(config, tracer=TraceRecorder()).run(program)
    assert Machine(config).run(program).to_dict() == traced.to_dict()
