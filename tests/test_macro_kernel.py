"""Macro-kernel layer: shape recognition, fallback, cache identity.

Three angles on ``repro/interp/macro.py``:

* **Recognition** — the loops the dynamic translator actually emits
  (canonical do-while: affine ``vld``/``vst``, vector ALU body, counted
  back-branch) must each be a loop region of the fragment's one
  whole-fragment chain kernel, with the region's facts (head, body
  length, induction register, trip count) matching the fragment text.

* **Rejection** — any deviation from the canonical shape must yield
  *no* plan, never a wrong kernel: reference-executor steps are the
  safety net, so the analyzer's only legal failure mode is declining.
  Each case here mutates one facet of a real translated fragment.

* **Run-cache identity** — kernel execution leaves results
  bit-identical, so ``CACHE_FORMAT_VERSION`` stays put: run keys are
  engine-invariant, cache bytes written under ``fast`` equal the
  reference engine's, and a reference context answers straight from
  entries a fast run wrote (zero re-simulations on a warm cache).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.scalarize import build_liquid_program
from repro.evaluation.experiments import EvalContext
from repro.evaluation.runcache import RunCache, run_key
from repro.evaluation.runner import RunScheduler, build_request_program
from repro.interp.macro import (
    FragmentChainShape,
    FragmentLoopShape,
    FragmentNestShape,
    build_fragment_plan,
)
from repro.interp.state import MachineState
from repro.interp.turbo import SuperblockTable, fragment_tables_for
from repro.isa.assembler import assemble
from repro.isa.decoded import predecode
from repro.isa.instructions import Imm, Mem, Reg
from repro.kernels.suite import build_kernel
from repro.observability import telemetry
from repro.pipeline.core import PipelineModel
from repro.simd.accelerator import config_for_width
from repro.system.loader import load_program
from repro.system.machine import Machine, MachineConfig
from repro.system.trace import TraceRecorder

WIDTH = 8
OFFSET = 1 << 20  # arbitrary fragment PC offset, as the machine assigns


def _translated_entries(kernel_name):
    """Run *kernel_name* once and return its completed translations."""
    program = build_liquid_program(build_kernel(kernel_name))
    config = MachineConfig(accelerator=config_for_width(WIDTH))
    result = Machine(config).run(program)
    entries = [t.entry for t in result.translations
               if t.ok and t.entry is not None]
    assert entries, f"{kernel_name}: no completed translations"
    return entries


def _state_for(fragment, width=WIDTH):
    """A run state over *fragment*'s own data: what the tables fuse
    against when only the plan is inspected."""
    memory, symbols = load_program(fragment)
    return MachineState(fragment, memory, symbols, vector_width=width)


def _plan_for(fragment, width=WIDTH):
    _, plan = fragment_tables_for(fragment, PipelineModel(), width,
                                  OFFSET, _state_for(fragment, width))
    return plan


def _chain_loops(plan):
    """The loop regions of a plan's whole-fragment chain kernel."""
    assert set(plan) == {0}, f"plan is not one chain kernel: {plan}"
    chain = plan[0]
    assert isinstance(chain, FragmentChainShape)
    return [loop for _ri, loop in chain.chain.loops]


# -- recognition --------------------------------------------------------------

@pytest.mark.parametrize("kernel_name", ["FIR", "FFT", "LU"])
def test_translated_loops_are_recognized(kernel_name):
    """Every loop the translator emits for these kernels matches the
    canonical shape: the plan is one whole-fragment chain kernel keyed
    at pc 0, and each backward ``blt`` closes one of its loop
    regions."""
    for entry in _translated_entries(kernel_name):
        fragment = entry.fragment
        plan = _plan_for(fragment, entry.width)
        assert plan, f"{entry.function}: no whole-loop plan"
        back_branches = [
            pc for pc, instr in enumerate(fragment.instructions)
            if instr.opcode == "blt"
            and fragment.labels.get(instr.target, pc + 1) <= pc]
        loops = _chain_loops(plan)
        assert sorted(loop.branch_pc for loop in loops) == back_branches


def test_fir_shape_facts():
    """The FIR fragment's single loop, checked field by field.

    The fragment is chain-shaped (mov prologue + one counted loop +
    scalar-store epilogue), so the plan is one whole-fragment chain
    kernel at pc 0 whose one loop region is the loop.
    """
    entry, = _translated_entries("FIR")
    fragment = entry.fragment
    plan = _plan_for(fragment)
    head = fragment.labels["u16"]
    shape, = _chain_loops(plan)
    chain = plan[0]
    # one whole-fragment invocation retires every straight-line
    # instruction once plus the loop body once per trip
    assert chain.blen >= len(fragment.instructions)
    assert chain.trips(None) == 1
    assert shape.head == head
    branch_pc = next(pc for pc, i in enumerate(fragment.instructions)
                     if i.opcode == "blt")
    assert shape.branch_pc == branch_pc
    assert shape.blen == branch_pc - head + 1
    assert shape.width == entry.width
    # induction register and trip count from the add/cmp pair
    cmp_instr = fragment.instructions[branch_pc - 1]
    assert shape.induction == cmp_instr.srcs[0].name
    assert shape.trip == cmp_instr.srcs[1].value


def test_traced_run_takes_no_kernel(monkeypatch):
    """A tracer needs every retire event, so a traced run must never
    take the whole-loop path; the same run untraced does."""
    runs = []
    real_run = FragmentChainShape.run
    monkeypatch.setattr(
        FragmentChainShape, "run",
        lambda self, *args: runs.append(1) or real_run(self, *args))
    program = build_liquid_program(build_kernel("FIR"))
    config = MachineConfig(accelerator=config_for_width(WIDTH))
    Machine(config, tracer=TraceRecorder()).run(program)
    assert runs == []
    Machine(config).run(program)
    assert runs, "untraced FIR must run its whole-fragment kernel"


# -- truthful trip counts ------------------------------------------------------

def test_kernel_trips_histogram_counts_loop_iterations():
    """``macro.kernel.trips`` records the loop iterations each kernel
    invocation covered: FIR's whole-fragment chain covers its one
    loop's trip / width iterations per invocation."""
    entry, = _translated_entries("FIR")
    plan = _plan_for(entry.fragment)
    loop, = _chain_loops(plan)
    per_call = loop.trip // WIDTH
    assert plan[0].iterations(1) == per_call
    program = build_liquid_program(build_kernel("FIR"))
    tel = telemetry.enable()
    try:
        Machine(MachineConfig(accelerator=config_for_width(WIDTH))
                ).run(program)
        data = tel.to_dict()
    finally:
        telemetry.disable()
    calls = data["counters"]["macro.kernel.invocations"]
    assert data["histograms"]["macro.kernel.trips"] == {
        "count": calls, "total": calls * per_call,
        "min": per_call, "max": per_call}


def test_iterations_of_each_shape():
    """Loop: its trips.  Chain: the sum of its loops' static trips.
    Nest: outer trips x inner trips."""
    trip = 4 * WIDTH
    nest = assemble(f"""
        .data A f32 {trip} = 0.0
        mov r4, #0
    outer:
        mov r1, #0
    inner:
        vld.f32 vf1, [A + r1]
        vadd.f32 vf2, vf1, vf1
        vst.f32 vf2, [A + r1]
        add r1, r1, #{WIDTH}
        cmp r1, #{trip}
        blt inner
        add r4, r4, #1
        cmp r4, #5
        blt outer
    """)
    plan = _plan_for(nest)
    assert isinstance(plan[1], FragmentNestShape)
    assert plan[1].iterations(5) == 5 * 4
    assert isinstance(plan[2], FragmentLoopShape)
    assert plan[2].iterations(3) == 3
    chain = assemble(f"""
        .data A f32 {trip} = 0.0
        .data B f32 {trip} = 0.0
        mov r1, #0
    one:
        vld.f32 vf1, [A + r1]
        vst.f32 vf1, [B + r1]
        add r1, r1, #{WIDTH}
        cmp r1, #{trip}
        blt one
        mov r2, #0
    two:
        vld.f32 vf2, [B + r2]
        vst.f32 vf2, [A + r2]
        add r2, r2, #{WIDTH}
        cmp r2, #{trip // 2}
        blt two
    """)
    shape = _plan_for(chain)[0]
    assert isinstance(shape, FragmentChainShape)
    assert shape.iterations(shape.trips(None)) == 4 + 2


def test_plan_rejects_sites_that_disagree_with_timing_rows(fir_fragment):
    """``account_loop`` takes each access's width and kind from the
    loop block's memory rows, so the plan admits a loop region only
    when those match its sites; here the block's ``vld`` row claims a
    scalar width, and neither the chain nor a loop kernel is built."""
    blocks = SuperblockTable(predecode(fir_fragment), PipelineModel(),
                             _state_for(fir_fragment), None, WIDTH, OFFSET,
                             True)
    plan = build_fragment_plan(fir_fragment, blocks, WIDTH)
    head = fir_fragment.labels["u16"]
    assert [loop.head for loop in _chain_loops(plan)] == [head]
    timing = blocks.timing_at(head)
    timing.rows = tuple(row[:7] + (4,) if row[6] == 1 else row
                        for row in timing.rows)
    tel = telemetry.enable()
    try:
        rebuilt = build_fragment_plan(fir_fragment, blocks, WIDTH)
        counters = tel.to_dict()["counters"]
    finally:
        telemetry.disable()
    assert rebuilt == {}
    assert counters["macro.plan.rejected.timing-mismatch"] >= 1


# -- rejection ----------------------------------------------------------------

def _mutate(fragment, pc, **changes):
    """Copy *fragment* with instruction *pc* replaced field-wise."""
    clone = dataclasses.replace(fragment.instructions[pc], **changes) \
        if changes else fragment.instructions[pc]
    copied = type(fragment)(fragment.name)
    copied.instructions = list(fragment.instructions)
    copied.instructions[pc] = clone
    copied.labels = dict(fragment.labels)
    copied.data = dict(fragment.data)
    copied.entry = fragment.entry
    return copied


@pytest.fixture(scope="module")
def fir_fragment():
    entry, = _translated_entries("FIR")
    return entry.fragment


def _pc_of(fragment, opcode):
    return next(pc for pc, i in enumerate(fragment.instructions)
                if i.opcode == opcode)


def test_reject_non_affine_address(fir_fragment):
    """A load not indexed by the induction register is not streamable."""
    pc = _pc_of(fir_fragment, "vld")
    instr = fir_fragment.instructions[pc]
    bad = _mutate(fir_fragment, pc,
                  mem=Mem(base=instr.mem.base, index=Imm(0)))
    assert _plan_for(bad) is None


def test_reject_loop_carried_vreg(fir_fragment):
    """A vector register read before its in-body definition carries a
    dependence across trips — whole-array evaluation would be wrong."""
    pc = _pc_of(fir_fragment, "vmul")
    instr = fir_fragment.instructions[pc]
    bad = _mutate(fir_fragment, pc, srcs=(instr.dst, instr.srcs[1]))
    assert _plan_for(bad) is None


def test_reject_non_immediate_trip(fir_fragment):
    """A register-valued loop bound can change mid-loop; the trip count
    must be a literal."""
    pc = _pc_of(fir_fragment, "cmp")
    instr = fir_fragment.instructions[pc]
    bad = _mutate(fir_fragment, pc, srcs=(instr.srcs[0], Reg("r5")))
    assert _plan_for(bad) is None


def test_reject_step_not_width(fir_fragment):
    """The induction step must equal the vector width (disjoint per-trip
    memory windows are what make batched execution order-safe)."""
    pc = _pc_of(fir_fragment, "add")
    instr = fir_fragment.instructions[pc]
    bad = _mutate(fir_fragment, pc, srcs=(instr.srcs[0], Imm(4)))
    assert _plan_for(bad) is None


def test_reject_unsupported_opcode(fir_fragment):
    """An opcode the kernel builder cannot lower declines the loop
    (veor is a real ISA opcode, but has no float-elementwise lowering)."""
    pc = _pc_of(fir_fragment, "vmul")
    bad = _mutate(fir_fragment, pc, opcode="veor")
    assert _plan_for(bad) is None


def test_reject_accumulator_bank_mismatch(fir_fragment):
    """A float reduction into an integer scalar register is malformed;
    the analyzer must decline rather than guess."""
    pc = _pc_of(fir_fragment, "vredsum")
    instr = fir_fragment.instructions[pc]
    bad = _mutate(fir_fragment, pc, dst=Reg("r1"),
                  srcs=(Reg("r1"), instr.srcs[1]))
    assert _plan_for(bad) is None


# -- run-cache identity (no CACHE_FORMAT_VERSION bump) ------------------------

SUBSET = ["FIR", "LU"]


def _prefetch_subset(engine, cache_dir):
    scheduler = RunScheduler(jobs=1, cache=RunCache(cache_dir))
    ctx = EvalContext(SUBSET, engine=engine, scheduler=scheduler)
    requests = [ctx.liquid_request(name, WIDTH) for name in SUBSET]
    ctx.prefetch(requests)
    return ctx, requests, scheduler


def test_macro_run_cache_byte_identity(tmp_path, monkeypatch):
    """Kernel-run cache entries are byte-identical to the reference
    engine's, and a reference context answers from a fast-written
    cache without simulating."""
    fast_dir = tmp_path / "fast"
    ref_dir = tmp_path / "reference"
    _, fast_requests, _ = _prefetch_subset("fast", fast_dir)
    _, ref_requests, _ = _prefetch_subset("reference", ref_dir)

    fast_cache = RunCache(fast_dir)
    ref_cache = RunCache(ref_dir)
    for fast_req, ref_req in zip(fast_requests, ref_requests):
        fast_key = run_key(build_request_program(fast_req), fast_req.config)
        ref_key = run_key(build_request_program(ref_req), ref_req.config)
        assert fast_key == ref_key, "run keys must be engine-invariant"
        assert fast_cache.path_for(fast_key).read_bytes() == \
            ref_cache.path_for(ref_key).read_bytes(), \
            f"{fast_req.benchmark}: cached bytes differ across engines"

    machine_runs = []
    real_run = Machine.run
    monkeypatch.setattr(
        Machine, "run",
        lambda self, program: machine_runs.append(program.name)
        or real_run(self, program))
    warm_ctx, warm_requests, warm_scheduler = _prefetch_subset(
        "reference", fast_dir)
    assert machine_runs == [], \
        f"reference re-simulated despite fast-written cache: {machine_runs}"
    assert warm_scheduler.stats.cache_hits == len(SUBSET)
    assert warm_scheduler.stats.executed == 0
    warm_cycles = {r.benchmark: warm_ctx.run_request(r).cycles
                   for r in warm_requests}
    assert set(warm_cycles) == set(SUBSET)
