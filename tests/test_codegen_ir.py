"""Codegen layer: lift determinism, IR kind coverage, new loop shapes.

Four angles on ``repro/codegen/``:

* **Determinism** — lifting the same fragment bytes and lowering them
  through the numpy backend must produce byte-identical generated
  source, every time (a property test over real translated fragments;
  the fragment store and the machine's per-run fragment tables both
  rely on content-keyed reuse being safe).

* **Coverage** — every :class:`~repro.codegen.ir.IRKind` member must
  be exercised by at least one lifted paper kernel, mirroring the
  ``RetranslateReason`` battery: an IR node kind nothing lifts into is
  dead weight or an untested code path.

* **New shapes** — the nested counted-loop and fissioned permutation
  chain shapes (ISSUE 8's recognition extensions beyond the canonical
  loop, §3 of the paper) are checked on synthetic fragments built to
  match them exactly, including the facts of the lifted IR.

* **Bit-identity** — kernel execution of the new shapes (whole
  loop-nest and whole-chain kernels with batched timing) must leave
  machine state — memory bytes, both scalar register banks, flags,
  vector registers, retired count — *and* the pipeline/cache models
  exactly where the per-block fused path leaves them.  This is the
  same contract tests/test_engine_differential.py enforces end-to-end
  for the translator's own fragments, applied to shapes the dynamic
  translator does not yet emit.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen.backend import get_backend
from repro.codegen.ir import IRKind
from repro.codegen.lift import lift_fragment
from repro.core.scalarize import build_liquid_program
from repro.interp.macro import (
    FragmentChainShape,
    FragmentLoopShape,
    FragmentNestShape,
)
from repro.interp.executor import Executor
from repro.interp.state import MachineState, SymbolInfo, SymbolTable
from repro.interp.turbo import fragment_tables_for
from repro.isa.assembler import assemble
from repro.isa.encoding import decode_program
from repro.kernels.suite import build_kernel
from repro.memory.memory import Memory
from repro.observability import telemetry
from repro.pipeline.core import PipelineModel
from repro.simd.accelerator import config_for_width
from repro.system.loader import load_program
from repro.system.machine import Machine, MachineConfig

WIDTH = 8
OFFSET = 1 << 20  # arbitrary fragment PC offset, as the machine assigns

#: Paper kernels whose translations jointly cover every IR node kind:
#: FIR contributes REDUCE and a scalar-store chain, FFT the butterfly
#: PERM and a fissioned two-loop chain, LU plain LOAD/STORE/ALU loops.
CORPUS_KERNELS = ("FIR", "FFT", "LU")


def _translated_entries(kernel_name, width=WIDTH):
    """Run *kernel_name* once and return its completed translations."""
    program = build_liquid_program(build_kernel(kernel_name))
    config = MachineConfig(accelerator=config_for_width(width))
    result = Machine(config).run(program)
    entries = [t.entry for t in result.translations
               if t.ok and t.entry is not None]
    assert entries, f"{kernel_name}: no completed translations"
    return entries


@pytest.fixture(scope="module")
def corpus():
    """(kernel name, entry) for every completed corpus translation."""
    return [(name, entry) for name in CORPUS_KERNELS
            for entry in _translated_entries(name)]


# -- determinism ---------------------------------------------------------------


def _emit_sources(fragment, width, label):
    """(IR kinds, concatenated generated source) for *fragment*.

    Lowers every lifted loop (the inner loop of a nested region, as
    the plan builder does) and the whole-fragment chain when present —
    every numpy-backend artifact the fragment plan would compile.
    """
    backend = get_backend("numpy")
    ir = lift_fragment(fragment, width)
    sources = []
    for head in sorted(ir.loops):
        node = ir.loops[head]
        lowered = backend.lower_loop(node.inner or node, label)
        if lowered is not None:
            sources.append(lowered.source)
    if ir.chain is not None:
        lowered = backend.lower_chain(ir.chain, label)
        if lowered is not None:
            sources.append(lowered.source)
    return ir.node_kinds(), "\n\n".join(sources)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_lift_and_emit_are_deterministic(corpus, data):
    """Same fragment bytes -> byte-identical generated source.

    Each pass decodes the entry's canonical bytes afresh, so nothing
    (memoization, dict order, object identity) can leak between lifts.
    """
    name, entry = data.draw(st.sampled_from(corpus))
    passes = [
        _emit_sources(decode_program(entry.encoded_bytes()),
                      entry.width, entry.function)
        for _ in range(2)
    ]
    assert passes[0] == passes[1], \
        f"{name}/{entry.function}: lift/emit not deterministic"
    kinds, source = passes[0]
    assert source, f"{name}/{entry.function}: nothing lowered"
    # The decoded twin must also match the original in-memory fragment.
    assert _emit_sources(entry.fragment, entry.width,
                         entry.function) == passes[0]


# -- IR kind coverage ----------------------------------------------------------


def test_every_ir_kind_is_lifted_from_a_paper_kernel(corpus):
    """Each IRKind member appears in some corpus kernel's lifted IR."""
    witness = {}
    for name, entry in corpus:
        for kind in entry.lift_ir().node_kinds():
            witness.setdefault(kind, name)
    missing = set(IRKind) - set(witness)
    assert not missing, \
        f"IR kinds never lifted from any paper kernel: {missing}"


def test_kind_witnesses_are_the_expected_kernels(corpus):
    """Pin the interesting kinds to the kernels that motivate them."""
    kinds = {}
    for name, entry in corpus:
        kinds.setdefault(name, set()).update(entry.lift_ir().node_kinds())
    assert IRKind.PERM in kinds["FFT"]      # butterfly permutation
    assert IRKind.REDUCE in kinds["FIR"]    # dot-product accumulator
    assert IRKind.CHAIN in kinds["FIR"]     # whole-fragment chain
    assert IRKind.SCALAR in kinds["FIR"]    # mov prologue / stw epilogue


# -- synthetic fragments for the new shapes ------------------------------------


def nest_source(width):
    """A nested counted loop: 5 outer trips re-running one canonical
    inner vector loop (accumulating into B so outer trips are
    observable in memory)."""
    trip = 4 * width
    return f"""
        .data A f32 {trip} = 0.0
        .data B f32 {trip} = 0.0
        mov r4, #0
    outer:
        mov r1, #0
    inner:
        vld.f32 vf1, [A + r1]
        vld.f32 vf2, [B + r1]
        vadd.f32 vf3, vf1, vf2
        vst.f32 vf3, [B + r1]
        add r1, r1, #{width}
        cmp r1, #{trip}
        blt inner
        add r4, r4, #1
        cmp r4, #5
        blt outer
    """


def chain_source(width):
    """A fissioned two-loop chain (the §3 loop-fission shape after
    translation): square A into B, double B into C, then store the
    first loop's induction final — which the chain kernel must
    materialize between regions."""
    trip = 4 * width
    return f"""
        .data A f32 {trip} = 0.0
        .data B f32 {trip} = 0.0
        .data C f32 {trip} = 0.0
        .data N i32 1 = 0
        mov r1, #0
    sq:
        vld.f32 vf1, [A + r1]
        vmul.f32 vf2, vf1, vf1
        vst.f32 vf2, [B + r1]
        add r1, r1, #{width}
        cmp r1, #{trip}
        blt sq
        mov r2, #0
    dbl:
        vld.f32 vf3, [B + r2]
        vadd.f32 vf4, vf3, vf3
        vst.f32 vf4, [C + r2]
        add r2, r2, #{width}
        cmp r2, #{trip}
        blt dbl
        stw r1, [N]
    """


def _fill_arrays(memory, symbols, names, trip):
    """Deterministic, binary32-exact array contents (0.5 grid)."""
    for k, name in enumerate(names):
        values = [((i * 37 + k * 11) % 19) * 0.5 - 3.0
                  for i in range(trip)]
        memory.store_vector(symbols.address_of(name), "f32", values)


def _state_for(fragment, width):
    """A run state over *fragment*'s own data: what the tables fuse
    against when only the plan is inspected."""
    memory, symbols = load_program(fragment)
    return MachineState(fragment, memory, symbols, vector_width=width)


def _drive(source, width, kernels):
    """Execute an assembled fragment the way Machine._run_fragment
    does — plan kernels first (if *kernels*), fused blocks otherwise —
    and return (state, pipeline, plan shape class names that ran)."""
    fragment = assemble(source)
    pipeline = PipelineModel()
    memory = Memory(1 << 16)
    symbols = SymbolTable()
    addr = 0x400
    for arr in fragment.data.values():
        symbols.add(SymbolInfo(arr.name, addr, arr.elem, len(arr),
                               arr.read_only))
        if arr.values:
            memory.store_vector(addr, arr.elem, arr.values)
        addr += max(arr.size_bytes, 64)
    _fill_arrays(memory, symbols,
                 [a.name for a in fragment.data.values()
                  if a.elem == "f32"],
                 4 * width)
    state = MachineState(fragment, memory, symbols, vector_width=width)
    _table, blocks, plan = fragment_tables_for(fragment, pipeline, width,
                                               OFFSET, state)
    if not kernels:
        plan = None
    count = len(fragment.instructions)
    ran = []
    steps = 0
    while state.pc < count:
        steps += 1
        assert steps < 10_000, "runaway fragment"
        if plan is not None:
            kernel = plan.get(state.pc)
            if kernel is not None:
                trips = kernel.trips(state)
                if trips is not None \
                        and kernel.run(state, pipeline, trips):
                    ran.append(type(kernel).__name__)
                    continue
        block = blocks.block_at(state.pc)
        taken = block.run(state)
        pipeline.account_block(block.timing, block.mem, taken)
    return state, pipeline, ran


def _snapshot(state, pipeline):
    """Everything both engines must agree on, as one comparable dict."""
    return {
        "memory": bytes(state.memory._bytes),
        "ints": dict(state.regs.ints),
        "floats": dict(state.regs.floats),
        "flags": dict(state.regs.flags),
        "vregs": state.vregs.snapshot(),
        "pc": state.pc,
        "retired": state.instructions_retired,
        "cycles": pipeline.total_cycles(),
        "pipeline": dataclasses.asdict(pipeline.stats),
        "icache": dataclasses.asdict(pipeline.icache.stats),
        "dcache": dataclasses.asdict(pipeline.dcache.stats),
    }


# -- nested counted loop -------------------------------------------------------


def test_nested_loop_is_lifted():
    program = assemble(nest_source(WIDTH))
    ir = lift_fragment(program, WIDTH)
    assert sorted(ir.loops) == [1, 2]
    outer = ir.loops[1]
    assert outer.inner is ir.loops[2]
    assert outer.induction == "r4"
    assert outer.trip == 5 and outer.step == 1
    inner = outer.inner
    assert inner.inner is None
    assert inner.induction == "r1"
    assert inner.trip == 4 * WIDTH and inner.step == WIDTH
    # The outer body (induction reset + inner loop) nests in the IR.
    assert IRKind.LOOP in ir.node_kinds()
    assert IRKind.SCALAR in ir.node_kinds()
    assert ir.chain is None  # add r4 has no scalar chain lowering


def test_nested_loop_plan_shapes():
    program = assemble(nest_source(WIDTH))
    _, _, plan = fragment_tables_for(program, PipelineModel(), WIDTH, OFFSET,
                                     _state_for(program, WIDTH))
    assert isinstance(plan[1], FragmentNestShape)
    assert isinstance(plan[2], FragmentLoopShape)


def test_fused_blocks_chain_the_reference_executor():
    """What a fused block does not inline (here the vector ops) is one
    step of the reference executor on the block's own instruction,
    never a second copy of its semantics; and the block binds nothing
    run-sized."""
    program = assemble(nest_source(WIDTH))
    state = _state_for(program, WIDTH)
    _, blocks, _ = fragment_tables_for(program, PipelineModel(), WIDTH,
                                       OFFSET, state)
    run_sized = (state, state.memory, state.memory._bytes, state.symbols,
                 state.regs, state.vregs)
    chained = 0
    for pc in range(len(program.instructions)):
        namespace = blocks.block_at(pc).run.__globals__
        for name, value in namespace.items():
            assert not any(value is obj for obj in run_sized), name
        steps = [name for name in namespace
                 if name.startswith("i") and name[1:].isdigit()]
        for name in steps:
            assert namespace[name] is program.instructions[int(name[1:])]
        if steps:
            assert namespace["_X"] is Executor
        chained += len(steps)
    assert chained


def test_nested_loop_macro_is_bit_identical():
    src = nest_source(WIDTH)
    kernel_state, kernel_pipe, ran = _drive(src, WIDTH, kernels=True)
    block_state, block_pipe, block_ran = _drive(src, WIDTH, kernels=False)
    assert "FragmentNestShape" in ran, \
        f"nest kernel never ran (plan shapes that did: {ran})"
    assert block_ran == []
    assert _snapshot(kernel_state, kernel_pipe) == \
        _snapshot(block_state, block_pipe)


# -- fissioned permutation chain ----------------------------------------------


def test_fission_chain_is_lifted():
    program = assemble(chain_source(WIDTH))
    ir = lift_fragment(program, WIDTH)
    chain = ir.chain
    assert chain is not None
    assert len(chain.loops) == 2, "loop fission: two counted loops"
    trip_loops = 4  # trips per loop at this width
    assert [n for (_ri, n, _sb) in chain.trips] == [trip_loops] * 2
    # mov + loop + mov + loop + stw = 5 regions, retired counts exact
    assert len(chain.regions) == 5
    assert chain.total_retired == 2 + 2 * trip_loops * 6 + 1


def test_fission_chain_plan_shape():
    program = assemble(chain_source(WIDTH))
    _, _, plan = fragment_tables_for(program, PipelineModel(), WIDTH, OFFSET,
                                     _state_for(program, WIDTH))
    chain = plan[0]
    assert isinstance(chain, FragmentChainShape)
    assert chain.trips(None) == 1


def test_fission_chain_macro_is_bit_identical():
    src = chain_source(WIDTH)
    kernel_state, kernel_pipe, ran = _drive(src, WIDTH, kernels=True)
    block_state, block_pipe, _ = _drive(src, WIDTH, kernels=False)
    assert ran == ["FragmentChainShape"], \
        "one whole-chain invocation must cover the entire fragment"
    assert _snapshot(kernel_state, kernel_pipe) == \
        _snapshot(block_state, block_pipe)
    # The chain materialized the first induction final for the stw.
    n_addr = kernel_state.symbols.address_of("N")
    assert kernel_state.memory.load(n_addr, "i32") == 4 * WIDTH


# -- telemetry: shape counters -------------------------------------------------


def test_new_shape_telemetry_counters():
    telemetry.enable()
    try:
        lift_fragment(assemble(nest_source(WIDTH)), WIDTH)
        lift_fragment(assemble(chain_source(WIDTH)), WIDTH)
        counters = telemetry.get().to_dict()["counters"]
    finally:
        telemetry.disable()
    assert counters.get("macro.plan.shape.nested-loop", 0) >= 1
    assert counters.get("macro.plan.shape.fission-chain", 0) >= 1
    assert counters.get("macro.plan.shape.chain", 0) >= 1


# -- width-16 sweep (nightly) --------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("make_source", [nest_source, chain_source],
                         ids=["nested-loop", "fission-chain"])
def test_new_shapes_bit_identical_width16(make_source):
    src = make_source(16)
    kernel_state, kernel_pipe, ran = _drive(src, 16, kernels=True)
    block_state, block_pipe, _ = _drive(src, 16, kernels=False)
    assert ran, "no plan kernel ran at width 16"
    assert _snapshot(kernel_state, kernel_pipe) == \
        _snapshot(block_state, block_pipe)


@pytest.mark.slow
def test_fft_width16_lifts_a_fission_chain():
    """The real paper kernel behind the fission shape: FFT's stage
    fragment must lift to a multi-loop chain at width 16 too."""
    chains = [e.lift_ir().chain for e in _translated_entries("FFT", 16)]
    assert any(c is not None and len(c.loops) >= 2 for c in chains)
