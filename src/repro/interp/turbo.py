"""Superblock-fused execution for the ``fast`` engine.

The per-instruction path runs every retirement through the reference
:class:`~repro.interp.executor.Executor`, and pays three costs each
time: the executor's opcode dispatch and operand walk, a
frozen-dataclass :class:`~repro.interp.events.RetireEvent` allocation,
and a Python-level :meth:`~repro.pipeline.core.PipelineModel.account`
call.  This module removes them at *superblock* granularity, the
classic region-specialization move of interpreter JITs (and of
Revec-style region vectorizers): specialize a straight-line run once,
execute it many times.

On top of a :class:`~repro.isa.decoded.DecodedProgram` (the per-pc
timing metadata), a :class:`SuperblockTable` lazily discovers
straight-line runs —
basic blocks ending at branches, calls, returns, or ``halt`` (in this
repo, chiefly the bodies of the outlined scalar loops) — and compiles
each into one *fused* closure:

* **One dispatch per block.**  The generated function runs the
  block's instructions as straight Python over the register-bank dicts
  and the memory buffer, hoisted once per block: integer ALU, compare
  and (conditional) moves, binary32 add/sub/mul/max/min/abs/neg on
  float registers, scalar loads and stores (symbol bases resolved to
  address literals at fuse time, bounds and read-only checks inline),
  float-register mask idioms (``and``/``orr``), and the block-closing
  branch.  Whatever shape the emitter declines is one call of the
  reference :class:`~repro.interp.executor.Executor` on that
  instruction, the interpreter the per-instruction path runs
  (``codegen.superblock.chained.<opcode>`` counts them).
* **Event-free inline retirement.**  An inline instruction builds no
  ``RetireEvent`` (a chained executor call builds its one event).
  Memory operations append their effective address to a per-block list
  (reused across executions), the closing branch returns its taken
  flag, and the pipeline consumes the pre-extracted per-block
  :class:`~repro.pipeline.core.BlockTiming` via one
  :meth:`~repro.pipeline.core.PipelineModel.account_block` call, whose
  row loop charges every block (no timing code is compiled per block).
  Observers that genuinely need event objects force the machine onto
  the per-instruction path, whose events are the reference executor's
  own (see ``docs/execution-engines.md``): a
  :class:`~repro.system.trace.TraceRecorder` for the whole run, the
  dynamic translator only for pcs it does not yet ignore
  (:meth:`~repro.core.translate.translator.DynamicTranslator.ignores`).
  The machine checks a block against the translator through the
  lift-only :meth:`SuperblockTable.spec_at`, so a block it keeps
  observing is never compiled.
* **One timing call per window of a hot loop.**  A block whose closing
  branch targets its own entry (``FusedBlock.self_loop``) is re-run by
  the machine trip after trip, and a whole window of trips is charged
  with one :meth:`~repro.pipeline.core.PipelineModel.account_loop`
  call over the window's address stream.

Error fidelity is preserved exactly: a fused closure that faults
restores ``state.pc`` to the faulting instruction and
``instructions_retired`` to the completed prefix before re-raising, so
diagnostics match the per-instruction engines.  An inline load or store
whose bounds or read-only test fails calls ``Memory._check_load`` /
``_check_store`` to raise, so the exception and its text come from
:class:`~repro.memory.memory.Memory` itself.  A malformed instruction
is never inlined: the executor raises its error when it executes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.codegen.ir import BlockSpec
from repro.codegen.lift import lift_superblock
from repro.codegen.superblock import emit_fused_block
from repro.interp.macro import build_fragment_plan
from repro.interp.state import MachineState
from repro.isa.decoded import DecodedProgram, _resolve_target, predecode
from repro.pipeline.core import BlockTiming


# ---------------------------------------------------------------------------
# Superblock discovery + fusion
#
# Discovery and codegen live in the shared codegen layer: the lift pass
# (repro.codegen.lift.lift_superblock) scans a straight-line run into a
# BlockSpec, and repro.codegen.superblock.emit_fused_block emits the
# fused run closure.  This module keeps the per-program tables.
# ---------------------------------------------------------------------------


class FusedBlock:
    """One compiled superblock: run it, then account its timing.

    ``run(state)`` executes every instruction in the block (raising from
    the faulting pc exactly like the per-instruction engines) and
    returns the terminating branch's taken flag (None for other
    terminators).  ``mem`` then holds the block's effective addresses in
    execution order, ready for
    :meth:`~repro.pipeline.core.PipelineModel.account_block` together
    with ``timing``.

    ``self_loop`` marks a block whose closing branch targets its own
    entry: a taken trip lands back on this very block, so the machine
    keeps running trips and charges a whole window of them with one
    :meth:`~repro.pipeline.core.PipelineModel.account_loop`.
    ``returns`` marks a block that ends in ``ret``: run during an
    observed call, it finishes the translation.
    """

    __slots__ = ("run", "mem", "timing", "count", "self_loop", "returns")

    def __init__(self, run, mem: List[int], timing: BlockTiming,
                 self_loop: bool = False, returns: bool = False) -> None:
        self.run = run
        self.mem = mem
        self.timing = timing
        self.count = timing.count
        self.self_loop = self_loop
        self.returns = returns


class SuperblockTable:
    """Lazily fuses a program (its
    :class:`~repro.isa.decoded.DecodedProgram`) into superblocks, keyed
    by entry pc.

    Three per-entry products are built on demand, each at most once:
    the lifted :class:`~repro.codegen.ir.BlockSpec` (:meth:`spec_at`),
    its :class:`~repro.pipeline.core.BlockTiming` (:meth:`timing_at`),
    neither of which generates code, and the :class:`FusedBlock` with
    its fused ``run`` closure (:meth:`block_at`), which reuses both.  A
    caller that needs only a block's extent or timing — the translator
    gate in the machine's main loop, the fragment kernel plan — never
    pays for a compile.  A fragment's table serves only the plan's
    timings: no fragment block is ever fused.

    ``marked`` (per-pc bools) stops blocks *before* marked calls so the
    machine's microcode-injection path keeps control of them; fragments
    pass ``pc_offset``/``in_vector_unit`` so their
    :class:`~repro.pipeline.core.BlockTiming` rows carry the offset PCs
    and skip instruction fetch, exactly like the per-event fragment path.
    """

    def __init__(self, table: DecodedProgram, pipeline,
                 state: MachineState,
                 marked: Optional[List[bool]] = None,
                 vector_width: Optional[int] = None,
                 pc_offset: int = 0,
                 in_vector_unit: bool = False) -> None:
        self.program = table.program
        self.instructions = table.program.instructions
        self.metas = table.metas
        self.marked = marked
        self.vector_width = vector_width
        self.pc_offset = pc_offset
        self.in_vector_unit = in_vector_unit
        #: The run's state, read by the emitter at fuse time only: symbol
        #: addresses and the memory's size and read-only ranges become
        #: literals (nothing of it is bound into generated code).
        self.state = state
        direct, code_base, line_bytes = pipeline.fetch_profile()
        self.fetch_mode = 0 if in_vector_unit else (1 if direct else 2)
        self.code_base = code_base
        self.iline_bytes = line_bytes
        self._specs: Dict[int, BlockSpec] = {}
        self._timings: Dict[int, BlockTiming] = {}
        self._blocks: Dict[int, FusedBlock] = {}
        #: telemetry counters (docs/observability.md): every ``_build``
        #: (one fused ``run`` closure) bumps ``compiles``; ``lookups``
        #: advances only through :meth:`block_at_counted`, which callers
        #: bind in place of :meth:`block_at` when telemetry is enabled —
        #: the plain hot path stays untouched when it is not.  Tables are
        #: per-run, so the totals are that run's ``turbo.superblock.*``
        #: counts.
        self.lookups = 0
        self.compiles = 0

    def spec_at(self, pc: int) -> BlockSpec:
        """The lifted block at entry *pc* (lift only, no codegen)."""
        spec = self._specs.get(pc)
        if spec is None:
            spec = self._specs[pc] = lift_superblock(self, pc)
        return spec

    def timing_at(self, pc: int) -> BlockTiming:
        """The block's :class:`~repro.pipeline.core.BlockTiming`: its
        spec's timing rows, with no code generated."""
        timing = self._timings.get(pc)
        if timing is None:
            spec = self.spec_at(pc)
            timing = self._timings[pc] = BlockTiming(
                spec.rows, spec.blen, spec.simd, spec.fetch_mode,
                spec.timing_term, spec.branch_pc, spec.branch_target,
                label=spec.label)
        return timing

    def block_at(self, pc: int) -> FusedBlock:
        block = self._blocks.get(pc)
        if block is None:
            block = self._blocks[pc] = self._build(pc)
        return block

    def block_at_counted(self, pc: int) -> FusedBlock:
        """:meth:`block_at` plus a fusion-table lookup count (a lookup
        that triggers ``_build`` is the table's "miss")."""
        self.lookups += 1
        block = self._blocks.get(pc)
        if block is None:
            block = self._blocks[pc] = self._build(pc)
        return block

    # -- internals ----------------------------------------------------------

    def _self_loop(self, spec: BlockSpec) -> bool:
        """Does the block's closing branch target its own entry?"""
        if spec.term != 1:
            return False
        target, _err = _resolve_target(
            self.program, self.instructions[spec.pcs[-1]].target)
        return target == spec.entry

    def _build(self, entry: int) -> FusedBlock:
        self.compiles += 1
        spec = self.spec_at(entry)
        timing = self.timing_at(entry)
        run, mem = emit_fused_block(spec, self)
        returns = (spec.term == 2
                   and self.instructions[spec.pcs[-1]].opcode == "ret")
        return FusedBlock(run, mem, timing, self._self_loop(spec), returns)


# ---------------------------------------------------------------------------
# Per-run tables
#
# Decode tables, fused blocks, loop-timing closures and fragment kernels
# all live exactly as long as one Machine.run: the machine builds them
# here on first use and drops them with the rest of its run-local state.
# Only the closures' immutable code objects are kept across runs
# (codegen/emit.py), so a finished run pins none of its programs or
# generated closures.
# ---------------------------------------------------------------------------


def superblock_table_for(table: DecodedProgram, pipeline,
                         marked: Optional[List[bool]],
                         vector_width: Optional[int],
                         state: MachineState) -> SuperblockTable:
    """The main-program :class:`SuperblockTable` over *table*, fusing
    against the run's *state*."""
    return SuperblockTable(table, pipeline, state, marked, vector_width)


def fragment_tables_for(fragment, pipeline, width: int, offset: int,
                        state: MachineState):
    """(decode table, plan) for one microcode fragment.

    *plan* maps region-head pcs to kernels
    (:func:`repro.interp.macro.build_fragment_plan`; a chain fragment's
    plan is its chain alone, at pc 0), or is ``None`` when no region
    matched.  The kernels charge the ``BlockTiming`` rows
    of a fragment :class:`SuperblockTable`, whose rows carry the offset
    pcs and skip instruction fetch like the per-instruction path; no
    fragment block is fused.  *state* is the run's state, whose memory
    and symbols the fragment shares.
    """
    table = predecode(fragment)
    blocks = SuperblockTable(table, pipeline, state, None, width, offset,
                             True)
    return table, build_fragment_plan(fragment, blocks, width) or None


def fragment_tables_for_entry(entry, pipeline, offset: int,
                              state: MachineState):
    """:func:`fragment_tables_for` for one microcode-cache entry."""
    return fragment_tables_for(entry.fragment, pipeline, entry.width, offset,
                               state)
