"""Self-loop window execution for the ``fast`` engine.

The per-instruction path runs every retirement through the reference
:class:`~repro.interp.executor.Executor`, and pays three costs each
time: the executor's opcode dispatch and operand walk, a
frozen-dataclass :class:`~repro.interp.events.RetireEvent` allocation,
and a Python-level :meth:`~repro.pipeline.core.PipelineModel.account`
call.  Nearly all simulated work retires inside hot scalar loops, so
this module removes those costs there and nowhere else, as the paper's
translator works only on hot loops: a main-program block whose inline
closing branch targets its own entry (a *self-loop*) compiles to one
*window closure*, and every other instruction takes the
per-instruction path.

On top of a :class:`~repro.isa.decoded.DecodedProgram` (the per-pc
timing metadata), a :class:`SuperblockTable` lifts the straight-line
block at each pc some backward branch targets, the only pcs where a
self-loop can start, and keeps it when it is a self-loop
(:meth:`SuperblockTable.loop_at`):

* **One call per window of trips.**  The generated function runs a
  whole window of trips in one loop over the registers and flags it
  names, held in locals for the whole window, and the memory buffer:
  integer ALU, compare and (conditional) moves, binary32
  add/sub/mul/max/min/abs/neg on float registers, scalar loads and
  stores (symbol bases resolved to address literals at fuse time),
  float-register mask idioms (``and``/``orr``), and the closing
  branch.  Whatever shape the emitter declines is one call of the
  reference :class:`~repro.interp.executor.Executor` on that
  instruction, the interpreter the per-instruction path runs
  (``codegen.superblock.chained.<opcode>`` counts them).
* **Checked once per window.**  The loop's static shape
  (:meth:`SuperblockTable.shape_at`, lift only) names its inductions,
  its affine accesses and whether its trip count is counted by one
  compare.  The closure's prologue turns these into one trip budget:
  the counted exit, the trips before an induction leaves the i32
  range, and the trips every affine access stays in bounds and off
  the read-only ranges.  The body then runs those trips with no
  per-trip test on an affine access (a typed ``memoryview`` index)
  and, for a counted loop, as ``for trips in range(n)`` with the
  compare taken out.  A next trip the prologue cannot prove safe
  returns zero trips, and the machine runs that step per instruction.
  Any other access keeps its bounds and read-only test inline.
* **Event-free inline retirement.**  An inline instruction builds no
  ``RetireEvent`` (a chained executor call builds its one event).
  Memory operations append their effective address to the window's
  own list (when every access is affine the window carries only the
  first trip's, and :attr:`FusedBlock.slopes` extends them), and the
  machine charges the window with one
  :meth:`~repro.pipeline.core.PipelineModel.account_loop` call over
  that address stream and the block's pre-extracted
  :class:`~repro.pipeline.core.BlockTiming` (one
  :meth:`~repro.pipeline.core.PipelineModel.account_block` call for a
  one-trip window).  Observers that genuinely need event objects
  force the machine onto the per-instruction path, whose events are
  the reference executor's own (see ``docs/execution-engines.md``): a
  :class:`~repro.system.trace.TraceRecorder` for the whole run, the
  dynamic translator only for a loop with a pc it has not seen yet
  (:meth:`~repro.core.translate.translator.DynamicTranslator
  .pending_values`).  The values its collectors still need come from
  the recording form of the window closure, built per set of recorded
  loads (:meth:`SuperblockTable.block_at`).  The machine checks a loop
  against the translator and the step limit through its lift-only
  spec, so a loop it may not run fused is never compiled.

Error fidelity is preserved exactly: a window closure that faults
writes back the registers it holds in locals and restores ``state.pc``
to the faulting instruction and ``instructions_retired`` to the
completed prefix (every finished trip of the window included) before
re-raising, so diagnostics and registers match the per-instruction
engines.  An inline load or store whose bounds or read-only test fails
calls ``Memory._check_load`` / ``_check_store`` to raise, so the
exception and its text come from :class:`~repro.memory.memory.Memory`
itself; an affine access that would fault is never run fused, so its
fault comes from the reference executor.  A malformed instruction is
never inlined: the executor raises its error when it executes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.codegen.ir import BlockSpec, LoopShape
from repro.codegen.lift import lift_loop_shape, lift_superblock
from repro.codegen.superblock import emit_fused_block, loop_condition
from repro.interp.macro import build_fragment_plan
from repro.interp.state import MachineState
from repro.isa.decoded import DecodedProgram, _resolve_target, predecode
from repro.isa.opcodes import InstrClass
from repro.pipeline.core import BlockTiming


# ---------------------------------------------------------------------------
# Self-loop discovery + fusion
#
# Discovery and codegen live in the shared codegen layer: the lift pass
# (repro.codegen.lift.lift_superblock) scans a straight-line run into a
# BlockSpec, and repro.codegen.superblock.emit_fused_block emits a
# self-loop's window closure.  This module keeps the per-program tables.
# ---------------------------------------------------------------------------


class FusedBlock:
    """One compiled self-loop block: its window closure and timing.

    ``run(state, limit, window) -> (trips, taken)`` runs trips until the
    closing branch falls through or *limit* trips have run (raising from
    the faulting pc exactly like the per-instruction engines), or
    returns ``(0, False)`` untouched when its prologue cannot prove the
    next trip safe; the machine then runs that step per instruction.
    The machine charges a window with one
    :meth:`~repro.pipeline.core.PipelineModel.account_loop` (one
    :meth:`~repro.pipeline.core.PipelineModel.account_block` for a
    single trip) over ``timing`` and the window's address stream.
    ``run`` appends every trip's effective addresses to the caller's
    fresh *window* list, except when every access of the loop is
    affine: then it writes only the first trip's, and ``slopes`` (an
    int64 array, one per memory row, else None) extends them to the
    trip-major stream ``first + t * slopes``.  ``count`` is the
    instructions per trip.
    """

    __slots__ = ("run", "timing", "count", "slopes")

    def __init__(self, run, timing: BlockTiming, shape: LoopShape) -> None:
        self.run = run
        self.timing = timing
        self.count = timing.count
        self.slopes = np.asarray(shape.slopes, dtype=np.int64) \
            if shape.slopes else None


class SuperblockTable:
    """Lazily lifts a program (its
    :class:`~repro.isa.decoded.DecodedProgram`) into superblocks, keyed
    by entry pc, and fuses its self-loops.

    Five per-entry products are built on demand, each at most once:
    the lifted :class:`~repro.codegen.ir.BlockSpec` (:meth:`spec_at`),
    its :class:`~repro.pipeline.core.BlockTiming` (:meth:`timing_at`),
    the self-loop test (:meth:`loop_at`), a self-loop's
    :class:`~repro.codegen.ir.LoopShape` (:meth:`shape_at`), none of
    which generates code, and the :class:`FusedBlock` with its window
    closure (:meth:`block_at`, once per form: plain, or recording a
    set of loads), which reuses the others.  A caller that
    needs only a block's extent or timing -- the machine's gates, the
    fragment kernel plan -- never pays for a compile.  A fragment's
    table serves only the plan's timings: no fragment block is ever
    fused.

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
        self._loops: Dict[int, Optional[BlockSpec]] = {}
        self._shapes: Dict[int, LoopShape] = {}
        self._blocks: Dict[tuple, Optional[FusedBlock]] = {}
        #: The pcs some backward branch targets (the branch itself
        #: included): the only entries a self-loop can have.
        self._heads = set()
        for pc, meta in enumerate(self.metas):
            if meta is not None and meta.cls is InstrClass.BRANCH:
                target, _err = _resolve_target(
                    self.program, self.instructions[pc].target)
                if target is not None and target <= pc:
                    self._heads.add(target)
        #: Window closures built, one per form a self-loop ran in (plain,
        #: or recording a set of pcs): the run's
        #: ``turbo.superblock.compiles`` count (docs/observability.md).
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

    def loop_at(self, pc: int) -> Optional[BlockSpec]:
        """The lifted block at *pc* if it is a self-loop
        (:func:`~repro.codegen.superblock.loop_condition`), else None.

        Memoized per pc; a pc no backward branch targets is never
        lifted.  Generates no code.
        """
        try:
            return self._loops[pc]
        except KeyError:
            spec = None
            if pc in self._heads:
                spec = self.spec_at(pc)
                if loop_condition(spec, self.program) is None:
                    spec = None
            self._loops[pc] = spec
            return spec

    def shape_at(self, pc: int) -> LoopShape:
        """The static facts of the self-loop at *pc*
        (:func:`~repro.codegen.lift.lift_loop_shape`): its inductions,
        affine accesses and counted form.  Generates no code; *pc* must
        be a :meth:`loop_at` entry."""
        shape = self._shapes.get(pc)
        if shape is None:
            shape = self._shapes[pc] = lift_loop_shape(self,
                                                       self.spec_at(pc))
        return shape

    def block_at(self, pc: int, recorded=()) -> Optional[FusedBlock]:
        """The fused self-loop at *pc*, compiling its window closure on
        first use; *pc* must be a :meth:`loop_at` entry.

        Memoized per ``(pc, recorded)``: a non-empty *recorded* (body
        pcs, in body order) builds the recording form
        (:func:`~repro.codegen.superblock.emit_fused_block`), whose
        ``run`` takes a fourth argument, the list the recorded loads'
        values go to.  None when a recorded pc is not an inline load:
        that loop keeps the per-instruction path while it records.
        """
        key = pc, recorded
        try:
            return self._blocks[key]
        except KeyError:
            pass
        block = None
        spec = self.spec_at(pc)
        run = emit_fused_block(spec, self, recorded) if recorded \
            else emit_fused_block(spec, self)
        if run is not None:
            self.compiles += 1
            block = FusedBlock(run, self.timing_at(pc), self.shape_at(pc))
        self._blocks[key] = block
        return block


# ---------------------------------------------------------------------------
# Per-run tables
#
# Decode tables, window closures, loop-timing closures and fragment kernels
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
