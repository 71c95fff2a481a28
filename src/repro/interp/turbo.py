"""Superblock-fused execution for the ``fast`` engine.

The fast engine (:mod:`repro.isa.decoded`) already pre-decodes every
instruction into a handler closure, but still pays three per-instruction
costs on every retirement: a frozen-dataclass
:class:`~repro.interp.events.RetireEvent` allocation, a Python-level
:meth:`~repro.pipeline.core.PipelineModel.account` call, and the
machine's dispatch loop itself.  This module removes all three at
*superblock* granularity, the classic region-specialization move of
interpreter JITs (and of Revec-style region vectorizers): specialize a
straight-line run once, execute it many times.

On top of a :class:`~repro.isa.decoded.DecodedProgram`, a
:class:`SuperblockTable` lazily discovers straight-line handler runs —
basic blocks ending at branches, calls, returns, or ``halt`` (in this
repo, chiefly the bodies of the outlined scalar loops) — and compiles
each into one *fused* closure:

* **One dispatch per block.**  The generated function runs the
  block's instructions as straight Python over the register-bank dicts
  and the memory buffer, hoisted once per block: integer ALU, compare
  and (conditional) moves, binary32 add/sub/mul/max/min/abs/neg on
  float registers, scalar loads and stores (symbol bases resolved to
  address literals at fuse time, bounds and read-only checks inline),
  and the block-closing branch.  The "quiet" handlers defined here —
  event-free twins of the fast engine's handlers — are only the
  fallback, chained as one call for whatever shape the emitter
  declines (``codegen.superblock.chained.<opcode>`` counts them).
* **Zero-allocation retirement.**  No ``RetireEvent`` is built.  Memory
  operations append their effective address to a per-block list (reused
  across executions), branches return their taken flag, and the
  pipeline consumes the pre-extracted per-block
  :class:`~repro.pipeline.core.BlockTiming` via one
  :meth:`~repro.pipeline.core.PipelineModel.account_block` call.
  Observers that genuinely need event objects — the dynamic translator
  while observing an outlined function, or a
  :class:`~repro.system.trace.TraceRecorder` — force the machine onto
  the per-instruction handler path, whose events are eager and
  bit-identical by construction (see ``docs/execution-engines.md``).
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
:class:`~repro.memory.memory.Memory` itself.  Decode-time failures are
deferred into raising handlers just like :func:`repro.isa.decoded.predecode`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro import arith
from repro.codegen.backend import get_backend
from repro.codegen.lift import lift_superblock
from repro.interp.errors import ExecutionError
from repro.isa.decoded import (
    COND_CODES,
    FLOAT_BITWISE_OPS,
    FLOAT_UNARY_OPS,
    VEC_BINARY_OPS,
    VEC_PERM_OPS,
    VEC_RED_OPS,
    VEC_UNARY_OPS,
    DecodedProgram,
    _addr_getter,
    _FLOAT_ALU_FAST,
    _INT_ALU_FAST,
    _no_accel_error,
    _resolve_target,
    _scalar_writer,
    _value_getter,
    _vector_getter,
    mask_bits,
    predecode,
)
from repro.interp.macro import build_fragment_plan
from repro.interp.state import MachineState
from repro.isa.instructions import Imm, Instruction
from repro.isa.opcodes import ELEM_SIZES, LOAD_ELEM, OPCODES, STORE_ELEM, InstrClass
from repro.isa.registers import LINK_REGISTER, is_float_reg, is_int_reg
from repro.memory.alignment import vector_alignment_ok
from repro.pipeline.core import BlockTiming
from repro.simd import vector_ops
from repro.simd.permutations import PermPattern


# ---------------------------------------------------------------------------
# Quiet handlers
#
# Event-free twins of the repro.isa.decoded handlers: identical side
# effects, identical checks in identical order, but no RetireEvent, no
# state.pc bookkeeping (control flow excepted) and no retired counter —
# the fused block does those in bulk.  Memory handlers return the
# effective address; branches return the taken flag.  They are the
# fused block's fallback: each keeps one generic form, because every
# shape worth specializing is emitted inline instead
# (repro.codegen.superblock._inline_lines).
# ---------------------------------------------------------------------------


def _q_raiser(exc: BaseException):
    def handler(state):
        raise exc
    return handler


def _q_sys(pc: int, instr: Instruction):
    if instr.opcode == "halt":
        next_pc = pc + 1

        def halt(state):
            state.halted = True
            state.pc = next_pc
        return halt

    def nop(state):
        return None
    return nop


def _q_move(pc: int, instr: Instruction):
    opcode = instr.opcode
    base = "fmov" if opcode.startswith("fmov") else "mov"
    cond = opcode[len(base):]
    cond_fn = None
    if cond:
        cond_fn = COND_CODES.get(cond)
        if cond_fn is None:
            raise ExecutionError(
                f"unknown condition suffix {cond!r} in opcode {opcode!r}"
            )
    body_error: Optional[ExecutionError] = None
    body = None
    if len(instr.srcs) != 1:
        body_error = ExecutionError(f"{opcode} expects one source")
    elif instr.dst is None:
        body_error = ExecutionError(f"{opcode} needs a destination")
    else:
        get_src = _value_getter(instr.srcs[0])
        dname = instr.dst.name
        write = _scalar_writer(dname)
        if is_int_reg(dname):
            def body(state, _get=get_src, _write=write):
                _write(state, arith.wrap_int(int(_get(state))))
        else:
            def body(state, _get=get_src, _write=write):
                _write(state, arith.f32(float(_get(state))))
    if cond_fn is None and body_error is None:
        return body

    def handler(state):
        if cond_fn is not None and not cond_fn(state.regs.flags):
            return None
        if body_error is not None:
            raise body_error
        return body(state)
    return handler


def _q_int_alu(pc: int, instr: Instruction):
    opcode = instr.opcode
    if len(instr.srcs) != 2:
        raise ExecutionError(f"{opcode} expects two sources")
    get_a = _value_getter(instr.srcs[0])
    get_b = _value_getter(instr.srcs[1])
    if instr.dst is None:
        raise ExecutionError(f"{opcode} needs a destination")
    dname = instr.dst.name
    write = _scalar_writer(dname)

    if is_float_reg(dname):
        if opcode == "and":
            def handler(state):
                a = get_a(state)
                b = get_b(state)
                write(state, arith.float_bitwise("fand", float(a),
                                                 mask_bits(b)))
            return handler
        if opcode == "orr":
            def handler(state):
                a = get_a(state)
                b = get_b(state)
                if isinstance(b, float):
                    value = arith.float_or_floats(float(a), b)
                else:
                    value = arith.float_bitwise("forr", float(a),
                                                mask_bits(b))
                write(state, value)
            return handler
        raise ExecutionError(
            f"integer op {opcode!r} cannot target float register"
        )

    fast = _INT_ALU_FAST.get(opcode)
    if fast is not None:
        def handler(state):
            write(state, fast(int(get_a(state)), int(get_b(state))))
        return handler

    int_op = arith.int_op

    def handler(state):
        write(state, int_op(opcode, int(get_a(state)), int(get_b(state)),
                            "i32"))
    return handler


def _q_float_alu(pc: int, instr: Instruction):
    opcode = instr.opcode
    if instr.dst is None:
        raise ExecutionError(f"{opcode} needs a destination")
    dname = instr.dst.name
    write = _scalar_writer(dname)
    float_op = arith.float_op
    if not is_float_reg(dname):
        def write(state, value, _n=dname):  # noqa: F811 - intentional
            state.regs.write(_n, value)

    if opcode in FLOAT_UNARY_OPS:
        if len(instr.srcs) != 1:
            raise ExecutionError(f"{opcode} expects one source")
        get_a = _value_getter(instr.srcs[0])

        def handler(state):
            write(state, float_op(opcode, float(get_a(state))))
        return handler

    if opcode in FLOAT_BITWISE_OPS:
        get_a = _value_getter(instr.srcs[0]) if instr.srcs else None
        get_b = _value_getter(instr.srcs[1]) if len(instr.srcs) > 1 else None
        if get_a is None or get_b is None:
            return _q_raiser(IndexError("tuple index out of range"))
        is_and = opcode == "fand"

        def handler(state):
            a = float(get_a(state))
            b = get_b(state)
            if isinstance(b, float):
                value = (arith.float_and_floats(a, b) if is_and
                         else arith.float_or_floats(a, b))
            else:
                value = arith.float_bitwise(opcode, a, int(b))
            write(state, value)
        return handler

    if len(instr.srcs) != 2:
        raise ExecutionError(f"{opcode} expects two sources")
    get_a = _value_getter(instr.srcs[0])
    get_b = _value_getter(instr.srcs[1])

    np_op = _FLOAT_ALU_FAST.get(opcode)
    if np_op is not None:
        f32t = np.float32

        def handler(state):
            write(state, float(np_op(f32t(get_a(state)), f32t(get_b(state)))))
        return handler

    def handler(state):
        write(state, float_op(opcode, float(get_a(state)),
                              float(get_b(state))))
    return handler


def _q_cmp(pc: int, instr: Instruction):
    if len(instr.srcs) != 2:
        raise ExecutionError(f"{instr.opcode} expects two operands")
    a_src, b_src = instr.srcs
    get_a = _value_getter(a_src)
    get_b = _value_getter(b_src)

    def handler(state):
        state.regs.set_flags(get_a(state), get_b(state))
    return handler


def _q_load(pc: int, instr: Instruction):
    elem, signed = LOAD_ELEM[instr.opcode]
    get_addr = _addr_getter(instr.mem, elem)
    dname = instr.dst.name
    bad_float_dst = is_float_reg(dname) and elem != "f32"
    is_f32 = elem == "f32"
    if is_f32 and not is_float_reg(dname):
        def write(state, value, _n=dname):
            state.regs.write(_n, value)
    else:
        write = _scalar_writer(dname)

    def handler(state):
        addr = get_addr(state)
        value = state.memory.load(addr, elem, signed=signed)
        if is_f32:
            value = arith.f32(value)
        if bad_float_dst:
            raise ExecutionError("integer load cannot target a float register")
        write(state, value)
        return addr
    return handler


def _q_store(pc: int, instr: Instruction):
    elem = STORE_ELEM[instr.opcode]
    get_addr = _addr_getter(instr.mem, elem)
    get_src = _value_getter(instr.srcs[0])

    def handler(state):
        addr = get_addr(state)
        state.memory.store(addr, elem, get_src(state))
        return addr
    return handler


def _q_branch(pc: int, instr: Instruction, program):
    opcode = instr.opcode
    target_index, target_error = _resolve_target(program, instr.target)
    fall_through = pc + 1
    if opcode == "b":
        def handler(state):
            if target_error is not None:
                raise target_error
            state.pc = target_index
            return True
        return handler

    cond_fn = COND_CODES.get(opcode[1:])
    if cond_fn is None:
        raise ExecutionError(
            f"unknown branch condition {opcode[1:]!r} in opcode {opcode!r}"
        )

    def handler(state):
        taken = cond_fn(state.regs.flags)
        if taken:
            if target_error is not None:
                raise target_error
            state.pc = target_index
        else:
            state.pc = fall_through
        return taken
    return handler


def _q_call(pc: int, instr: Instruction, program):
    target_index, target_error = _resolve_target(program, instr.target)
    return_addr = pc + 1

    def handler(state):
        # Link register is written before target resolution, like the
        # reference, so the side effect survives a bad-target failure.
        state.regs.ints[LINK_REGISTER] = return_addr
        if target_error is not None:
            raise target_error
        state.pc = target_index
    return handler


def _q_ret(pc: int, instr: Instruction):
    def handler(state):
        state.pc = int(state.regs.ints[LINK_REGISTER])
    return handler


def _q_vld(pc: int, instr: Instruction):
    opcode = instr.opcode
    elem = instr.elem
    elem_error = None
    if elem is None:
        elem_error = ExecutionError("vld requires an element type suffix")
        get_addr = None
        elem_size = None
    else:
        get_addr = _addr_getter(instr.mem, elem)
        elem_size = ELEM_SIZES[elem]
    dname = instr.dst.name

    def handler(state):
        vregs = state.vregs
        if vregs is None:
            raise _no_accel_error(opcode)
        if elem_error is not None:
            raise elem_error
        width = vregs.width
        addr = get_addr(state)
        if not vector_alignment_ok(addr, elem_size, width):
            raise ExecutionError(
                f"unaligned vector access at {addr:#x} "
                f"(width {width}, elem {elem})"
            )
        lanes = state.memory.load_vector(addr, elem, width)
        vregs.write(dname, lanes, elem)
        return addr
    return handler


def _q_vst(pc: int, instr: Instruction):
    opcode = instr.opcode
    elem = instr.elem
    elem_error = None
    if elem is None:
        elem_error = ExecutionError("vst requires an element type suffix")
        get_addr = None
        elem_size = None
        get_src = None
    else:
        get_addr = _addr_getter(instr.mem, elem)
        elem_size = ELEM_SIZES[elem]
        get_src = _vector_getter(instr.srcs[0])

    def handler(state):
        vregs = state.vregs
        if vregs is None:
            raise _no_accel_error(opcode)
        if elem_error is not None:
            raise elem_error
        width = vregs.width
        addr = get_addr(state)
        if not vector_alignment_ok(addr, elem_size, width):
            raise ExecutionError(
                f"unaligned vector access at {addr:#x} "
                f"(width {width}, elem {elem})"
            )
        state.memory.store_vector(addr, elem, get_src(state, width))
        return addr
    return handler


def _q_vec_binary(pc: int, instr: Instruction):
    opcode = instr.opcode
    elem = instr.elem
    get_a = _vector_getter(instr.srcs[0])
    b_operand = instr.srcs[1]
    if isinstance(b_operand, Imm):
        b_const = b_operand.value
        get_b = None
    else:
        b_const = None
        get_b = _vector_getter(b_operand)
    lower = vector_ops.binary_fast_fn(opcode, elem or "i32")
    dname = instr.dst.name

    def handler(state):
        vregs = state.vregs
        if vregs is None:
            raise _no_accel_error(opcode)
        width = vregs.width
        a = get_a(state, width)
        b = b_const if get_b is None else get_b(state, width)
        vregs.write(dname, lower(a, b), elem)
    return handler


def _q_vec_unary(pc: int, instr: Instruction):
    opcode = instr.opcode
    elem = instr.elem
    get_a = _vector_getter(instr.srcs[0])
    lower = vector_ops.unary_fast_fn(opcode, elem or "i32")
    dname = instr.dst.name

    def handler(state):
        vregs = state.vregs
        if vregs is None:
            raise _no_accel_error(opcode)
        width = vregs.width
        vregs.write(dname, lower(get_a(state, width)), elem)
    return handler


def _q_vec_perm(pc: int, instr: Instruction):
    opcode = instr.opcode
    elem = instr.elem
    get_src = _vector_getter(instr.srcs[0])
    dname = instr.dst.name

    def build_pattern(width: int) -> PermPattern:
        period_operand = instr.srcs[1] if len(instr.srcs) > 1 else Imm(width)
        if not isinstance(period_operand, Imm):
            raise ExecutionError(f"{opcode} period must be an immediate")
        period = int(period_operand.value)
        if opcode == "vbfly":
            return PermPattern("bfly", period)
        if opcode == "vrev":
            return PermPattern("rev", period)
        if len(instr.srcs) < 3 or not isinstance(instr.srcs[2], Imm):
            raise ExecutionError("vrot expects #period, #amount")
        return PermPattern("rot", period, int(instr.srcs[2].value))

    maps: Dict[int, list] = {}

    def handler(state):
        vregs = state.vregs
        if vregs is None:
            raise _no_accel_error(opcode)
        width = vregs.width
        src = get_src(state, width)
        cached = maps.get(width)
        if cached is None:
            pattern = build_pattern(width)
            if width % pattern.period != 0:
                raise ExecutionError(
                    f"{pattern.name} does not tile hardware width {width}"
                )
            cached = pattern.lane_map(width)
            maps[width] = cached
        vregs.write(dname, [src[i] for i in cached], elem)
    return handler


def _q_vec_reduce(pc: int, instr: Instruction):
    opcode = instr.opcode
    elem = instr.elem
    get_acc = _value_getter(instr.srcs[0])
    get_lanes = _vector_getter(instr.srcs[1])
    lower = vector_ops.reduce_fast_fn(opcode, elem or "i32")
    dname = instr.dst.name

    def handler(state):
        vregs = state.vregs
        if vregs is None:
            raise _no_accel_error(opcode)
        width = vregs.width
        value = lower(get_acc(state), get_lanes(state, width))
        state.regs.write(dname, value)
    return handler


def _quiet_one(pc: int, instr: Instruction, program):
    """Quiet twin of :func:`repro.isa.decoded._decode_one`."""
    opcode = instr.opcode
    spec = OPCODES.get(opcode)
    if spec is None:
        raise ExecutionError(f"unknown opcode {opcode!r} at pc={pc}")
    cls = spec.cls
    if cls is InstrClass.SYS:
        return _q_sys(pc, instr)
    if cls is InstrClass.MOVE:
        return _q_move(pc, instr)
    if cls in (InstrClass.ALU, InstrClass.MUL):
        return _q_int_alu(pc, instr)
    if cls in (InstrClass.FALU, InstrClass.FMUL, InstrClass.FDIV):
        return _q_float_alu(pc, instr)
    if cls is InstrClass.CMP:
        return _q_cmp(pc, instr)
    if cls is InstrClass.LOAD and not spec.is_vector:
        return _q_load(pc, instr)
    if cls is InstrClass.STORE and not spec.is_vector:
        return _q_store(pc, instr)
    if cls is InstrClass.BRANCH:
        return _q_branch(pc, instr, program)
    if cls is InstrClass.CALL:
        return _q_call(pc, instr, program)
    if cls is InstrClass.RET:
        return _q_ret(pc, instr)
    if opcode == "vld":
        return _q_vld(pc, instr)
    if opcode == "vst":
        return _q_vst(pc, instr)
    if opcode in VEC_BINARY_OPS:
        return _q_vec_binary(pc, instr)
    if opcode in VEC_UNARY_OPS:
        return _q_vec_unary(pc, instr)
    if opcode in VEC_PERM_OPS:
        return _q_vec_perm(pc, instr)
    if opcode in VEC_RED_OPS:
        return _q_vec_reduce(pc, instr)
    raise ExecutionError(f"unhandled opcode {opcode!r}")


# ---------------------------------------------------------------------------
# Superblock discovery + fusion
#
# Discovery and codegen live in the shared codegen layer: the lift pass
# (repro.codegen.lift.lift_superblock) scans a straight-line run into a
# BlockSpec, and the "superblock" backend (repro.codegen.superblock)
# emits the fused run closure and the compiled timing specializations.
# This module keeps the per-program tables and the quiet handlers the
# emitted code chains.
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
    """

    __slots__ = ("run", "mem", "timing", "count", "self_loop")

    def __init__(self, run, mem: List[int], timing: BlockTiming,
                 self_loop: bool = False) -> None:
        self.run = run
        self.mem = mem
        self.timing = timing
        self.count = timing.count
        self.self_loop = self_loop


class SuperblockTable:
    """Lazily fuses a :class:`~repro.isa.decoded.DecodedProgram` into
    superblocks, keyed by entry pc.

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
        # Timing-model constants baked into the compiled timing closures
        # (config-derived; a table never outlives its run's pipeline).
        pconfig = pipeline.config
        self._icache_hit = pconfig.icache.hit_latency
        self._dcache_hit = pconfig.dcache.hit_latency
        self._mispredict_penalty = pconfig.mispredict_penalty
        self._call_redirect_penalty = pconfig.call_redirect_penalty
        n = len(self.instructions)
        self._quiet_cache: List[Optional[tuple]] = [None] * n
        self._blocks: Dict[int, FusedBlock] = {}
        #: telemetry counters (docs/observability.md): every ``_build``
        #: bumps ``compiles``; ``lookups`` advances only through
        #: :meth:`block_at_counted`, which callers bind in place of
        #: :meth:`block_at` when telemetry is enabled — the plain hot
        #: path stays untouched when it is not.  Tables are per-run, so
        #: the totals are that run's ``turbo.superblock.*`` /
        #: ``turbo.fragment.*`` counts.
        self.lookups = 0
        self.compiles = 0

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

    def quiet(self, pc: int):
        """(handler, decoded_ok) for one pc, cached.

        Public because the superblock backend's fused-block emitter
        (:func:`repro.codegen.superblock.emit_fused_block`) chains these
        handlers into its generated code.
        """
        cached = self._quiet_cache[pc]
        if cached is None:
            instr = self.instructions[pc]
            try:
                cached = (_quiet_one(pc, instr, self.program), True)
            except Exception as exc:
                cached = (_q_raiser(exc), False)
            self._quiet_cache[pc] = cached
        return cached

    def _build(self, entry: int) -> FusedBlock:
        self.compiles += 1
        backend = get_backend("superblock")
        spec = lift_superblock(self, entry)
        self_loop = False
        if spec.term == 1:
            target, _err = _resolve_target(
                self.program, self.instructions[spec.pcs[-1]].target)
            self_loop = target == entry
        compiled = None
        if not (self_loop and not self.in_vector_unit):
            # The machine charges a main-program self-loop a window of
            # trips at a time (account_loop); its few single-trip
            # charges take account_block's generic row loop, so only
            # other blocks are worth a compiled timing closure.
            compiled = backend.lower_block_timing(
                spec,
                icache_hit=self._icache_hit,
                dcache_hit=self._dcache_hit,
                mispredict_penalty=self._mispredict_penalty,
                call_redirect_penalty=self._call_redirect_penalty)
        timing = BlockTiming(
            spec.rows, spec.blen, spec.simd, self.fetch_mode,
            spec.timing_term, spec.branch_pc, spec.branch_target,
            compiled, spec.label)
        run, mem = backend.lower_block(spec, self)
        return FusedBlock(run, mem, timing, self_loop)


# ---------------------------------------------------------------------------
# Per-run tables
#
# Decode tables, fused blocks, their timing closures and fragment kernels
# all live exactly as long as one Machine.run: the machine builds them
# here on first use and drops them with the rest of its run-local state.
# Nothing is memoized across runs, so a finished run pins none of its
# programs or generated closures.
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
    """(decode table, SuperblockTable, plan) for one microcode fragment.

    *plan* maps region-head pcs to whole-loop kernels
    (:func:`repro.interp.macro.build_fragment_plan`), or is ``None``
    when no region matched.  *state* is the run's state, whose memory
    and symbols the fragment shares.
    """
    table = predecode(fragment)
    blocks = SuperblockTable(table, pipeline, state, None, width, offset,
                             True)
    plan = build_fragment_plan(fragment, blocks, width) or None
    return table, blocks, plan


def fragment_tables_for_entry(entry, pipeline, offset: int,
                              state: MachineState):
    """:func:`fragment_tables_for` for one microcode-cache entry."""
    return fragment_tables_for(entry.fragment, pipeline, entry.width, offset,
                               state)
