"""Pre-decoded fast-path execution tables.

The reference interpreter (:class:`repro.interp.executor.Executor`)
re-derives everything about an instruction on every execution: a
string-keyed ``OPCODES`` lookup, an ``isinstance`` walk over the
operands, condition-code parsing, and per-element Python loops for
vector operations.  That is the single hottest path of every simulation.

This module performs all of that work **once per program** in a decode
pass: :func:`predecode` compiles a :class:`~repro.isa.program.Program`
into a dense table of handler closures (one per instruction) with

* operands resolved to register-bank accessors / constants,
* the opcode resolved to a specialized handler body,
* condition codes pre-bound to their flag predicates,
* branch/call targets resolved to instruction indices,
* vector operations lowered to numpy-backed kernels
  (:mod:`repro.simd.vector_ops` fast lowerings), and
* per-instruction timing metadata (:class:`InstrMeta`) pre-extracted for
  the pipeline model.

The handlers reproduce the reference semantics *bit-identically* —
including the order of error checks, error types, and the full
:class:`~repro.interp.events.RetireEvent` contents — which the
differential conformance suite (``tests/test_engine_differential.py``)
enforces across the whole benchmark suite.  Decode-time failures
(malformed operands, unknown opcodes) are never raised eagerly: they are
deferred into handlers that raise on *execution*, exactly where the
reference engine would, so a program containing an unreachable bad
instruction still runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro import arith
from repro.interp.errors import ExecutionError
from repro.interp.events import RetireEvent
from repro.isa.instructions import Imm, Instruction, Mem, Reg, Sym, VImm
from repro.isa.opcodes import (
    ELEM_SIZES,
    LOAD_ELEM,
    OPCODES,
    STORE_ELEM,
    InstrClass,
)
from repro.isa.registers import (
    LINK_REGISTER,
    is_float_reg,
    is_int_reg,
    is_vector_reg,
)
from repro.memory.alignment import vector_alignment_ok
from repro.simd import vector_ops
from repro.simd.permutations import PermPattern

#: Condition suffix -> flag predicate (shared with the reference engine).
COND_CODES = {
    "eq": lambda f: f["eq"],
    "ne": lambda f: not f["eq"],
    "lt": lambda f: f["lt"],
    "le": lambda f: f["lt"] or f["eq"],
    "gt": lambda f: f["gt"],
    "ge": lambda f: f["gt"] or f["eq"],
}

FLOAT_UNARY_OPS = {"fneg", "fabs"}
FLOAT_BITWISE_OPS = {"fand", "forr"}
VEC_BINARY_OPS = {"vadd", "vsub", "vmul", "vand", "vorr", "veor", "vbic",
                  "vshl", "vshr", "vmin", "vmax", "vqadd", "vqsub", "vmask",
                  "vabd"}
VEC_UNARY_OPS = {"vabs", "vneg"}
VEC_PERM_OPS = {"vbfly", "vrev", "vrot"}
VEC_RED_OPS = {"vredsum", "vredmin", "vredmax"}


def mask_bits(value) -> int:
    """Interpret *value* as a 32-bit mask pattern."""
    if isinstance(value, float):
        return arith.float_bits(value)
    return int(value) & 0xFFFFFFFF


def _w32(value: int) -> int:
    """``arith.wrap_int(value, "i32")`` without the width-table lookup."""
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value >= 0x80000000 else value


#: opcode -> fused i32 semantics, each identical to
#: ``arith.int_op(opcode, a, b, "i32")`` (the differential suite checks
#: this); pre-binding skips the opcode if-chain per executed ALU op.
_INT_ALU_FAST = {
    "add": lambda a, b: _w32(a + b),
    "sub": lambda a, b: _w32(a - b),
    "rsb": lambda a, b: _w32(b - a),
    "mul": lambda a, b: _w32(a * b),
    "and": lambda a, b: _w32(a & b),
    "orr": lambda a, b: _w32(a | b),
    "eor": lambda a, b: _w32(a ^ b),
    "bic": lambda a, b: _w32(a & ~b),
    "lsl": lambda a, b: _w32(a << (b & 31)),
    "lsr": lambda a, b: _w32((a & 0xFFFFFFFF) >> (b & 31)),
    "asr": lambda a, b: _w32(a >> (b & 31)),
    "min": lambda a, b: _w32(min(a, b)),
    "max": lambda a, b: _w32(max(a, b)),
    "qadd": lambda a, b: max(-0x80000000, min(0x7FFFFFFF, a + b)),
    "qsub": lambda a, b: max(-0x80000000, min(0x7FFFFFFF, a - b)),
}

#: Binary float ops pre-resolved to numpy ufuncs over float32 scalars;
#: fmin/fmax keep the ``arith.float_op`` min/max ordering semantics.
_FLOAT_ALU_FAST = {
    "fadd": np.add,
    "fsub": np.subtract,
    "fmul": np.multiply,
    "fdiv": np.divide,
}

#: Pure-Python (binary64) variants, valid only when both operands are
#: exact binary32 values — see the double-rounding note at the use site.
#: ``fdiv`` is excluded: Python raises ZeroDivisionError where float32
#: division yields inf/nan.
_PY_FLOAT_OPS = {
    "fadd": lambda a, b: a + b,
    "fsub": lambda a, b: a - b,
    "fmul": lambda a, b: a * b,
}


# ---------------------------------------------------------------------------
# Timing metadata
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InstrMeta:
    """Static per-instruction facts the pipeline model needs every cycle.

    Everything here is derivable from the instruction alone; the decode
    pass extracts it once so :meth:`PipelineModel.account` does not pay
    for ``OPCODES`` lookups, operand walks, and latency-table hashes per
    retirement.
    """

    cls: InstrClass
    reads: Tuple[str, ...]
    writes: Tuple[str, ...]
    reads_flags: bool
    sets_flags: bool
    is_vector: bool
    is_load: bool
    elem_bytes: int
    latency: int


@lru_cache(maxsize=None)
def meta_of(instr: Instruction) -> InstrMeta:
    """The (memoized) :class:`InstrMeta` for one instruction."""
    # Imported lazily: repro.pipeline.core imports this module, and the
    # lru_cache means the lookup cost is paid once per distinct instruction.
    from repro.pipeline.latencies import RESULT_LATENCY
    spec = OPCODES[instr.opcode]
    return InstrMeta(
        cls=spec.cls,
        reads=instr.reads(),
        writes=instr.writes(),
        reads_flags=spec.reads_flags,
        sets_flags=spec.sets_flags,
        is_vector=spec.is_vector,
        is_load=spec.cls in (InstrClass.LOAD, InstrClass.VLOAD),
        elem_bytes=ELEM_SIZES[instr.elem or "i32"],
        latency=RESULT_LATENCY[spec.cls],
    )


# ---------------------------------------------------------------------------
# Operand resolution
# ---------------------------------------------------------------------------

Handler = Callable[["object"], RetireEvent]


def _value_getter(operand):
    """A closure reading one scalar operand from a machine state."""
    if isinstance(operand, Reg):
        name = operand.name
        if is_vector_reg(name):
            def get_vec_err(state, _name=name):
                raise ExecutionError(
                    f"scalar context cannot read vector register {_name}"
                )
            return get_vec_err
        if is_int_reg(name):
            return lambda state, _n=name: state.regs.ints[_n]
        if is_float_reg(name):
            return lambda state, _n=name: state.regs.floats[_n]
        return lambda state, _n=name: state.regs.read(_n)
    if isinstance(operand, Imm):
        value = operand.value
        return lambda state, _v=value: _v
    if isinstance(operand, Sym):
        name = operand.name
        return lambda state, _n=name: state.symbols.address_of(_n)

    def get_err(state, _op=operand):
        raise ExecutionError(f"cannot evaluate operand {_op!r}")
    return get_err


def _vector_getter(operand):
    """A closure reading one vector operand (signature: state, width)."""
    if isinstance(operand, Reg) and is_vector_reg(operand.name):
        name = operand.name
        return lambda state, width, _n=name: state.vregs.read(_n)
    if isinstance(operand, VImm):
        lanes = list(operand.lanes)
        count = len(lanes)

        def get_vimm(state, width, _lanes=lanes, _count=count):
            if _count != width:
                raise ExecutionError(
                    f"vector immediate has {_count} lanes, "
                    f"hardware width is {width}"
                )
            return list(_lanes)
        return get_vimm
    if isinstance(operand, Imm):
        value = operand.value
        return lambda state, width, _v=value: [_v] * width

    def get_err(state, width, _op=operand):
        raise ExecutionError(f"cannot evaluate vector operand {_op!r}")
    return get_err


def _addr_getter(mem: Mem, elem: str):
    """A closure computing the element-scaled effective address."""
    scale = ELEM_SIZES[elem]
    base = mem.base
    if isinstance(base, Sym):
        bname = base.name
        base_get = lambda state, _n=bname: state.symbols.address_of(_n)
    elif isinstance(base, Reg) and is_int_reg(base.name):
        bname = base.name
        base_get = lambda state, _n=bname: state.regs.ints[_n]
    else:
        bname = base.name
        base_get = lambda state, _n=bname: int(state.regs.read(_n))
    index = mem.index
    if index is None:
        return base_get
    if isinstance(index, Imm):
        offset = int(index.value) * scale
        return lambda state, _o=offset: base_get(state) + _o
    iname = index.name
    if is_int_reg(iname):
        return (lambda state, _n=iname, _s=scale:
                base_get(state) + state.regs.ints[_n] * _s)
    return (lambda state, _n=iname, _s=scale:
            base_get(state) + int(state.regs.read(_n)) * _s)


def _scalar_writer(name: str):
    """A closure writing one scalar register (value already normalized)."""
    if is_int_reg(name):
        def write_int(state, value, _n=name):
            state.regs.ints[_n] = value
        return write_int
    if is_float_reg(name):
        def write_float(state, value, _n=name):
            state.regs.floats[_n] = value
        return write_float

    def write_generic(state, value, _n=name):
        state.regs.write(_n, value)  # raises KeyError, like the reference
    return write_generic


def _raiser(pc: int, instr: Instruction, exc: BaseException) -> Handler:
    """A handler that defers a decode-time failure to execution time."""
    def handler(state):
        raise exc
    return handler


# ---------------------------------------------------------------------------
# Per-class decoders
#
# Every decoder mirrors the corresponding Executor._exec_* method: the
# same checks in the same order, the same error types and messages, the
# same event fields.  Comments call out each intentional deviation.
# ---------------------------------------------------------------------------


def _decode_sys(pc: int, instr: Instruction) -> Handler:
    next_pc = pc + 1
    if instr.opcode == "halt":
        def halt(state):
            state.halted = True
            state.pc = next_pc
            state.instructions_retired += 1
            return RetireEvent(pc=pc, instr=instr, next_pc=next_pc)
        return halt

    def nop(state):
        state.pc = next_pc
        state.instructions_retired += 1
        return RetireEvent(pc=pc, instr=instr, next_pc=next_pc)
    return nop


def _decode_move(pc: int, instr: Instruction) -> Handler:
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
    # A false condition retires quietly even if the operands are
    # malformed, so operand validation is captured, not raised.
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
                value = arith.wrap_int(int(_get(state)))
                _write(state, value)
                return value
        else:
            def body(state, _get=get_src, _write=write):
                value = arith.f32(float(_get(state)))
                _write(state, value)
                return value
    next_pc = pc + 1

    def handler(state):
        if cond_fn is not None and not cond_fn(state.regs.flags):
            value = None
        elif body_error is not None:
            raise body_error
        else:
            value = body(state)
        state.pc = next_pc
        state.instructions_retired += 1
        return RetireEvent(pc=pc, instr=instr, value=value, next_pc=next_pc)
    return handler


def _decode_int_alu(pc: int, instr: Instruction) -> Handler:
    opcode = instr.opcode
    if len(instr.srcs) != 2:
        raise ExecutionError(f"{opcode} expects two sources")
    get_a = _value_getter(instr.srcs[0])
    get_b = _value_getter(instr.srcs[1])
    if instr.dst is None:
        raise ExecutionError(f"{opcode} needs a destination")
    dname = instr.dst.name
    write = _scalar_writer(dname)
    next_pc = pc + 1

    if is_float_reg(dname):
        # Bitwise mask idioms on float data (paper's FFT example).
        if opcode == "and":
            def handler(state):
                a = get_a(state)
                b = get_b(state)
                value = arith.float_bitwise("fand", float(a), mask_bits(b))
                write(state, value)
                state.pc = next_pc
                state.instructions_retired += 1
                return RetireEvent(pc=pc, instr=instr, value=value,
                                   next_pc=next_pc)
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
                state.pc = next_pc
                state.instructions_retired += 1
                return RetireEvent(pc=pc, instr=instr, value=value,
                                   next_pc=next_pc)
            return handler
        raise ExecutionError(
            f"integer op {opcode!r} cannot target float register"
        )

    fast = _INT_ALU_FAST.get(opcode)
    if fast is not None:
        # Specialize the dominant operand shapes to read the integer
        # bank directly: moves/loads/ALU writers keep the bank invariant
        # (always a wrapped Python int), so the int() coercions the
        # generic path performs are identities here.
        a_op, b_op = instr.srcs
        a_name = (a_op.name if isinstance(a_op, Reg)
                  and is_int_reg(a_op.name) else None)
        if a_name is not None and is_int_reg(dname):
            if isinstance(b_op, Reg) and is_int_reg(b_op.name):
                b_name = b_op.name

                def handler(state):
                    ints = state.regs.ints
                    ints[dname] = value = fast(ints[a_name], ints[b_name])
                    state.pc = next_pc
                    state.instructions_retired += 1
                    return RetireEvent(pc=pc, instr=instr, value=value,
                                       next_pc=next_pc)
                return handler
            if isinstance(b_op, Imm):
                b_const = int(b_op.value)

                def handler(state):
                    ints = state.regs.ints
                    ints[dname] = value = fast(ints[a_name], b_const)
                    state.pc = next_pc
                    state.instructions_retired += 1
                    return RetireEvent(pc=pc, instr=instr, value=value,
                                       next_pc=next_pc)
                return handler

        def handler(state):
            value = fast(int(get_a(state)), int(get_b(state)))
            write(state, value)
            state.pc = next_pc
            state.instructions_retired += 1
            return RetireEvent(pc=pc, instr=instr, value=value,
                               next_pc=next_pc)
        return handler

    int_op = arith.int_op

    def handler(state):
        value = int_op(opcode, int(get_a(state)), int(get_b(state)), "i32")
        write(state, value)
        state.pc = next_pc
        state.instructions_retired += 1
        return RetireEvent(pc=pc, instr=instr, value=value, next_pc=next_pc)
    return handler


def _decode_float_alu(pc: int, instr: Instruction) -> Handler:
    opcode = instr.opcode
    if instr.dst is None:
        raise ExecutionError(f"{opcode} needs a destination")
    dname = instr.dst.name
    write = _scalar_writer(dname)
    next_pc = pc + 1
    float_op = arith.float_op
    if not is_float_reg(dname):
        # The reference routes the result through RegisterFile.write,
        # which wraps into an integer register (or raises KeyError).
        def write(state, value, _n=dname):  # noqa: F811 - intentional
            state.regs.write(_n, value)

    if opcode in FLOAT_UNARY_OPS:
        if len(instr.srcs) != 1:
            raise ExecutionError(f"{opcode} expects one source")
        get_a = _value_getter(instr.srcs[0])

        def handler(state):
            value = float_op(opcode, float(get_a(state)))
            write(state, value)
            state.pc = next_pc
            state.instructions_retired += 1
            return RetireEvent(pc=pc, instr=instr, value=value,
                               next_pc=next_pc)
        return handler

    if opcode in FLOAT_BITWISE_OPS:
        get_a = _value_getter(instr.srcs[0]) if instr.srcs else None
        get_b = _value_getter(instr.srcs[1]) if len(instr.srcs) > 1 else None
        if get_a is None or get_b is None:
            # Mirror the reference IndexError on missing sources.
            bad = IndexError("tuple index out of range")

            def handler(state):
                raise bad
            return handler
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
            state.pc = next_pc
            state.instructions_retired += 1
            return RetireEvent(pc=pc, instr=instr, value=value,
                               next_pc=next_pc)
        return handler

    if len(instr.srcs) != 2:
        raise ExecutionError(f"{opcode} expects two sources")
    get_a = _value_getter(instr.srcs[0])
    get_b = _value_getter(instr.srcs[1])

    np_op = _FLOAT_ALU_FAST.get(opcode)
    if np_op is not None:
        f32t = np.float32
        py_op = _PY_FLOAT_OPS.get(opcode)
        a_src, b_src = instr.srcs
        a_name = (a_src.name if isinstance(a_src, Reg)
                  and is_float_reg(a_src.name) else None)
        if py_op is not None and a_name is not None and is_float_reg(dname):
            # Float registers invariantly hold exact binary32 values
            # (every write path rounds), and for binary32 operands a
            # binary64 +/-/* followed by one rounding to binary32 is
            # correctly rounded (2p+2 <= 53), so this equals the
            # reference's float32-arithmetic result bit for bit.
            b_name = (b_src.name if isinstance(b_src, Reg)
                      and is_float_reg(b_src.name) else None)
            if b_name is not None:
                def handler(state):
                    floats = state.regs.floats
                    floats[dname] = value = float(
                        f32t(py_op(floats[a_name], floats[b_name])))
                    state.pc = next_pc
                    state.instructions_retired += 1
                    return RetireEvent(pc=pc, instr=instr, value=value,
                                       next_pc=next_pc)
                return handler
            if isinstance(b_src, Imm):
                # Pre-round the immediate: the reference rounds operands
                # through float32 before operating.
                b_const = float(f32t(float(b_src.value)))

                def handler(state):
                    floats = state.regs.floats
                    floats[dname] = value = float(
                        f32t(py_op(floats[a_name], b_const)))
                    state.pc = next_pc
                    state.instructions_retired += 1
                    return RetireEvent(pc=pc, instr=instr, value=value,
                                       next_pc=next_pc)
                return handler

        # float(np_op(f32(a), f32(b))) == float_op(opcode, a, b): both
        # round operands and result through binary32.
        def handler(state):
            value = float(np_op(f32t(get_a(state)), f32t(get_b(state))))
            write(state, value)
            state.pc = next_pc
            state.instructions_retired += 1
            return RetireEvent(pc=pc, instr=instr, value=value,
                               next_pc=next_pc)
        return handler

    def handler(state):
        value = float_op(opcode, float(get_a(state)), float(get_b(state)))
        write(state, value)
        state.pc = next_pc
        state.instructions_retired += 1
        return RetireEvent(pc=pc, instr=instr, value=value, next_pc=next_pc)
    return handler


def _decode_cmp(pc: int, instr: Instruction) -> Handler:
    if len(instr.srcs) != 2:
        raise ExecutionError(f"{instr.opcode} expects two operands")
    a_src, b_src = instr.srcs
    next_pc = pc + 1

    a_name = (a_src.name if isinstance(a_src, Reg)
              and is_int_reg(a_src.name) else None)
    if a_name is not None and isinstance(b_src, Imm):
        # Dominant shape (loop bounds checks): int reg vs. immediate,
        # with set_flags inlined into the flag dict.
        b_const = b_src.value

        def handler(state):
            regs = state.regs
            a = regs.ints[a_name]
            flags = regs.flags
            flags["lt"] = a < b_const
            flags["eq"] = a == b_const
            flags["gt"] = a > b_const
            state.pc = next_pc
            state.instructions_retired += 1
            return RetireEvent(pc=pc, instr=instr, next_pc=next_pc)
        return handler
    if a_name is not None and isinstance(b_src, Reg) \
            and is_int_reg(b_src.name):
        b_name = b_src.name

        def handler(state):
            regs = state.regs
            ints = regs.ints
            a = ints[a_name]
            b = ints[b_name]
            flags = regs.flags
            flags["lt"] = a < b
            flags["eq"] = a == b
            flags["gt"] = a > b
            state.pc = next_pc
            state.instructions_retired += 1
            return RetireEvent(pc=pc, instr=instr, next_pc=next_pc)
        return handler

    get_a = _value_getter(a_src)
    get_b = _value_getter(b_src)

    def handler(state):
        state.regs.set_flags(get_a(state), get_b(state))
        state.pc = next_pc
        state.instructions_retired += 1
        return RetireEvent(pc=pc, instr=instr, next_pc=next_pc)
    return handler


def _decode_load(pc: int, instr: Instruction) -> Handler:
    elem, signed = LOAD_ELEM[instr.opcode]
    get_addr = _addr_getter(instr.mem, elem)
    dname = instr.dst.name
    bad_float_dst = is_float_reg(dname) and elem != "f32"
    is_f32 = elem == "f32"
    if is_f32 and not is_float_reg(dname):
        # ldf into an integer register truncates through RegisterFile.write.
        def write(state, value, _n=dname):
            state.regs.write(_n, value)
    else:
        write = _scalar_writer(dname)
    next_pc = pc + 1

    def handler(state):
        addr = get_addr(state)
        value = state.memory.load(addr, elem, signed=signed)
        if is_f32:
            value = arith.f32(value)
        if bad_float_dst:
            # Integer loads into float registers move raw bit patterns
            # (mask arrays are loaded into integer registers in practice).
            raise ExecutionError("integer load cannot target a float register")
        write(state, value)
        state.pc = next_pc
        state.instructions_retired += 1
        return RetireEvent(pc=pc, instr=instr, value=value, mem_addr=addr,
                           next_pc=next_pc)
    return handler


def _decode_store(pc: int, instr: Instruction) -> Handler:
    elem = STORE_ELEM[instr.opcode]
    get_addr = _addr_getter(instr.mem, elem)
    get_src = _value_getter(instr.srcs[0])
    next_pc = pc + 1

    def handler(state):
        addr = get_addr(state)
        value = get_src(state)
        state.memory.store(addr, elem, value)
        state.pc = next_pc
        state.instructions_retired += 1
        return RetireEvent(pc=pc, instr=instr, value=value, mem_addr=addr,
                           next_pc=next_pc)
    return handler


def _resolve_target(program, target):
    """(index, error): a branch target, resolved but never raised eagerly."""
    try:
        return program.label_index(target), None
    except Exception as exc:  # mirror the reference's lazy KeyError
        return None, exc


def _decode_branch(pc: int, instr: Instruction, program) -> Handler:
    opcode = instr.opcode
    target_index, target_error = _resolve_target(program, instr.target)
    fall_through = pc + 1
    if opcode == "b":
        def handler(state):
            if target_error is not None:
                raise target_error
            state.pc = target_index
            state.instructions_retired += 1
            return RetireEvent(pc=pc, instr=instr, taken=True,
                               next_pc=target_index)
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
            next_pc = target_index
        else:
            next_pc = fall_through
        state.pc = next_pc
        state.instructions_retired += 1
        return RetireEvent(pc=pc, instr=instr, taken=taken, next_pc=next_pc)
    return handler


def _decode_call(pc: int, instr: Instruction, program) -> Handler:
    target_index, target_error = _resolve_target(program, instr.target)
    return_addr = pc + 1

    def handler(state):
        # The reference writes the link register before resolving the
        # target, so the side effect survives a bad-target failure.
        state.regs.ints[LINK_REGISTER] = return_addr
        if target_error is not None:
            raise target_error
        state.pc = target_index
        state.instructions_retired += 1
        return RetireEvent(pc=pc, instr=instr, taken=True,
                           next_pc=target_index)
    return handler


def _decode_ret(pc: int, instr: Instruction) -> Handler:
    def handler(state):
        next_pc = int(state.regs.ints[LINK_REGISTER])
        state.pc = next_pc
        state.instructions_retired += 1
        return RetireEvent(pc=pc, instr=instr, taken=True, next_pc=next_pc)
    return handler


# -- vector handlers ---------------------------------------------------------


def _no_accel_error(opcode: str) -> ExecutionError:
    return ExecutionError(
        f"vector instruction {opcode} on a machine without a "
        "SIMD accelerator"
    )


def _decode_vld(pc: int, instr: Instruction) -> Handler:
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
    next_pc = pc + 1

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
        # Memory yields exact binary32 values, so the reference's
        # per-lane f32 re-rounding is the identity and is skipped.
        lanes = state.memory.load_vector(addr, elem, width)
        vregs.write(dname, lanes, elem)
        state.pc = next_pc
        state.instructions_retired += 1
        return RetireEvent(pc=pc, instr=instr, mem_addr=addr, next_pc=next_pc,
                           vector_width=width)
    return handler


def _decode_vst(pc: int, instr: Instruction) -> Handler:
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
    next_pc = pc + 1

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
        lanes = get_src(state, width)
        state.memory.store_vector(addr, elem, lanes)
        state.pc = next_pc
        state.instructions_retired += 1
        return RetireEvent(pc=pc, instr=instr, mem_addr=addr, next_pc=next_pc,
                           vector_width=width)
    return handler


def _decode_vec_binary(pc: int, instr: Instruction) -> Handler:
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
    next_pc = pc + 1

    def handler(state):
        vregs = state.vregs
        if vregs is None:
            raise _no_accel_error(opcode)
        width = vregs.width
        a = get_a(state, width)
        b = b_const if get_b is None else get_b(state, width)
        lanes = lower(a, b)
        vregs.write(dname, lanes, elem)
        state.pc = next_pc
        state.instructions_retired += 1
        return RetireEvent(pc=pc, instr=instr, next_pc=next_pc,
                           vector_width=width)
    return handler


def _decode_vec_unary(pc: int, instr: Instruction) -> Handler:
    opcode = instr.opcode
    elem = instr.elem
    get_a = _vector_getter(instr.srcs[0])
    lower = vector_ops.unary_fast_fn(opcode, elem or "i32")
    dname = instr.dst.name
    next_pc = pc + 1

    def handler(state):
        vregs = state.vregs
        if vregs is None:
            raise _no_accel_error(opcode)
        width = vregs.width
        lanes = lower(get_a(state, width))
        vregs.write(dname, lanes, elem)
        state.pc = next_pc
        state.instructions_retired += 1
        return RetireEvent(pc=pc, instr=instr, next_pc=next_pc,
                           vector_width=width)
    return handler


def _decode_vec_perm(pc: int, instr: Instruction) -> Handler:
    opcode = instr.opcode
    elem = instr.elem
    get_src = _vector_getter(instr.srcs[0])
    dname = instr.dst.name
    next_pc = pc + 1

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

    # The gather map depends only on (pattern, width); memoize it per
    # hardware width so steady-state permutes are a single list gather.
    maps = {}

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
        lanes = [src[i] for i in cached]
        vregs.write(dname, lanes, elem)
        state.pc = next_pc
        state.instructions_retired += 1
        return RetireEvent(pc=pc, instr=instr, next_pc=next_pc,
                           vector_width=width)
    return handler


def _decode_vec_reduce(pc: int, instr: Instruction) -> Handler:
    opcode = instr.opcode
    elem = instr.elem
    get_acc = _value_getter(instr.srcs[0])
    get_lanes = _vector_getter(instr.srcs[1])
    lower = vector_ops.reduce_fast_fn(opcode, elem or "i32")
    dname = instr.dst.name
    next_pc = pc + 1

    def handler(state):
        vregs = state.vregs
        if vregs is None:
            raise _no_accel_error(opcode)
        width = vregs.width
        value = lower(get_acc(state), get_lanes(state, width))
        # Reductions retire once per loop iteration; route through
        # RegisterFile.write for its type coercion rather than pre-binding.
        state.regs.write(dname, value)
        state.pc = next_pc
        state.instructions_retired += 1
        return RetireEvent(pc=pc, instr=instr, value=value, next_pc=next_pc,
                           vector_width=width)
    return handler


# ---------------------------------------------------------------------------
# The decode pass
# ---------------------------------------------------------------------------


def _decode_one(pc: int, instr: Instruction, program) -> Handler:
    opcode = instr.opcode
    spec = OPCODES.get(opcode)
    if spec is None:
        raise ExecutionError(f"unknown opcode {opcode!r} at pc={pc}")
    cls = spec.cls
    if cls is InstrClass.SYS:
        return _decode_sys(pc, instr)
    if cls is InstrClass.MOVE:
        return _decode_move(pc, instr)
    if cls in (InstrClass.ALU, InstrClass.MUL):
        return _decode_int_alu(pc, instr)
    if cls in (InstrClass.FALU, InstrClass.FMUL, InstrClass.FDIV):
        return _decode_float_alu(pc, instr)
    if cls is InstrClass.CMP:
        return _decode_cmp(pc, instr)
    if cls is InstrClass.LOAD and not spec.is_vector:
        return _decode_load(pc, instr)
    if cls is InstrClass.STORE and not spec.is_vector:
        return _decode_store(pc, instr)
    if cls is InstrClass.BRANCH:
        return _decode_branch(pc, instr, program)
    if cls is InstrClass.CALL:
        return _decode_call(pc, instr, program)
    if cls is InstrClass.RET:
        return _decode_ret(pc, instr)
    if opcode == "vld":
        return _decode_vld(pc, instr)
    if opcode == "vst":
        return _decode_vst(pc, instr)
    if opcode in VEC_BINARY_OPS:
        return _decode_vec_binary(pc, instr)
    if opcode in VEC_UNARY_OPS:
        return _decode_vec_unary(pc, instr)
    if opcode in VEC_PERM_OPS:
        return _decode_vec_perm(pc, instr)
    if opcode in VEC_RED_OPS:
        return _decode_vec_reduce(pc, instr)
    raise ExecutionError(f"unhandled opcode {opcode!r}")


class DecodedProgram:
    """A program compiled to dense handler and timing-metadata tables."""

    __slots__ = ("program", "handlers", "metas", "__weakref__")

    def __init__(self, program, handlers: List[Handler],
                 metas: List[Optional[InstrMeta]]) -> None:
        self.program = program
        self.handlers = handlers
        self.metas = metas

    def __len__(self) -> int:
        return len(self.handlers)


def predecode(program) -> DecodedProgram:
    """Compile *program* into a :class:`DecodedProgram`.

    Never raises for a bad instruction: decode-time failures become
    handlers that raise the captured error when (and only when) the
    instruction is actually executed, matching the reference engine.
    """
    handlers: List[Handler] = []
    metas: List[Optional[InstrMeta]] = []
    for pc, instr in enumerate(program.instructions):
        try:
            handler = _decode_one(pc, instr, program)
        except Exception as exc:
            handler = _raiser(pc, instr, exc)
        handlers.append(handler)
        try:
            metas.append(meta_of(instr))
        except KeyError:
            metas.append(None)  # unknown opcode: its handler raises anyway
    return DecodedProgram(program, handlers, metas)
