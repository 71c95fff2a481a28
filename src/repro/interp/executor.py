"""The instruction executor: functional semantics for both ISAs.

The executor advances :class:`~repro.interp.state.MachineState` one
instruction at a time and emits a
:class:`~repro.interp.events.RetireEvent` per instruction.  It contains
no timing — the pipeline model and the dynamic translator both consume
the retire-event stream.  It is the simulator's only per-instruction
interpreter: both engines' per-instruction steps, the shapes a fused
block does not inline, and translation-verification replays all run
through it.

Call semantics follow ARM: ``bl``/``blo`` write the return address into
the link register and ``ret`` jumps back through it.  There is no
hardware call stack; outlined Liquid SIMD functions are leaf functions,
so single-depth linkage is sufficient (and is what the paper assumes —
a nested call inside an outlined region aborts translation).
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro import arith
from repro.interp.events import RetireEvent
from repro.interp.state import MachineState
from repro.isa.decoded import VEC_BINARY_OPS, VEC_PERM_OPS, VEC_RED_OPS, VEC_UNARY_OPS
from repro.isa.instructions import Imm, Instruction, Mem, Reg, Sym, VImm
from repro.isa.opcodes import ELEM_SIZES, LOAD_ELEM, OPCODES, STORE_ELEM, InstrClass
from repro.isa.registers import LINK_REGISTER, is_float_reg, is_int_reg, is_vector_reg
from repro.memory.alignment import vector_alignment_ok
from repro.simd.permutations import PermPattern
from repro.simd.vector_ops import vector_binary, vector_reduce, vector_unary

__all__ = ["ExecutionError", "Executor", "ENGINES"]

Number = Union[int, float]


class ExecutionError(Exception):
    """Semantic error during execution (bad operands, misalignment, ...)."""


_COND = {
    "eq": lambda f: f["eq"],
    "ne": lambda f: not f["eq"],
    "lt": lambda f: f["lt"],
    "le": lambda f: f["lt"] or f["eq"],
    "gt": lambda f: f["gt"],
    "ge": lambda f: f["gt"] or f["eq"],
}

_FLOAT_UNARY = {"fneg", "fabs"}
_FLOAT_BITWISE = {"fand", "forr"}


class Executor:
    """Executes instructions against a :class:`MachineState`.

    The one implementation of per-instruction semantics: it re-derives
    opcode metadata and operand kinds on every step, which keeps the
    semantics maximally explicit.  Both engines run every retirement an
    observer needs an event for through it; the ``fast`` engine's fused
    blocks and fragment kernels are validated bit-for-bit against it —
    see ``docs/execution-engines.md``.
    """

    def __init__(self, state: MachineState) -> None:
        self.state = state

    # -- operand helpers ------------------------------------------------------

    def _value(self, operand) -> Number:
        state = self.state
        if isinstance(operand, Reg):
            if is_vector_reg(operand.name):
                raise ExecutionError(
                    f"scalar context cannot read vector register {operand.name}"
                )
            return state.regs.read(operand.name)
        if isinstance(operand, Imm):
            return operand.value
        if isinstance(operand, Sym):
            return state.symbols.address_of(operand.name)
        raise ExecutionError(f"cannot evaluate operand {operand!r}")

    def _vector(self, operand, width: int) -> List[Number]:
        state = self.state
        if isinstance(operand, Reg) and is_vector_reg(operand.name):
            return state.vregs.read(operand.name)
        if isinstance(operand, VImm):
            if len(operand.lanes) != width:
                raise ExecutionError(
                    f"vector immediate has {len(operand.lanes)} lanes, "
                    f"hardware width is {width}"
                )
            return list(operand.lanes)
        if isinstance(operand, (Imm,)):
            return [operand.value] * width
        raise ExecutionError(f"cannot evaluate vector operand {operand!r}")

    def effective_addr(self, mem: Mem, elem: str) -> int:
        """Element-scaled ``base + index * sizeof(elem)``."""
        state = self.state
        if isinstance(mem.base, Sym):
            base = state.symbols.address_of(mem.base.name)
        else:
            base = int(state.regs.read(mem.base.name))
        if mem.index is None:
            index = 0
        elif isinstance(mem.index, Imm):
            index = int(mem.index.value)
        else:
            index = int(state.regs.read(mem.index.name))
        return base + index * ELEM_SIZES[elem]

    # -- main entry ------------------------------------------------------------

    def execute(self, instr: Instruction) -> RetireEvent:
        """Execute one instruction at the current PC and return its event."""
        state = self.state
        pc = state.pc
        opcode = instr.opcode
        spec = OPCODES.get(opcode)
        if spec is None:
            raise ExecutionError(f"unknown opcode {opcode!r} at pc={pc}")
        cls = spec.cls

        value: Optional[Number] = None
        mem_addr: Optional[int] = None
        taken = False
        next_pc = pc + 1

        if cls is InstrClass.SYS:
            if opcode == "halt":
                state.halted = True
        elif cls is InstrClass.MOVE:
            value = self._exec_move(instr)
        elif cls in (InstrClass.ALU, InstrClass.MUL):
            value = self._exec_int_alu(instr)
        elif cls in (InstrClass.FALU, InstrClass.FMUL, InstrClass.FDIV):
            value = self._exec_float_alu(instr)
        elif cls is InstrClass.CMP:
            self._exec_cmp(instr)
        elif cls is InstrClass.LOAD and not spec.is_vector:
            value, mem_addr = self._exec_load(instr)
        elif cls is InstrClass.STORE and not spec.is_vector:
            value, mem_addr = self._exec_store(instr)
        elif cls is InstrClass.BRANCH:
            taken, next_pc = self._exec_branch(instr, pc)
        elif cls is InstrClass.CALL:
            state.regs.write(LINK_REGISTER, pc + 1)
            next_pc = state.program.label_index(instr.target)
            taken = True
        elif cls is InstrClass.RET:
            next_pc = int(state.regs.read(LINK_REGISTER))
            taken = True
        elif spec.is_vector:
            value, mem_addr = self._exec_vector(instr)
        else:  # pragma: no cover - table is exhaustive
            raise ExecutionError(f"unhandled opcode {opcode!r}")

        state.pc = next_pc
        state.instructions_retired += 1
        width = state.vregs.width if (spec.is_vector and state.vregs) else None
        return RetireEvent(pc=pc, instr=instr, value=value, mem_addr=mem_addr,
                           taken=taken, next_pc=next_pc, vector_width=width)

    # -- scalar semantics ----------------------------------------------------------

    def _exec_move(self, instr: Instruction) -> Optional[Number]:
        state = self.state
        opcode = instr.opcode
        base = "fmov" if opcode.startswith("fmov") else "mov"
        cond = opcode[len(base):]
        if cond:
            cond_fn = _COND.get(cond)
            if cond_fn is None:
                raise ExecutionError(
                    f"unknown condition suffix {cond!r} in opcode {opcode!r}"
                )
            if not cond_fn(state.regs.flags):
                return None
        if len(instr.srcs) != 1:
            raise ExecutionError(f"{opcode} expects one source")
        src = self._value(instr.srcs[0])
        dst = instr.dst
        if dst is None:
            raise ExecutionError(f"{opcode} needs a destination")
        if is_int_reg(dst.name):
            value = arith.wrap_int(int(src))
        else:
            value = arith.f32(float(src))
        state.regs.write(dst.name, value)
        return value

    def _exec_int_alu(self, instr: Instruction) -> Number:
        state = self.state
        if len(instr.srcs) != 2:
            raise ExecutionError(f"{instr.opcode} expects two sources")
        a = self._value(instr.srcs[0])
        b = self._value(instr.srcs[1])
        dst = instr.dst
        if dst is None:
            raise ExecutionError(f"{instr.opcode} needs a destination")
        if is_float_reg(dst.name):
            # Bitwise mask idioms on float data (paper's FFT example).
            if instr.opcode == "and":
                value = arith.float_bitwise("fand", float(a), _mask_bits(b))
            elif instr.opcode == "orr":
                if isinstance(b, float):
                    value = arith.float_or_floats(float(a), b)
                else:
                    value = arith.float_bitwise("forr", float(a), _mask_bits(b))
            else:
                raise ExecutionError(
                    f"integer op {instr.opcode!r} cannot target float register"
                )
        else:
            value = arith.int_op(instr.opcode, int(a), int(b), "i32")
        state.regs.write(dst.name, value)
        return value

    def _exec_float_alu(self, instr: Instruction) -> Number:
        state = self.state
        opcode = instr.opcode
        dst = instr.dst
        if dst is None:
            raise ExecutionError(f"{opcode} needs a destination")
        if opcode in _FLOAT_UNARY:
            if len(instr.srcs) != 1:
                raise ExecutionError(f"{opcode} expects one source")
            value = arith.float_op(opcode, float(self._value(instr.srcs[0])))
        elif opcode in _FLOAT_BITWISE:
            a = float(self._value(instr.srcs[0]))
            b = self._value(instr.srcs[1])
            op = "fand" if opcode == "fand" else "forr"
            if isinstance(b, float):
                value = (arith.float_and_floats(a, b) if op == "fand"
                         else arith.float_or_floats(a, b))
            else:
                value = arith.float_bitwise(op, a, int(b))
        else:
            if len(instr.srcs) != 2:
                raise ExecutionError(f"{opcode} expects two sources")
            a = float(self._value(instr.srcs[0]))
            b = float(self._value(instr.srcs[1]))
            value = arith.float_op(opcode, a, b)
        state.regs.write(dst.name, value)
        return value

    def _exec_cmp(self, instr: Instruction) -> None:
        if len(instr.srcs) != 2:
            raise ExecutionError(f"{instr.opcode} expects two operands")
        a = self._value(instr.srcs[0])
        b = self._value(instr.srcs[1])
        self.state.regs.set_flags(a, b)

    def _exec_load(self, instr: Instruction) -> Tuple[Number, int]:
        elem, signed = LOAD_ELEM[instr.opcode]
        addr = self.effective_addr(instr.mem, elem)
        value = self.state.memory.load(addr, elem, signed=signed)
        if elem == "f32":
            value = arith.f32(value)
        dst = instr.dst
        if is_float_reg(dst.name) and elem != "f32":
            # Integer loads into float registers move raw bit patterns
            # (mask arrays are loaded into integer registers in practice).
            raise ExecutionError("integer load cannot target a float register")
        self.state.regs.write(dst.name, value)
        return value, addr

    def _exec_store(self, instr: Instruction) -> Tuple[Number, int]:
        elem = STORE_ELEM[instr.opcode]
        addr = self.effective_addr(instr.mem, elem)
        value = self._value(instr.srcs[0])
        self.state.memory.store(addr, elem, value)
        return value, addr

    def _exec_branch(self, instr: Instruction, pc: int) -> Tuple[bool, int]:
        opcode = instr.opcode
        if opcode == "b":
            taken = True
        else:
            cond_fn = _COND.get(opcode[1:])
            if cond_fn is None:
                raise ExecutionError(
                    f"unknown branch condition {opcode[1:]!r} "
                    f"in opcode {opcode!r}"
                )
            taken = cond_fn(self.state.regs.flags)
        next_pc = self.state.program.label_index(instr.target) if taken else pc + 1
        return taken, next_pc

    # -- vector semantics --------------------------------------------------------------

    def _exec_vector(self, instr: Instruction) -> Tuple[Optional[Number], Optional[int]]:
        state = self.state
        if state.vregs is None:
            raise ExecutionError(
                f"vector instruction {instr.opcode} on a machine without a "
                "SIMD accelerator"
            )
        width = state.vregs.width
        opcode = instr.opcode
        elem = instr.elem
        if opcode == "vld":
            if elem is None:
                raise ExecutionError("vld requires an element type suffix")
            addr = self.effective_addr(instr.mem, elem)
            self._check_alignment(addr, elem, width)
            lanes = state.memory.load_vector(addr, elem, width)
            if elem == "f32":
                lanes = [arith.f32(v) for v in lanes]
            state.vregs.write(instr.dst.name, lanes, elem)
            return None, addr
        if opcode == "vst":
            if elem is None:
                raise ExecutionError("vst requires an element type suffix")
            addr = self.effective_addr(instr.mem, elem)
            self._check_alignment(addr, elem, width)
            lanes = self._vector(instr.srcs[0], width)
            state.memory.store_vector(addr, elem, lanes)
            return None, addr
        if opcode in VEC_BINARY_OPS:
            a = self._vector(instr.srcs[0], width)
            b_operand = instr.srcs[1]
            if isinstance(b_operand, Imm):
                b: object = b_operand.value
            else:
                b = self._vector(b_operand, width)
            lanes = vector_binary(opcode, a, b, elem or "i32")
            state.vregs.write(instr.dst.name, lanes, elem)
            return None, None
        if opcode in VEC_UNARY_OPS:
            a = self._vector(instr.srcs[0], width)
            lanes = vector_unary(opcode, a, elem or "i32")
            state.vregs.write(instr.dst.name, lanes, elem)
            return None, None
        if opcode in VEC_PERM_OPS:
            return self._exec_perm(instr, width)
        if opcode in VEC_RED_OPS:
            acc = self._value(instr.srcs[0])
            lanes = self._vector(instr.srcs[1], width)
            value = vector_reduce(opcode, acc, lanes, elem or "i32")
            state.regs.write(instr.dst.name, value)
            return value, None
        raise ExecutionError(f"unhandled vector opcode {opcode!r}")

    def _exec_perm(self, instr: Instruction, width: int):
        state = self.state
        opcode = instr.opcode
        src = self._vector(instr.srcs[0], width)
        period_operand = instr.srcs[1] if len(instr.srcs) > 1 else Imm(width)
        if not isinstance(period_operand, Imm):
            raise ExecutionError(f"{opcode} period must be an immediate")
        period = int(period_operand.value)
        if opcode == "vbfly":
            pattern = PermPattern("bfly", period)
        elif opcode == "vrev":
            pattern = PermPattern("rev", period)
        else:
            if len(instr.srcs) < 3 or not isinstance(instr.srcs[2], Imm):
                raise ExecutionError("vrot expects #period, #amount")
            pattern = PermPattern("rot", period, int(instr.srcs[2].value))
        if width % pattern.period != 0:
            raise ExecutionError(
                f"{pattern.name} does not tile hardware width {width}"
            )
        lanes = pattern.apply(src)
        state.vregs.write(instr.dst.name, lanes, instr.elem)
        return None, None

    def _check_alignment(self, addr: int, elem: str, width: int) -> None:
        if not vector_alignment_ok(addr, ELEM_SIZES[elem], width):
            raise ExecutionError(
                f"unaligned vector access at {addr:#x} "
                f"(width {width}, elem {elem})"
            )


def _mask_bits(value: Number) -> int:
    """Interpret *value* as a 32-bit mask pattern."""
    if isinstance(value, float):
        return arith.float_bits(value)
    return int(value) & 0xFFFFFFFF


#: Selectable execution engines (``MachineConfig.engine``): "fast"
#: (superblock fusion and fragment kernels in the machine loop, with
#: this executor wherever an observer needs events — the production
#: default) and "reference" (this executor for every step, the oracle
#: the differential suite checks against).
ENGINES = ("fast", "reference")

