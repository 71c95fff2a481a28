"""The decode pass: per-pc timing metadata, and the tables the emitters share.

There is one implementation of per-instruction semantics, the reference
interpreter (:class:`repro.interp.executor.Executor`).  What this module
computes **once per program** is the static side of every instruction:
:func:`predecode` builds a dense per-pc table of :class:`InstrMeta` —
the instruction class, the registers read and written, flag use, and
result latency — which :meth:`~repro.pipeline.core.PipelineModel.account`
reads per retirement and :func:`~repro.codegen.lift.lift_superblock`
reads per lifted block, so neither pays for ``OPCODES`` lookups or
operand walks on the hot path.

It also holds the few facts the code emitters share: the vector opcode
families (the reference executor dispatches on them too), the fused
i32 integer-ALU semantics (:data:`_INT_ALU_FAST`, each identical to
``arith.int_op(opcode, a, b, "i32")``) and lazy branch-target
resolution (:func:`_resolve_target`).  Nothing here
raises for a bad instruction: an unknown opcode gets no metadata, and
its error fires only if the instruction executes, exactly where the
reference engine raises it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.isa.instructions import Instruction
from repro.isa.opcodes import ELEM_SIZES, OPCODES, InstrClass

VEC_BINARY_OPS = {"vadd", "vsub", "vmul", "vand", "vorr", "veor", "vbic",
                  "vshl", "vshr", "vmin", "vmax", "vqadd", "vqsub", "vmask",
                  "vabd"}
VEC_UNARY_OPS = {"vabs", "vneg"}
VEC_PERM_OPS = {"vbfly", "vrev", "vrot"}
VEC_RED_OPS = {"vredsum", "vredmin", "vredmax"}


def _w32(value: int) -> int:
    """``arith.wrap_int(value, "i32")`` without the width-table lookup."""
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value >= 0x80000000 else value


#: opcode -> fused i32 semantics, each identical to
#: ``arith.int_op(opcode, a, b, "i32")`` (the differential suite checks
#: this); a window closure binds one to skip the opcode if-chain per ALU
#: op.
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


def _resolve_target(program, target):
    """(index, error): a branch target, resolved but never raised eagerly."""
    try:
        return program.label_index(target), None
    except Exception as exc:  # mirror the reference's lazy KeyError
        return None, exc


class DecodedProgram:
    """A program's dense per-pc :class:`InstrMeta` table.

    ``metas[pc]`` is None for an instruction with an unknown opcode: it
    has no timing, and executing it raises the reference error.
    """

    __slots__ = ("program", "metas", "__weakref__")

    def __init__(self, program, metas: List[Optional[InstrMeta]]) -> None:
        self.program = program
        self.metas = metas

    def __len__(self) -> int:
        return len(self.metas)


def predecode(program) -> DecodedProgram:
    """Build *program*'s :class:`DecodedProgram`; never raises for a bad
    instruction."""
    metas: List[Optional[InstrMeta]] = []
    for instr in program.instructions:
        try:
            metas.append(meta_of(instr))
        except KeyError:
            metas.append(None)  # unknown opcode: executing it raises
    return DecodedProgram(program, metas)
