"""Program builders: baseline, native-SIMD, and Liquid SIMD binaries.

From one :class:`~repro.core.scalarize.loop_ir.Kernel` three binaries
are generated, mirroring the paper's evaluation setup:

* :func:`build_baseline_program` — the scalar representation *inlined*
  (no outlining): the paper's speedup baseline ("without a SIMD
  accelerator and without outlining hot loops"; the paper notes
  outlining would add <1% to this baseline, which experiment E6
  measures).
* :func:`build_native_program` — width-specific SIMD instructions
  compiled directly into the binary: the "built-in ISA support" upper
  bound of Figure 6's callout.
* :func:`build_liquid_program` — the Liquid SIMD binary: scalarized hot
  loops outlined behind ``blo`` (or plain ``bl``) calls, runnable on any
  scalar machine and dynamically translatable on any accelerator width.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.scalarize.loop_ir import (
    Kernel,
    ScalarBlock,
    SimdLoop,
    vimm_lanes_for_width,
)
from repro.core.scalarize.scalarizer import ScalarizedLoop, scalarize_loop
from repro.isa.instructions import Imm, Instruction, Mem, Reg, Sym, VImm
from repro.isa.program import DataArray, Program
from repro.isa.registers import reg_index
from repro.memory.alignment import is_power_of_two

#: Default maximum vectorizable length binaries are compiled for
#: (the paper's evaluation uses 16).
DEFAULT_MVL = 16


def check_width(width) -> int:
    """*width* if the suite's binaries run at it, else ``ValueError``.

    The accelerator takes power-of-two widths of at least 2, and a
    binary built for :data:`DEFAULT_MVL` aligns its arrays for vectors
    of up to that many elements (``system/loader.py``): a wider
    accelerator faults on its first unaligned vector access.
    """
    if not isinstance(width, int) or isinstance(width, bool) \
            or not 2 <= width <= DEFAULT_MVL or not is_power_of_two(width):
        raise ValueError(f"width must be a power of two in "
                         f"[2, {DEFAULT_MVL}], got {width!r}")
    return width


def _add_arrays(program: Program, arrays) -> None:
    for arr in arrays:
        if arr.name not in program.data:
            program.add_array(
                DataArray(arr.name, arr.elem, list(arr.values),
                          read_only=arr.read_only)
            )


def _splice_scalar_block(program: Program, block: ScalarBlock,
                         instance: str) -> None:
    """Inline a scalar block, mangling its local labels."""
    base = len(program.instructions)
    rename = {local: f"{instance}_{local}" for local in block.labels}
    for local, offset in block.labels.items():
        program.labels[rename[local]] = base + offset
    for instr in block.body:
        if instr.target is not None:
            program.emit(Instruction(
                opcode=instr.opcode, dst=instr.dst, srcs=instr.srcs,
                mem=instr.mem, target=rename[instr.target], elem=instr.elem,
                comment=instr.comment,
            ))
        else:
            program.emit(instr)


def _emit_scalar_segments(program: Program, scalarized: ScalarizedLoop,
                          instance: str) -> None:
    """Emit the scalarized loop nest (pre, fissioned loops, post)."""
    program.emit_all(scalarized.pre)
    ind = Reg(scalarized.induction)
    for seg_index, segment in enumerate(scalarized.segments):
        label = f"{instance}_L{seg_index}"
        program.emit(Instruction("mov", dst=ind, srcs=(Imm(0),),
                                 comment="induction variable"))
        program.mark_label(label)
        program.emit_all(segment)
        program.emit(Instruction("add", dst=ind, srcs=(ind, Imm(1))))
        program.emit(Instruction("cmp", srcs=(ind, Imm(scalarized.trip))))
        program.emit(Instruction("blt", target=label))
    program.emit_all(scalarized.post)


_OUTER_CTR = "r8"


def _outer_prologue(program: Program, kernel: Kernel) -> Optional[str]:
    """Open the outer schedule loop; returns the counter symbol (or None).

    The counter lives in memory so the pattern body (hot loops and scalar
    blocks alike) may clobber any register.
    """
    if kernel.repeats <= 1:
        return None
    sym = program.unique_symbol("sched_ctr")
    program.add_array(DataArray(sym, "i32", [0]))
    program.mark_label("outer_loop")
    return sym


def _outer_epilogue(program: Program, kernel: Kernel,
                    sym: Optional[str]) -> None:
    """Close the outer schedule loop."""
    if sym is None:
        return
    ctr = Reg(_OUTER_CTR)
    program.emit(Instruction("ldw", dst=ctr,
                             mem=Mem(base=Sym(sym), index=Imm(0)), elem="i32",
                             comment="schedule repetition counter"))
    program.emit(Instruction("add", dst=ctr, srcs=(ctr, Imm(1))))
    program.emit(Instruction("stw", srcs=(ctr,),
                             mem=Mem(base=Sym(sym), index=Imm(0)), elem="i32"))
    program.emit(Instruction("cmp", srcs=(ctr, Imm(kernel.repeats))))
    program.emit(Instruction("blt", target="outer_loop"))


class _ScalarizeCache:
    """Scalarize each stage once so all binaries share synthesized arrays."""

    def __init__(self, mvl: int, minmax_idioms: bool) -> None:
        self.mvl = mvl
        self.minmax_idioms = minmax_idioms
        self._cache: Dict[str, ScalarizedLoop] = {}

    def get(self, loop: SimdLoop) -> ScalarizedLoop:
        if loop.name not in self._cache:
            self._cache[loop.name] = scalarize_loop(
                loop, self.mvl, minmax_idioms=self.minmax_idioms
            )
        return self._cache[loop.name]


def build_baseline_program(kernel: Kernel, mvl: int = DEFAULT_MVL, *,
                           minmax_idioms: bool = False) -> Program:
    """Scalar baseline: scalarized hot loops inlined into main."""
    kernel.validate()
    program = Program(f"{kernel.name}_baseline")
    _add_arrays(program, kernel.arrays)
    cache = _ScalarizeCache(mvl, minmax_idioms)
    program.mark_label("main")
    outer = _outer_prologue(program, kernel)
    for index, name in enumerate(kernel.schedule):
        stage = kernel.stage(name)
        instance = f"{name}_{index}"
        if isinstance(stage, SimdLoop):
            scalarized = cache.get(stage)
            _add_arrays(program, scalarized.new_arrays)
            _emit_scalar_segments(program, scalarized, instance)
        else:
            _splice_scalar_block(program, stage, instance)
    _outer_epilogue(program, kernel, outer)
    program.emit(Instruction("halt"))
    program.entry = "main"
    return program


def build_liquid_program(kernel: Kernel, mvl: int = DEFAULT_MVL, *,
                         minmax_idioms: bool = False,
                         mark_opcode: str = "blo") -> Program:
    """Liquid SIMD binary: scalarized hot loops outlined behind calls.

    *mark_opcode* selects the paper's two marking options: ``"blo"`` is
    the dedicated translatable-region branch-and-link (no false
    positives); ``"bl"`` reuses the plain call and leaves detection to
    the translator's legality checks.
    """
    if mark_opcode not in ("bl", "blo"):
        raise ValueError("mark_opcode must be 'bl' or 'blo'")
    kernel.validate()
    program = Program(f"{kernel.name}_liquid")
    _add_arrays(program, kernel.arrays)
    cache = _ScalarizeCache(mvl, minmax_idioms)

    program.mark_label("main")
    outer = _outer_prologue(program, kernel)
    for index, name in enumerate(kernel.schedule):
        stage = kernel.stage(name)
        if isinstance(stage, SimdLoop):
            program.emit(Instruction(mark_opcode, target=f"{name}_fn",
                                     comment="outlined hot loop"))
        else:
            _splice_scalar_block(program, stage, f"{name}_{index}")
    _outer_epilogue(program, kernel, outer)
    program.emit(Instruction("halt"))

    for stage in kernel.stages:
        if not isinstance(stage, SimdLoop):
            continue
        scalarized = cache.get(stage)
        _add_arrays(program, scalarized.new_arrays)
        label = f"{stage.name}_fn"
        program.mark_label(label)
        program.outlined_functions.append(label)
        _emit_scalar_segments(program, scalarized, f"{stage.name}_fn")
        program.emit(Instruction("ret"))
    program.entry = "main"
    return program


def build_native_program(kernel: Kernel, width: int, mvl: int = DEFAULT_MVL, *,
                         minmax_idioms: bool = False) -> Program:
    """Native SIMD binary for one concrete hardware *width*.

    Loops the width cannot execute (trip not divisible by the width, or
    permutation periods wider than the hardware) fall back to their
    scalar representation, recorded in ``program.native_fallbacks`` —
    exactly what a compiler targeting that generation would have to do.
    """
    kernel.validate()
    program = Program(f"{kernel.name}_native{width}")
    program.native_fallbacks: List[str] = []  # type: ignore[attr-defined]
    _add_arrays(program, kernel.arrays)
    cache = _ScalarizeCache(mvl, minmax_idioms)
    program.mark_label("main")
    outer = _outer_prologue(program, kernel)
    for index, name in enumerate(kernel.schedule):
        stage = kernel.stage(name)
        instance = f"{name}_{index}"
        if isinstance(stage, SimdLoop):
            emitted = _try_emit_native_loop(program, stage, width, instance)
            if not emitted:
                if name not in program.native_fallbacks:
                    program.native_fallbacks.append(name)
                scalarized = cache.get(stage)
                _add_arrays(program, scalarized.new_arrays)
                _emit_scalar_segments(program, scalarized, instance)
        else:
            _splice_scalar_block(program, stage, instance)
    _outer_epilogue(program, kernel, outer)
    program.emit(Instruction("halt"))
    program.entry = "main"
    return program


def _try_emit_native_loop(program: Program, loop: SimdLoop, width: int,
                          instance: str) -> bool:
    """Emit a width-specific SIMD loop; False if this width cannot run it."""
    if loop.trip % width != 0:
        return False
    body: List[Instruction] = []
    new_arrays: List[DataArray] = []
    vtemp_pool = _free_vector_temps(loop)
    for instr in loop.body:
        if _perm_period(instr) is not None and _perm_period(instr) > width:
            return False
        rewritten = _rewrite_native(instr, loop, width, instance, body,
                                    new_arrays, vtemp_pool)
        if rewritten is None:
            return False
        body.append(rewritten)
    _add_arrays(program, new_arrays)
    program.emit_all(loop.pre)
    ind = Reg(loop.induction)
    label = f"{instance}_V"
    program.emit(Instruction("mov", dst=ind, srcs=(Imm(0),)))
    program.mark_label(label)
    program.emit_all(body)
    program.emit(Instruction("add", dst=ind, srcs=(ind, Imm(width))))
    program.emit(Instruction("cmp", srcs=(ind, Imm(loop.trip))))
    program.emit(Instruction("blt", target=label))
    program.emit_all(loop.post)
    return True


def _perm_period(instr: Instruction) -> Optional[int]:
    if instr.opcode in ("vbfly", "vrev", "vrot"):
        if len(instr.srcs) > 1 and isinstance(instr.srcs[1], Imm):
            return int(instr.srcs[1].value)
    return None


def _free_vector_temps(loop: SimdLoop) -> List[str]:
    used = {reg_index(r) for r in loop.vector_regs()}
    return [f"v{i}" for i in range(13, 0, -1) if i not in used] + \
           [f"vf{i}" for i in range(13, 0, -1) if i not in used]


def _rewrite_native(instr: Instruction, loop: SimdLoop, width: int,
                    instance: str, body: List[Instruction],
                    new_arrays: List[DataArray],
                    vtemp_pool: List[str]) -> Optional[Instruction]:
    """Concretize one width-agnostic instruction for *width* lanes."""
    new_srcs = []
    for operand in instr.srcs:
        if isinstance(operand, VImm):
            lanes = vimm_lanes_for_width(operand, width)
            if lanes is not None:
                new_srcs.append(VImm(tuple(lanes)))
                continue
            # Period wider than the hardware: load the lane pattern from a
            # synthesized constant array each iteration instead.
            elem = instr.elem or "i32"
            is_mask = instr.opcode in ("vmask", "vand", "vorr", "veor", "vbic")
            arr_elem = "i32" if (elem == "f32" and is_mask) else elem
            values = [operand.lanes[i % len(operand.lanes)]
                      for i in range(loop.trip)]
            name = f"{instance}_ncnst{len(new_arrays)}"
            new_arrays.append(DataArray(name, arr_elem, values, read_only=True))
            if not vtemp_pool:
                return None
            want_float = arr_elem == "f32"
            temp = _pick_vtemp(vtemp_pool, want_float)
            if temp is None:
                return None
            body.append(Instruction(
                "vld", dst=Reg(temp),
                mem=Mem(base=Sym(name), index=Reg(loop.induction)),
                elem=arr_elem, comment="wide lane constant",
            ))
            new_srcs.append(Reg(temp))
        else:
            new_srcs.append(operand)
    return Instruction(opcode=instr.opcode, dst=instr.dst,
                       srcs=tuple(new_srcs), mem=instr.mem,
                       target=instr.target, elem=instr.elem,
                       comment=instr.comment)


def _pick_vtemp(pool: List[str], want_float: bool) -> Optional[str]:
    for i, name in enumerate(pool):
        if name.startswith("vf") == want_float:
            return pool.pop(i)
    return None
