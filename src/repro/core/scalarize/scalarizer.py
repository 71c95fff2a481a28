"""SIMD -> scalar conversion: the paper's Table 1, rule by rule.

:func:`scalarize_loop` rewrites one width-agnostic SIMD loop into an
equivalent scalar loop nest that (a) runs correctly on a plain scalar
core and (b) follows the exact conventions the dynamic translator
recognizes:

* **Category 1/2** — data-parallel ops map to their scalar equivalents,
  one element per iteration.
* **Category 3** — vector constants that no scalar immediate can express
  become read-only ``cnst``/``mask`` arrays indexed by the induction
  variable.
* **Category 4** — reductions become loop-carried updates of a scalar
  register (``r1 = min r1, r2``).
* **Category 5/6** — vector memory accesses become element loads/stores
  indexed by the induction variable.
* **Category 7/8** — permutations become read-only *offset* arrays added
  to the induction variable at memory boundaries; a permutation that is
  not adjacent to a memory access forces **loop fission** (the paper's
  FFT example): live values are stored to temporary arrays — the
  permuted one with scatter offsets — and a second loop resumes from the
  temporaries.
* **Idioms** — saturating arithmetic (and optionally min/max) expand to
  the fixed multi-instruction shapes of
  :mod:`repro.core.scalarize.idioms`.

Correctness note on narrow integer lanes: scalar registers are 32-bit,
so i8/i16 intermediates are held widened.  Low-order bits always agree
with the lane-wrapped SIMD value, so programs whose order-sensitive
operations (min/max/asr/compares) only see in-range values are exact —
the same implicit contract hand-written SIMD assembly obeys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.scalarize import idioms
from repro.core.scalarize.loop_ir import LoopIRError, SimdLoop, lane_value
from repro.isa.instructions import Imm, Instruction, Mem, Reg, Sym, VImm
from repro.isa.opcodes import LOAD_FOR_ELEM, OPCODES, STORE_FOR_ELEM, InstrClass
from repro.isa.program import DataArray
from repro.isa.registers import (
    NUM_REGS_PER_BANK,
    is_float_reg,
    is_scalar_reg,
    is_vector_reg,
    reg_index,
    scalar_reg_for,
)
from repro.simd.permutations import PermPattern

#: vector opcode -> scalar opcode, for f32 lanes
_F32_OPS = {
    "vadd": "fadd", "vsub": "fsub", "vmul": "fmul",
    "vmin": "fmin", "vmax": "fmax",
    "vand": "and", "vorr": "orr", "vmask": "and",
    "vneg": "fneg", "vabs": "fabs",
}

#: vector opcode -> scalar opcode, for integer lanes
_INT_OPS = {
    "vadd": "add", "vsub": "sub", "vmul": "mul",
    "vand": "and", "vorr": "orr", "veor": "eor", "vbic": "bic",
    "vshl": "lsl", "vshr": "asr",
    "vmin": "min", "vmax": "max", "vmask": "and",
}

_REDUCTION_OPS = {
    ("vredsum", True): "fadd", ("vredsum", False): "add",
    ("vredmin", True): "fmin", ("vredmin", False): "min",
    ("vredmax", True): "fmax", ("vredmax", False): "max",
}

_PERM_OPCODES = {"vbfly": "bfly", "vrev": "rev", "vrot": "rot"}


class ScalarizeError(LoopIRError):
    """The loop cannot be expressed in the scalar representation."""


@dataclass
class ScalarizedLoop:
    """Result of scalarizing one SIMD loop.

    ``segments`` holds one per-iteration instruction list per fissioned
    scalar loop; code generators wrap each in induction scaffolding
    (``mov ind, #0`` / ``add ind, ind, #1`` / ``cmp`` / ``blt``).
    """

    name: str
    trip: int
    induction: str
    segments: List[List[Instruction]]
    pre: List[Instruction]
    post: List[Instruction]
    new_arrays: List[DataArray] = field(default_factory=list)


class _RegAllocator:
    """Hands out scalar temp registers not colliding with mapped ones."""

    def __init__(self, used_int: Set[int], used_float: Set[int],
                 induction_index: int) -> None:
        blocked_int = set(used_int) | {induction_index, 14, 15}
        blocked_float = set(used_float)
        self._int_pool = [i for i in range(NUM_REGS_PER_BANK - 3, 0, -1)
                          if i not in blocked_int]
        self._float_pool = [i for i in range(NUM_REGS_PER_BANK - 1, -1, -1)
                            if i not in blocked_float]

    def int_temp(self) -> str:
        if not self._int_pool:
            raise ScalarizeError("out of integer temp registers")
        return f"r{self._int_pool.pop(0)}"

    def float_temp(self) -> str:
        if not self._float_pool:
            raise ScalarizeError("out of float temp registers")
        return f"f{self._float_pool.pop(0)}"


def _pattern_of(instr: Instruction) -> PermPattern:
    kind = _PERM_OPCODES[instr.opcode]
    if len(instr.srcs) < 2 or not isinstance(instr.srcs[1], Imm):
        raise ScalarizeError(f"{instr.opcode} needs an immediate period")
    period = int(instr.srcs[1].value)
    if kind == "rot":
        if len(instr.srcs) < 3 or not isinstance(instr.srcs[2], Imm):
            raise ScalarizeError("vrot needs #period, #amount")
        return PermPattern("rot", period, int(instr.srcs[2].value))
    return PermPattern(kind, period)


def scalarize_loop(loop: SimdLoop, mvl: int, *, minmax_idioms: bool = False,
                   name_prefix: Optional[str] = None) -> ScalarizedLoop:
    """Convert *loop* into its scalar representation (Table 1).

    Args:
        loop: validated width-agnostic SIMD loop.
        mvl: maximum vectorizable length the binary targets; synthesized
            arrays are padded to it (alignment, section 3.1).
        minmax_idioms: emit the conditional-move idiom for ``vmin``/
            ``vmax`` instead of the scalar pseudo-ops.
        name_prefix: prefix for synthesized array names (default: loop
            name).
    """
    loop.validate()
    return _Scalarizer(loop, mvl, minmax_idioms, name_prefix or loop.name).run()


class _Scalarizer:
    def __init__(self, loop: SimdLoop, mvl: int, minmax_idioms: bool,
                 prefix: str) -> None:
        self.loop = loop
        self.mvl = mvl
        self.minmax_idioms = minmax_idioms
        self.prefix = prefix
        self.induction = loop.induction
        self.new_arrays: List[DataArray] = []
        self.segments: List[List[Instruction]] = [[]]
        self.elem_of: Dict[str, str] = {}
        # Registers already claimed by the loop (mapped vregs + pre/post).
        used_int, used_float = self._collect_used_indexes()
        self.alloc = _RegAllocator(used_int, used_float,
                                   reg_index(self.induction))
        #: synthesized array name -> dedicated temp register
        self._const_temp: Dict[str, str] = {}
        #: (kind, elem, values) -> synthesized array name (dedup)
        self._const_memo: Dict[Tuple, str] = {}
        #: lazily allocated pair of scratch registers shared by all idiom
        #: expansions and offset-index sequences: both shapes consume their
        #: temporaries before the next one begins, so one pair serves all
        self._scratch_pair: List[str] = []
        #: pattern name -> offset array name
        self._offset_arrays: Dict[str, str] = {}

        #: arrays whose temp has been loaded in the current segment
        self._loaded_this_segment: Set[str] = set()
        self._tmp_counter = 0
        self._folded_perms: Set[int] = set()
        self._store_folded: Dict[str, Tuple[PermPattern, str]] = {}

    # -- helpers --------------------------------------------------------------

    def _collect_used_indexes(self) -> Tuple[Set[int], Set[int]]:
        used_int: Set[int] = set()
        used_float: Set[int] = set()
        def note(name: str) -> None:
            if is_vector_reg(name):
                name = scalar_reg_for(name)
            if is_float_reg(name):
                used_float.add(reg_index(name))
            else:
                used_int.add(reg_index(name))
        for instr in self.loop.pre + self.loop.body + self.loop.post:
            for reg in list(instr.reads()) + list(instr.writes()):
                note(reg)
        return used_int, used_float

    def _emit(self, instr: Instruction) -> None:
        self.segments[-1].append(instr)

    def _sreg(self, vreg: str) -> str:
        return scalar_reg_for(vreg)

    def _idiom_temp(self, slot: int) -> str:
        """A shared integer scratch register (slot 0 or 1)."""
        while len(self._scratch_pair) <= slot:
            self._scratch_pair.append(self.alloc.int_temp())
        return self._scratch_pair[slot]

    def _pad(self, values: List) -> List:
        """Pad synthesized arrays to a whole number of MVL groups."""
        count = len(values)
        padded = ((count + self.mvl - 1) // self.mvl) * self.mvl
        filler = 0.0 if values and isinstance(values[0], float) else 0
        return values + [filler] * (padded - count)

    def _new_array(self, kind: str, elem: str, values: List,
                   read_only: bool) -> str:
        name = f"{self.prefix}_{kind}"
        suffix = 0
        existing = {a.name for a in self.new_arrays}
        while name in existing:
            suffix += 1
            name = f"{self.prefix}_{kind}_{suffix}"
        self.new_arrays.append(
            DataArray(name, elem, self._pad(values), read_only=read_only)
        )
        return name

    # -- main walk -------------------------------------------------------------

    def run(self) -> ScalarizedLoop:
        body = self.loop.body
        uses = _UseInfo(body)
        i = 0
        while i < len(body):
            instr = body[i]
            cls = OPCODES[instr.opcode].cls
            if instr.opcode == "vld":
                self._do_load(i, instr, uses)
            elif instr.opcode == "vst":
                self._do_store(instr)
            elif cls is InstrClass.VPERM:
                if i in self._folded_perms:
                    pass  # already folded into its defining load
                else:
                    handled = self._try_store_fold(i, instr, uses)
                    if not handled:
                        self._do_fission(i, instr, uses)
            elif cls is InstrClass.VRED:
                self._do_reduction(instr)
            elif cls in (InstrClass.VALU, InstrClass.VMUL):
                self._do_data_parallel(instr)
            else:
                raise ScalarizeError(
                    f"{self.loop.name}: cannot scalarize {instr.opcode!r}"
                )
            i += 1
        return ScalarizedLoop(
            name=self.loop.name,
            trip=self.loop.trip,
            induction=self.induction,
            segments=self.segments,
            pre=list(self.loop.pre),
            post=list(self.loop.post),
            new_arrays=self.new_arrays,
        )

    # -- memory ------------------------------------------------------------------

    def _do_load(self, i: int, instr: Instruction, uses: "_UseInfo") -> None:
        dst_v = instr.dst.name
        elem = instr.elem
        self.elem_of[dst_v] = elem
        sym = instr.mem.base
        fold = uses.load_fold_candidate(i)
        if fold is not None:
            perm_index, perm_instr = fold
            pattern = _pattern_of(perm_instr)
            self._folded_perms.add(perm_index)
            target_v = perm_instr.dst.name
            self.elem_of[target_v] = elem
            index_reg = self._emit_offset_index(pattern)
            self._emit(Instruction(
                LOAD_FOR_ELEM[elem], dst=Reg(self._sreg(target_v)),
                mem=Mem(base=sym, index=Reg(index_reg)), elem=elem,
                comment=f"load shuffled by {pattern.name}",
            ))
            return
        self._emit(Instruction(
            LOAD_FOR_ELEM[elem], dst=Reg(self._sreg(dst_v)),
            mem=Mem(base=sym, index=Reg(self.induction)), elem=elem,
        ))

    def _do_store(self, instr: Instruction) -> None:
        src_v = instr.srcs[0].name
        elem = instr.elem
        folded = self._store_folded.pop(src_v, None)
        if folded is not None:
            pattern, data_v = folded
            index_reg = self._emit_offset_index(pattern.inverse())
            self._emit(Instruction(
                STORE_FOR_ELEM[elem], srcs=(Reg(self._sreg(data_v)),),
                mem=Mem(base=instr.mem.base, index=Reg(index_reg)), elem=elem,
                comment=f"scatter store ({pattern.name})",
            ))
            return
        self._emit(Instruction(
            STORE_FOR_ELEM[elem], srcs=(Reg(self._sreg(src_v)),),
            mem=Mem(base=instr.mem.base, index=Reg(self.induction)), elem=elem,
        ))

    def _emit_offset_index(self, pattern: PermPattern) -> str:
        """Emit ``ld t, [offsets + ind]; add t2, ind, t``; return ``t2``."""
        key = pattern.name
        if key not in self._offset_arrays:
            self._offset_arrays[key] = self._new_array(
                f"bfly_{key}", "i32", pattern.offsets(self.loop.trip),
                read_only=True,
            )
        array = self._offset_arrays[key]
        t_offsets = self._idiom_temp(0)
        t_index = self._idiom_temp(1)
        self._emit(Instruction(
            "ldw", dst=Reg(t_offsets),
            mem=Mem(base=Sym(array), index=Reg(self.induction)), elem="i32",
            comment=f"offsets for {pattern.name}",
        ))
        self._emit(Instruction(
            "add", dst=Reg(t_index), srcs=(Reg(self.induction), Reg(t_offsets)),
        ))
        return t_index

    # -- permutations requiring fission -------------------------------------------------

    def _try_store_fold(self, i: int, instr: Instruction,
                        uses: "_UseInfo") -> bool:
        """Category 8: a permutation whose only consumer is a store."""
        target = uses.store_fold_candidate(i)
        if target is None:
            return False
        pattern = _pattern_of(instr)
        self._store_folded[instr.dst.name] = (pattern, instr.srcs[0].name)
        self.elem_of[instr.dst.name] = self.elem_of.get(
            instr.srcs[0].name, instr.elem or "i32"
        )
        return True

    def _do_fission(self, i: int, instr: Instruction, uses: "_UseInfo") -> None:
        """Split the loop at a mid-dataflow permutation (paper section 3.4)."""
        pattern = _pattern_of(instr)
        src_v = instr.srcs[0].name
        dst_v = instr.dst.name
        elem = self.elem_of.get(src_v, instr.elem or "i32")
        self.elem_of[dst_v] = elem

        live = uses.live_after(i)
        live.discard(dst_v)
        src_needed_raw = src_v in live and uses.read_after(i, src_v)
        live.discard(src_v)

        # Scatter-store the permuted value: tmp becomes pattern(src).
        self._tmp_counter += 1
        perm_tmp = self._new_array(f"tmp{self._tmp_counter}", elem,
                                   [0.0 if elem == "f32" else 0] * self.loop.trip,
                                   read_only=False)
        index_reg = self._emit_offset_index(pattern.inverse())
        self._emit(Instruction(
            STORE_FOR_ELEM[elem], srcs=(Reg(self._sreg(src_v)),),
            mem=Mem(base=Sym(perm_tmp), index=Reg(index_reg)), elem=elem,
            comment=f"fission: scatter {pattern.name}",
        ))

        spills: List[Tuple[str, str, str]] = []  # (vreg, tmp array, elem)
        spill_regs = sorted(live) + ([src_v] if src_needed_raw else [])
        for vreg in spill_regs:
            velem = self.elem_of.get(vreg, "i32")
            self._tmp_counter += 1
            tmp = self._new_array(
                f"tmp{self._tmp_counter}", velem,
                [0.0 if velem == "f32" else 0] * self.loop.trip,
                read_only=False,
            )
            self._emit(Instruction(
                STORE_FOR_ELEM[velem], srcs=(Reg(self._sreg(vreg)),),
                mem=Mem(base=Sym(tmp), index=Reg(self.induction)), elem=velem,
                comment="fission: spill live value",
            ))
            spills.append((vreg, tmp, velem))

        # Start the next loop: reload the permuted value and the spills.
        self.segments.append([])
        self._loaded_this_segment.clear()
        self._emit(Instruction(
            LOAD_FOR_ELEM[elem], dst=Reg(self._sreg(dst_v)),
            mem=Mem(base=Sym(perm_tmp), index=Reg(self.induction)), elem=elem,
            comment="fission: reload permuted value",
        ))
        for vreg, tmp, velem in spills:
            self._emit(Instruction(
                LOAD_FOR_ELEM[velem], dst=Reg(self._sreg(vreg)),
                mem=Mem(base=Sym(tmp), index=Reg(self.induction)), elem=velem,
                comment="fission: reload live value",
            ))

    # -- data-parallel ops ------------------------------------------------------------------

    def _do_reduction(self, instr: Instruction) -> None:
        dst = instr.dst.name
        if not is_scalar_reg(dst):
            raise ScalarizeError("reduction destination must be scalar")
        acc = instr.srcs[0]
        if not (isinstance(acc, Reg) and acc.name == dst):
            raise ScalarizeError(
                "reduction must use its destination as the accumulator "
                "(loop-carried register, Table 1 category 4)"
            )
        vsrc = instr.srcs[1].name
        is_float = is_float_reg(dst)
        op = _REDUCTION_OPS[(instr.opcode, is_float)]
        self._emit(Instruction(
            op, dst=Reg(dst), srcs=(Reg(dst), Reg(self._sreg(vsrc))),
            comment="reduction (loop-carried)",
        ))

    def _do_data_parallel(self, instr: Instruction) -> None:
        opcode = instr.opcode
        dst_v = instr.dst.name
        a_operand = instr.srcs[0]
        elem = instr.elem or self.elem_of.get(
            a_operand.name if isinstance(a_operand, Reg) else dst_v, "i32"
        )
        self.elem_of[dst_v] = elem
        is_float = elem == "f32"
        dst = self._sreg(dst_v)

        if opcode in ("vneg", "vabs"):
            a = self._sreg(a_operand.name)
            if is_float:
                self._emit(Instruction(_F32_OPS[opcode], dst=Reg(dst),
                                       srcs=(Reg(a),)))
            elif opcode == "vneg":
                for out in idioms.emit_neg(dst, a):
                    self._emit(out)
            else:
                for out in idioms.emit_abs(dst, a, self._idiom_temp(0)):
                    self._emit(out)
            return

        b_operand = instr.srcs[1]
        a = self._sreg(a_operand.name)
        b = self._operand_to_scalar(b_operand, elem, opcode)

        if opcode in ("vqadd", "vqsub"):
            if is_float:
                raise ScalarizeError("saturating ops are integer-only")
            b_reg = b if isinstance(b, Imm) else b
            for out in idioms.emit_saturating(opcode, dst, a, b_reg, elem):
                self._emit(out)
            return
        if opcode in ("vmin", "vmax") and self.minmax_idioms \
                and not isinstance(b, Imm):
            # The conditional-move idiom compares two registers; min/max
            # against a scalar-supported constant stays in pseudo form
            # (category 2), which the translator maps directly.
            for out in idioms.emit_minmax(opcode, dst, a, b, is_float):
                self._emit(out)
            return
        if opcode == "vabd":
            if is_float:
                self._emit(Instruction("fsub", dst=Reg(dst), srcs=(Reg(a), b)))
                self._emit(Instruction("fabs", dst=Reg(dst), srcs=(Reg(dst),)))
                return
            if isinstance(b, Imm):
                raise ScalarizeError("vabd idiom needs a register operand")
            for out in idioms.emit_abd(dst, a, b, self._idiom_temp(0),
                                       self._idiom_temp(1)):
                self._emit(out)
            return

        table = _F32_OPS if is_float else _INT_OPS
        scalar_op = table.get(opcode)
        if scalar_op is None:
            raise ScalarizeError(
                f"no scalar equivalent for {opcode!r} on {elem} lanes"
            )
        b_final = b if isinstance(b, Imm) else Reg(b) if isinstance(b, str) else b
        self._emit(Instruction(scalar_op, dst=Reg(dst),
                               srcs=(Reg(a), b_final)))

    def _operand_to_scalar(self, operand, elem: str, opcode: str):
        """Map the second operand: register, immediate, or cnst array load."""
        if isinstance(operand, Reg):
            return self._sreg(operand.name)
        if isinstance(operand, Imm):
            return operand
        if isinstance(operand, VImm):
            return self._load_lane_constant(operand, elem, opcode)
        raise ScalarizeError(f"bad operand {operand!r}")

    def _load_lane_constant(self, vimm: VImm, elem: str, opcode: str) -> str:
        """Category 3: synthesize a cnst array and load it each iteration."""
        is_mask = opcode in ("vmask", "vand", "vorr", "veor", "vbic")
        if elem == "f32" and is_mask:
            array_elem, load_op, kind = "i32", "ldw", "mask"
            temp_kind = "int"
        elif elem == "f32":
            array_elem, load_op, kind = "f32", "ldf", "cnst"
            temp_kind = "float"
        else:
            array_elem, load_op, kind = elem, LOAD_FOR_ELEM[elem], (
                "mask" if is_mask else "cnst"
            )
            temp_kind = "int"
        values = [lane_value(vimm, i) for i in range(self.loop.trip)]
        signature = (kind, array_elem, tuple(values))
        name = self._const_memo.get(signature)
        if name is None:
            name = self._new_array(kind, array_elem, values, read_only=True)
            self._const_memo[signature] = name
            self._const_temp[name] = (self.alloc.int_temp() if temp_kind == "int"
                                      else self.alloc.float_temp())
        temp = self._const_temp[name]
        if name not in self._loaded_this_segment:
            self._emit(Instruction(
                load_op, dst=Reg(temp),
                mem=Mem(base=Sym(name), index=Reg(self.induction)),
                elem=array_elem, comment=f"lane constant {name}",
            ))
            self._loaded_this_segment.add(name)
        return temp


class _UseInfo:
    """Def/use lookahead over a SIMD body (small loops; O(n^2) is fine)."""

    def __init__(self, body: Sequence[Instruction]) -> None:
        self.body = list(body)

    def read_after(self, i: int, reg: str) -> bool:
        """Is *reg* read by any instruction after index *i* (before redefinition)?"""
        for j in range(i + 1, len(self.body)):
            if reg in self.body[j].reads():
                return True
            if reg in self.body[j].writes():
                return False
        return False

    def live_after(self, i: int) -> Set[str]:
        """Vector registers defined at or before *i* and read after it."""
        defined: Set[str] = set()
        for j in range(i + 1):
            for reg in self.body[j].writes():
                if is_vector_reg(reg):
                    defined.add(reg)
        return {reg for reg in defined if self.read_after(i, reg) or
                reg in self.body[i].reads()}

    def first_read(self, i: int, reg: str) -> Optional[int]:
        for j in range(i + 1, len(self.body)):
            if reg in self.body[j].reads():
                return j
            if reg in self.body[j].writes():
                return None
        return None

    def load_fold_candidate(self, i: int) -> Optional[Tuple[int, Instruction]]:
        """If the load at *i* feeds straight into a permutation, fold it.

        Conditions (category 7): the first use of the loaded register is a
        permutation of it, and either the permutation overwrites the same
        register or the raw value is never read afterwards.
        """
        load = self.body[i]
        dst = load.dst.name
        j = self.first_read(i, dst)
        if j is None:
            return None
        candidate = self.body[j]
        if OPCODES[candidate.opcode].cls is not InstrClass.VPERM:
            return None
        if not candidate.srcs or not isinstance(candidate.srcs[0], Reg):
            return None
        if candidate.srcs[0].name != dst:
            return None
        if candidate.dst.name != dst and self.read_after(j, dst):
            return None
        return j, candidate

    def store_fold_candidate(self, i: int) -> Optional[int]:
        """If the permutation at *i* feeds only a store, fold it (category 8)."""
        perm = self.body[i]
        dst = perm.dst.name
        reads = []
        for j in range(i + 1, len(self.body)):
            if dst in self.body[j].reads():
                reads.append(j)
            if dst in self.body[j].writes():
                break
        if len(reads) != 1:
            return None
        j = reads[0]
        store = self.body[j]
        if store.opcode != "vst":
            return None
        if not (isinstance(store.srcs[0], Reg) and store.srcs[0].name == dst):
            return None
        return j
