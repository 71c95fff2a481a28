"""The post-retirement dynamic translator (paper section 4, Table 3).

The translator watches the retire stream of one outlined function's
*first* execution and regenerates width-specific SIMD microcode:

* a partial decoder classifies each retiring instruction (only
  translatable opcodes are recognized; anything else aborts),
* the register-state table tracks what each scalar register currently
  represents — scalar, vector, induction variable, or offset vector —
  plus element widths and previously loaded values,
* the rules engine applies Table 3 row by row,
* an idiom recognizer collapses the fixed multi-instruction shapes of
  :mod:`repro.core.scalarize.idioms` (saturating arithmetic, min/max)
  back into single SIMD instructions, invalidating provisional entries
  in the microcode buffer,
* permutations and wide lane constants resolve after ``W`` observed
  iterations: offset signatures go through the permutation CAM (a miss
  aborts — this is how a too-narrow accelerator declines a loop), and
  lane constants are re-written to vector immediates only when the
  observed values prove periodic (otherwise the register form, which is
  always correct, is kept),
* on the function's ``ret`` the microcode is finalized: loop increments
  are patched to the *effective width* (the largest power-of-two divisor
  of the trip count, capped by the hardware width — a 16-lane machine
  runs an 8-element loop at width 8, matching the paper's MPEG2
  observation), redundant offset loads are collapsed, and the fragment
  is packaged for the microcode cache.

Any rule violation flushes all state and leaves the function running in
its scalar form — the defining safety property of Liquid SIMD.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.scalarize.idioms import sat_elem_for_bounds
from repro.core.translate.register_state import (
    RegKind,
    RegisterStateTable,
    ValueTrace,
)
from repro.core.translate.ucode_buffer import BufferOverflow, MicrocodeBuffer, UEntry
from repro.core.translate.ucode_cache import MicrocodeEntry
from repro.interp.events import RetireEvent
from repro.isa.instructions import Imm, Instruction, Mem, Reg, Sym, VImm
from repro.isa.opcodes import (
    LOAD_ELEM,
    OPCODES,
    STORE_ELEM,
    InstrClass,
)
from repro.isa.program import Program
from repro.observability import telemetry as _telemetry
from repro.isa.registers import (
    is_float_reg,
    is_int_reg,
    vector_reg_for,
)
from repro.simd.permutations import (
    STANDARD_PATTERNS,
    PermPattern,
    PermutationCAM,
)
from repro.simd.vector_ops import SCALAR_TO_REDUCTION, SCALAR_TO_VECTOR


class AbortReason(enum.Enum):
    """Why a translation was abandoned (legality checker outcomes)."""

    ILLEGAL_OPCODE = "illegal-opcode"
    UNSUPPORTED_PATTERN = "unsupported-permutation"
    UNSUPPORTED_SATURATION = "unsupported-saturation"
    UNSUPPORTED_OPCODE = "opcode-not-in-accelerator-generation"
    IDIOM_BROKEN = "idiom-broken"
    BUFFER_OVERFLOW = "ucode-buffer-overflow"
    NESTED_CALL = "nested-call"
    MALFORMED_LOOP = "malformed-loop"
    NO_LOOP = "no-loop"
    TRIP_NOT_VECTORIZABLE = "trip-not-vectorizable"
    INSUFFICIENT_ITERATIONS = "insufficient-iterations"
    INCONSISTENT = "inconsistent-register-use"
    EXTERNAL = "external-interrupt"


@dataclass(frozen=True)
class TranslatorConfig:
    """Hardware parameters of the dynamic translator."""

    width: int
    max_ucode_instructions: int = 64
    cycles_per_instruction: int = 1
    collapse_offset_loads: bool = True
    const_immediates: bool = True
    supports_saturation: bool = True
    permutations: Tuple[PermPattern, ...] = STANDARD_PATTERNS
    #: Vector opcode repertoire of the target generation; None = full.
    supported_vector_ops: Optional[frozenset] = None

    @property
    def value_history_limit(self) -> int:
        """Collect twice the width so periodicity can be cross-checked."""
        return 2 * self.width

    def supports_op(self, opcode: str) -> bool:
        """Does the accelerator generation implement *opcode*?"""
        if self.supported_vector_ops is None:
            return True
        return opcode in self.supported_vector_ops


@dataclass
class TranslationResult:
    """Outcome of translating one outlined function."""

    function: str
    ok: bool
    reason: Optional[AbortReason] = None
    entry: Optional[MicrocodeEntry] = None
    observed_static: int = 0
    detail: str = ""

    def to_dict(self) -> dict:
        """JSON-safe representation (inverse of :meth:`from_dict`)."""
        return {
            "function": self.function,
            "ok": self.ok,
            "reason": self.reason.value if self.reason is not None else None,
            "entry": self.entry.to_dict() if self.entry is not None else None,
            "observed_static": self.observed_static,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TranslationResult":
        return cls(
            function=data["function"],
            ok=data["ok"],
            reason=(AbortReason(data["reason"])
                    if data["reason"] is not None else None),
            entry=(MicrocodeEntry.from_dict(data["entry"])
                   if data["entry"] is not None else None),
            observed_static=data["observed_static"],
            detail=data["detail"],
        )


@dataclass
class _Scope:
    """One scalar loop inside the outlined function."""

    induction: str
    start_pc: int
    trip: Optional[int] = None
    closed: bool = False
    increment_entry: Optional[UEntry] = None
    effective_width: int = 0
    #: set once anything (a load, store, or increment) actually uses this
    #: register as an induction variable; unused scopes can be discarded
    #: when the register turns out to be a reduction accumulator.
    used: bool = False


@dataclass
class _PendingPerm:
    kind: str  # "load" or "store"
    entry: UEntry
    trace: ValueTrace
    reg: str   # vector register the permutation applies to
    elem: str
    placeholder_index: int


@dataclass
class _PendingConst:
    entry: UEntry
    slot: int
    trace: ValueTrace
    src_vreg: str


class _TranslationAborted(Exception):
    def __init__(self, reason: AbortReason, detail: str = "") -> None:
        super().__init__(detail or reason.value)
        self.reason = reason
        self.detail = detail


_PERM_PLACEHOLDER = Instruction("nop", comment="<pending permutation>")


def _largest_pow2_divisor(n: int) -> int:
    return n & (-n) if n > 0 else 0


def _perm_instruction(pattern: PermPattern, dst: str, src: str,
                      elem: str) -> Instruction:
    if pattern.kind == "rot":
        srcs = (Reg(src), Imm(pattern.period), Imm(pattern.amount))
    else:
        srcs = (Reg(src), Imm(pattern.period))
    opcode = {"bfly": "vbfly", "rev": "vrev", "rot": "vrot"}[pattern.kind]
    return Instruction(opcode, dst=Reg(dst), srcs=srcs, elem=elem)


def _scratch_vreg(data_vreg: str) -> str:
    """The translator-owned scratch vector register for store permutes.

    Table 3 rule 5 as published permutes the stored register in place
    (``v3 = vpermute v3``), which corrupts the value for any later
    consumer (e.g. a fission spill of the same register).  The translator
    instead owns vector register 15 of each bank — an index the scalar
    representation never maps (temps stop at 13, linkage uses 14) — and
    permutes into it.
    """
    return "vf15" if data_vreg.startswith("vf") else "v15"


class DynamicTranslator:
    """Translates one outlined function from its retire stream.

    One instance handles one translation attempt; the machine creates a
    fresh instance per first-call of each outlined function (modelling
    the single in-flight translation of the proposed hardware).
    """

    def __init__(self, config: TranslatorConfig,
                 resolve_label: Callable[[str], int]) -> None:
        self.config = config
        self.resolve_label = resolve_label
        self.regs = RegisterStateTable()
        self.buffer = MicrocodeBuffer(config.max_ucode_instructions)
        self.seen: Set[int] = set()
        self.collectors: Dict[int, ValueTrace] = {}
        self.scopes: List[_Scope] = []
        self.pending_perms: List[_PendingPerm] = []
        self.pending_consts: List[_PendingConst] = []
        self.aborted: Optional[AbortReason] = None
        self.abort_detail: str = ""
        self.done = False
        self.function: Optional[str] = None
        self._sat: Optional[dict] = None
        self._minmax: Optional[dict] = None
        self._last_dp: Optional[dict] = None

    # -- lifecycle ---------------------------------------------------------------

    def begin(self, function: str) -> None:
        self.function = function
        _telemetry.get().count("translate.attempts")

    def abort_external(self) -> None:
        """Pipeline abort input (context switch / interrupt)."""
        if not self.done and self.aborted is None:
            self._record_abort(AbortReason.EXTERNAL, "external abort signal")

    def abort_nested_call(self, pc: int) -> None:
        """A marked call retired at *pc* inside the observed region.

        The machine handles marked calls itself, so their retirements
        never reach :meth:`observe`; this applies the ``NESTED_CALL``
        rule :meth:`observe` applies to any other call.
        """
        if not self.done and self.aborted is None:
            self.seen.add(pc)
            self._record_abort(AbortReason.NESTED_CALL,
                               "call inside outlined region")

    def pending_values(self, pcs) -> Optional[Tuple[int, ...]]:
        """What retirements at *pcs* would still give the attempt.

        None while some pc in *pcs* has not retired in this attempt:
        its first encounter does translation work, so the machine must
        step it.  Otherwise the pcs, in the order given, whose value
        collector is still short of ``value_history_limit``: observing
        any of them only appends its value (:meth:`record_values`), and
        observing any other is an exact no-op.  Empty once the attempt
        has aborted or finished.
        """
        if self.aborted is not None or self.done:
            return ()
        seen = self.seen
        collectors = self.collectors
        limit = self.config.value_history_limit
        pending = []
        for pc in pcs:
            if pc not in seen:
                return None
            trace = collectors.get(pc)
            if trace is not None and len(trace.values) < limit:
                pending.append(pc)
        return tuple(pending)

    def ignores(self, pc: int) -> bool:
        """Would a retirement at *pc* change nothing?

        True once the attempt has aborted or finished, or when *pc* was
        seen before and has no value collector still short of
        ``value_history_limit`` (:meth:`pending_values`).  Once true
        for a pc it stays true, and :meth:`observe` of such an event is
        an exact no-op.
        """
        return self.pending_values((pc,)) == ()

    def record_values(self, pc: int, values) -> None:
        """:meth:`observe` of a run of retirements at the seen pc *pc*
        that loaded *values*, in order: append them to its collector,
        up to ``value_history_limit``."""
        if self.aborted is not None or self.done:
            return
        trace = self.collectors.get(pc)
        if trace is not None:
            room = self.config.value_history_limit - len(trace.values)
            if room > 0:
                trace.values.extend(values[:room])

    def observe(self, event: RetireEvent) -> None:
        """Feed one retired instruction of the outlined function."""
        if self.aborted is not None or self.done:
            return
        instr = event.instr
        if instr.opcode == "ret":
            self.done = True
            return
        pc = event.pc
        if pc in self.seen:
            trace = self.collectors.get(pc)
            if trace is not None:
                trace.record(event.value, self.config.value_history_limit)
            return
        self.seen.add(pc)
        try:
            self._first_encounter(pc, instr, event)
        except BufferOverflow as exc:
            self._record_abort(AbortReason.BUFFER_OVERFLOW, str(exc))
        except _TranslationAborted as exc:
            self._record_abort(exc.reason, exc.detail)

    def finish(self, ret_cycle: int = 0) -> TranslationResult:
        """Finalize after the function returned; package the microcode."""
        observed = len(self.seen) + 1  # + the ret itself
        if self.aborted is not None:
            return TranslationResult(self.function or "?", ok=False,
                                     reason=self.aborted,
                                     observed_static=observed,
                                     detail=self.abort_detail)
        try:
            entry = self._finalize(ret_cycle, observed)
        except _TranslationAborted as exc:
            self._record_abort(exc.reason, exc.detail)
            return TranslationResult(self.function or "?", ok=False,
                                     reason=self.aborted,
                                     observed_static=observed,
                                     detail=self.abort_detail)
        tel = _telemetry.get()
        tel.count("translate.ok")
        tel.observe("translate.observed_static", observed)
        return TranslationResult(self.function or "?", ok=True, entry=entry,
                                 observed_static=observed)

    # -- abort plumbing ----------------------------------------------------------

    def _record_abort(self, reason: AbortReason, detail: str = "") -> None:
        # At most one abort is recorded per attempt (observe() stops
        # feeding once aborted), so this counts attempts, not events.
        _telemetry.get().count("translate.abort." + reason.value)
        self.aborted = reason
        self.abort_detail = detail
        self.regs.flush()

    def _abort(self, reason: AbortReason, detail: str = "") -> None:
        raise _TranslationAborted(reason, detail)

    def _require_op(self, opcode: str) -> None:
        """Abort unless the accelerator generation implements *opcode*."""
        if not self.config.supports_op(opcode):
            self._abort(AbortReason.UNSUPPORTED_OPCODE,
                        f"{opcode} is not in this generation's repertoire")

    # -- first-encounter dispatch ---------------------------------------------------

    def _first_encounter(self, pc: int, instr: Instruction,
                         event: RetireEvent) -> None:
        spec = OPCODES.get(instr.opcode)
        if spec is None or spec.is_vector:
            self._abort(AbortReason.ILLEGAL_OPCODE,
                        f"opcode {instr.opcode!r} at pc={pc}")
        if self._sat is not None:
            if self._advance_sat(instr):
                return
        if self._minmax is not None:
            if self._advance_minmax(instr):
                return
        if self._maybe_start_idiom(pc, instr):
            return
        cls = spec.cls
        if cls is InstrClass.MOVE:
            self._rule_move(pc, instr)
        elif cls is InstrClass.CMP:
            self._rule_cmp(pc, instr)
        elif cls is InstrClass.LOAD:
            self._rule_load(pc, instr, event)
        elif cls is InstrClass.STORE:
            self._rule_store(pc, instr)
        elif cls in (InstrClass.ALU, InstrClass.MUL, InstrClass.FALU,
                     InstrClass.FMUL, InstrClass.FDIV):
            self._rule_dp(pc, instr)
        elif cls is InstrClass.BRANCH:
            self._rule_branch(pc, instr)
        elif cls is InstrClass.CALL:
            self._abort(AbortReason.NESTED_CALL, f"call inside outlined region")
        elif cls is InstrClass.SYS:
            if instr.opcode == "halt":
                self._abort(AbortReason.ILLEGAL_OPCODE, "halt inside region")
            self._pass_through(pc, instr)
        else:  # pragma: no cover
            self._abort(AbortReason.ILLEGAL_OPCODE, instr.opcode)

    # -- helpers ---------------------------------------------------------------------

    def _pass_through(self, pc: int, instr: Instruction) -> UEntry:
        """Table 3 rule 11: all-scalar instructions pass unmodified."""
        return self.buffer.append(pc, [instr], scope=len(self.scopes))

    def _scope(self) -> Optional[_Scope]:
        return self.scopes[-1] if self.scopes else None

    def _demote_unused_induction(self, reg: str) -> None:
        """Reclassify an induction candidate as a scalar accumulator."""
        for scope in self.scopes:
            if scope.induction == reg and not scope.used \
                    and not scope.closed and scope.trip is None \
                    and scope.increment_entry is None:
                self.scopes.remove(scope)
                self.regs.mark(reg, RegKind.SCALAR)
                return
        self._abort(AbortReason.INCONSISTENT,
                    f"induction register {reg} updated with vector data")

    def _kind(self, name: str) -> RegKind:
        return self.regs.kind(name)

    def _vector_operands(self, instr: Instruction) -> List[str]:
        return [op.name for op in instr.srcs
                if isinstance(op, Reg) and self._kind(op.name) is RegKind.VECTOR]

    # -- idiom recognition --------------------------------------------------------------

    def _maybe_start_idiom(self, pc: int, instr: Instruction) -> bool:
        opcode = instr.opcode
        # Saturation: `cmp X, #K` on a register we just generated a vector
        # add/sub for.
        if opcode == "cmp" and len(instr.srcs) == 2 \
                and isinstance(instr.srcs[0], Reg) \
                and isinstance(instr.srcs[1], Imm) \
                and self._kind(instr.srcs[0].name) is RegKind.VECTOR:
            last = self._last_dp
            if last is not None and last["dst"] == instr.srcs[0].name \
                    and last["op"] in ("add", "sub"):
                self._sat = {
                    "reg": instr.srcs[0].name,
                    "phase": "hi",
                    "hi": int(instr.srcs[1].value),
                    "lo": None,
                    "entry": last["entry"],
                    "op": last["op"],
                }
                return True
            self._abort(AbortReason.IDIOM_BROKEN,
                        "compare of vector data outside a known idiom")
        # Min/max: register-to-register move of vector data.
        if opcode in ("mov", "fmov") and len(instr.srcs) == 1 \
                and isinstance(instr.srcs[0], Reg) \
                and self._kind(instr.srcs[0].name) is RegKind.VECTOR:
            self._minmax = {
                "dst": instr.dst.name,
                "a": instr.srcs[0].name,
                "float": opcode == "fmov",
                "phase": "copied",
                "b": None,
                "pc": pc,
            }
            return True
        return False

    def _advance_sat(self, instr: Instruction) -> bool:
        sat = self._sat
        opcode = instr.opcode
        reg = sat["reg"]
        if sat["phase"] == "hi" and opcode == "movgt" \
                and instr.dst is not None and instr.dst.name == reg \
                and len(instr.srcs) == 1 and isinstance(instr.srcs[0], Imm) \
                and int(instr.srcs[0].value) == sat["hi"]:
            sat["phase"] = "hi_done"
            return True
        if sat["phase"] == "hi_done" and opcode == "cmp" \
                and isinstance(instr.srcs[0], Reg) \
                and instr.srcs[0].name == reg \
                and isinstance(instr.srcs[1], Imm):
            sat["phase"] = "lo"
            sat["lo"] = int(instr.srcs[1].value)
            return True
        if sat["phase"] == "lo" and opcode == "movlt" \
                and instr.dst is not None and instr.dst.name == reg \
                and len(instr.srcs) == 1 and isinstance(instr.srcs[0], Imm) \
                and int(instr.srcs[0].value) == sat["lo"]:
            self._complete_sat()
            return True
        self._abort(AbortReason.IDIOM_BROKEN,
                    f"saturation idiom broken by {instr.opcode!r}")
        return True  # pragma: no cover

    def _complete_sat(self) -> None:
        sat = self._sat
        self._sat = None
        elem = sat_elem_for_bounds(sat["hi"], sat["lo"])
        if elem is None:
            self._abort(AbortReason.UNSUPPORTED_SATURATION,
                        f"clamp bounds ({sat['hi']}, {sat['lo']})")
        if not self.config.supports_saturation:
            self._abort(AbortReason.UNSUPPORTED_SATURATION,
                        "accelerator generation lacks vqadd/vqsub")
        entry: UEntry = sat["entry"]
        old = entry.instructions[0]
        opcode = "vqadd" if sat["op"] == "add" else "vqsub"
        self._require_op(opcode)
        entry.instructions[0] = Instruction(
            opcode, dst=old.dst, srcs=old.srcs, elem=elem,
            comment="collapsed saturation idiom",
        )
        self.regs.get(sat["reg"]).elem = elem
        self._last_dp = None

    def _advance_minmax(self, instr: Instruction) -> bool:
        cand = self._minmax
        cmp_op = "fcmp" if cand["float"] else "cmp"
        mov = "fmov" if cand["float"] else "mov"
        if cand["phase"] == "copied" and instr.opcode == cmp_op \
                and len(instr.srcs) == 2 \
                and isinstance(instr.srcs[0], Reg) \
                and instr.srcs[0].name == cand["a"] \
                and isinstance(instr.srcs[1], Reg) \
                and self._kind(instr.srcs[1].name) is RegKind.VECTOR:
            cand["phase"] = "compared"
            cand["b"] = instr.srcs[1].name
            return True
        if cand["phase"] == "compared" \
                and instr.opcode in (f"{mov}gt", f"{mov}lt") \
                and instr.dst is not None and instr.dst.name == cand["dst"] \
                and len(instr.srcs) == 1 and isinstance(instr.srcs[0], Reg) \
                and instr.srcs[0].name == cand["b"]:
            opcode = "vmin" if instr.opcode.endswith("gt") else "vmax"
            self._complete_minmax(opcode)
            return True
        self._abort(AbortReason.IDIOM_BROKEN,
                    f"min/max idiom broken by {instr.opcode!r}")
        return True  # pragma: no cover

    def _complete_minmax(self, opcode: str) -> None:
        cand = self._minmax
        self._minmax = None
        self._require_op(opcode)
        a_state = self.regs.get(cand["a"])
        elem = a_state.elem or ("f32" if cand["float"] else "i32")
        dst_v = vector_reg_for(cand["dst"])
        instr = Instruction(
            opcode, dst=Reg(dst_v),
            srcs=(Reg(vector_reg_for(cand["a"])), Reg(vector_reg_for(cand["b"]))),
            elem=elem, comment="collapsed min/max idiom",
        )
        # The idiom spans three PCs; anchor the entry at the opening move so
        # loop-header labels land correctly in the fragment.
        entry = self.buffer.append(cand["pc"], [instr], scope=len(self.scopes))
        self.regs.mark(cand["dst"], RegKind.VECTOR, elem=elem)
        self._last_dp = {"dst": cand["dst"], "op": opcode, "entry": entry}

    # -- Table 3 rules ---------------------------------------------------------------------

    def _rule_move(self, pc: int, instr: Instruction) -> None:
        opcode = instr.opcode
        if OPCODES[opcode].reads_flags:
            # A conditional move outside an idiom: legal only on scalars.
            if self._vector_operands(instr) or (
                    instr.dst and self._kind(instr.dst.name) is RegKind.VECTOR):
                self._abort(AbortReason.IDIOM_BROKEN,
                            "conditional move of vector data outside idiom")
            self._pass_through(pc, instr)
            if instr.dst is not None:
                self.regs.mark(instr.dst.name, RegKind.SCALAR)
            return
        src = instr.srcs[0]
        dst = instr.dst.name
        if isinstance(src, Imm):
            # Table 3 rule 1: `mov rX, #0` opens a loop scope and marks the
            # induction variable.
            if opcode == "mov" and is_int_reg(dst) and int(src.value) == 0:
                self.scopes.append(_Scope(induction=dst, start_pc=pc))
                self.regs.mark(dst, RegKind.INDUCTION)
            else:
                self.regs.mark(dst, RegKind.SCALAR)
            self._pass_through(pc, instr)
            return
        if isinstance(src, Reg):
            if self._kind(src.name) is RegKind.VECTOR:
                self._abort(AbortReason.INCONSISTENT,
                            "move of vector data outside idiom")
            self.regs.mark(dst, RegKind.SCALAR)
            self._pass_through(pc, instr)
            return
        self._abort(AbortReason.ILLEGAL_OPCODE, f"bad move at pc={pc}")

    def _rule_cmp(self, pc: int, instr: Instruction) -> None:
        a, b = instr.srcs
        if isinstance(a, Reg) and self._kind(a.name) is RegKind.INDUCTION \
                and isinstance(b, Imm):
            scope = self._scope()
            if scope is not None and scope.induction == a.name \
                    and scope.trip is None:
                scope.trip = int(b.value)
                scope.used = True
            self._pass_through(pc, instr)
            return
        for operand in (a, b):
            if isinstance(operand, Reg) \
                    and self._kind(operand.name) is RegKind.VECTOR:
                self._abort(AbortReason.IDIOM_BROKEN,
                            "compare of vector data outside idiom")
        self._pass_through(pc, instr)

    def _rule_load(self, pc: int, instr: Instruction, event: RetireEvent) -> None:
        elem, signed = LOAD_ELEM[instr.opcode]
        mem = instr.mem
        dst = instr.dst.name
        scope = self._scope()
        if isinstance(mem.base, Sym) and isinstance(mem.index, Reg):
            if not signed:
                # The vector ISA's loads sign-extend; translating an
                # unsigned scalar load would silently change semantics
                # for lane values with the top bit set.
                self._abort(AbortReason.ILLEGAL_OPCODE,
                            f"unsigned load {instr.opcode!r} has no vector "
                            "equivalent")
            index_kind = self._kind(mem.index.name)
            if scope is not None and mem.index.name == scope.induction \
                    and index_kind is RegKind.INDUCTION:
                # Rule 2: straight vector load.
                scope.used = True
                dst_v = vector_reg_for(dst)
                vld = Instruction("vld", dst=Reg(dst_v),
                                  mem=Mem(base=mem.base,
                                          index=Reg(scope.induction)),
                                  elem=elem)
                entry = self.buffer.append(pc, [vld], loads_reg=dst_v,
                                           scope=len(self.scopes))
                trace = ValueTrace(load_pc=pc, array=mem.base.name,
                                   ucode_uid=entry.uid)
                trace.record(event.value, self.config.value_history_limit)
                self.collectors[pc] = trace
                self.regs.mark(dst, RegKind.VECTOR, elem=elem, trace=trace)
                return
            if index_kind is RegKind.OFFSET_VECTOR:
                # Rule 3: load through induction+offsets = load + permute.
                if scope is not None:
                    scope.used = True
                state = self.regs.get(mem.index.name)
                dst_v = vector_reg_for(dst)
                induction = scope.induction if scope else mem.index.name
                vld = Instruction("vld", dst=Reg(dst_v),
                                  mem=Mem(base=mem.base, index=Reg(induction)),
                                  elem=elem)
                entry = self.buffer.append(pc, [vld, _PERM_PLACEHOLDER],
                                           scope=len(self.scopes))
                self.pending_perms.append(_PendingPerm(
                    kind="load", entry=entry, trace=state.trace, reg=dst_v,
                    elem=elem, placeholder_index=1,
                ))
                trace = ValueTrace(load_pc=pc, array=mem.base.name,
                                   ucode_uid=entry.uid)
                trace.record(event.value, self.config.value_history_limit)
                self.collectors[pc] = trace
                self.regs.mark(dst, RegKind.VECTOR, elem=elem, trace=trace)
                return
            self._abort(AbortReason.INCONSISTENT,
                        f"load with untracked index register at pc={pc}")
        # Scalar-addressed load (constant index or register base): rule 11.
        if isinstance(mem.index, Reg) \
                and self._kind(mem.index.name) is RegKind.VECTOR:
            self._abort(AbortReason.INCONSISTENT, "vector-indexed scalar load")
        self._pass_through(pc, instr)
        self.regs.mark(dst, RegKind.SCALAR, elem=elem)

    def _rule_store(self, pc: int, instr: Instruction) -> None:
        elem = STORE_ELEM[instr.opcode]
        mem = instr.mem
        value = instr.srcs[0]
        value_kind = self._kind(value.name)
        scope = self._scope()
        if isinstance(mem.base, Sym) and isinstance(mem.index, Reg):
            index_kind = self._kind(mem.index.name)
            if scope is not None and mem.index.name == scope.induction \
                    and index_kind is RegKind.INDUCTION:
                # Rule 4: straight vector store.
                scope.used = True
                if value_kind is not RegKind.VECTOR:
                    self._abort(AbortReason.INCONSISTENT,
                                "store of scalar data indexed by induction")
                vst = Instruction("vst", srcs=(Reg(vector_reg_for(value.name)),),
                                  mem=Mem(base=mem.base,
                                          index=Reg(scope.induction)),
                                  elem=elem)
                self.buffer.append(pc, [vst], scope=len(self.scopes))
                return
            if index_kind is RegKind.OFFSET_VECTOR:
                # Rule 5: scatter store = permute + store.
                if scope is not None:
                    scope.used = True
                if value_kind is not RegKind.VECTOR:
                    self._abort(AbortReason.INCONSISTENT,
                                "scatter store of scalar data")
                state = self.regs.get(mem.index.name)
                data_v = vector_reg_for(value.name)
                induction = scope.induction if scope else mem.index.name
                vst = Instruction("vst", srcs=(Reg(data_v),),
                                  mem=Mem(base=mem.base, index=Reg(induction)),
                                  elem=elem)
                entry = self.buffer.append(pc, [_PERM_PLACEHOLDER, vst],
                                           scope=len(self.scopes))
                self.pending_perms.append(_PendingPerm(
                    kind="store", entry=entry, trace=state.trace, reg=data_v,
                    elem=elem, placeholder_index=0,
                ))
                return
            self._abort(AbortReason.INCONSISTENT,
                        f"store with untracked index register at pc={pc}")
        if value_kind is RegKind.VECTOR:
            self._abort(AbortReason.INCONSISTENT,
                        "vector value stored through scalar address")
        self._pass_through(pc, instr)

    def _rule_dp(self, pc: int, instr: Instruction) -> None:
        opcode = instr.opcode
        dst = instr.dst.name if instr.dst is not None else None
        srcs = instr.srcs
        scope = self._scope()

        # Rule 10: induction increment.
        if opcode == "add" and scope is not None and dst == scope.induction \
                and len(srcs) == 2 and isinstance(srcs[0], Reg) \
                and srcs[0].name == scope.induction \
                and isinstance(srcs[1], Imm):
            if int(srcs[1].value) != 1:
                self._abort(AbortReason.MALFORMED_LOOP,
                            "induction increment is not 1")
            entry = self._pass_through(pc, instr)
            scope.increment_entry = entry
            scope.used = True
            return

        # Rule 8: induction + loaded offsets -> offset vector, no microcode.
        # An add that *overwrites* its induction-candidate operand is not an
        # address computation — it is an accumulator update (handled by the
        # demotion + rule 9 below).
        if opcode == "add" and len(srcs) == 2 \
                and all(isinstance(s, Reg) for s in srcs):
            kinds = (self._kind(srcs[0].name), self._kind(srcs[1].name))
            if RegKind.INDUCTION in kinds:
                induction = srcs[0] if kinds[0] is RegKind.INDUCTION else srcs[1]
                other = srcs[1] if kinds[0] is RegKind.INDUCTION else srcs[0]
                other_state = self.regs.get(other.name)
                if dst != induction.name and other_state.kind is RegKind.VECTOR \
                        and other_state.has_values:
                    self.regs.mark(dst, RegKind.OFFSET_VECTOR,
                                   trace=other_state.trace)
                    return

        # A register initialized with `mov rX, #0` looks like an induction
        # variable (rule 1) until it is updated with vector data — then it
        # was really a reduction accumulator.  Demote it, discarding the
        # speculative loop scope, provided nothing used it as an induction
        # variable yet.
        if len(srcs) == 2 and isinstance(srcs[0], Reg) \
                and dst == srcs[0].name \
                and self._kind(dst) is RegKind.INDUCTION \
                and isinstance(srcs[1], Reg) \
                and self._kind(srcs[1].name) is RegKind.VECTOR:
            self._demote_unused_induction(dst)

        # Rule 9: reduction into a loop-carried scalar register.
        if len(srcs) == 2 and isinstance(srcs[0], Reg) \
                and dst == srcs[0].name \
                and self._kind(dst) in (RegKind.SCALAR, RegKind.UNKNOWN) \
                and isinstance(srcs[1], Reg) \
                and self._kind(srcs[1].name) is RegKind.VECTOR:
            red = SCALAR_TO_REDUCTION.get(opcode)
            if red is None:
                self._abort(AbortReason.ILLEGAL_OPCODE,
                            f"no reduction equivalent for {opcode!r}")
            self._require_op(red)
            src_state = self.regs.get(srcs[1].name)
            vred = Instruction(
                red, dst=Reg(dst),
                srcs=(Reg(dst), Reg(vector_reg_for(srcs[1].name))),
                elem=src_state.elem,
            )
            self.buffer.append(pc, [vred], scope=len(self.scopes))
            self.regs.mark(dst, RegKind.SCALAR, elem=src_state.elem)
            return

        vec_srcs = self._vector_operands(instr)
        if not vec_srcs:
            # Rule 11: all-scalar data processing passes through.
            for operand in srcs:
                if isinstance(operand, Reg) \
                        and self._kind(operand.name) is RegKind.OFFSET_VECTOR:
                    self._abort(AbortReason.INCONSISTENT,
                                "offset vector used in scalar computation")
            self._pass_through(pc, instr)
            if dst is not None:
                self.regs.mark(dst, RegKind.SCALAR)
            return

        # Rules 6/7: data processing on vector data.
        if not (isinstance(srcs[0], Reg)
                and self._kind(srcs[0].name) is RegKind.VECTOR):
            self._abort(AbortReason.INCONSISTENT,
                        f"vector operand in unsupported position at pc={pc}")
        a_state = self.regs.get(srcs[0].name)
        elem = a_state.elem or ("f32" if is_float_reg(srcs[0].name) else "i32")

        # `rsb X, A, #0` is the negate idiom.
        if opcode == "rsb" and len(srcs) == 2 and isinstance(srcs[1], Imm) \
                and int(srcs[1].value) == 0:
            self._require_op("vneg")
            dst_v = vector_reg_for(dst)
            instr_v = Instruction("vneg", dst=Reg(dst_v),
                                  srcs=(Reg(vector_reg_for(srcs[0].name)),),
                                  elem=elem)
            self.buffer.append(pc, [instr_v], scope=len(self.scopes))
            self.regs.mark(dst, RegKind.VECTOR, elem=elem)
            return

        vop = SCALAR_TO_VECTOR.get(opcode)
        if vop is None:
            self._abort(AbortReason.ILLEGAL_OPCODE,
                        f"no vector equivalent for {opcode!r}")
        self._require_op(vop)
        dst_v = vector_reg_for(dst)
        operand_b = srcs[1] if len(srcs) > 1 else None
        pending_const: Optional[Tuple[ValueTrace, str]] = None
        if operand_b is None:
            new_srcs: Tuple = (Reg(vector_reg_for(srcs[0].name)),)
        elif isinstance(operand_b, Imm):
            # Rule for category 2: vector op with scalar-supported constant.
            new_srcs = (Reg(vector_reg_for(srcs[0].name)), operand_b)
        elif isinstance(operand_b, Reg):
            b_kind = self._kind(operand_b.name)
            if b_kind is RegKind.VECTOR:
                b_state = self.regs.get(operand_b.name)
                new_srcs = (Reg(vector_reg_for(srcs[0].name)),
                            Reg(vector_reg_for(operand_b.name)))
                # Rule 7: a cross-bank operand with loaded values is a lane
                # constant/mask; schedule a rewrite to a vector immediate.
                if self.config.const_immediates and b_state.has_values \
                        and is_int_reg(operand_b.name) \
                        and is_float_reg(srcs[0].name):
                    pending_const = (b_state.trace,
                                     vector_reg_for(operand_b.name))
            elif b_kind in (RegKind.SCALAR, RegKind.UNKNOWN, RegKind.INDUCTION):
                self._abort(AbortReason.INCONSISTENT,
                            "mixed vector/scalar operands at pc="
                            f"{pc}")
            else:
                self._abort(AbortReason.INCONSISTENT,
                            "offset vector used as data operand")
        else:
            self._abort(AbortReason.ILLEGAL_OPCODE, f"bad operand at pc={pc}")
        instr_v = Instruction(vop, dst=Reg(dst_v), srcs=new_srcs, elem=elem)
        entry = self.buffer.append(pc, [instr_v], scope=len(self.scopes))
        if pending_const is not None:
            self.pending_consts.append(_PendingConst(
                entry=entry, slot=1, trace=pending_const[0],
                src_vreg=pending_const[1],
            ))
        self.regs.mark(dst, RegKind.VECTOR, elem=elem)
        self._last_dp = {"dst": dst, "op": opcode, "entry": entry}

    def _rule_branch(self, pc: int, instr: Instruction) -> None:
        spec = OPCODES[instr.opcode]
        target_pc = self.resolve_label(instr.target)
        scope = self._scope()
        if spec.reads_flags and target_pc <= pc and scope is not None \
                and not scope.closed:
            scope.closed = True
            self._pass_through(pc, instr)
            return
        self._abort(AbortReason.MALFORMED_LOOP,
                    f"unsupported branch at pc={pc}")

    # -- finalization --------------------------------------------------------------------------

    def _finalize(self, ret_cycle: int, observed: int) -> MicrocodeEntry:
        if self._sat is not None or self._minmax is not None:
            self._abort(AbortReason.IDIOM_BROKEN, "idiom left open at return")
        if not self.scopes:
            self._abort(AbortReason.NO_LOOP, "no loop found in region")
        for scope in self.scopes:
            if not scope.closed or scope.trip is None \
                    or scope.increment_entry is None:
                self._abort(AbortReason.MALFORMED_LOOP,
                            "loop without trip/increment/back-branch")
            scope.effective_width = min(self.config.width,
                                        _largest_pow2_divisor(scope.trip))
        width = min(scope.effective_width for scope in self.scopes)
        if width < 2:
            self._abort(AbortReason.TRIP_NOT_VECTORIZABLE,
                        "trip count has no usable power-of-two factor")

        for scope in self.scopes:
            old = scope.increment_entry.instructions[0]
            scope.increment_entry.instructions[0] = Instruction(
                "add", dst=old.dst, srcs=(old.srcs[0], Imm(width)),
                comment="induction advance = effective SIMD width",
            )

        cam = PermutationCAM(width, self.config.permutations)
        for pending in self.pending_perms:
            self._resolve_perm(pending, cam, width)
        for pending in self.pending_consts:
            self._resolve_const(pending, width)
        # Collapse to fixpoint: rewriting a later operand to an immediate
        # can make an earlier kept load dead (e.g. the same mask array
        # loaded once per fissioned loop).
        traces = [p.trace for p in self.pending_perms + self.pending_consts]
        changed = True
        while changed:
            live_before = self.buffer.live_instruction_count()
            for trace in traces:
                self._collapse_offset_load(trace)
            changed = self.buffer.live_instruction_count() != live_before

        fragment = self._build_fragment(width)
        latency = self.config.cycles_per_instruction * observed
        return MicrocodeEntry(
            function=self.function or "?",
            fragment=fragment,
            width=width,
            ready_cycle=ret_cycle + latency,
            static_instructions=observed,
        )

    def _resolve_perm(self, pending: _PendingPerm, cam: PermutationCAM,
                      width: int) -> None:
        values = pending.trace.values if pending.trace else []
        if len(values) < width:
            self._abort(AbortReason.INSUFFICIENT_ITERATIONS,
                        "loop ran fewer iterations than the SIMD width")
        if any(v is None for v in values[:width]):
            self._abort(AbortReason.UNSUPPORTED_PATTERN,
                        "permutation offsets need observed data values "
                        "(unavailable at decode time)")
        offsets = [int(v) for v in values[:width]]
        for i, value in enumerate(values):
            if int(value) != offsets[i % width]:
                self._abort(AbortReason.UNSUPPORTED_PATTERN,
                            "offset array is not width-periodic")
        pattern = cam.lookup(offsets)
        if pattern is None:
            self._abort(AbortReason.UNSUPPORTED_PATTERN,
                        f"offset signature {offsets} missed the CAM")
        self._require_op({"bfly": "vbfly", "rev": "vrev",
                          "rot": "vrot"}[pattern.kind])
        if pending.kind == "store":
            # Scatter: permute the data into the scratch register, then
            # retarget the store to read the scratch.
            pattern = pattern.inverse()
            scratch = _scratch_vreg(pending.reg)
            pending.entry.instructions[pending.placeholder_index] = \
                _perm_instruction(pattern, scratch, pending.reg, pending.elem)
            store = pending.entry.instructions[pending.placeholder_index + 1]
            pending.entry.instructions[pending.placeholder_index + 1] = \
                Instruction("vst", srcs=(Reg(scratch),), mem=store.mem,
                            elem=store.elem, comment=store.comment)
        else:
            pending.entry.instructions[pending.placeholder_index] = \
                _perm_instruction(pattern, pending.reg, pending.reg,
                                  pending.elem)
        self._collapse_offset_load(pending.trace)

    def _collapse_offset_load(self, trace: Optional[ValueTrace]) -> None:
        """Remove the vector load of an offset array once it is decoded.

        The paper's microcode-buffer alignment network performs exactly
        this collapse (section 4.1); it is legal only when no remaining
        microcode reads the loaded register.
        """
        if not self.config.collapse_offset_loads or trace is None \
                or trace.ucode_uid is None:
            return
        for entry in self.buffer:
            if entry.uid == trace.ucode_uid and entry.alive:
                if entry.loads_reg and not self.buffer.reg_still_read(
                        entry.loads_reg, excluding=entry):
                    self.buffer.kill(entry)
                return

    def _resolve_const(self, pending: _PendingConst, width: int) -> None:
        values = pending.trace.values
        if len(values) < width or any(v is None for v in values):
            return  # keep the always-correct register form
        lanes = values[:width]
        for i, value in enumerate(values):
            if value != lanes[i % width]:
                return  # not periodic at this width: keep register form
        instr = pending.entry.instructions[0]
        srcs = list(instr.srcs)
        srcs[pending.slot] = VImm(tuple(lanes))
        pending.entry.instructions[0] = Instruction(
            instr.opcode, dst=instr.dst, srcs=tuple(srcs), mem=instr.mem,
            target=instr.target, elem=instr.elem,
            comment="lane constant materialized as immediate",
        )
        self._collapse_offset_load(pending.trace)

    def _build_fragment(self, width: int) -> Program:
        fragment = Program(f"{self.function}_ucode_w{width}")
        entries = self.buffer.live_entries()
        # Map scalar branch-target PCs to fragment labels.
        targets: List[int] = []
        for entry in entries:
            for instr in entry.instructions:
                if instr.target is not None:
                    targets.append(self.resolve_label(instr.target))
        placed: Dict[int, str] = {}
        for entry in entries:
            for target_pc in sorted(set(targets)):
                if target_pc not in placed and entry.source_pc >= target_pc \
                        and entry.source_pc >= 0:
                    label = f"u{target_pc}"
                    fragment.mark_label(label)
                    placed[target_pc] = label
            for instr in entry.instructions:
                if instr.target is not None:
                    target_pc = self.resolve_label(instr.target)
                    instr = Instruction(
                        opcode=instr.opcode, dst=instr.dst, srcs=instr.srcs,
                        mem=instr.mem, target=placed[target_pc],
                        elem=instr.elem, comment=instr.comment,
                    )
                fragment.emit(instr)
        fragment.entry = "u_entry"
        if "u_entry" not in fragment.labels:
            fragment.labels["u_entry"] = 0
        return fragment
