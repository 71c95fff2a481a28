"""Cross-width retranslation of completed translations (Revec-style).

A :class:`~repro.core.translate.ucode_cache.MicrocodeEntry` is a
width-specific lowering of a scalar loop nest, but almost everything in
it is width-*parametric*: loads and stores step an induction variable,
permutations are defined by a period that tiles any width the period
divides, reductions fold however many lanes the hardware has, and trip
counts are compile-time constants.  This module re-lowers an existing
fragment translated at width ``W`` to another power-of-two width ``T``
(typically ``2W`` or ``W/2``) **without re-observing the scalar loop**:

* induction strides: every loop latch ``add rI, rI, #W`` becomes
  ``add rI, rI, #T`` (the latch is identified structurally — backward
  flags-branch, preceded by ``cmp rI, #trip`` and the increment —
  never by comments, which the canonical encoding drops),
* trip counts: unchanged, but ``T`` must divide each loop's trip,
* permutations: a pattern of period ``p`` is valid verbatim at any
  width ``p`` divides; upscaling always preserves this (``p | W``
  implies ``p | 2W``) while downscaling can reject,
* lane constants: a ``VImm`` materialized at width ``W`` extrapolates
  to ``2W`` by tiling (exactly the periodicity evidence the original
  translation relied on) and narrows to ``W/2`` only when its lanes are
  ``W/2``-periodic,
* reductions: ``vredsum``/``vredmin``/``vredmax`` take their fold depth
  from the machine's vector width, so they carry over unchanged.

Shapes that cannot rescale are rejected at plan time with a
:class:`RetranslateReason` — the cross-width analogue of the
translator's abort path: the caller falls back to a fresh runtime
translation and the loop is never executed incorrectly.  See
``docs/retranslation.md`` for the full rejection catalog.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.translate.translator import TranslatorConfig
from repro.core.translate.ucode_cache import MicrocodeEntry
from repro.isa.instructions import Imm, Instruction, Reg, VImm
from repro.isa.opcodes import OPCODES, InstrClass
from repro.isa.program import Program
from repro.memory.alignment import is_power_of_two
from repro.observability import telemetry as _telemetry
from repro.simd.permutations import PermPattern, PermutationCAM


class RetranslateReason(enum.Enum):
    """Why a cross-width retranslation was rejected at plan time."""

    BAD_WIDTH = "bad-width"
    NO_LOOP = "no-loop"
    MALFORMED_LOOP = "malformed-loop"
    TRIP_NOT_DIVISIBLE = "trip-not-divisible"
    NON_AFFINE_ACCESS = "non-affine-access"
    WIDTH_DEPENDENT_CONSTANT = "width-dependent-constant"
    PERM_PERIOD_EXCEEDS_WIDTH = "perm-period-exceeds-width"
    PERM_NOT_IN_REPERTOIRE = "perm-not-in-repertoire"
    UNSUPPORTED_OPCODE = "opcode-not-in-target-repertoire"


@dataclass
class RetranslationResult:
    """Outcome of re-lowering one entry to a new width."""

    function: str
    source_width: int
    target_width: int
    ok: bool
    reason: Optional[RetranslateReason] = None
    entry: Optional[MicrocodeEntry] = None
    detail: str = ""


class _Rejected(Exception):
    def __init__(self, reason: RetranslateReason, detail: str = "") -> None:
        super().__init__(detail or reason.value)
        self.reason = reason
        self.detail = detail


@dataclass
class _Latch:
    """One structural loop latch: increment / compare / back-branch."""

    induction: str
    trip: int
    add_pc: int


def _find_latches(fragment: Program, width: int) -> List[_Latch]:
    """Locate every loop latch of *fragment* structurally.

    The translator's finalize pass always emits the counted do-while
    shape ``add rI, rI, #width`` / ``cmp rI, #trip`` / ``b<cond> head``
    with the branch targeting a label at or before the increment.  Any
    backward flags-branch not preceded by that exact pair means the
    fragment is not something this pass understands.
    """
    instrs = fragment.instructions
    latches: List[_Latch] = []
    for pc, ins in enumerate(instrs):
        spec = OPCODES.get(ins.opcode)
        if spec is None or spec.cls is not InstrClass.BRANCH:
            continue
        if not spec.reads_flags or ins.target is None:
            raise _Rejected(RetranslateReason.MALFORMED_LOOP,
                            f"unconditional branch at pc={pc}")
        head = fragment.labels.get(ins.target)
        if head is None or head > pc:
            raise _Rejected(RetranslateReason.MALFORMED_LOOP,
                            f"branch at pc={pc} is not a loop back-edge")
        if pc < 2:
            raise _Rejected(RetranslateReason.MALFORMED_LOOP,
                            f"back-branch at pc={pc} has no latch prefix")
        cmp_i = instrs[pc - 1]
        add_i = instrs[pc - 2]
        if not (cmp_i.opcode == "cmp" and len(cmp_i.srcs) == 2
                and isinstance(cmp_i.srcs[0], Reg)
                and isinstance(cmp_i.srcs[1], Imm)):
            raise _Rejected(RetranslateReason.MALFORMED_LOOP,
                            f"no trip compare before back-branch at pc={pc}")
        induction = cmp_i.srcs[0].name
        if not (add_i.opcode == "add" and add_i.dst is not None
                and add_i.dst.name == induction
                and len(add_i.srcs) == 2
                and isinstance(add_i.srcs[0], Reg)
                and add_i.srcs[0].name == induction
                and isinstance(add_i.srcs[1], Imm)):
            raise _Rejected(RetranslateReason.MALFORMED_LOOP,
                            f"no induction increment before compare at "
                            f"pc={pc}")
        if int(add_i.srcs[1].value) != width:
            raise _Rejected(RetranslateReason.MALFORMED_LOOP,
                            f"induction stride {add_i.srcs[1].value} does "
                            f"not match source width {width}")
        latches.append(_Latch(induction=induction,
                              trip=int(cmp_i.srcs[1].value), add_pc=pc - 2))
    if not latches:
        raise _Rejected(RetranslateReason.NO_LOOP,
                        "fragment has no loop latch to rescale")
    return latches


def _rescale_lanes(lanes: Tuple, source: int, target: int) -> Tuple:
    """Re-tile a per-lane immediate from *source* to *target* lanes.

    Upscaling tiles the observed period — the same extrapolation the
    original translation performed when it proved the loaded values
    width-periodic.  Downscaling is legal only when the lanes are
    themselves ``target``-periodic.
    """
    if len(lanes) != source:
        raise _Rejected(
            RetranslateReason.WIDTH_DEPENDENT_CONSTANT,
            f"lane constant has {len(lanes)} lanes at width {source}")
    if target >= source:
        return tuple(lanes) * (target // source)
    head = tuple(lanes[:target])
    if head * (source // target) != tuple(lanes):
        raise _Rejected(
            RetranslateReason.WIDTH_DEPENDENT_CONSTANT,
            f"lane constant is not {target}-periodic: {list(lanes)}")
    return head


def _perm_pattern_of(ins: Instruction, pc: int) -> PermPattern:
    kind = {"vbfly": "bfly", "vrev": "rev", "vrot": "rot"}[ins.opcode]
    if len(ins.srcs) < 2 or not isinstance(ins.srcs[1], Imm):
        raise _Rejected(RetranslateReason.MALFORMED_LOOP,
                        f"permutation without period immediate at pc={pc}")
    period = int(ins.srcs[1].value)
    amount = 0
    if kind == "rot":
        if len(ins.srcs) < 3 or not isinstance(ins.srcs[2], Imm):
            raise _Rejected(RetranslateReason.MALFORMED_LOOP,
                            f"rotate without amount immediate at pc={pc}")
        amount = int(ins.srcs[2].value)
    try:
        return PermPattern(kind, period, amount)
    except ValueError as exc:
        raise _Rejected(RetranslateReason.MALFORMED_LOOP,
                        f"bad permutation operands at pc={pc}: {exc}")


_PERM_OPCODES = {"vbfly", "vrev", "vrot"}


def _check_instruction(ins: Instruction, pc: int, inductions: Set[str],
                       latch_pcs: Set[int], source: int, target: int,
                       config: TranslatorConfig,
                       cam: PermutationCAM) -> Instruction:
    """Validate one instruction at the target width; return its rewrite."""
    spec = OPCODES.get(ins.opcode)
    if spec is None:
        raise _Rejected(RetranslateReason.MALFORMED_LOOP,
                        f"unknown opcode {ins.opcode!r} at pc={pc}")

    if spec.is_vector:
        if not config.supports_op(ins.opcode):
            raise _Rejected(
                RetranslateReason.UNSUPPORTED_OPCODE,
                f"{ins.opcode} is not in the target generation's repertoire")
        # Vector memory accesses must be affine in a rescaled induction
        # variable; anything else changes meaning when the stride does.
        if ins.mem is not None:
            index = ins.mem.index
            if not (isinstance(index, Reg) and index.name in inductions):
                raise _Rejected(
                    RetranslateReason.NON_AFFINE_ACCESS,
                    f"vector access at pc={pc} is not indexed by a loop "
                    f"induction variable")
        if ins.opcode in _PERM_OPCODES:
            pattern = _perm_pattern_of(ins, pc)
            if target % pattern.period != 0:
                raise _Rejected(
                    RetranslateReason.PERM_PERIOD_EXCEEDS_WIDTH,
                    f"{pattern.name} does not tile width {target}")
            if cam.lookup(pattern.offsets(target)) is None:
                raise _Rejected(
                    RetranslateReason.PERM_NOT_IN_REPERTOIRE,
                    f"{pattern.name} missed the target CAM")
        new_srcs = None
        for slot, operand in enumerate(ins.srcs):
            if isinstance(operand, VImm):
                lanes = _rescale_lanes(operand.lanes, source, target)
                if new_srcs is None:
                    new_srcs = list(ins.srcs)
                new_srcs[slot] = VImm(lanes)
        if new_srcs is not None:
            return Instruction(ins.opcode, dst=ins.dst, srcs=tuple(new_srcs),
                               mem=ins.mem, target=ins.target, elem=ins.elem,
                               comment=ins.comment)
        return ins

    # Scalar instructions pass through unchanged — except the loop
    # latch increments, which carry the width and are rewritten by the
    # caller.  The only other induction write the translator emits is
    # the rule-1 zero init (``mov rI, #0``), which is width-independent;
    # any other update would desync the access stride from the
    # rewritten latch.
    if pc not in latch_pcs and ins.dst is not None \
            and ins.dst.name in inductions \
            and ins.opcode not in ("cmp", "fcmp"):
        is_zero_init = (ins.opcode == "mov" and len(ins.srcs) == 1
                        and isinstance(ins.srcs[0], Imm)
                        and int(ins.srcs[0].value) == 0)
        if not is_zero_init:
            raise _Rejected(
                RetranslateReason.NON_AFFINE_ACCESS,
                f"induction register {ins.dst.name} updated outside the "
                f"loop latch at pc={pc}")
    return ins


def retranslate_entry(entry: MicrocodeEntry, target_width: int,
                      config: TranslatorConfig) -> RetranslationResult:
    """Re-lower *entry* to *target_width* under the target *config*.

    *config* describes the **target** accelerator generation (its
    permutation repertoire and vector-opcode set gate the rewrite the
    same way they gate a fresh translation).  On success the result
    carries a new :class:`MicrocodeEntry` with ``ready_cycle=0`` —
    retranslation is an offline operation, not a per-run latency.
    """
    tel = _telemetry.get()
    tel.count("retranslate.attempts")

    def reject(reason: RetranslateReason,
               detail: str) -> RetranslationResult:
        tel.count("retranslate.abort." + reason.value)
        return RetranslationResult(
            function=entry.function, source_width=entry.width,
            target_width=target_width, ok=False, reason=reason,
            detail=detail)

    if target_width < 2 or not is_power_of_two(target_width) \
            or not is_power_of_two(entry.width):
        return reject(RetranslateReason.BAD_WIDTH,
                      f"cannot rescale width {entry.width} -> {target_width}")

    try:
        latches = _find_latches(entry.fragment, entry.width)
        for latch in latches:
            if latch.trip % target_width != 0:
                raise _Rejected(
                    RetranslateReason.TRIP_NOT_DIVISIBLE,
                    f"trip {latch.trip} is not a multiple of {target_width}")
        inductions = {latch.induction for latch in latches}
        latch_pcs = {latch.add_pc for latch in latches}
        cam = PermutationCAM(target_width, config.permutations)
        rewritten: List[Instruction] = []
        for pc, ins in enumerate(entry.fragment.instructions):
            if pc in latch_pcs:
                ins = Instruction(
                    "add", dst=ins.dst, srcs=(ins.srcs[0], Imm(target_width)),
                    comment="induction advance = effective SIMD width",
                )
            else:
                ins = _check_instruction(ins, pc, inductions, latch_pcs,
                                         entry.width, target_width,
                                         config, cam)
            rewritten.append(ins)
    except _Rejected as exc:
        return reject(exc.reason, exc.detail)

    # Rebuild under the canonical fresh-translation name so a
    # retranslated fragment and a fresh translation that happen to agree
    # byte-for-byte share one content key (and one set of fused tables).
    fragment = Program(f"{entry.function}_ucode_w{target_width}")
    fragment.emit_all(rewritten)
    fragment.labels = dict(entry.fragment.labels)
    fragment.entry = entry.fragment.entry

    new_entry = MicrocodeEntry(
        function=entry.function,
        fragment=fragment,
        width=target_width,
        ready_cycle=0,
        static_instructions=entry.static_instructions,
    )
    tel.count("retranslate.ok")
    return RetranslationResult(
        function=entry.function, source_width=entry.width,
        target_width=target_width, ok=True, entry=new_entry)


def retranslate_chain(entry: MicrocodeEntry, widths,
                      config_for: Dict[int, TranslatorConfig]
                      ) -> List[RetranslationResult]:
    """Retranslate *entry* through successive *widths* (W -> 2W -> 4W).

    Each step re-lowers the previous step's output, so the chain proves
    retranslation composes; it stops at the first rejection.
    """
    results: List[RetranslationResult] = []
    current = entry
    for width in widths:
        result = retranslate_entry(current, width, config_for[width])
        results.append(result)
        if not result.ok:
            break
        current = result.entry
    return results
