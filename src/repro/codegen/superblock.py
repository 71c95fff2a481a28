"""Superblock backend: window-closure and loop-timing-closure emission.

:func:`emit_fused_block` lowers a self-loop
:class:`~repro.codegen.ir.BlockSpec` (lifted by
:func:`repro.codegen.lift.lift_superblock`; :func:`loop_condition`
tells a self-loop from any other block) into the fast engine's window
closure ``run(state, limit, window) -> (trips, taken)``, and
:func:`emit_loop_timing` emits the whole-window
``_loop(pipe, trips, lats, last_taken, misses)`` timing closure
:meth:`~repro.pipeline.core.PipelineModel.account_loop` compiles for a
loop block on its first window (scalar self-loops and fragment loop
bodies alike).  Both compile their sources through
:mod:`repro.codegen.emit` (stable filenames).  A single block charge
compiles nothing: it runs
:meth:`~repro.pipeline.core.PipelineModel.account_block`'s row loop.
Every main-program instruction outside a self-loop runs on the
per-instruction path, so nothing else is fused.

The emitted code is semantically unchanged from the inline versions:

* the window closure runs the block's scalar shapes inline trip after
  trip in one loop, stepping the reference executor for the rest, with
  the registers and flags the inline lines name held in locals for the
  whole window (written back on exit and on a fault), and restores
  ``state.pc`` and the retired count on a fault.  Its recording form,
  ``run(state, limit, window, values)``, also appends the value each
  of a given set of inline loads wrote, for a dynamic translator's
  value collectors; with nothing to record the source is the plain
  form's.  Its form follows the
  loop's lift-only :class:`~repro.codegen.ir.LoopShape`: a prologue
  checks the affine accesses, the counted exit and the inductions'
  i32 range once per window (:func:`safe_trips`, :func:`exit_trips`,
  :func:`no_wrap_trips`), so a counted loop runs as
  ``for trips in range(n)`` with its compare hoisted out, and an
  affine access indexes a typed ``memoryview`` with no per-trip test;
* the loop-timing closure wraps ``account_block``'s row arithmetic in
  a per-trip loop with the taken/.../taken/``last_taken`` branch
  pattern, consuming the window's D-cache latencies and a constant
  I-cache hit term, with register ready times and the predictor
  counter held in locals for the whole window; it drops the hazard
  tests and ``last_completion`` updates its row order makes dead, and
  jumps over a steady run of all-hit trips arithmetically.

Telemetry: ``codegen.superblock.inline`` / ``.chained.<opcode>`` per
fused instruction, by the path it was emitted on.
"""

from __future__ import annotations

import re
import struct
import sys
from array import array
from typing import Dict, List, Optional

import numpy as np

from repro import arith
from repro.codegen import emit as _emit
from repro.codegen.ir import BlockSpec
from repro.codegen.lift import _BAD_CONSTANT, scalar_access
from repro.interp.executor import Executor
from repro.isa.decoded import (
    _INT_ALU_FAST,
    _resolve_target,
    _w32,
)
from repro.isa.instructions import Imm, Instruction, Reg
from repro.isa.opcodes import LOAD_ELEM, OPCODES, STORE_ELEM, InstrClass
from repro.isa.registers import is_float_reg, is_int_reg
from repro.memory.memory import _FMT, _INT_MASK
from repro.observability import telemetry as _telemetry
from repro.pipeline.core import _FLAGS

#: Condition suffix -> Python expression over the hoisted ``flags`` dict,
#: mirroring the reference executor's condition predicates one for one.
_COND_EXPRS = {
    "eq": 'flags["eq"]',
    "ne": 'not flags["eq"]',
    "lt": 'flags["lt"]',
    "le": 'flags["lt"] or flags["eq"]',
    "gt": 'flags["gt"]',
    "ge": 'flags["gt"] or flags["eq"]',
}

#: Condition suffix -> the comparison it takes of a ``cmp``'s operands.
_COND_OPS = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">",
             "ge": ">="}

#: A register-bank subscript -- ``ints['r2']``, ``floats['f1']``,
#: ``flags["lt"]`` -- the only way an emitted line names a register or
#: flag.  A window closure rewrites each to a local of the same name.
_BANK_REF = r"""\b(ints|floats|flags)\[['"](\w+)['"]\]"""

#: Integer ops whose :data:`~repro.isa.decoded._INT_ALU_FAST` form is
#: ``_w32(expr)``, as an expression template: the inline form tests the
#: i32 range itself and calls ``_w32`` only when the result wraps.
_WRAPPED_EXPRS = {"add": "{a} + {b}", "sub": "{a} - {b}"}

_I32_MIN = -0x80000000
_I32_MAX = 0x7FFFFFFF

#: Scalar load/store opcode -> the precompiled ``struct`` accessor its
#: inline form calls on the memory buffer, in
#: :class:`~repro.memory.memory.Memory`'s own formats (stores pack the
#: masked value unsigned, exactly as ``Memory.store`` does).
_ACCESSORS = {
    **{op: struct.Struct(_FMT[key]).unpack_from
       for op, key in LOAD_ELEM.items()},
    **{op: struct.Struct(_FMT[(elem, False)]).pack_into
       for op, elem in STORE_ELEM.items()},
}

#: Scalar load/store opcode -> the ``memoryview.cast`` format an affine
#: access indexes: the ``struct`` accessor's format in native byte
#: order, which is Memory's little-endian one only on a little-endian
#: host (:data:`_VIEWS`).
_VIEW_FORMATS = {
    **{op: _FMT[key][1] for op, key in LOAD_ELEM.items()},
    **{op: _FMT[(elem, False)][1] for op, elem in STORE_ELEM.items()},
}

#: Typed views read and write Memory's little-endian bytes only on a
#: little-endian host; elsewhere every access keeps its ``struct``
#: accessor.
_VIEWS = sys.byteorder == "little"


# -- window prologue arithmetic ----------------------------------------------
#
# A window closure calls these once per window, before its first trip,
# to lower its trip budget ``n`` to the trips it can run without a
# per-trip test.  Each returns a count in ``[0, n]`` (``[1, n]`` for
# exit_trips when ``n >= 1``); tests/test_window_prologue_property.py
# checks them against a trip-by-trip count.


def safe_trips(first: int, slope: int, n: int, hi: int,
               guards=()) -> int:
    """Leading trips, at most *n*, whose address ``first + t * slope``
    lies in ``[0, hi]`` and in none of the open intervals *guards*."""
    if slope > 0:
        m = (hi - first) // slope + 1 if first >= 0 else 0
    elif slope < 0:
        m = first // -slope + 1 if first <= hi else 0
    else:
        m = n if 0 <= first <= hi else 0
    if m > n:
        m = n
    for low, end in guards:
        if slope > 0:
            # The first trip past ``low`` is the only one that can land
            # inside before the walk passes ``end``.
            t = (low - first) // slope + 1
            if t < 0:
                t = 0
            if t < m and first + t * slope < end:
                m = t
        elif slope < 0:
            t = (first - end) // -slope + 1
            if t < 0:
                t = 0
            if t < m and first + t * slope > low:
                m = t
        elif low < first < end:
            m = 0
    return m if m > 0 else 0


def exit_trips(cond: str, value: int, step: int, bound: int,
               n: int) -> int:
    """Trips, at most *n*, up to and including the first trip ``t``
    whose compare of ``value + t * step`` with *bound* fails *cond*
    (``b<cond>`` falls through there); *n* if no trip before it does."""
    if cond in ("gt", "ge"):
        # v > b  <=>  -v < -b, and v >= b  <=>  -v <= -b.
        value, step, bound = -value, -step, -bound
        cond = "lt" if cond == "gt" else "le"
    if cond == "le":
        cond, bound = "lt", bound + 1
    if cond == "lt":
        if value >= bound:
            t = 0
        elif step <= 0:
            return n
        else:
            t = (bound - value + step - 1) // step
    elif cond == "ne":
        gap = bound - value
        if gap == 0:
            t = 0
        elif step == 0 or gap % step or gap // step < 0:
            return n
        else:
            t = gap // step
    else:  # eq
        if value != bound:
            t = 0
        elif step == 0:
            return n
        else:
            t = 1
    return t + 1 if t < n else n


def no_wrap_trips(value: int, step: int, n: int) -> int:
    """Leading trips, at most *n*, whose update of an induction from
    *value* by *step*, ``value + (t + 1) * step``, stays in the i32
    range (so it needs no wrap test)."""
    if step > 0:
        m = (_I32_MAX - value) // step
    elif step < 0:
        m = (value - _I32_MIN) // -step
    else:
        return n
    return m if m < n else n


def _address_expr(const: int, terms) -> str:
    """Source of ``const`` plus each ``(register, multiplier)`` term's
    register times its multiplier, over ``ints``."""
    parts = [f"ints[{reg!r}] * {mult}" if mult > 1 else f"ints[{reg!r}]"
             for reg, mult in terms]
    if const:
        parts.append(str(const))
    return " + ".join(parts)


def _access_target(instr: Instruction, bank: str) -> str:
    """The bank subscript a scalar load writes or a store reads."""
    reg = instr.dst if instr.opcode in LOAD_ELEM else instr.srcs[0]
    return f"{bank}[{reg.name!r}]"


def _memory_lines(instr: Instruction, ns: dict, state):
    """(lines, banks) for one scalar load or store, or None.

    The access runs on the hoisted memory buffer (``buf``) through a
    precompiled ``struct`` accessor, behind an inline test that is true
    exactly when :meth:`~repro.memory.memory.Memory._check_load` /
    ``_check_store`` would raise; only then is the check itself called,
    so a fault's type and text still come from ``Memory``.  The
    memory's size and read-only ranges are literals: both are fixed
    once the loader has placed the program.  A constant address is
    checked now — one that faults stays with the executor
    (:func:`~repro.codegen.lift.scalar_access`).
    """
    facts = scalar_access(instr, state)
    if facts is None:
        return None
    bank, nbytes, const, terms = facts
    load = instr.opcode in LOAD_ELEM
    lines: List[str] = []
    if terms:
        faults = " or ".join(
            [f"not 0 <= a <= {state.memory.size - nbytes}"]
            + [f"{low} < a < {end}"
               for low, end in _store_guards(state.memory, nbytes, load)])
        check = "_check_load" if load else "_check_store"
        lines += [f"a = {_address_expr(const, terms)}",
                  f"if {faults}:",
                  f"    state.memory.{check}(a, {nbytes})"]
        a = "a"
    else:
        a = str(const)
    lines += _struct_lines(instr, ns, bank, a)
    lines.append(f"_m({a})")
    return lines, {bank, "buf", "ints"} if terms else {bank, "buf"}


def _store_guards(memory, nbytes: int, load: bool):
    """The open intervals a store's address must avoid:
    ``Memory._check_store``'s overlap test ``a < end and a + n > start``
    solved for ``a``; none for a load."""
    return () if load else tuple((start - nbytes, end)
                                 for start, end in memory._ro_ranges)


def _struct_lines(instr: Instruction, ns: dict, bank: str,
                  a: str) -> List[str]:
    """A scalar access at address expression *a* through its
    precompiled ``struct`` accessor on ``buf``."""
    access = f"_{instr.opcode}"
    ns[access] = _ACCESSORS[instr.opcode]
    return _access_lines(instr, bank, f"{access}(buf, {a})[0]",
                         f"{access}(buf, {a}, {{}})")


def _view_lines(instr: Instruction, bank: str, view: str,
                index: str) -> List[str]:
    """A scalar access at element *index* of the typed memoryview
    *view*, which reads and writes exactly the bytes and values the
    ``struct`` accessor does (``tests/test_arith.py`` pins this)."""
    item = f"{view}[{index}]"
    return _access_lines(instr, bank, item, item + " = {}")


def _access_lines(instr: Instruction, bank: str, read: str,
                  write: str) -> List[str]:
    """A scalar load through the expression *read*, or a store of the
    register's value through the template *write*, in the element's
    own semantics."""
    opcode = instr.opcode
    target = _access_target(instr, bank)
    if opcode in LOAD_ELEM:
        if LOAD_ELEM[opcode][0] == "f32":
            # Unpacking '<f' yields an exact binary32 value, which
            # arith.f32 returns unchanged; only a NaN takes the rounding.
            return [f"v = {read}",
                    f"{target} = v if v == v else float(_f32(v))"]
        return [f"{target} = {read}"]
    elem = STORE_ELEM[opcode]
    # Stores write the value masked to its width, as Memory.store does.
    return [write.format(target if elem == "f32"
                         else f"{target} & {_INT_MASK[elem]}")]


def _float_operand(operand):
    """Source for a binary32 operand: a float register, or an immediate
    pre-rounded through float32 as the reference rounds operands
    (None when that literal does not exist)."""
    if isinstance(operand, Reg) and is_float_reg(operand.name):
        return f"floats[{operand.name!r}]"
    if isinstance(operand, Imm):
        try:
            value = float(np.float32(float(operand.value)))
        except _BAD_CONSTANT:
            return None
        return _emit.literal(value)
    return None


def _mask_lines(instr: Instruction, ns: dict):
    """(lines, banks) for the FFT mask idiom on float data --
    ``and Fd, Fa, Ri`` or ``orr Fd, Fa, Ri|Fb`` -- or None.

    The reference executor passes ``float(a)`` and ``_mask_bits(b)`` to
    :func:`~repro.arith.float_bitwise` (:func:`~repro.arith
    .float_or_floats` for an ``orr`` of two floats).  On register
    values those are ``a`` itself and ``b & 0xFFFFFFFF``: the float
    bank holds floats, the integer bank ints.
    """
    a_op, b_op = instr.srcs
    if instr.opcode not in ("and", "orr") or not (
            isinstance(a_op, Reg) and is_float_reg(a_op.name)
            and isinstance(b_op, Reg)):
        return None
    d, a, b = instr.dst.name, f"floats[{a_op.name!r}]", b_op.name
    if is_int_reg(b):
        ns["_fbw"] = arith.float_bitwise
        op = "fand" if instr.opcode == "and" else "forr"
        return ([f"floats[{d!r}] = _fbw({op!r}, {a}, "
                 f"ints[{b!r}] & 0xFFFFFFFF)"], {"ints", "floats"})
    if instr.opcode == "orr" and is_float_reg(b):
        ns["_for"] = arith.float_or_floats
        return [f"floats[{d!r}] = _for({a}, floats[{b!r}])"], {"floats"}
    return None


def _inline_lines(pc: int, instr: Instruction, ns: dict, state):
    """(source lines, hoisted banks) for one instruction, or None.

    Lines assume ``ints`` / ``floats`` / ``flags`` locals bound to the
    live register banks (dict identity is stable for the whole run:
    :class:`~repro.isa.registers.RegisterFile` mutates its banks in
    place, never rebinding them) and, for memory accesses, ``buf``
    bound to the memory's byte buffer.  They name a register or flag
    only as a bank subscript (:data:`_BANK_REF`), which a window
    closure turns into a local.  Each inline form is only used
    under exactly the conditions for which it computes what the
    reference executor computes, by the same (documented) identities.
    *state* is the run's :class:`~repro.interp.state.MachineState`,
    read here and never bound into *ns*.
    """
    spec = OPCODES.get(instr.opcode)
    if spec is None:
        return None
    cls = spec.cls
    opcode = instr.opcode

    if cls in (InstrClass.ALU, InstrClass.MUL):
        if len(instr.srcs) != 2 or instr.dst is None:
            return None
        if is_float_reg(instr.dst.name):
            return _mask_lines(instr, ns)
        fast = _INT_ALU_FAST.get(opcode)
        if fast is None or not is_int_reg(instr.dst.name):
            return None
        a_op, b_op = instr.srcs
        if not (isinstance(a_op, Reg) and is_int_reg(a_op.name)):
            return None
        d, a = instr.dst.name, f"ints[{a_op.name!r}]"
        if isinstance(b_op, Reg) and is_int_reg(b_op.name):
            b = f"ints[{b_op.name!r}]"
        elif isinstance(b_op, Imm):
            try:
                b = repr(int(b_op.value))
            except _BAD_CONSTANT:
                return None
        else:
            return None
        expr = _WRAPPED_EXPRS.get(opcode)
        if expr is not None:
            # _w32 is the identity on the i32 range.
            return ([f"v = {expr.format(a=a, b=b)}",
                     f"ints[{d!r}] = v if {_I32_MIN} <= v <= {_I32_MAX} "
                     f"else _w32(v)"], {"ints"})
        # Underscored: a window closure's locals take register names,
        # ``f0``..``f15`` among them.
        fn = f"_alu{pc}"
        ns[fn] = fast
        return [f"ints[{d!r}] = {fn}({a}, {b})"], {"ints"}

    if cls is InstrClass.CMP:
        if len(instr.srcs) != 2:
            return None
        a_op, b_op = instr.srcs
        if not (isinstance(a_op, Reg) and is_int_reg(a_op.name)):
            return None
        a = a_op.name
        if isinstance(b_op, Imm):
            lit = _emit.literal(b_op.value)
            if lit is None:
                return None
            return ([f"a = ints[{a!r}]",
                     f'flags["lt"] = a < {lit}',
                     f'flags["eq"] = a == {lit}',
                     f'flags["gt"] = a > {lit}'], {"ints", "flags"})
        if isinstance(b_op, Reg) and is_int_reg(b_op.name):
            return ([f"a = ints[{a!r}]",
                     f"b = ints[{b_op.name!r}]",
                     'flags["lt"] = a < b',
                     'flags["eq"] = a == b',
                     'flags["gt"] = a > b'], {"ints", "flags"})
        return None

    if cls is InstrClass.MOVE:
        if len(instr.srcs) != 1 or instr.dst is None:
            return None
        base = "fmov" if opcode.startswith("fmov") else "mov"
        cond = opcode[len(base):]
        guard = _COND_EXPRS.get(cond) if cond else None
        if cond and guard is None:
            return None
        src = instr.srcs[0]
        d = instr.dst.name
        lines = needs = None
        if base == "mov" and is_int_reg(d):
            if isinstance(src, Imm):
                try:
                    value = arith.wrap_int(int(src.value))
                except _BAD_CONSTANT:
                    return None
                lines, needs = [f"ints[{d!r}] = {value}"], {"ints"}
            elif isinstance(src, Reg) and is_int_reg(src.name):
                # The integer bank invariantly holds wrapped ints, so
                # wrap_int(int(x)) is the identity here.
                lines = [f"ints[{d!r}] = ints[{src.name!r}]"]
                needs = {"ints"}
        if base == "fmov" and is_float_reg(d):
            if isinstance(src, Imm):
                try:
                    value = arith.f32(float(src.value))
                except _BAD_CONSTANT:
                    return None
                lit = _emit.literal(value)
                if lit is None:
                    return None
                lines, needs = [f"floats[{d!r}] = {lit}"], {"floats"}
            elif isinstance(src, Reg) and is_float_reg(src.name):
                # Float registers invariantly hold exact binary32 values,
                # so f32(float(x)) is the identity here.
                lines = [f"floats[{d!r}] = floats[{src.name!r}]"]
                needs = {"floats"}
        if lines is None:
            return None
        if guard is None:
            return lines, needs
        # A false condition retires without touching the destination.
        return ([f"if {guard}:"] + ["    " + line for line in lines],
                needs | {"flags"})

    if cls in (InstrClass.FALU, InstrClass.FMUL):
        if instr.dst is None or not is_float_reg(instr.dst.name):
            return None
        d = instr.dst.name
        srcs = instr.srcs
        if opcode in ("fabs", "fneg"):
            if len(srcs) != 1 or not (isinstance(srcs[0], Reg)
                                      and is_float_reg(srcs[0].name)):
                return None
            # Exact on binary32 values: float32 and binary64 abs/negate
            # both just clear/flip the sign bit, NaNs included.
            op = "abs" if opcode == "fabs" else "-"
            return ([f"floats[{d!r}] = {op}(floats[{srcs[0].name!r}])"],
                    {"floats"})
        if len(srcs) != 2 or not (isinstance(srcs[0], Reg)
                                  and is_float_reg(srcs[0].name)):
            return None
        a = f"floats[{srcs[0].name!r}]"
        b = _float_operand(srcs[1])
        if b is None:
            return None
        if opcode in ("fmax", "fmin"):
            # arith.float_op's builtin max/min over float32 scalars:
            # the second operand only if it compares strictly greater
            # (less), else the first; so ties and NaNs keep ``a``.
            # Both operands are exact binary32 values, so comparing
            # them as binary64 decides the same way.
            rel = ">" if opcode == "fmax" else "<"
            return ([f"x = {a}", f"y = {b}",
                     f"floats[{d!r}] = y if y {rel} x else x"],
                    {"floats"})
        py_sym = {"fadd": "+", "fsub": "-", "fmul": "*"}.get(opcode)
        if py_sym is None:
            return None
        # binary64 +/-/* of binary32 operands followed by one rounding
        # to binary32 is correctly rounded (2p+2 <= 53): identical to
        # the reference's float32 arithmetic (float registers always hold
        # exact binary32 values: every write path rounds).  A store into
        # the block's one-element array('f') ``_r`` is that rounding:
        # the C double-to-float conversion np.float32 also makes.  Which
        # NaN payload survives depends on the operand order the
        # arithmetic uses, so a NaN result comes from the reference's
        # own float_op.
        ns.setdefault("_r", array("f", (0.0,)))
        ns["_fop"] = arith.float_op
        return ([f"v = {a} {py_sym} {b}",
                 "if v == v:",
                 "    _r[0] = v",
                 f"    floats[{d!r}] = _r[0]",
                 "else:",
                 f"    floats[{d!r}] = _fop({opcode!r}, {a}, {b})"],
                {"floats"})

    if not spec.is_vector and cls in (InstrClass.LOAD, InstrClass.STORE):
        return _memory_lines(instr, ns, state)

    return None


def loop_condition(spec: BlockSpec, program) -> Optional[str]:
    """The condition under which a self-loop block's closing branch is
    taken, as a source expression over the ``flags`` bank (``"True"``
    for ``b``), or None when *spec* is not a self-loop.

    A self-loop ends in an inline branch -- ``b`` or a condition in
    :data:`_COND_EXPRS` -- whose resolved target is the block's own
    entry.  :class:`~repro.interp.turbo.SuperblockTable` fuses a block
    only when this holds, and :func:`emit_fused_block` emits its
    window loop from the result.
    """
    if spec.term != 1:
        return None
    instr = program.instructions[spec.pcs[-1]]
    target, terr = _resolve_target(program, instr.target)
    if terr is not None or target != spec.entry:
        return None
    if instr.opcode == "b":
        return "True"
    return _COND_EXPRS.get(instr.opcode[1:])


def emit_fused_block(spec: BlockSpec, table, recorded=()):
    """The window closure of one lifted self-loop block.

    *table* is the owning :class:`~repro.interp.turbo.SuperblockTable`
    — the emitter pulls the instructions, their timing metadata, the
    loop's lift-only :class:`~repro.codegen.ir.LoopShape` and the run's
    state from it.  *spec* must be a self-loop (:func:`loop_condition`).
    The closure, ``run(state, limit, window) -> (trips, taken)``, runs
    trips of the block until the branch falls through or *limit* trips
    have run, and returns the trip count and the last trip's taken
    flag.  The registers and flags its lines name live in locals for
    the whole window: loaded on entry, written back on exit and on a
    fault.  A block that steps the executor keeps them in the banks,
    where the step reads and writes them.  A fault raises from the
    faulting pc exactly like the per-instruction engines.

    A prologue, run once per window after the locals are loaded,
    lowers the trip budget ``n`` from *limit* with the module's
    prologue helpers: to the counted loop's exit trip
    (:func:`exit_trips`), to the trips before an induction that an
    affine address or the compare reads would leave the i32 range
    (:func:`no_wrap_trips`), and to the leading trips on which every
    affine access passes the size and read-only tests
    (:func:`safe_trips`).  When ``n`` ends at 0 the closure returns
    ``(0, False)`` having touched nothing, and the machine runs that
    step per instruction, so a fault, a wrap or an exit happens at its
    exact instruction in the reference executor.  The body then runs
    without those tests:

    * an affine access indexes a typed ``memoryview`` cast of the
      memory buffer when its slope is a multiple of its size (on a
      little-endian host), starting at its first address modulo its
      size; otherwise it calls its ``struct`` accessor on
      ``first + trips * slope``;
    * a counted loop runs ``for trips in range(n)``: its compare emits
      nothing per trip and sets the flags once after the loop (on a
      fault, from the compares that trip count had made);
    * a bounded induction's update is a plain add;
    * every other access keeps its per-trip test (:func:`_memory_lines`).

    When every memory access is affine, the closure writes only the
    first trip's addresses to *window*, and the machine extends them by
    the loop's slopes (``LoopShape.slopes``); otherwise every trip's
    effective addresses are appended to *window*.

    A shape the emitter does not inline is one step of the reference
    :class:`~repro.interp.executor.Executor` on the block's own
    :class:`~repro.isa.instructions.Instruction`: the block sets
    ``state.pc`` (the executor reads it), then reads the event's
    ``mem_addr`` for a memory op.  Since the executor counts itself
    retired, the block sets the retired count from a snapshot taken on
    entry, on exit and on a fault alike.

    Only the block's own objects and module-level helpers (the
    ``Executor`` class among them) are bound into the closure's
    namespace, never anything run-sized (memory, its buffer or a view
    of it, the state, its symbol table or a window): ``exec`` ties the
    namespace and the function into a reference cycle, which would keep
    them alive past the run until the cyclic collector ran.  Whatever
    the body needs of the run's state it reads from the ``state``
    argument, or was folded into a literal at fuse time.  The typed
    views are locals, released on the way out.

    *recorded* (body pcs, in body order) asks for the recording form,
    ``run(state, limit, window, values)``, which a dynamic translator's
    observation window runs (``DynamicTranslator.pending_values``):
    after each recorded load it appends the value the load wrote to its
    register to *values*, trip-major and in body order.  The value is
    the load's own, never read back from memory, where a later store of
    the same trip may already have replaced it.  Only an inline load is
    recorded: when a recorded pc is anything else this returns None.
    With nothing recorded the source is the plain form's.

    Telemetry: ``codegen.superblock.inline`` counts the instructions
    emitted as inline lines and ``codegen.superblock.chained.<opcode>``
    the ones emitted as an executor step.
    """
    instructions = table.instructions
    metas = table.metas
    state = table.state
    entry = spec.entry
    pcs = spec.pcs
    cond = loop_condition(spec, table.program)
    if cond is None:
        raise ValueError(f"block at pc {entry} is not a self-loop")
    for pc in recorded:
        instr = instructions[pc]
        if instr.opcode not in LOAD_ELEM \
                or scalar_access(instr, state) is None:
            return None
    shape = table.shape_at(entry)
    steps = {reg: (step, update) for reg, step, update in shape.inductions}
    counted = shape.counted
    # The inductions an affine address or the counted compare reads:
    # the prologue bounds the window to the trips whose updates stay in
    # the i32 range, so those updates need no wrap test.
    bounded = {reg for access in shape.accesses
               for reg, _mult in access.terms if reg in steps}
    if counted is not None:
        bounded.add(counted[1])
    updates = {steps[reg][1]: reg for reg in bounded}
    ns = {"_f32": np.float32, "_w32": _w32}
    hoists = set()
    prologue: List[str] = []
    if counted is not None:
        cmp_pc, reg, bound, cname = counted
        step, update = steps[reg]
        ns["_exit"] = exit_trips
        prologue += [f"c0 = ints[{reg!r}] + {step}" if update < cmp_pc
                     else f"c0 = ints[{reg!r}]",
                     f"n = _exit({cname!r}, c0, {step}, {bound}, n)"]
    for reg in sorted(bounded):
        ns["_nowrap"] = no_wrap_trips
        prologue.append(f"n = _nowrap(ints[{reg!r}], {steps[reg][0]}, n)")
    checks, setup, releases, accesses = _affine_accesses(
        shape, instructions, state.memory, ns, hoists)
    prologue += checks
    if prologue:
        hoists.add("ints")
    if shape.slopes:
        setup.append("window.extend(("
                     + "".join(f"{first}, " for first, _ in accesses.values())
                     + "))")

    body: List[str] = []
    chained: Dict[str, int] = {}
    for pc in pcs[:-1]:
        instr = instructions[pc]
        if pc in accesses:
            lines = accesses[pc][1]
        elif pc in updates:
            reg = updates[pc]
            step = steps[reg][0]
            sign = "-" if step < 0 else "+"
            lines = [f"ints[{reg!r}] = ints[{reg!r}] {sign} {abs(step)}"]
            hoists.add("ints")
        elif counted is not None and pc == counted[0]:
            lines = []
        else:
            inline = _inline_lines(pc, instr, ns, state)
            if inline is None:
                ns["_X"] = Executor
                ns[f"i{pc}"] = instr
                chained[instr.opcode] = chained.get(instr.opcode, 0) + 1
                step = f"_X(state).execute(i{pc})"
                meta = metas[pc]
                if meta.is_load or meta.cls is InstrClass.STORE \
                        or meta.cls is InstrClass.VSTORE:
                    step = f"_m({step}.mem_addr)"
                body += [f"state.pc = p = {pc}", step]
                continue
            lines, needs = inline
            hoists |= needs
        body.append(f"p = {pc}")
        body.extend(lines)
        if pc in recorded:
            bank = "floats" if LOAD_ELEM[instr.opcode][0] == "f32" \
                else "ints"
            body.append(f"_v({_access_target(instr, bank)})")

    post: List[str] = []
    fault: List[str] = []
    if counted is not None:
        # Trip t compares c0 + t * step.  Nothing in the body reads the
        # flags, so they stay in the bank and are set once, from the
        # last compare the window (or the faulting trip) made.
        cmp_pc, _reg, bound, cname = counted
        step = steps[counted[1]][0]
        header = "for trips in range(n):"
        post = ["trips = n",
                f"c = c0 + (n - 1) * {step}",
                f"state.regs.set_flags(c, {bound})"]
        fault = [f"k = trips + 1 if p > {cmp_pc} else trips",
                 "if k:",
                 f"    state.regs.set_flags(c0 + (k - 1) * {step}, {bound})"]
        taken = f"c {_COND_OPS[cname]} {bound}"
    else:
        if cond != "True":
            hoists.add("flags")
        header = "while True:"
        body += ["trips += 1",
                 "if trips >= n:" if cond == "True"
                 else f"if not ({cond}) or trips >= n:",
                 "    break"]
        taken = cond
    exit_lines = [f"taken = {taken}",
                  f"state.pc = {entry} if taken else {pcs[-1] + 1}"]
    # A loop whose accesses are not all affine appends every trip's.
    src = _window_source(
        prologue, setup, header, body, post, fault, exit_lines, hoists,
        releases, shape.slopes is None, bool(recorded), not chained, entry,
        spec.blen)
    fused = _emit.compile_closure(
        "\n".join(src),
        _emit.closure_filename("superblock", spec.label, entry),
        ns, "_fused", kind="superblock")
    tel = _telemetry.get()
    inlined = len(pcs) - sum(chained.values())
    if inlined:
        tel.count("codegen.superblock.inline", inlined)
    for opcode, count in chained.items():
        tel.count("codegen.superblock.chained." + opcode, count)
    return fused


def _affine_accesses(shape, instructions, memory, ns: dict, hoists):
    """Prologue lines, per-window set-up lines, the names of the views
    to release and ``{pc: (first address source, body lines)}`` for
    the affine accesses of *shape*.

    Each access with a register term gets a prologue local ``A<k>``
    holding its first-trip address and lowers ``n`` to its safe trips;
    a constant address was checked at fuse time.  A view is shared by
    the accesses of one format whose every trip's address has the same
    offset modulo the element size: those whose register terms are all
    scaled indexes.
    """
    size = memory.size
    prologue: List[str] = []
    setup: List[str] = []
    views: Dict[object, str] = {}
    firsts: Dict[str, str] = {}    # address source -> its prologue local
    checks = set()
    indexes: Dict[tuple, str] = {}  # (first, element size) -> local
    out = {}
    for k, access in enumerate(shape.accesses):
        instr = instructions[access.pc]
        nbytes = access.nbytes
        slope = access.slope
        load = not access.store
        elem = LOAD_ELEM[instr.opcode][0] if load \
            else STORE_ELEM[instr.opcode]
        bank = "floats" if elem == "f32" else "ints"
        hoists |= {bank, "buf"}
        if access.terms:
            address = _address_expr(access.const, access.terms)
            first = firsts.get(address)
            if first is None:
                first = firsts[address] = f"A{len(firsts)}"
                prologue.append(f"{first} = {address}")
            guards = _store_guards(memory, nbytes, load)
            check = (f"n = _safe({first}, {slope}, n, {size - nbytes}"
                     + (f", {guards!r})" if guards else ")"))
            if check not in checks:
                checks.add(check)
                ns["_safe"] = safe_trips
                prologue.append(check)
        else:
            first = str(access.const)
        if _VIEWS and slope % nbytes == 0:
            fmt = _VIEW_FORMATS[instr.opcode]
            if all(mult % nbytes == 0 for _reg, mult in access.terms):
                offset = access.const % nbytes
                view = views.get((fmt, offset))
                if view is None:
                    view = views[fmt, offset] = f"V{fmt}{offset}"
                    end = offset + (size - offset) // nbytes * nbytes
                    whole = offset == 0 and end == size
                    setup.append(f"{view} = mv.cast({fmt!r})" if whole else
                                 f"{view} = mv[{offset}:{end}]"
                                 f".cast({fmt!r})")
            else:
                view = f"W{k}"
                views[k] = view
                setup += [f"o = {first} % {nbytes}",
                          f"{view} = mv[o:o + ({size} - o) // {nbytes} "
                          f"* {nbytes}].cast({fmt!r})"]
            if access.terms:
                index = indexes.get((first, nbytes))
                if index is None:
                    index = indexes[first, nbytes] = f"E{len(indexes)}"
                    setup.append(f"{index} = {first} // {nbytes}")
            else:
                index = str(access.const // nbytes)
            lines = _view_lines(instr, bank, view,
                                _trip_expr(index, slope // nbytes))
        else:
            lines = _struct_lines(instr, ns, bank,
                                  _trip_expr(first, slope))
        if shape.slopes is None:
            lines.append(f"_m({_trip_expr(first, slope)})")
        out[access.pc] = first, lines
    releases = list(views.values())
    if views:
        setup.insert(0, "mv = memoryview(buf)")
        releases.append("mv")
    return prologue, setup, releases, out


def _trip_expr(first: str, slope: int) -> str:
    """Source of ``first + trips * slope``."""
    if not slope:
        return first
    return f"{first} + trips" if slope == 1 \
        else f"{first} + trips * {slope}"


def _window_source(prologue: List[str], setup: List[str], header: str,
                   body: List[str], post: List[str], fault: List[str],
                   exit_lines: List[str], hoists, releases: List[str],
                   appends: bool, records: bool, local: bool, entry: int,
                   blen: int) -> List[str]:
    """Source lines of a self-loop block's window closure.

    *prologue* lowers the trip budget ``n`` (a return of ``(0, False)``
    follows it when it has lines), *setup* runs once before the first
    trip, *body* (one trip) runs under *header* -- a ``for`` over
    ``range(n)``, or a ``while`` whose body ends in the ``break`` test
    -- then *post* once after the loop; *fault* runs on a fault before
    the re-raise, and *exit_lines* set ``taken`` and ``state.pc``.
    The typed views in *releases* are released on the way out.  With
    *records*, the closure takes a fourth argument, ``values``, whose
    ``append`` the body's recorded loads call as ``_v``.

    With *local*, every bank subscript in those lines becomes a local of
    the register's or flag's own name, loaded once before the prologue
    and written back once after the loop, on a fault too.
    """
    names: Dict[str, str] = {}  # register or flag -> bank, first use

    def to_local(match) -> str:
        bank, name = match.groups()
        names.setdefault(name, bank)
        return name

    groups = [prologue, setup, body, post, fault, exit_lines]
    if local:
        groups = [[re.sub(_BANK_REF, to_local, line) for line in lines]
                  for lines in groups]
    prologue, setup, body, post, fault, exit_lines = groups
    if records:
        src = ["def _fused(state, limit, window, values):",
               "    _v = values.append"]
    else:
        src = ["def _fused(state, limit, window):"]
    if appends:
        src.append("    _m = window.append")
    src.append("    n0 = state.instructions_retired")
    for bank in ("ints", "floats", "flags"):
        if bank in hoists:
            src.append(f"    {bank} = state.regs.{bank}")
    if "buf" in hoists:
        src.append("    buf = state.memory._bytes")
    src += [f"    {name} = {bank}[{name!r}]" for name, bank in names.items()]
    src.append("    n = limit")
    if prologue:
        src += ["    " + line for line in prologue]
        src += ["    if not n:",
                "        return 0, False"]
    src += ["    " + line for line in setup]
    src += ["    trips = 0",
            f"    p = {entry}",
            "    try:",
            "        " + header]
    src += ["            " + line for line in body]
    src += ["        " + line for line in post]
    src += ["    except BaseException:",
            "        state.pc = p",
            f"        state.instructions_retired = "
            f"n0 + trips * {blen} + p - {entry}"]
    src += ["        " + line for line in fault]
    src.append("        raise")
    cleanup = [f"{bank}[{name!r}] = {name}" for name, bank in names.items()]
    cleanup += [f"{view}.release()" for view in releases]
    if cleanup:
        src.append("    finally:")
        src += ["        " + line for line in cleanup]
    src += ["    " + line for line in exit_lines]
    src += [f"    state.instructions_retired = n0 + trips * {blen}",
            "    return trips, taken"]
    return src


def emit_loop_timing(timing, *, icache_hit: int, dcache_hit: int,
                     mispredict_penalty: int):
    """Compile :meth:`~repro.pipeline.core.PipelineModel.account_loop`'s
    hazard replay for one loop block.

    :meth:`~repro.pipeline.core.PipelineModel.account_block`'s row
    arithmetic, constants baked, wrapped in a per-trip loop:
    ``_loop(pipe, trips, lats, last_taken, misses)``
    charges *trips* executions of the block, every trip taken but the
    last, whose outcome is *last_taken*.  ``account_loop`` has already
    advanced both caches, so:

    * a load row reads its latency from *lats* (the window's
      per-access D-cache latencies, trip-major, as returned by
      :meth:`~repro.memory.cache.Cache.access_stream`); store rows only
      skip past theirs, the write buffer hiding store latency;
    * a fetched block (``fetch_mode == 1``) hits the I-cache on every
      fetch, so each row adds the constant hit term
      ``icache_hit - 1`` to its fetch-ready time.

    Nothing but this block touches the pipeline during the window, so
    the ready times of the registers (and flags) the rows name live in
    locals: read once from ``reg_ready`` before the first trip, and the
    written ones stored back once after the last.  Likewise the
    back-branch applies the bimodal predictor's rules to a local copy
    of its counter, read and written back once, with no predictor
    method call per trip: a taken branch to an entry at or below it
    mispredicts on counter 0 (on 1 as well when the target is
    forward), a fall-through on any non-zero counter.

    A row issues as ``issue += 1`` (``+= icache_hit - 1`` past the
    trip's first row, whose fetch-ready time is the previous row's
    issue plus the hit term), and then each operand ready later -- a
    register's ready time, the first row's fetch-ready time -- delays
    it, adding the gap to the data stalls: the sequential form of
    ``account_block``'s ``max``.  Three exact peepholes follow from
    the row order, since each row issues at least one cycle after the
    row before it and completes no earlier than its floor (its latency,
    the D-cache hit latency for a load):

    * a read needs no test when a constant-latency row of the same trip
      wrote the register at least that latency rows back;
    * a row whose latency is at most a later row's floor plus their
      distance in rows completes no later than that row, so it keeps no
      ``completion`` temporary and no ``last_completion`` update;
    * with ``icache_hit > 1`` the rows after the first add their
      constant fetch stall to the data stalls once per trip.

    *misses* lists, ascending and ending with *trips*, the trips in
    which some load's latency is not *dcache_hit*; every other trip is
    all-hit.  After each all-hit taken trip the closure takes the state
    relative to ``issue``: the written registers' ready times,
    ``fetch_ready``, ``last_completion`` and the counter.  When two
    consecutive such trips leave the same state, each further all-hit
    taken trip repeats the last one (the row arithmetic is ``max`` and
    ``+``, so it shifts with ``issue``), and the closure jumps to the
    trip before the next listed trip or the window's last trip,
    advancing the times, the written registers and the data-stall sum
    by the last trip's deltas.  Load-miss cycles and mispredicts stay:
    the jumped trips hit, and an unchanged counter after a taken branch
    is saturated.  Registers the rows only read need no place in the
    state: the first trip issues past each of them, so none stalls a
    later trip.
    """
    rows = timing.rows
    fetch_extra = icache_hit - 1 if timing.fetch_mode == 1 else 0
    penalty = mispredict_penalty
    names = {}     # register -> local holding its ready time
    written = []   # registers the rows write, in first-write order

    def local(reg):
        name = names.get(reg)
        if name is None:
            name = names[reg] = f"x{len(names)}"
        return name

    has_load = False
    mem_index = 0
    trip: List[str] = []
    emit = trip.append
    # Every row issues at least one cycle after the one before it, and
    # completes no earlier than its floor after issuing: its latency, or
    # the D-cache hit latency for a load.
    floors = [dcache_hit if row[6] == 1 else row[5] for row in rows]
    writers = {}  # register -> (row, constant latency or None), this trip
    for i, (_fetch_key, reads, reads_flags, writes, sets_flags,
            latency, mem_kind, _nbytes) in enumerate(rows):
        # ``issue`` holds the previous row's issue cycle, which is also
        # the fetch-ready time of every row but a trip's first.  Each
        # operand ready later than the issue slot delays it.
        if i == 0:
            emit("issue += 1")
            operands = ["fetch_ready + " + str(fetch_extra) if fetch_extra
                        else "fetch_ready"]
        else:
            # A later row's fetch is ready fetch_extra after the row
            # before it issued.
            emit(f"issue += {max(fetch_extra, 1)}")
            operands = []
        for reg in reads + ((_FLAGS,) if reads_flags else ()):
            # A constant-latency write at least that many rows back in
            # this trip is ready by the time this row issues.
            row, ready_in = writers.get(reg, (None, None))
            if ready_in is None or i - row < ready_in:
                operands.append(local(reg))
        for x in operands:
            emit(f"if {x} > issue:")
            emit(f"    data_stall += {x} - issue")
            emit(f"    issue = {x}")
        # A later row of the trip that cannot complete earlier makes
        # this row's last_completion update dead.
        dominated = mem_kind != 1 and any(
            latency <= floors[m] + m - i for m in range(i + 1, len(rows)))
        if mem_kind == 1:
            has_load = True
            emit(f"a = lats[k + {mem_index}]" if mem_index else "a = lats[k]")
            emit("completion = issue + a")
            emit(f"if a > {dcache_hit}:")
            emit(f"    load_miss += a - {dcache_hit}")
            completion = "completion"
        elif dominated:
            completion = f"issue + {latency}"
        else:
            emit(f"completion = issue + {latency}")
            completion = "completion"
        if mem_kind:
            mem_index += 1
        for reg in tuple(writes) + ((_FLAGS,) if sets_flags else ()):
            if reg not in written:
                written.append(reg)
            emit(f"{local(reg)} = {completion}")
            writers[reg] = (i, None if mem_kind == 1 else latency)
        if not dominated:
            emit("if completion > last_completion: "
                 "last_completion = completion")
    if fetch_extra > 1 and len(rows) > 1:
        emit(f"data_stall += {(fetch_extra - 1) * (len(rows) - 1)}")
    if mem_index:
        emit(f"k += {mem_index}")
    emit("fetch_ready = issue")
    # Counter values below this mispredict a taken branch: only 0 when
    # the target is at or below the branch (cold backward-taken bias).
    taken_ok = 1 if timing.branch_target <= timing.branch_pc else 2
    bpc = timing.branch_pc
    body: List[str] = [
        "reg_ready = pipe._reg_ready",
        "get = reg_ready.get",
    ]
    body += [f"{x} = get({reg!r}, 0)" for reg, x in names.items()]
    body += [
        "fetch_ready = pipe._fetch_ready",
        "issue = pipe._last_issue",
        "last_completion = pipe._last_completion",
        "pred = pipe.predictor",
        f"c = pred.counter({bpc})",
        "data_stall = 0",
        "load_miss = 0",
        "mispredicts = 0",
        "k = 0",
        "last = trips - 1",
        "j = 0",
        "miss = misses[0]",
        "state = None",
        "t = 0",
        "while t < trips:",
    ]
    body += ["    " + line for line in trip]
    # The issue-relative state after a trip.  Registers the rows only
    # read are left out: the first trip issues past each of them, so
    # none stalls a later trip.
    relative = ", ".join([f"{names[reg]} - issue" for reg in written]
                         + ["fetch_ready - issue",
                            "last_completion - issue", "c"])
    body += [
        "    if t < last or last_taken:",
        "        if c < 3:",
        f"            if c < {taken_ok}:",
        "                mispredicts += 1",
        f"                fetch_ready = issue + 1 + {penalty}",
        "            c += 1",
        "    elif c:",
        "        mispredicts += 1",
        f"        fetch_ready = issue + 1 + {penalty}",
        "        c -= 1",
        "    if t == miss:",
        "        j += 1",
        "        miss = misses[j]",
        "        state = None",
        "    elif t < last:",
        f"        now = ({relative})",
        "        if now == state:",
        # Every further all-hit taken trip repeats this one.
        "            n = (miss if miss < last else last) - t - 1",
        "            if n > 0:",
        "                d = (issue - base) * n",
        "                issue += d",
        "                fetch_ready += d",
        "                last_completion += d",
    ]
    body += [f"                {names[reg]} += d" for reg in written]
    body += [
        "                data_stall += (data_stall - stall) * n",
    ]
    if mem_index:
        body.append(f"                k += {mem_index} * n")
    body += [
        "                t += n",
        "        state = now",
        "        base = issue",
        "        stall = data_stall",
        "    t += 1",
        f"pred.set_counter({bpc}, c)",
    ]
    body += [f"reg_ready[{reg!r}] = {names[reg]}" for reg in written]
    body += [
        "pipe._last_issue = issue",
        "pipe._fetch_ready = fetch_ready",
        "pipe._last_completion = last_completion",
        "stats = pipe.stats",
        f"stats.instructions += {timing.count} * trips",
        "stats.branches += trips",
        "stats.mispredicts += mispredicts",
        f"stats.branch_penalty_cycles += mispredicts * {penalty}",
        "stats.data_stall_cycles += data_stall",
    ]
    if timing.simd:
        body.append(f"stats.simd_instructions += {timing.simd} * trips")
    if fetch_extra > 0:
        body.append(f"stats.fetch_stall_cycles += "
                    f"{fetch_extra * len(rows)} * trips")
    if has_load:
        body.append("stats.load_miss_cycles += load_miss")
    source = _emit.assemble(
        "def _loop(pipe, trips, lats, last_taken, misses):", body)
    return _emit.compile_closure(
        source,
        _emit.closure_filename("loop-timing", timing.label,
                               timing.branch_target),
        {}, "_loop", kind="loop-timing")

