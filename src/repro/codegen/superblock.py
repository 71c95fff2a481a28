"""Superblock backend: fused-run and loop-timing-closure emission.

:func:`emit_fused_block` lowers a :class:`~repro.codegen.ir.BlockSpec`
superblock (lifted by :func:`repro.codegen.lift.lift_superblock`) into
the fast engine's fused ``run(state)`` executor, or, for a block that
loops on itself, its window closure
``run(state, limit, window) -> (trips, taken)``, and
:func:`emit_loop_timing` emits the whole-window
``_loop(pipe, trips, lats, last_taken)`` timing closure
:meth:`~repro.pipeline.core.PipelineModel.account_loop` compiles for a
loop block on its first window (scalar self-loops and fragment loop
bodies alike).  Both compile their sources through
:mod:`repro.codegen.emit` (stable filenames).
A single block charge compiles nothing: it runs
:meth:`~repro.pipeline.core.PipelineModel.account_block`'s row loop.

The emitted code is semantically unchanged from the inline versions:

* the fused block runs the scalar shapes inline over the register
  banks and memory buffer it hoists, stepping the reference executor
  for the rest, and restores ``state.pc`` and the retired count on a
  fault;
* the window closure runs the same lines trip after trip in one
  ``while`` loop, with the registers and flags they name held in
  locals for the whole window (written back on exit and on a fault);
* the loop-timing closure wraps ``account_block``'s row arithmetic in
  a per-trip loop with the taken/.../taken/``last_taken`` branch
  pattern, consuming the window's replayed D-cache latencies and a
  constant I-cache hit term, with register ready times and the
  predictor counter held in locals for the whole window.

Telemetry: ``codegen.superblock.inline`` / ``.chained.<opcode>`` per
fused instruction, by the path it was emitted on.
"""

from __future__ import annotations

import re
import struct
from array import array
from typing import Dict, List

import numpy as np

from repro import arith
from repro.codegen import emit as _emit
from repro.codegen.ir import BlockSpec
from repro.interp.executor import Executor
from repro.isa.decoded import (
    _INT_ALU_FAST,
    _resolve_target,
    _w32,
)
from repro.isa.instructions import Imm, Instruction, Reg, Sym
from repro.isa.opcodes import (
    ELEM_SIZES,
    LOAD_ELEM,
    OPCODES,
    STORE_ELEM,
    InstrClass,
)
from repro.isa.registers import LINK_REGISTER, is_float_reg, is_int_reg
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

#: What converting a malformed or out-of-range immediate raises; the
#: emitter then declines, leaving the error to the reference executor
#: at run time.
_BAD_CONSTANT = (TypeError, ValueError, OverflowError)

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


def _address(mem, scale: int, symbols):
    """*mem*'s effective address as an int (every part known now) or a
    source expression over ``ints``; None for the forms the executor
    keeps (a non-integer register or an undefined symbol,
    whose lookup must fail at run time, from the faulting pc).

    A symbol base is read from the run's table at fuse time: a table
    lives for one ``Machine.run``, over that run's symbols.
    """
    const = 0
    terms: List[str] = []
    base = mem.base
    if isinstance(base, Sym):
        try:
            const = symbols.address_of(base.name)
        except KeyError:
            return None
    elif isinstance(base, Reg) and is_int_reg(base.name):
        terms.append(f"ints[{base.name!r}]")
    else:
        return None
    index = mem.index
    if isinstance(index, Imm):
        try:
            const += int(index.value) * scale
        except _BAD_CONSTANT:
            return None
    elif isinstance(index, Reg) and is_int_reg(index.name):
        terms.append(f"ints[{index.name!r}] * {scale}" if scale > 1
                     else f"ints[{index.name!r}]")
    elif index is not None:
        return None
    if not terms:
        return const
    if const:
        terms.append(str(const))
    return " + ".join(terms)


def _memory_lines(instr: Instruction, ns: dict, state):
    """(lines, banks) for one scalar load or store, or None.

    The access runs on the hoisted memory buffer (``buf``) through a
    precompiled ``struct`` accessor, behind an inline test that is true
    exactly when :meth:`~repro.memory.memory.Memory._check_load` /
    ``_check_store`` would raise; only then is the check itself called,
    so a fault's type and text still come from ``Memory``.  The
    memory's size and read-only ranges are literals: both are fixed
    once the loader has placed the program.  A constant address is
    checked now — one that faults stays with the executor.
    """
    opcode = instr.opcode
    load = opcode in LOAD_ELEM
    if load:
        elem = LOAD_ELEM[opcode][0]
        reg = instr.dst
    else:
        elem = STORE_ELEM[opcode]
        reg = instr.srcs[0] if instr.srcs else None
    if not isinstance(reg, Reg) or instr.mem is None:
        return None
    # A register of the other class takes the executor's generic path
    # (a conversion, or the reference's error).
    if elem == "f32":
        bank = "floats" if is_float_reg(reg.name) else None
    else:
        bank = "ints" if is_int_reg(reg.name) else None
    nbytes = ELEM_SIZES[elem]
    address = _address(instr.mem, nbytes, state.symbols)
    if bank is None or address is None:
        return None
    memory = state.memory
    limit = memory.size - nbytes
    # Memory._check_store's overlap test ``a < end and a + n > start``,
    # solved for ``a``.
    guarded = [] if load else [(start - nbytes, end)
                               for start, end in memory._ro_ranges]
    lines: List[str] = []
    needs = {bank, "buf"}
    if isinstance(address, int):
        if not 0 <= address <= limit or any(
                low < address < end for low, end in guarded):
            return None
        a = str(address)
    else:
        faults = " or ".join([f"not 0 <= a <= {limit}"] + [
            f"{low} < a < {end}" for low, end in guarded])
        check = "_check_load" if load else "_check_store"
        lines += [f"a = {address}",
                  f"if {faults}:",
                  f"    state.memory.{check}(a, {nbytes})"]
        needs.add("ints")
        a = "a"
    access = f"_{opcode}"
    ns[access] = _ACCESSORS[opcode]
    target = f"{bank}[{reg.name!r}]"
    if load and elem == "f32":
        # Unpacking '<f' yields an exact binary32 value, which
        # arith.f32 returns unchanged; only a NaN takes the rounding.
        lines += [f"v = {access}(buf, {a})[0]",
                  f"{target} = v if v == v else float(_f32(v))"]
    elif load:
        lines.append(f"{target} = {access}(buf, {a})[0]")
    elif elem == "f32":
        lines.append(f"{access}(buf, {a}, {target})")
    else:
        lines.append(f"{access}(buf, {a}, {target} & {_INT_MASK[elem]})")
    lines.append(f"_m({a})")
    return lines, needs


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


def emit_fused_block(spec: BlockSpec, table):
    """(run closure, mem list) for one lifted superblock.

    *table* is the owning :class:`~repro.interp.turbo.SuperblockTable`
    — the emitter pulls the instructions, their timing metadata and the
    run's state from it.  The generated function executes every
    instruction in the block (raising from the faulting pc exactly like
    the per-instruction engines) and returns the terminating branch's
    taken flag (None for other terminators); ``mem`` holds the block's
    effective addresses in execution order after each run.

    A block whose inline closing branch targets its own entry (a
    self-loop) compiles instead to a window closure,
    ``run(state, limit, window) -> (trips, taken)``, and ``mem`` is
    None.  It runs trips of the same lines in one ``while`` loop until
    the branch falls through or *limit* trips have run, appends every
    trip's effective addresses to *window*, and returns the trip count
    and the last trip's taken flag.  The registers and flags its lines
    name live in locals for the whole window: loaded on entry, written
    back on exit and on a fault.  A block that steps the executor keeps
    them in the banks, where the step reads and writes them.

    A shape the emitter does not inline is one step of the reference
    :class:`~repro.interp.executor.Executor` on the block's own
    :class:`~repro.isa.instructions.Instruction`: the block sets
    ``state.pc`` (the executor reads it), then reads the event's
    ``mem_addr`` for a memory op and ``taken`` for a branch.  Since the
    executor counts itself retired, the block sets the retired count
    from a snapshot taken on entry, on exit and on a fault alike.

    Only the block's own objects and module-level helpers (the
    ``Executor`` class among them) are bound into the closure's
    namespace, never anything run-sized (memory, its buffer, the state,
    its symbol table or a window): ``exec`` ties the namespace and the
    function into a reference cycle, which would keep them alive past
    the run until the cyclic collector ran.  Whatever the body needs of
    the run's state it reads from the ``state`` argument, or was folded
    into a literal at fuse time.

    Telemetry: ``codegen.superblock.inline`` counts the instructions
    emitted as inline lines and ``codegen.superblock.chained.<opcode>``
    the ones emitted as an executor step.
    """
    instructions = table.instructions
    metas = table.metas
    state = table.state
    entry = spec.entry
    pcs = spec.pcs
    term = spec.term
    blen = spec.blen
    if term:
        tpc = pcs[-1]
        instr = instructions[tpc]
    inline_branch = loop = False
    if term == 1:
        target, terr = _resolve_target(table.program, instr.target)
        cond_expr = (_COND_EXPRS.get(instr.opcode[1:])
                     if instr.opcode != "b" else None)
        inline_branch = terr is None and (instr.opcode == "b"
                                          or cond_expr is not None)
        loop = inline_branch and target == entry

    mem = None if loop else []
    ns = {"_f32": np.float32, "_w32": _w32}
    if mem is not None:
        ns.update(_m=mem.append, _c=mem.clear)
    body: List[str] = []
    hoists = set()
    has_mem = False
    chained: Dict[str, int] = {}

    def chain(pc: int, line: str = "{}") -> None:
        """Set ``p`` and ``state.pc``, then *line* around the reference
        executor's step of *pc*'s instruction."""
        name = f"i{pc}"
        ns["_X"] = Executor
        ns[name] = instructions[pc]
        opcode = instructions[pc].opcode
        chained[opcode] = chained.get(opcode, 0) + 1
        body.extend([f"state.pc = p = {pc}",
                     line.format(f"_X(state).execute({name})")])

    straight = pcs[:-1] if term else pcs
    for pc in straight:
        inline = _inline_lines(pc, instructions[pc], ns, state)
        if inline is not None:
            lines, needs = inline
            hoists |= needs
            body.append(f"p = {pc}")
            body.extend(lines)
            continue
        meta = metas[pc]
        if meta is not None and (meta.is_load
                                 or meta.cls is InstrClass.STORE
                                 or meta.cls is InstrClass.VSTORE):
            has_mem = True
            chain(pc, "_m({}.mem_addr)")
        else:
            chain(pc)

    retired = f"state.instructions_retired = n0 + {blen}"
    if loop:
        if cond_expr is not None:
            hoists.add("flags")
        body += ["trips += 1",
                 "if trips >= limit:" if cond_expr is None
                 else f"if not ({cond_expr}) or trips >= limit:",
                 "    break"]
    elif term == 1:
        if inline_branch and instr.opcode == "b":
            body += [f"p = {tpc}", f"state.pc = {target}", retired,
                     "return True"]
        elif inline_branch:
            hoists.add("flags")
            body += [f"p = {tpc}",
                     f"if {cond_expr}:",
                     f"    state.pc = {target}",
                     f"    {retired}",
                     "    return True",
                     f"state.pc = {tpc + 1}",
                     retired,
                     "return False"]
        else:
            chain(tpc, "r = {}.taken")
            body += [retired, "return r"]
    elif term == 2:
        terr = None
        if metas[tpc].cls is InstrClass.CALL:
            target, terr = _resolve_target(table.program, instr.target)
            tail = [f"ints[{LINK_REGISTER!r}] = {tpc + 1}",
                    f"state.pc = {target}"]
        else:
            tail = [f"state.pc = ints[{LINK_REGISTER!r}]"]
        if terr is None:
            hoists.add("ints")
            body += [f"p = {tpc}", *tail]
        else:
            chain(tpc)
        body += [retired, "return None"]
    elif term == 3:
        body += [f"p = {tpc}",
                 "state.halted = True",
                 f"state.pc = {tpc + 1}",
                 retired, "return None"]
    else:
        body += [f"state.pc = {spec.exit_pc}", retired, "return None"]

    appends = has_mem or "buf" in hoists
    if loop:
        exit_lines = [f"taken = {cond_expr or True}",
                      f"state.pc = {target} if taken else {tpc + 1}"]
        src = _window_source(body, exit_lines, hoists, appends,
                             not chained, entry, blen)
    else:
        src = ["def _fused(state):"]
        if appends:
            src.append("    _c()")
        src.append("    n0 = state.instructions_retired")
        src.append(f"    p = {entry}")
        src.append("    try:")
        for bank in ("ints", "floats", "flags"):
            if bank in hoists:
                src.append(f"        {bank} = state.regs.{bank}")
        if "buf" in hoists:
            src.append("        buf = state.memory._bytes")
        for line in body:
            src.append("        " + line)
        src += ["    except BaseException:",
                "        state.pc = p",
                f"        state.instructions_retired = n0 + p - {entry}",
                "        raise"]
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
    return fused, mem


def _window_source(body: List[str], exit_lines: List[str], hoists,
                   appends: bool, local: bool, entry: int,
                   blen: int) -> List[str]:
    """Source lines of a self-loop block's window closure: *body* (one
    trip, ending in the ``break`` test) as the body of a ``while`` loop,
    then *exit_lines*, which set ``taken`` and ``state.pc``.

    With *local*, every bank subscript in those lines becomes a local of
    the register's or flag's own name, loaded once before the loop and
    written back once after it, on a fault too.
    """
    names: Dict[str, str] = {}  # register or flag -> bank, first use

    def to_local(match) -> str:
        bank, name = match.groups()
        names.setdefault(name, bank)
        return name

    if local:
        body = [re.sub(_BANK_REF, to_local, line) for line in body]
        exit_lines = [re.sub(_BANK_REF, to_local, line)
                      for line in exit_lines]
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
    src += ["    trips = 0",
            f"    p = {entry}",
            "    try:",
            "        while True:"]
    src += ["            " + line for line in body]
    src += ["    except BaseException:",
            "        state.pc = p",
            f"        state.instructions_retired = "
            f"n0 + trips * {blen} + p - {entry}",
            "        raise"]
    if names:
        src.append("    finally:")
        src += [f"        {bank}[{name!r}] = {name}"
                for name, bank in names.items()]
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
    ``_loop(pipe, trips, lats, last_taken)``
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
    for i, (_fetch_key, reads, reads_flags, writes, sets_flags,
            latency, mem_kind, _nbytes) in enumerate(rows):
        # ``issue`` always holds the previous row's issue cycle, which
        # is also the fetch-ready time of every row but a trip's first.
        fetch = "fetch_ready" if i == 0 else "issue"
        emit(f"ready = {fetch} + {fetch_extra}" if fetch_extra
             else f"ready = {fetch}")
        for reg in reads + ((_FLAGS,) if reads_flags else ()):
            x = local(reg)
            emit(f"if {x} > ready: ready = {x}")
        emit("issue += 1")
        emit("if ready > issue:")
        emit("    data_stall += ready - issue")
        emit("    issue = ready")
        if mem_kind == 1:
            has_load = True
            emit(f"a = lats[k + {mem_index}]" if mem_index else "a = lats[k]")
            emit("completion = issue + a")
            emit(f"if a > {dcache_hit}:")
            emit(f"    load_miss += a - {dcache_hit}")
        else:
            emit(f"completion = issue + {latency}")
        if mem_kind:
            mem_index += 1
        for reg in tuple(writes) + ((_FLAGS,) if sets_flags else ()):
            if reg not in written:
                written.append(reg)
            emit(f"{local(reg)} = completion")
        emit("if completion > last_completion: "
             "last_completion = completion")
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
        "for _t in range(trips):",
    ]
    body += ["    " + line for line in trip]
    body += [
        "    if _t < last or last_taken:",
        "        if c < 3:",
        f"            if c < {taken_ok}:",
        "                mispredicts += 1",
        f"                fetch_ready = issue + 1 + {penalty}",
        "            c += 1",
        "    elif c:",
        "        mispredicts += 1",
        f"        fetch_ready = issue + 1 + {penalty}",
        "        c -= 1",
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
    source = _emit.assemble("def _loop(pipe, trips, lats, last_taken):",
                            body)
    return _emit.compile_closure(
        source,
        _emit.closure_filename("loop-timing", timing.label,
                               timing.branch_target),
        {}, "_loop", kind="loop-timing")

