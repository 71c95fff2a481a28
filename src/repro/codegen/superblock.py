"""Superblock backend: fused-run and timing-closure emission.

Lowers :class:`~repro.codegen.ir.BlockSpec` superblocks (lifted by
:func:`repro.codegen.lift.lift_superblock`) into the fast engine's two
closure kinds — the fused ``run(state)`` executor and the per-block
``_timing(pipe, mem, taken)`` accounting specialization — plus the
whole-loop ``_loop(pipe, trips, lats)`` timing closure the fragment
kernels attach to loop-body blocks.  This is the codegen previously
hand-rolled inline in ``repro/interp/turbo.py`` (fused blocks, block
timing) and ``repro/interp/macro.py`` (loop timing), now behind the
shared ``Backend`` protocol with sources compiled through
:mod:`repro.codegen.emit` (stable filenames).

The emitted code is semantically unchanged from the inline versions:

* the fused block chains quiet handlers and inlines the dominant
  scalar shapes over hoisted register banks, restoring ``state.pc``
  and the retired count on a fault;
* the block-timing closure unrolls
  :meth:`~repro.pipeline.core.PipelineModel.account_block`'s row loop
  with the block's constants baked in, batching same-line instruction
  fetches through :meth:`~repro.memory.cache.Cache.repeat_hits`;
* the loop-timing closure wraps the same row arithmetic in the
  per-trip loop with its deterministic taken/.../not-taken branch
  pattern, consuming pre-replayed d-cache latencies.

Telemetry: ``codegen.superblock.lowered.<kind>`` per emitted closure.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro import arith
from repro.codegen import emit as _emit
from repro.codegen.ir import BlockSpec
from repro.isa.decoded import (
    _INT_ALU_FAST,
    _resolve_target,
)
from repro.isa.instructions import Imm, Instruction, Reg
from repro.isa.opcodes import OPCODES, InstrClass
from repro.isa.registers import LINK_REGISTER, is_float_reg, is_int_reg
from repro.observability import telemetry as _telemetry
from repro.pipeline.core import _FLAGS, _INSTR_BYTES

#: Condition suffix -> Python expression over the hoisted ``flags`` dict,
#: mirroring :data:`repro.isa.decoded.COND_CODES` predicate for predicate.
_COND_EXPRS = {
    "eq": 'flags["eq"]',
    "ne": 'not flags["eq"]',
    "lt": 'flags["lt"]',
    "le": 'flags["lt"] or flags["eq"]',
    "gt": 'flags["gt"]',
    "ge": 'flags["gt"] or flags["eq"]',
}


def _inline_lines(pc: int, instr: Instruction, ns: dict):
    """(source lines, hoisted banks) for one instruction, or None.

    Lines assume ``ints`` / ``floats`` / ``flags`` locals bound to the
    live register banks (dict identity is stable for the whole run:
    :class:`~repro.isa.registers.RegisterFile` mutates its banks in
    place, never rebinding them).  Each inline form is only used under
    exactly the conditions for which the corresponding
    ``repro/isa/decoded.py`` handler specializes, and computes the same
    value by the same (documented) identities.
    """
    spec = OPCODES.get(instr.opcode)
    if spec is None:
        return None
    cls = spec.cls
    opcode = instr.opcode

    if cls in (InstrClass.ALU, InstrClass.MUL):
        fast = _INT_ALU_FAST.get(opcode)
        if (fast is None or len(instr.srcs) != 2 or instr.dst is None
                or not is_int_reg(instr.dst.name)):
            return None
        a_op, b_op = instr.srcs
        if not (isinstance(a_op, Reg) and is_int_reg(a_op.name)):
            return None
        d, a = instr.dst.name, a_op.name
        fn = f"f{pc}"
        if isinstance(b_op, Reg) and is_int_reg(b_op.name):
            ns[fn] = fast
            return ([f"ints[{d!r}] = {fn}(ints[{a!r}], ints[{b_op.name!r}])"],
                    {"ints"})
        if isinstance(b_op, Imm):
            try:
                b_const = int(b_op.value)
            except (TypeError, ValueError):
                return None
            ns[fn] = fast
            return ([f"ints[{d!r}] = {fn}(ints[{a!r}], {b_const})"], {"ints"})
        return None

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
        src = instr.srcs[0]
        d = instr.dst.name
        if opcode == "mov" and is_int_reg(d):
            if isinstance(src, Imm):
                try:
                    value = arith.wrap_int(int(src.value))
                except (TypeError, ValueError):
                    return None
                return ([f"ints[{d!r}] = {value}"], {"ints"})
            if isinstance(src, Reg) and is_int_reg(src.name):
                # The integer bank invariantly holds wrapped ints, so
                # wrap_int(int(x)) is the identity here.
                return ([f"ints[{d!r}] = ints[{src.name!r}]"], {"ints"})
        if opcode == "fmov" and is_float_reg(d):
            if isinstance(src, Imm):
                try:
                    value = arith.f32(float(src.value))
                except (TypeError, ValueError):
                    return None
                lit = _emit.literal(value)
                if lit is None:
                    return None
                return ([f"floats[{d!r}] = {lit}"], {"floats"})
            if isinstance(src, Reg) and is_float_reg(src.name):
                # Float registers invariantly hold exact binary32 values,
                # so f32(float(x)) is the identity here.
                return ([f"floats[{d!r}] = floats[{src.name!r}]"], {"floats"})
        return None

    if cls in (InstrClass.FALU, InstrClass.FMUL):
        py_sym = {"fadd": "+", "fsub": "-", "fmul": "*"}.get(opcode)
        if (py_sym is None or len(instr.srcs) != 2 or instr.dst is None
                or not is_float_reg(instr.dst.name)):
            return None
        a_op, b_op = instr.srcs
        if not (isinstance(a_op, Reg) and is_float_reg(a_op.name)):
            return None
        d, a = instr.dst.name, a_op.name
        # binary64 +/-/* of binary32 operands followed by one rounding
        # to binary32 is correctly rounded (2p+2 <= 53): identical to
        # the reference's float32 arithmetic (see decoded.py).
        if isinstance(b_op, Reg) and is_float_reg(b_op.name):
            return ([f"floats[{d!r}] = float(_f32("
                     f"floats[{a!r}] {py_sym} floats[{b_op.name!r}]))"],
                    {"floats"})
        if isinstance(b_op, Imm):
            try:
                b_const = float(np.float32(float(b_op.value)))
            except (TypeError, ValueError):
                return None
            lit = _emit.literal(b_const)
            if lit is None:
                return None
            return ([f"floats[{d!r}] = float(_f32("
                     f"floats[{a!r}] {py_sym} {lit}))"], {"floats"})
        return None

    return None


def emit_fused_block(spec: BlockSpec, table):
    """(run closure, mem list) for one lifted superblock.

    *table* is the owning :class:`~repro.interp.turbo.SuperblockTable`
    — the emitter pulls quiet handlers and decoded instructions from
    it.  The generated function executes every instruction in the
    block (raising from the faulting pc exactly like the
    per-instruction engines) and returns the terminating branch's
    taken flag (None for other terminators); ``mem`` holds the block's
    effective addresses in execution order after each run.
    """
    instructions = table.instructions
    metas = table.metas
    entry = spec.entry
    pcs = spec.pcs
    term = spec.term
    blen = spec.blen

    mem: List[int] = []
    ns = {"_m": mem.append, "_c": mem.clear, "_f32": np.float32}
    body: List[str] = []
    hoists = set()
    has_mem = False

    def emit_closure(pc: int, handler, mem_kind: int) -> None:
        nonlocal has_mem
        name = f"q{pc}"
        ns[name] = handler
        if mem_kind:
            has_mem = True
            body.append(f"p = {pc}")
            body.append(f"_m({name}(state))")
        else:
            body.append(f"p = {pc}")
            body.append(f"{name}(state)")

    straight = pcs[:-1] if term else pcs
    for pc in straight:
        meta = metas[pc]
        mem_kind = 0
        if meta is not None:
            if meta.is_load:
                mem_kind = 1
            elif meta.cls is InstrClass.STORE \
                    or meta.cls is InstrClass.VSTORE:
                mem_kind = 2
        handler, ok = table.quiet(pc)
        inline = _inline_lines(pc, instructions[pc], ns) if ok else None
        if inline is not None:
            lines, needs = inline
            hoists |= needs
            body.append(f"p = {pc}")
            body.extend(lines)
        else:
            emit_closure(pc, handler, mem_kind)

    retired = f"state.instructions_retired += {blen}"
    if term == 1:
        tpc = pcs[-1]
        instr = instructions[tpc]
        handler, ok = table.quiet(tpc)
        target, terr = _resolve_target(table.program, instr.target)
        cond_expr = (_COND_EXPRS.get(instr.opcode[1:])
                     if instr.opcode != "b" else None)
        if ok and terr is None and instr.opcode == "b":
            body += [f"p = {tpc}", f"state.pc = {target}", retired,
                     "return True"]
        elif ok and terr is None and cond_expr is not None:
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
            name = f"q{tpc}"
            ns[name] = handler
            body += [f"p = {tpc}", f"r = {name}(state)", retired,
                     "return r"]
    elif term == 2:
        tpc = pcs[-1]
        instr = instructions[tpc]
        handler, ok = table.quiet(tpc)
        cls = metas[tpc].cls
        if ok and cls is InstrClass.RET:
            hoists.add("ints")
            body += [f"p = {tpc}",
                     f"state.pc = ints[{LINK_REGISTER!r}]",
                     retired, "return None"]
        elif ok and cls is InstrClass.CALL:
            target, terr = _resolve_target(table.program, instr.target)
            if terr is None:
                hoists.add("ints")
                body += [f"p = {tpc}",
                         f"ints[{LINK_REGISTER!r}] = {tpc + 1}",
                         f"state.pc = {target}",
                         retired, "return None"]
            else:
                emit_closure(tpc, handler, 0)
                body += [retired, "return None"]
        else:
            emit_closure(tpc, handler, 0)
            body += [retired, "return None"]
    elif term == 3:
        tpc = pcs[-1]
        body += [f"p = {tpc}",
                 "state.halted = True",
                 f"state.pc = {tpc + 1}",
                 retired, "return None"]
    else:
        body += [f"state.pc = {spec.exit_pc}", retired, "return None"]

    src = ["def _fused(state):"]
    if has_mem:
        src.append("    _c()")
    src.append(f"    p = {entry}")
    src.append("    try:")
    for bank in ("ints", "floats", "flags"):
        if bank in hoists:
            src.append(f"        {bank} = state.regs.{bank}")
    for line in body:
        src.append("        " + line)
    src += ["    except BaseException:",
            "        state.pc = p",
            f"        state.instructions_retired += p - {entry}",
            "        raise"]
    fused = _emit.compile_closure(
        "\n".join(src),
        _emit.closure_filename("superblock", spec.label, entry),
        ns, "_fused", kind="superblock")
    return fused, mem


def emit_block_timing(spec: BlockSpec, *, icache_hit: int,
                      dcache_hit: int, mispredict_penalty: int,
                      call_redirect_penalty: int):
    """Compile :meth:`PipelineModel.account_block`'s loop for *spec*.

    Emits the generic loop's arithmetic with this block's constants
    baked in — fetch line numbers, register names, latencies,
    penalties — so accounting a block is straight-line Python with no
    tuple unpacking or per-row branching.  Two deliberate strength
    reductions, both stats-identical to the generic loop:

    * Consecutive instructions fetched from the *same* I-cache line
      are guaranteed hits after the first (nothing else touches the
      icache mid-block), so the first fetch goes through the cache and
      the rest are batched into one O(1)
      :meth:`~repro.memory.cache.Cache.repeat_hits` call.  Each
      batched access still advances the generation counter and
      re-stamps the line, so recency ordering — and every future
      hit/miss/writeback decision — is unchanged.
    * Config latencies/penalties are literals; a table lives for one
      ``Machine.run`` over one
      :class:`~repro.pipeline.core.PipelineConfig`, so a compiled
      closure never outlives its constants.

    Pipeline *instance* state (caches, predictor, hazard map, stats)
    is bound from the ``pipe`` argument at call time, so one compiled
    block serves every pipeline sharing the config.
    """
    rows = spec.rows
    if not rows:
        return None  # entry-raiser block: never accounted
    mode = spec.fetch_mode
    term = spec.timing_term
    ihit = icache_hit
    dhit = dcache_hit
    body: List[str] = []
    emit = body.append
    has_load = has_store = need_repeat = False
    mem_index = 0
    prev_line = None
    rep_count = 0

    def flush_repeats():
        nonlocal rep_count, need_repeat
        if rep_count:
            need_repeat = True
            emit(f"irh({prev_line}, {rep_count})")
            rep_count = 0

    for (fetch_key, reads, reads_flags, writes, sets_flags,
         latency, mem_kind, nbytes) in rows:
        if mode == 1:
            if fetch_key == prev_line:
                rep_count += 1
                if ihit > 1:
                    emit(f"fetch_stall += {ihit - 1}")
                    emit(f"ready = fetch_ready + {ihit - 1}")
                else:
                    emit("ready = fetch_ready")
            else:
                flush_repeats()
                prev_line = fetch_key
                emit(f"fc = ifl({fetch_key}, False)")
                emit("if fc > 1:")
                emit("    fetch_stall += fc - 1")
                emit("ready = fetch_ready + fc - 1")
        elif mode == 2:
            emit(f"fc = ia({fetch_key}, {_INSTR_BYTES}, False)")
            emit("if fc > 1:")
            emit("    fetch_stall += fc - 1")
            emit("ready = fetch_ready + fc - 1")
        else:
            emit("ready = fetch_ready")
        for reg in reads:
            emit(f"t = get({reg!r}, 0)")
            emit("if t > ready: ready = t")
        if reads_flags:
            emit(f"t = get({_FLAGS!r}, 0)")
            emit("if t > ready: ready = t")
        emit("issue = last_issue + 1")
        emit("if ready > issue:")
        emit("    data_stall += ready - issue")
        emit("    issue = ready")
        if mem_kind == 1:
            has_load = True
            emit(f"a = da(mem[{mem_index}], {nbytes}, False)")
            emit("completion = issue + a")
            emit(f"if a > {dhit}:")
            emit(f"    load_miss += a - {dhit}")
            mem_index += 1
        elif mem_kind == 2:
            has_store = True
            emit(f"completion = issue + {latency}")
            emit(f"da(mem[{mem_index}], {nbytes}, True)")
            mem_index += 1
        else:
            emit(f"completion = issue + {latency}")
        for reg in writes:
            emit(f"reg_ready[{reg!r}] = completion")
        if sets_flags:
            emit(f"reg_ready[{_FLAGS!r}] = completion")
        emit("last_issue = issue")
        emit("fetch_ready = issue")
        emit("if completion > last_completion: "
             "last_completion = completion")
    if mode == 1:
        flush_repeats()
    if term == 1:
        penalty = mispredict_penalty
        emit("stats.branches += 1")
        emit("pred = pipe.predictor")
        emit(f"predicted = pred.predict({spec.branch_pc}, "
             f"{spec.branch_target} if taken else {spec.branch_pc})")
        emit(f"pred.update({spec.branch_pc}, taken)")
        emit("if predicted != taken:")
        emit("    stats.mispredicts += 1")
        emit(f"    fetch_ready = issue + 1 + {penalty}")
        emit(f"    stats.branch_penalty_cycles += {penalty}")
    elif term == 2:
        penalty = call_redirect_penalty
        emit(f"fetch_ready = issue + 1 + {penalty}")
        emit(f"stats.branch_penalty_cycles += {penalty}")
    emit("pipe._last_issue = last_issue")
    emit("pipe._fetch_ready = fetch_ready")
    emit("pipe._last_completion = last_completion")
    emit(f"stats.instructions += {spec.blen}")
    if spec.simd:
        emit(f"stats.simd_instructions += {spec.simd}")
    emit("stats.data_stall_cycles += data_stall")
    if mode:
        emit("stats.fetch_stall_cycles += fetch_stall")
    if has_load:
        emit("stats.load_miss_cycles += load_miss")

    prologue = [
        "reg_ready = pipe._reg_ready",
        "get = reg_ready.get",
        "stats = pipe.stats",
        "fetch_ready = pipe._fetch_ready",
        "last_issue = pipe._last_issue",
        "last_completion = pipe._last_completion",
        "data_stall = 0",
    ]
    if mode:
        prologue.append("fetch_stall = 0")
    if mode == 1:
        prologue.append("ifl = pipe._ifetch_line")
    elif mode == 2:
        prologue.append("ia = pipe.icache.access")
    if need_repeat:
        prologue.append("irh = pipe.icache.repeat_hits")
    if has_load or has_store:
        prologue.append("da = pipe.dcache.access")
    if has_load:
        prologue.append("load_miss = 0")
    source = _emit.assemble("def _timing(pipe, mem, taken):",
                            prologue + body)
    return _emit.compile_closure(
        source,
        _emit.closure_filename("sbtiming", spec.label, spec.entry),
        {}, "_timing", kind="block-timing")


def emit_loop_timing(timing, pipeline, label: str, entry: int):
    """``exec()``-generated specialization of
    :meth:`~repro.pipeline.core.PipelineModel.account_loop` for one
    loop-body block: the generic row loop unrolled with constants baked
    (same style as the per-block ``compiled`` closures), wrapped in the
    per-trip loop with its deterministic branch pattern.
    """
    dcache_hit = pipeline._dcache_hit
    penalty = pipeline.config.mispredict_penalty
    body: List[str] = [
        "reg_ready = pipe._reg_ready",
        "get = reg_ready.get",
        "stats = pipe.stats",
        "fetch_ready = pipe._fetch_ready",
        "last_issue = pipe._last_issue",
        "last_completion = pipe._last_completion",
        "predict = pipe.predictor.predict",
        "update = pipe.predictor.update",
        "data_stall = 0",
        "load_miss = 0",
        "branch_penalty = 0",
        "mispredicts = 0",
        "k = 0",
        "issue = last_issue",
        "last_trip = trips - 1",
        "for _t in range(trips):",
    ]
    emit = body.append
    for (_fetch_key, reads, reads_flags, writes, sets_flags,
         latency, mem_kind, _nbytes) in timing.rows:
        emit("    ready = fetch_ready")
        for reg in reads:
            emit(f"    t = get({reg!r}, 0)")
            emit("    if t > ready:")
            emit("        ready = t")
        if reads_flags:
            emit(f"    t = get({_FLAGS!r}, 0)")
            emit("    if t > ready:")
            emit("        ready = t")
        emit("    issue = last_issue + 1")
        emit("    if ready > issue:")
        emit("        data_stall += ready - issue")
        emit("        issue = ready")
        if mem_kind == 1:
            emit("    a = lats[k]")
            emit("    k += 1")
            emit("    completion = issue + a")
            emit(f"    if a > {dcache_hit}:")
            emit(f"        load_miss += a - {dcache_hit}")
        else:
            # Stores and ALU rows: the d-cache was pre-advanced by
            # access_stream; the write buffer hides store latency.
            emit(f"    completion = issue + {latency}")
        for reg in writes:
            emit(f"    reg_ready[{reg!r}] = completion")
        if sets_flags:
            emit(f"    reg_ready[{_FLAGS!r}] = completion")
        emit("    last_issue = issue")
        emit("    fetch_ready = issue")
        emit("    if completion > last_completion:")
        emit("        last_completion = completion")
    branch_pc = timing.branch_pc
    branch_target = timing.branch_target
    body += [
        "    taken = _t != last_trip",
        f"    predicted = predict({branch_pc}, "
        f"{branch_target} if taken else {branch_pc})",
        f"    update({branch_pc}, taken)",
        "    if predicted != taken:",
        "        mispredicts += 1",
        f"        fetch_ready = issue + 1 + {penalty}",
        f"        branch_penalty += {penalty}",
        "pipe._last_issue = last_issue",
        "pipe._fetch_ready = fetch_ready",
        "pipe._last_completion = last_completion",
        f"stats.instructions += {timing.count} * trips",
        f"stats.simd_instructions += {timing.simd} * trips",
        "stats.branches += trips",
        "stats.mispredicts += mispredicts",
        "stats.branch_penalty_cycles += branch_penalty",
        "stats.data_stall_cycles += data_stall",
        "stats.load_miss_cycles += load_miss",
    ]
    source = _emit.assemble("def _loop(pipe, trips, lats):", body)
    return _emit.compile_closure(
        source,
        _emit.closure_filename("macro-loop-timing", label, entry),
        {}, "_loop", kind="loop-timing")


class SuperblockBackend:
    """The superblock/timing-closure backend behind the ``Backend``
    protocol."""

    name = "superblock"

    def lower_block(self, spec: BlockSpec, table):
        """(run closure, mem list) for one fused superblock."""
        result = emit_fused_block(spec, table)
        _telemetry.get().count("codegen.superblock.lowered.block")
        return result

    def lower_block_timing(self, spec: BlockSpec, *, icache_hit: int,
                           dcache_hit: int, mispredict_penalty: int,
                           call_redirect_penalty: int):
        """The compiled per-block timing closure (None for rowless
        entry-raiser blocks)."""
        compiled = emit_block_timing(
            spec, icache_hit=icache_hit, dcache_hit=dcache_hit,
            mispredict_penalty=mispredict_penalty,
            call_redirect_penalty=call_redirect_penalty)
        if compiled is not None:
            _telemetry.get().count("codegen.superblock.lowered.block-timing")
        return compiled

    def lower_loop_timing(self, timing, pipeline, label: str, entry: int):
        """The compiled whole-loop timing closure for one loop-body
        block."""
        compiled = emit_loop_timing(timing, pipeline, label, entry)
        _telemetry.get().count("codegen.superblock.lowered.loop-timing")
        return compiled
