"""Lifting pass: decoded fragments and superblocks into the shared IR.

:func:`lift_fragment` raises one translated microcode fragment into
:mod:`repro.codegen.ir` nodes — every canonical counted loop
(:func:`lift_loop`), the nested counted-loop shape
(:func:`lift_nested_loop`), and, when the *entire* fragment is
alternating scalar segments and counted loops with statically known
trip counts, a whole-fragment :class:`~repro.codegen.ir.ChainNode`
(:func:`lift_chain`) — the shape the paper's fissioned permutation
loops take after translation (§3, loop fission), and the one that lets
the fast engine run a whole fragment invocation as a single kernel.

:func:`lift_superblock` is the superblock-side lift: it scans one
straight-line run of a decoded program (the discovery previously
inlined in ``repro/interp/turbo.py``) into a
:class:`~repro.codegen.ir.BlockSpec` ready for the superblock backend.

Lifting is purely structural — it never builds closures — and
deterministic: the same fragment bytes yield the same IR.  Rejections
are counted per reason on the ``macro.plan.rejected.<reason>``
telemetry family and recognized shapes on ``macro.plan.shape.<shape>``
(docs/observability.md); both are no-ops through the disabled shim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro import arith
from repro.codegen.ir import (
    AffineAccess,
    AluNode,
    BlockSpec,
    ChainNode,
    ChainSite,
    IRKind,
    LoadNode,
    LoopNode,
    LoopShape,
    PermNode,
    ReduceNode,
    ScalarNode,
    StoreNode,
)
from repro.isa.decoded import (
    VEC_BINARY_OPS,
    VEC_PERM_OPS,
    VEC_RED_OPS,
    VEC_UNARY_OPS,
    _resolve_target,
)
from repro.isa.instructions import Imm, Mem, Reg, Sym
from repro.isa.opcodes import ELEM_SIZES, LOAD_ELEM, STORE_ELEM, InstrClass
from repro.isa.registers import is_float_reg, is_int_reg, is_vector_reg
from repro.observability import telemetry as _telemetry
from repro.pipeline.core import _INSTR_BYTES

#: Values the induction variable may reach without 32-bit wrap concerns.
_INT31 = 1 << 31

#: Upper bound on fused superblock length (defensive; real blocks are
#: short).
MAX_BLOCK = 200

#: What converting a malformed or out-of-range immediate raises; the
#: superblock emitter then declines, leaving the error to the reference
#: executor at run time.
_BAD_CONSTANT = (TypeError, ValueError, OverflowError)


def _reject(reason: str):
    """Record one recognition rejection and return None.

    Plan construction is memoized per fragment bytes (cold), so the
    telemetry call — a no-op through the disabled shim — costs nothing
    on the execution path.  Reasons form the
    ``macro.plan.rejected.<reason>`` counter family
    (docs/observability.md).
    """
    _telemetry.get().count("macro.plan.rejected." + reason)
    return None


def _affine_sym(mem: Optional[Mem], induction: str) -> Optional[str]:
    """Symbol name of a ``[sym + induction]`` operand, else None."""
    if mem is None or not isinstance(mem.base, Sym):
        return None
    index = mem.index
    if not (isinstance(index, Reg) and index.name == induction):
        return None
    return mem.base.name


def _kind(elem: Optional[str]) -> str:
    return "f" if elem == "f32" else "i"


# ---------------------------------------------------------------------------
# Canonical counted loop
# ---------------------------------------------------------------------------


def _parse_loop_header(instrs, head: int, branch_pc: int):
    """(induction, step, trip) of an ``add``/``cmp``/``blt`` closer, or
    None when the three-instruction header is not canonical."""
    if branch_pc - head < 3:
        return _reject("loop-too-short")
    cmp_i = instrs[branch_pc - 1]
    add_i = instrs[branch_pc - 2]
    if (cmp_i.opcode != "cmp" or len(cmp_i.srcs) != 2
            or add_i.opcode != "add" or add_i.dst is None
            or len(add_i.srcs) != 2):
        return _reject("bad-header")
    ind_op = add_i.srcs[0]
    if not (isinstance(ind_op, Reg) and is_int_reg(ind_op.name)
            and add_i.dst.name == ind_op.name):
        return _reject("bad-header")
    induction = ind_op.name
    step_op = add_i.srcs[1]
    if not (isinstance(step_op, Imm) and isinstance(step_op.value, int)):
        return _reject("bad-header")
    if not (isinstance(cmp_i.srcs[0], Reg)
            and cmp_i.srcs[0].name == induction
            and isinstance(cmp_i.srcs[1], Imm)
            and isinstance(cmp_i.srcs[1].value, int)):
        return _reject("bad-header")
    return induction, int(step_op.value), int(cmp_i.srcs[1].value)


def lift_loop(fragment, head: int, branch_pc: int,
              width: int) -> Optional[LoopNode]:
    """A canonical-loop :class:`LoopNode` for the loop closed by the
    ``blt`` at *branch_pc* targeting *head*, or None when any
    instruction falls outside the translator's canonical form."""
    instrs = fragment.instructions
    header = _parse_loop_header(instrs, head, branch_pc)
    if header is None:
        return None
    induction, step, trip = header
    if step != width:
        return _reject("step-not-width")

    # Vector registers written anywhere in the body: a read before the
    # body's (re)definition would be loop-carried — unsupported.
    written: Set[str] = set()
    for pc in range(head, branch_pc - 2):
        dst = instrs[pc].dst
        if dst is not None and is_vector_reg(dst.name):
            written.add(dst.name)

    body: List[object] = []
    sites: List[Tuple[str, int, bool]] = []
    defined: Dict[str, str] = {}     # body-defined vreg -> kind
    invariants: Dict[str, str] = {}  # loop-invariant input vreg -> kind
    finals: Dict[str, Optional[str]] = {}  # written vreg -> last elem
    accs: Dict[str, bool] = {}       # reduction accumulator scalars

    def use_vec(operand, kind: str) -> Optional[str]:
        """Vector register name readable as *kind* here, or None."""
        if not (isinstance(operand, Reg) and is_vector_reg(operand.name)):
            return None
        name = operand.name
        have = defined.get(name)
        if have is not None:
            return name if have == kind else None
        if name in written:
            return None  # read of a later definition: loop-carried
        prior = invariants.get(name)
        if prior is None:
            invariants[name] = kind
        elif prior != kind:
            return None
        return name

    for pc in range(head, branch_pc - 2):
        ins = instrs[pc]
        op = ins.opcode
        elem = ins.elem
        if op == "vld":
            if elem is None or ins.dst is None \
                    or not is_vector_reg(ins.dst.name):
                return _reject("bad-operand")
            sym = _affine_sym(ins.mem, induction)
            if sym is None:
                return _reject("non-affine-address")
            site = len(sites)
            sites.append((sym, _elem_size(elem), False))
            dname = ins.dst.name
            body.append(LoadNode(pc, dname, sym, elem, site))
            defined[dname] = _kind(elem)
            finals[dname] = elem
        elif op == "vst":
            if elem is None or not ins.srcs:
                return _reject("bad-operand")
            src = use_vec(ins.srcs[0], _kind(elem))
            sym = _affine_sym(ins.mem, induction)
            if sym is None:
                return _reject("non-affine-address")
            if src is None:
                return _reject("vector-dataflow")
            site = len(sites)
            sites.append((sym, _elem_size(elem), True))
            body.append(StoreNode(pc, src, sym, elem, site))
        elif op in VEC_BINARY_OPS:
            if ins.dst is None or len(ins.srcs) != 2 \
                    or not is_vector_reg(ins.dst.name):
                return _reject("bad-operand")
            kind = _kind(elem)
            a = use_vec(ins.srcs[0], kind)
            if a is None:
                return _reject("vector-dataflow")
            b_operand = ins.srcs[1]
            if isinstance(b_operand, Reg):
                b = use_vec(b_operand, kind)
                if b is None:
                    return _reject("vector-dataflow")
            else:
                b = None
            body.append(AluNode(pc, ins.dst.name, op, elem, a, b,
                                False, ins))
            defined[ins.dst.name] = kind
            finals[ins.dst.name] = elem
        elif op in VEC_UNARY_OPS:
            if ins.dst is None or not ins.srcs \
                    or not is_vector_reg(ins.dst.name):
                return _reject("bad-operand")
            kind = _kind(elem)
            a = use_vec(ins.srcs[0], kind)
            if a is None:
                return _reject("vector-dataflow")
            body.append(AluNode(pc, ins.dst.name, op, elem, a, None,
                                True, ins))
            defined[ins.dst.name] = kind
            finals[ins.dst.name] = elem
        elif op in VEC_PERM_OPS:
            if ins.dst is None or not ins.srcs \
                    or not is_vector_reg(ins.dst.name):
                return _reject("bad-operand")
            kind = _kind(elem)
            a = use_vec(ins.srcs[0], kind)
            if a is None:
                return _reject("vector-dataflow")
            body.append(PermNode(pc, ins.dst.name, op, elem, a, ins))
            defined[ins.dst.name] = kind
            finals[ins.dst.name] = elem
        elif op in VEC_RED_OPS:
            if ins.dst is None or len(ins.srcs) != 2:
                return _reject("bad-operand")
            dname = ins.dst.name
            acc_op = ins.srcs[0]
            # Canonical accumulator form only: dst == srcs[0], a scalar
            # register of the reduction's kind, distinct from the
            # induction and from every other accumulator.
            if (is_vector_reg(dname) or dname == induction
                    or dname in accs
                    or not (isinstance(acc_op, Reg)
                            and acc_op.name == dname)):
                return _reject("bad-accumulator")
            kind = _kind(elem)
            if kind == "f" and not is_float_reg(dname):
                return _reject("bad-accumulator")
            if kind == "i" and not is_int_reg(dname):
                return _reject("bad-accumulator")
            vsrc = use_vec(ins.srcs[1], kind)
            if vsrc is None:
                return _reject("vector-dataflow")
            accs[dname] = True
            body.append(ReduceNode(pc, dname, op, elem, vsrc))
        else:
            return _reject("unsupported-op")

    # Memory-ordering precondition for whole-array execution: every
    # trip's windows are disjoint across trips (stride == width
    # elements), which holds per symbol only when all its sites share
    # one element size once a store is involved.
    store_syms = {sym for (sym, _esz, w) in sites if w}
    for sym in store_syms:
        if len({esz for (s, esz, _w) in sites if s == sym}) != 1:
            return _reject("mixed-elem-store")

    return LoopNode(head, branch_pc, width, induction, trip, width,
                    tuple(body), tuple(sites),
                    tuple(invariants.items()), tuple(finals.items()),
                    tuple(accs))


def _elem_size(elem: str) -> int:
    return ELEM_SIZES[elem]


# ---------------------------------------------------------------------------
# Nested counted loop
# ---------------------------------------------------------------------------


def _mentions_reg(ins, name: str) -> bool:
    if ins.dst is not None and ins.dst.name == name:
        return True
    for src in ins.srcs:
        if isinstance(src, Reg) and src.name == name:
            return True
    mem = ins.mem
    if mem is not None:
        if isinstance(mem.base, Reg) and mem.base.name == name:
            return True
        if isinstance(mem.index, Reg) and mem.index.name == name:
            return True
    return False


def static_loop_trips(node: LoopNode) -> Optional[int]:
    """Whole trip count of *node* entered with its induction at 0, or
    None when the count would be illegal (negative trip, 32-bit wrap)."""
    trip = node.trip
    width = node.width
    if trip < 0:
        return None
    n = ((trip + width - 1) // width) if trip > 0 else 1
    if n * width >= _INT31:
        return None
    return n


def lift_nested_loop(fragment, head: int, branch_pc: int, width: int,
                     loops: Dict[int, LoopNode]) -> Optional[LoopNode]:
    """The nested counted-loop shape: an outer ``add``/``cmp``/``blt``
    loop whose body is exactly an induction reset (``mov rI, #0``)
    followed by one canonical inner vector loop, with the outer
    induction untouched by the body.  *loops* holds already-lifted
    canonical loops (the inner one lifts first — its back-branch sits
    at a lower pc)."""
    instrs = fragment.instructions
    header = _parse_loop_header(instrs, head, branch_pc)
    if header is None:
        return None
    outer_ind, step, trip = header
    if step <= 0:
        return _reject("bad-header")
    inner = loops.get(head + 1)
    if inner is None or inner.inner is not None \
            or inner.branch_pc != branch_pc - 3:
        return _reject("nested-body")
    reset = instrs[head]
    if not (reset.opcode == "mov" and reset.dst is not None
            and reset.dst.name == inner.induction
            and len(reset.srcs) == 1 and isinstance(reset.srcs[0], Imm)
            and reset.srcs[0].value == 0):
        return _reject("nested-body")
    if outer_ind == inner.induction:
        return _reject("nested-body")
    for pc in range(head, branch_pc - 2):
        if _mentions_reg(instrs[pc], outer_ind):
            return _reject("nested-outer-induction-used")
    inner_trips = static_loop_trips(inner)
    if inner_trips is None or inner_trips < 2:
        return _reject("nested-inner-trips")
    body = (ScalarNode(pc=head, op="mov-imm", dst=inner.induction,
                       value=0),
            inner)
    return LoopNode(head, branch_pc, width, outer_ind, trip, step, body)


# ---------------------------------------------------------------------------
# Whole-fragment chains
# ---------------------------------------------------------------------------


def _lift_scalar(pc: int, ins, sites: List[ChainSite]):
    """A :class:`ScalarNode` for one straight-line scalar op, or None."""
    op = ins.opcode
    if op == "mov":
        if ins.dst is None or len(ins.srcs) != 1 \
                or not is_int_reg(ins.dst.name):
            return None
        src = ins.srcs[0]
        if isinstance(src, Imm):
            if not isinstance(src.value, int):
                return None
            return ScalarNode(pc=pc, op="mov-imm", dst=ins.dst.name,
                              value=arith.wrap_int(src.value))
        if isinstance(src, Reg) and is_int_reg(src.name):
            return ScalarNode(pc=pc, op="mov-reg", dst=ins.dst.name,
                              src=src.name)
        return None
    if op == "fmov":
        if ins.dst is None or len(ins.srcs) != 1 \
                or not is_float_reg(ins.dst.name):
            return None
        src = ins.srcs[0]
        if isinstance(src, Imm):
            try:
                value = arith.f32(float(src.value))
            except (TypeError, ValueError):
                return None
            return ScalarNode(pc=pc, op="fmov-imm", dst=ins.dst.name,
                              value=value)
        if isinstance(src, Reg) and is_float_reg(src.name):
            return ScalarNode(pc=pc, op="fmov-reg", dst=ins.dst.name,
                              src=src.name)
        return None
    elem = STORE_ELEM.get(op)
    if elem is not None and op != "vst":
        if len(ins.srcs) != 1 or ins.mem is None \
                or not isinstance(ins.mem.base, Sym):
            return None
        index = ins.mem.index
        if index is None:
            offset = 0
        elif isinstance(index, Imm) and isinstance(index.value, int):
            offset = int(index.value)
        else:
            return None
        src = ins.srcs[0]
        want_float = elem == "f32"
        if isinstance(src, Reg):
            ok = is_float_reg(src.name) if want_float \
                else is_int_reg(src.name)
            if not ok:
                return None
            src_name, value = src.name, None
        elif isinstance(src, Imm):
            if want_float:
                try:
                    src_name, value = None, float(src.value)
                except (TypeError, ValueError):
                    return None
            else:
                if not isinstance(src.value, int):
                    return None
                src_name, value = None, int(src.value)
        else:
            return None
        site = len(sites)
        sites.append(ChainSite(ins.mem.base.name, _elem_size(elem),
                               True, True, offset, 1))
        return ScalarNode(pc=pc, op="store", src=src_name, value=value,
                          sym=ins.mem.base.name, offset=offset,
                          elem=elem, site=site)
    return None


def lift_chain(fragment, width: int,
               loops: Dict[int, LoopNode]) -> Optional[ChainNode]:
    """A whole-fragment :class:`ChainNode`, or None when the fragment
    is not exactly alternating scalar segments and canonical counted
    loops whose inductions are statically reset to zero."""
    instrs = fragment.instructions
    count = len(instrs)
    if count == 0:
        return None
    regions: List[object] = []
    sites: List[ChainSite] = []
    trips: List[Tuple[int, int, int]] = []  # (region idx, trips, site base)
    static_ints: Dict[str, Optional[int]] = {}
    total = 0
    pc = 0
    while pc < count:
        loop = loops.get(pc)
        if loop is not None and loop.inner is None:
            if static_ints.get(loop.induction) != 0:
                return _reject("chain-induction-not-zero")
            nloop = static_loop_trips(loop)
            if nloop is None:
                return _reject("chain-trip-count")
            site_base = len(sites)
            for sym, esz, is_store in loop.sites:
                sites.append(ChainSite(sym, esz, is_store, False, 0,
                                       nloop * width))
            trips.append((len(regions), nloop, site_base))
            regions.append(loop)
            total += nloop * loop.blen
            static_ints[loop.induction] = nloop * width
            for acc in loop.accs:
                static_ints.pop(acc, None)
            pc = loop.branch_pc + 1
            continue
        node = _lift_scalar(pc, instrs[pc], sites)
        if node is None:
            return _reject("chain-scalar-op")
        if node.op == "mov-imm":
            static_ints[node.dst] = node.value
        elif node.op == "mov-reg":
            known = static_ints.get(node.src)
            if known is None:
                static_ints.pop(node.dst, None)
            else:
                static_ints[node.dst] = known
        regions.append(node)
        total += 1
        pc += 1
    if not trips:
        return _reject("chain-no-loop")
    return ChainNode(width, tuple(regions), tuple(sites), tuple(trips),
                     total)


# ---------------------------------------------------------------------------
# Whole-fragment lift
# ---------------------------------------------------------------------------


@dataclass
class FragmentIR:
    """Every lifted region of one fragment at one hardware width."""

    width: int
    loops: Dict[int, LoopNode]
    chain: Optional[ChainNode]

    def node_kinds(self) -> Set[IRKind]:
        """All :class:`IRKind` members appearing anywhere in this IR."""
        kinds: Set[IRKind] = set()

        def visit(node) -> None:
            kinds.add(node.kind)
            if isinstance(node, LoopNode):
                for child in node.body:
                    visit(child)
            elif isinstance(node, ChainNode):
                for child in node.regions:
                    visit(child)

        for loop in self.loops.values():
            visit(loop)
        if self.chain is not None:
            visit(self.chain)
        return kinds


def lift_fragment(fragment, width: int) -> FragmentIR:
    """Lift every recognizable region of *fragment* into IR nodes.

    Returns a :class:`FragmentIR` whose ``loops`` map loop-head pc to
    the lifted :class:`LoopNode` (canonical loops and nested outer
    loops), and whose ``chain`` is the whole-fragment
    :class:`ChainNode` when the fragment matches the chain shape.
    """
    tel = _telemetry.get()
    loops: Dict[int, LoopNode] = {}
    instrs = fragment.instructions
    for pc, ins in enumerate(instrs):
        if ins.opcode != "blt" or ins.target is None:
            continue
        head = fragment.labels.get(ins.target)
        if head is None or not 0 <= head < pc:
            continue
        node = lift_loop(fragment, head, pc, width)
        if node is not None:
            loops[head] = node
            tel.count("macro.plan.shape.canonical-loop")
            continue
        node = lift_nested_loop(fragment, head, pc, width, loops)
        if node is not None:
            loops[head] = node
            tel.count("macro.plan.shape.nested-loop")
    chain = lift_chain(fragment, width, loops)
    if chain is not None:
        tel.count("macro.plan.shape.chain")
        if len(chain.loops) >= 2:
            tel.count("macro.plan.shape.fission-chain")
        if any(n == 1 for (_ri, n, _sb) in chain.trips):
            tel.count("macro.plan.shape.single-trip-loop")
    return FragmentIR(width, loops, chain)


# ---------------------------------------------------------------------------
# Superblock lift
# ---------------------------------------------------------------------------


def _timing_row(table, pc: int, meta) -> tuple:
    """One :class:`~repro.pipeline.core.BlockTiming` row for *pc*."""
    if table.fetch_mode == 1:
        fetch_key = (table.code_base
                     + pc * _INSTR_BYTES) // table.iline_bytes
    elif table.fetch_mode == 2:
        fetch_key = table.code_base + pc * _INSTR_BYTES
    else:
        fetch_key = 0
    cls = meta.cls
    if meta.is_load:
        mem_kind = 1
    elif cls is InstrClass.STORE or cls is InstrClass.VSTORE:
        mem_kind = 2
    else:
        mem_kind = 0
    nbytes = meta.elem_bytes
    if meta.is_vector and table.vector_width:
        nbytes *= table.vector_width
    return (fetch_key, meta.reads, meta.reads_flags, meta.writes,
            meta.sets_flags, meta.latency, mem_kind, nbytes)


def lift_superblock(table, entry: int) -> BlockSpec:
    """Scan the straight-line run at *entry* of a
    :class:`~repro.interp.turbo.SuperblockTable` into a
    :class:`BlockSpec`: the discovery pass plus the pre-extracted
    timing rows and resolved branch facts the backend emitters consume.
    """
    instructions = table.instructions
    metas = table.metas
    marked = table.marked
    n = len(instructions)
    limit = min(n, entry + MAX_BLOCK)

    pcs: List[int] = []
    term = 0          # 0 none, 1 branch, 2 call/ret, 3 halt
    i = entry
    exit_pc = entry
    while True:
        if i >= limit:
            exit_pc = i
            break
        if i > entry and marked is not None and marked[i]:
            exit_pc = i
            break
        meta = metas[i]
        if meta is None:
            # Unknown opcode: executable only as the entry, where its
            # deferred decode error must fire (rows stay unused).
            if i == entry:
                pcs.append(i)
            exit_pc = i
            break
        cls = meta.cls
        pcs.append(i)
        if cls is InstrClass.BRANCH:
            term = 1
            break
        if cls is InstrClass.CALL or cls is InstrClass.RET:
            term = 2
            break
        if instructions[i].opcode == "halt":
            term = 3
            break
        i += 1
        exit_pc = i

    rows = []
    simd = 0
    for pc in pcs:
        meta = metas[pc]
        if meta is None:
            continue
        rows.append(_timing_row(table, pc, meta))
        simd += meta.is_vector
    off = table.pc_offset
    branch_pc = branch_target = 0
    if term == 1:
        tpc = pcs[-1]
        branch_pc = tpc + off
        target, _err = _resolve_target(table.program,
                                       instructions[tpc].target)
        branch_target = (target + off) if target is not None \
            else branch_pc
    label = getattr(table.program, "name", "program")
    return BlockSpec(entry, tuple(pcs), term, exit_pc, tuple(rows),
                     len(pcs), simd, table.fetch_mode, branch_pc,
                     branch_target, label)


# ---------------------------------------------------------------------------
# Self-loop shape
# ---------------------------------------------------------------------------


def _address_terms(mem: Mem, scale: int, symbols):
    """``(const, ((register, multiplier), ...))`` for a scalar access's
    effective address ``base + index * scale``, or None for the forms
    the executor keeps (a non-integer register or an undefined symbol,
    whose lookup must fail at run time, from the faulting pc).

    A symbol base is read from the run's table now: a superblock table
    lives for one ``Machine.run``, over that run's symbols.
    """
    const = 0
    terms: List[Tuple[str, int]] = []
    base = mem.base
    if isinstance(base, Sym):
        try:
            const = symbols.address_of(base.name)
        except KeyError:
            return None
    elif isinstance(base, Reg) and is_int_reg(base.name):
        terms.append((base.name, 1))
    else:
        return None
    index = mem.index
    if isinstance(index, Imm):
        try:
            const += int(index.value) * scale
        except _BAD_CONSTANT:
            return None
    elif isinstance(index, Reg) and is_int_reg(index.name):
        terms.append((index.name, scale))
    elif index is not None:
        return None
    return const, tuple(terms)


def scalar_access(instr, state):
    """``(bank, nbytes, const, terms)`` of a scalar load or store the
    window closure runs inline (:func:`_address_terms`), or None.

    None for a register of the other class (the executor's generic
    path: a conversion, or the reference's error), an address form the
    executor keeps, and a constant address that faults: the memory's
    size and read-only ranges are fixed once the loader has placed the
    program.
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
    if elem == "f32":
        bank = "floats" if is_float_reg(reg.name) else None
    else:
        bank = "ints" if is_int_reg(reg.name) else None
    nbytes = ELEM_SIZES[elem]
    parts = None if bank is None \
        else _address_terms(instr.mem, nbytes, state.symbols)
    if parts is None:
        return None
    const, terms = parts
    memory = state.memory
    if not terms and (not 0 <= const <= memory.size - nbytes or (
            not load and memory.overlaps_read_only(const, nbytes))):
        return None
    return bank, nbytes, const, terms


def _induction_step(instr) -> Optional[int]:
    """The step of an inline ``add r, r, #imm`` / ``sub r, r, #imm``
    on an integer register, else None."""
    if instr.opcode not in ("add", "sub") or instr.dst is None \
            or len(instr.srcs) != 2:
        return None
    a, b = instr.srcs
    d = instr.dst.name
    if not (is_int_reg(d) and isinstance(a, Reg) and a.name == d
            and isinstance(b, Imm)):
        return None
    try:
        step = int(b.value)
    except _BAD_CONSTANT:
        return None
    return step if instr.opcode == "add" else -step


def lift_loop_shape(table, spec: BlockSpec) -> LoopShape:
    """The :class:`~repro.codegen.ir.LoopShape` of the self-loop *spec*
    of a :class:`~repro.interp.turbo.SuperblockTable` (lift only, no
    codegen).

    An affine access's address registers are each an induction or a
    register the body never writes, so its address moves by a fixed
    slope per trip as long as no induction wraps.  The body is every
    pc but the closing branch; a chained executor step counts by the
    registers and flags its metadata says it writes and reads.
    """
    instructions = table.instructions
    metas = table.metas
    body = spec.pcs[:-1]
    writers: Dict[str, List[int]] = {}
    flag_writers: List[int] = []
    reads_flags = False
    for pc in body:
        meta = metas[pc]
        for reg in meta.writes:
            writers.setdefault(reg, []).append(pc)
        if meta.sets_flags:
            flag_writers.append(pc)
        reads_flags = reads_flags or meta.reads_flags
    inductions: Dict[str, Tuple[int, int]] = {}
    for reg, pcs in writers.items():
        if len(pcs) == 1:
            step = _induction_step(instructions[pcs[0]])
            if step is not None:
                inductions[reg] = (step, pcs[0])

    accesses: List[AffineAccess] = []
    all_affine = True
    for pc in body:
        meta = metas[pc]
        if not (meta.is_load or meta.cls is InstrClass.STORE
                or meta.cls is InstrClass.VSTORE):
            continue
        facts = None if meta.is_vector \
            else scalar_access(instructions[pc], table.state)
        access = None
        if facts is not None:
            _bank, nbytes, const, terms = facts
            slope = 0
            for reg, mult in terms:
                if reg in inductions:
                    step, update = inductions[reg]
                    slope += step * mult
                    if update < pc:
                        const += step * mult
                elif reg in writers:
                    break
            else:
                access = AffineAccess(pc, terms, const, slope, nbytes,
                                      not meta.is_load)
        if access is None:
            all_affine = False
        else:
            accesses.append(access)

    counted = None
    # A self-loop closes with ``b`` or a ``b<cond>`` the emitter tests
    # inline (superblock.loop_condition); only the latter can exit.
    cond = instructions[spec.pcs[-1]].opcode[1:]
    if len(flag_writers) == 1 and not reads_flags and cond:
        instr = instructions[flag_writers[0]]
        if instr.opcode == "cmp" and len(instr.srcs) == 2:
            a, b = instr.srcs
            if isinstance(a, Reg) and a.name in inductions \
                    and isinstance(b, Imm) and type(b.value) is int:
                counted = (flag_writers[0], a.name, b.value, cond)
    return LoopShape(
        tuple((reg, step, update)
              for reg, (step, update) in inductions.items()),
        tuple(accesses), counted,
        tuple(access.slope for access in accesses) if all_affine else None)
