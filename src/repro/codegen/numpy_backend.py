"""Numpy kernel backend: whole-array lowering of fragment IR.

Lowers :class:`~repro.codegen.ir.LoopNode` bodies — and whole
:class:`~repro.codegen.ir.ChainNode` fragments — into ``exec()``-
compiled kernels over 2-D ``(trips, width)`` numpy arrays, replacing
the hand-rolled compiler that used to live inline in
``repro/interp/macro.py``.  Each per-instruction builder reproduces
the reference lane semantics of :mod:`repro.simd.vector_ops` on 2-D
arrays, with that module's numpy tables: integer lanes computed in
int64 and truncated with ``astype`` (== ``wrap_int``), saturation
clipped against ``INT_BOUNDS``, float lanes in float32 with one
rounding per op, float min/max via ``np.where`` (Python tie/NaN
order), float bitwise through ``view(uint32)``.  Anything the
whole-array form cannot reproduce bit-identically makes the lowering
return None and the caller counts a
``macro.plan.rejected.unsupported-lowering`` (the region then runs as
reference-executor steps).

:func:`lower_loop` kernels have the signature
``(memory, vregs, regs, bases, n)``; :func:`lower_chain` kernels bake
every region's static trip count and run the whole fragment as
``(memory, vregs, regs, bases)`` — scalar segments become direct
register-bank assignments, each loop region inlines its whole-array
body, and induction finals are materialized between regions so later
segments read the architecturally correct values.

Sources are assembled and compiled through :mod:`repro.codegen.emit`
(stable filenames) and are deterministic functions of the lifted IR —
the hypothesis suite pins byte-identical source for byte-identical
fragments.  Telemetry: ``codegen.numpy.lowered.<shape>``
per successful lowering, ``codegen.numpy.unsupported`` per refusal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro import arith
from repro.codegen import emit as _emit
from repro.codegen.ir import (
    AluNode,
    ChainNode,
    LoadNode,
    LoopNode,
    PermNode,
    ReduceNode,
    ScalarNode,
    StoreNode,
)
from repro.isa.instructions import Imm, VImm
from repro.observability import telemetry as _telemetry
from repro.simd import vector_ops
from repro.simd.permutations import PermPattern


def _kind(elem: Optional[str]) -> str:
    return "f" if elem == "f32" else "i"


def _full(arr: np.ndarray, n: int) -> np.ndarray:
    """Broadcast a loop-invariant ``(1, width)`` row to ``(n, width)``."""
    if arr.shape[0] == n:
        return arr
    return np.broadcast_to(arr, (n,) + arr.shape[1:])


# ---------------------------------------------------------------------------
# Per-instruction numpy lowerings over (trips, width) arrays.
# ---------------------------------------------------------------------------


def _make_load(elem: str, width: int):
    def load(memory, base, n, _elem=elem, _w=width):
        return memory.load_array(base, _elem, n * _w).reshape(n, _w)
    return load


def _make_store(elem: str):
    def store(memory, base, arr, _elem=elem):
        memory.store_array(base, _elem, arr)
    return store


def _bake_vector_imm(operand, elem: Optional[str], width: int):
    """Prepared rhs array for an ``Imm``/``VImm`` operand, or None."""
    kind = _kind(elem or "i32")
    if isinstance(operand, Imm):
        value = operand.value
        if kind == "f":
            return np.float32(value)
        if not isinstance(value, int):
            return None
        return np.int64(value)
    if isinstance(operand, VImm):
        lanes = list(operand.lanes)
        if len(lanes) != width:
            return None  # the reference raises; its steps reproduce it
        if kind == "f":
            return np.asarray(lanes, dtype=np.float32).reshape(1, width)
        if not all(isinstance(v, int) for v in lanes):
            return None
        return np.asarray(lanes, dtype=np.int64).reshape(1, width)
    return None


def _bake_mask_imm(operand, width: int):
    """uint32 mask patterns for a float-bitwise ``Imm``/``VImm`` rhs."""
    if isinstance(operand, Imm):
        lanes = [operand.value] * width
    elif isinstance(operand, VImm):
        lanes = list(operand.lanes)
        if len(lanes) != width:
            return None
    else:
        return None
    try:
        masks = vector_ops._mask_lanes(lanes)
    except (TypeError, ValueError, OverflowError):
        return None
    return masks.reshape(1, width)


def _quiet_nans(bits: np.ndarray) -> np.ndarray:
    """Set the quiet bit of every signaling-NaN pattern in *bits*.

    A float bitwise op can combine two finite lanes into a NaN pattern
    (``vorr`` of exponents that OR to all ones).  The reference hands
    each result lane to Python as a float, and widening a signaling NaN
    to binary64 quiets it, so the lane it stores has bit 22 set.
    """
    return np.where((bits & 0x7FFFFFFF) > 0x7F800000, bits | 0x00400000,
                    bits)


def _make_binary(opcode: str, elem: Optional[str], b_operand, width: int):
    """Whole-array closure for one binary vector op; None when the
    lowering cannot be bit-identical.  ``b_operand`` is None for a
    register rhs — the closure then takes ``(a, b)`` — or the
    ``Imm``/``VImm`` operand to pre-bake, making the closure unary."""
    elem = elem or "i32"
    if elem == "f32":
        if opcode in vector_ops._FLOAT_BITWISE:
            want_and = opcode in ("vand", "vmask")
            if b_operand is None:
                def fn(a, b, _and=want_and):
                    bits = a.view(np.uint32)
                    masks = b.view(np.uint32)
                    out = (bits & masks) if _and else (bits | masks)
                    return _quiet_nans(out).view(np.float32)
                return fn
            masks = _bake_mask_imm(b_operand, width)
            if masks is None:
                return None

            def fn(a, _m=masks, _and=want_and):
                bits = a.view(np.uint32)
                out = (bits & _m) if _and else (bits | _m)
                return _quiet_nans(out).view(np.float32)
            return fn
        if opcode == "vabd":
            if b_operand is None:
                return lambda a, b: np.abs(a - b)
            bb = _bake_vector_imm(b_operand, elem, width)
            if bb is None:
                return None
            return lambda a, _b=bb: np.abs(a - _b)
        if opcode in ("vmin", "vmax"):
            want_min = opcode == "vmin"
            if b_operand is None:
                def fn(a, b, _min=want_min):
                    return np.where(b < a, b, a) if _min \
                        else np.where(b > a, b, a)
                return fn
            bb = _bake_vector_imm(b_operand, elem, width)
            if bb is None:
                return None

            def fn(a, _b=bb, _min=want_min):
                return np.where(_b < a, _b, a) if _min \
                    else np.where(_b > a, _b, a)
            return fn
        np_op = vector_ops._NP_FLOAT_BINARY.get(opcode)
        if np_op is None:
            return None
        if b_operand is None:
            return lambda a, b, _op=np_op: _op(a, b)
        bb = _bake_vector_imm(b_operand, elem, width)
        if bb is None:
            return None
        return lambda a, _b=bb, _op=np_op: _op(a, _b)

    dtype = vector_ops._NP_INT_DTYPE.get(elem)
    if dtype is None:
        return None
    if opcode in ("vqadd", "vqsub"):
        lo, hi = arith.INT_BOUNDS[elem]
        want_add = opcode == "vqadd"
        if b_operand is None:
            def fn(a, b, _lo=lo, _hi=hi, _add=want_add, _dtype=dtype):
                aa = a.astype(np.int64)
                bb = b.astype(np.int64)
                raw = aa + bb if _add else aa - bb
                return np.clip(raw, _lo, _hi).astype(_dtype)
            return fn
        bb = _bake_vector_imm(b_operand, elem, width)
        if bb is None:
            return None

        def fn(a, _b=bb, _lo=lo, _hi=hi, _add=want_add, _dtype=dtype):
            aa = a.astype(np.int64)
            raw = aa + _b if _add else aa - _b
            return np.clip(raw, _lo, _hi).astype(_dtype)
        return fn
    np_op = vector_ops._NP_INT_BINARY.get(opcode)
    if np_op is None:
        return None
    if b_operand is None:
        def fn(a, b, _op=np_op, _dtype=dtype):
            return _op(a.astype(np.int64), b.astype(np.int64)).astype(_dtype)
        return fn
    bb = _bake_vector_imm(b_operand, elem, width)
    if bb is None:
        return None

    def fn(a, _b=bb, _op=np_op, _dtype=dtype):
        return _op(a.astype(np.int64), _b).astype(_dtype)
    return fn


def _make_unary(opcode: str, elem: Optional[str]):
    elem = elem or "i32"
    np_op = {"vabs": np.abs, "vneg": np.negative}.get(opcode)
    if np_op is None:
        return None
    if elem == "f32":
        return lambda a, _op=np_op: _op(a)
    dtype = vector_ops._NP_INT_DTYPE.get(elem)
    if dtype is None:
        return None
    return lambda a, _op=np_op, _dtype=dtype: \
        _op(a.astype(np.int64)).astype(_dtype)


def _make_perm(instr, width: int):
    """Precomputed index gather for one vbfly/vrev/vrot, or None."""
    try:
        period_operand = instr.srcs[1] if len(instr.srcs) > 1 else Imm(width)
        if not isinstance(period_operand, Imm):
            return None
        period = int(period_operand.value)
        if instr.opcode == "vbfly":
            pattern = PermPattern("bfly", period)
        elif instr.opcode == "vrev":
            pattern = PermPattern("rev", period)
        else:
            if len(instr.srcs) < 3 or not isinstance(instr.srcs[2], Imm):
                return None
            pattern = PermPattern("rot", period, int(instr.srcs[2].value))
        if width % pattern.period != 0:
            return None
        lane_map = np.asarray(pattern.lane_map(width), dtype=np.intp)
    except (ValueError, TypeError):
        return None
    return lambda a, _map=lane_map: a[:, _map]


def _make_reduce(opcode: str, elem: Optional[str]):
    """Whole-stream reduction fold, bit-exact vs. the per-trip chain.

    f32 ``vredsum`` uses ``np.add.accumulate`` — a strictly sequential
    left fold in float32, i.e. the reference's one-rounding-per-element
    chain; f32 min/max fold through ``arith.float_op`` for its Python
    tie/NaN ordering.  Integer sums are computed wide and wrapped once
    (congruent mod 2**32 to the per-step wrap); integer min/max never
    leave the 32-bit range, so per-step wraps are the identity.
    """
    elem = elem or "i32"
    if elem == "f32":
        if opcode == "vredsum":
            def fn(acc, arr):
                flat = np.empty(arr.size + 1, dtype=np.float32)
                flat[0] = acc
                flat[1:] = arr.reshape(-1)
                return float(np.add.accumulate(flat)[-1])
            return fn
        if opcode in ("vredmin", "vredmax"):
            op = "fmin" if opcode == "vredmin" else "fmax"

            def fn(acc, arr, _op=op):
                result = float(acc)
                for lane in arr.reshape(-1).tolist():
                    result = arith.float_op(_op, result, lane)
                return result
            return fn
        return None
    if opcode == "vredsum":
        def fn(acc, arr):
            return arith.wrap_int(int(acc) + int(arr.sum(dtype=np.int64)))
        return fn
    if opcode in ("vredmin", "vredmax"):
        want_min = opcode == "vredmin"
        pick = min if want_min else max

        def fn(acc, arr, _pick=pick, _min=want_min):
            best = arr.min() if _min else arr.max()
            return arith.wrap_int(_pick(int(acc), int(best)))
        return fn
    return None


def _make_invariant(name: str, kind: str):
    """Reader for a loop-invariant vector register input."""
    dtype = np.float32 if kind == "f" else np.int64

    def read(vregs, _n=name, _dtype=dtype):
        return np.asarray(vregs.read(_n), dtype=_dtype).reshape(1, -1)
    return read


# ---------------------------------------------------------------------------
# IR -> source emission
# ---------------------------------------------------------------------------


def _emit_loop_body(node: LoopNode, ns: dict, width: int, prefix: str,
                    site_base: int, n_expr: str,
                    emits: List[str]) -> bool:
    """Emit one loop body's whole-array lines into *emits*.

    Value names are ``v{prefix}_{reg}`` / ``acc{prefix}_{reg}`` so chain
    lowering can inline several loop regions into one function without
    collisions; namespace keys use the node pc, unique per fragment.
    Returns False when any node has no bit-identical lowering.
    """
    for nd in node.body:
        if isinstance(nd, LoadNode):
            key = f"ld{nd.pc}"
            ns[key] = _make_load(nd.elem, width)
            emits.append(f"v{prefix}_{nd.dst} = {key}(memory, "
                         f"bases[{site_base + nd.site}], {n_expr})")
        elif isinstance(nd, StoreNode):
            key = f"st{nd.pc}"
            ns[key] = _make_store(nd.elem)
            emits.append(f"{key}(memory, bases[{site_base + nd.site}], "
                         f"_full(v{prefix}_{nd.src}, {n_expr}))")
        elif isinstance(nd, AluNode):
            key = f"op{nd.pc}"
            if nd.unary:
                fn = _make_unary(nd.opcode, nd.elem)
            elif nd.b is not None:
                fn = _make_binary(nd.opcode, nd.elem, None, width)
            else:
                fn = _make_binary(nd.opcode, nd.elem, nd.instr.srcs[1],
                                  width)
            if fn is None:
                return False
            ns[key] = fn
            if nd.b is not None:
                emits.append(f"v{prefix}_{nd.dst} = "
                             f"{key}(v{prefix}_{nd.a}, v{prefix}_{nd.b})")
            else:
                emits.append(f"v{prefix}_{nd.dst} = {key}(v{prefix}_{nd.a})")
        elif isinstance(nd, PermNode):
            fn = _make_perm(nd.instr, width)
            if fn is None:
                return False
            key = f"op{nd.pc}"
            ns[key] = fn
            emits.append(f"v{prefix}_{nd.dst} = {key}(v{prefix}_{nd.a})")
        elif isinstance(nd, ReduceNode):
            fn = _make_reduce(nd.opcode, nd.elem)
            if fn is None:
                return False
            key = f"red{nd.pc}"
            ns[key] = fn
            emits.append(f"acc{prefix}_{nd.dst} = {key}(acc{prefix}_{nd.dst},"
                         f" _full(v{prefix}_{nd.src}, {n_expr}))")
        else:
            return False
    return True


def _loop_prologue(node: LoopNode, ns: dict, prefix: str) -> List[str]:
    lines = [f"acc{prefix}_{name} = regs.read({name!r})"
             for name in node.accs]
    for name, kind in node.invariants:
        key = f"inv{prefix}_{name}"
        ns[key] = _make_invariant(name, kind)
        lines.append(f"v{prefix}_{name} = {key}(vregs)")
    return lines


def _loop_epilogue(node: LoopNode, prefix: str) -> List[str]:
    lines = [f"regs.write({name!r}, acc{prefix}_{name})"
             for name in node.accs]
    for name, last_elem in node.finals:
        lines.append(f"vregs.write({name!r}, "
                     f"v{prefix}_{name}[-1].tolist(), {last_elem!r})")
    return lines


def _scalar_line(node: ScalarNode) -> Optional[str]:
    """One generated line for a chain scalar op, or None."""
    op = node.op
    if op == "mov-imm":
        return f"ints[{node.dst!r}] = {node.value!r}"
    if op == "mov-reg":
        return f"ints[{node.dst!r}] = ints[{node.src!r}]"
    if op == "fmov-imm":
        lit = _emit.literal(node.value)
        if lit is None:
            return None
        return f"floats[{node.dst!r}] = {lit}"
    if op == "fmov-reg":
        return f"floats[{node.dst!r}] = floats[{node.src!r}]"
    if op == "store":
        if node.src is not None:
            expr = (f"floats[{node.src!r}]" if node.elem == "f32"
                    else f"ints[{node.src!r}]")
        else:
            expr = _emit.literal(node.value)
            if expr is None:
                return None
        return f"memory.store(bases[{node.site}], {node.elem!r}, {expr})"
    return None


@dataclass(frozen=True)
class LoweredKernel:
    """One compiled kernel plus the exact source it was built from."""

    kernel: object
    source: str


def lower_loop(node: LoopNode, label: str) -> Optional[LoweredKernel]:
    """Kernel ``(memory, vregs, regs, bases, n)`` running *n* trips of
    one canonical loop, or None when unsupported."""
    ns = {"np": np, "_full": _full}
    emits: List[str] = []
    if not _emit_loop_body(node, ns, node.width, "", 0, "n", emits):
        _telemetry.get().count("codegen.numpy.unsupported")
        return None
    body = _loop_prologue(node, ns, "") + emits + _loop_epilogue(node, "")
    source = _emit.assemble("def _kernel(memory, vregs, regs, bases, n):",
                            body)
    kernel = _emit.compile_closure(
        source, _emit.closure_filename("macro-kernel", label, node.head),
        ns, "_kernel", kind="numpy-kernel")
    _telemetry.get().count("codegen.numpy.lowered.loop")
    return LoweredKernel(kernel, source)


def lower_chain(node: ChainNode, label: str) -> Optional[LoweredKernel]:
    """Kernel ``(memory, vregs, regs, bases)`` running one whole
    chain-shaped fragment, or None when any region is unsupported."""
    tel = _telemetry.get()
    ns = {"np": np, "_full": _full}
    body: List[str] = ["ints = regs.ints", "floats = regs.floats"]
    trips = {ri: (n, sb) for (ri, n, sb) in node.trips}
    for ri, region in enumerate(node.regions):
        if isinstance(region, LoopNode):
            nloop, site_base = trips[ri]
            prefix = str(ri)
            emits: List[str] = []
            if not _emit_loop_body(region, ns, node.width, prefix,
                                   site_base, str(nloop), emits):
                tel.count("codegen.numpy.unsupported")
                return None
            body += _loop_prologue(region, ns, prefix)
            body += emits
            body += _loop_epilogue(region, prefix)
            # Materialize the induction final between regions: a later
            # scalar segment may read it.
            body.append(f"ints[{region.induction!r}] = "
                        f"{nloop * node.width}")
        else:
            line = _scalar_line(region)
            if line is None:
                tel.count("codegen.numpy.unsupported")
                return None
            body.append(line)
    source = _emit.assemble("def _chain(memory, vregs, regs, bases):", body)
    kernel = _emit.compile_closure(
        source, _emit.closure_filename("macro-chain", label, 0),
        ns, "_chain", kind="numpy-kernel")
    tel.count("codegen.numpy.lowered.chain")
    return LoweredKernel(kernel, source)
