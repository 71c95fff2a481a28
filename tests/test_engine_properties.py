"""Numpy fragment kernels vs. the block path, lane for lane at the rails.

The numpy backend (:mod:`repro.codegen.numpy_backend`) runs a
translated fragment's counted loop as one whole-array kernel over
``(trips, width)`` arrays.  Every loop it lowers must leave exactly the
state the per-block path leaves, and the per-block path steps the
reference :class:`~repro.interp.executor.Executor` for every vector
instruction — so each case here pits a kernel against the reference
lane semantics of :mod:`repro.simd.vector_ops`, including the
saturating idioms (``vqadd``/``vqsub``) at the signed rails, where a
naive lowering wraps.

Each case is a one-loop fragment, ``vld; vld; vOP.elem; vst; add; cmp;
blt`` (one ``vld`` for a unary op or an immediate operand; a ``vred*``
into a scalar accumulator for a reduction), run through
``test_codegen_ir``'s ``_drive`` once with the fragment plan's kernels
and once block by block.  Every opcode the backend lowers is covered at
every element type: deterministic sweeps over the signed boundaries and
a seeded stdlib-random sweep, backed by hypothesis-drawn lanes.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import arith

from test_codegen_ir import WIDTH, _drive, _snapshot

INT_ELEMS = ("i8", "i16", "i32")
INT_BINARY_OPS = ("vadd", "vsub", "vmul", "vand", "vorr", "veor", "vbic",
                  "vshl", "vshr", "vmin", "vmax", "vabd", "vmask",
                  "vqadd", "vqsub")
FLOAT_ARITH_OPS = ("vadd", "vsub", "vmul", "vmin", "vmax", "vabd")
FLOAT_BITWISE_OPS = ("vand", "vorr", "vmask")
UNARY_OPS = ("vabs", "vneg")
REDUCE_OPS = ("vredsum", "vredmin", "vredmax")

#: Extreme binary32 lanes overflow, and infinities meet; both sides
#: compute the same inf/NaN lanes, and numpy warns on both.
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning")


# ---------------------------------------------------------------------------
# One-loop fragments
# ---------------------------------------------------------------------------


def _literal(value, elem: str) -> str:
    return repr(float(value)) if elem == "f32" else str(int(value))


def _data(name: str, elem: str, lanes) -> str:
    """A ``.data`` line holding whole trips of *lanes*, zero-padded.

    f32 lanes are binary32 bit patterns, stored in an ``i32`` array so
    that every pattern reaches memory as is, signed zeros and
    subnormals included (and ``_drive``'s f32 fill leaves it alone).
    """
    lanes = list(lanes) + [0] * (-len(lanes) % WIDTH)
    if elem == "f32":
        elem = "i32"
        lanes = [arith.wrap_int(bits) for bits in lanes]
    return (f".data {name} {elem} {len(lanes)} = "
            + ", ".join(str(int(v)) for v in lanes))


def loop_source(opcode: str, elem: str, a, b=None, *, imm=None,
                acc=None) -> str:
    """A fragment applying ``opcode.elem`` over the lanes of *a*.

    The second operand is the lanes of *b* (a second ``vld``), the
    immediate *imm* (a number, or a lane tuple for a vector
    immediate), or absent for a unary op; a reduction (*acc* set)
    folds every trip into a scalar accumulator starting at *acc*.
    Lanes of an f32 op are binary32 bit patterns.
    """
    vec = "vf" if elem == "f32" else "v"
    lines = [_data("A", elem, a)]
    if b is not None:
        lines.append(_data("B", elem, b))
    lines.append(_data("C", elem, [0] * len(a)))
    count = len(a) + (-len(a) % WIDTH)
    if acc is not None:
        mov, reg = ("fmov", "f2") if elem == "f32" else ("mov", "r2")
        lines.append(f"    {mov} {reg}, #{_literal(acc, elem)}")
    lines += ["    mov r1, #0",
              "loop:",
              f"    vld.{elem} {vec}1, [A + r1]"]
    if acc is not None:
        lines.append(f"    {opcode}.{elem} {reg}, {reg}, {vec}1")
    else:
        if b is not None:
            lines.append(f"    vld.{elem} {vec}2, [B + r1]")
            operands = f"{vec}1, {vec}2"
        elif isinstance(imm, tuple):
            operands = f"{vec}1, #<{', '.join(str(v) for v in imm)}>"
        elif imm is not None:
            operands = f"{vec}1, #{_literal(imm, elem)}"
        else:
            operands = f"{vec}1"
        lines += [f"    {opcode}.{elem} {vec}3, {operands}",
                  f"    vst.{elem} {vec}3, [C + r1]"]
    lines += [f"    add r1, r1, #{WIDTH}",
              f"    cmp r1, #{count}",
              "    blt loop"]
    return "\n".join(lines)


def _bit_exact(state, pipeline) -> dict:
    """``_snapshot`` with float registers compared by their binary32
    bits, so NaN lanes compare equal when their patterns do."""
    snap = _snapshot(state, pipeline)

    def bits(value):
        return arith.float_bits(value) if isinstance(value, float) else value
    snap["floats"] = {k: bits(v) for k, v in snap["floats"].items()}
    snap["vregs"] = {k: [bits(v) for v in lanes]
                     for k, lanes in snap["vregs"].items()}
    return snap


def assert_kernel_matches_blocks(source: str):
    """Run *source* both ways; return the kernel run's final state."""
    kernel_state, kernel_pipe, ran = _drive(source, WIDTH, kernels=True)
    block_state, block_pipe, _ = _drive(source, WIDTH, kernels=False)
    assert ran, f"no plan kernel ran; the backend declined:\n{source}"
    assert _bit_exact(kernel_state, kernel_pipe) == \
        _bit_exact(block_state, block_pipe), source
    return kernel_state


# ---------------------------------------------------------------------------
# Hypothesis-drawn lanes
# ---------------------------------------------------------------------------


def int_lane(elem):
    lo, hi = arith.INT_BOUNDS[elem]
    return st.integers(min_value=lo, max_value=hi)


def int_lanes(elem):
    return st.lists(int_lane(elem), min_size=1, max_size=4 * WIDTH)


#: binary32 bit patterns of non-NaN values, signed zeros, infinities
#: and subnormals included.
f32_lane = st.floats(width=32, allow_nan=False).map(arith.float_bits)
f32_lanes = st.lists(f32_lane, min_size=1, max_size=4 * WIDTH)


def _same_length(data, lanes, lane):
    return data.draw(st.lists(lane, min_size=len(lanes),
                              max_size=len(lanes)))


class TestBinaryInt:
    @given(st.data(), st.sampled_from(INT_BINARY_OPS),
           st.sampled_from(INT_ELEMS))
    @settings(max_examples=40, deadline=None)
    def test_lanes_vs_lanes(self, data, opcode, elem):
        a = data.draw(int_lanes(elem))
        b = _same_length(data, a, int_lane(elem))
        assert_kernel_matches_blocks(loop_source(opcode, elem, a, b))

    @given(st.data(), st.sampled_from(INT_BINARY_OPS),
           st.sampled_from(INT_ELEMS))
    @settings(max_examples=40, deadline=None)
    def test_lanes_vs_broadcast_scalar(self, data, opcode, elem):
        a = data.draw(int_lanes(elem))
        b = data.draw(int_lane(elem))
        assert_kernel_matches_blocks(loop_source(opcode, elem, a, imm=b))


class TestBinaryFloat:
    @given(st.data(), st.sampled_from(FLOAT_ARITH_OPS))
    @settings(max_examples=40, deadline=None)
    def test_arith_lanes(self, data, opcode):
        a = data.draw(f32_lanes)
        b = _same_length(data, a, f32_lane)
        assert_kernel_matches_blocks(loop_source(opcode, "f32", a, b))

    @given(st.data(), st.sampled_from(FLOAT_BITWISE_OPS))
    @settings(max_examples=40, deadline=None)
    def test_bitwise_masks(self, data, opcode):
        a = data.draw(f32_lanes)
        masks = tuple(data.draw(st.lists(
            st.integers(min_value=0, max_value=0xFFFFFFFF),
            min_size=WIDTH, max_size=WIDTH)))
        assert_kernel_matches_blocks(
            loop_source(opcode, "f32", a, imm=masks))


class TestUnary:
    @given(st.data(), st.sampled_from(UNARY_OPS), st.sampled_from(INT_ELEMS))
    @settings(max_examples=30, deadline=None)
    def test_int(self, data, opcode, elem):
        a = data.draw(int_lanes(elem))
        assert_kernel_matches_blocks(loop_source(opcode, elem, a))

    @given(st.data(), st.sampled_from(UNARY_OPS))
    @settings(max_examples=30, deadline=None)
    def test_float(self, data, opcode):
        a = data.draw(f32_lanes)
        assert_kernel_matches_blocks(loop_source(opcode, "f32", a))


class TestReduce:
    @given(st.data(), st.sampled_from(REDUCE_OPS), st.sampled_from(INT_ELEMS))
    @settings(max_examples=40, deadline=None)
    def test_int(self, data, opcode, elem):
        lanes = data.draw(int_lanes(elem))
        acc = data.draw(int_lane("i32"))
        assert_kernel_matches_blocks(
            loop_source(opcode, elem, lanes, acc=acc))

    @given(st.data(), st.sampled_from(REDUCE_OPS))
    @settings(max_examples=40, deadline=None)
    def test_float(self, data, opcode):
        lanes = data.draw(f32_lanes)
        # The accumulator is an fmov immediate, and the assembler has
        # no literal for an infinity.
        acc = data.draw(st.floats(width=32, allow_nan=False,
                                  allow_infinity=False))
        assert_kernel_matches_blocks(
            loop_source(opcode, "f32", lanes, acc=acc))


# ---------------------------------------------------------------------------
# Deterministic boundary sweeps (back up the randomized coverage)
# ---------------------------------------------------------------------------


def boundary_values(elem):
    lo, hi = arith.INT_BOUNDS[elem]
    return [lo, lo + 1, -1, 0, 1, hi - 1, hi]


@pytest.mark.parametrize("elem", INT_ELEMS)
@pytest.mark.parametrize("opcode", INT_BINARY_OPS)
def test_binary_signed_boundaries(opcode, elem):
    """Every op over the full cross product of signed boundary lanes,
    as lanes and as a broadcast immediate."""
    values = boundary_values(elem)
    a = [x for x in values for _ in values]
    b = values * len(values)
    assert_kernel_matches_blocks(loop_source(opcode, elem, a, b))
    for scalar in values:
        assert_kernel_matches_blocks(
            loop_source(opcode, elem, values, imm=scalar))


@pytest.mark.parametrize("elem", INT_ELEMS)
@pytest.mark.parametrize("opcode", ("vqadd", "vqsub"))
def test_saturation_clamps_at_boundaries(opcode, elem):
    """The saturating idioms must clamp (not wrap) at both rails."""
    lo, hi = arith.INT_BOUNDS[elem]
    if opcode == "vqadd":
        cases = [(hi, hi, hi), (lo, lo, lo), (hi, 1, hi)]
    else:
        cases = [(lo, hi, lo), (hi, lo, hi), (lo, 1, lo)]
    a, b, want = (list(column) for column in zip(*cases))
    state = assert_kernel_matches_blocks(loop_source(opcode, elem, a, b))
    assert state.memory.load_vector(state.symbols.address_of("C"), elem,
                                    len(want)) == want


#: binary32 patterns the f32 sweep starts with: signed zeros and
#: infinities, subnormals and the finite extremes.
SPECIAL_F32 = (0x00000000, 0x80000000, 0x7F800000, 0xFF800000,
               0x00000001, 0x807FFFFF, 0x7F7FFFFF, 0xFF7FFFFF)


def _random_f32_bits(rng: random.Random) -> int:
    """A random binary32 pattern that is not a NaN."""
    bits = rng.getrandbits(32)
    if bits & 0x7FFFFFFF > 0x7F800000:
        bits &= 0xBFFFFFFF  # clear the top exponent bit
    return bits


@pytest.mark.parametrize("elem", INT_ELEMS + ("f32",))
def test_seeded_random_sweep(elem):
    """Fixed-seed stdlib-random sweep: runs identically on every machine.

    Each op runs once over 50 rounds of random lanes laid end to end,
    50 trips of one loop."""
    rng = random.Random(0xC1A0 + len(elem))
    count = 50 * WIDTH
    if elem == "f32":
        draw = lambda: _random_f32_bits(rng)  # noqa: E731
        binary_ops = FLOAT_ARITH_OPS + FLOAT_BITWISE_OPS
        specials = list(SPECIAL_F32)
    else:
        lo, hi = arith.INT_BOUNDS[elem]
        draw = lambda: rng.randint(lo, hi)  # noqa: E731
        binary_ops = INT_BINARY_OPS
        specials = []
    a = specials + [draw() for _ in range(count - len(specials))]
    b = specials[::-1] + [draw() for _ in range(count - len(specials))]
    for opcode in binary_ops:
        assert_kernel_matches_blocks(loop_source(opcode, elem, a, b))
    for opcode in UNARY_OPS:
        assert_kernel_matches_blocks(loop_source(opcode, elem, a))
    acc = (float(np.float32(rng.uniform(-1e3, 1e3))) if elem == "f32"
           else rng.randint(*arith.INT_BOUNDS["i32"]))
    for opcode in REDUCE_OPS:
        assert_kernel_matches_blocks(loop_source(opcode, elem, a, acc=acc))
