"""Lane-wise semantics of the vector instruction set.

Every vector operation is expressed in terms of the *same* scalar
arithmetic helpers (:mod:`repro.arith`) the scalar interpreter uses, so a
SIMD instruction and its Table 1 scalar expansion produce bit-identical
lane values by construction.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from repro import arith

Number = Union[int, float]

#: vector opcode -> integer-lane scalar opcode
_INT_BINARY = {
    "vadd": "add",
    "vsub": "sub",
    "vmul": "mul",
    "vand": "and",
    "vorr": "orr",
    "veor": "eor",
    "vbic": "bic",
    "vshl": "lsl",
    "vshr": "asr",
    "vmin": "min",
    "vmax": "max",
    "vqadd": "qadd",
    "vqsub": "qsub",
}

#: vector opcode -> float-lane scalar opcode
_FLOAT_BINARY = {
    "vadd": "fadd",
    "vsub": "fsub",
    "vmul": "fmul",
    "vmin": "fmin",
    "vmax": "fmax",
}

#: float-lane bitwise ops take an integer mask per lane
_FLOAT_BITWISE = {"vand", "vorr", "vmask"}

_UNARY_INT = {"vabs": abs, "vneg": lambda v: -v}


def _broadcast(value, width: int) -> List:
    if isinstance(value, (list, tuple)):
        if len(value) != width:
            raise ValueError(
                f"lane-count mismatch: expected {width}, got {len(value)}"
            )
        return list(value)
    return [value] * width


def vector_binary(opcode: str, a: Sequence[Number], b, elem: str) -> List[Number]:
    """Element-wise binary operation; *b* may be lanes or a broadcast scalar."""
    width = len(a)
    b_lanes = _broadcast(b, width)
    if elem == "f32":
        return _float_binary(opcode, a, b_lanes)
    return _int_binary(opcode, a, b_lanes, elem)


def _int_binary(opcode: str, a, b, elem: str) -> List[int]:
    if opcode == "vmask":
        return [arith.int_op("and", x, y, elem) for x, y in zip(a, b)]
    if opcode == "vabd":
        return [
            arith.wrap_int(abs(int(x) - int(y)), elem) for x, y in zip(a, b)
        ]
    try:
        scalar_op = _INT_BINARY[opcode]
    except KeyError:
        raise ValueError(f"unknown integer vector op {opcode!r}") from None
    return [arith.int_op(scalar_op, x, y, elem) for x, y in zip(a, b)]


def _float_binary(opcode: str, a, b) -> List[float]:
    if opcode in _FLOAT_BITWISE:
        lanes = []
        for x, y in zip(a, b):
            if isinstance(y, float):
                y_bits = arith.float_bits(y)
            else:
                y_bits = int(y)
            op = "fand" if opcode in ("vand", "vmask") else "forr"
            lanes.append(arith.float_bitwise(op, float(x), y_bits))
        return lanes
    if opcode == "vabd":
        return [arith.float_op("fabs", arith.float_op("fsub", x, y))
                for x, y in zip(a, b)]
    try:
        scalar_op = _FLOAT_BINARY[opcode]
    except KeyError:
        raise ValueError(f"unknown float vector op {opcode!r}") from None
    return [arith.float_op(scalar_op, x, y) for x, y in zip(a, b)]


def vector_unary(opcode: str, a: Sequence[Number], elem: str) -> List[Number]:
    """Element-wise unary operation (``vabs``/``vneg``)."""
    if elem == "f32":
        op = {"vabs": "fabs", "vneg": "fneg"}.get(opcode)
        if op is None:
            raise ValueError(f"unknown float unary vector op {opcode!r}")
        return [arith.float_op(op, x) for x in a]
    fn = _UNARY_INT.get(opcode)
    if fn is None:
        raise ValueError(f"unknown integer unary vector op {opcode!r}")
    return [arith.wrap_int(fn(int(x)), elem) for x in a]


def vector_reduce(opcode: str, acc: Number, lanes: Sequence[Number],
                  elem: str) -> Number:
    """Fold *lanes* into the loop-carried scalar accumulator *acc*.

    Matches the scalar loop's semantics exactly: the scalar loop applies
    the reduction operator once per element in lane order, so the vector
    form folds lanes in order too (important for float sums, where
    association order changes rounding).
    """
    if elem == "f32":
        ops = {"vredsum": "fadd", "vredmin": "fmin", "vredmax": "fmax"}
        op = ops.get(opcode)
        if op is None:
            raise ValueError(f"unknown float reduction {opcode!r}")
        result = float(acc)
        for lane in lanes:
            result = arith.float_op(op, result, lane)
        return result
    ops = {"vredsum": "add", "vredmin": "min", "vredmax": "max"}
    op = ops.get(opcode)
    if op is None:
        raise ValueError(f"unknown integer reduction {opcode!r}")
    result = int(acc)
    for lane in lanes:
        result = arith.int_op(op, result, lane, "i32")
    return result


# ---------------------------------------------------------------------------
# numpy tables for the whole-array fragment kernels
#
# The numpy backend (repro.codegen.numpy_backend) lowers a translated
# fragment's loop bodies to kernels over ``(trips, width)`` arrays with
# these tables.  Each lowering is constructed to be *bit-identical* to
# the reference functions above:
#
# * integer lanes are computed in int64 and truncated with
#   ``astype(<elem dtype>)``, which is exactly ``wrap_int``'s
#   two's-complement wrap (sums/products of 32-bit values cannot
#   overflow int64);
# * saturating ops clip in int64 against ``arith.INT_BOUNDS``;
# * float lanes are computed in float32, matching ``arith.float_op``'s
#   one-rounding-per-op rule, and ``fmin``/``fmax`` use ``np.where``
#   comparisons that reproduce Python ``min``/``max`` tie/NaN ordering;
# * float bitwise ops reinterpret through ``view(uint32)`` exactly like
#   ``arith.float_bits``/``bits_float``;
# * anything numpy cannot reproduce exactly makes the lowering decline,
#   and the fragment runs through the reference executor instead.
#
# The differential suite (tests/test_engine_differential.py) and the
# kernel-vs-block sweeps at the integer rails
# (tests/test_engine_properties.py) enforce the contract.
# ---------------------------------------------------------------------------

_NP_INT_DTYPE = {"i8": np.int8, "i16": np.int16, "i32": np.int32}

_NP_INT_BINARY = {
    "vadd": lambda a, b: a + b,
    "vsub": lambda a, b: a - b,
    "vmul": lambda a, b: a * b,
    "vand": lambda a, b: a & b,
    "vmask": lambda a, b: a & b,
    "vorr": lambda a, b: a | b,
    "veor": lambda a, b: a ^ b,
    "vbic": lambda a, b: a & ~b,
    "vshl": lambda a, b: a << (b & 31),
    "vshr": lambda a, b: a >> (b & 31),
    "vmin": np.minimum,
    "vmax": np.maximum,
    "vabd": lambda a, b: np.abs(a - b),
}

_NP_FLOAT_BINARY = {
    "vadd": np.add,
    "vsub": np.subtract,
    "vmul": np.multiply,
}


def _mask_lanes(b_lanes: Sequence) -> "np.ndarray":
    """Per-lane 32-bit mask patterns (floats reinterpreted, ints masked)."""
    return np.array(
        [(arith.float_bits(y) if isinstance(y, float) else int(y))
         & 0xFFFFFFFF for y in b_lanes],
        dtype=np.uint32,
    )


#: Map from a scalar data-processing opcode (as it appears in the scalar
#: representation) to the vector opcode the translator should generate.
#: This is the "dp -> vdp" correspondence of Table 3.
SCALAR_TO_VECTOR = {
    "add": "vadd",
    "sub": "vsub",
    "mul": "vmul",
    "and": "vand",
    "orr": "vorr",
    "eor": "veor",
    "bic": "vbic",
    "lsl": "vshl",
    "asr": "vshr",
    "min": "vmin",
    "max": "vmax",
    "fadd": "vadd",
    "fsub": "vsub",
    "fmul": "vmul",
    "fmin": "vmin",
    "fmax": "vmax",
    "fand": "vand",
    "forr": "vorr",
    "fneg": "vneg",
    "fabs": "vabs",
}

#: Scalar reduction opcode -> vector reduction opcode (Table 3, rule 9).
SCALAR_TO_REDUCTION = {
    "add": "vredsum",
    "fadd": "vredsum",
    "min": "vredmin",
    "fmin": "vredmin",
    "max": "vredmax",
    "fmax": "vredmax",
}
