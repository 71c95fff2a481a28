"""Unit tests for the shared arithmetic semantics."""

import math
import random
import struct
from array import array

import pytest

from repro import arith


class TestIntWrap:
    def test_wrap_i8(self):
        assert arith.wrap_int(127, "i8") == 127
        assert arith.wrap_int(128, "i8") == -128
        assert arith.wrap_int(-129, "i8") == 127
        assert arith.wrap_int(256, "i8") == 0

    def test_wrap_i16(self):
        assert arith.wrap_int(32767, "i16") == 32767
        assert arith.wrap_int(32768, "i16") == -32768

    def test_wrap_i32_default(self):
        assert arith.wrap_int(1 << 31) == -(1 << 31)


class TestIntOps:
    def test_basic_ops(self):
        assert arith.int_op("add", 2, 3) == 5
        assert arith.int_op("sub", 2, 3) == -1
        assert arith.int_op("rsb", 2, 3) == 1
        assert arith.int_op("mul", -4, 3) == -12
        assert arith.int_op("and", 0b1100, 0b1010) == 0b1000
        assert arith.int_op("orr", 0b1100, 0b1010) == 0b1110
        assert arith.int_op("eor", 0b1100, 0b1010) == 0b0110
        assert arith.int_op("bic", 0b1111, 0b0101) == 0b1010
        assert arith.int_op("min", 3, -2) == -2
        assert arith.int_op("max", 3, -2) == 3

    def test_shifts(self):
        assert arith.int_op("lsl", 1, 4) == 16
        assert arith.int_op("asr", -8, 1) == -4
        assert arith.int_op("lsr", -1, 28) == 0xF

    def test_mul_wraps_to_elem(self):
        assert arith.int_op("mul", 200, 2, "i8") == arith.wrap_int(400, "i8")

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            arith.int_op("xyz", 1, 2)


class TestSaturation:
    def test_qadd_bounds(self):
        assert arith.qadd(100, 100, "i8") == 127
        assert arith.qadd(-100, -100, "i8") == -128
        assert arith.qadd(10, 20, "i8") == 30

    def test_qsub_bounds(self):
        assert arith.qsub(-30000, 10000, "i16") == -32768
        assert arith.qsub(30000, -10000, "i16") == 32767
        assert arith.qsub(5, 3, "i16") == 2

    def test_saturate_helper(self):
        assert arith.saturate(999, "i8") == 127
        assert arith.saturate(-999, "i8") == -128
        assert arith.saturate(0, "i8") == 0

    def test_int_op_routes_saturating(self):
        assert arith.int_op("qadd", 120, 120, "i8") == 127


class TestFloat:
    def test_f32_rounding(self):
        assert arith.f32(0.1) != 0.1
        assert arith.f32(1.5) == 1.5

    def test_float_ops(self):
        assert arith.float_op("fadd", 1.0, 2.0) == 3.0
        assert arith.float_op("fsub", 1.0, 2.0) == -1.0
        assert arith.float_op("fmul", 1.5, 2.0) == 3.0
        assert arith.float_op("fdiv", 3.0, 2.0) == 1.5
        assert arith.float_op("fmin", -1.0, 2.0) == -1.0
        assert arith.float_op("fmax", -1.0, 2.0) == 2.0
        assert arith.float_op("fneg", 2.0) == -2.0
        assert arith.float_op("fabs", -2.0) == 2.0

    def test_float_op_rounds_to_binary32(self):
        # 1e10 + 1 is not representable at binary32 precision.
        assert arith.float_op("fadd", 1e10, 1.0) == arith.f32(1e10)

    def test_unknown_float_op(self):
        with pytest.raises(ValueError):
            arith.float_op("fxyz", 1.0, 2.0)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_array_rounding_matches_f32(self):
        """A store into a one-element ``array('f')``, the fused blocks'
        binary32 rounding, gives ``arith.f32``'s double bit for bit:
        random bit patterns, uniform values, ties halfway between
        neighbouring binary32 values (normal and subnormal), overflow to
        infinity, and quiet and signalling NaN payloads."""
        rng = random.Random(27)

        def double(bits):
            return struct.unpack("<d", struct.pack("<Q", bits))[0]

        def single(bits):
            return struct.unpack("<f", struct.pack("<I", bits))[0]

        values = [double(rng.getrandbits(64)) for _ in range(20000)]
        values += [rng.uniform(-3.5e38, 3.5e38) for _ in range(5000)]
        values += [rng.uniform(-1e-37, 1e-37) for _ in range(5000)]
        for _ in range(5000):
            # Below the largest finite binary32, and subnormal.
            low = rng.choice((rng.randrange(0x7F7FFFFF),
                              rng.randrange(0x7FFFFF)))
            sign = rng.getrandbits(1) << 31
            tie = (single(sign | low) + single(sign | (low + 1))) / 2
            values += [tie, math.nextafter(tie, 0.0),
                       math.nextafter(tie, math.copysign(math.inf, tie))]
        top = (single(0x7F7FFFFF) + 2.0 ** 128) / 2
        values += [top, math.nextafter(top, 0.0), -top, 1e39, -1e300,
                   math.inf, -math.inf, 0.0, -0.0, 5e-324]
        for payload in (0, 1, 0x12345, 1 << 28, 1 << 29, (1 << 51) - 1):
            for head in (0x7FF8, 0x7FF0, 0xFFF8, 0xFFF0):
                if head & 0x8 or payload:
                    values.append(double(head << 48 | payload))
        cell = array("f", (0.0,))
        for value in values:
            cell[0] = value
            assert struct.pack("<d", cell[0]) == \
                struct.pack("<d", arith.f32(value)), value


class TestFloatBits:
    def test_bit_roundtrip(self):
        for value in (0.0, 1.0, -1.5, 3.14159, 1e-20):
            assert arith.bits_float(arith.float_bits(value)) == arith.f32(value)

    def test_known_pattern(self):
        assert arith.float_bits(1.0) == 0x3F800000
        assert arith.bits_float(0x3F800000) == 1.0

    def test_mask_and_keeps_or_clears(self):
        assert arith.float_bitwise("fand", 1.5, 0xFFFFFFFF) == 1.5
        assert arith.float_bitwise("fand", 1.5, 0) == 0.0

    def test_or_combining_disjoint_lanes(self):
        kept = arith.float_bitwise("fand", 2.5, 0xFFFFFFFF)
        cleared = arith.float_bitwise("fand", 9.0, 0)
        assert arith.float_or_floats(kept, cleared) == 2.5

    def test_float_and_floats(self):
        assert arith.float_and_floats(1.5, 1.5) == 1.5
        assert arith.float_and_floats(1.5, 0.0) == 0.0

    def test_unknown_bitwise_op(self):
        with pytest.raises(ValueError):
            arith.float_bitwise("xor", 1.0, 0)
