"""Flat byte-addressable simulated memory with typed accessors.

All values are little-endian.  Integer loads sign- or zero-extend to a
Python int; ``f32`` values round-trip through IEEE binary32 (so float
arithmetic in the simulator matches what 32-bit SIMD hardware would
produce).  Address ranges can be marked read-only, which is how the
loader protects the scalarizer's ``bfly``/``cnst``/``mask`` arrays.
"""

from __future__ import annotations

import struct
from typing import List, Tuple, Union

import numpy as np

Number = Union[int, float]

_NP_DTYPE = {"i8": "<i1", "i16": "<i2", "i32": "<i4", "f32": "<f4"}

_FMT = {
    ("i8", True): "<b",
    ("i8", False): "<B",
    ("i16", True): "<h",
    ("i16", False): "<H",
    ("i32", True): "<i",
    ("i32", False): "<I",
    ("f32", True): "<f",
    ("f32", False): "<f",
}

_SIZE = {"i8": 1, "i16": 2, "i32": 4, "f32": 4}

_INT_MASK = {"i8": 0xFF, "i16": 0xFFFF, "i32": 0xFFFFFFFF}


class MemoryError_(Exception):
    """Out-of-range access."""


class MemoryProtectionError(MemoryError_):
    """Store into a read-only range."""


class Memory:
    """Byte-addressable memory of a fixed size."""

    def __init__(self, size: int = 1 << 22) -> None:
        self.size = size
        self._bytes = bytearray(size)
        self._ro_ranges: List[Tuple[int, int]] = []

    # -- protection -----------------------------------------------------------

    def protect(self, start: int, end: int) -> None:
        """Mark ``[start, end)`` read-only."""
        if not 0 <= start <= end <= self.size:
            raise MemoryError_(f"bad protect range [{start}, {end})")
        self._ro_ranges.append((start, end))

    def _check_store(self, addr: int, nbytes: int) -> None:
        if not 0 <= addr <= self.size - nbytes:
            raise MemoryError_(f"store out of range at {addr:#x}")
        for start, end in self._ro_ranges:
            if addr < end and addr + nbytes > start:
                raise MemoryProtectionError(
                    f"store of {nbytes} bytes at {addr:#x} hits read-only "
                    f"range [{start:#x}, {end:#x})"
                )

    def _check_load(self, addr: int, nbytes: int) -> None:
        if not 0 <= addr <= self.size - nbytes:
            raise MemoryError_(f"load out of range at {addr:#x}")

    # -- typed scalar access -----------------------------------------------------

    def load(self, addr: int, elem: str, signed: bool = True) -> Number:
        """Load one element of type *elem* at byte address *addr*."""
        nbytes = _SIZE[elem]
        self._check_load(addr, nbytes)
        (value,) = struct.unpack_from(_FMT[(elem, signed)], self._bytes, addr)
        return value

    def store(self, addr: int, elem: str, value: Number) -> None:
        """Store one element of type *elem* at byte address *addr*."""
        nbytes = _SIZE[elem]
        self._check_store(addr, nbytes)
        if elem == "f32":
            struct.pack_into("<f", self._bytes, addr, float(value))
        else:
            masked = int(value) & _INT_MASK[elem]
            fmt = _FMT[(elem, False)]
            struct.pack_into(fmt, self._bytes, addr, masked)

    # -- vector access --------------------------------------------------------------

    def load_vector(self, addr: int, elem: str, width: int,
                    signed: bool = True) -> List[Number]:
        """Load *width* contiguous elements starting at *addr*."""
        nbytes = _SIZE[elem] * width
        self._check_load(addr, nbytes)
        fmt = "<" + _FMT[(elem, signed)][1] * width
        return list(struct.unpack_from(fmt, self._bytes, addr))

    def store_vector(self, addr: int, elem: str, values) -> None:
        """Store the sequence *values* contiguously starting at *addr*."""
        width = len(values)
        nbytes = _SIZE[elem] * width
        self._check_store(addr, nbytes)
        if elem == "f32":
            struct.pack_into("<" + "f" * width, self._bytes, addr,
                             *[float(v) for v in values])
        else:
            mask = _INT_MASK[elem]
            fmt = "<" + _FMT[(elem, False)][1] * width
            struct.pack_into(fmt, self._bytes, addr,
                             *[int(v) & mask for v in values])

    def overlaps_read_only(self, addr: int, nbytes: int) -> bool:
        """True when ``[addr, addr+nbytes)`` intersects a protected range."""
        end = addr + nbytes
        for start, stop in self._ro_ranges:
            if addr < stop and end > start:
                return True
        return False

    # -- whole-array access (macro-kernel fragment execution) -----------------

    def load_array(self, addr: int, elem: str, count: int) -> np.ndarray:
        """Bounds-checked copy of *count* elements at *addr* as a numpy array.

        Element dtypes match the typed scalar accessors bit for bit
        (little-endian, integers signed), so a ``load_array`` of a region
        equals the element-wise :meth:`load_vector` of the same region.
        """
        nbytes = _SIZE[elem] * count
        self._check_load(addr, nbytes)
        return np.frombuffer(self._bytes, dtype=_NP_DTYPE[elem],
                             count=count, offset=addr).copy()

    def store_array(self, addr: int, elem: str, values: np.ndarray) -> None:
        """Store a numpy array of *elem* values contiguously at *addr*.

        Protection- and bounds-checked like :meth:`store_vector`;
        integer narrowing truncates to the element width exactly as the
        masked ``struct`` pack does.
        """
        flat = np.ascontiguousarray(values).reshape(-1)
        nbytes = _SIZE[elem] * flat.size
        self._check_store(addr, nbytes)
        view = np.frombuffer(self._bytes, dtype=_NP_DTYPE[elem],
                             count=flat.size, offset=addr)
        view[:] = flat

    def clone(self) -> "Memory":
        """An independent copy (used by the translation verifier)."""
        copy = Memory(self.size)
        copy._bytes = bytearray(self._bytes)
        copy._ro_ranges = list(self._ro_ranges)
        return copy

    # -- bulk access (loader / tests) ------------------------------------------------

    def read_bytes(self, addr: int, nbytes: int) -> bytes:
        self._check_load(addr, nbytes)
        return bytes(self._bytes[addr:addr + nbytes])
