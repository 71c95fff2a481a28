"""The parameterized SIMD accelerator: configuration and vector registers.

The accelerator matches the paper's hardware assumptions (section 3.1):
it is a separate pipeline sharing the front end, with its own register
file, a memory-to-memory interface, and a power-of-two vector width.
Generations differ along exactly the two axes the paper names — vector
width and opcode repertoire — so :class:`AcceleratorConfig` captures
both, and the evaluation sweeps width over {2, 4, 8, 16}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.registers import VEC_FLOAT_REGS, VEC_INT_REGS
from repro.memory.alignment import is_power_of_two
from repro.simd.permutations import STANDARD_PATTERNS, PermPattern


#: Every vector opcode the full (latest-generation) accelerator implements.
FULL_VECTOR_OPS = frozenset({
    "vld", "vst",
    "vadd", "vsub", "vmul", "vand", "vorr", "veor", "vbic",
    "vshl", "vshr", "vmin", "vmax", "vqadd", "vqsub", "vmask",
    "vabs", "vneg", "vabd",
    "vbfly", "vrev", "vrot",
    "vredsum", "vredmin", "vredmax",
})

#: A first-generation repertoire, modelled on the paper's motivation that
#: the ARM SIMD opcode count doubled between ISA v6 and v7: basic
#: arithmetic and memory only — no saturation, no absolute difference, no
#: min/max reductions.
BASIC_VECTOR_OPS = frozenset({
    "vld", "vst",
    "vadd", "vsub", "vmul", "vand", "vorr", "veor",
    "vshl", "vshr", "vmask", "vneg",
    "vbfly", "vrev", "vrot",
    "vredsum",
})


@dataclass(frozen=True)
class AcceleratorConfig:
    """One generation of the SIMD accelerator family.

    Generations differ along the two axes the paper names: vector
    *width* and opcode *repertoire* (the ARM SIMD opcode count went from
    60 to 120+ between ISA versions 6 and 7).  The dynamic translator
    consults both — a loop needing an op or permutation this generation
    lacks simply stays in scalar form.

    Attributes:
        width: vector length in elements (power of two).
        permutations: supported permutation repertoire (drives the CAM).
        vector_ops: supported vector opcodes (defaults to the full set).
        supports_saturation: convenience switch that removes
            ``vqadd``/``vqsub`` from the repertoire.
        name: display name for reports.
    """

    width: int
    permutations: Tuple[PermPattern, ...] = STANDARD_PATTERNS
    vector_ops: frozenset = FULL_VECTOR_OPS
    supports_saturation: bool = True
    name: str = ""

    def __post_init__(self) -> None:
        if not is_power_of_two(self.width) or self.width < 2:
            raise ValueError(f"width must be a power of two >= 2: {self.width}")
        unknown = self.vector_ops - FULL_VECTOR_OPS
        if unknown:
            raise ValueError(f"unknown vector opcodes: {sorted(unknown)}")

    def effective_vector_ops(self) -> frozenset:
        """The repertoire with the saturation switch applied."""
        ops = self.vector_ops
        if not self.supports_saturation:
            ops = ops - {"vqadd", "vqsub"}
        return ops

    def supports_op(self, opcode: str) -> bool:
        return opcode in self.effective_vector_ops()


class VectorRegisterFile:
    """Vector register state: 16 integer + 16 float vector registers.

    Each register holds *width* lanes plus an element-type tag; reads of
    a register with a mismatched lane count indicate a translator bug
    and raise rather than silently truncating.
    """

    def __init__(self, width: int) -> None:
        self.width = width
        self._lanes: Dict[str, List] = {}
        self._elem: Dict[str, Optional[str]] = {}
        for name in VEC_INT_REGS + VEC_FLOAT_REGS:
            self._lanes[name] = [0] * width
            self._elem[name] = None

    def read(self, name: str) -> List:
        try:
            return list(self._lanes[name])
        except KeyError:
            raise KeyError(f"unknown vector register {name!r}") from None

    def elem_of(self, name: str) -> Optional[str]:
        """Element type last written to *name* (None if never written)."""
        return self._elem[name]

    def write(self, name: str, lanes: Sequence, elem: Optional[str]) -> None:
        if name not in self._lanes:
            raise KeyError(f"unknown vector register {name!r}")
        if len(lanes) != self.width:
            raise ValueError(
                f"vector register {name} expects {self.width} lanes, "
                f"got {len(lanes)}"
            )
        self._lanes[name] = list(lanes)
        self._elem[name] = elem

    def snapshot(self) -> Dict[str, List]:
        return {name: list(lanes) for name, lanes in self._lanes.items()}


#: Pre-built generations used throughout the evaluation, mirroring the
#: paper's width sweep.  All share the standard permutation repertoire.
GENERATIONS: Dict[str, AcceleratorConfig] = {
    f"simd{w}": AcceleratorConfig(width=w, name=f"simd{w}") for w in (2, 4, 8, 16)
}


def config_for_width(width: int) -> AcceleratorConfig:
    """The standard-generation config of a given vector width."""
    key = f"simd{width}"
    if key in GENERATIONS:
        return GENERATIONS[key]
    return AcceleratorConfig(width=width)


def first_generation(width: int) -> AcceleratorConfig:
    """A v6-class generation: same width options, half the opcodes.

    Useful for demonstrating *backward* migration: a Liquid binary using
    newer opcodes still runs (scalar) on this generation, while its
    basic loops accelerate.
    """
    return AcceleratorConfig(
        width=width,
        vector_ops=BASIC_VECTOR_OPS,
        supports_saturation=False,
        permutations=tuple(p for p in STANDARD_PATTERNS if p.period <= width),
        name=f"simd{width}-gen1",
    )
