"""Architectural machine state: registers, memory, symbols, PC.

The :class:`SymbolTable` maps data-segment symbol names to their loaded
base addresses; effective addresses follow the paper's element-scaled
``[base + index]`` convention, where the induction variable counts
*elements* and the access's element type supplies the scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.isa.program import Program
from repro.isa.registers import RegisterFile
from repro.memory.memory import Memory
from repro.simd.accelerator import VectorRegisterFile


@dataclass
class SymbolInfo:
    """Placement of one data array."""

    name: str
    addr: int
    elem: str
    count: int
    read_only: bool = False


class SymbolTable:
    """Name -> placement for every loaded data array."""

    def __init__(self) -> None:
        self._symbols: Dict[str, SymbolInfo] = {}

    def add(self, info: SymbolInfo) -> None:
        if info.name in self._symbols:
            raise ValueError(f"duplicate symbol {info.name!r}")
        self._symbols[info.name] = info

    def lookup(self, name: str) -> SymbolInfo:
        try:
            return self._symbols[name]
        except KeyError:
            raise KeyError(f"undefined symbol {name!r}") from None

    def address_of(self, name: str) -> int:
        return self.lookup(name).addr

    def __contains__(self, name: str) -> bool:
        return name in self._symbols

    def __iter__(self):
        return iter(self._symbols.values())


class MachineState:
    """All architectural state of one simulated machine."""

    def __init__(self, program: Program, memory: Memory, symbols: SymbolTable,
                 vector_width: Optional[int] = None) -> None:
        self.program = program
        self.memory = memory
        self.symbols = symbols
        self.regs = RegisterFile()
        self.vregs: Optional[VectorRegisterFile] = (
            VectorRegisterFile(vector_width) if vector_width else None
        )
        self.pc: int = program.label_index(program.entry)
        self.halted: bool = False
        self.instructions_retired: int = 0
