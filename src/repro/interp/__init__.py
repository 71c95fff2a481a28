"""Functional execution: architectural state and the instruction executor."""

from repro.interp.events import RetireEvent
from repro.interp.executor import (
    ENGINES,
    ExecutionError,
    Executor,
)
from repro.interp.state import MachineState, SymbolTable

__all__ = [
    "RetireEvent",
    "ENGINES",
    "ExecutionError",
    "Executor",
    "MachineState",
    "SymbolTable",
]
