"""Typed fragment IR shared by the codegen lowering functions.

The dynamic translator emits microcode fragments in a small, regular
language (``repro/core/translate/translator.py``); the execution engines
used to re-derive its structure independently — turbo scanning for
superblocks, macro pattern-matching one loop shape inline with its
numpy lowering.  This module is the shared vocabulary between them: a
lifting pass (:mod:`repro.codegen.lift`) raises decoded instructions
into these nodes once, and the lowering functions
(:mod:`repro.codegen.numpy_backend`, :mod:`repro.codegen.superblock`)
turn them into their closure kinds.

Node kinds (:class:`IRKind`) mirror the fragment language:

========  ==================================================================
LOAD      vector load at an affine address ``sym + induction`` (one
          slab per loop trip; the lane gather is implicit in the elem)
STORE     vector store at an affine address
ALU       elementwise vector ALU op (binary or unary) over registers,
          immediates, or broadcast vector immediates
PERM      permutation gather (``vbfly``/``vrev``/``vrot``) with a
          statically known lane map
REDUCE    sequential-fold reduction into a scalar accumulator
SCALAR    straight-line scalar op between loop regions: ``mov``/
          ``fmov`` (immediate or register) or a scalar store at a
          static symbol offset
LOOP      counted do-while region (``add``/``cmp``/``blt`` header);
          its body holds vector nodes — or, for the nested shape, a
          SCALAR induction reset followed by an inner LOOP
CHAIN     a whole fragment as alternating SCALAR segments and LOOP
          regions (the paper's fissioned loops appear as a CHAIN with
          several LOOPs), with statically known trip counts
========  ==================================================================

Nodes are frozen and carry only decode-time facts (pcs, register
names, symbols, static trips), so lifting is deterministic: the same
fragment bytes produce the same IR, and backends emit byte-identical
source from it (``tests/test_codegen_ir.py`` pins this).  Nodes that
need operand details the IR does not re-model (immediate baking,
permutation periods) carry their decoded :class:`Instruction`.

:class:`BlockSpec` is the superblock-side IR: one straight-line run of
any program (not just fragments) plus its pre-extracted timing rows,
consumed by the superblock backend's fused-block emitter and by
:class:`~repro.pipeline.core.BlockTiming`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

from repro.isa.instructions import Instruction


class IRKind(Enum):
    """Discriminator for every fragment-IR node type."""

    LOAD = "load"
    STORE = "store"
    ALU = "alu"
    PERM = "perm"
    REDUCE = "reduce"
    SCALAR = "scalar"
    LOOP = "loop"
    CHAIN = "chain"


@dataclass(frozen=True)
class LoadNode:
    """``vld`` at ``[sym + induction]`` into vector register *dst*."""

    pc: int
    dst: str
    sym: str
    elem: str
    site: int  #: index into the owning loop's site table

    kind = IRKind.LOAD


@dataclass(frozen=True)
class StoreNode:
    """``vst`` of vector register *src* at ``[sym + induction]``."""

    pc: int
    src: str
    sym: str
    elem: str
    site: int

    kind = IRKind.STORE


@dataclass(frozen=True)
class AluNode:
    """Elementwise vector op: binary (``b`` names the register rhs, or
    the decoded instruction's second source is an immediate) or unary
    (``unary`` set, ``b`` is None)."""

    pc: int
    dst: str
    opcode: str
    elem: Optional[str]
    a: str
    b: Optional[str]
    unary: bool
    instr: Instruction = field(repr=False)

    kind = IRKind.ALU


@dataclass(frozen=True)
class PermNode:
    """Permutation gather with a compile-time lane map."""

    pc: int
    dst: str
    opcode: str
    elem: Optional[str]
    a: str
    instr: Instruction = field(repr=False)

    kind = IRKind.PERM


@dataclass(frozen=True)
class ReduceNode:
    """Sequential fold of vector *src* into scalar accumulator *dst*."""

    pc: int
    dst: str
    opcode: str
    elem: Optional[str]
    src: str

    kind = IRKind.REDUCE


@dataclass(frozen=True)
class ScalarNode:
    """One straight-line scalar op in a chain segment.

    ``op`` selects the form:

    * ``"mov-imm"`` / ``"fmov-imm"``: *dst* := *value* (pre-wrapped /
      pre-rounded constant).
    * ``"mov-reg"`` / ``"fmov-reg"``: *dst* := register *src* of the
      same bank.
    * ``"store"``: scalar store of register *src* (or constant *value*)
      to ``sym + offset`` elements of *elem*; *site* indexes the
      chain's site table.
    """

    pc: int
    op: str
    dst: Optional[str] = None
    src: Optional[str] = None
    value: Optional[object] = None
    sym: Optional[str] = None
    offset: int = 0
    elem: Optional[str] = None
    site: Optional[int] = None

    kind = IRKind.SCALAR


@dataclass(frozen=True)
class LoopNode:
    """One counted do-while region (``add rI, rI, #step`` / ``cmp rI,
    #trip`` / ``blt head``).

    For the canonical vector loop, *body* holds LOAD/STORE/ALU/PERM/
    REDUCE nodes, *step* equals the SIMD width, and the bookkeeping
    tuples describe the loop's dataflow facets: *sites* are the memory
    sites in program order (``(sym, elem_size, is_store)``),
    *invariants* the loop-invariant vector inputs (``(name, kind)``),
    *finals* the architecturally visible last values of written vector
    registers (``(name, elem)``), *accs* the reduction accumulators.

    For the nested shape, *body* is ``(ScalarNode(mov rInner, #0),
    LoopNode(inner))`` and *step* is the outer induction step.
    """

    head: int
    branch_pc: int
    width: int
    induction: str
    trip: int
    step: int
    body: Tuple[object, ...]
    sites: Tuple[Tuple[str, int, bool], ...] = ()
    invariants: Tuple[Tuple[str, str], ...] = ()
    finals: Tuple[Tuple[str, Optional[str]], ...] = ()
    accs: Tuple[str, ...] = ()

    kind = IRKind.LOOP

    @property
    def blen(self) -> int:
        return self.branch_pc - self.head + 1

    @property
    def inner(self) -> Optional["LoopNode"]:
        """The inner loop of a nested region, or None."""
        for node in self.body:
            if isinstance(node, LoopNode):
                return node
        return None


@dataclass(frozen=True)
class ChainSite:
    """One memory site of a chain, with statically known extent.

    Loop sites (``scalar`` False) span ``count_elems`` elements from
    ``sym`` (the loop enters with its induction at 0); scalar sites
    span one element at ``sym + offset`` elements.
    """

    sym: str
    esz: int
    is_store: bool
    scalar: bool
    offset: int
    count_elems: int


@dataclass(frozen=True)
class ChainNode:
    """A whole fragment as alternating scalar segments and counted
    loops, every trip count static (each loop's induction is reset by
    a ``mov rI, #0`` earlier in the chain).

    *regions* holds ScalarNodes and LoopNodes in program order;
    *trips* holds one ``(region index, whole-loop trip count, first
    site index)`` triple per LOOP region, where the site index points
    at that loop's first entry in *sites*; *total_retired* is the
    exact instruction count one full chain execution retires.
    """

    width: int
    regions: Tuple[object, ...]
    sites: Tuple[ChainSite, ...]
    trips: Tuple[Tuple[int, int], ...]
    total_retired: int

    kind = IRKind.CHAIN

    @property
    def loops(self) -> Tuple[Tuple[int, "LoopNode"], ...]:
        return tuple((i, r) for i, r in enumerate(self.regions)
                     if isinstance(r, LoopNode))


@dataclass(frozen=True)
class BlockSpec:
    """One straight-line superblock plus its timing rows.

    ``term`` is 0 for a fall-through/unknown-op exit, 1 for a branch,
    2 for call/ret, 3 for halt; ``rows`` are
    :class:`~repro.pipeline.core.BlockTiming` rows in pc order (pcs
    whose decode failed contribute no row); ``branch_pc`` /
    ``branch_target`` are pre-offset pcs for the predictor.
    """

    entry: int
    pcs: Tuple[int, ...]
    term: int
    exit_pc: int
    rows: Tuple[tuple, ...]
    blen: int
    simd: int
    fetch_mode: int
    branch_pc: int
    branch_target: int
    label: str

    @property
    def timing_term(self) -> int:
        return 1 if self.term == 1 else (2 if self.term == 2 else 0)


@dataclass(frozen=True)
class AffineAccess:
    """An inline scalar load or store of a self-loop whose address on
    trip ``t`` is ``first + t * slope``.

    ``first`` is ``const`` plus, for each ``(register, multiplier)`` of
    ``terms``, the register's value on entry to the window times the
    multiplier; ``const`` already holds the symbol address, the
    immediate index and the steps of the inductions the body updates
    before the access.
    """

    pc: int
    terms: Tuple[Tuple[str, int], ...]
    const: int
    slope: int
    nbytes: int
    store: bool


@dataclass(frozen=True)
class LoopShape:
    """Static facts of a self-loop body, lifted without generating code.

    ``inductions`` holds one ``(register, step, update pc)`` per integer
    register the body writes exactly once, with an inline
    ``add r, r, #imm`` or ``sub r, r, #imm``; ``accesses`` the affine
    ones among the inline scalar loads and stores (:class:`AffineAccess`).
    ``counted`` is ``(cmp pc, register, bound, condition)`` when the
    body's only flag write is a ``cmp`` of an induction with an integer
    immediate and nothing in it reads the flags, so the closing
    ``b<condition>`` alone decides the trip count; else None.
    ``slopes`` holds one slope per memory row, in row order, when every
    memory access of the body is affine, else None.
    """

    inductions: Tuple[Tuple[str, int, int], ...]
    accesses: Tuple[AffineAccess, ...]
    counted: Optional[Tuple[int, str, int, str]]
    slopes: Optional[Tuple[int, ...]]
