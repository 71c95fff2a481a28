"""Whole-loop macro-kernel execution of translated SIMD fragments.

The translator emits fragments in a small regular language (see
``repro/core/translate/translator.py``); the fast engine executes
them as whole-array kernels instead of instruction by instruction.
Recognition and lowering live in the shared codegen layer
(:mod:`repro.codegen`): the lift pass
(:func:`repro.codegen.lift.lift_fragment`) raises a fragment into
typed IR once, and :mod:`repro.codegen.numpy_backend` lowers the
recognized regions into ``exec()``-compiled whole-array kernels.  This
module owns the *runtime* shapes the machine dispatches on — what to
check before engaging, how to replay timing, what architectural state
the epilogue must leave — and assembles them into the fragment plan:

* :class:`FragmentChainShape` — a whole fragment of alternating
  scalar segments and counted loops with statically known trips
  (every suite fragment; the paper's fissioned permutation loops, §3,
  land here), run as a single kernel per fragment invocation.  A
  fragment with a chain gets no other kernel.
* :class:`FragmentLoopShape` — the canonical counted do-while loop,
  run for all remaining trips as one ``(trips, width)`` kernel, for a
  fragment no chain covers.
* :class:`FragmentNestShape` — a nested counted loop (outer
  ``add``/``cmp``/``blt`` around an induction reset plus one inner
  vector loop), run whole across the remaining outer trips, for a
  fragment no chain covers.

Timing stays bit-identical by charging the ``BlockTiming`` rows of the
fragment's superblocks, which hold what per-instruction accounting
charges step by step: straight-line steps through
:meth:`~repro.pipeline.core.PipelineModel.account_block`, and loop
iterations through
:meth:`~repro.pipeline.core.PipelineModel.account_loop`, handed the
loop's trip-major address stream (the exact sequence stepping the loop
would have issued), which it replays through the D-cache itself.

Fallback contract: anything outside the recognized shapes produces no
plan entry, and runtime conditions (misaligned or out-of-range slabs,
read-only overlap, induction state out of range, fewer than two
remaining trips, step-limit proximity, an attached tracer, which
disables the plan wholesale in ``Machine._run_fragment``) return
control to the reference executor, stepped one instruction at a time,
which raises the identical errors at the identical instruction.  A
chain checks only its slabs (and the machine the step limit), so on a
chain fragment the fallback's one job is to raise the reference's
fault.  The differential suite and
``tests/test_codegen_ir.py`` pin all of this.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.codegen.ir import ChainNode, LoopNode
from repro.codegen.lift import lift_fragment, static_loop_trips
from repro.codegen.numpy_backend import lower_chain, lower_loop
from repro.observability import telemetry as _telemetry

#: Values the induction variable may reach without 32-bit wrap concerns.
_INT31 = 1 << 31

#: Minimum remaining trips worth the whole-array setup cost.  Below it
#: the reference executor steps the loop; both are bit-identical, so
#: this is a pure speed knob.
MIN_MACRO_TRIPS = 2


def _site_strides(sites, width: int) -> np.ndarray:
    """Per-trip address strides of loop sites: one vector per site."""
    return np.asarray([esz * width for (_sym, esz, _w) in sites],
                      dtype=np.int64)


def _site_stream(bases, strides: np.ndarray, first: int,
                 trips: int) -> np.ndarray:
    """Trip-major address stream of *trips* iterations from *first*."""
    if not len(strides):
        return strides
    return (np.asarray(bases, dtype=np.int64)[None, :]
            + np.arange(first, first + trips, dtype=np.int64)[:, None]
            * strides[None, :]).reshape(-1)


class FragmentLoopShape:
    """One recognized counted fragment loop, executable whole.

    Instances are built by :func:`build_fragment_plan` per back-branch
    and keyed by the loop-head pc in the fragment plan.  ``trips``
    computes the remaining trip count from live register state (None
    when the macro path must not engage); ``run`` executes and accounts
    all of them at once, returning False — with no state touched — when
    a runtime precondition fails and the reference executor must take
    over.
    """

    __slots__ = ("head", "branch_pc", "blen", "width", "induction", "trip",
                 "sites", "kernel", "timing", "_strides")

    def __init__(self, node: LoopNode, kernel) -> None:
        self.head = node.head
        self.branch_pc = node.branch_pc
        self.blen = node.blen
        self.width = node.width
        self.induction = node.induction
        self.trip = node.trip
        self.sites = node.sites
        self.kernel = kernel
        self.timing = None  # attached by build_fragment_plan
        self._strides = _site_strides(node.sites, node.width)

    def iterations(self, trips: int) -> int:
        """Loop iterations one ``run(..., trips)`` covers."""
        return trips

    def trips(self, state) -> Optional[int]:
        """Remaining trip count from live state, or None to fall back."""
        i0 = state.regs.ints[self.induction]
        trip = self.trip
        width = self.width
        if i0 < 0 or trip < 0:
            return None
        n = ((trip - i0 + width - 1) // width) if trip > i0 else 1
        if n < MIN_MACRO_TRIPS or i0 + n * width >= _INT31:
            return None
        return n

    def run(self, state, pipeline, trips: int) -> bool:
        """Execute and account *trips* loop iterations in one shot.

        Returns False — before touching any architectural or timing
        state — when a slab fails the runtime preconditions (vector
        alignment, bounds, read-only overlap); the caller then steps
        the reference executor, which raises the identical error at
        the identical instruction if one is actually due.
        """
        regs = state.regs
        memory = state.memory
        symbols = state.symbols
        i0 = regs.ints[self.induction]
        width = self.width
        span = trips * width
        bases = []
        for sym, esz, is_store in self.sites:
            base = symbols.address_of(sym) + i0 * esz
            nbytes = span * esz
            if base % (esz * width) or base < 0 or base + nbytes > memory.size:
                return False
            if is_store and memory.overlaps_read_only(base, nbytes):
                return False
            bases.append(base)

        self.kernel(memory, state.vregs, regs, bases, trips)

        # Timing: every trip's accesses (trip-major, program order —
        # the stepped sequence), the last trip falling through.
        pipeline.account_loop(
            self.timing, trips, _site_stream(bases, self._strides, 0, trips))

        # Architectural epilogue: final induction value, cmp flags,
        # fall-through pc, retire count — what the last trip leaves.
        i_final = i0 + trips * width
        regs.ints[self.induction] = i_final
        regs.set_flags(i_final, self.trip)
        state.pc = self.branch_pc + 1
        state.instructions_retired += trips * self.blen
        return True


class FragmentChainShape:
    """A whole chain-shaped fragment, executable as one kernel.

    The plan's only entry, at pc 0: one invocation runs every scalar
    segment and every loop region of the fragment (all trip counts are
    static — the chain lift required each induction to be reset by a
    ``mov rI, #0`` in the chain itself), then replays the fragment's
    complete timing as a static schedule of block steps (segment +
    first loop iteration + back-branch, and the trailing segment) and
    loop steps (iterations 2..n, one ``account_loop`` each) over the
    ``BlockTiming`` rows of the fragment's superblocks.  ``chain`` is
    the lifted :class:`~repro.codegen.ir.ChainNode` the kernel was
    lowered from.
    """

    __slots__ = ("chain", "blen", "width", "kernel", "steps", "sites",
                 "count", "loop_trips", "_flags_pair")

    def __init__(self, chain: ChainNode, kernel, steps, count: int,
                 flags_pair: Tuple[int, int]) -> None:
        self.chain = chain
        self.blen = chain.total_retired
        self.width = chain.width
        self.kernel = kernel
        self.steps = steps
        self.sites = chain.sites
        self.count = count  # fragment instruction count (exit pc)
        #: iterations of all the chain's loops in one invocation
        self.loop_trips = sum(n for (_ri, n, _sb) in chain.trips)
        self._flags_pair = flags_pair

    def trips(self, state) -> Optional[int]:
        """One whole-fragment invocation; trip counts are static."""
        return 1

    def iterations(self, trips: int) -> int:
        """Loop iterations one invocation covers: every loop's trips."""
        return self.loop_trips

    def run(self, state, pipeline, trips: int) -> bool:
        regs = state.regs
        memory = state.memory
        symbols = state.symbols
        width = self.width
        bases: List[int] = []
        for site in self.sites:
            base = symbols.address_of(site.sym) + site.offset * site.esz
            nbytes = site.count_elems * site.esz
            if site.scalar:
                if base < 0 or base + nbytes > memory.size:
                    return False
            else:
                if base % (site.esz * width) or base < 0 \
                        or base + nbytes > memory.size:
                    return False
            if site.is_store and memory.overlaps_read_only(base, nbytes):
                return False
            bases.append(base)

        self.kernel(memory, state.vregs, regs, bases)

        account_block = pipeline.account_block
        account_loop = pipeline.account_loop
        for step in self.steps:
            if step[0] == 0:
                _, timing, ids, taken = step
                account_block(timing, [bases[s] for s in ids], taken)
            else:
                _, timing, ids, ltrips, strides = step
                account_loop(timing, ltrips, _site_stream(
                    [bases[s] for s in ids], strides, 1, ltrips))

        # The kernel set every induction final; the last flag-setting
        # instruction of a chain is the last loop's cmp.
        regs.set_flags(*self._flags_pair)
        state.pc = self.count
        state.instructions_retired += self.blen
        return True


class FragmentNestShape:
    """A nested counted loop, run whole across remaining outer trips.

    The outer region's body is an induction reset plus one canonical
    inner loop whose trip count is static; each outer trip runs the
    inner loop's whole-array kernel once and replays the outer trip's
    timing as entry block (reset + inner iteration 1 + inner branch),
    inner loop iterations 2..n, and tail block (outer
    ``add``/``cmp``/``blt``).
    """

    __slots__ = ("head", "branch_pc", "blen", "width", "node", "inner",
                 "inner_trips", "kernel", "entry_timing", "loop_timing",
                 "tail_timing", "_strides")

    def __init__(self, node: LoopNode, inner_trips: int, kernel,
                 entry_timing, loop_timing, tail_timing) -> None:
        inner = node.inner
        self.head = node.head
        self.branch_pc = node.branch_pc
        self.width = node.width
        self.node = node
        self.inner = inner
        self.inner_trips = inner_trips
        self.kernel = kernel
        self.entry_timing = entry_timing
        self.loop_timing = loop_timing
        self.tail_timing = tail_timing
        #: retired instructions per outer trip: reset + whole inner
        #: loop + outer add/cmp/blt.
        self.blen = 1 + inner_trips * inner.blen + 3
        self._strides = _site_strides(inner.sites, node.width)

    def iterations(self, trips: int) -> int:
        """Loop iterations *trips* outer trips cover: outer × inner."""
        return trips * self.inner_trips

    def trips(self, state) -> Optional[int]:
        """Remaining outer trips from live state, or None to fall back."""
        node = self.node
        j0 = state.regs.ints[node.induction]
        trip = node.trip
        step = node.step
        if j0 < 0 or trip < 0:
            return None
        n = ((trip - j0 + step - 1) // step) if trip > j0 else 1
        if j0 + n * step >= _INT31:
            return None
        return n

    def run(self, state, pipeline, trips: int) -> bool:
        regs = state.regs
        memory = state.memory
        symbols = state.symbols
        node = self.node
        inner = self.inner
        width = self.width
        inner_trips = self.inner_trips
        span = inner_trips * width
        bases: List[int] = []
        for sym, esz, is_store in inner.sites:
            base = symbols.address_of(sym)
            nbytes = span * esz
            if base % (esz * width) or base < 0 or base + nbytes > memory.size:
                return False
            if is_store and memory.overlaps_read_only(base, nbytes):
                return False
            bases.append(base)

        account_block = pipeline.account_block
        account_loop = pipeline.account_loop
        kernel = self.kernel
        entry_timing = self.entry_timing
        loop_timing = self.loop_timing
        tail_timing = self.tail_timing
        vregs = state.vregs
        ltrips = inner_trips - 1
        # Inner iterations 2..n touch the same addresses every outer trip.
        stream = _site_stream(bases, self._strides, 1, ltrips)
        last = trips - 1
        no_mem: List[int] = []
        for t in range(trips):
            kernel(memory, vregs, regs, bases, inner_trips)
            account_block(entry_timing, bases, True)
            if ltrips:
                account_loop(loop_timing, ltrips, stream)
            account_block(tail_timing, no_mem, t != last)

        # Epilogue: inner induction rests at its final value, outer
        # induction and flags from the last outer cmp.
        regs.ints[inner.induction] = inner_trips * width
        j_final = regs.ints[node.induction] + trips * node.step
        regs.ints[node.induction] = j_final
        regs.set_flags(j_final, node.trip)
        state.pc = self.branch_pc + 1
        state.instructions_retired += trips * self.blen
        return True


# ---------------------------------------------------------------------------
# Plan construction
# ---------------------------------------------------------------------------


def _reject(reason: str):
    _telemetry.get().count("macro.plan.rejected." + reason)
    return None


def _loop_block_timing(node: LoopNode, blocks, width: int):
    """The validated loop-body ``BlockTiming`` for *node*, or None on
    mismatch.  ``account_loop`` takes each access's width and kind from
    the block's memory rows, so those must be the sites' vectors, in
    site order."""
    timing = blocks.timing_at(node.head)
    site_rows = [(esz * width, 2 if is_store else 1)
                 for (_sym, esz, is_store) in node.sites]
    mem_rows = [(row[7], row[6]) for row in timing.rows if row[6]]
    if (timing.fetch_mode != 0 or timing.term != 1
            or timing.count != node.blen
            or len(timing.rows) != node.blen
            or mem_rows != site_rows):
        # superblock discovery disagreed: take no kernel
        return _reject("timing-mismatch")
    return timing


def _mem_rows(timing) -> int:
    return sum(1 for row in timing.rows if row[6])


def _build_chain_shape(chain: ChainNode, fragment, blocks,
                       label: str) -> Optional[FragmentChainShape]:
    """Lower one chain and build its static timing schedule, or None."""
    lowered = lower_chain(chain, label)
    if lowered is None:
        return _reject("unsupported-lowering")
    count = len(fragment.instructions)
    trips = {ri: (n, sb) for (ri, n, sb) in chain.trips}
    steps: List[tuple] = []
    pending: List[int] = []  # scalar store site ids in segment order
    pos = 0
    last_loop = None
    last_trips = 1
    for ri, region in enumerate(chain.regions):
        if not isinstance(region, LoopNode):
            if region.site is not None:
                pending.append(region.site)
            continue
        nloop, site_base = trips[ri]
        loop_ids = tuple(range(site_base, site_base + len(region.sites)))
        entry_timing = blocks.timing_at(pos)
        expected = (region.head - pos) + region.blen
        mem_ids = tuple(pending) + loop_ids
        if (entry_timing.fetch_mode != 0 or entry_timing.term != 1
                or entry_timing.count != expected
                or _mem_rows(entry_timing) != len(mem_ids)):
            return _reject("chain-block-mismatch")
        steps.append((0, entry_timing, mem_ids, nloop > 1))
        if nloop > 1:
            loop_timing = _loop_block_timing(region, blocks, chain.width)
            if loop_timing is None:
                return None  # _loop_block_timing counted the rejection
            steps.append((1, loop_timing, loop_ids, nloop - 1,
                          _site_strides(region.sites, chain.width)))
        pending = []
        pos = region.branch_pc + 1
        last_loop = region
        last_trips = nloop
    if pos < count:
        tail_timing = blocks.timing_at(pos)
        if (tail_timing.fetch_mode != 0 or tail_timing.term != 0
                or tail_timing.count != count - pos
                or _mem_rows(tail_timing) != len(pending)):
            return _reject("chain-block-mismatch")
        steps.append((0, tail_timing, tuple(pending), None))
    flags_pair = (last_trips * chain.width, last_loop.trip)
    return FragmentChainShape(chain, lowered.kernel, tuple(steps), count,
                              flags_pair)


def _build_nest_shape(node: LoopNode, blocks,
                      label: str) -> Optional[FragmentNestShape]:
    """Lower one nested loop and validate its three blocks, or None."""
    inner = node.inner
    inner_trips = static_loop_trips(inner)
    if inner_trips is None or inner_trips < 2:
        return _reject("nested-inner-trips")
    lowered = lower_loop(inner, label)
    if lowered is None:
        return _reject("unsupported-lowering")
    entry_timing = blocks.timing_at(node.head)
    expected = 1 + inner.blen  # induction reset + first inner iteration
    if (entry_timing.fetch_mode != 0 or entry_timing.term != 1
            or entry_timing.count != expected
            or len(entry_timing.rows) != expected
            or _mem_rows(entry_timing) != len(inner.sites)):
        return _reject("timing-mismatch")
    loop_timing = _loop_block_timing(inner, blocks, node.width)
    if loop_timing is None:
        return None
    tail_timing = blocks.timing_at(inner.branch_pc + 1)
    if (tail_timing.fetch_mode != 0 or tail_timing.term != 1
            or tail_timing.count != 3 or len(tail_timing.rows) != 3
            or _mem_rows(tail_timing) != 0):
        return _reject("timing-mismatch")
    return FragmentNestShape(node, inner_trips, lowered.kernel,
                             entry_timing, loop_timing, tail_timing)


def build_fragment_plan(fragment, blocks, width: int) -> Dict[int, object]:
    """Map plan pc -> runtime shape for one fragment.

    A fragment that lifts and lowers as a whole chain gets ``{0:``
    :class:`FragmentChainShape` ``}`` and nothing else.  Otherwise the
    keys are the loop-head pcs of its :class:`FragmentLoopShape` and
    :class:`FragmentNestShape` kernels.  *blocks* is the fragment's
    :class:`~repro.interp.turbo.SuperblockTable`: every shape charges
    the ``BlockTiming`` of the superblocks discovered at its pcs
    (``timing_at``), whose rows charge exactly what the reference
    executor's steps would.  Reading a timing compiles no fused ``run``
    closure, and no fragment block is ever fused.
    """
    tel = _telemetry.get()
    label = getattr(fragment, "name", "fragment")
    ir = lift_fragment(fragment, width)
    if ir.chain is not None:
        chain_shape = _build_chain_shape(ir.chain, fragment, blocks, label)
        if chain_shape is not None:
            tel.count("macro.plan.recognized")
            return {0: chain_shape}
    plans: Dict[int, object] = {}
    for head in sorted(ir.loops):
        node = ir.loops[head]
        if node.inner is not None:
            shape = _build_nest_shape(node, blocks, label)
            if shape is not None:
                plans[head] = shape
                tel.count("macro.plan.recognized")
            continue
        lowered = lower_loop(node, label)
        if lowered is None:
            _reject("unsupported-lowering")
            continue
        timing = _loop_block_timing(node, blocks, node.width)
        if timing is None:
            continue
        shape = FragmentLoopShape(node, lowered.kernel)
        shape.timing = timing
        plans[head] = shape
        tel.count("macro.plan.recognized")
    return plans
