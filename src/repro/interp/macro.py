"""Whole-loop macro-kernel execution of translated SIMD fragments.

The translator emits fragments in a small regular language (see
``repro/core/translate/translator.py``); the fast engine executes
their hot shapes whole instead of per block.  Recognition and lowering
live in the shared codegen layer (:mod:`repro.codegen`): the lift pass
(:func:`repro.codegen.lift.lift_fragment`) raises a fragment into
typed IR once, and the numpy backend lowers the recognized regions
into ``exec()``-compiled whole-array kernels.  This module owns the
*runtime* shapes the machine dispatches on — what to check before
engaging, how to replay timing, what architectural state the epilogue
must leave — and assembles them into the fragment plan:

* :class:`FragmentLoopShape` — the canonical counted do-while loop,
  run for all remaining trips as one ``(trips, width)`` kernel
  (PR 5's original shape, now IR-driven).
* :class:`FragmentChainShape` — a whole fragment of alternating
  scalar segments and counted loops with statically known trips
  (the paper's fissioned permutation loops, §3, land here), run as a
  single kernel per fragment invocation.
* :class:`FragmentNestShape` — a nested counted loop (outer
  ``add``/``cmp``/``blt`` around an induction reset plus one inner
  vector loop), run whole across the remaining outer trips.

Timing stays bit-identical through the same two batched APIs as
before: whole-loop d-cache streams replayed by
:meth:`~repro.memory.cache.Cache.access_stream` (trip-major, program
order — the exact sequence the per-block path would have issued), and
pipeline hazards/branch prediction/statistics folded by
:meth:`~repro.pipeline.core.PipelineModel.account_block` /
:meth:`~repro.pipeline.core.PipelineModel.account_loop` over the very
``BlockTiming`` objects the per-block path uses.

Fallback contract: anything outside the recognized shapes produces no
plan entry, and runtime conditions (misaligned or out-of-range slabs,
read-only overlap, induction state out of range, fewer than two
remaining trips, step-limit proximity, an attached tracer or in-flight
translation, which disable fused fragments wholesale in
``Machine._run_fragment``) return control to the per-block path, which
raises the identical errors at the identical instruction.  The
four-way differential suite pins all of this.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.codegen.backend import get_backend
from repro.codegen.ir import ChainNode, LoopNode
from repro.codegen.lift import lift_fragment, static_loop_trips
from repro.observability import telemetry as _telemetry

#: Values the induction variable may reach without 32-bit wrap concerns.
_INT31 = 1 << 31

#: Minimum remaining trips worth the whole-array setup cost.  Below it
#: the per-block path is used; both are bit-identical, so this is a pure
#: speed knob.
MIN_MACRO_TRIPS = 2


def _site_arrays(sites, width: int):
    """(strides, nbytes, writes, load_cols) numpy arrays for loop sites."""
    strides = [esz * width for (_sym, esz, _w) in sites]
    return (np.asarray(strides, dtype=np.int64),
            np.asarray(strides, dtype=np.int64),  # one vector/site
            np.asarray([w for (_s, _e, w) in sites], dtype=bool),
            np.asarray([i for i, (_s, _e, w) in enumerate(sites) if not w],
                       dtype=np.intp))


class FragmentLoopShape:
    """One recognized counted fragment loop, executable whole.

    Instances are built by :func:`build_fragment_plan` per back-branch
    and keyed by the loop-head pc in the fragment plan.  ``trips``
    computes the remaining trip count from live register state (None
    when the macro path must not engage); ``run`` executes and accounts
    all of them at once, returning False — with no state touched — when
    a runtime precondition fails and the per-block path must take over.
    """

    __slots__ = ("head", "branch_pc", "blen", "width", "induction", "trip",
                 "sites", "kernel", "timing",
                 "_bases_stride", "_nbytes", "_writes", "_load_cols")

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
        (self._bases_stride, self._nbytes, self._writes,
         self._load_cols) = _site_arrays(node.sites, node.width)

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
        alignment, bounds, read-only overlap); the caller then resumes
        the per-block path, which raises the identical error at the
        identical instruction if one is actually due.
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

        # Timing: replay the loop's whole d-cache stream (trip-major,
        # program order — identical to the per-block sequence; fragments
        # never touch the i-cache), then fold the pipeline hazards and
        # the taken/.../taken/not-taken branch pattern.
        n_sites = len(bases)
        if n_sites:
            addr_mat = (np.asarray(bases, dtype=np.int64)[None, :]
                        + np.arange(trips, dtype=np.int64)[:, None]
                        * self._bases_stride[None, :])
            lats = pipeline.dcache.access_stream(
                addr_mat.reshape(-1),
                np.tile(self._nbytes, trips),
                np.tile(self._writes, trips))
            load_lats = lats.reshape(trips, n_sites)[:, self._load_cols] \
                .reshape(-1).tolist()
        else:
            load_lats = []
        pipeline.account_loop(self.timing, trips, load_lats)

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

    Registered at pc 0 of the plan: one invocation runs every scalar
    segment and every loop region of the fragment (all trip counts are
    static — the chain lift required each induction to be reset by a
    ``mov rI, #0`` in the chain itself), then replays the fragment's
    complete timing as a static schedule of block steps (segment +
    first loop iteration + back-branch, and the trailing segment) and
    loop steps (iterations 2..n via ``access_stream`` +
    ``account_loop``) over the same ``BlockTiming`` objects the
    per-block path uses.
    """

    __slots__ = ("blen", "width", "kernel", "steps", "sites", "count",
                 "_flags_pair")

    def __init__(self, chain: ChainNode, kernel, steps, count: int,
                 flags_pair: Tuple[int, int]) -> None:
        self.blen = chain.total_retired
        self.width = chain.width
        self.kernel = kernel
        self.steps = steps
        self.sites = chain.sites
        self.count = count  # fragment instruction count (exit pc)
        self._flags_pair = flags_pair

    def trips(self, state) -> Optional[int]:
        """One whole-fragment invocation; trip counts are static."""
        return 1

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
        access_stream = pipeline.dcache.access_stream
        for step in self.steps:
            if step[0] == 0:
                _, timing, ids, taken = step
                account_block(timing, [bases[s] for s in ids], taken)
            else:
                (_, timing, ids, ltrips, strides, nbytes, writes,
                 load_cols) = step
                n_sites = len(ids)
                if n_sites:
                    b = np.asarray([bases[s] for s in ids], dtype=np.int64)
                    addr_mat = (b[None, :]
                                + np.arange(1, ltrips + 1, dtype=np.int64)
                                [:, None] * strides[None, :])
                    lats = access_stream(addr_mat.reshape(-1),
                                         np.tile(nbytes, ltrips),
                                         np.tile(writes, ltrips))
                    load_lats = lats.reshape(ltrips, n_sites)[:, load_cols] \
                        .reshape(-1).tolist()
                else:
                    load_lats = []
                account_loop(timing, ltrips, load_lats)

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
                 "tail_timing",
                 "_bases_stride", "_nbytes", "_writes", "_load_cols")

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
        (self._bases_stride, self._nbytes, self._writes,
         self._load_cols) = _site_arrays(inner.sites, node.width)

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
        access_stream = pipeline.dcache.access_stream
        kernel = self.kernel
        entry_timing = self.entry_timing
        loop_timing = self.loop_timing
        tail_timing = self.tail_timing
        vregs = state.vregs
        n_sites = len(bases)
        ltrips = inner_trips - 1
        if n_sites and ltrips:
            addr_mat = (np.asarray(bases, dtype=np.int64)[None, :]
                        + np.arange(1, inner_trips, dtype=np.int64)[:, None]
                        * self._bases_stride[None, :])
            flat = addr_mat.reshape(-1)
            nbytes_stream = np.tile(self._nbytes, ltrips)
            writes_stream = np.tile(self._writes, ltrips)
        last = trips - 1
        no_mem: List[int] = []
        for t in range(trips):
            kernel(memory, vregs, regs, bases, inner_trips)
            account_block(entry_timing, bases, True)
            if ltrips:
                if n_sites:
                    lats = access_stream(flat, nbytes_stream, writes_stream)
                    load_lats = lats.reshape(ltrips, n_sites) \
                        [:, self._load_cols].reshape(-1).tolist()
                else:
                    load_lats = []
                account_loop(loop_timing, ltrips, load_lats)
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


def _loop_block_timing(node: LoopNode, blocks, pipeline, sb_backend,
                       label: str):
    """The validated loop-body ``BlockTiming`` for *node*, with its
    compiled whole-loop specialization attached, or None on mismatch."""
    timing = blocks.block_at(node.head).timing
    if (timing.fetch_mode != 0 or timing.term != 1
            or timing.count != node.blen
            or len(timing.rows) != node.blen):
        # superblock discovery disagreed: stay per-block
        return _reject("timing-mismatch")
    if timing.loop_compiled is None:
        timing.loop_compiled = sb_backend.lower_loop_timing(
            timing, pipeline, label, node.head)
    return timing


def _mem_rows(timing) -> int:
    return sum(1 for row in timing.rows if row[6])


def _build_chain_shape(chain: ChainNode, fragment, blocks, pipeline,
                       np_backend, sb_backend,
                       label: str) -> Optional[FragmentChainShape]:
    """Lower one chain and build its static timing schedule, or None."""
    lowered = np_backend.lower_chain(chain, label)
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
        entry_timing = blocks.block_at(pos).timing
        expected = (region.head - pos) + region.blen
        mem_ids = tuple(pending) + loop_ids
        if (entry_timing.fetch_mode != 0 or entry_timing.term != 1
                or entry_timing.count != expected
                or _mem_rows(entry_timing) != len(mem_ids)):
            return _reject("chain-block-mismatch")
        steps.append((0, entry_timing, mem_ids, nloop > 1))
        if nloop > 1:
            loop_timing = _loop_block_timing(region, blocks, pipeline,
                                             sb_backend, label)
            if loop_timing is None:
                return None  # _loop_block_timing counted the rejection
            strides, nbytes, writes, load_cols = _site_arrays(
                region.sites, chain.width)
            steps.append((1, loop_timing, loop_ids, nloop - 1,
                          strides, nbytes, writes, load_cols))
        pending = []
        pos = region.branch_pc + 1
        last_loop = region
        last_trips = nloop
    if pos < count:
        tail_timing = blocks.block_at(pos).timing
        if (tail_timing.fetch_mode != 0 or tail_timing.term != 0
                or tail_timing.count != count - pos
                or _mem_rows(tail_timing) != len(pending)):
            return _reject("chain-block-mismatch")
        steps.append((0, tail_timing, tuple(pending), None))
    flags_pair = (last_trips * chain.width, last_loop.trip)
    return FragmentChainShape(chain, lowered.kernel, tuple(steps), count,
                              flags_pair)


def _build_nest_shape(node: LoopNode, blocks, pipeline, np_backend,
                      sb_backend,
                      label: str) -> Optional[FragmentNestShape]:
    """Lower one nested loop and validate its three blocks, or None."""
    inner = node.inner
    inner_trips = static_loop_trips(inner)
    if inner_trips is None or inner_trips < 2:
        return _reject("nested-inner-trips")
    lowered = np_backend.lower_loop(inner, label)
    if lowered is None:
        return _reject("unsupported-lowering")
    entry_timing = blocks.block_at(node.head).timing
    expected = 1 + inner.blen  # induction reset + first inner iteration
    if (entry_timing.fetch_mode != 0 or entry_timing.term != 1
            or entry_timing.count != expected
            or len(entry_timing.rows) != expected
            or _mem_rows(entry_timing) != len(inner.sites)):
        return _reject("timing-mismatch")
    loop_timing = _loop_block_timing(inner, blocks, pipeline, sb_backend,
                                     label)
    if loop_timing is None:
        return None
    tail_timing = blocks.block_at(inner.branch_pc + 1).timing
    if (tail_timing.fetch_mode != 0 or tail_timing.term != 1
            or tail_timing.count != 3 or len(tail_timing.rows) != 3
            or _mem_rows(tail_timing) != 0):
        return _reject("timing-mismatch")
    return FragmentNestShape(node, inner_trips, lowered.kernel,
                             entry_timing, loop_timing, tail_timing)


def build_fragment_plan(fragment, blocks, pipeline,
                        width: int) -> Dict[int, object]:
    """Map plan pc -> runtime shape for every recognizable region.

    Keys are loop-head pcs for :class:`FragmentLoopShape` /
    :class:`FragmentNestShape`, plus pc 0 for a whole-fragment
    :class:`FragmentChainShape`.  *blocks* is the fragment's
    :class:`~repro.interp.turbo.SuperblockTable`: every shape reuses —
    and attaches compiled whole-loop timings to — the superblocks
    discovered at its pcs, guaranteeing the macro path and the
    per-block path account the very same rows.
    """
    tel = _telemetry.get()
    label = getattr(fragment, "name", "fragment")
    np_backend = get_backend("numpy")
    sb_backend = get_backend("superblock")
    ir = lift_fragment(fragment, width)
    plans: Dict[int, object] = {}
    for head in sorted(ir.loops):
        node = ir.loops[head]
        if node.inner is not None:
            shape = _build_nest_shape(node, blocks, pipeline, np_backend,
                                      sb_backend, label)
            if shape is not None:
                plans[head] = shape
                tel.count("macro.plan.recognized")
            continue
        lowered = np_backend.lower_loop(node, label)
        if lowered is None:
            _reject("unsupported-lowering")
            continue
        timing = _loop_block_timing(node, blocks, pipeline, sb_backend,
                                    label)
        if timing is None:
            continue
        shape = FragmentLoopShape(node, lowered.kernel)
        shape.timing = timing
        plans[head] = shape
        tel.count("macro.plan.recognized")
    if ir.chain is not None:
        chain_shape = _build_chain_shape(ir.chain, fragment, blocks,
                                         pipeline, np_backend, sb_backend,
                                         label)
        if chain_shape is not None:
            plans[0] = chain_shape
            tel.count("macro.plan.recognized")
    return plans
