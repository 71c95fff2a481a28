"""In-order 5-stage pipeline timing model.

The model consumes the executor's retire-event stream *in program order*
and assigns each instruction an issue cycle, honouring:

* single-issue in-order dispatch (one instruction per cycle at best),
* read-after-write hazards through registers and the flags,
* result latencies per instruction class (multiplies, FP, divides),
* D-cache access time for loads (stores drain through a write buffer:
  they update cache state but do not stall the pipeline on a miss),
* I-cache fetch time per instruction — except instructions injected
  from the microcode cache, which bypass instruction fetch entirely
  (the paper's front-end injection path),
* branch prediction with a configurable mispredict penalty, and a
  one-cycle redirect bubble for taken calls/returns.

This is a deliberately transparent first-order model (the repro target
is "functional simulator, not timing-faithful"): every stall source is
inspectable in :class:`PipelineStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.interp.events import RetireEvent
from repro.isa.decoded import InstrMeta, meta_of
from repro.isa.opcodes import InstrClass
from repro.memory.cache import Cache, CacheConfig
from repro.pipeline.branch import BimodalPredictor

#: Flags are modelled as one extra renameable resource.
_FLAGS = "<flags>"

#: Architectural instruction size used to map PCs to I-cache addresses.
_INSTR_BYTES = 4

#: Enum members pre-bound: ``account`` tests these once per retirement.
_BRANCH = InstrClass.BRANCH
_CALL_OR_RET = (InstrClass.CALL, InstrClass.RET)


def _int_list(addrs) -> list:
    """*addrs* as a list of Python ints (an int64 array's scalars
    would leak numpy integers into the caches' tag dicts)."""
    return addrs.tolist() if isinstance(addrs, np.ndarray) else addrs


class BlockTiming:
    """Static timing facts of one superblock, pre-extracted for
    :meth:`PipelineModel.account_block`.

    The fast engine builds one of these per fused self-loop and per
    fragment block a kernel charges (:mod:`repro.interp.turbo`): everything :meth:`PipelineModel.account`
    would have derived per retirement — fetch line numbers, read/write
    sets, latencies, memory access widths, the terminator kind — is
    frozen into per-instruction rows, so accounting a block is one tight
    loop over tuples with no event objects in sight.

    ``rows`` holds one tuple per instruction::

        (fetch_key, reads, reads_flags, writes, sets_flags,
         latency, mem_kind, nbytes)

    where ``mem_kind`` is 0 (no memory access), 1 (load) or 2 (store),
    and ``fetch_key`` is an icache line number (``fetch_mode == 1``) or
    byte address (``fetch_mode == 2``); ``fetch_mode == 0`` means the
    block is injected from the microcode cache and skips fetch.  The
    terminator is 0 (none / halt), 1 (branch, with ``branch_pc`` /
    ``branch_target`` pre-offset for fragments) or 2 (call / return).

    Nothing is compiled per block: :meth:`PipelineModel.account_block`
    runs its row loop over ``rows`` on every charge.  ``loop_compiled``
    and ``loop_stream`` belong to
    :meth:`PipelineModel.account_loop`, which fills both the first time
    it charges this block as a loop: the compiled whole-window replay
    of the rows, and the per-trip stream profile (memory-row count,
    their access widths and write flags, the rows' fetch lines).
    ``label`` names the program the block came from, for the generated
    closures' filenames.
    """

    __slots__ = ("rows", "count", "simd", "fetch_mode", "term",
                 "branch_pc", "branch_target", "loop_compiled",
                 "loop_stream", "label")

    def __init__(self, rows, count, simd, fetch_mode, term,
                 branch_pc=0, branch_target=0, label="block"):
        self.rows = rows
        self.count = count
        self.simd = simd
        self.fetch_mode = fetch_mode
        self.term = term
        self.branch_pc = branch_pc
        self.branch_target = branch_target
        self.loop_compiled = None
        self.loop_stream = None
        self.label = label


@dataclass(frozen=True)
class PipelineConfig:
    """Timing parameters of the modeled core."""

    icache: CacheConfig = CacheConfig()
    dcache: CacheConfig = CacheConfig()
    mispredict_penalty: int = 2
    call_redirect_penalty: int = 1
    pipeline_depth: int = 5
    code_base: int = 0x1000


@dataclass
class PipelineStats:
    """Cycle accounting, split by stall source."""

    instructions: int = 0
    simd_instructions: int = 0
    data_stall_cycles: int = 0
    fetch_stall_cycles: int = 0
    load_miss_cycles: int = 0
    branch_penalty_cycles: int = 0
    branches: int = 0
    mispredicts: int = 0

    def to_dict(self) -> dict:
        """JSON-safe representation (inverse of :meth:`from_dict`)."""
        return {
            "instructions": self.instructions,
            "simd_instructions": self.simd_instructions,
            "data_stall_cycles": self.data_stall_cycles,
            "fetch_stall_cycles": self.fetch_stall_cycles,
            "load_miss_cycles": self.load_miss_cycles,
            "branch_penalty_cycles": self.branch_penalty_cycles,
            "branches": self.branches,
            "mispredicts": self.mispredicts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineStats":
        return cls(**{name: data[name] for name in (
            "instructions", "simd_instructions", "data_stall_cycles",
            "fetch_stall_cycles", "load_miss_cycles",
            "branch_penalty_cycles", "branches", "mispredicts")})


class PipelineModel:
    """Assigns cycles to a retire-event stream."""

    def __init__(self, config: Optional[PipelineConfig] = None) -> None:
        self.config = config or PipelineConfig()
        self.icache = Cache(self.config.icache, name="icache")
        self.dcache = Cache(self.config.dcache, name="dcache")
        self.predictor = BimodalPredictor()
        self.stats = PipelineStats()
        self._reg_ready: Dict[str, int] = {}
        self._last_issue = 0
        self._fetch_ready = 0
        self._last_completion = 0
        self._dcache_hit = self.config.dcache.hit_latency
        # Instruction fetches are _INSTR_BYTES wide: when the line size
        # is a multiple of that (and code_base is aligned), a fetch can
        # never straddle a line, so account() may call the cache's
        # single-line path directly.
        icache_cfg = self.config.icache
        self._ifetch_line = self.icache._access_line_number
        self._iline_bytes = icache_cfg.line_bytes
        self._ifetch_direct = (icache_cfg.line_bytes % _INSTR_BYTES == 0
                               and self.config.code_base % _INSTR_BYTES == 0)
        self._code_base = self.config.code_base

    # -- public API -------------------------------------------------------------

    @property
    def now(self) -> int:
        """Issue cycle of the most recent instruction."""
        return self._last_issue

    def stall(self, cycles: int) -> None:
        """Block the pipeline for *cycles* (software work stealing the core).

        Used by the software-translation mode: a JIT translator runs on
        the main core, so its work shows up as dead pipeline time —
        unlike the hardware translator, which is off the critical path.
        """
        if cycles <= 0:
            return
        self._last_issue += cycles
        self._fetch_ready = max(self._fetch_ready, self._last_issue)
        self._last_completion = max(self._last_completion, self._last_issue)

    def total_cycles(self) -> int:
        """Cycles to fully drain the pipeline after the last instruction."""
        return max(self._last_completion,
                   self._last_issue + self.config.pipeline_depth)

    def account(self, event: RetireEvent,
                meta: Optional[InstrMeta] = None) -> int:
        """Charge one retired instruction; return its issue cycle.

        ``meta`` optionally supplies the pre-extracted
        :class:`~repro.isa.decoded.InstrMeta` (the fast engine hands over
        its decode table's entry); when omitted, it is derived — and
        memoized — from the instruction.  Either way the same timing
        logic runs on the same fields, so the two execution engines are
        cycle-identical by construction.
        """
        if meta is None:
            meta = meta_of(event.instr)
        cls = meta.cls
        stats = self.stats

        # -- fetch ---------------------------------------------------------------
        if event.in_vector_unit:
            fetch_ready = self._fetch_ready  # injected from microcode cache
        else:
            fetch_addr = self._code_base + event.pc * _INSTR_BYTES
            if self._ifetch_direct:
                fetch_cycles = self._ifetch_line(
                    fetch_addr // self._iline_bytes, False)
            else:
                fetch_cycles = self.icache.access(fetch_addr, _INSTR_BYTES,
                                                  is_write=False)
            fetch_ready = self._fetch_ready + (fetch_cycles - 1)
            if fetch_cycles > 1:
                stats.fetch_stall_cycles += fetch_cycles - 1

        # -- operand readiness ------------------------------------------------------
        ready = fetch_ready
        reg_ready = self._reg_ready
        for reg in meta.reads:
            t = reg_ready.get(reg, 0)
            if t > ready:
                ready = t
        if meta.reads_flags:
            t = reg_ready.get(_FLAGS, 0)
            if t > ready:
                ready = t

        issue = self._last_issue + 1
        if ready > issue:
            stats.data_stall_cycles += ready - issue
            issue = ready

        # -- memory --------------------------------------------------------------------
        completion = issue + meta.latency
        if event.mem_addr is not None:
            nbytes = meta.elem_bytes
            if meta.is_vector and event.vector_width:
                nbytes *= event.vector_width
            if meta.is_load:
                access = self.dcache.access(event.mem_addr, nbytes, is_write=False)
                completion = issue + access
                if access > self._dcache_hit:
                    stats.load_miss_cycles += access - self._dcache_hit
            else:
                # Stores update cache state; the write buffer hides latency.
                self.dcache.access(event.mem_addr, nbytes, is_write=True)

        # -- writeback of results ---------------------------------------------------------
        for reg in meta.writes:
            reg_ready[reg] = completion
        if meta.sets_flags:
            reg_ready[_FLAGS] = completion

        # -- control flow -------------------------------------------------------------------
        next_fetch = issue
        if cls is _BRANCH:
            config = self.config
            stats.branches += 1
            target_pc = event.next_pc if event.taken else event.pc
            predicted = self.predictor.predict(event.pc, target_pc)
            self.predictor.update(event.pc, event.taken)
            if predicted != event.taken:
                stats.mispredicts += 1
                # The penalty is in *bubbles*: the next fetch slips this many
                # cycles past its natural slot.
                next_fetch = issue + 1 + config.mispredict_penalty
                stats.branch_penalty_cycles += config.mispredict_penalty
        elif cls in _CALL_OR_RET:
            config = self.config
            next_fetch = issue + 1 + config.call_redirect_penalty
            stats.branch_penalty_cycles += config.call_redirect_penalty

        self._last_issue = issue
        self._fetch_ready = next_fetch
        if completion > self._last_completion:
            self._last_completion = completion
        stats.instructions += 1
        if meta.is_vector:
            stats.simd_instructions += 1
        return issue

    def account_block(self, timing: BlockTiming, mem_addrs, taken) -> None:
        """Charge one fused superblock (see :class:`BlockTiming`).

        Replays exactly the arithmetic :meth:`account` performs per
        retirement, over the block's pre-extracted rows: same cache
        access order, same hazard bookkeeping, same predictor updates —
        so a run accounted block-wise is cycle- and stats-identical to
        the same run accounted event-wise (``docs/timing-model.md``;
        enforced by the three-way differential suite).  ``mem_addrs``
        supplies the block's effective addresses in execution order;
        ``taken`` is the terminating branch's outcome (ignored unless
        the terminator is a branch).

        Every charge runs this loop.  A copy compiled per block would
        need several hundred charges to pay back its compile, more than
        any suite block gets in one run (``docs/timing-model.md``).
        """
        stats = self.stats
        reg_ready = self._reg_ready
        reg_get = reg_ready.get
        fetch_ready = self._fetch_ready
        last_issue = self._last_issue
        last_completion = self._last_completion
        fetch_mode = timing.fetch_mode
        ifetch_line = self._ifetch_line
        iaccess = self.icache.access
        daccess = self.dcache.access
        dcache_hit = self._dcache_hit
        data_stall = fetch_stall = load_miss = 0
        issue = last_issue
        mem_index = 0
        for (fetch_key, reads, reads_flags, writes, sets_flags,
             latency, mem_kind, nbytes) in timing.rows:
            if fetch_mode:
                if fetch_mode == 1:
                    fetch_cycles = ifetch_line(fetch_key, False)
                else:
                    fetch_cycles = iaccess(fetch_key, _INSTR_BYTES, False)
                if fetch_cycles > 1:
                    fetch_stall += fetch_cycles - 1
                ready = fetch_ready + fetch_cycles - 1
            else:
                ready = fetch_ready  # injected from microcode cache
            for reg in reads:
                t = reg_get(reg, 0)
                if t > ready:
                    ready = t
            if reads_flags:
                t = reg_get(_FLAGS, 0)
                if t > ready:
                    ready = t
            issue = last_issue + 1
            if ready > issue:
                data_stall += ready - issue
                issue = ready
            completion = issue + latency
            if mem_kind:
                addr = mem_addrs[mem_index]
                mem_index += 1
                if mem_kind == 1:
                    access = daccess(addr, nbytes, False)
                    completion = issue + access
                    if access > dcache_hit:
                        load_miss += access - dcache_hit
                else:
                    # Stores update cache state; the write buffer hides
                    # latency (same policy as account()).
                    daccess(addr, nbytes, True)
            for reg in writes:
                reg_ready[reg] = completion
            if sets_flags:
                reg_ready[_FLAGS] = completion
            last_issue = issue
            fetch_ready = issue
            if completion > last_completion:
                last_completion = completion
        term = timing.term
        if term == 1:
            config = self.config
            stats.branches += 1
            branch_pc = timing.branch_pc
            target_pc = timing.branch_target if taken else branch_pc
            predicted = self.predictor.predict(branch_pc, target_pc)
            self.predictor.update(branch_pc, taken)
            if predicted != taken:
                stats.mispredicts += 1
                penalty = config.mispredict_penalty
                fetch_ready = issue + 1 + penalty
                stats.branch_penalty_cycles += penalty
        elif term == 2:
            penalty = self.config.call_redirect_penalty
            fetch_ready = issue + 1 + penalty
            stats.branch_penalty_cycles += penalty
        self._last_issue = last_issue
        self._fetch_ready = fetch_ready
        self._last_completion = last_completion
        stats.instructions += timing.count
        stats.simd_instructions += timing.simd
        stats.data_stall_cycles += data_stall
        stats.fetch_stall_cycles += fetch_stall
        stats.load_miss_cycles += load_miss

    def account_loop(self, timing: BlockTiming, trips: int, addrs,
                     last_taken: bool = False) -> Optional[str]:
        """Charge *trips* back-to-back executions of one loop block.

        The definition: exactly what *trips* sequential
        :meth:`account_block` calls would charge, trip ``t`` over the
        per-trip slice ``addrs[t*m:(t+1)*m]`` (``m`` = the block's
        memory rows), every trip taken but the last, whose outcome is
        *last_taken*.  *addrs* is the window's trip-major address
        stream, a list or an int64 array.  This is the one place a
        loop's timing is replayed: the fast engine's scalar self-loop
        windows (:class:`~repro.system.machine.Machine`) and its
        fragment kernels (:mod:`repro.interp.macro`) both come here.

        The fast path replays the same operations in the same order,
        batched per cache (I- and D-cache are separate structures, so
        only the order within each matters):

        * the D-cache charges the whole stream with
          :meth:`~repro.memory.cache.Cache.access_stream`;
        * a fetched block (``fetch_mode == 1``) whose lines are all
          resident hits on every fetch of the window, charged at once
          with :meth:`~repro.memory.cache.Cache.repeat_hits`.  Cold
          lines are brought in by charging the first trip with
          :meth:`account_block`;
        * the hazard, fetch-hit and back-branch replay runs in the
          block's compiled loop closure
          (:func:`repro.codegen.superblock.emit_loop_timing`), built on
          the block's first window.  It is handed the trips in which a
          load misses (or straddles two lines), and jumps over the
          steady state of the all-hit runs between them.

        Anywhere the fast path does not apply, the definition runs
        instead.  Returns None after the fast path, else that reason:
        ``"not-branch"`` (the terminator is not a branch),
        ``"fetch-mode"`` (``fetch_mode == 2``: fetches may straddle
        lines) or ``"icache-conflict"`` (the block's lines evict each
        other, so they are not all resident even after one trip).
        """
        stream = timing.loop_stream
        if stream is None:
            stream = self._prepare_loop(timing)
        n_mem, nbytes, writes, fetch_lines = stream
        reason = None
        if timing.term != 1:
            reason = "not-branch"
        elif timing.fetch_mode == 2:
            reason = "fetch-mode"
        elif timing.fetch_mode == 1 \
                and not self.icache.lines_resident(fetch_lines):
            self.account_block(timing, _int_list(addrs[:n_mem]),
                               trips > 1 or last_taken)
            trips -= 1
            if not trips:
                return None
            addrs = addrs[n_mem:]
            if not self.icache.lines_resident(fetch_lines):
                reason = "icache-conflict"
        if reason is not None:
            addrs = _int_list(addrs)
            account_block = self.account_block
            last = trips - 1
            for trip in range(trips):
                start = trip * n_mem
                account_block(timing, addrs[start:start + n_mem],
                              trip != last or last_taken)
            return reason
        lats = None
        misses = [trips]
        if n_mem:
            lat = self.dcache.access_stream(
                addrs, np.tile(nbytes, trips), np.tile(writes, trips))
            # Trips where a load does not take the plain hit latency (a
            # straddling load's two-line hit counts too).
            loads = lat.reshape(trips, n_mem)[:, ~writes]
            misses = np.flatnonzero(
                (loads != self._dcache_hit).any(axis=1)).tolist() + misses
            lats = lat.tolist()
        if timing.fetch_mode == 1:
            self.icache.repeat_hits(fetch_lines, trips)
        timing.loop_compiled(self, trips, lats, last_taken, misses)
        return None

    def _prepare_loop(self, timing: BlockTiming) -> tuple:
        """Fill ``timing.loop_stream`` (and compile ``loop_compiled``)
        on the block's first :meth:`account_loop` window."""
        mem_rows = [row for row in timing.rows if row[6]]
        stream = (len(mem_rows),
                  np.asarray([row[7] for row in mem_rows], dtype=np.int64),
                  np.asarray([row[6] == 2 for row in mem_rows], dtype=bool),
                  tuple(row[0] for row in timing.rows))
        timing.loop_stream = stream
        if timing.term == 1 and timing.fetch_mode != 2:
            # Imported here: the codegen layer imports this module.
            from repro.codegen.superblock import emit_loop_timing
            config = self.config
            timing.loop_compiled = emit_loop_timing(
                timing,
                icache_hit=config.icache.hit_latency,
                dcache_hit=config.dcache.hit_latency,
                mispredict_penalty=config.mispredict_penalty)
        return stream

    # -- helpers --------------------------------------------------------------------------

    def fetch_profile(self):
        """(direct, code_base, line_bytes): how PCs map to icache fetches.

        The superblock decode pass uses this to pre-compute each row's
        ``fetch_key`` with the same addressing :meth:`account` applies.
        """
        return self._ifetch_direct, self._code_base, self._iline_bytes
