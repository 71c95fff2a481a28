"""Set-associative cache timing model.

Models the ARM-926EJ-S caches the paper simulates: 16 KB, 64-way
associative, with true-LRU replacement, write-allocate and write-back
policy.  The cache is a pure *timing* structure — data always lives in
the flat :class:`~repro.memory.memory.Memory`; the cache only decides how
many cycles an access costs and keeps hit/miss/writeback statistics.

Replacement is implemented as **generation-stamp LRU**: every access
bumps a monotonic counter and stamps the touched line with it, and an
eviction removes the minimum-stamp line.  Because stamps are strictly
increasing, the minimum stamp is exactly the least-recently-used line,
so the victim sequence — and therefore every hit/miss/writeback
counter — is identical to a textbook recency-list implementation (the
property suite in ``tests/test_cache_lru_property.py`` checks this
against an independent list-based model).  The win over list-based true
LRU is the hit path: one dict store instead of a recency-list splice,
with the O(assoc) ``min`` scan paid only on evictions (misses on a full
set), which are rare by construction for a cache worth modelling.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Dict, List, Set, Tuple

import numpy as np


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency parameters of one cache."""

    size_bytes: int = 16 * 1024
    assoc: int = 64
    line_bytes: int = 32
    hit_latency: int = 1
    miss_penalty: int = 30  # cycles added on a refill from memory

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.assoc * self.line_bytes)
        if sets <= 0:
            raise ValueError("cache too small for its associativity")
        return sets


@dataclass
class CacheStats:
    """Counters accumulated by a cache over a run."""

    reads: int = 0
    writes: int = 0
    read_misses: int = 0
    write_misses: int = 0
    writebacks: int = 0

    def to_dict(self) -> dict:
        """JSON-safe representation (inverse of :meth:`from_dict`)."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "read_misses": self.read_misses,
            "write_misses": self.write_misses,
            "writebacks": self.writebacks,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CacheStats":
        return cls(
            reads=data["reads"],
            writes=data["writes"],
            read_misses=data["read_misses"],
            write_misses=data["write_misses"],
            writebacks=data["writebacks"],
        )

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """One level of set-associative cache (timing only)."""

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.stats = CacheStats()
        # Geometry is immutable: bind it to plain attributes so the
        # per-access hot path avoids repeated property evaluation.
        self._line_bytes = config.line_bytes
        self._num_sets = config.num_sets
        self._assoc = config.assoc
        self._hit_latency = config.hit_latency
        self._miss_latency = config.hit_latency + config.miss_penalty
        #: per set: tag -> generation stamp of its most recent access.
        self._stamps: List[Dict[int, int]] = [
            dict() for _ in range(config.num_sets)
        ]
        #: per set: tags whose resident line is dirty (write-back state).
        self._dirty: List[Set[int]] = [set() for _ in range(config.num_sets)]
        self._tick = 0

    def reset(self) -> None:
        """Flush all lines and zero the statistics."""
        self.stats = CacheStats()
        self._stamps = [dict() for _ in range(self.config.num_sets)]
        self._dirty = [set() for _ in range(self.config.num_sets)]
        self._tick = 0

    def _locate(self, addr: int):
        line = addr // self._line_bytes
        set_index = line % self._num_sets
        tag = line // self._num_sets
        return set_index, tag

    def access(self, addr: int, nbytes: int = 4, is_write: bool = False) -> int:
        """Access *nbytes* at *addr*; return the access latency in cycles.

        Accesses that straddle a line boundary are charged per line
        touched (vector loads wider than a line touch several lines).
        """
        line_bytes = self._line_bytes
        first = addr // line_bytes
        last = (addr + max(nbytes, 1) - 1) // line_bytes
        if first == last:
            return self._access_line_number(first, is_write)
        cycles = 0
        for line_number in range(first, last + 1):
            cycles += self._access_line_number(line_number, is_write)
        return cycles

    def _access_line(self, addr: int, is_write: bool) -> int:
        return self._access_line_number(addr // self._line_bytes, is_write)

    def _access_line_number(self, line_number: int, is_write: bool) -> int:
        num_sets = self._num_sets
        tag = line_number // num_sets
        set_index = line_number % num_sets
        ways = self._stamps[set_index]
        stats = self.stats
        self._tick = tick = self._tick + 1
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        if tag in ways:
            ways[tag] = tick          # O(1) recency update
            if is_write:
                self._dirty[set_index].add(tag)
            return self._hit_latency
        # Miss: allocate (write-allocate policy), evicting the
        # minimum-stamp — i.e. least-recently-used — resident line.
        if is_write:
            stats.write_misses += 1
        else:
            stats.read_misses += 1
        dirty = self._dirty[set_index]
        if len(ways) >= self._assoc:
            victim = min(ways, key=ways.__getitem__)
            del ways[victim]
            if victim in dirty:
                dirty.remove(victim)
                stats.writebacks += 1
        ways[tag] = tick
        if is_write:
            dirty.add(tag)
        return self._miss_latency

    def access_stream(self, addrs, nbytes, is_writes) -> np.ndarray:
        """Batched :meth:`access`: per-access latencies for a whole stream.

        *addrs*, *nbytes* and *is_writes* are equal-length sequences (or
        numpy arrays) describing one access each; the return value is an
        int64 array where ``out[i]`` equals what
        ``self.access(addrs[i], nbytes[i], is_writes[i])`` would have
        returned when issued sequentially — and the cache ends the call
        in exactly the state (stamps, dirty bits, tick, statistics) the
        sequential loop would have left it in.  The property suite in
        ``tests/test_access_stream_property.py`` pins this equivalence.

        The common case — the whole stream fits its sets without a
        single eviction, which holds for fragment loops streaming a few
        arrays through a 64-way cache — is resolved with vectorized
        numpy probing: hits are "resident at entry OR touched earlier in
        the stream", final stamps land on each line's last occurrence
        tick, and the statistics are bulk sums.  Any stream that could
        evict (per-set occupancy would exceed the associativity) falls
        back to replaying :meth:`_access_line_number` per line, so the
        fast path never has to model victim selection.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        count = int(addrs.shape[0])
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        sizes = np.maximum(np.asarray(nbytes, dtype=np.int64), 1)
        writes = np.asarray(is_writes, dtype=bool)
        line_bytes = self._line_bytes
        first = addrs // line_bytes
        last = (addrs + sizes - 1) // line_bytes
        spans = last - first + 1
        total = int(spans.sum())
        if total == count:
            lines = first
            line_writes = writes
            starts = None
        else:
            # Expand straddling accesses into one entry per line touched.
            starts = np.cumsum(spans) - spans
            lines = first.repeat(spans) + (
                np.arange(total, dtype=np.int64) - starts.repeat(spans))
            line_writes = writes.repeat(spans)

        line_lat = self._stream_lines(lines, line_writes)
        if starts is None:
            return line_lat
        return np.add.reduceat(line_lat, starts)

    def _stream_lines(self, lines: np.ndarray,
                      line_writes: np.ndarray) -> np.ndarray:
        """Per-line latencies for a pre-expanded line-number stream."""
        num_sets = self._num_sets
        total = int(lines.shape[0])
        uniq, first_idx, inverse = np.unique(
            lines, return_index=True, return_inverse=True)

        # Eviction-freedom precondition: for every set, resident lines
        # plus distinct new lines must fit the associativity.
        resident0 = np.empty(len(uniq), dtype=bool)
        new_per_set: Dict[int, int] = {}
        for j, line in enumerate(uniq.tolist()):
            ways = self._stamps[line % num_sets]
            hit = (line // num_sets) in ways
            resident0[j] = hit
            if not hit:
                set_index = line % num_sets
                new_per_set[set_index] = new_per_set.get(set_index, 0) + 1
        fits = all(
            len(self._stamps[s]) + extra <= self._assoc
            for s, extra in new_per_set.items())
        if not fits:
            return self._stream_lines_evicting(lines, line_writes)

        first_occurrence = np.zeros(total, dtype=bool)
        first_occurrence[first_idx] = True
        hits = resident0[inverse] | ~first_occurrence
        misses = ~hits
        stats = self.stats
        write_count = int(line_writes.sum())
        stats.reads += total - write_count
        stats.writes += write_count
        stats.read_misses += int((misses & ~line_writes).sum())
        stats.write_misses += int((misses & line_writes).sum())

        # State update: every line's final stamp is the tick of its last
        # occurrence; dirty is set iff any occurrence was a write.
        tick0 = self._tick
        self._tick = tick0 + total
        last_idx = np.zeros(len(uniq), dtype=np.int64)
        np.maximum.at(last_idx, inverse, np.arange(total, dtype=np.int64))
        written = np.zeros(len(uniq), dtype=bool)
        np.logical_or.at(written, inverse, line_writes)
        for j, line in enumerate(uniq.tolist()):
            set_index = line % num_sets
            tag = line // num_sets
            self._stamps[set_index][tag] = tick0 + int(last_idx[j]) + 1
            if written[j]:
                self._dirty[set_index].add(tag)
        return np.where(hits, self._hit_latency, self._miss_latency)

    def _stream_lines_evicting(self, lines: np.ndarray,
                               line_writes: np.ndarray) -> np.ndarray:
        """Sequential replay of an eviction-bearing line stream.

        Bit-identical to calling :meth:`_access_line_number` once per
        line — same latencies, same victim sequence, same final stamps,
        dirty bits, tick, and statistics (the property suite pins
        this) — but tuned for streams that evict on most accesses,
        which is exactly when the vectorized fast path above bails out
        (e.g. 179.art's 16 KB arrays streaming through 8 sets).  Two
        strength reductions over the naive replay:

        * Victim selection is a per-set **lazy-deletion heap** of
          ``(stamp, tag)`` pairs instead of an O(assoc) ``min`` scan.
          Stamps are strictly increasing and therefore unique, so the
          smallest non-stale heap entry is exactly the line ``min``
          would have picked.  A set's heap is built from its resident
          stamps the first time that set needs a victim; from then on
          every re-stamp pushes a fresh pair and stale pairs are
          popped on sight (their stamp no longer matches the live
          dict), giving O(log assoc) eviction.
        * Statistics and the generation counter accumulate in locals
          and are written back once.
        """
        num_sets = self._num_sets
        assoc = self._assoc
        hit_latency = self._hit_latency
        miss_latency = self._miss_latency
        stamps = self._stamps
        dirty_sets = self._dirty
        tick = self._tick
        reads = writes = read_misses = write_misses = writebacks = 0
        heaps: Dict[int, list] = {}
        total = int(lines.shape[0])
        lat = np.empty(total, dtype=np.int64)
        line_list = lines.tolist()
        write_list = line_writes.tolist()
        for i in range(total):
            line = line_list[i]
            is_write = write_list[i]
            set_index = line % num_sets
            tag = line // num_sets
            ways = stamps[set_index]
            tick += 1
            if is_write:
                writes += 1
            else:
                reads += 1
            heap = heaps.get(set_index)
            if tag in ways:
                ways[tag] = tick
                if heap is not None:
                    heappush(heap, (tick, tag))
                if is_write:
                    dirty_sets[set_index].add(tag)
                lat[i] = hit_latency
                continue
            if is_write:
                write_misses += 1
            else:
                read_misses += 1
            dirty = dirty_sets[set_index]
            if len(ways) >= assoc:
                if heap is None:
                    heap = [(stamp, t) for t, stamp in ways.items()]
                    heapify(heap)
                    heaps[set_index] = heap
                while True:
                    stamp, victim = heappop(heap)
                    if ways.get(victim) == stamp:
                        break
                del ways[victim]
                if victim in dirty:
                    dirty.remove(victim)
                    writebacks += 1
            ways[tag] = tick
            if heap is not None:
                heappush(heap, (tick, tag))
            if is_write:
                dirty.add(tag)
            lat[i] = miss_latency
        self._tick = tick
        stats = self.stats
        stats.reads += reads
        stats.writes += writes
        stats.read_misses += read_misses
        stats.write_misses += write_misses
        stats.writebacks += writebacks
        return lat

    def repeat_hits(self, lines, passes: int) -> None:
        """Account *passes* back-to-back read passes over *lines*.

        *lines* is a sequence of line numbers in access order.  Caller
        contract: every one of them is resident and nothing else
        touches the cache until the passes are over, so every access is
        a hit.  Equivalent to ``passes * len(lines)`` calls of
        :meth:`_access_line_number` — the read counter and the tick
        advance once per access, and each line's stamp lands on the
        tick of its last access — in O(len(lines)).
        ``tests/test_access_stream_property.py`` pins this.

        The compiled block-timing closures
        (:func:`repro.codegen.superblock.emit_block_timing`) batch
        consecutive fetches of one just-accessed line as
        ``repeat_hits((line,), count)``;
        :meth:`~repro.pipeline.core.PipelineModel.account_loop` charges a
        whole window of a loop block's fetches as
        ``repeat_hits(fetch_lines, trips)``.
        """
        per_pass = len(lines)
        tick0 = self._tick
        self._tick = tick0 + per_pass * passes
        base = tick0 + per_pass * (passes - 1) + 1
        num_sets = self._num_sets
        stamps = self._stamps
        for i, line in enumerate(lines):
            stamps[line % num_sets][line // num_sets] = base + i
        self.stats.reads += per_pass * passes

    def lines_resident(self, lines) -> bool:
        """True when every line number in *lines* is resident (no state
        change) — the precondition of :meth:`repeat_hits`."""
        num_sets = self._num_sets
        stamps = self._stamps
        for line in lines:
            if line // num_sets not in stamps[line % num_sets]:
                return False
        return True

    def contains(self, addr: int) -> bool:
        """True when the line holding *addr* is resident (no state change)."""
        set_index, tag = self._locate(addr)
        return tag in self._stamps[set_index]

    def resident(self, set_index: int) -> Tuple[int, ...]:
        """Resident tags of one set, LRU first (introspection for tests)."""
        ways = self._stamps[set_index]
        return tuple(sorted(ways, key=ways.__getitem__))
