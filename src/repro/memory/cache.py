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

:meth:`Cache.access_stream` charges a whole stream at once, with no
per-access loop: by a vectorized residency probe when nothing can be
evicted, else by each access's LRU stack distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import numpy as np

#: Positions per block of :meth:`Cache._stack_hits`' dominance
#: table, and queries per chunk of its exact counts (bounds the
#: element-wise checks' memory).
_BLOCK = 64
_CHUNK = 256


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
        tick, and the statistics are bulk sums.  A stream that could
        evict (per-set occupancy would exceed the associativity) is
        resolved by LRU stack distance instead (:meth:`_stack_hits`),
        also without a per-line loop.  The eviction-free path stays
        because it is cheaper where it applies;
        :meth:`_access_line_number` remains the per-access reference.
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
        # plus distinct new lines must fit the associativity.  The first
        # set found over it settles the question.
        resident0 = np.empty(len(uniq), dtype=bool)
        new_per_set: Dict[int, int] = {}
        fits = True
        for j, line in enumerate(uniq.tolist()):
            set_index = line % num_sets
            ways = self._stamps[set_index]
            hit = (line // num_sets) in ways
            resident0[j] = hit
            if not hit:
                extra = new_per_set.get(set_index, 0) + 1
                if len(ways) + extra > self._assoc:
                    fits = False
                    break
                new_per_set[set_index] = extra
        if fits:
            first_occurrence = np.zeros(total, dtype=bool)
            first_occurrence[first_idx] = True
            hits = resident0[inverse] | ~first_occurrence
            # State update: every line's final stamp is the tick of its
            # last occurrence; dirty is set iff any occurrence was a write.
            tick0 = self._tick
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
        else:
            hits = self._stack_hits(lines, line_writes)
        self._tick += total
        misses = ~hits
        stats = self.stats
        write_count = int(line_writes.sum())
        stats.reads += total - write_count
        stats.writes += write_count
        stats.read_misses += int((misses & ~line_writes).sum())
        stats.write_misses += int((misses & line_writes).sum())
        return np.where(hits, self._hit_latency, self._miss_latency)

    def _stack_hits(self, lines: np.ndarray,
                    line_writes: np.ndarray) -> np.ndarray:
        """Per-line hit flags of a stream that may evict, by LRU stack
        distance (Mattson et al., IBM Systems Journal, 1970).

        Leaves the stamps, dirty bits and writeback count that calling
        :meth:`_access_line_number` once per line would (the caller
        advances the tick and counts the accesses and misses; the
        property suite pins the whole), with no victim picked one
        access at a time:

        * each touched set's resident lines go in front of the window,
          LRU first, as pseudo-accesses, and the extended stream is
          ordered set-major (stable), so a set's accesses are
          contiguous;
        * an access hits iff its line occurred before and fewer than
          ``assoc`` distinct lines lie strictly between the two
          occurrences.  A gap below ``assoc`` is a certain hit, no
          previous occurrence a certain miss; the rest are counted
          exactly: between positions ``p`` and ``i`` lie
          ``#{q < i : nxt(q) > i} - #{q < p : nxt(q) > i}`` distinct
          lines.  The first term is a prefix count of first
          occurrences, the second a dominance count read from a
          cumulative table over (block of ``q``, block of ``nxt(q)``)
          plus element-wise checks of the two partial blocks;
        * a residency runs from a miss (or a pseudo-access) to the next
          miss of its line.  A dirty one costs a writeback when it ends
          by eviction: a later miss of its line, or its line falling
          out of the set's ``assoc`` most recent lines by the end.
        """
        num_sets = self._num_sets
        assoc = self._assoc
        stamps = self._stamps
        dirty_sets = self._dirty
        total = int(lines.shape[0])
        touched = np.flatnonzero(np.bincount(lines % num_sets)).tolist()
        pre_lines: List[int] = []
        pre_stamps: List[int] = []
        pre_dirty: List[bool] = []
        for set_index in touched:
            ways = stamps[set_index]
            dirty = dirty_sets[set_index]
            for tag in sorted(ways, key=ways.__getitem__):
                pre_lines.append(tag * num_sets + set_index)
                pre_stamps.append(ways[tag])
                pre_dirty.append(tag in dirty)
        n_pre = len(pre_lines)
        size = n_pre + total
        ext = np.concatenate((np.asarray(pre_lines, dtype=np.int64), lines))
        order = np.argsort(ext % num_sets, kind="stable")
        seq = ext[order]
        rank = np.empty(size, dtype=np.int64)
        rank[order] = np.arange(size, dtype=np.int64)
        # Occurrences of each line, grouped, in stream order.
        by_line = np.argsort(seq, kind="stable")
        same = seq[by_line[1:]] == seq[by_line[:-1]]
        earlier = by_line[:-1][same]
        later = by_line[1:][same]
        # Blocks of 64 positions; wider past 16,384 positions, so the
        # table stays within 257 x 258 entries.
        block = max(_BLOCK, -(-size // 256))
        blocks = -(-size // block)
        padded = blocks * block
        prev = np.full(padded, -1, dtype=np.int64)
        prev[later] = earlier
        nxt = np.full(padded, padded, dtype=np.int64)  # none: block `blocks`
        nxt[earlier] = later

        pos = rank[n_pre:]
        hit = np.zeros(total, dtype=bool)
        back = prev[pos]
        seen = back >= 0
        hit[seen] = pos[seen] - back[seen] <= assoc
        unsure = np.flatnonzero(seen & ~hit)
        if len(unsure):
            firsts = np.cumsum(prev[:size] < 0)
            cols = blocks + 1
            counts = np.bincount(
                np.arange(size, dtype=np.int64) // block * cols
                + nxt[:size] // block,
                minlength=blocks * cols).reshape(blocks, cols)
            # beyond[a, b] = #{q in block a : block of nxt(q) > b};
            # table[a, b] sums it over the blocks before a.
            beyond = np.zeros((blocks, cols), dtype=np.int32)
            np.cumsum(counts[:, :0:-1], axis=1, dtype=np.int32,
                      out=beyond[:, -2::-1])
            table = np.zeros((blocks, cols), dtype=np.int32)
            np.cumsum(beyond[:-1], axis=0, dtype=np.int32, out=table[1:])
            offsets = np.arange(block, dtype=np.int64)
            for start in range(0, len(unsure), _CHUNK):
                which = unsure[start:start + _CHUNK]
                i = pos[which]
                p = back[which]
                p_base = p // block * block
                i_base = i // block * block
                between = table[p_base // block, i_base // block]
                col_i = i[:, None]
                # q in p's block, before p, next occurring past i.
                q = p_base[:, None] + offsets
                between += ((q < p[:, None]) & (nxt[q] > col_i)).sum(axis=1)
                # q before p's block whose next occurrence r lies in
                # i's block, past i.
                r = i_base[:, None] + offsets
                q = prev[r]
                between += ((r > col_i) & (q >= 0)
                            & (q < p_base[:, None])).sum(axis=1)
                hit[which] = firsts[i] - 1 - between < assoc

        # Residencies, in line-grouped order: each starts at a
        # pseudo-access or a miss, and is dirty if any of its accesses
        # writes (a pseudo-access: if its line was dirty at entry).
        starts = np.ones(size, dtype=bool)
        starts[pos] = ~hit
        marks = np.empty(size, dtype=bool)
        marks[rank[:n_pre]] = pre_dirty
        marks[pos] = line_writes
        grouped_starts = starts[by_line]
        heads = np.flatnonzero(grouped_starts)
        res_dirty = np.logical_or.reduceat(marks[by_line], heads)
        # A line's last residency is the one its last occurrence is in.
        ends = np.flatnonzero(np.append(~same, True))
        last_pos = by_line[ends]
        res_of_end = np.cumsum(grouped_starts)[ends] - 1
        # Kept at the end iff its last occurrence is among its set's
        # `assoc` most recent last occurrences.
        recency = np.argsort(last_pos)
        ordered_sets = seq[last_pos[recency]] % num_sets
        newer = (np.searchsorted(ordered_sets, ordered_sets, side="right")
                 - 1 - np.arange(len(recency)))
        kept = np.empty(len(recency), dtype=bool)
        kept[recency] = newer < assoc
        evicted = np.ones(len(heads), dtype=bool)
        evicted[res_of_end] = ~kept
        self.stats.writebacks += int((res_dirty & evicted).sum())

        tick0 = self._tick
        for set_index in touched:
            stamps[set_index].clear()
            dirty_sets[set_index].clear()
        source = order[last_pos[kept]]
        for line, at, dirty in zip(seq[last_pos[kept]].tolist(),
                                   source.tolist(),
                                   res_dirty[res_of_end[kept]].tolist()):
            set_index = line % num_sets
            tag = line // num_sets
            stamps[set_index][tag] = (pre_stamps[at] if at < n_pre
                                      else tick0 + at - n_pre + 1)
            if dirty:
                dirty_sets[set_index].add(tag)
        return hit

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
