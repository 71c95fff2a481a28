"""Property tests: ``PipelineModel.account_loop`` vs. its definition.

``account_loop(timing, trips, addrs, last_taken)`` is defined as
*trips* sequential ``account_block`` calls on per-trip slices of the
trip-major address stream, every trip taken but the last.  Its fast
path batches both caches (``Cache.access_stream`` on the D-cache,
``Cache.repeat_hits`` on the I-cache) and replays hazards and the
back-branch in a compiled closure, which jumps over the steady state
of all-hit trips; its fallbacks run the definition.
Either way the pipeline must end in exactly the state the definition
leaves: hazard map, issue/fetch/completion times, statistics, both
caches' stamps, dirty bits, ticks and counters, and the predictor's
counters.  The generator covers every row kind (ALU, load, store;
register and flag reads and writes), all three fetch modes, caches
that evict and lines that conflict, warm state, every predictor
counter, backward and forward targets, and both last-trip outcomes.
Long windows over a small footprint add long all-hit runs, with ready
times and ``last_completion`` far ahead of ``issue``, straddling loads
and miss trips inside a run and on the last trip.

The same file pins the generalized ``Cache.repeat_hits`` (passes over a
resident line sequence) against the per-access path.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.memory.cache import Cache, CacheConfig
from repro.pipeline.core import BlockTiming, PipelineConfig, PipelineModel

REGS = ("r0", "r1", "r2", "r3", "f0")
FLAGS = "<flags>"


def _random_rows(rng: random.Random, n_rows: int, fetch_key):
    """*n_rows* straight-line rows plus a closing branch row."""
    rows = []
    for i in range(n_rows):
        mem_kind = rng.choice((0, 0, 1, 2))
        rows.append((
            fetch_key(i),
            tuple(rng.sample(REGS, rng.randint(0, 2))),
            rng.random() < 0.2,
            tuple(rng.sample(REGS, rng.randint(0, 1))) if mem_kind != 2
            else (),
            rng.random() < 0.2,
            rng.choice((1, 1, 2, 3, 12)),
            mem_kind,
            rng.choice((1, 2, 4, 4, 8, 16)) if mem_kind else 4,
        ))
    rows.append((fetch_key(n_rows), (), rng.random() < 0.8, (), False,
                 1, 0, 4))
    return tuple(rows)


def _warm(pipe: PipelineModel, rng: random.Random, code_lines) -> None:
    """Identical warm state for any pipeline given the same *rng* seed."""
    for _ in range(rng.randint(0, 40)):
        pipe.dcache.access(rng.randrange(4096), rng.choice((1, 4, 8)),
                           rng.random() < 0.4)
    for _ in range(rng.randint(0, 12)):
        pipe.icache._access_line_number(rng.choice(code_lines), False)
    for reg in rng.sample(REGS + (FLAGS,), rng.randint(0, 6)):
        pipe._reg_ready[reg] = rng.randint(0, 40)
    pipe._last_issue = rng.randint(0, 30)
    pipe._fetch_ready = pipe._last_issue + rng.randint(0, 4)
    pipe._last_completion = pipe._last_issue + rng.randint(0, 12)


def _cache_state(cache: Cache):
    return (cache.stats.to_dict(), cache._tick,
            [dict(ways) for ways in cache._stamps],
            [set(dirty) for dirty in cache._dirty])


def _pipeline_state(pipe: PipelineModel):
    return (pipe._reg_ready, pipe._last_issue, pipe._fetch_ready,
            pipe._last_completion, pipe.stats.to_dict(),
            _cache_state(pipe.icache), _cache_state(pipe.dcache),
            list(pipe.predictor._counters))


ICACHES = (
    CacheConfig(),                                        # holds any loop
    CacheConfig(size_bytes=128, assoc=1, line_bytes=32),  # lines conflict
    CacheConfig(size_bytes=256, assoc=2, line_bytes=16),
    # Slower hits: every fetch is ready hit_latency - 1 cycles late, so
    # a row issues later than one cycle after the row before it.
    CacheConfig(hit_latency=2),
    CacheConfig(size_bytes=256, assoc=2, line_bytes=16, hit_latency=3),
)
DCACHES = (
    CacheConfig(),
    CacheConfig(size_bytes=128, assoc=2, line_bytes=16),  # evicts
    # Slower hits: a load completes no earlier than hit_latency cycles
    # after it issues.
    CacheConfig(hit_latency=2),
    CacheConfig(size_bytes=128, assoc=2, line_bytes=16, hit_latency=3),
)


@given(seed=st.integers(0, 2**32 - 1),
       fetch_mode=st.sampled_from((0, 1, 2)),
       term=st.sampled_from((1, 1, 1, 0, 2)),
       trips=st.integers(1, 64),
       counter=st.integers(0, 3),
       last_taken=st.booleans(),
       forward=st.booleans(),
       as_array=st.booleans(),
       icache=st.sampled_from(ICACHES),
       dcache=st.sampled_from(DCACHES))
@settings(max_examples=200, deadline=None)
def test_account_loop_matches_sequential_blocks(
        seed, fetch_mode, term, trips, counter, last_taken, forward,
        as_array, icache, dcache):
    rng = random.Random(seed)
    code_base = 0x1002 if fetch_mode == 2 else 0x1000
    config = PipelineConfig(icache=icache, dcache=dcache,
                            code_base=code_base)
    seq = PipelineModel(config)
    fast = PipelineModel(config)
    direct, base, line_bytes = seq.fetch_profile()
    assert direct == (fetch_mode != 2)

    entry = rng.randrange(0, 64)

    def fetch_key(i):
        addr = base + (entry + i) * 4
        return {0: 0, 1: addr // line_bytes, 2: addr}[fetch_mode]

    rows = _random_rows(rng, rng.randint(0, 24), fetch_key)
    branch_pc = entry + len(rows) - 1
    branch_target = branch_pc + 3 if forward else entry
    simd = rng.randint(0, 2)

    def timing():
        return BlockTiming(rows, len(rows), simd, fetch_mode, term,
                           branch_pc if term == 1 else 0,
                           branch_target if term == 1 else 0)

    code_lines = sorted({(base + (entry + i) * 4) // icache.line_bytes
                         for i in range(len(rows))})
    warm_seed = rng.randrange(2**32)
    for pipe in (seq, fast):
        _warm(pipe, random.Random(warm_seed), code_lines)
        pipe.predictor.set_counter(branch_pc, counter)
    n_mem = sum(1 for row in rows if row[6])
    addrs = [rng.randrange(4096) for _ in range(trips * n_mem)]

    seq_timing = timing()
    for t in range(trips):
        seq.account_block(seq_timing, addrs[t * n_mem:(t + 1) * n_mem],
                          t != trips - 1 or last_taken)
    reason = fast.account_loop(
        timing(), trips,
        np.asarray(addrs, dtype=np.int64) if as_array else list(addrs),
        last_taken)

    assert _pipeline_state(fast) == _pipeline_state(seq)
    if term != 1:
        assert reason == "not-branch"
    elif fetch_mode == 2:
        assert reason == "fetch-mode"
    elif fetch_mode == 0 or icache == CacheConfig():
        assert reason is None


def test_account_loop_reuses_its_compiled_replay():
    """The loop closure is compiled on the block's first window and
    reused by later ones; repeated windows stay exact."""
    config = PipelineConfig()
    seq, fast = PipelineModel(config), PipelineModel(config)
    rows = ((128, ("r1",), False, ("r2",), False, 1, 1, 4),
            (128, ("r2",), False, ("r3",), True, 3, 0, 4),
            (128, ("r3", "r1"), False, (), False, 1, 2, 4),
            (129, (), True, (), False, 1, 0, 4))
    seq_timing = BlockTiming(rows, 4, 0, 1, 1, 11, 8)
    fast_timing = BlockTiming(rows, 4, 0, 1, 1, 11, 8)
    addr = 0
    for trips in (5, 1, 300, 2):
        addrs = []
        for _ in range(trips):
            addrs += [0x2000 + addr, 0x3000 + addr]
            addr += 4
        for t in range(trips):
            seq.account_block(seq_timing, addrs[2 * t:2 * t + 2],
                              t != trips - 1)
        assert fast.account_loop(fast_timing, trips, addrs) is None
        compiled = fast_timing.loop_compiled
        assert compiled is not None
        assert _pipeline_state(fast) == _pipeline_state(seq)
    assert fast_timing.loop_compiled is compiled


@given(seed=st.integers(0, 2**32 - 1), passes=st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_repeat_hits_matches_per_access_path(seed, passes):
    """``repeat_hits(lines, passes)`` over resident lines equals
    ``passes * len(lines)`` per-access reads, state included."""
    rng = random.Random(seed)
    config = CacheConfig(size_bytes=1024, assoc=4, line_bytes=32)
    seq, bulk = Cache(config), Cache(config)
    resident = sorted({rng.randrange(64) for _ in range(12)})
    warmup = [rng.choice(resident) for _ in range(40)] + resident
    for line in warmup:
        is_write = rng.random() < 0.3
        seq._access_line_number(line, is_write)
        bulk._access_line_number(line, is_write)
    live = [line for line in resident
            if line // config.num_sets in seq._stamps[line % config.num_sets]]
    lines = [rng.choice(live) for _ in range(rng.randint(1, 20))]
    assert bulk.lines_resident(lines)
    for _ in range(passes):
        for line in lines:
            assert seq._access_line_number(line, False) == config.hit_latency
    bulk.repeat_hits(lines, passes)
    assert _cache_state(bulk) == _cache_state(seq)


def test_repeat_hits_single_line_batch():
    """One resident line hit several times in a row."""
    seq, bulk = Cache(CacheConfig()), Cache(CacheConfig())
    for cache in (seq, bulk):
        cache._access_line_number(7, False)
        cache._access_line_number(9, True)
    for _ in range(5):
        seq._access_line_number(7, False)
    bulk.repeat_hits((7,), 5)
    assert _cache_state(bulk) == _cache_state(seq)


def test_lines_resident_has_no_side_effects():
    cache = Cache(CacheConfig(size_bytes=128, assoc=1, line_bytes=32))
    cache._access_line_number(0, False)
    before = _cache_state(cache)
    assert cache.lines_resident([0, 0])
    assert not cache.lines_resident([0, 4])   # 4 maps to set 0 too
    assert not cache.lines_resident([1])
    assert _cache_state(cache) == before


@given(seed=st.integers(0, 2**32 - 1),
       fetch_mode=st.sampled_from((0, 1)),
       trips=st.integers(200, 3000),
       counter=st.integers(0, 3),
       last_taken=st.booleans(),
       forward=st.booleans(),
       misses=st.sampled_from(("none", "inside", "last", "both")),
       ahead=st.sampled_from((0, 40, 400)))
@settings(max_examples=60, deadline=None)
def test_long_windows_match_sequential_blocks(
        seed, fetch_mode, trips, counter, last_taken, forward, misses,
        ahead):
    """Long windows on the default caches over a small footprint, so
    long runs of all-hit trips occur (the compiled replay jumps over
    their steady state): ready times and ``last_completion`` up to
    *ahead* cycles past ``issue``, straddling loads, and a miss trip
    inside a run, on the last trip, both or neither."""
    rng = random.Random(seed)
    config = PipelineConfig()
    seq = PipelineModel(config)
    fast = PipelineModel(config)
    _, base, line_bytes = seq.fetch_profile()
    entry = rng.randrange(0, 64)

    def fetch_key(i):
        return (base + (entry + i) * 4) // line_bytes if fetch_mode else 0

    rows = _random_rows(rng, rng.randint(1, 12), fetch_key)
    branch_pc = entry + len(rows) - 1
    branch_target = branch_pc + 3 if forward else entry
    mem_rows = [row for row in rows if row[6]]
    # Each memory row cycles over a few lines of a 1 KB footprint; some
    # start two bytes short of a line end, so wide accesses straddle.
    starts = [rng.randrange(1, 32) * 32 - 2 if rng.random() < 0.3
              else rng.randrange(1024) for _ in mem_rows]
    period = rng.choice((1, 2, 4))
    miss_trips = set()
    if misses in ("inside", "both"):
        miss_trips.add(rng.randrange(trips // 3, trips - 1))
    if misses in ("last", "both"):
        miss_trips.add(trips - 1)
    addrs = []
    for t in range(trips):
        for m, start in enumerate(starts):
            if t in miss_trips:
                addrs.append(0x8000 + t * 64 + m * 16)   # a cold line
            else:
                addrs.append(start + (t % period) * 32)

    code_lines = sorted({(base + (entry + i) * 4) // line_bytes
                         for i in range(len(rows))})
    for pipe in (seq, fast):
        wrng = random.Random(seed)
        _warm(pipe, wrng, code_lines)
        for reg in REGS + (FLAGS,):
            if wrng.random() < 0.5:
                pipe._reg_ready[reg] = pipe._last_issue + wrng.randint(
                    0, ahead)
        pipe._last_completion = pipe._last_issue + ahead
        pipe.predictor.set_counter(branch_pc, counter)

    seq_timing = BlockTiming(rows, len(rows), 0, fetch_mode, 1, branch_pc,
                             branch_target)
    n_mem = len(mem_rows)
    for t in range(trips):
        seq.account_block(seq_timing, addrs[t * n_mem:(t + 1) * n_mem],
                          t != trips - 1 or last_taken)
    fast_timing = BlockTiming(rows, len(rows), 0, fetch_mode, 1, branch_pc,
                              branch_target)
    assert fast.account_loop(fast_timing, trips,
                             np.asarray(addrs, dtype=np.int64),
                             last_taken) is None
    assert _pipeline_state(fast) == _pipeline_state(seq)
