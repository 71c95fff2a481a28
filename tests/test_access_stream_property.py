"""Property tests: ``Cache.access_stream`` vs. the sequential loop.

:meth:`Cache.access_stream` must return exactly the latencies the
per-access :meth:`Cache.access` loop would, and leave the cache in
exactly the state the loop would — same statistics, same generation
tick, same LRU-ordered residency per set (which pins future victim
choices), same dirty bits.  It has two batch paths: a vectorized
residency probe for streams that cannot evict, and LRU stack distance
for the rest.  This suite drives a geometry that *forces* the stack
path (tiny associativity under address pressure), one where the
eviction-free path always applies (the shipped 64-way geometry over a
compact footprint), and cyclic sweeps on the shipped geometry at its
associativity boundary, where the stack path's exact distinct count
decides hits; it also checks the stream against the recency-list model
of ``tests/test_cache_lru_property.py``, plus directed edge cases:
empty streams, line-straddling accesses, warm-cache residency, and a
dirty line pushed out without being touched.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.memory.cache import Cache, CacheConfig
from tests.test_cache_lru_property import GEOMETRIES, ListLRUCache


def _drive_pair(config: CacheConfig, warmup, stream) -> None:
    """Warm two caches identically, then batch vs. loop the stream."""
    seq = Cache(config)
    vec = Cache(config)
    for addr, nbytes, is_write in warmup:
        assert seq.access(addr, nbytes, is_write) == \
            vec.access(addr, nbytes, is_write)
    expected = [seq.access(a, n, w) for a, n, w in stream]
    got = vec.access_stream([a for a, _, _ in stream],
                            [n for _, n, _ in stream],
                            [w for _, _, w in stream])
    assert got.tolist() == expected
    assert vec.stats.to_dict() == seq.stats.to_dict()
    # The generation tick and per-set stamp *ordering* must match too:
    # they decide every future eviction, so equality here means the two
    # caches stay interchangeable for the rest of a run.
    assert vec._tick == seq._tick
    for set_index in range(config.num_sets):
        assert vec.resident(set_index) == seq.resident(set_index), \
            f"set {set_index} residency diverged"
        assert vec._dirty[set_index] == seq._dirty[set_index], \
            f"set {set_index} dirty bits diverged"


def _random_stream(rng: random.Random, config: CacheConfig, length: int,
                   span: int):
    stream = []
    for _ in range(length):
        addr = rng.randrange(span)
        nbytes = rng.choice((1, 2, 4, 8, config.line_bytes,
                             config.line_bytes * 2))
        stream.append((addr, nbytes, rng.random() < 0.4))
    return stream


TINY_GEOMETRIES = st.tuples(
    st.sampled_from((1, 2)),              # assoc: evictions guaranteed
    st.sampled_from((16, 32)),            # line_bytes
    st.sampled_from((2, 4, 8)),           # num_sets
)


@given(geometry=TINY_GEOMETRIES, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_stream_matches_loop_with_evictions(geometry, seed):
    """Address pressure on tiny sets: the stack-distance path."""
    assoc, line_bytes, num_sets = geometry
    config = CacheConfig(size_bytes=assoc * line_bytes * num_sets,
                         assoc=assoc, line_bytes=line_bytes,
                         hit_latency=1, miss_penalty=30)
    rng = random.Random(seed)
    span = config.size_bytes * 3
    warmup = _random_stream(rng, config, 40, span)
    stream = _random_stream(rng, config, 120, span)
    _drive_pair(config, warmup, stream)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_stream_matches_loop_eviction_free(seed):
    """The shipped 64-way geometry over a footprint it can fully hold:
    per-set occupancy never exceeds the associativity, so the batched
    call resolves on the vectorized fast path."""
    config = CacheConfig()  # 16 KB, 64-way, 32 B lines
    rng = random.Random(seed)
    span = config.size_bytes // 2  # fits: at most num_sets*assoc lines
    warmup = _random_stream(rng, config, 60, span)
    stream = _random_stream(rng, config, 200, span)
    _drive_pair(config, warmup, stream)


def test_empty_stream_is_a_no_op():
    cache = Cache(CacheConfig())
    out = cache.access_stream([], [], [])
    assert out.shape == (0,)
    assert cache.stats.accesses == 0
    assert cache._tick == 0


def test_straddling_access_charges_per_line():
    """A 64-byte access over 32-byte lines costs two line accesses, and
    the batched per-access latency is their sum — same as access()."""
    config = CacheConfig(size_bytes=4 * 1024, assoc=4, line_bytes=32,
                         hit_latency=1, miss_penalty=30)
    _drive_pair(config, [], [(16, 64, False), (16, 64, False),
                             (40, 8, True)])


def test_fast_path_taken_when_eviction_free():
    """Directed: on a warm eviction-free stream the vectorized path must
    answer without ever replaying single-line accesses."""
    config = CacheConfig(size_bytes=1024, assoc=8, line_bytes=32)
    cache = Cache(config)
    stream = [(i * 4, 4, i % 3 == 0) for i in range(64)]
    for addr, nbytes, is_write in stream:
        cache.access(addr, nbytes, is_write)

    def boom(line_number, is_write):  # pragma: no cover - fails the test
        raise AssertionError("fast path should not replay per line")

    cache._access_line_number = boom
    lat = cache.access_stream([a for a, _, _ in stream],
                              [n for _, n, _ in stream],
                              [w for _, _, w in stream])
    # Everything is resident after the warmup loop: all hits.
    assert lat.tolist() == [config.hit_latency] * len(stream)


def _boundary_stream(rng: random.Random, config: CacheConfig, delta: int,
                     passes: int, base_line: int):
    """Cyclic sweeps over ``assoc + delta`` lines per set, with random
    writes, widths and short re-touches, so re-touch distances sit at
    the associativity and the exact distinct count decides them."""
    per_set = config.assoc + delta
    footprint = [base_line + i for i in range(per_set * config.num_sets)]
    stream = []
    for _ in range(passes):
        for line in footprint:
            addr = line * config.line_bytes + rng.randrange(config.line_bytes)
            stream.append((addr, rng.choice((1, 4, 4, 8)),
                           rng.random() < 0.3))
            if rng.random() < 0.05:
                # An extra touch of a random footprint line moves the
                # gaps around it by one.
                back = rng.choice(footprint)
                stream.append((back * config.line_bytes, 4,
                               rng.random() < 0.5))
    return stream


@given(delta=st.integers(-2, 3), seed=st.integers(0, 2**32 - 1),
       passes=st.integers(1, 3), shift=st.integers(0, 7))
@settings(max_examples=30, deadline=None)
def test_stream_matches_loop_at_the_associativity_boundary(
        delta, seed, passes, shift):
    """The shipped 64-way geometry, swept cyclically over ``assoc +
    delta`` lines per set after a warm-up that leaves dirty lines
    resident: a gap of ``assoc`` or more distinct lines is a miss, one
    below is a hit, and dirty lines pushed out write back."""
    config = CacheConfig()
    rng = random.Random(seed)
    warmup = _boundary_stream(rng, config, rng.randint(-2, 0), 1, shift)
    stream = _boundary_stream(rng, config, delta, passes, 0)
    _drive_pair(config, warmup, stream)


def test_long_stream_matches_loop():
    """A stream past 16,384 lines, where the stack path widens its
    table's blocks, over a footprint small enough that most re-touch
    gaps need the exact distinct count."""
    config = CacheConfig(size_bytes=8 * 32, assoc=4, line_bytes=32,
                         hit_latency=1, miss_penalty=30)
    rng = random.Random(7)
    stream = [(rng.randrange(24) * 32, 4, rng.random() < 0.3)
              for _ in range(20_000)]
    _drive_pair(config, _random_stream(rng, config, 20, 24 * 32), stream)


def test_untouched_dirty_line_pushed_out_writes_back():
    """A dirty line resident on entry that the window never touches,
    but whose set it pushes out, costs its writeback."""
    config = CacheConfig(size_bytes=4 * 32, assoc=4, line_bytes=32)
    assert config.num_sets == 1
    warmup = [(0, 4, True), (32, 4, False), (64, 4, True), (96, 4, False)]
    stream = [(96, 4, False), (128, 4, False), (160, 4, True),
              (128, 4, False), (192, 4, False)]
    _drive_pair(config, warmup, stream)
    cache = Cache(config)
    for addr, nbytes, is_write in warmup:
        cache.access(addr, nbytes, is_write)
    cache.access_stream([a for a, _, _ in stream],
                        [n for _, n, _ in stream],
                        [w for _, _, w in stream])
    assert cache.stats.writebacks == 2   # lines 0 and 2, never touched
    assert cache.resident(0) == (3, 5, 4, 6)


@given(geometry=GEOMETRIES, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_stream_matches_list_lru_model(geometry, seed):
    """``access_stream`` against the independent recency-list model of
    ``tests/test_cache_lru_property.py``: latencies, counters and the
    LRU-ordered residency of every set."""
    assoc, line_bytes, num_sets = geometry
    config = CacheConfig(size_bytes=assoc * line_bytes * num_sets,
                         assoc=assoc, line_bytes=line_bytes,
                         hit_latency=1, miss_penalty=30)
    rng = random.Random(seed)
    span = config.size_bytes * 3
    model = ListLRUCache(config)
    cache = Cache(config)
    for _ in range(3):
        stream = _random_stream(rng, config, 150, span)
        expected = [model.access(a, n, w) for a, n, w in stream]
        got = cache.access_stream([a for a, _, _ in stream],
                                  [n for _, n, _ in stream],
                                  [w for _, _, w in stream])
        assert got.tolist() == expected
    stats = cache.stats
    assert (stats.reads, stats.writes, stats.read_misses,
            stats.write_misses, stats.writebacks) == (
        model.reads, model.writes, model.read_misses, model.write_misses,
        model.writebacks)
    for set_index in range(config.num_sets):
        assert cache.resident(set_index) == model.resident(set_index)
