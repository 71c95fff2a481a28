"""Property tests: the window prologue's arithmetic vs. a trip-by-trip count.

A self-loop's window closure (``repro.codegen.superblock
.emit_fused_block``) lowers its trip budget ``n`` once per window, then
runs that many trips without per-trip tests.  Three helpers do the
arithmetic, and each must return exactly what walking the trips one by
one returns:

* ``safe_trips(first, slope, n, hi, guards)``: the leading trips whose
  address ``first + t * slope`` lies in ``[0, hi]`` and in no open
  interval of *guards* (a store's read-only ranges);
* ``exit_trips(cond, value, step, bound, n)``: the trips up to and
  including the first whose compare of ``value + t * step`` with
  *bound* fails *cond*, so ``b<cond>`` falls through;
* ``no_wrap_trips(value, step, n)``: the leading trips whose induction
  update ``value + (t + 1) * step`` stays in the i32 range.

Operands range over ±2^31 and the i32 edges, with zero, unit and large
slopes and steps of either sign, size limits at the edge, and read-only
intervals that a large stride jumps over or lands in.  The trip-by-trip
count walks at most ``CAP`` trips; a result beyond that is checked at
its own end (the trip it stops at fails, the one before passes).
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.codegen.superblock import exit_trips, no_wrap_trips, safe_trips

I32_MIN = -(1 << 31)
I32_MAX = (1 << 31) - 1
CAP = 3000

CONDITIONS = ("eq", "ne", "lt", "le", "gt", "ge")
_HOLDS = {
    "eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b, "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b, "ge": lambda a, b: a >= b,
}

wide = st.integers(-(1 << 31), 1 << 31)
edges = st.sampled_from((I32_MIN, I32_MIN + 1, -1, 0, 1, I32_MAX - 1,
                         I32_MAX))
trip_counts = st.one_of(st.integers(0, 80), st.integers(0, 1 << 31),
                        st.sampled_from((CAP - 1, CAP, CAP + 1)))
strides = st.one_of(st.sampled_from((0, 1, -1, 2, -2, 4, -4)),
                    st.integers(-64, 64), wide)


def _walk(passes, n):
    """Leading trips, at most min(n, CAP), for which *passes* holds."""
    for t in range(min(n, CAP)):
        if not passes(t):
            return t
    return min(n, CAP)


def _check_count(result, n, passes):
    """*result* is the count of leading trips, at most *n*, that pass."""
    assert 0 <= result <= n
    assert min(result, CAP) == _walk(passes, n)
    if result > CAP:
        assert passes(result - 1)
    if result < n:
        assert not passes(result)


# -- safe_trips ---------------------------------------------------------------


@st.composite
def guard_lists(draw, hi):
    """Open intervals ``(low, end)`` near ``[0, hi]``, as a store of
    *nbytes* bytes sees a read-only range ``[start, end)``: ``low`` is
    ``start - nbytes``."""
    guards = []
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(-8, hi + 8))
        end = start + draw(st.integers(1, 96))
        nbytes = draw(st.sampled_from((1, 2, 4)))
        guards.append((start - nbytes, end))
    return tuple(guards)


@st.composite
def walks(draw):
    hi = draw(st.one_of(st.integers(0, 4096),
                        st.sampled_from((0, 1, 3, (1 << 22) - 4))))
    first = draw(st.one_of(st.integers(-8, hi + 8), wide,
                           st.sampled_from((0, hi, hi + 1, -1))))
    slope = draw(strides)
    guards = draw(guard_lists(hi))
    return first, slope, draw(trip_counts), hi, guards


def _safe_at(first, slope, hi, guards):
    def passes(t):
        a = first + t * slope
        return 0 <= a <= hi and not any(low < a < end
                                        for low, end in guards)
    return passes


@given(walk=walks())
# A stride of 132 jumps over the read-only [96, 128) (a 4-byte store's
# open interval (92, 128)); a stride of 40 from 0 lands in it on trip 3.
@example(walk=(0, 132, 50, 4092, ((92, 128),)))
@example(walk=(0, 40, 50, 4092, ((92, 128),)))
# A downward walk lands in the interval from above, and one jumps it.
@example(walk=(4000, -40, 200, 4092, ((92, 128),)))
@example(walk=(4092, -132, 200, 4092, ((92, 128),)))
# The size limit exactly: the last byte-aligned trips fit, then fail.
@example(walk=(0, 4, 2000, 4092, ()))
@example(walk=(4092, 0, 1 << 31, 4092, ()))
@example(walk=(4093, 0, 5, 4092, ()))
@settings(max_examples=500, deadline=None)
def test_safe_trips_matches_trip_by_trip(walk):
    first, slope, n, hi, guards = walk
    _check_count(safe_trips(first, slope, n, hi, guards), n,
                 _safe_at(first, slope, hi, guards))


def test_safe_trips_jumps_over_and_lands_in_a_read_only_range():
    guards = ((92, 128),)
    # 0, 132, ..., 4092: past the range on every trip, then the size
    # limit.
    assert safe_trips(0, 132, 50, 4092, guards) == 32
    assert safe_trips(0, 40, 50, 4092, guards) == 3     # 120 is inside
    assert safe_trips(4000, -40, 200, 4092, guards) == 97
    assert safe_trips(4092, -132, 200, 4092, guards) == 32
    assert safe_trips(200, 0, 10, 4092, guards) == 10
    assert safe_trips(100, 0, 10, 4092, guards) == 0


# -- exit_trips ---------------------------------------------------------------


@given(cond=st.sampled_from(CONDITIONS),
       value=st.one_of(wide, edges, st.integers(-100, 100)),
       step=strides,
       bound=st.one_of(wide, edges, st.integers(-100, 100)),
       n=trip_counts)
@example(cond="ne", value=0, step=3, bound=1000, n=1 << 31)  # never hit
@example(cond="ne", value=0, step=-4, bound=-4000, n=5000)
@example(cond="lt", value=I32_MAX - 3, step=1, bound=I32_MAX, n=100)
@example(cond="ge", value=I32_MIN + 5, step=-1, bound=I32_MIN, n=100)
@example(cond="eq", value=7, step=0, bound=7, n=1 << 31)
@example(cond="eq", value=7, step=1, bound=7, n=1)
@settings(max_examples=800, deadline=None)
def test_exit_trips_matches_trip_by_trip(cond, value, step, bound, n):
    holds = _HOLDS[cond]
    result = exit_trips(cond, value, step, bound, n)
    # The trips before the exit trip are the leading ones whose branch
    # is taken; the exit trip itself counts.
    taken = min(n, CAP)
    for t in range(min(n, CAP)):
        if not holds(value + t * step, bound):
            taken = t
            break
    assert 0 <= result <= n
    if taken < min(n, CAP):
        assert result == taken + 1
    else:
        assert result >= taken
        # Every trip up to the result's end is taken, and a result short
        # of n ends on the trip that falls through.
        if result < n:
            assert not holds(value + (result - 1) * step, bound)
            assert result < 2 or holds(value + (result - 2) * step, bound)


# -- no_wrap_trips ------------------------------------------------------------


@given(value=st.one_of(st.integers(I32_MIN, I32_MAX), edges,
                       st.integers(I32_MAX - 200, I32_MAX),
                       st.integers(I32_MIN, I32_MIN + 200)),
       step=strides,
       n=trip_counts)
@example(value=I32_MAX, step=1, n=10)
@example(value=I32_MIN, step=-1, n=10)
@example(value=I32_MAX - 16 * 16, step=16, n=100)
@example(value=0, step=0, n=1 << 31)
@settings(max_examples=500, deadline=None)
def test_no_wrap_trips_matches_trip_by_trip(value, step, n):
    def passes(t):
        return I32_MIN <= value + (t + 1) * step <= I32_MAX
    _check_count(no_wrap_trips(value, step, n), n, passes)
