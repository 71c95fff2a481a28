"""Lightweight counter/timer registry for the simulator's hot subsystems.

One process-wide :class:`Telemetry` instance (or rather its no-op stand-in,
:class:`NullTelemetry`) is reachable through :func:`get`.  Subsystems call
``get().count(...)`` / ``observe(...)`` / ``span(...)`` at *coarse* points
only — per translation attempt, per fused-block compile, per whole-loop
kernel invocation, per run — never per simulated instruction, so the
instrumented build stays within noise of the uninstrumented one.

Disabled (the default) the registry is a module-level no-op shim whose
methods do nothing and allocate nothing; hot call sites additionally gate
on ``get().enabled`` so even the no-op call is skipped where it would
recur per block.  :func:`enable` swaps in a recording instance,
:func:`disable` restores the shim.  Enabling telemetry never changes
simulation results: the differential test in ``tests/test_telemetry.py``
pins cycle counts and run-cache bytes identical either way.

Three primitive kinds:

* **counters** — monotonically increasing named integers
  (``count(name, n)``); `.`-separated names form the catalog in
  ``docs/observability.md`` (e.g. ``turbo.superblock.compiles``,
  ``translate.abort.no-loop``).
* **histograms** — value distributions kept as count/total/min/max
  (``observe(name, value)``), e.g. macro-kernel trip counts and
  microcode-cache occupancy.
* **spans** — wall-clock phases (``with span(name): ...``).  Spans
  nest: entering ``b`` inside ``a`` records under ``a.b``, so the dump
  shows the phase tree without any external correlation.

``to_dict()`` renders the registry as JSON-safe data (the ``repro
telemetry --json`` output), and ``marker()`` / ``delta_since()`` give
cheap per-run attribution on top of process-wide accumulation.  Each
process keeps its own registry: nothing collects the registries of
pool workers.
"""

from __future__ import annotations

import time
from typing import Dict

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "get",
    "enable",
    "disable",
    "is_enabled",
]


class _Span:
    """Context manager timing one phase; reusable, not thread-safe."""

    __slots__ = ("_telemetry", "_name", "_start")

    def __init__(self, telemetry: "Telemetry", name: str) -> None:
        self._telemetry = telemetry
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._telemetry._push(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._start
        self._telemetry._pop(self._name, elapsed)


class _NullSpan:
    """Shared do-nothing span for the disabled registry."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """No-op shim installed while telemetry is disabled.

    Accepts the full :class:`Telemetry` API (the shim-parity test feeds
    both the same call sequence) and records nothing.  ``enabled`` is a
    class attribute so hot sites can branch on one attribute load.
    """

    enabled = False

    def count(self, name: str, n: int = 1) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def record_span(self, name: str, seconds: float) -> None:
        pass

    def marker(self) -> dict:
        return {}

    def delta_since(self, marker: dict) -> dict:
        return {}

    def to_dict(self) -> dict:
        return {"counters": {}, "histograms": {}, "spans": {}}

    def reset(self) -> None:
        pass


class Telemetry:
    """Recording registry: named counters, histograms, wall-clock spans."""

    enabled = True

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        #: name -> [count, total, min, max]
        self.histograms: Dict[str, list] = {}
        #: dotted span path -> [entries, total_seconds]
        self.spans: Dict[str, list] = {}
        self._span_stack: list = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        h = self.histograms.get(name)
        if h is None:
            self.histograms[name] = [1, value, value, value]
        else:
            h[0] += 1
            h[1] += value
            if value < h[2]:
                h[2] = value
            if value > h[3]:
                h[3] = value

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def record_span(self, name: str, seconds: float) -> None:
        """Record a completed phase measured externally (no nesting)."""
        self._accumulate_span(name, seconds)

    def _push(self, name: str) -> None:
        path = (f"{self._span_stack[-1][0]}.{name}"
                if self._span_stack else name)
        self._span_stack.append((path, name))

    def _pop(self, name: str, elapsed: float) -> None:
        path, opened = self._span_stack.pop()
        # Exiting out of order would mis-attribute child time; spans are
        # context managers, so this only fires on API misuse.
        if opened != name:
            raise RuntimeError(
                f"span {name!r} exited while {opened!r} was innermost")
        self._accumulate_span(path, elapsed)

    def _accumulate_span(self, path: str, elapsed: float) -> None:
        s = self.spans.get(path)
        if s is None:
            self.spans[path] = [1, elapsed]
        else:
            s[0] += 1
            s[1] += elapsed

    # -- per-run attribution ----------------------------------------------

    def marker(self) -> dict:
        """Snapshot of counter values, for :meth:`delta_since`."""
        return dict(self.counters)

    def delta_since(self, marker: dict) -> dict:
        """Counters that advanced since *marker* (name -> increment)."""
        get_prev = marker.get
        return {
            name: value - get_prev(name, 0)
            for name, value in self.counters.items()
            if value != get_prev(name, 0)
        }

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe representation (``repro telemetry --json``)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: {"count": h[0], "total": h[1],
                       "min": h[2], "max": h[3]}
                for name, h in sorted(self.histograms.items())
            },
            "spans": {
                path: {"entries": s[0], "seconds": s[1]}
                for path, s in sorted(self.spans.items())
            },
        }

    def reset(self) -> None:
        self.counters.clear()
        self.histograms.clear()
        self.spans.clear()
        self._span_stack.clear()

    # -- rendering ---------------------------------------------------------

    def render_text(self) -> str:
        """Human-readable dump (the default `repro telemetry` output)."""
        lines = ["telemetry"]
        if self.counters:
            lines.append("  counters:")
            width = max(len(n) for n in self.counters)
            for name in sorted(self.counters):
                lines.append(f"    {name:<{width}}  "
                             f"{self.counters[name]:>12,}")
        if self.histograms:
            lines.append("  histograms:")
            for name in sorted(self.histograms):
                count, total, lo, hi = self.histograms[name]
                mean = total / count if count else 0.0
                lines.append(
                    f"    {name}: n={count:,} mean={mean:,.2f} "
                    f"min={lo:,g} max={hi:,g}")
        if self.spans:
            lines.append("  spans:")
            for path in sorted(self.spans):
                entries, seconds = self.spans[path]
                lines.append(
                    f"    {path}: {seconds:.3f}s over {entries:,} "
                    f"entr{'y' if entries == 1 else 'ies'}")
        if len(lines) == 1:
            lines.append("  (empty)")
        return "\n".join(lines)


_NULL = NullTelemetry()
_current = _NULL


def get():
    """The active registry: a :class:`Telemetry` or the no-op shim."""
    return _current


def is_enabled() -> bool:
    return _current.enabled


def enable() -> Telemetry:
    """Install (or return the already-active) recording registry."""
    global _current
    if not _current.enabled:
        _current = Telemetry()
    return _current


def disable() -> None:
    """Restore the no-op shim (recorded data is discarded)."""
    global _current
    _current = _NULL
