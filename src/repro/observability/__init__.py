"""Observability: telemetry registry and perf-regression tooling.

Two pieces live here:

* :mod:`repro.observability.telemetry` — a process-wide registry of
  named counters, histograms, and wall-clock spans, threaded through
  the hot subsystems (self-loop fusion, macro-kernel recognition, the
  dynamic translator, the microcode and run caches, and the machine's
  pipeline/cache totals).  Disabled by default via a module-level no-op
  shim, so the fused/macro fast paths pay nothing; ``repro telemetry``
  runs a benchmark with it on and dumps the registry.
* :mod:`repro.observability.benchdiff` — baseline comparison over the
  ``BENCH_*.json`` schema written by ``benchmarks/conftest.py``, the
  engine behind ``repro bench compare`` and CI's perf gate.

See ``docs/observability.md`` for the counter catalog and CLI usage.
"""

from repro.observability.telemetry import (  # noqa: F401
    NullTelemetry,
    Telemetry,
    disable,
    enable,
    get,
    is_enabled,
)
from repro.observability.benchdiff import (  # noqa: F401
    BenchComparison,
    RecordDelta,
    compare_payloads,
    render_comparison,
)
