"""Baseline comparison over the ``BENCH_*.json`` benchmark schema.

``benchmarks/conftest.py`` writes every benchmark session's timing
records as::

    {
      "machine":  {platform, python, cpu_count, processor},
      "records":  {<record name>: {...timings..., "speedup": X}, ...},
      "speedups": {<record name>: <derived speedup>, ...}
    }

This module diffs two such payloads on every speedup they carry (the
top-level ``speedups`` map and each record's own ``speedup``; see
:func:`collect_speedups`) and classifies each delta.  A *regression*
is a record whose new speedup fell below ``old * (1 - tolerance)``;
records missing from the new payload are regressions too (a perf gate
that silently stops measuring is worse than one that fails).  Records
only present in the new payload are informational ``added`` rows, so
a record joining or leaving the suite is always reported, never
silently skipped.

``repro bench compare OLD.json NEW.json [--tolerance PCT]`` is the CLI
wrapper; CI's ``bench-smoke`` job runs it against the committed
baselines with a loose tolerance, making perf regressions a red build
instead of a silent drift (see ``docs/observability.md``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Union

__all__ = [
    "RecordDelta",
    "BenchComparison",
    "collect_speedups",
    "compare_payloads",
    "compare_files",
    "render_comparison",
]

#: Default allowed relative slowdown before a record regresses (10%).
DEFAULT_TOLERANCE = 0.10


@dataclass(frozen=True)
class RecordDelta:
    """One record's old-vs-new speedup outcome."""

    name: str
    old: float
    new: float
    #: "ok", "improved", "regression", "missing" (gone from new),
    #: or "added" (new-only, informational).
    status: str

    @property
    def delta_pct(self) -> float:
        """Relative speedup change in percent (new vs. old)."""
        if not self.old:
            return 0.0
        return (self.new - self.old) / self.old * 100.0


@dataclass
class BenchComparison:
    """Every record delta plus the gate verdict."""

    deltas: List[RecordDelta]
    tolerance: float

    @property
    def regressions(self) -> List[RecordDelta]:
        return [d for d in self.deltas
                if d.status in ("regression", "missing")]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "ok": self.ok,
            "records": [
                {"name": d.name, "old": d.old, "new": d.new,
                 "delta_pct": round(d.delta_pct, 2), "status": d.status}
                for d in self.deltas
            ],
        }


def collect_speedups(payload: dict, label: str = "payload"
                     ) -> Dict[str, float]:
    """Every gateable speedup in *payload*, as one map by record name.

    Two sources, merged:

    * the top-level ``speedups`` map (one derived speedup per record);
    * each record's own ``"speedup"`` scalar — same name, same value as
      the flat map when both exist.
    """
    out: Dict[str, float] = {}
    speedups = payload.get("speedups")
    if isinstance(speedups, dict):
        for name, value in speedups.items():
            try:
                out[name] = float(value)
            except (TypeError, ValueError):
                raise ValueError(
                    f"{label}: speedup for {name!r} is not numeric: "
                    f"{value!r}"
                ) from None
    records = payload.get("records")
    if isinstance(records, dict):
        for rname, record in records.items():
            if not isinstance(record, dict):
                continue
            value = record.get("speedup")
            if isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                out[rname] = float(value)
    if not out:
        raise ValueError(f"{label}: no 'speedups' map or per-record "
                         f"speedups — not a BENCH_*.json payload "
                         f"(see benchmarks/conftest.py)")
    return out


def compare_payloads(old: dict, new: dict,
                     tolerance: float = DEFAULT_TOLERANCE
                     ) -> BenchComparison:
    """Diff two BENCH payloads; *tolerance* is a fraction (0.10 = 10%)."""
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    old_speedups = collect_speedups(old, "baseline")
    new_speedups = collect_speedups(new, "candidate")
    deltas: List[RecordDelta] = []
    for name in sorted(set(old_speedups) | set(new_speedups)):
        if name not in new_speedups:
            deltas.append(RecordDelta(name, old_speedups[name], 0.0,
                                      "missing"))
            continue
        if name not in old_speedups:
            deltas.append(RecordDelta(name, 0.0, new_speedups[name],
                                      "added"))
            continue
        old_v, new_v = old_speedups[name], new_speedups[name]
        if new_v < old_v * (1.0 - tolerance):
            status = "regression"
        elif new_v > old_v * (1.0 + tolerance):
            status = "improved"
        else:
            status = "ok"
        deltas.append(RecordDelta(name, old_v, new_v, status))
    return BenchComparison(deltas, tolerance)


def compare_files(old_path: Union[str, Path], new_path: Union[str, Path],
                  tolerance: float = DEFAULT_TOLERANCE) -> BenchComparison:
    """Load and diff two BENCH_*.json files."""
    old = json.loads(Path(old_path).read_text(encoding="utf-8"))
    new = json.loads(Path(new_path).read_text(encoding="utf-8"))
    return compare_payloads(old, new, tolerance)


def render_comparison(comparison: BenchComparison) -> str:
    """Per-record table plus the gate verdict line."""
    lines = [f"{'record':<28}{'old':>9}{'new':>9}{'delta':>9}  status"]
    for d in comparison.deltas:
        old = f"{d.old:.2f}x" if d.status != "added" else "-"
        new = f"{d.new:.2f}x" if d.status != "missing" else "-"
        delta = (f"{d.delta_pct:+.1f}%"
                 if d.status in ("ok", "improved", "regression") else "-")
        lines.append(f"{d.name:<28}{old:>9}{new:>9}{delta:>9}  {d.status}")
    bad = comparison.regressions
    if bad:
        lines.append(
            f"FAIL: {len(bad)} regression{'s' if len(bad) != 1 else ''} "
            f"beyond {comparison.tolerance:.0%} tolerance: "
            + ", ".join(d.name for d in bad))
    else:
        lines.append(f"OK: no regressions beyond "
                     f"{comparison.tolerance:.0%} tolerance "
                     f"({len(comparison.deltas)} records)")
    return "\n".join(lines)
