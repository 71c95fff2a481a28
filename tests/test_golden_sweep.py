"""Golden Figure 6 results: the paper's width sweep pinned across commits.

The differential suite proves the engines agree with each other; it
cannot notice a change that moves every engine together (the timing
model, the scalarizer, the translator).  ``benchmarks/GOLDEN_sweep.json``
holds the deterministic part of a :func:`~repro.evaluation.shard.run_sweep`
manifest over all 15 benchmarks — the scalar baseline plus Liquid runs at
widths 2, 4, 8 and 16, 75 machine runs — with each run-cache key's cycle
count and the SHA-256 of its canonical cache entry bytes
(:func:`~repro.evaluation.runcache.entry_payload`).

This module re-runs that sweep uncached with the default engine and
requires the entries to equal the file exactly.  A change that alters
any result must bump ``CACHE_FORMAT_VERSION`` (so no cache serves
results computed under the old semantics) and regenerate the file in
the same change, which makes the drift visible in review::

    PYTHONPATH=src python tests/test_golden_sweep.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.evaluation.runcache import CACHE_FORMAT_VERSION
from repro.evaluation.runner import RunScheduler
from repro.evaluation.shard import DEFAULT_SWEEP_WIDTHS, run_sweep
from repro.kernels.suite import BENCHMARK_ORDER
from repro.system.machine import MachineConfig

GOLDEN = (Path(__file__).resolve().parent.parent
          / "benchmarks" / "GOLDEN_sweep.json")

REGENERATE = "PYTHONPATH=src python tests/test_golden_sweep.py"

#: The manifest fields that are pure functions of the code: provenance,
#: wall times and cache statistics are left out.
GOLDEN_FIELDS = ("kind", "format_version", "sweep", "entries")


def golden_manifest() -> dict:
    """The full sweep, simulated uncached with the default engine."""
    manifest = run_sweep(BENCHMARK_ORDER, DEFAULT_SWEEP_WIDTHS,
                         engine=MachineConfig().engine,
                         scheduler=RunScheduler(jobs=1))
    return {field: manifest[field] for field in GOLDEN_FIELDS}


def _load_golden() -> dict:
    with GOLDEN.open(encoding="utf-8") as handle:
        return json.load(handle)


def _drift(golden: dict, fresh: dict) -> str:
    """A few lines naming the runs whose results moved."""
    lines = []
    for key in sorted(set(golden) | set(fresh)):
        old, new = golden.get(key), fresh.get(key)
        if old == new:
            continue
        meta = new or old
        where = (f"{meta['benchmark']} {meta['program_kind']} "
                 f"w{meta['width']}")
        if old is None or new is None:
            lines.append(f"  {where}: key {'added' if old is None else 'gone'}")
        else:
            lines.append(f"  {where}: cycles {old['cycles']} -> "
                         f"{new['cycles']}, digest "
                         f"{'same' if old['digest'] == new['digest'] else 'changed'}")
    shown = lines[:10]
    if len(lines) > len(shown):
        shown.append(f"  ... and {len(lines) - len(shown)} more")
    return "\n".join(shown)


def test_golden_format_version_matches_the_build():
    golden = _load_golden()
    assert golden["format_version"] == CACHE_FORMAT_VERSION, (
        f"{GOLDEN.name} was recorded under cache format "
        f"{golden['format_version']}, this build is {CACHE_FORMAT_VERSION}: "
        f"regenerate it with `{REGENERATE}`")


def test_sweep_matches_golden_results():
    golden = _load_golden()
    fresh = golden_manifest()
    assert fresh["sweep"] == golden["sweep"]
    assert len(fresh["entries"]) == \
        len(BENCHMARK_ORDER) * (1 + len(DEFAULT_SWEEP_WIDTHS))
    assert fresh["entries"] == golden["entries"], (
        f"the sweep's results drifted from {GOLDEN.name}:\n"
        f"{_drift(golden['entries'], fresh['entries'])}\n"
        "If the change is intended, bump CACHE_FORMAT_VERSION "
        "(repro/evaluation/runcache.py) so no cache serves the old "
        f"results, then regenerate the file with `{REGENERATE}`.")


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_manifest(), indent=1, sort_keys=True)
                      + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
