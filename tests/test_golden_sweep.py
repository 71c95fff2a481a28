"""Golden ``repro evaluate --all`` results pinned across commits.

The differential suite proves the engines agree with each other; it
cannot notice a change that moves every engine together (the timing
model, the scalarizer, the translator).  ``benchmarks/GOLDEN_sweep.json``
pins every machine run ``repro evaluate --all`` makes, each run-cache
key with its cycle count and the SHA-256 of its canonical cache entry
bytes (:func:`~repro.evaluation.runcache.entry_payload`), in two parts:

* the deterministic part of a :func:`~repro.evaluation.shard.run_sweep`
  manifest over all 15 benchmarks — Figure 6: the scalar baseline plus
  Liquid runs at widths 2, 4, 8 and 16, 75 machine runs;
* ``evaluate_all``: the other runs ``--all`` prefetches (58) — the
  native-overhead runs (``pretranslate``, ``repeat_factor`` 2), the
  microcode-cache sizes of the CLI's default ``--ucache-benchmark``,
  the software-JIT runs and the translation latencies.  Each entry also
  names the request's non-default ``MachineConfig`` fields.

This module re-runs both uncached with the default engine and requires
the entries to equal the file exactly.  A change that alters any result
must bump ``CACHE_FORMAT_VERSION`` (so no cache serves results computed
under the old semantics) and regenerate the file in the same change,
which makes the drift visible in review::

    PYTHONPATH=src python tests/test_golden_sweep.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.evaluation.cli import EXPERIMENTS, _prefetch_requests, build_parser
from repro.evaluation.experiments import (
    DEFAULT_WIDTHS,
    EvalContext,
    figure6_requests,
)
from repro.evaluation.runcache import CACHE_FORMAT_VERSION, entry_payload
from repro.evaluation.runner import RunScheduler
from repro.evaluation.shard import _request_meta, run_sweep
from repro.kernels.suite import BENCHMARK_ORDER
from repro.system.machine import MachineConfig

GOLDEN = (Path(__file__).resolve().parent.parent
          / "benchmarks" / "GOLDEN_sweep.json")

REGENERATE = "PYTHONPATH=src python tests/test_golden_sweep.py"

#: The manifest fields that are pure functions of the code: provenance,
#: wall times and cache statistics are left out.
GOLDEN_FIELDS = ("kind", "format_version", "sweep", "entries")

#: Runs of ``--all`` outside the Figure 6 sweep (see the module doc).
EVALUATE_ALL_RUNS = 58


def golden_manifest() -> dict:
    """The full sweep, simulated uncached with the default engine."""
    manifest = run_sweep(BENCHMARK_ORDER, DEFAULT_WIDTHS,
                         engine=MachineConfig().engine,
                         scheduler=RunScheduler(jobs=1))
    return {field: manifest[field] for field in GOLDEN_FIELDS}


def _config_fields(config: MachineConfig) -> dict:
    """*config*'s non-default fields (the width stands for the
    accelerator)."""
    default = MachineConfig()
    return {f.name: getattr(config, f.name)
            for f in dataclasses.fields(MachineConfig)
            if f.name != "accelerator"
            and getattr(config, f.name) != getattr(default, f.name)}


def evaluate_all_golden() -> dict:
    """Every run ``repro evaluate --all`` prefetches beyond the Figure 6
    sweep, simulated uncached with the default engine."""
    ucache_benchmark = build_parser().parse_args(["--all"]).ucache_benchmark
    ctx = EvalContext(BENCHMARK_ORDER, engine=MachineConfig().engine)
    figure6 = set(figure6_requests(ctx).values())
    requests = [request for request in dict.fromkeys(
                    _prefetch_requests(ctx, EXPERIMENTS, ucache_benchmark))
                if request not in figure6]
    scheduler = RunScheduler(jobs=1)
    results = scheduler.run_many(requests)
    entries = {}
    for request in requests:
        key = scheduler.key_for(request)
        result = results[request]
        entries[key] = dict(
            _request_meta(request),
            config=_config_fields(request.config),
            cycles=result.cycles,
            digest=hashlib.sha256(entry_payload(key, result)).hexdigest())
    return {"ucache_benchmark": ucache_benchmark, "entries": entries}


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
        if meta["repeat_factor"] != 1:
            where += f" x{meta['repeat_factor']}"
        for name, value in meta.get("config", {}).items():
            where += f" {name}={value}"
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


def _drift_message(what: str, golden: dict, fresh: dict) -> str:
    return (f"{what} drifted from {GOLDEN.name}:\n"
            f"{_drift(golden, fresh)}\n"
            "If the change is intended, bump CACHE_FORMAT_VERSION "
            "(repro/evaluation/runcache.py) so no cache serves the old "
            f"results, then regenerate the file with `{REGENERATE}`.")


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
        len(BENCHMARK_ORDER) * (1 + len(DEFAULT_WIDTHS))
    assert fresh["entries"] == golden["entries"], _drift_message(
        "the sweep's results", golden["entries"], fresh["entries"])


def test_evaluate_all_matches_golden_results():
    golden = _load_golden()["evaluate_all"]
    fresh = evaluate_all_golden()
    assert fresh["ucache_benchmark"] == golden["ucache_benchmark"]
    assert len(fresh["entries"]) == EVALUATE_ALL_RUNS
    assert fresh["entries"] == golden["entries"], _drift_message(
        "the rest of `repro evaluate --all`", golden["entries"],
        fresh["entries"])


if __name__ == "__main__":
    manifest = golden_manifest()
    manifest["evaluate_all"] = evaluate_all_golden()
    GOLDEN.write_text(json.dumps(manifest, indent=1, sort_keys=True)
                      + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
