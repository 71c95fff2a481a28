"""Sharded sweep execution and incremental re-bench.

A *sweep* is the materialized request set behind the paper's figures:
for every benchmark, the scalar baseline plus one Liquid run per SIMD
width — the values of
:func:`~repro.evaluation.experiments.figure6_requests`.  This module
turns that set into a cache-coherent fleet job:

* **Sharding** — :func:`shard_for_key` hash-partitions the sweep's
  run-cache keys, so ``K`` independent invocations (``repro sweep
  --shard K/N`` in CI matrix jobs or on separate hosts) each simulate a
  **disjoint** slice against a shared cache backend (a common
  ``REPRO_CACHE_DIR`` or a ``repro cache serve`` daemon).  The
  partition is a pure function of the content-addressed key, so every
  shard agrees on the assignment without coordination.
* **Manifests** — each invocation emits a JSON manifest recording, per
  key, the request metadata, the result's cycle count, and the SHA-256
  digest of the canonical cache entry bytes
  (:func:`~repro.evaluation.runcache.entry_payload`), plus provenance
  (simulated here vs. answered warm) and scheduler/cache statistics.
* **Merging** — :func:`merge_sweeps` verifies the shards: well-formed
  manifests of one sweep, full coverage of the expected key set, no key
  simulated by two shards (zero duplicate machine-runs), and
  byte-identical results wherever shards overlap.  The merged manifest
  carries the same per-key digest table as an unsharded run, so
  "sharded == unsharded" is a dict comparison.
* **Incremental re-bench** — ``repro sweep --incremental`` runs the
  same pipeline expecting a warm cache: all keys are probed in one
  ``contains_many`` round-trip and only the misses are simulated, so a
  full figure regeneration after a small change costs exactly the
  delta.  Merged and incremental manifests embed a BENCH-style
  ``speedups`` map, so ``repro bench compare OLD NEW`` gates one sweep
  against another directly.
"""

from __future__ import annotations

import hashlib
import re
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.core.scalarize import check_width
from repro.evaluation.experiments import (
    DEFAULT_WIDTHS,
    EvalContext,
    figure6_requests,
)
from repro.evaluation.runcache import CACHE_FORMAT_VERSION, entry_payload
from repro.evaluation.runner import RunRequest, RunScheduler
from repro.interp.executor import ENGINES
from repro.kernels.suite import BENCHMARK_ORDER

#: ``kind`` field of every sweep manifest; the merge step refuses
#: anything else.
SWEEP_MANIFEST_KIND = "repro-sweep"

_SHARD_SPEC_RE = re.compile(r"^(\d+)/(\d+)$")


class SweepError(ValueError):
    """A sweep invariant failed: bad shard spec, malformed manifest,
    coverage gap, divergent shard results, or duplicate simulation."""


@dataclass(frozen=True)
class ShardSpec:
    """One slice of a sweep: shard *index* (1-based) of *count*."""

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise SweepError(f"shard count must be >= 1, got {self.count}")
        if not 1 <= self.index <= self.count:
            raise SweepError(
                f"shard index must be in 1..{self.count}, got {self.index}")

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


def parse_shard_spec(spec: str) -> ShardSpec:
    """``"K/N"`` -> :class:`ShardSpec` (1-based K, e.g. ``1/2``)."""
    match = _SHARD_SPEC_RE.match(spec.strip())
    if not match:
        raise SweepError(
            f"shard spec must look like K/N (e.g. 1/2), got {spec!r}")
    return ShardSpec(int(match.group(1)), int(match.group(2)))


def shard_for_key(key: str, count: int) -> int:
    """The 1-based shard owning run-cache key *key* among *count*.

    A pure function of the content address, so independent invocations
    partition identically with no coordination; the leading 16 hex
    digits of a SHA-256 are already uniformly distributed, no rehash
    needed.
    """
    return int(key[:16], 16) % count + 1


def _request_meta(request: RunRequest) -> dict:
    accel = request.config.accelerator
    return {
        "benchmark": request.benchmark,
        "program_kind": request.program_kind,
        "width": accel.width if accel is not None else None,
        "repeat_factor": request.repeat_factor,
    }


def sweep_keys(requests: Iterable[RunRequest],
               scheduler: RunScheduler) -> Dict[str, RunRequest]:
    """key -> request for the whole sweep (programs built/encoded once)."""
    return {scheduler.key_for(request): request for request in requests}


def sweep_speedups(entries: Dict[str, dict]) -> Dict[str, float]:
    """BENCH-style ``{"<benchmark>/w<width>": speedup}`` map.

    Derived purely from the manifest's cycle counts (baseline cycles /
    liquid cycles, the Figure 6 quantity), so two merged sweeps can be
    gated against each other with ``repro bench compare``.
    """
    baselines: Dict[str, int] = {}
    liquids: Dict[Tuple[str, int], int] = {}
    for meta in entries.values():
        if meta["program_kind"] == "baseline":
            baselines[meta["benchmark"]] = meta["cycles"]
        elif meta["repeat_factor"] == 1:
            liquids[(meta["benchmark"], meta["width"])] = meta["cycles"]
    speedups = {}
    for (benchmark, width), cycles in liquids.items():
        base = baselines.get(benchmark)
        if base and cycles:
            speedups[f"{benchmark}/w{width}"] = round(base / cycles, 3)
    return speedups


def run_sweep(benchmarks: Sequence[str],
              widths: Iterable[int] = DEFAULT_WIDTHS,
              engine: str = "fast",
              scheduler: Optional[RunScheduler] = None,
              shard: Optional[ShardSpec] = None,
              incremental: bool = False) -> dict:
    """Execute (one shard of) a sweep and return its manifest.

    ``shard`` restricts execution to that hash-slice of the key set;
    ``incremental`` asserts a shared cache is configured and reports
    the warm/delta split (the execution path is identical — the
    scheduler always batch-probes and simulates only misses).
    """
    scheduler = scheduler if scheduler is not None else RunScheduler(jobs=1)
    if shard is not None and scheduler.cache is None:
        raise SweepError("sharded sweeps need a shared cache backend "
                         "(--cache-dir/--cache-url), not --no-cache")
    if incremental and scheduler.cache is None:
        raise SweepError("--incremental needs a cache backend to diff "
                         "against, not --no-cache")

    widths = tuple(widths)
    ctx = EvalContext(benchmarks, engine=engine)
    keys = sweep_keys(figure6_requests(ctx, widths).values(), scheduler)
    selected = keys
    if shard is not None:
        selected = {key: request for key, request in keys.items()
                    if shard_for_key(key, shard.count) == shard.index}

    cache_stats_before = None
    if scheduler.cache is not None:
        s = scheduler.cache.stats
        cache_stats_before = (s.probe_calls, s.probed)
    executed_before = scheduler.stats.executed
    cache_hits_before = scheduler.stats.cache_hits

    start = time.perf_counter()
    results = scheduler.run_many(list(selected.values()))
    wall = time.perf_counter() - start

    entries = {}
    sources = {}
    for key, request in selected.items():
        result = results[request]
        meta = _request_meta(request)
        meta["cycles"] = result.cycles
        meta["digest"] = hashlib.sha256(
            entry_payload(key, result)).hexdigest()
        entries[key] = meta
        sources[key] = scheduler.last_batch.get(request, "memo")

    stats = {
        "machine_runs": scheduler.stats.executed - executed_before,
        "cache_hits": scheduler.stats.cache_hits - cache_hits_before,
        "wall_seconds": round(wall, 6),
    }
    if cache_stats_before is not None:
        s = scheduler.cache.stats
        stats["probe_calls"] = s.probe_calls - cache_stats_before[0]
        stats["probed_keys"] = s.probed - cache_stats_before[1]

    manifest = {
        "kind": SWEEP_MANIFEST_KIND,
        "format_version": CACHE_FORMAT_VERSION,
        "sweep": {
            "benchmarks": list(benchmarks),
            "widths": list(widths),
            "engine": engine,
            "shard": str(shard) if shard is not None else None,
            "incremental": incremental,
        },
        "coverage": {"total_requests": len(keys),
                     "selected": len(selected)},
        "backend": (scheduler.cache.describe()
                    if scheduler.cache is not None
                    else {"backend": "none"}),
        "entries": entries,
        "sources": sources,
        "stats": stats,
    }
    if len(selected) == len(keys):
        # Complete sweeps (unsharded or merged) are directly gateable.
        manifest["speedups"] = sweep_speedups(entries)
    return manifest


def _check_manifest(manifest, label: str) -> None:
    """Refuse anything but a well-formed sweep manifest of this build."""
    kind = manifest.get("kind") if isinstance(manifest, dict) else None
    if kind != SWEEP_MANIFEST_KIND:
        raise SweepError(f"{label}: not a sweep manifest (kind={kind!r})")
    if manifest.get("format_version") != CACHE_FORMAT_VERSION:
        raise SweepError(
            f"{label}: cache format {manifest.get('format_version')!r} "
            f"does not match this build ({CACHE_FORMAT_VERSION})")
    for field in ("sweep", "coverage", "entries", "sources", "stats"):
        if not isinstance(manifest.get(field), dict):
            raise SweepError(f"{label}: {field!r} is not a JSON object")
    sweep = manifest["sweep"]
    benchmarks = sweep.get("benchmarks")
    if not isinstance(benchmarks, list) or \
            not all(name in BENCHMARK_ORDER for name in benchmarks):
        raise SweepError(f"{label}: sweep benchmarks must be a list of "
                         f"suite benchmarks, got {benchmarks!r}")
    widths = sweep.get("widths")
    try:
        if not isinstance(widths, list):
            raise ValueError(f"widths must be a list, got {widths!r}")
        for width in widths:
            check_width(width)
    except ValueError as exc:
        raise SweepError(f"{label}: sweep {exc}") from None
    if sweep.get("engine") not in ENGINES:
        raise SweepError(f"{label}: sweep engine must be one of {ENGINES}, "
                         f"got {sweep.get('engine')!r}")
    for name in ("machine_runs", "cache_hits", "wall_seconds"):
        value = manifest["stats"].get(name, 0)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SweepError(f"{label}: stats {name!r} must be a number, "
                             f"got {value!r}")


def _sweep_params(manifest: dict) -> dict:
    sweep = dict(manifest["sweep"])
    sweep.pop("shard", None)
    sweep.pop("incremental", None)
    return sweep


def merge_sweeps(manifests: Sequence[dict]) -> dict:
    """Merge shard manifests into one, verifying the fleet contract.

    Raises :class:`SweepError` when

    * manifests describe different sweeps (benchmarks/widths/engine),
    * the same key carries different cycles or entry digests in two
      shards (results must be byte-identical),
    * the same key was *simulated* by two shards (the partition must
      make machine-runs disjoint — warm cache hits may repeat),
    * the union of entries does not exactly cover the sweep's expected
      key set.
    """
    if not manifests:
        raise SweepError("nothing to merge")
    for i, manifest in enumerate(manifests):
        _check_manifest(manifest, f"manifest #{i + 1}")
    params = _sweep_params(manifests[0])
    for i, manifest in enumerate(manifests[1:], start=2):
        if _sweep_params(manifest) != params:
            raise SweepError(
                f"manifest #{i} describes a different sweep than #1: "
                f"{_sweep_params(manifest)} != {params}")

    entries: Dict[str, dict] = {}
    sources: Dict[str, str] = {}
    simulated_by: Dict[str, int] = {}
    duplicate_runs = []
    for i, manifest in enumerate(manifests, start=1):
        for key, meta in manifest["entries"].items():
            known = entries.get(key)
            if known is not None and known != meta:
                raise SweepError(
                    f"shard results diverge for key {key[:12]}…: "
                    f"{known} != {meta}")
            entries[key] = meta
            source = manifest["sources"].get(key, "unknown")
            if source == "simulated":
                if key in simulated_by:
                    duplicate_runs.append(key)
                else:
                    simulated_by[key] = i
            if sources.get(key) != "simulated":
                sources[key] = source
    if duplicate_runs:
        raise SweepError(
            f"{len(duplicate_runs)} key(s) simulated by more than one "
            f"shard (expected disjoint slices): "
            + ", ".join(k[:12] + "…" for k in duplicate_runs[:5]))

    ctx = EvalContext(params["benchmarks"], engine=params["engine"])
    expected = sweep_keys(figure6_requests(ctx, params["widths"]).values(),
                          RunScheduler(jobs=1))
    missing = sorted(set(expected) - set(entries))
    unexpected = sorted(set(entries) - set(expected))
    if missing or unexpected:
        raise SweepError(
            f"merged sweep does not cover the expected key set: "
            f"{len(missing)} missing, {len(unexpected)} unexpected "
            f"(of {len(expected)} expected)")

    walls = [m["stats"].get("wall_seconds", 0.0) for m in manifests]
    merged_stats = {
        "machine_runs": sum(m["stats"].get("machine_runs", 0)
                            for m in manifests),
        "cache_hits": sum(m["stats"].get("cache_hits", 0)
                          for m in manifests),
        "wall_seconds": round(sum(walls), 6),
        "max_shard_wall_seconds": round(max(walls), 6) if walls else 0.0,
        "shards_merged": len(manifests),
    }
    merged = {
        "kind": SWEEP_MANIFEST_KIND,
        "format_version": CACHE_FORMAT_VERSION,
        "sweep": dict(params, shard=None, incremental=False),
        "coverage": {
            "total_requests": len(expected),
            "selected": len(entries),
        },
        "backend": manifests[0].get("backend", {"backend": "none"}),
        "entries": entries,
        "sources": sources,
        "stats": merged_stats,
        "speedups": sweep_speedups(entries),
    }
    return merged
