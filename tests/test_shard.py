"""Sharded sweep + incremental re-bench tests (docs/evaluation-runner.md).

The acceptance properties behind ``repro sweep``:

* the hash partition is deterministic, disjoint, and complete,
* a merged sharded sweep is byte-identical to the unsharded run
  (same per-key entry digests, same speedups) with zero duplicate
  machine-runs,
* ``--incremental`` on a warm cache costs zero machine-runs and one
  probe round-trip,
* the merge step actually rejects malformed manifests, entries unlike
  the requests their keys name, coverage gaps, divergent results, and
  duplicate simulations.
"""

import copy

import pytest

from repro.evaluation.cacheserver import HTTPCacheBackend
from repro.evaluation.experiments import EvalContext, figure6_requests
from repro.evaluation.runcache import RunCache
from repro.evaluation.runner import RunScheduler
from repro.evaluation.shard import (
    SWEEP_MANIFEST_KIND,
    ShardSpec,
    SweepError,
    merge_sweeps,
    parse_shard_spec,
    run_sweep,
    shard_for_key,
    sweep_keys,
)
from repro.evaluation.simserver import SimServer
from repro.observability import telemetry
from repro.system.machine import Machine

BENCHMARKS = ["FIR"]
WIDTHS = (2, 4)


def _scheduler(tmp_path, subdir="cache"):
    return RunScheduler(jobs=1, cache=RunCache(tmp_path / subdir))


def _requests(benchmarks):
    """The sweep's runs: Figure 6's declaration over *benchmarks*."""
    return figure6_requests(EvalContext(benchmarks), WIDTHS).values()


def _sweep(tmp_path, subdir="cache", **kwargs):
    return run_sweep(BENCHMARKS, WIDTHS,
                     scheduler=_scheduler(tmp_path, subdir), **kwargs)


class TestShardSpec:
    def test_parse_roundtrip(self):
        spec = parse_shard_spec("2/3")
        assert spec == ShardSpec(2, 3)
        assert str(spec) == "2/3"

    @pytest.mark.parametrize("bad", ["", "3", "0/2", "3/2", "a/b", "1/0",
                                     "-1/2", "1/2/3"])
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(SweepError):
            parse_shard_spec(bad)

    def test_partition_is_deterministic_disjoint_complete(self, tmp_path):
        keys = sweep_keys(_requests(["FIR", "LU"]), _scheduler(tmp_path))
        for count in (1, 2, 3, 5):
            owners = {key: shard_for_key(key, count) for key in keys}
            # Deterministic: a second assignment pass agrees exactly.
            assert owners == {k: shard_for_key(k, count) for k in keys}
            # Complete and disjoint: every key lands in exactly one
            # 1-based shard.
            assert all(1 <= owner <= count for owner in owners.values())

    def test_keys_are_stable_across_schedulers(self, tmp_path):
        a = sweep_keys(_requests(BENCHMARKS), _scheduler(tmp_path, "a"))
        b = sweep_keys(_requests(BENCHMARKS), _scheduler(tmp_path, "b"))
        assert set(a) == set(b), \
            "content addresses must not depend on the scheduler instance"


class TestShardedSweep:
    def test_sharded_equals_unsharded_byte_identical(self, tmp_path):
        full = _sweep(tmp_path, "full")
        shards = [_sweep(tmp_path, "shared", shard=ShardSpec(i, 2))
                  for i in (1, 2)]
        merged = merge_sweeps(shards)
        assert merged["entries"] == full["entries"], \
            "merged shard digests must be byte-identical to unsharded"
        assert merged["speedups"] == full["speedups"]

    def test_shards_simulate_disjoint_slices(self, tmp_path):
        shards = [_sweep(tmp_path, "shared", shard=ShardSpec(i, 2))
                  for i in (1, 2)]
        simulated = [
            {k for k, src in m["sources"].items() if src == "simulated"}
            for m in shards
        ]
        assert simulated[0] & simulated[1] == set(), \
            "no key may be simulated by two shards"
        total = sum(m["stats"]["machine_runs"] for m in shards)
        assert total == shards[0]["coverage"]["total_requests"], \
            "every machine-run must happen exactly once across the fleet"

    def test_incomplete_sweep_has_no_speedups(self, tmp_path):
        partial = _sweep(tmp_path, shard=ShardSpec(1, 2))
        assert "speedups" not in partial
        assert partial["coverage"]["selected"] < \
            partial["coverage"]["total_requests"]

    def test_shard_requires_cache(self):
        with pytest.raises(SweepError, match="no-cache"):
            run_sweep(BENCHMARKS, WIDTHS, scheduler=RunScheduler(jobs=1),
                      shard=ShardSpec(1, 2))


class TestIncremental:
    def test_warm_incremental_is_zero_machine_runs(self, tmp_path,
                                                   monkeypatch):
        cold = _sweep(tmp_path)
        calls = []
        real_run = Machine.run
        monkeypatch.setattr(
            Machine, "run",
            lambda self, program: calls.append(program.name)
            or real_run(self, program))
        warm = _sweep(tmp_path, incremental=True)
        assert calls == [], f"warm incremental sweep still simulated {calls}"
        assert warm["stats"]["machine_runs"] == 0
        assert warm["stats"]["cache_hits"] == \
            warm["coverage"]["total_requests"]
        assert warm["stats"]["probe_calls"] == 1, \
            "the whole sweep must be probed in one round-trip"
        assert warm["entries"] == cold["entries"]
        assert warm["speedups"] == cold["speedups"]

    def test_delta_simulates_only_misses(self, tmp_path):
        cold = _sweep(tmp_path)
        # Invalidate one entry; the incremental pass should pay exactly
        # that delta.
        scheduler = _scheduler(tmp_path)
        victim = next(iter(cold["entries"]))
        scheduler.cache.backend.delete(victim)
        warm = run_sweep(BENCHMARKS, WIDTHS, scheduler=scheduler,
                         incremental=True)
        assert warm["stats"]["machine_runs"] == 1
        assert warm["stats"]["cache_hits"] == \
            warm["coverage"]["total_requests"] - 1
        assert warm["entries"] == cold["entries"]

    def test_incremental_requires_cache(self):
        with pytest.raises(SweepError, match="incremental"):
            run_sweep(BENCHMARKS, WIDTHS, scheduler=RunScheduler(jobs=1),
                      incremental=True)


class TestMergeVerification:
    def _shards(self, tmp_path):
        return [_sweep(tmp_path, "shared", shard=ShardSpec(i, 2))
                for i in (1, 2)]

    def test_merge_rejects_empty(self):
        with pytest.raises(SweepError, match="nothing to merge"):
            merge_sweeps([])

    def test_merge_rejects_non_manifest(self):
        with pytest.raises(SweepError, match="not a sweep manifest"):
            merge_sweeps([{"kind": "something-else"}])

    def test_merge_rejects_mismatched_sweeps(self, tmp_path):
        shard1 = _sweep(tmp_path, "a", shard=ShardSpec(1, 2))
        other = run_sweep(["LU"], WIDTHS, scheduler=_scheduler(tmp_path, "b"),
                          shard=ShardSpec(2, 2))
        with pytest.raises(SweepError, match="different sweep"):
            merge_sweeps([shard1, other])

    def test_merge_rejects_coverage_gap(self, tmp_path):
        shards = self._shards(tmp_path)
        with pytest.raises(SweepError, match="cover"):
            merge_sweeps([shards[0]])

    def test_merge_rejects_divergent_results(self, tmp_path):
        shards = self._shards(tmp_path)
        forged = copy.deepcopy(shards)
        key = next(iter(forged[0]["entries"]))
        # Shard 2 claims the same key with different cycles/digest.
        forged[1]["entries"][key] = dict(forged[0]["entries"][key],
                                         cycles=1, digest="0" * 64)
        with pytest.raises(SweepError, match="diverge"):
            merge_sweeps(forged)

    def test_merge_rejects_duplicate_simulation(self, tmp_path):
        shards = self._shards(tmp_path)
        forged = copy.deepcopy(shards)
        key = next(k for k, s in forged[0]["sources"].items()
                   if s == "simulated")
        forged[1]["entries"][key] = forged[0]["entries"][key]
        forged[1]["sources"][key] = "simulated"
        with pytest.raises(SweepError, match="more than one"):
            merge_sweeps(forged)

    @pytest.mark.parametrize("case", [
        "array", "string", "no-benchmarks", "unknown-benchmark", "width-12",
        "entries-list"])
    def test_merge_refuses_malformed_manifest(self, tmp_path, case):
        """A manifest merge cannot read is a SweepError naming it, not
        a traceback from deep inside the merge."""
        manifest = _sweep(tmp_path)
        sweep = manifest["sweep"]
        if case == "array":
            manifest = [manifest]
        elif case == "string":
            manifest = SWEEP_MANIFEST_KIND
        elif case == "no-benchmarks":
            del sweep["benchmarks"]
        elif case == "unknown-benchmark":
            sweep["benchmarks"] = ["FIR", "not-a-benchmark"]
        elif case == "width-12":
            sweep["widths"] = [2, 12]
        else:
            manifest["entries"] = list(manifest["entries"])
        with pytest.raises(SweepError, match=r"^manifest #1: "):
            merge_sweeps([manifest])

    @pytest.mark.parametrize("field, value", [
        (None, 5),
        ("benchmark", "LU"),
        ("program_kind", "baseline"),
        ("width", 4),
        ("width", 2.0),
        ("repeat_factor", 2),
        ("repeat_factor", True),
        ("cycles", 0),
        ("cycles", True),
        ("cycles", 1.5),
        ("digest", "0" * 63),
        ("digest", "A" * 64),
        ("digest", None),
    ], ids=["number", "benchmark", "program-kind", "width", "width-float",
            "repeat-factor", "repeat-factor-bool", "cycles-0", "cycles-bool",
            "cycles-float", "digest-short", "digest-upper", "digest-null"])
    def test_merge_refuses_entry_unlike_its_request(self, tmp_path, field,
                                                    value):
        """Every entry must record the request its key names; one that
        does not is a SweepError naming the manifest and the key, not a
        TypeError from the speedups."""
        manifest = _sweep(tmp_path)
        key = next(key for key, meta in manifest["entries"].items()
                   if meta["width"] == 2)
        if field is None:
            manifest["entries"][key] = value
        else:
            manifest["entries"][key][field] = value
        with pytest.raises(SweepError, match=rf"^manifest #1: entry {key}: "):
            merge_sweeps([manifest])

    def test_merged_stats_aggregate(self, tmp_path):
        shards = self._shards(tmp_path)
        merged = merge_sweeps(shards)
        assert merged["stats"]["shards_merged"] == 2
        assert merged["stats"]["machine_runs"] == \
            sum(m["stats"]["machine_runs"] for m in shards)
        assert merged["stats"]["max_shard_wall_seconds"] <= \
            merged["stats"]["wall_seconds"]
        assert merged["sweep"]["shard"] is None


class TestSweepOverHTTP:
    def test_sharded_sweep_through_cache_daemon(self, tmp_path):
        """Two shards against one ``repro cache serve`` server behave
        exactly like two shards against one shared directory."""
        server = SimServer(jobs=1, cache=RunCache(tmp_path / "served"))
        server.start()
        try:
            shards = []
            for i in (1, 2):
                scheduler = RunScheduler(
                    jobs=1,
                    cache=RunCache(backend=HTTPCacheBackend(server.url)))
                shards.append(run_sweep(BENCHMARKS, WIDTHS,
                                        scheduler=scheduler,
                                        shard=ShardSpec(i, 2)))
            merged = merge_sweeps(shards)
        finally:
            server.shutdown()
        full = _sweep(tmp_path, "local")
        assert merged["entries"] == full["entries"], \
            "HTTP-backed shards must be byte-identical to local execution"
        assert merged["backend"]["backend"] == "http"

    def test_incremental_over_http_is_one_probe(self, tmp_path):
        server = SimServer(jobs=1, cache=RunCache(tmp_path / "served"))
        server.start()
        try:
            def scheduler():
                return RunScheduler(
                    jobs=1,
                    cache=RunCache(backend=HTTPCacheBackend(server.url)))
            run_sweep(BENCHMARKS, WIDTHS, scheduler=scheduler())
            tel = telemetry.enable()
            try:
                warm = run_sweep(BENCHMARKS, WIDTHS, scheduler=scheduler(),
                                 incremental=True)
                requests = dict(tel.to_dict()["counters"]).get(
                    "runcache.http.requests", 0)
            finally:
                telemetry.disable()
        finally:
            server.shutdown()
        assert warm["stats"]["machine_runs"] == 0
        assert warm["stats"]["probe_calls"] == 1
        # One /contains round-trip for the whole sweep, then one GET per
        # warm entry and one /stats for the manifest's backend.
        assert requests == 1 + warm["coverage"]["total_requests"] + 1
