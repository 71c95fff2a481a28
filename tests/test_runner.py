"""Scheduler and persistent run-cache tests (docs/evaluation-runner.md).

Covers the ISSUE 2 acceptance properties at test scale:

* ``--jobs 1`` and ``--jobs 4`` produce byte-identical experiment rows
  and rendered tables,
* cache keys miss on any config change and on a format-version bump,
* corrupted cache entries fall back to re-simulation without crashing,
  and an unwritable cache costs its entries, never a run's result,
* a warm cache answers everything with zero ``Machine.run`` calls,
* the prefetch phase leaves per-experiment code with nothing to
  simulate.
"""

import dataclasses
import json

import pytest

from repro.evaluation import report
from repro.evaluation.experiments import (
    EvalContext,
    figure6_requests,
    figure6_speedups,
    native_overhead,
    native_overhead_requests,
    table6_call_distances,
    table6_requests,
)
from repro.evaluation.runcache import (
    CACHE_FORMAT_VERSION,
    RunCache,
    config_fingerprint,
    run_key,
)
from repro.evaluation.runner import (
    RunRequest,
    RunScheduler,
    build_request_program,
    execute_request,
)
from repro.simd.accelerator import config_for_width
from repro.system.machine import Machine, MachineConfig

SUBSET = ["LU", "FFT"]
WIDTHS = (2, 8)


def liquid_request(benchmark="LU", width=8, **kwargs):
    return RunRequest(benchmark, "liquid",
                      MachineConfig(accelerator=config_for_width(width),
                                    **kwargs))


class TestRunRequest:
    def test_rejects_unknown_program_kind(self):
        with pytest.raises(ValueError, match="program_kind"):
            RunRequest("LU", "mystery", MachineConfig())

    def test_rejects_bad_repeat_factor(self):
        with pytest.raises(ValueError, match="repeat_factor"):
            RunRequest("LU", "liquid", MachineConfig(), repeat_factor=0)

    def test_requests_are_hashable_and_deduplicate(self):
        a = liquid_request()
        b = liquid_request()
        assert a == b
        assert len({a, b}) == 1


class TestRunKey:
    def test_key_is_deterministic(self):
        request = liquid_request()
        program = build_request_program(request)
        assert run_key(program, request.config) == \
            run_key(program, request.config)

    def test_config_change_misses(self):
        program = build_request_program(liquid_request())
        base = MachineConfig(accelerator=config_for_width(8))
        keys = {run_key(program, base)}
        for changed in (
            MachineConfig(accelerator=config_for_width(4)),
            MachineConfig(accelerator=config_for_width(8),
                          ucode_cache_entries=2),
            MachineConfig(accelerator=config_for_width(8),
                          translation_cycles_per_instruction=10),
            MachineConfig(accelerator=config_for_width(8),
                          pretranslate=True),
            MachineConfig(),
        ):
            keys.add(run_key(program, changed))
        assert len(keys) == 6, "every config variation must change the key"

    def test_key_is_engine_invariant(self):
        # Engines are bit-identical by contract, so one cached result
        # serves all of them: the engine must NOT perturb the key.
        from repro.interp.executor import ENGINES
        program = build_request_program(liquid_request())
        keys = {
            run_key(program, MachineConfig(accelerator=config_for_width(8),
                                           engine=engine))
            for engine in ENGINES
        }
        assert len(keys) == 1, "cache entries must be shared across engines"

    def test_program_change_misses(self):
        config = MachineConfig(accelerator=config_for_width(8))
        lu = build_request_program(liquid_request("LU"))
        fft = build_request_program(liquid_request("FFT"))
        scaled = build_request_program(
            RunRequest("LU", "liquid", config, repeat_factor=2))
        assert len({run_key(lu, config), run_key(fft, config),
                    run_key(scaled, config)}) == 3

    def test_format_version_bump_misses(self):
        request = liquid_request()
        program = build_request_program(request)
        assert run_key(program, request.config) != \
            run_key(program, request.config,
                    format_version=CACHE_FORMAT_VERSION + 1)

    def test_fingerprint_excludes_display_name(self):
        accel = config_for_width(8)
        renamed = dataclasses.replace(accel, name="marketing-name")
        assert config_fingerprint(MachineConfig(accelerator=accel)) == \
            config_fingerprint(MachineConfig(accelerator=renamed))

    def test_fingerprint_is_json_canonical(self):
        fp = config_fingerprint(MachineConfig(
            accelerator=config_for_width(8)))
        assert json.loads(json.dumps(fp)) == fp


class TestRunCache:
    def test_miss_then_hit(self, tmp_path):
        cache = RunCache(tmp_path)
        request = liquid_request()
        key = run_key(build_request_program(request), request.config)
        assert cache.load(key) is None
        result = execute_request(request)
        cache.store(key, result)
        hit = cache.load(key)
        assert hit is not None
        assert hit.cycles == result.cycles
        assert hit.arrays == result.arrays
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_corrupted_entry_recovers(self, tmp_path):
        cache = RunCache(tmp_path)
        request = liquid_request()
        key = run_key(build_request_program(request), request.config)
        cache.store(key, execute_request(request))
        path = cache.path_for(key)
        path.write_text("{ not json")
        assert cache.load(key) is None, "corrupt entry must read as a miss"
        assert not path.exists(), "corrupt entry must be deleted"
        assert cache.stats.errors == 1
        # The scheduler transparently re-simulates and re-populates.
        scheduler = RunScheduler(jobs=1, cache=cache)
        result = scheduler.run(request)
        assert result.cycles > 0
        assert path.exists()

    def test_stale_format_version_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        request = liquid_request()
        key = run_key(build_request_program(request), request.config)
        cache.store(key, execute_request(request))
        path = cache.path_for(key)
        payload = json.loads(path.read_text())
        payload["format_version"] = CACHE_FORMAT_VERSION - 1
        path.write_text(json.dumps(payload))
        assert cache.load(key) is None
        assert not path.exists()

    def test_truncated_entry_recovers(self, tmp_path):
        cache = RunCache(tmp_path)
        request = liquid_request()
        key = run_key(build_request_program(request), request.config)
        cache.store(key, execute_request(request))
        path = cache.path_for(key)
        path.write_text(path.read_text()[:100])  # killed mid-write
        assert cache.load(key) is None

    def test_unwritable_cache_counts_an_error(self, tmp_path):
        """A cache rooted at a regular file cannot store anything: the
        scheduler still returns what it simulated."""
        from repro.observability import telemetry
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        cache = RunCache(blocker)
        request = liquid_request("FIR", 4)
        tel = telemetry.enable()
        try:
            result = RunScheduler(jobs=1, cache=cache).run(request)
            counters = dict(tel.to_dict()["counters"])
        finally:
            telemetry.disable()
        wire = result.to_dict()
        wire.pop("telemetry")
        assert wire == execute_request(request).to_dict()
        assert cache.stats.errors == 1 and cache.stats.stores == 0
        assert counters.get("runcache.errors") == 1

    def test_clear_and_info(self, tmp_path):
        cache = RunCache(tmp_path)
        request = liquid_request()
        key = run_key(build_request_program(request), request.config)
        cache.store(key, execute_request(request))
        assert cache.entry_count() == 1
        assert cache.size_bytes() > 0
        assert cache.clear() == 1
        assert cache.entry_count() == 0


class TestRunScheduler:
    def test_deduplicates_identical_requests(self):
        scheduler = RunScheduler(jobs=1)
        a, b = liquid_request(), liquid_request()
        results = scheduler.run_many([a, b, a])
        assert len(results) == 1
        assert scheduler.stats.executed == 1
        assert scheduler.stats.deduplicated == 2

    def test_memo_answers_repeat_calls(self):
        scheduler = RunScheduler(jobs=1)
        request = liquid_request()
        first = scheduler.run(request)
        second = scheduler.run(request)
        assert first is second
        assert scheduler.stats.executed == 1
        assert scheduler.stats.memo_hits == 1

    def test_warm_cache_needs_zero_machine_runs(self, tmp_path, monkeypatch):
        requests = [liquid_request(b, w) for b in SUBSET for w in WIDTHS]
        cold = RunScheduler(jobs=1, cache=RunCache(tmp_path))
        cold_results = cold.run_many(requests)
        assert cold.stats.executed == len(requests)

        calls = []
        real_run = Machine.run
        monkeypatch.setattr(
            Machine, "run",
            lambda self, program: calls.append(program.name)
            or real_run(self, program))
        warm = RunScheduler(jobs=1, cache=RunCache(tmp_path))
        warm_results = warm.run_many(requests)
        assert calls == [], f"warm cache still simulated {calls}"
        assert warm.stats.cache_hits == len(requests)
        assert warm.stats.executed == 0
        for request in requests:
            assert warm_results[request].cycles == \
                cold_results[request].cycles
            assert warm_results[request].arrays == \
                cold_results[request].arrays

    def test_parallel_matches_sequential(self):
        requests = [liquid_request(b, w) for b in SUBSET for w in WIDTHS]
        seq = RunScheduler(jobs=1).run_many(requests)
        par_scheduler = RunScheduler(jobs=4)
        par = par_scheduler.run_many(requests)
        assert par_scheduler.stats.parallel_executed == len(requests)
        for request in requests:
            assert par[request].cycles == seq[request].cycles
            assert par[request].pipeline == seq[request].pipeline
            assert par[request].arrays == seq[request].arrays


class TestBatchedProbe:
    def test_one_round_trip_per_batch(self, tmp_path):
        requests = [liquid_request(b, w) for b in SUBSET for w in WIDTHS]
        cache = RunCache(tmp_path)
        RunScheduler(jobs=1, cache=cache).run_many(requests)
        assert cache.stats.probe_calls == 1, \
            "a batch must cost one contains_many round-trip"
        assert cache.stats.probed == len(requests)

    def test_probe_telemetry_counts_batched_keys(self, tmp_path):
        from repro.observability import telemetry
        requests = [liquid_request(b, w) for b in SUBSET for w in WIDTHS]
        tel = telemetry.enable()
        try:
            RunScheduler(jobs=1,
                         cache=RunCache(tmp_path)).run_many(requests)
            counters = dict(tel.to_dict()["counters"])
        finally:
            telemetry.disable()
        assert counters.get("runcache.probe.calls") == 1
        assert counters.get("runcache.probe.batched") == len(requests)

    def test_warm_batch_loads_only_present_keys(self, tmp_path,
                                                monkeypatch):
        requests = [liquid_request(b, w) for b in SUBSET for w in WIDTHS]
        RunScheduler(jobs=1, cache=RunCache(tmp_path)).run_many(requests)

        warm_cache = RunCache(tmp_path)
        loads = []
        real_load = RunCache.load
        monkeypatch.setattr(
            RunCache, "load",
            lambda self, key: loads.append(key) or real_load(self, key))
        warm = RunScheduler(jobs=1, cache=warm_cache)
        warm.run_many(requests + [liquid_request("LU", 4)])
        # The cold key was filtered out by the probe, never load()ed.
        assert len(loads) == len(requests)
        assert warm.stats.cache_hits == len(requests)
        assert warm.stats.executed == 1

    def test_last_batch_records_provenance(self, tmp_path):
        request = liquid_request()
        scheduler = RunScheduler(jobs=1, cache=RunCache(tmp_path))
        scheduler.run(request)
        assert scheduler.last_batch == {request: "simulated"}
        scheduler.run(request)
        assert scheduler.last_batch == {request: "memo"}
        fresh = RunScheduler(jobs=1, cache=RunCache(tmp_path))
        fresh.run(request)
        assert fresh.last_batch == {request: "cache"}


class TestProgramMemoization:
    def test_one_build_per_program_id(self, monkeypatch):
        import repro.evaluation.runner as runner_mod
        builds = []
        real_build = runner_mod.build_request_program
        monkeypatch.setattr(
            runner_mod, "build_request_program",
            lambda request: builds.append(request.program_id)
            or real_build(request))
        scheduler = RunScheduler(jobs=1)
        # A width sweep: four requests, one shared liquid program.
        scheduler.run_many([liquid_request("LU", w) for w in (2, 4, 8, 16)])
        assert builds == [("LU", "liquid", 1)], \
            "the sweep must build its program exactly once"

    def test_keys_reuse_encoded_bytes(self, tmp_path, monkeypatch):
        from repro.isa import encoding
        import repro.evaluation.runner as runner_mod
        encodes = []
        real_encode = encoding.encode_program
        monkeypatch.setattr(
            runner_mod, "encode_program",
            lambda program: encodes.append(program.name)
            or real_encode(program))
        scheduler = RunScheduler(jobs=1, cache=RunCache(tmp_path))
        scheduler.run_many([liquid_request("LU", w) for w in (2, 4, 8, 16)])
        assert len(encodes) == 1, \
            "four keys against one program must encode it once"

    def test_equal_requests_derive_one_key(self, monkeypatch):
        import repro.evaluation.runner as runner_mod
        derived = []
        real_key = runner_mod.run_key_for_bytes
        monkeypatch.setattr(
            runner_mod, "run_key_for_bytes",
            lambda encoded, config: derived.append(config)
            or real_key(encoded, config))
        scheduler = RunScheduler(jobs=1)
        first, again = liquid_request("FFT"), liquid_request("FFT")
        assert first is not again
        assert scheduler.key_for(first) == scheduler.key_for(again)
        assert len(derived) == 1, "a repeated request must reuse its key"

    def test_engines_share_one_memoized_key(self):
        from repro.interp.executor import ENGINES
        scheduler = RunScheduler(jobs=1)
        keys = {scheduler.key_for(liquid_request(engine=engine))
                for engine in ENGINES for _ in range(2)}
        request = liquid_request()
        assert keys == {run_key(build_request_program(request),
                                request.config)}

    def test_workers_decode_shipped_bytes(self):
        from repro.evaluation.runner import _pool_worker
        from repro.isa.encoding import encode_program
        request = liquid_request()
        program = build_request_program(request)
        shipped = _pool_worker(request, encode_program(program))
        rebuilt = _pool_worker(request)
        assert shipped == rebuilt, \
            "decoded-program runs must match rebuilt-program runs exactly"


class TestEvalContextIntegration:
    def test_jobs_1_and_4_produce_identical_rows_and_tables(self):
        rows = {}
        tables = {}
        for jobs in (1, 4):
            ctx = EvalContext(SUBSET, scheduler=RunScheduler(jobs=jobs))
            ctx.prefetch(figure6_requests(ctx, WIDTHS)
                         + table6_requests(ctx))
            rows[jobs] = {
                "figure6": figure6_speedups(ctx, WIDTHS),
                "table6": table6_call_distances(ctx),
            }
            tables[jobs] = (
                report.render_figure6(rows[jobs]["figure6"], WIDTHS)
                + report.render_table6(rows[jobs]["table6"])
            )
        assert rows[1] == rows[4]
        assert tables[1] == tables[4], \
            "rendered tables must be byte-identical across --jobs"

    def test_prefetch_leaves_nothing_to_simulate(self):
        scheduler = RunScheduler(jobs=1)
        ctx = EvalContext(["LU"], scheduler=scheduler)
        ctx.prefetch(native_overhead_requests(ctx, width=8))
        executed = scheduler.stats.executed
        native_overhead(ctx, width=8)  # includes the 2x scaled runs
        assert scheduler.stats.executed == executed, \
            "prefetch must cover every run native_overhead needs"

    def test_scaled_runs_are_memoized(self):
        scheduler = RunScheduler(jobs=1)
        ctx = EvalContext(["LU"], scheduler=scheduler)
        first = ctx.scaled_run("LU", 8, factor=2)
        again = ctx.scaled_run("LU", 8, factor=2)
        assert first is again
        assert scheduler.stats.executed == 1

    def test_context_shares_runs_with_persistent_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = EvalContext(["LU"], scheduler=RunScheduler(
            jobs=1, cache=RunCache(cache_dir)))
        rows_first = figure6_speedups(first, (8,))

        second_scheduler = RunScheduler(jobs=1, cache=RunCache(cache_dir))
        second = EvalContext(["LU"], scheduler=second_scheduler)
        rows_second = figure6_speedups(second, (8,))
        assert rows_first == rows_second
        assert second_scheduler.stats.executed == 0
        assert second_scheduler.stats.cache_hits == 2  # baseline + liquid
