"""Smoke tests for the command-line interfaces."""

import io
from contextlib import redirect_stdout

import pytest

from repro.__main__ import main as repro_main
from repro.evaluation.cli import port_number, run as eval_cli


def _capture(fn, *args):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = fn(*args)
    return code, buffer.getvalue()


class TestReproMain:
    def test_list(self):
        code, out = _capture(repro_main, ["list"])
        assert code == 0
        assert "179.art" in out and "hot loops" in out

    def test_run_single_benchmark(self):
        code, out = _capture(repro_main, ["run", "LU", "--widths", "8"])
        assert code == 0
        assert "baseline" in out and "match" in out
        assert "DIVERGED" not in out

    def test_run_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            repro_main(["run", "not-a-benchmark"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            repro_main([])

    @pytest.mark.parametrize("argv", [
        ["sweep", "--engine", "turbo"],
        ["telemetry", "FIR", "--engine", "macro"],
        ["telemetry", "FIR", "--engine", "fsat"],
    ])
    def test_rejects_bad_engine(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            repro_main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestWidthFlags:
    """Every width flag takes what ``repro serve`` takes: a power of two
    in [2, DEFAULT_MVL].  Anything else is a usage error before any
    simulation, not a fault at the first unaligned vector access."""

    @pytest.mark.parametrize("argv", [
        ["run", "FFT", "--widths", "32"],
        ["run", "FIR", "--widths", "8", "12"],
        ["sweep", "--benchmarks", "FIR", "--widths", "2", "12"],
        ["telemetry", "FIR", "--width", "3"],
        ["codegen", "FIR", "--width", "32"],
        ["retranslate", "FIR", "--from-width", "12"],
        ["retranslate", "FIR", "--to-width", "32"],
        # No --to-width: the derived 2*W target is checked too.
        ["retranslate", "FFT", "--from-width", "16"],
    ], ids=["run-32", "run-12", "sweep-12", "telemetry-3", "codegen-32",
            "retranslate-from-12", "retranslate-to-32",
            "retranslate-derived-32"])
    def test_bad_width_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            repro_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"repro {argv[0]}: error:" in err
        assert "width must be a power of two in [2, 16], got" in err
        assert "Traceback" not in err


class TestJobsFlags:
    """Every ``--jobs`` flag takes a positive integer; anything else is
    a usage error, not a traceback from the scheduler or the server."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--benchmarks", "FIR", "--jobs", "0"],
        ["serve", "--port", "0", "--jobs", "-1"],
        ["evaluate", "--experiments", "table2", "--jobs", "0"],
    ], ids=["sweep-0", "serve-minus-1", "evaluate-0"])
    def test_bad_jobs_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            repro_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --jobs: must be a positive integer" in err
        assert "Traceback" not in err


class TestPortFlags:
    """Every ``--port`` flag takes an integer in [0, 65535] (0 for an
    ephemeral port); anything else is a usage error, not a server that
    fails to bind."""

    @pytest.mark.parametrize("argv", [
        ["serve", "--port", "70000"],
        ["serve", "--port", "-1"],
        ["serve", "--port", "x"],
        ["cache", "serve", "--port", "70000"],
        ["cache", "serve", "--port", "-1"],
    ], ids=["serve-70000", "serve-minus-1", "serve-x", "cache-70000",
            "cache-minus-1"])
    def test_bad_port_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            repro_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --port: must be a port number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["0", "8979", "65535"])
    def test_port_range_ends_are_accepted(self, text):
        assert port_number(text) == int(text)


class TestRetranslateSubcommand:
    def test_verdict_persists_nothing(self, tmp_path, monkeypatch):
        """Translation and retranslation run in memory: the command
        prints its verdict and writes nothing under the cache root."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code, out = _capture(repro_main, ["retranslate", "FIR",
                                          "--from-width", "4"])
        assert code == 0
        assert "FIR: retranslate w4 -> w8" in out
        assert out.rstrip().endswith("verdict: OK")
        assert not any(tmp_path.iterdir())


class TestEvaluationCli:
    def test_table2_only(self):
        code, out = _capture(eval_cli, ["--experiments", "table2"])
        assert code == 0
        assert "174,117" in out

    def test_subset_table5(self):
        code, out = _capture(
            eval_cli, ["--benchmarks", "LU", "--experiments", "table5"])
        assert code == 0
        assert "LU" in out and "Mean" in out

    def test_evaluate_subcommand_delegates(self):
        code, out = _capture(repro_main,
                             ["evaluate", "--experiments", "table2"])
        assert code == 0
        assert "174,117" in out

    def test_rejects_unknown_benchmark_with_choices(self, capsys):
        with pytest.raises(SystemExit):
            eval_cli(["--benchmarks", "LU", "BOGUS",
                      "--experiments", "table5"])
        err = capsys.readouterr().err
        assert "'BOGUS'" in err
        assert "Valid choices:" in err and "179.art" in err

    def test_rejects_unknown_ucache_benchmark(self, capsys):
        with pytest.raises(SystemExit):
            eval_cli(["--experiments", "ucache",
                      "--ucache-benchmark", "nope"])
        assert "--ucache-benchmark" in capsys.readouterr().err

    def test_rejects_bad_jobs(self, capsys):
        with pytest.raises(SystemExit):
            eval_cli(["--experiments", "table2", "--jobs", "0"])
        assert "--jobs" in capsys.readouterr().err

    def test_rejects_bad_engine(self, capsys):
        with pytest.raises(SystemExit) as exc:
            eval_cli(["--experiments", "table2", "--engine", "turbo"])
        assert exc.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_ucache_benchmark_flag_selects_benchmark(self):
        code, out = _capture(
            eval_cli, ["--benchmarks", "FIR", "--experiments", "ucache",
                       "--ucache-benchmark", "FIR", "--no-cache"])
        assert code == 0
        assert "Microcode cache entries sweep (FIR)" in out

    def test_cache_flow_cold_then_warm(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        argv = ["--benchmarks", "LU", "--experiments", "table5", "table6",
                "--cache-dir", cache_dir, "--jobs", "1"]
        code, cold = _capture(eval_cli, argv)
        assert code == 0
        assert "cache: 0 hits / 1 simulated" in cold
        code, warm = _capture(eval_cli, argv)
        assert code == 0
        assert "cache: 1 hits / 0 simulated" in warm
        # Identical rendered output whatever the cache state (strip the
        # trailing timing/stats line, which reports hits vs simulated).
        strip = lambda out: out.splitlines()[:-1]
        assert strip(cold) == strip(warm)

    def test_every_run_is_simulated_in_the_prefetch_batch(self,
                                                         monkeypatch):
        """Each driver reads exactly its own declaration, so the one
        prefetch batch simulates every run and the drivers' batches are
        all memo hits."""
        from repro.evaluation.runner import RunScheduler
        simulating = ["table6", "figure6", "overhead", "ucache", "jit",
                      "latency"]
        executed = []
        real_run_many = RunScheduler.run_many

        def run_many(scheduler, requests):
            before = scheduler.stats.executed
            results = real_run_many(scheduler, requests)
            executed.append(scheduler.stats.executed - before)
            return results

        monkeypatch.setattr(RunScheduler, "run_many", run_many)
        code, _ = _capture(eval_cli, ["--experiments", *simulating,
                                      "--benchmarks", "FIR",
                                      "--ucache-benchmark", "FIR",
                                      "--no-cache", "--jobs", "1"])
        assert code == 0
        assert len(executed) == 1 + len(simulating)
        assert executed[0] > 0
        assert executed[1:] == [0] * len(simulating), \
            "a driver simulated a run the prefetch batch did not cover"

    def test_no_cache_flag_disables_reporting(self):
        code, out = _capture(eval_cli, ["--benchmarks", "LU",
                                        "--experiments", "table5",
                                        "--no-cache"])
        assert code == 0
        assert "cache:" not in out


class TestCacheSubcommand:
    def test_info_and_clear(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code, _ = _capture(eval_cli, ["--benchmarks", "LU",
                                      "--experiments", "table6",
                                      "--cache-dir", cache_dir])
        assert code == 0
        code, out = _capture(repro_main,
                             ["cache", "info", "--cache-dir", cache_dir])
        assert code == 0
        assert "entries   1" in out
        code, out = _capture(repro_main,
                             ["cache", "clear", "--cache-dir", cache_dir])
        assert code == 0
        assert "cleared 1 cached run" in out
        code, out = _capture(repro_main,
                             ["cache", "info", "--cache-dir", cache_dir])
        assert code == 0
        assert "entries   0" in out

    def test_info_reports_local_backend(self, tmp_path):
        code, out = _capture(
            repro_main, ["cache", "info", "--cache-dir", str(tmp_path)])
        assert code == 0
        assert "backend: local directory" in out

    def test_info_reports_reachable_daemon(self, tmp_path):
        from repro.evaluation.runcache import RunCache
        from repro.evaluation.simserver import SimServer
        server = SimServer(jobs=1, cache=RunCache(tmp_path / "served"))
        server.start()
        try:
            code, out = _capture(
                repro_main, ["cache", "info", "--cache-url", server.url])
        finally:
            server.shutdown()
        assert code == 0
        assert "backend: http" in out
        assert "status    reachable" in out

    def test_info_counts_the_entries_a_serve_farm_simulated(self, tmp_path):
        import json
        import urllib.request

        from repro.evaluation.runcache import RunCache
        from repro.evaluation.simserver import SimServer
        server = SimServer(jobs=1, cache=RunCache(tmp_path / "served"))
        server.start()
        try:
            for width in (4, 8):
                body = json.dumps({"benchmark": "FIR", "width": width})
                with urllib.request.urlopen(server.url + "/v1/runs",
                                            data=body.encode(),
                                            timeout=60) as resp:
                    assert json.loads(resp.read())["source"] == "cold"
            code, out = _capture(
                repro_main, ["cache", "info", "--cache-url", server.url])
        finally:
            server.shutdown()
        assert code == 0
        assert "status    reachable" in out
        assert "entries   2" in out

    def test_info_unreachable_daemon_exits_nonzero(self):
        code, out = _capture(
            repro_main,
            ["cache", "info", "--cache-url", "http://127.0.0.1:9"])
        assert code == 1
        assert "status    unreachable" in out


class TestSweepSubcommand:
    ARGS = ["sweep", "--benchmarks", "FIR", "--widths", "2",
            "--jobs", "1"]

    def test_sweep_smoke(self, tmp_path):
        code, out = _capture(
            repro_main, self.ARGS + ["--cache-dir", str(tmp_path)])
        assert code == 0
        assert "simulated 2, warm 0" in out
        assert "speedups: 1 records" in out

    def test_incremental_after_cold_sweep(self, tmp_path):
        cache = ["--cache-dir", str(tmp_path)]
        _capture(repro_main, self.ARGS + cache)
        code, out = _capture(
            repro_main, self.ARGS + cache + ["--incremental"])
        assert code == 0
        assert "incremental: simulated 0, warm 2" in out
        assert "probe round-trips 1" in out

    def test_shard_merge_roundtrip(self, tmp_path):
        import json
        cache = ["--cache-dir", str(tmp_path / "cache")]
        paths = []
        for i in (1, 2):
            out_path = tmp_path / f"shard{i}.json"
            code, _ = _capture(
                repro_main, self.ARGS + cache
                + ["--shard", f"{i}/2", "--out", str(out_path)])
            assert code == 0
            paths.append(str(out_path))
        merged_path = tmp_path / "merged.json"
        code, out = _capture(
            repro_main, ["sweep", "--merge", *paths,
                         "--out", str(merged_path)])
        assert code == 0
        assert "merged 2 shard manifest(s)" in out
        merged = json.loads(merged_path.read_text())
        assert merged["stats"]["machine_runs"] == 2

    def test_merge_rejects_incomplete_fleet(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        out_path = tmp_path / "shard1.json"
        code, _ = _capture(
            repro_main, self.ARGS + cache
            + ["--shard", "1/2", "--out", str(out_path)])
        assert code == 0
        code = repro_main(["sweep", "--merge", str(out_path)])
        assert code == 1
        assert "cover" in capsys.readouterr().err

    def test_merge_refuses_malformed_manifest(self, tmp_path, capsys):
        path = tmp_path / "array.json"
        path.write_text("[]", encoding="utf-8")
        code = repro_main(["sweep", "--merge", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("sweep: manifest #1: not a sweep manifest")
        assert "Traceback" not in err

    def test_bad_shard_spec_exits_nonzero(self, capsys):
        code = repro_main(["sweep", "--shard", "nope"])
        assert code == 1
        assert "K/N" in capsys.readouterr().err

    def test_json_output_is_a_manifest(self):
        import json
        code, out = _capture(repro_main, self.ARGS + ["--json"])
        assert code == 0
        manifest = json.loads(out)
        assert manifest["kind"] == "repro-sweep"
        assert manifest["coverage"]["selected"] == 2
