"""Smoke tests for the end-to-end benchmark harness.

Every workload runs in-process on a one- or two-key input with
sub-second phases, untraced and traced, against an oracle simulated
here with the default engine.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -o addopts=""
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import run  # noqa: E402
import trace as e2e_trace  # noqa: E402
import workloads  # noqa: E402
from workloads import Key  # noqa: E402

SMALL = {
    "scalar-cold": {"keys": [Key("baseline", "MPEG2 Dec."),
                             Key("baseline", "MPEG2 Enc.")]},
    "liquid-cold": {"keys": [Key("liquid", "MPEG2 Dec.", 4),
                             Key("liquid", "MPEG2 Dec.", 16)]},
    "sweep-warm": {"benchmarks": ["MPEG2 Dec."]},
    "serve-warm": {"keys": [Key("baseline", "MPEG2 Dec."),
                            Key("liquid", "MPEG2 Dec.", 4)]},
    "serve-cold": {"keys": [Key("liquid", "MPEG2 Dec.", 2, 2),
                            Key("liquid", "MPEG2 Enc.", 4, 2)]},
}


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    keys = [k for spec in SMALL.values() for k in spec.get("keys", [])]
    keys += workloads.sweep_keys(["MPEG2 Dec."])
    return workloads.build_oracle(
        list(dict.fromkeys(keys)), ["MPEG2 Dec."], engine="fast", jobs=1,
        tmp=tmp_path_factory.mktemp("oracle"))


def measure(name, oracle, tmp_path, trace=False):
    """Set up, measure and tear down one small workload in-process."""
    ctx = workloads.Context(
        seed=3, seconds=0.4, tmp=tmp_path, oracle=oracle, trace=trace,
        trace_path=tmp_path / f"{name}.trace.json", **SMALL[name])
    workload = workloads.WORKLOADS[name](ctx)
    try:
        workload.setup()
        result = workload.measure()
    finally:
        problems = workload.teardown()
    assert problems == []
    report = result.to_json()
    report["setup_s"] = 0.5
    return report


def test_catalog_matches_benchmark_json():
    bench = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        list(e2e_trace.PER_LAYER)


@pytest.mark.parametrize("name", list(SMALL))
def test_workload_untraced_and_traced(name, oracle, tmp_path):
    plain = measure(name, oracle, tmp_path)
    assert plain["failed"] == 0, plain["errors"]
    assert plain["attempted"] > 0
    metrics = run.end_to_end([plain])
    assert set(metrics) == {m for m, _ in run.E2E_METRICS}
    assert all(value > 0 for value in metrics.values()), metrics

    traced = measure(name, oracle, tmp_path, trace=True)
    assert traced["failed"] == 0, traced["errors"]
    layers = run.layer_report(plain, traced)
    assert set(layers) == {m for m, _ in e2e_trace.PER_LAYER}
    assert layers["trace.absent_layers"] == 0
    assert layers["trace.self_sum_frac"] == pytest.approx(1.0, abs=0.05)
    assert 0 <= layers["unattributed.self_s"] <= layers["trace.wall_s"]
    assert (tmp_path / f"{name}.trace.json").is_file()


def test_corrupted_expected_digest_counts_as_failure(oracle, tmp_path):
    bad = workloads.Oracle(dict(oracle.runs), dict(oracle.sweeps))
    key = SMALL["scalar-cold"]["keys"][0].id
    bad.runs[key] = dict(bad.runs[key], sha256="0" * 64)
    report = measure("scalar-cold", bad, tmp_path)
    assert report["failed"] == 1
    assert report["failed"] / report["attempted"] > 0
    assert "differs from the oracle" in report["errors"][0]


def test_missing_patch_point_is_an_absent_layer(oracle, tmp_path,
                                                monkeypatch):
    missing = (
        e2e_trace.PatchPoint("machine", "machine.run",
                             "repro.system.machine:Machine.renamed_run"),
        e2e_trace.PatchPoint("ghost", "ghost", "repro.no_such_module:run"),
    )
    monkeypatch.setattr(e2e_trace, "PATCH_POINTS",
                        e2e_trace.PATCH_POINTS + missing)
    report = measure("scalar-cold", oracle, tmp_path, trace=True)
    assert report["failed"] == 0, report["errors"]
    assert report["layers"]["trace.absent_layers"] == 2
    assert report["layers"]["machine.runs"] == 2  # the real point still works
