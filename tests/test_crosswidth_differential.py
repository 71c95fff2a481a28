"""Cross-width differential conformance suite (docs/retranslation.md).

The headline guarantee of width retranslation: for every paper kernel,
a fragment translated at width ``W`` and re-lowered to ``2W`` *without
re-observing the scalar loop* must agree element-for-element with

* a fresh runtime translation at ``2W``, and
* the reference engine at ``2W``,

on both execution engines — and every retranslated fragment must
actually execute as microcode (preloads are ready at cycle 0, so the
preloaded run never falls back to scalar for those functions).

The suite also pins that neither the engine choice nor microcode
preloading perturbs run-cache keys.
"""

from __future__ import annotations

import pytest

from repro.core.scalarize import build_liquid_program
from repro.evaluation.crosswidth import ENGINE_ORDER, crosswidth_differential
from repro.evaluation.runcache import run_key
from repro.kernels.suite import BENCHMARK_ORDER, build_kernel
from repro.simd.accelerator import config_for_width
from repro.system.machine import MachineConfig

SOURCE_WIDTHS = (2, 4)


def _assert_verdict_ok(report: dict) -> None:
    for engine, row in report["engines"].items():
        assert row["arrays_match_fresh"], \
            f"{report['benchmark']} w{report['from_width']}->" \
            f"w{report['to_width']}: retranslated arrays diverge from " \
            f"fresh translation on {engine}"
        assert row["arrays_match_reference"], \
            f"{report['benchmark']}: retranslated arrays diverge from " \
            f"the reference engine on {engine}"
        assert row["microcode_ran"], \
            f"{report['benchmark']}: a preloaded fragment fell back to " \
            f"scalar on {engine}"
    assert report["ok"]


@pytest.mark.parametrize("from_width", SOURCE_WIDTHS)
@pytest.mark.parametrize("bench", BENCHMARK_ORDER)
def test_crosswidth_upscale(bench, from_width):
    report = crosswidth_differential(bench, from_width, 2 * from_width)
    _assert_verdict_ok(report)


@pytest.mark.slow
@pytest.mark.parametrize("bench", BENCHMARK_ORDER)
def test_crosswidth_upscale_width16(bench):
    """The full 8 -> 16 sweep (nightly: ci-nightly.yml runs -m slow)."""
    report = crosswidth_differential(bench, 8, 16)
    _assert_verdict_ok(report)


@pytest.mark.parametrize("bench", ["GSM Dec.", "LU", "FIR"])
def test_crosswidth_downscale(bench):
    """W/2 re-lowering: 8 -> 4 on kernels with w8-translatable loops."""
    report = crosswidth_differential(bench, 8, 4)
    _assert_verdict_ok(report)


def test_run_keys_engine_and_store_invariant():
    """Run-cache keys ignore both the engine and microcode preloading."""
    program = build_liquid_program(build_kernel("FIR"))
    keys = {
        run_key(program,
                MachineConfig(accelerator=config_for_width(8),
                              engine=engine))
        for engine in ENGINE_ORDER
    }
    assert len(keys) == 1
    # Preloading rides on the Machine, not the MachineConfig, so there
    # is no config field for it to perturb the key through; pin that by
    # construction.
    assert "preload" not in str(sorted(
        MachineConfig.__dataclass_fields__))
