"""Cross-width differential conformance suite (docs/retranslation.md).

The headline guarantee of width retranslation: for every paper kernel,
a fragment translated at width ``W`` and re-lowered to ``2W`` *without
re-observing the scalar loop* must agree element-for-element with

* a fresh runtime translation at ``2W``, and
* the reference engine at ``2W``,

on all four execution engines — and every retranslated fragment must
actually execute as microcode (preloads are ready at cycle 0, so the
preloaded run never falls back to scalar for those functions).

The suite also pins the fleet-economics contract of the persistent
fragment store: a warm store performs **zero** retranslations on a
repeat sweep (``retranslate.attempts`` delta is 0 while
``fragstore.hit`` counts the loads), and neither the store nor the
engine choice perturbs run-cache keys or cycle counts.
"""

from __future__ import annotations

import pytest

from repro.core.scalarize import build_liquid_program
from repro.evaluation.crosswidth import (
    ENGINE_ORDER,
    crosswidth_differential,
    retranslate_at_width,
    translate_at_width,
)
from repro.evaluation.runcache import FragmentStore, run_key
from repro.kernels.suite import BENCHMARK_ORDER, build_kernel
from repro.observability import telemetry
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


def test_warm_store_does_zero_retranslations(tmp_path):
    """Repeat sweep against a warm store: hits only, no retranslation.

    The first sweep populates the store (translations *and*
    retranslations); the second must be served entirely from it — no
    ``retranslate.attempts``, no ``translate.attempts``, and not even a
    scout machine run (``machine.runs`` stays flat), with
    ``fragstore.hit`` accounting for every load.
    """
    store = FragmentStore(tmp_path / "fragments")
    program = build_liquid_program(build_kernel("FIR"))
    source_config = MachineConfig(accelerator=config_for_width(4),
                                  engine="fast")
    target_tcfg = MachineConfig(
        accelerator=config_for_width(8)).translator_config()

    translations = translate_at_width(program, source_config, store)
    entries = [t.entry for t in translations.values()
               if t.ok and t.entry is not None]
    first = retranslate_at_width(entries, 8, target_tcfg, store)
    assert entries and all(r.ok for r in first.values())
    assert store.stats.stores == len(translations) + len(first)

    tel = telemetry.enable()
    try:
        warm_translations = translate_at_width(program, source_config, store)
        warm_entries = [t.entry for t in warm_translations.values()
                        if t.ok and t.entry is not None]
        second = retranslate_at_width(warm_entries, 8, target_tcfg, store)
        counters = dict(tel.to_dict()["counters"])
    finally:
        telemetry.disable()

    assert counters.get("fragstore.hit", 0) == \
        len(warm_translations) + len(second)
    for absent in ("retranslate.attempts", "retranslate.ok",
                   "translate.attempts", "machine.runs", "fragstore.store",
                   "fragstore.miss"):
        assert absent not in counters, f"warm sweep still did {absent}"
    # The store round-trip is lossless: the warm sweep reproduces the
    # cold sweep's results bit-for-bit, entries included.
    assert {fn: r.to_dict() for fn, r in second.items()} == \
        {fn: r.to_dict() for fn, r in first.items()}
    assert [e.table_key for e in warm_entries] == \
        [e.table_key for e in entries]


def test_store_does_not_drift_cycles(tmp_path):
    """Store-backed and store-free sweeps time identically per engine."""
    store = FragmentStore(tmp_path / "fragments")
    with_store = crosswidth_differential("FFT", 4, 8, store=store)
    # Second store-backed pass exercises the load path end to end.
    warm = crosswidth_differential("FFT", 4, 8, store=store)
    without = crosswidth_differential("FFT", 4, 8, store=None)
    for engine in ENGINE_ORDER:
        assert with_store["engines"][engine] == \
            without["engines"][engine] == warm["engines"][engine]


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
