"""E7 — microcode cache sizing sweep, plus the persistent-store arm.

Paper: "supporting eight or more SIMD code sequences (i.e., hot loops)
in the control cache is sufficient to capture the working set in all of
the benchmarks", giving the 8 x 64 x 32-bit = 2 KB control cache.

The sweep runs the benchmark with the most distinct hot loops (LU has
four elimination loops) and FFT through caches of 1..16 entries.

The second half times the *persistent* fragment store
(docs/retranslation.md): the warm-over-cold speedup of a translate and
retranslate sweep, median cold pass (each on a fresh store) over median
warm pass, emitted as ``BENCH_fragstore.json`` with each side's
min-max.
"""

import statistics
import time

from repro.core.scalarize import build_liquid_program
from repro.evaluation.crosswidth import (
    retranslate_at_width,
    translate_at_width,
)
from repro.evaluation.experiments import ucode_cache_ablation
from repro.evaluation.report import render_ablation
from repro.evaluation.runcache import FragmentStore
from repro.kernels.suite import build_kernel
from repro.simd.accelerator import config_for_width
from repro.system.machine import MachineConfig


def test_ucode_cache_capacity_lu(benchmark):
    rows = benchmark.pedantic(ucode_cache_ablation,
                              args=("LU", 8, (1, 2, 4, 8, 16)),
                              rounds=1, iterations=1)
    print("\n" + render_ablation(rows, "entries",
                                 "Microcode cache sweep (LU, 4 hot loops)"))
    by_entries = {r["entries"]: r for r in rows}
    # A too-small cache thrashes: with 4 hot loops in round-robin, a
    # 1-entry cache evicts before reuse.
    assert by_entries[1]["evictions"] > 0
    # 8 entries capture the working set with room to spare (paper claim).
    assert by_entries[8]["evictions"] == 0
    assert by_entries[8]["simd_run_fraction"] > 0.8
    # No benefit beyond the working set.
    assert by_entries[16]["cycles"] == by_entries[8]["cycles"]
    # Cycles never increase with a bigger cache.
    cycles = [by_entries[n]["cycles"] for n in (1, 2, 4, 8, 16)]
    assert all(a >= b for a, b in zip(cycles, cycles[1:]))


def test_ucode_cache_capacity_fft(benchmark):
    rows = benchmark.pedantic(ucode_cache_ablation,
                              args=("FFT", 8, (1, 2, 8)),
                              rounds=1, iterations=1)
    print("\n" + render_ablation(rows, "entries",
                                 "Microcode cache sweep (FFT)"))
    by_entries = {r["entries"]: r for r in rows}
    assert by_entries[8]["evictions"] == 0
    assert by_entries[8]["simd_run_fraction"] > 0.7


# ---------------------------------------------------------------------------
# Persistent fragment-store warm-over-cold sweep (docs/retranslation.md)
# ---------------------------------------------------------------------------

_SWEEP_BENCHES = ("FIR", "FFT", "LU")  # 2 + 3 + 8 = 13 store entries
_SOURCE_WIDTH, _TARGET_WIDTH = 4, 8
#: Cold sweeps, each on a fresh store, and warm sweeps per store.
_COLD_PASSES, _WARM_PASSES = 5, 5


def _sweep(store: FragmentStore) -> None:
    """Translate at W, retranslate to 2W, all through the store."""
    target_tcfg = MachineConfig(
        accelerator=config_for_width(_TARGET_WIDTH)).translator_config()
    for bench in _SWEEP_BENCHES:
        program = build_liquid_program(build_kernel(bench))
        config = MachineConfig(accelerator=config_for_width(_SOURCE_WIDTH),
                               engine="fast")
        translations = translate_at_width(program, config, store)
        entries = [t.entry for t in translations.values()
                   if t.ok and t.entry is not None]
        retranslate_at_width(entries, _TARGET_WIDTH, target_tcfg, store)


def test_fragstore_warm_over_cold(benchmark, tmp_path,
                                  fragstore_bench_records):
    """Median cold sweep (a fresh store each pass) over median warm
    sweep, so one noisy ~10 ms warm pass cannot swing the record."""
    def run():
        cold, warm, stored, hits = [], [], [], []
        for i in range(_COLD_PASSES):
            store = FragmentStore(tmp_path / f"fragments{i}")
            t0 = time.perf_counter()
            _sweep(store)
            cold.append(time.perf_counter() - t0)
            stored.append(store.stats.stores)
            for _ in range(_WARM_PASSES):
                hits_before = store.stats.hits
                t0 = time.perf_counter()
                _sweep(store)
                warm.append(time.perf_counter() - t0)
                hits.append(store.stats.hits - hits_before)
        return {
            "benches": list(_SWEEP_BENCHES),
            "from_width": _SOURCE_WIDTH,
            "to_width": _TARGET_WIDTH,
            "cold_passes": len(cold),
            "warm_passes": len(warm),
            "entries": max(stored),
            "warm_hits": min(hits),
            "cold_seconds": statistics.median(cold),
            "cold_min_seconds": min(cold),
            "cold_max_seconds": max(cold),
            "warm_seconds": statistics.median(warm),
            "warm_min_seconds": min(warm),
            "warm_max_seconds": max(warm),
            "speedup": statistics.median(cold) / statistics.median(warm),
        }

    record = benchmark.pedantic(run, rounds=1, iterations=1)
    fragstore_bench_records["fragstore_warm_over_cold"] = record
    print(f"\nFragment store (w{_SOURCE_WIDTH} -> w{_TARGET_WIDTH}): "
          f"{record['entries']} entries, median cold "
          f"{record['cold_seconds']:.3f}s of {record['cold_passes']}, "
          f"median warm {record['warm_seconds']:.4f}s of "
          f"{record['warm_passes']} ({record['speedup']:.1f}x)")

    # Every warm sweep is pure hits — no machine re-runs.
    assert record["warm_hits"] == record["entries"]
    assert record["speedup"] > 1.0
