"""E7 — microcode cache sizing sweep.

Paper: "supporting eight or more SIMD code sequences (i.e., hot loops)
in the control cache is sufficient to capture the working set in all of
the benchmarks", giving the 8 x 64 x 32-bit = 2 KB control cache.

The sweep runs the benchmark with the most distinct hot loops (LU has
four elimination loops) and FFT through caches of 1..16 entries.
"""

from repro.evaluation.experiments import ucode_cache_ablation
from repro.evaluation.report import render_ablation


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

