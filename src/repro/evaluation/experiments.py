"""Experiment drivers: one function per table/figure of the paper.

Each driver returns plain data (lists of row dicts) so tests can assert
on it and the benchmark harness can print it.

A driver that simulates reads exactly the mapping ``{label:
RunRequest}`` its ``*_requests`` declaration returns, through one
:meth:`EvalContext.results` call, so the two cannot drift apart.  The
context's :class:`~repro.evaluation.runner.RunScheduler` deduplicates
requests, consults the persistent run cache, can fan work out across
worker processes, and keeps the only memo of results.  A caller (the
CLI's prefetch phase) can run the union of several declarations in one
batch first; the drivers then read memo hits.  See
docs/evaluation-runner.md.

Experiment index (see DESIGN.md section 4):

========  =========================================================
E1        :func:`table2_hw_cost` — translator synthesis estimates
E2        :func:`table5_outlined_sizes` — instructions per function
E3        :func:`table6_call_distances` — first-two-call distances
E4        :func:`figure6_speedups` — speedup vs. width
E5        :func:`native_overhead` — Liquid vs. built-in-ISA callout
E6        :func:`code_size_overhead` — binary growth
E7        :func:`ucode_cache_ablation` — cache entries sweep
E8        :func:`translation_latency_ablation` — cycles/instr sweep
========  =========================================================
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.core.scalarize import (
    DEFAULT_MVL,
    build_baseline_program,
    build_liquid_program,
)
from repro.core.translate.hw_model import TranslatorHardwareModel
from repro.evaluation.runner import RunRequest, RunScheduler
from repro.isa.encoding import encoded_size
from repro.isa.program import Program
from repro.kernels.suite import BENCHMARK_ORDER, build_kernel
from repro.memory.cache import CacheConfig
from repro.pipeline.core import PipelineConfig
from repro.simd.accelerator import config_for_width
from repro.system.machine import MachineConfig
from repro.system.metrics import RunResult, outlined_function_sizes

DEFAULT_WIDTHS: Tuple[int, ...] = (2, 4, 8, 16)

Label = TypeVar("Label")


class EvalContext:
    """Builds programs and requests, and answers declarations.

    ``engine`` selects the execution engine for every request built
    through this context (see docs/execution-engines.md); results are
    bit-identical either way, only wall-clock time differs.

    Every run goes through *scheduler* (default: in-process, no
    persistent cache — bit-identical to simulating directly), whose
    memo keeps the results; the context keeps none.  Pass a
    :class:`~repro.evaluation.runner.RunScheduler` with ``jobs > 1``
    and/or a :class:`~repro.evaluation.runcache.RunCache` to parallelize
    and persist.
    """

    def __init__(self, benchmarks: Optional[Sequence[str]] = None,
                 engine: str = "fast",
                 scheduler: Optional[RunScheduler] = None) -> None:
        self.benchmarks = list(BENCHMARK_ORDER if benchmarks is None
                               else benchmarks)
        self.engine = engine
        self.scheduler = scheduler if scheduler is not None \
            else RunScheduler(jobs=1)
        self._programs: Dict[Tuple[str, str], Program] = {}

    # -- program construction -------------------------------------------------

    def baseline_program(self, benchmark: str) -> Program:
        key = (benchmark, "baseline")
        if key not in self._programs:
            kernel = build_kernel(benchmark)
            self._programs[key] = build_baseline_program(kernel, DEFAULT_MVL)
        return self._programs[key]

    def liquid_program(self, benchmark: str) -> Program:
        key = (benchmark, "liquid")
        if key not in self._programs:
            kernel = build_kernel(benchmark)
            self._programs[key] = build_liquid_program(kernel, DEFAULT_MVL)
        return self._programs[key]

    # -- request construction ----------------------------------------------------

    def baseline_request(self, benchmark: str, **config_kwargs) -> RunRequest:
        return RunRequest(benchmark, "baseline",
                          MachineConfig(engine=self.engine, **config_kwargs))

    def liquid_request(self, benchmark: str, width: int, *,
                       pretranslate: bool = False,
                       factor: int = 1, **config_kwargs) -> RunRequest:
        config = MachineConfig(accelerator=config_for_width(width),
                               pretranslate=pretranslate,
                               engine=self.engine, **config_kwargs)
        return RunRequest(benchmark, "liquid", config, repeat_factor=factor)

    # -- machine runs ------------------------------------------------------------

    def results(self, requests: Dict[Label, RunRequest]
                ) -> Dict[Label, RunResult]:
        """Answer a declaration ``{label: request}`` as
        ``{label: result}`` with one scheduler batch."""
        answers = self.scheduler.run_many(requests.values())
        return {label: answers[request]
                for label, request in requests.items()}


# --------------------------------------------------------------------------
# E1 — Table 2
# --------------------------------------------------------------------------


def table2_hw_cost(widths: Iterable[int] = (8,)) -> List[dict]:
    """Translator synthesis estimates (paper Table 2 + width ablation)."""
    rows = []
    for width in widths:
        model = TranslatorHardwareModel(width=width)
        row = model.table2_row()
        row["breakdown"] = model.breakdown()
        rows.append(row)
    return rows


# --------------------------------------------------------------------------
# E2 — Table 5
# --------------------------------------------------------------------------


def table5_outlined_sizes(ctx: Optional[EvalContext] = None) -> List[dict]:
    """Scalar instructions per outlined hot loop (mean and max)."""
    ctx = ctx or EvalContext()
    rows = []
    for benchmark in ctx.benchmarks:
        sizes = outlined_function_sizes(ctx.liquid_program(benchmark))
        values = list(sizes.values())
        rows.append({
            "benchmark": benchmark,
            "mean": round(statistics.mean(values), 1),
            "max": max(values),
            "functions": sizes,
        })
    return rows


# --------------------------------------------------------------------------
# E3 — Table 6
# --------------------------------------------------------------------------


def table6_requests(ctx: EvalContext, width: int = 8) -> Dict[str, RunRequest]:
    """Runs :func:`table6_call_distances` reads, by benchmark."""
    return {b: ctx.liquid_request(b, width) for b in ctx.benchmarks}


def table6_call_distances(ctx: Optional[EvalContext] = None,
                          width: int = 8) -> List[dict]:
    """Cycles between the first two calls of each outlined hot loop.

    Reported in the paper's buckets: <150, <300 (i.e. 150-300), >300,
    plus the mean distance over all hot loops.
    """
    ctx = ctx or EvalContext()
    runs = ctx.results(table6_requests(ctx, width))
    rows = []
    for benchmark in ctx.benchmarks:
        run = runs[benchmark]
        distances = [
            stats.first_two_call_distance
            for stats in run.functions.values()
            if stats.first_two_call_distance is not None
        ]
        rows.append({
            "benchmark": benchmark,
            "lt150": sum(1 for d in distances if d < 150),
            "lt300": sum(1 for d in distances if 150 <= d < 300),
            "gt300": sum(1 for d in distances if d >= 300),
            "mean": round(statistics.mean(distances)) if distances else 0,
            "distances": distances,
        })
    return rows


# --------------------------------------------------------------------------
# E4 — Figure 6
# --------------------------------------------------------------------------


def figure6_requests(ctx: EvalContext,
                     widths: Iterable[int] = DEFAULT_WIDTHS
                     ) -> Dict[Tuple[str, object], RunRequest]:
    """Runs :func:`figure6_speedups` reads (and ``repro sweep``/``run``),
    by ``(benchmark, "baseline")`` and ``(benchmark, width)``."""
    requests = {}
    for benchmark in ctx.benchmarks:
        requests[(benchmark, "baseline")] = ctx.baseline_request(benchmark)
        for width in widths:
            requests[(benchmark, width)] = ctx.liquid_request(benchmark,
                                                              width)
    return requests


def figure6_speedups(ctx: Optional[EvalContext] = None,
                     widths: Iterable[int] = DEFAULT_WIDTHS) -> List[dict]:
    """Speedup of the Liquid binary over the no-SIMD scalar baseline."""
    ctx = ctx or EvalContext()
    runs = ctx.results(figure6_requests(ctx, widths))
    rows = []
    for benchmark in ctx.benchmarks:
        base = runs[(benchmark, "baseline")]
        speedups = {}
        for width in widths:
            run = runs[(benchmark, width)]
            speedups[width] = round(run.speedup_over(base), 3)
        rows.append({"benchmark": benchmark, "speedups": speedups,
                     "baseline_cycles": base.cycles})
    return rows


# --------------------------------------------------------------------------
# E5 — Figure 6 callout (native vs Liquid overhead)
# --------------------------------------------------------------------------


def native_overhead_requests(ctx: EvalContext, width: int = 16
                             ) -> Dict[Tuple[str, str], RunRequest]:
    """Runs :func:`native_overhead` reads, by ``(benchmark, kind)``:
    Liquid or native (pretranslated), at the 1x or 2x schedule."""
    requests = {}
    for b in ctx.benchmarks:
        requests[(b, "baseline")] = ctx.baseline_request(b)
        requests[(b, "liquid")] = ctx.liquid_request(b, width)
        requests[(b, "liquid2")] = ctx.liquid_request(b, width, factor=2)
        requests[(b, "native")] = ctx.liquid_request(b, width,
                                                     pretranslate=True)
        requests[(b, "native2")] = ctx.liquid_request(
            b, width, pretranslate=True, factor=2)
    return requests


def native_overhead(ctx: Optional[EvalContext] = None,
                    width: int = 16) -> List[dict]:
    """Speedup lost to dynamic translation vs. built-in ISA support.

    The paper measures this by treating outlined functions as native
    SIMD from their first call ("the simulator was modified to eliminate
    control generation") and reports a worst-case delta of 0.001 speedup
    (FIR).  Its hot loops execute many thousands of times, so the
    translation cost — which is *one-time* (the first call or two of each
    loop runs scalar) — amortizes to nothing.  Our schedules repeat far
    fewer times for simulation-time reasons, so this experiment separates
    the two components the paper's single number conflates:

    * ``one_time_cycles`` — the entire measured cost of dynamic
      translation (extra cycles of the Liquid run over the
      pretranslated run),
    * ``steady_slowdown_pct`` — the *per-repetition* cost once microcode
      is cached, measured as the slope between a 1x and a 2x schedule;
      by construction the injected microcode is identical, so this is
      the paper-comparable number and should be ~0,
    * ``overhead`` — the raw speedup delta at our (short) schedule
      lengths, for completeness.
    """
    ctx = ctx or EvalContext()
    runs = ctx.results(native_overhead_requests(ctx, width))
    rows = []
    for benchmark in ctx.benchmarks:
        base, liquid, native, liquid2, native2 = (
            runs[(benchmark, name)]
            for name in ("baseline", "liquid", "native", "liquid2",
                         "native2"))
        liquid_slope = liquid2.cycles - liquid.cycles
        native_slope = native2.cycles - native.cycles
        s_liquid = liquid.speedup_over(base)
        s_native = native.speedup_over(base)
        rows.append({
            "benchmark": benchmark,
            "liquid_speedup": round(s_liquid, 4),
            "native_speedup": round(s_native, 4),
            "overhead": round(s_native - s_liquid, 4),
            "one_time_cycles": liquid.cycles - native.cycles,
            "steady_slowdown_pct": round(
                100.0 * (liquid_slope - native_slope) / native_slope, 4)
            if native_slope else 0.0,
        })
    return rows


# --------------------------------------------------------------------------
# E6 — code size overhead
# --------------------------------------------------------------------------


def code_size_overhead(ctx: Optional[EvalContext] = None,
                       mvl: int = DEFAULT_MVL) -> List[dict]:
    """Binary size growth of the Liquid binary over the baseline.

    Counts the three sources the paper names: outlining (bl/ret),
    idiom expansion, and data alignment to the MVL.  The paper's maximum
    was <1% (hydro2d).
    """
    ctx = ctx or EvalContext()
    rows = []
    for benchmark in ctx.benchmarks:
        base = encoded_size(ctx.baseline_program(benchmark), mvl=mvl)
        liquid = encoded_size(ctx.liquid_program(benchmark), mvl=mvl)
        rows.append({
            "benchmark": benchmark,
            "baseline_bytes": base,
            "liquid_bytes": liquid,
            "overhead_pct": round(100.0 * (liquid - base) / base, 3),
        })
    return rows


# --------------------------------------------------------------------------
# E7 — microcode cache sizing
# --------------------------------------------------------------------------


def ucode_cache_ablation_requests(ctx: EvalContext, benchmark: str = "FFT",
                                  width: int = 8,
                                  entry_counts: Iterable[int] =
                                  (1, 2, 4, 8, 16)) -> Dict[int, RunRequest]:
    """Runs :func:`ucode_cache_ablation` reads, by entry count."""
    return {entries: ctx.liquid_request(benchmark, width,
                                        ucode_cache_entries=entries)
            for entries in entry_counts}


def ucode_cache_ablation(benchmark: str = "FFT", width: int = 8,
                         entry_counts: Iterable[int] = (1, 2, 4, 8, 16),
                         ctx: Optional[EvalContext] = None) -> List[dict]:
    """Sweep microcode cache entries; 8 should capture every working set.

    Reports SIMD-run fraction and cycles per geometry.  The paper found
    "eight or more SIMD code sequences ... is sufficient to capture the
    working set in all of the benchmarks".

    Default benchmarks differ by entry point on purpose: this driver
    defaults to FFT (two hot loops — shows the 1-entry thrash cleanly),
    while the CLI's ``--ucache-benchmark`` defaults to LU, whose four
    elimination loops are the largest working set in the suite and the
    sharpest demonstration of the paper's 8-entry sufficiency claim.
    """
    ctx = ctx or EvalContext()
    runs = ctx.results(ucode_cache_ablation_requests(ctx, benchmark, width,
                                                     entry_counts))
    rows = []
    for entries, run in runs.items():
        calls = sum(s.calls for s in run.functions.values())
        simd = sum(s.simd_runs for s in run.functions.values())
        rows.append({
            "benchmark": benchmark,
            "entries": entries,
            "cycles": run.cycles,
            "simd_run_fraction": round(simd / calls, 3) if calls else 0.0,
            "evictions": run.ucode_cache.evictions,
        })
    return rows


# --------------------------------------------------------------------------
# E8 — translation latency tolerance
# --------------------------------------------------------------------------


def software_translation_requests(ctx: EvalContext,
                                  benchmarks: Optional[Sequence[str]] = None,
                                  width: int = 8,
                                  software_cpi: int = 30
                                  ) -> Dict[Tuple[str, str], RunRequest]:
    """Runs :func:`software_translation_comparison` reads, by
    ``(benchmark, "hardware" | "software")``."""
    requests = {}
    for benchmark in benchmarks or _JIT_DEFAULT_BENCHMARKS:
        requests[(benchmark, "hardware")] = ctx.liquid_request(benchmark,
                                                               width)
        requests[(benchmark, "software")] = ctx.liquid_request(
            benchmark, width, translation_mode="software",
            software_cycles_per_instruction=software_cpi)
    return requests


_JIT_DEFAULT_BENCHMARKS = ("MPEG2 Dec.", "GSM Enc.", "LU", "FIR")


def software_translation_comparison(benchmarks: Optional[Sequence[str]] = None,
                                    width: int = 8,
                                    software_cpi: int = 30,
                                    ctx: Optional[EvalContext] = None
                                    ) -> List[dict]:
    """Extension E9: hardware vs. software (JIT) dynamic translation.

    The paper chooses hardware translation but notes "nothing about our
    virtualization technique precludes software-based translation"
    (section 2).  This experiment runs both: the JIT variant charges its
    work to the main core as a stall (``software_cpi`` cycles per
    observed instruction) but makes microcode available immediately.
    Both are one-time costs, so both amortize to zero — the measured
    difference is the (small) constant the paper's hardware buys.
    """
    ctx = ctx or EvalContext()
    runs = ctx.results(software_translation_requests(ctx, benchmarks, width,
                                                     software_cpi))
    rows = []
    for benchmark in benchmarks or _JIT_DEFAULT_BENCHMARKS:
        hw = runs[(benchmark, "hardware")]
        sw = runs[(benchmark, "software")]
        rows.append({
            "benchmark": benchmark,
            "hardware_cycles": hw.cycles,
            "software_cycles": sw.cycles,
            "jit_cost_pct": round(100.0 * (sw.cycles - hw.cycles) / hw.cycles,
                                  3),
            "hw_simd_runs": sum(s.simd_runs for s in hw.functions.values()),
            "sw_simd_runs": sum(s.simd_runs for s in sw.functions.values()),
        })
    return rows


def _memory_pipeline(penalty: int) -> PipelineConfig:
    return PipelineConfig(
        icache=CacheConfig(miss_penalty=penalty),
        dcache=CacheConfig(miss_penalty=penalty),
    )


def memory_sensitivity_requests(ctx: EvalContext,
                                benchmarks: Optional[Sequence[str]] = None,
                                width: int = 8,
                                miss_penalties: Iterable[int] = (0, 30, 100)
                                ) -> Dict[Tuple[str, int, str], RunRequest]:
    """Runs :func:`memory_sensitivity` reads, by ``(benchmark, miss
    penalty, "baseline" | "liquid")``."""
    requests = {}
    for benchmark in benchmarks or ("179.art", "FIR"):
        for penalty in miss_penalties:
            pipe = _memory_pipeline(penalty)
            requests[(benchmark, penalty, "baseline")] = \
                ctx.baseline_request(benchmark, pipeline=pipe)
            requests[(benchmark, penalty, "liquid")] = ctx.liquid_request(
                benchmark, width, pipeline=pipe)
    return requests


def memory_sensitivity(benchmarks: Optional[Sequence[str]] = None,
                       width: int = 8,
                       miss_penalties: Iterable[int] = (0, 30, 100),
                       ctx: Optional[EvalContext] = None) -> List[dict]:
    """Extension E11: how much of each speedup the memory system gates.

    The paper attributes 179.art's poor speedup to "many cache misses in
    its hot loops" and FIR's record speedup partly to having "very few
    cache misses".  Sweeping the miss penalty makes that attribution
    causal: on an ideal memory system art's SIMD speedup should open up,
    while FIR's should barely move.
    """
    ctx = ctx or EvalContext()
    runs = ctx.results(memory_sensitivity_requests(ctx, benchmarks, width,
                                                   miss_penalties))
    rows = []
    for benchmark in benchmarks or ("179.art", "FIR"):
        speedups = {}
        for penalty in miss_penalties:
            base = runs[(benchmark, penalty, "baseline")]
            liquid = runs[(benchmark, penalty, "liquid")]
            speedups[penalty] = round(liquid.speedup_over(base), 3)
        rows.append({"benchmark": benchmark, "speedups": speedups})
    return rows


def observation_point_requests(ctx: EvalContext,
                               benchmarks: Optional[Sequence[str]] = None,
                               width: int = 8
                               ) -> Dict[Tuple[str, str], RunRequest]:
    """Runs :func:`observation_point_comparison` reads, by
    ``(benchmark, "retirement" | "decode")``."""
    requests = {}
    for benchmark in benchmarks or _OBSERVATION_DEFAULT_BENCHMARKS:
        requests[(benchmark, "retirement")] = ctx.liquid_request(benchmark,
                                                                 width)
        requests[(benchmark, "decode")] = ctx.liquid_request(
            benchmark, width, observation_point="decode")
    return requests


_OBSERVATION_DEFAULT_BENCHMARKS = ("FFT", "FIR", "093.nasa7", "MPEG2 Dec.")


def observation_point_comparison(benchmarks: Optional[Sequence[str]] = None,
                                 width: int = 8,
                                 ctx: Optional[EvalContext] = None
                                 ) -> List[dict]:
    """Extension E10: decode-time vs. post-retirement translation.

    Section 4 weighs the two hardware tap points.  Decode-time
    translation finishes with zero post-retirement latency, but it never
    sees produced data values, so loops whose translation needs them —
    permutations, lane-constant materialization — must stay scalar.
    Post-retirement (the paper's choice) sees everything and its latency
    is hidden by Table 6's call distances.
    """
    ctx = ctx or EvalContext()
    runs = ctx.results(observation_point_requests(ctx, benchmarks, width))
    rows = []
    for benchmark in benchmarks or _OBSERVATION_DEFAULT_BENCHMARKS:
        retire = runs[(benchmark, "retirement")]
        decode = runs[(benchmark, "decode")]
        rows.append({
            "benchmark": benchmark,
            "retirement_cycles": retire.cycles,
            "decode_cycles": decode.cycles,
            "retirement_translated": retire.successful_translations,
            "decode_translated": decode.successful_translations,
            "decode_penalty_pct": round(
                100.0 * (decode.cycles - retire.cycles) / retire.cycles, 2),
        })
    return rows


def translation_latency_requests(ctx: EvalContext,
                                 benchmark: str = "171.swim", width: int = 8,
                                 cycles_per_instruction: Iterable[int] =
                                 (1, 10, 50, 100, 500, 5000)
                                 ) -> Dict[int, RunRequest]:
    """Runs :func:`translation_latency_ablation` reads, by translator
    cycles per instruction."""
    return {cpi: ctx.liquid_request(benchmark, width,
                                    translation_cycles_per_instruction=cpi)
            for cpi in cycles_per_instruction}


def translation_latency_ablation(benchmark: str = "171.swim", width: int = 8,
                                 cycles_per_instruction: Iterable[int] =
                                 (1, 10, 50, 100, 500, 5000),
                                 ctx: Optional[EvalContext] = None
                                 ) -> List[dict]:
    """Sweep translator speed; performance should degrade only slowly.

    The paper argues post-retirement translation "could have taken tens
    of cycles per scalar instruction without affecting performance"
    because outlined calls are >300 cycles apart (Table 6).
    """
    ctx = ctx or EvalContext()
    runs = ctx.results(translation_latency_requests(
        ctx, benchmark, width, cycles_per_instruction))
    rows = []
    baseline_cycles = None
    for cpi, run in runs.items():
        if baseline_cycles is None:
            baseline_cycles = run.cycles
        rows.append({
            "benchmark": benchmark,
            "cycles_per_instruction": cpi,
            "cycles": run.cycles,
            "slowdown_pct": round(
                100.0 * (run.cycles - baseline_cycles) / baseline_cycles, 3),
            "scalar_runs": sum(s.scalar_runs for s in run.functions.values()),
        })
    return rows
