"""Unit and differential tests for the observability registry.

Covers the recording :class:`Telemetry` primitives (counters,
histograms, nested spans, JSON round-trip, merge, per-run markers), the
:class:`NullTelemetry` shim's API parity, and — the load-bearing
property — that enabling telemetry changes *nothing* about simulation
results: identical cycle counts, identical run-cache keys, and
byte-identical persisted cache entries.
"""

import json

import pytest

from repro.codegen import emit
from repro.core.scalarize import build_baseline_program, build_liquid_program
from repro.evaluation.runcache import RunCache, run_key
from repro.interp.state import MachineState
from repro.interp.turbo import superblock_table_for
from repro.isa.assembler import assemble
from repro.isa.decoded import predecode
from repro.kernels.suite import BENCHMARK_ORDER, build_kernel
from repro.memory.cache import CacheConfig
from repro.observability import telemetry
from repro.observability.telemetry import NullTelemetry, Telemetry
from repro.pipeline.core import PipelineConfig, PipelineModel
from repro.simd.accelerator import config_for_width
from repro.system.loader import load_program
from repro.system.machine import LOOP_WINDOW_TRIPS, Machine, MachineConfig


@pytest.fixture(autouse=True)
def _restore_registry():
    """Every test leaves the process-wide registry disabled."""
    yield
    telemetry.disable()


class TestCounters:
    def test_count_accumulates(self):
        t = Telemetry()
        t.count("a.b")
        t.count("a.b", 4)
        assert t.counters == {"a.b": 5}

    def test_observe_tracks_count_total_min_max(self):
        t = Telemetry()
        for v in (3, 1, 7):
            t.observe("h", v)
        assert t.histograms["h"] == [3, 11, 1, 7]

    def test_marker_delta(self):
        t = Telemetry()
        t.count("x", 2)
        mark = t.marker()
        t.count("x", 3)
        t.count("y")
        t.count("z", 0)  # created but unchanged: not in the delta
        assert t.delta_since(mark) == {"x": 3, "y": 1}


class TestSpans:
    def test_nesting_builds_dotted_paths(self):
        t = Telemetry()
        with t.span("outer"):
            with t.span("inner"):
                pass
            with t.span("inner"):
                pass
        assert set(t.spans) == {"outer", "outer.inner"}
        assert t.spans["outer.inner"][0] == 2
        assert t.spans["outer"][0] == 1

    def test_out_of_order_exit_raises(self):
        t = Telemetry()
        outer, inner = t.span("outer"), t.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError, match="innermost"):
            outer.__exit__(None, None, None)

    def test_record_span_accumulates(self):
        t = Telemetry()
        t.record_span("phase", 0.5)
        t.record_span("phase", 0.25)
        assert t.spans["phase"] == [2, 0.75]


class TestSerialization:
    def _populated(self) -> Telemetry:
        t = Telemetry()
        t.count("a", 3)
        t.count("b.c", 1)
        t.observe("h", 2.5)
        t.observe("h", 4.5)
        with t.span("s"):
            pass
        return t

    def test_json_round_trip(self):
        t = self._populated()
        wire = json.loads(json.dumps(t.to_dict()))
        assert Telemetry.from_dict(wire).to_dict() == t.to_dict()

    def test_merge_folds_everything(self):
        a, b = self._populated(), self._populated()
        a.merge(b)
        assert a.counters == {"a": 6, "b.c": 2}
        assert a.histograms["h"] == [4, 14.0, 2.5, 4.5]
        assert a.spans["s"][0] == 2

    def test_render_text_lists_counters(self):
        text = self._populated().render_text()
        assert "b.c" in text and "histograms" in text and "spans" in text


class TestNullShim:
    """The disabled registry accepts the full API and records nothing."""

    def _drive(self, t):
        t.count("a")
        t.count("a", 5)
        t.observe("h", 1.0)
        with t.span("outer"):
            with t.span("inner"):
                pass
        t.record_span("p", 0.1)
        return t.delta_since(t.marker()), t.to_dict()

    def test_parity_with_recording_api(self):
        delta, dump = self._drive(NullTelemetry())
        assert delta == {}
        assert dump == {"counters": {}, "histograms": {}, "spans": {}}
        # Same drive on the real registry *does* record — the shim's
        # emptiness is behavioral, not an API gap.
        delta, dump = self._drive(Telemetry())
        assert delta == {} and dump["counters"] == {"a": 6}

    def test_enabled_flags(self):
        assert NullTelemetry.enabled is False
        assert Telemetry.enabled is True


class TestModuleRegistry:
    def test_disabled_by_default(self):
        assert telemetry.is_enabled() is False
        assert isinstance(telemetry.get(), NullTelemetry)

    def test_enable_disable_cycle(self):
        t = telemetry.enable()
        assert telemetry.get() is t and telemetry.is_enabled()
        assert telemetry.enable() is t  # idempotent while enabled
        telemetry.disable()
        assert not telemetry.is_enabled()


class TestDifferential:
    """Telemetry must be invisible to simulation results and the cache."""

    def _config(self):
        return MachineConfig(accelerator=config_for_width(4))

    def test_results_and_cache_bytes_identical(self, tmp_path):
        program = build_liquid_program(build_kernel("FIR"))
        config = self._config()
        key_before = run_key(program, config)

        off = Machine(config).run(program)
        telemetry.enable()
        try:
            on = Machine(config).run(program)
        finally:
            telemetry.disable()

        assert on.cycles == off.cycles
        assert on.instructions == off.instructions
        assert off.telemetry is None
        assert on.telemetry is not None
        assert on.telemetry["counters"]["machine.runs"] == 1

        # The run key is config+program content only — telemetry state
        # cannot perturb it.
        assert run_key(program, config) == key_before

        # Persisted entries are byte-identical: store() strips the
        # telemetry payload before serializing.
        cache_off = RunCache(tmp_path / "off")
        cache_on = RunCache(tmp_path / "on")
        cache_off.store(key_before, off)
        cache_on.store(key_before, on)
        assert (cache_off.path_for(key_before).read_bytes()
                == cache_on.path_for(key_before).read_bytes())

    def test_run_result_wire_format_additive(self):
        program = build_liquid_program(build_kernel("FIR"))
        config = self._config()
        off = Machine(config).run(program)
        assert "telemetry" not in off.to_dict()

        telemetry.enable()
        try:
            on = Machine(config).run(program)
        finally:
            telemetry.disable()
        wire = on.to_dict()
        assert wire["telemetry"] == on.telemetry
        # Round-trips, and old payloads without the key still load.
        from repro.system.metrics import RunResult
        assert RunResult.from_dict(wire).telemetry == on.telemetry
        del wire["telemetry"]
        assert RunResult.from_dict(wire).telemetry is None


class TestLoopWindowCounters:
    """``turbo.loop.*`` counts the fast engine's self-loop windows
    truthfully, and ``turbo.superblock.lookups`` counts block
    dispatches (a window is one dispatch, however many trips)."""

    TRIPS = 2 * LOOP_WINDOW_TRIPS + 123

    def _run(self, body_len=1, **config):
        body = "\n".join(f"add r{1 + i % 3}, r{1 + i % 3}, #1"
                         for i in range(body_len))
        program = assemble(f"""
        main:
            mov r0, #0
        loop:
            {body}
            add r0, r0, #1
            cmp r0, #{self.TRIPS}
            blt loop
            halt
        """)
        tel = telemetry.enable()
        try:
            Machine(MachineConfig(**config)).run(program)
            return tel.to_dict()
        finally:
            telemetry.disable()

    def test_windows_trips_and_dispatches(self):
        data = self._run()
        counters = data["counters"]
        # Dispatches: the entry block (mov + trip 1, whose branch
        # targets pc 1, not its own entry), three windows of the
        # self-loop at pc 1 (cap, cap, rest), and the halt block.
        assert counters["turbo.superblock.lookups"] == 5
        assert counters["turbo.loop.windows"] == 3
        assert data["histograms"]["turbo.loop.trips"] == {
            "count": 3, "total": self.TRIPS - 1, "min": 122,
            "max": LOOP_WINDOW_TRIPS}
        assert not any(name.startswith("turbo.loop.fallback.")
                       for name in counters)

    def test_fallback_reasons(self):
        unaligned = self._run(pipeline=PipelineConfig(code_base=0x1002))
        assert unaligned["counters"]["turbo.loop.fallback.fetch-mode"] == 3
        # 70 body rows span 9+ lines of an 8-set direct-mapped I-cache.
        icache = CacheConfig(size_bytes=256, assoc=1, line_bytes=32)
        conflict = self._run(body_len=70,
                             pipeline=PipelineConfig(icache=icache))
        assert conflict["counters"][
            "turbo.loop.fallback.icache-conflict"] == 3


class TestFusedPathCounters:
    """``codegen.superblock.inline`` / ``.chained.<opcode>`` say which
    path each fused instruction took, counted once per fusion."""

    def _counters(self, programs):
        tel = telemetry.enable()
        try:
            for program in programs:
                Machine(MachineConfig()).run(program)
            return tel.to_dict()["counters"]
        finally:
            telemetry.disable()

    def test_counts_are_per_static_instruction(self):
        counters = self._counters([assemble("""
        .data A i32 4 = 0
        main:
            mov r1, A
            ldw r2, [A + #1]
            stw r2, [r1 + #2]
            halt
        """)])
        # One block: a symbol-source move is the one executor step.
        assert counters["codegen.superblock.inline"] == 3
        assert {name: n for name, n in counters.items()
                if name.startswith("codegen.superblock.chained.")} == {
                    "codegen.superblock.chained.mov": 1}

    def test_suite_baselines_chain_no_inline_shape(self):
        """Every instruction of the 15 baseline programs, the FFT mask
        idiom's float-register ``and``/``orr`` included, runs inline."""
        counters = self._counters(
            build_baseline_program(build_kernel(name))
            for name in BENCHMARK_ORDER)
        chained = sorted(name for name in counters
                         if name.startswith("codegen.superblock.chained."))
        assert counters["codegen.superblock.inline"] > 0
        assert chained == []


class TestObservedCallCounters:
    """``translate.fused_blocks`` counts block dispatches while a
    translation is in flight, ``translate.fused_finishes`` the attempts
    a fused block's ``ret`` finished; fragment blocks the kernel plan
    covers compile no fused closure."""

    def _counters(self, **config):
        program = build_liquid_program(build_kernel("FFT"))
        telemetry.enable()
        try:
            result = Machine(MachineConfig(**config)).run(program)
        finally:
            telemetry.disable()
        return result.telemetry["counters"]

    def test_fused_blocks_during_observation(self):
        counters = self._counters(accelerator=config_for_width(8))
        assert counters["translate.fused_blocks"] > 0
        # A successful attempt observes its own ret per instruction.
        assert "translate.fused_finishes" not in counters

    def test_aborted_attempts_end_in_fused_ret_blocks(self):
        counters = self._counters(accelerator=config_for_width(8),
                                  max_ucode_instructions=2)
        aborts = counters["translate.abort.ucode-buffer-overflow"]
        assert 0 < counters["translate.fused_finishes"] <= aborts
        assert counters["translate.fused_blocks"] >= \
            counters["translate.fused_finishes"]

    def test_interrupts_keep_observation_per_instruction(self):
        counters = self._counters(accelerator=config_for_width(8),
                                  interrupt_interval=500)
        assert counters["translate.attempts"] > 0
        assert "translate.fused_blocks" not in counters

    def test_planned_fragment_blocks_compile_no_closure(self):
        counters = self._counters(accelerator=config_for_width(8))
        assert counters["macro.kernel.invocations"] > 0
        assert counters.get("turbo.fragment.compiles", 0) == 0
        assert counters.get("turbo.fragment.lookups", 0) == 0


class TestCompileBudget:
    """A run compiles fused ``run`` closures, loop-timing closures and
    numpy kernels only: a per-block timing closure would cost more to
    compile than it saves over the few ``account_block`` charges a
    block gets, so every block is charged by the row loop."""

    COMPILED_KINDS = {"superblock", "loop-timing", "numpy-kernel"}

    @pytest.mark.parametrize("width", [8, None],
                             ids=["liquid-w8", "baseline"])
    def test_fft_compiles_no_block_timing(self, width):
        kernel = build_kernel("FFT")
        if width is None:
            program, accel = build_baseline_program(kernel), None
        else:
            program = build_liquid_program(kernel)
            accel = config_for_width(width)
        telemetry.enable()
        try:
            result = Machine(MachineConfig(accelerator=accel)).run(program)
        finally:
            telemetry.disable()
        counters = result.telemetry["counters"]
        prefix = "codegen.compile."
        kinds = {name[len(prefix):] for name in counters
                 if name.startswith(prefix)}
        assert "superblock" in kinds
        assert kinds <= self.COMPILED_KINDS
        assert "codegen.superblock.lowered.block-timing" not in counters

    def test_timing_at_compiles_nothing(self, monkeypatch):
        program = build_baseline_program(build_kernel("FFT"))
        memory, symbols = load_program(program)
        blocks = superblock_table_for(
            predecode(program), PipelineModel(), None, None,
            MachineState(program, memory, symbols))
        compiles = []
        real_compile = emit.compile_closure

        def counting_compile(*args, **kwargs):
            compiles.append(kwargs.get("kind"))
            return real_compile(*args, **kwargs)

        monkeypatch.setattr(emit, "compile_closure", counting_compile)
        timings = [blocks.timing_at(pc)
                   for pc in range(len(program.instructions))]
        assert sum(timing.count for timing in timings) > 0
        assert compiles == []
