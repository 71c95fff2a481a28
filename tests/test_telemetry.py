"""Unit and differential tests for the observability registry.

Covers the recording :class:`Telemetry` primitives (counters,
histograms, nested spans, JSON round-trip, per-run markers), the
:class:`NullTelemetry` shim's API parity, and — the load-bearing
property — that enabling telemetry changes *nothing* about simulation
results: identical cycle counts, identical run-cache keys, and
byte-identical persisted cache entries.
"""

import ast
import json
import re
from pathlib import Path

import pytest

from repro.codegen import emit
from repro.core.scalarize import build_baseline_program, build_liquid_program
from repro.evaluation.cli import FAST_SUBSET
from repro.evaluation.crosswidth import crosswidth_differential
from repro.evaluation.runcache import RunCache, run_key
from repro.evaluation.simserver import SimServer
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

from test_simserver import FIR_W4, post


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
        """``to_dict()`` is JSON-safe and loses nothing through
        ``json.dumps``/``json.loads`` (``repro telemetry --json``)."""
        wire = self._populated().to_dict()
        assert json.loads(json.dumps(wire)) == wire

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
    truthfully, and ``turbo.superblock.compiles`` the window closures
    built (one per fused loop, however many windows run)."""

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
        # The mov and the halt run per instruction; the self-loop at
        # pc 1, entered by falling through, runs every trip in three
        # windows (cap, cap, rest) of one window closure.
        assert counters["turbo.superblock.compiles"] == 1
        assert counters["turbo.loop.windows"] == 3
        assert data["histograms"]["turbo.loop.trips"] == {
            "count": 3, "total": self.TRIPS, "min": 123,
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
            mov r0, #0
        loop:
            mov r1, A
            ldw r2, [A + #1]
            stw r2, [r1 + #2]
            add r0, r0, #1
            cmp r0, #3
            blt loop
            halt
        """)])
        # One self-loop, fused once however many trips it runs: a
        # symbol-source move is its one executor step.
        assert counters["codegen.superblock.inline"] == 5
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
    """``translate.fused_blocks`` counts self-loop windows run while a
    translation is in flight, ``translate.recording_windows`` those of
    them that record values for it; fragment code runs as kernels or
    reference steps and compiles no window closure."""

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

    def test_recording_windows_are_fused_blocks(self):
        """An observed loop's trips after its first record their loads'
        values in one window; a baseline run translates nothing."""
        counters = self._counters(accelerator=config_for_width(8))
        assert 0 < counters["translate.recording_windows"] \
            <= counters["translate.fused_blocks"]
        telemetry.enable()
        try:
            result = Machine(MachineConfig()).run(
                build_baseline_program(build_kernel("FFT")))
        finally:
            telemetry.disable()
        assert "translate.recording_windows" not in \
            result.telemetry["counters"]

    def test_interrupts_keep_observation_per_instruction(self):
        counters = self._counters(accelerator=config_for_width(8),
                                  interrupt_interval=500)
        assert counters["translate.attempts"] > 0
        assert "translate.fused_blocks" not in counters

    def test_planned_fragment_blocks_compile_no_closure(self):
        """Every window closure the run builds (compiled, or exec-ed
        from a code object an earlier run compiled) is one of the main
        program's self-loop fusions."""
        counters = self._counters(accelerator=config_for_width(8))
        assert counters["macro.kernel.invocations"] > 0
        built = (counters.get("codegen.compile.superblock", 0)
                 + counters.get("codegen.reuse.superblock", 0))
        assert built == counters["turbo.superblock.compiles"]


class TestCompileBudget:
    """A run builds fused ``run`` closures, loop-timing closures and
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
        # Closures built: compiled here or reused from an earlier run.
        kinds = {name.split(".", 2)[2] for name in counters
                 if name.startswith(("codegen.compile.", "codegen.reuse."))}
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


ROOT = Path(__file__).resolve().parents[1]
CATALOG = ROOT / "docs" / "observability.md"


def _catalog_names():
    """(name, regex) per name in the first column of the counter
    catalog.

    ``a.b.c`` / ``.d`` names ``a.b.c`` and ``a.b.d``; ``{x,y}`` is
    either; a ``<reason>``-style placeholder or a ``*`` matches any
    suffix.
    """
    text = CATALOG.read_text(encoding="utf-8")
    section = text.split("### Counter catalog", 1)[1].split("\n\n", 2)[1]
    names = []
    for row in section.splitlines()[2:]:
        cells = re.findall(r"`([^`]+)`", row.split("|")[1])
        prefix = cells[0][:cells[0].rfind(".") + 1]
        for name in cells:
            if name.startswith("."):
                name = prefix + name[1:]
            regex = re.escape(name)
            regex = re.sub(r"\\\{(.+?)\\\}",
                           lambda m: "(?:" + m.group(1).replace(",", "|")
                           + ")", regex)
            regex = re.sub(r"<[^>]+>|\\\*", ".+", regex)
            names.append((name, re.compile(regex + r"\Z")))
    return names


def _source_literals():
    """Every string constant under ``src/repro/``, f-string parts
    included."""
    literals = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        literals.update(node.value for node in ast.walk(tree)
                        if isinstance(node, ast.Constant)
                        and isinstance(node.value, str))
    return literals


@pytest.fixture(scope="module")
def emitted_counters(tmp_path_factory):
    """Every counter a telemetry-on corpus emits: the fast subset's
    Liquid w8 and baseline runs, one run-cache store and load, one FIR
    w4 -> w8 cross-width differential, and one ``repro serve`` cold and
    warm request."""
    tmp_path = tmp_path_factory.mktemp("corpus")
    tel = telemetry.enable()
    try:
        for name in FAST_SUBSET:
            kernel = build_kernel(name)
            Machine(MachineConfig(accelerator=config_for_width(8))).run(
                build_liquid_program(kernel))
            result = Machine(MachineConfig()).run(
                build_baseline_program(kernel))
        cache = RunCache(tmp_path / "runs")
        cache.store("0" * 64, result)
        assert cache.load("0" * 64) is not None
        assert crosswidth_differential("FIR", 4, 8, engines=("fast",))["ok"]
        server = SimServer(jobs=1, cache=RunCache(tmp_path / "served"))
        server.start()
        try:
            assert [post(server, FIR_W4)[1]["source"]
                    for _ in range(2)] == ["cold", "hit"]
        finally:
            server.shutdown()
        return set(tel.to_dict()["counters"])
    finally:
        telemetry.disable()


def test_emitted_counters_are_cataloged(emitted_counters):
    """Every counter the corpus emits has a row in
    ``docs/observability.md``'s catalog."""
    patterns = [regex for _, regex in _catalog_names()]
    assert {"serve.cold", "serve.hits", "runcache.stores",
            "retranslate.attempts", "machine.preloaded_fragments"} \
        <= emitted_counters
    missing = sorted(name for name in emitted_counters
                     if not any(p.match(name) for p in patterns))
    assert not missing, f"counters missing from {CATALOG.name}: {missing}"


def test_cataloged_counters_are_emitted_or_named(emitted_counters):
    """Every catalog name is emitted by the corpus, or the source still
    spells it: as a string literal, or for a ``<placeholder>`` or ``*``
    name, a literal starting with its fixed prefix.  A row whose counter
    the code no longer emits fails here."""
    literals = _source_literals()
    stale = []
    for name, regex in _catalog_names():
        if any(regex.match(counter) for counter in emitted_counters):
            continue
        fixed = re.split(r"<|\*|\{", name, maxsplit=1)
        if len(fixed) == 1:
            named = name in literals
        else:
            named = any(literal.startswith(fixed[0]) for literal in literals)
        if not named:
            stale.append(name)
    assert not stale, f"{CATALOG.name} rows nothing emits: {stale}"
