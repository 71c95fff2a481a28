"""Integration tests for the full machine: translation lifecycle, caching,
latency, blacklisting, and pre-translation."""

import gc
import sys
import weakref

import pytest

import repro.system.machine as machine_module
from repro.core.scalarize import build_baseline_program, build_liquid_program
from repro.isa.assembler import assemble
from repro.kernels.suite import build_kernel
from repro.memory.cache import CacheConfig
from repro.pipeline.core import PipelineConfig
from repro.simd.accelerator import config_for_width
from repro.system.machine import (
    LOOP_WINDOW_TRIPS,
    Machine,
    MachineConfig,
    MachineError,
)
from repro.system.metrics import arrays_equal, outlined_function_sizes

from conftest import all_variants, perm_kernel, run_program, sat_kernel, simple_kernel


class TestTranslationLifecycle:
    def test_first_call_runs_scalar(self):
        kernel = simple_kernel(calls=6)
        liquid = build_liquid_program(kernel)
        result = run_program(liquid, width=8)
        stats = result.functions["hot_fn"]
        assert stats.calls == 6
        assert stats.scalar_runs >= 1
        assert stats.simd_runs >= 1
        assert stats.scalar_runs + stats.simd_runs == 6

    def test_translation_succeeds_once(self):
        kernel = simple_kernel(calls=6)
        result = run_program(build_liquid_program(kernel), width=8)
        assert len(result.translations) == 1
        assert result.translations[0].ok
        assert result.successful_translations == 1

    def test_translation_latency_delays_availability(self):
        kernel = simple_kernel(calls=4)
        liquid = build_liquid_program(kernel)
        fast = run_program(liquid, width=8,
                           translation_cycles_per_instruction=1)
        slow = run_program(liquid, width=8,
                           translation_cycles_per_instruction=100000)
        # With an absurdly slow translator every call runs scalar.
        assert slow.functions["hot_fn"].simd_runs == 0
        assert fast.functions["hot_fn"].simd_runs > 0
        assert slow.cycles > fast.cycles

    def test_translation_disabled_runs_scalar(self):
        kernel = simple_kernel(calls=4)
        liquid = build_liquid_program(kernel)
        result = run_program(liquid, width=8, translation_enabled=False)
        assert result.ucode_cache is None
        assert result.pipeline.simd_instructions == 0

    def test_no_accelerator_runs_scalar(self):
        kernel = simple_kernel(calls=4)
        liquid = build_liquid_program(kernel)
        result = run_program(liquid)
        assert result.pipeline.simd_instructions == 0
        assert not result.translations

    def test_aborted_function_blacklisted(self):
        # bfly8 on a 4-wide machine aborts; only ONE attempt should be made.
        kernel = perm_kernel(calls=6, period=8)
        liquid = build_liquid_program(kernel)
        result = run_program(liquid, width=4)
        assert len(result.translations) == 1
        assert not result.translations[0].ok
        assert result.functions["hot_fn"].simd_runs == 0
        assert result.functions["hot_fn"].scalar_runs == 6

    def test_pretranslate_hits_from_first_call(self):
        kernel = simple_kernel(calls=4)
        liquid = build_liquid_program(kernel)
        result = run_program(liquid, width=8, pretranslate=True)
        assert result.functions["hot_fn"].scalar_runs == 0
        assert result.functions["hot_fn"].simd_runs == 4

    def test_pretranslate_preserves_results(self):
        kernel = simple_kernel(calls=4)
        liquid = build_liquid_program(kernel)
        normal = run_program(liquid, width=8)
        pre = run_program(liquid, width=8, pretranslate=True)
        assert arrays_equal(normal, pre)

    def test_call_cycles_recorded(self):
        kernel = simple_kernel(calls=4)
        result = run_program(build_liquid_program(kernel), width=8)
        stats = result.functions["hot_fn"]
        assert len(stats.call_cycles) == 4
        assert stats.first_two_call_distance > 0

    def test_microcode_smaller_than_scalar_execution(self):
        kernel = simple_kernel(calls=4)
        result = run_program(build_liquid_program(kernel), width=8)
        entry = result.translations[0].entry
        assert entry.simd_instruction_count <= entry.static_instructions


class TestRunLifetime:
    def test_generated_code_dies_with_the_run(self, monkeypatch):
        """Decode tables and fused closures live exactly as long as one
        ``Machine.run``: once the caller drops the program and the
        result, nothing else keeps them (or the program) alive."""
        refs = {}
        real_tables = machine_module.superblock_table_for

        def superblock_table_for(table, *args):
            blocks = real_tables(table, *args)
            refs["decoded"] = weakref.ref(table)
            refs["blocks"] = weakref.ref(blocks)
            block_at = blocks.block_at

            def first_block(pc):
                block = block_at(pc)
                refs.setdefault("closure", weakref.ref(block.run))
                return block
            blocks.block_at = first_block
            return blocks

        monkeypatch.setattr(machine_module, "superblock_table_for",
                            superblock_table_for)
        program = build_liquid_program(build_kernel("FIR"))
        config = MachineConfig(accelerator=config_for_width(8))
        result = Machine(config).run(program)
        assert result.successful_translations
        assert set(refs) == {"decoded", "blocks", "closure"}
        refs["program"] = weakref.ref(program)
        del program, result
        gc.collect()
        alive = sorted(name for name, ref in refs.items()
                       if ref() is not None)
        assert alive == []

    @pytest.mark.parametrize("liquid", [False, True],
                             ids=["scalar", "liquid"])
    def test_memory_buffer_is_not_pinned(self, liquid, monkeypatch):
        # The cyclic collector stays off: a generated closure's exec
        # namespace and the function form a cycle, so a buffer bound
        # into one would outlive the run until a collection (which the
        # weakref test above forces, and so cannot see).
        buffers = []
        real_load = machine_module.load_program

        def load_program(*args, **kwargs):
            memory, symbols = real_load(*args, **kwargs)
            buffers.append(memory._bytes)
            return memory, symbols

        monkeypatch.setattr(machine_module, "load_program", load_program)
        kernel = build_kernel("FIR")
        if liquid:
            program = build_liquid_program(kernel)
            config = MachineConfig(accelerator=config_for_width(8))
        else:
            program = build_baseline_program(kernel)
            config = MachineConfig()
        gc.disable()
        try:
            result = Machine(config).run(program)
            assert bool(result.successful_translations) == liquid
            del result
            buffer = buffers.pop()
            # Only ``buffer`` and getrefcount's own argument.
            assert sys.getrefcount(buffer) == 2
        finally:
            gc.enable()


class TestMarkingModes:
    def test_plain_bl_ignored_by_default(self):
        kernel = simple_kernel(calls=4)
        liquid = build_liquid_program(kernel, mark_opcode="bl")
        result = run_program(liquid, width=8)
        assert not result.translations
        assert result.pipeline.simd_instructions == 0

    def test_plain_bl_mode_translates(self):
        kernel = simple_kernel(calls=4)
        liquid = build_liquid_program(kernel, mark_opcode="bl")
        result = run_program(liquid, width=8, attempt_plain_bl=True)
        assert result.successful_translations == 1
        assert result.functions["hot_fn"].simd_runs > 0

    def test_invalid_mark_opcode(self):
        with pytest.raises(ValueError):
            build_liquid_program(simple_kernel(), mark_opcode="b")


class TestUcodeCacheIntegration:
    def test_cache_stats_populated(self):
        kernel = simple_kernel(calls=6)
        result = run_program(build_liquid_program(kernel), width=8)
        assert result.ucode_cache.lookups == 6
        assert result.ucode_cache.hits == result.functions["hot_fn"].simd_runs

    def test_single_entry_cache_still_works_for_one_loop(self):
        kernel = simple_kernel(calls=6)
        result = run_program(build_liquid_program(kernel), width=8,
                             ucode_cache_entries=1)
        assert result.functions["hot_fn"].simd_runs > 0


#: ``outer`` runs a translatable loop, then a marked call of ``inner``
#: (saving and restoring the link register around it) and an increment
#: of C[1]; ``inner`` increments C[0].  ``main`` calls ``outer`` 3 times.
NESTED_MARKED_CALL = """
.data A f32 16 = 1.0
.data B f32 16 = 0.0
.data C i32 2 = 0
main:
    mov r5, #0
top:
    blo outer
    add r5, r5, #1
    cmp r5, #3
    blt top
    halt
outer:
    mov r1, #0
loop:
    ldf f1, [A + r1]
    fadd f2, f1, f1
    stf f2, [B + r1]
    add r1, r1, #1
    cmp r1, #16
    blt loop
    mov r9, r14
    blo inner
    mov r14, r9
    ldw r2, [C + #1]
    add r2, r2, #1
    stw r2, [C + #1]
    ret
inner:
    ldw r3, [C + #0]
    add r3, r3, #1
    stw r3, [C + #0]
    ret
"""


class TestNestedMarkedCall:
    """A marked call that retires inside an observed call aborts the
    caller's translation (``nested-call``), exactly as a plain call
    does: the callee's ``ret`` must not finish the caller's translation
    at the wrong instruction."""

    @pytest.mark.parametrize("verify", [False, True])
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_callee_ret_does_not_finish_the_caller(self, engine, verify):
        program = assemble(NESTED_MARKED_CALL)
        plain = Machine(MachineConfig(engine=engine)).run(program)
        assert plain.arrays["C"] == [3, 3]
        result = Machine(MachineConfig(
            accelerator=config_for_width(4), engine=engine,
            verify_translations=verify)).run(program)
        assert arrays_equal(plain, result)
        outer = [t for t in result.translations if t.function == "outer"]
        assert [t.reason.value for t in outer] == ["nested-call"]
        assert result.functions["outer"].simd_runs == 0


class TestMachineGuards:
    def test_runaway_program_detected(self):
        from repro.isa.assembler import assemble
        program = assemble("main:\n    b main")
        with pytest.raises(MachineError):
            Machine(MachineConfig(max_steps=1000)).run(program)

    def test_execution_error_wrapped(self):
        from repro.isa.assembler import assemble
        # Store to a read-only array faults.
        program = assemble("""
        .rodata K i32 = 1
        main:
            mov r1, #5
            stw r1, [K + #0]
            halt
        """)
        with pytest.raises(MachineError):
            Machine(MachineConfig()).run(program)


def _counted_loop(trips: int, body=(), setup=()) -> str:
    """A main-program self-loop: *body* then a count-up back-branch."""
    return "\n".join([".data A i32 64 = 0", "main:", "mov r0, #0",
                      *setup, "loop:", *body, "add r0, r0, #1",
                      f"cmp r0, #{trips}", "blt loop", "halt"])


def _both_engines(source: str, **config):
    """(fast, reference) outcomes: ``to_dict()`` or the error text."""
    program = assemble(source)
    outcomes = []
    for engine in ("fast", "reference"):
        try:
            result = Machine(MachineConfig(engine=engine, **config)
                             ).run(program)
            outcomes.append(result.to_dict())
        except MachineError as exc:
            outcomes.append(f"MachineError: {exc}")
    return outcomes


#: The I-cache geometries where ``account_loop`` falls back to its
#: definition: a direct-mapped 256 B I-cache (the loop's lines may
#: conflict) and an unaligned code base (fetch mode 2: fetches may
#: straddle lines).
_FALLBACK_GEOMETRIES = (
    ("direct-mapped-icache",
     PipelineConfig(icache=CacheConfig(size_bytes=256, assoc=1,
                                       line_bytes=32))),
    ("unaligned-code-base", PipelineConfig(code_base=0x1002)),
)

#: (benchmark, Liquid width, or None for the scalar baseline).
_FALLBACK_RUNS = (("FIR", None), ("FFT", None), ("FIR", 4), ("FFT", 4))


class TestLoopWindows:
    """The fast engine charges a main-program self-loop a window of
    trips at a time (``PipelineModel.account_loop``).  Every way a
    window can end or decline must leave what the reference engine
    leaves, error text included."""

    BODY = ("ldw r2, [A + r1]", "add r2, r2, r0", "stw r2, [A + r1]",
            "add r1, r1, #4", "and r1, r1, #252")

    def test_loop_spans_several_windows(self):
        trips = 2 * LOOP_WINDOW_TRIPS + 123
        fast, ref = _both_engines(_counted_loop(trips, self.BODY,
                                                ("mov r1, #0",)))
        assert fast == ref
        assert fast["instructions"] == 2 + trips * 8 + 1

    @pytest.mark.parametrize("max_steps", [2 + 8 * 300 + 5, 8002, 8003])
    def test_step_limit_inside_a_window(self, max_steps):
        # The program retires 2 + 1000 * 8 + 1 = 8003 instructions.
        source = _counted_loop(1000, self.BODY, ("mov r1, #0",))
        fast, ref = _both_engines(source, max_steps=max_steps)
        assert fast == ref
        if max_steps < 8003:
            assert fast.startswith("MachineError: ") and "exceeded" in fast
        else:
            assert fast["instructions"] == 8003

    @pytest.mark.parametrize("max_steps", [None, 2502, 2503])
    def test_out_of_range_load_on_a_late_trip(self, max_steps):
        # r1 walks off the 4 MB memory image on trip 501, whose load is
        # instruction 2 + 5 * 500 + 1 = 2503: a step limit just below
        # it must stop the window before that trip runs.
        start = (1 << 22) - 4 * 500
        source = _counted_loop(
            1000, ("ldw r2, [r1 + #0]", "add r1, r1, #4"),
            (f"mov r1, #{start}",))
        config = {} if max_steps is None else {"max_steps": max_steps}
        fast, ref = _both_engines(source, **config)
        assert fast == ref
        assert fast.startswith("MachineError: ")
        assert ("exceeded" in fast) == (max_steps == 2502)

    def test_icache_conflict_falls_back(self):
        # 70 body instructions span 9+ lines of a direct-mapped 256 B
        # I-cache (8 sets), so the loop's own lines evict each other.
        body = tuple(f"add r{2 + i % 4}, r{2 + i % 4}, #{i}"
                     for i in range(70))
        icache = CacheConfig(size_bytes=256, assoc=1, line_bytes=32)
        fast, ref = _both_engines(_counted_loop(50, body),
                                  pipeline=PipelineConfig(icache=icache))
        assert fast == ref
        assert fast["icache"]["read_misses"] > 50

    def test_unaligned_code_base_falls_back(self):
        # Fetches may straddle lines: fetch mode 2.
        fast, ref = _both_engines(
            _counted_loop(500, self.BODY, ("mov r1, #0",)),
            pipeline=PipelineConfig(code_base=0x1002))
        assert fast == ref

    @pytest.mark.parametrize("pipeline, name, width", [
        pytest.param(pipeline, name, width,
                     id=geometry if (name, width) == ("FIR", None)
                     else f"{geometry}-{name}-"
                          f"{'baseline' if width is None else f'w{width}'}")
        for geometry, pipeline in _FALLBACK_GEOMETRIES
        for name, width in _FALLBACK_RUNS])
    def test_fallback_geometries_on_a_suite_baseline(self, pipeline, name,
                                                     width):
        # The Liquid runs also reach fragment blocks, observed calls and
        # bl/ret block terminators, all charged by account_block.
        kernel = build_kernel(name)
        if width is None:
            program, accel = build_baseline_program(kernel), None
        else:
            program = build_liquid_program(kernel)
            accel = config_for_width(width)
        fast = Machine(MachineConfig(accelerator=accel,
                                     pipeline=pipeline)).run(program)
        ref = Machine(MachineConfig(accelerator=accel, pipeline=pipeline,
                                    engine="reference")).run(program)
        assert fast.to_dict() == ref.to_dict()


class TestOutlinedSizes:
    def test_sizes_match_function_bodies(self):
        kernel = simple_kernel()
        liquid = build_liquid_program(kernel)
        sizes = outlined_function_sizes(liquid)
        assert set(sizes) == {"hot_fn"}
        # pre(1) + mov + 5 body + add/cmp/blt + post(1) + ret = 12
        assert sizes["hot_fn"] == 12


class TestCrossBinaryEquivalence:
    @pytest.mark.parametrize("width", [2, 4, 8, 16])
    def test_simple_kernel_all_paths_agree(self, width):
        kernel = simple_kernel(calls=3)
        baseline, liquid, native = all_variants(kernel, width=width)
        scalar_m = Machine(MachineConfig())
        accel_m = Machine(MachineConfig(
            accelerator=__import__("repro.simd.accelerator",
                                   fromlist=["config_for_width"]
                                   ).config_for_width(width)))
        r_base = scalar_m.run(baseline)
        r_liquid_scalar = scalar_m.run(liquid)   # Liquid binary, no SIMD HW
        r_liquid = accel_m.run(liquid)
        r_native = accel_m.run(native)
        assert arrays_equal(r_base, r_liquid_scalar)
        assert arrays_equal(r_base, r_liquid)
        assert arrays_equal(r_base, r_native)

    @pytest.mark.parametrize("width", [4, 8])
    def test_sat_kernel_agrees(self, width):
        kernel = sat_kernel(calls=3)
        baseline, liquid, _ = all_variants(kernel, width=width)
        r_base = run_program(baseline)
        r_liquid = run_program(liquid, width=width)
        assert arrays_equal(r_base, r_liquid)

    @pytest.mark.parametrize("mid_loop", [False, True])
    def test_perm_kernel_agrees(self, mid_loop):
        kernel = perm_kernel(calls=3, period=8, mid_loop=mid_loop)
        baseline, liquid, _ = all_variants(kernel, width=8)
        r_base = run_program(baseline)
        r_liquid = run_program(liquid, width=8)
        assert arrays_equal(r_base, r_liquid)
        assert r_liquid.successful_translations == 1


class TestVerificationOracle:
    def test_correct_translations_pass_verification(self):
        kernel = simple_kernel(calls=5)
        liquid = build_liquid_program(kernel)
        plain = run_program(liquid, width=8)
        verified = run_program(liquid, width=8, verify_translations=True)
        assert verified.successful_translations == 1
        assert arrays_equal(plain, verified)

    def test_verification_covers_fission_and_idioms(self):
        for factory in (lambda: perm_kernel(calls=4, period=4, mid_loop=True),
                        lambda: sat_kernel(calls=4)):
            liquid = build_liquid_program(factory())
            result = run_program(liquid, width=8, verify_translations=True)
            assert result.successful_translations == 1
            assert result.functions["hot_fn"].simd_runs > 0

    def test_failed_verification_discards_translation(self):
        # Force a mismatch by breaking the microcode after translation:
        # run with a monkeypatched verifier that always fails.
        kernel = simple_kernel(calls=5)
        liquid = build_liquid_program(kernel)
        machine = Machine(MachineConfig(
            accelerator=__import__("repro.simd.accelerator",
                                   fromlist=["config_for_width"]
                                   ).config_for_width(8),
            verify_translations=True))
        machine._verify_translation = lambda *a, **k: False
        result = machine.run(liquid)
        assert result.successful_translations == 0
        assert result.functions["hot_fn"].simd_runs == 0
        assert result.functions["hot_fn"].scalar_runs == 5
