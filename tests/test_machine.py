"""Integration tests for the full machine: translation lifecycle, caching,
latency, blacklisting, and pre-translation."""

import gc
import weakref

import pytest

import repro.system.machine as machine_module
from repro.core.scalarize import build_liquid_program
from repro.kernels.suite import build_kernel
from repro.simd.accelerator import config_for_width
from repro.system.machine import Machine, MachineConfig, MachineError
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
