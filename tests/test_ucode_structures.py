"""Unit tests for the microcode buffer, cache, and hardware cost model."""

import pytest

from repro.core.translate.hw_model import (
    PAPER_AREA_MM2,
    PAPER_CRIT_PATH_GATES,
    PAPER_DELAY_NS,
    PAPER_TOTAL_CELLS,
    TranslatorHardwareModel,
)
from repro.core.translate.ucode_buffer import BufferOverflow, MicrocodeBuffer
from repro.core.translate.ucode_cache import MicrocodeCache, MicrocodeEntry
from repro.isa.instructions import Instruction, Reg
from repro.isa.program import Program


def _instr(op="nop", dst=None, srcs=()):
    return Instruction(op, dst=Reg(dst) if dst else None,
                       srcs=tuple(Reg(s) for s in srcs))


def _entry(function: str, n_instr: int = 3, ready: int = 0) -> MicrocodeEntry:
    fragment = Program(f"{function}_uc")
    for _ in range(n_instr):
        fragment.emit(_instr())
    fragment.labels["u_entry"] = 0
    fragment.entry = "u_entry"
    return MicrocodeEntry(function=function, fragment=fragment, width=8,
                          ready_cycle=ready)


class TestMicrocodeBuffer:
    def test_append_and_live_count(self):
        buf = MicrocodeBuffer(capacity=8)
        buf.append(0, [_instr(), _instr()])
        buf.append(1, [_instr()])
        assert buf.live_instruction_count() == 3
        assert len(buf.live_entries()) == 2

    def test_overflow_raises(self):
        buf = MicrocodeBuffer(capacity=2)
        buf.append(0, [_instr(), _instr()])
        with pytest.raises(BufferOverflow):
            buf.append(1, [_instr()])

    def test_kill_frees_capacity(self):
        buf = MicrocodeBuffer(capacity=2)
        entry = buf.append(0, [_instr(), _instr()])
        buf.kill(entry)
        buf.append(1, [_instr(), _instr()])  # fits again
        assert buf.live_instruction_count() == 2

    def test_peak_tracking(self):
        buf = MicrocodeBuffer(capacity=8)
        e = buf.append(0, [_instr()] * 5)
        buf.kill(e)
        buf.append(1, [_instr()])
        assert buf.peak_live == 5

    def test_reg_still_read(self):
        buf = MicrocodeBuffer(capacity=8)
        load = buf.append(0, [_instr("vld", dst="v1")], loads_reg="v1")
        buf.append(1, [_instr("vadd", dst="v2", srcs=("v1", "v3"))])
        assert buf.reg_still_read("v1", excluding=load)
        assert not buf.reg_still_read("v9")

    def test_entries_keep_order(self):
        buf = MicrocodeBuffer(capacity=8)
        for pc in (5, 7, 9):
            buf.append(pc, [_instr()])
        assert [e.source_pc for e in buf.live_entries()] == [5, 7, 9]


class TestMicrocodeCache:
    def test_insert_and_lookup(self):
        cache = MicrocodeCache(entries=2)
        cache.insert(_entry("f1"))
        assert cache.lookup("f1", now=10) is not None
        assert cache.lookup("f2", now=10) is None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_not_ready_counts_as_miss(self):
        cache = MicrocodeCache(entries=2)
        cache.insert(_entry("f1", ready=100))
        assert cache.lookup("f1", now=50) is None
        assert cache.stats.not_ready == 1
        assert cache.lookup("f1", now=100) is not None

    def test_lru_eviction(self):
        cache = MicrocodeCache(entries=2)
        cache.insert(_entry("a"))
        cache.insert(_entry("b"))
        cache.lookup("a", now=0)        # a becomes MRU
        evicted = cache.insert(_entry("c"))
        assert evicted.function == "b"
        assert cache.contains("a") and cache.contains("c")
        assert not cache.contains("b")
        assert cache.stats.evictions == 1

    def test_reinsert_same_function_no_eviction(self):
        cache = MicrocodeCache(entries=1)
        cache.insert(_entry("a"))
        assert cache.insert(_entry("a")) is None
        assert len(cache) == 1

    def test_paper_geometry_is_2kb(self):
        cache = MicrocodeCache(entries=8)
        assert cache.storage_bytes() == 2048

    def test_minimum_one_entry(self):
        with pytest.raises(ValueError):
            MicrocodeCache(entries=0)


class TestHardwareModel:
    def test_calibration_matches_table2(self):
        model = TranslatorHardwareModel()  # 8-wide reference
        assert model.total_cells() == PAPER_TOTAL_CELLS
        assert model.critical_path_gates() == PAPER_CRIT_PATH_GATES
        assert abs(model.delay_ns() - PAPER_DELAY_NS) < 0.01
        assert abs(model.area_mm2() - PAPER_AREA_MM2) < 0.001

    def test_frequency_above_650mhz(self):
        assert TranslatorHardwareModel().frequency_mhz() > 650

    def test_register_state_scales_linearly_with_width(self):
        narrow = TranslatorHardwareModel(width=4)
        wide = TranslatorHardwareModel(width=16)
        ref = TranslatorHardwareModel(width=8)
        assert abs(narrow.register_state_cells() * 2
                   - ref.register_state_cells()) <= 1
        assert wide.register_state_cells() == ref.register_state_cells() * 2

    def test_register_state_scales_with_register_count(self):
        more_regs = TranslatorHardwareModel(arch_registers=32)
        ref = TranslatorHardwareModel()
        assert more_regs.register_state_cells() == 2 * ref.register_state_cells()

    def test_buffer_scales_with_entries(self):
        half = TranslatorHardwareModel(buffer_entries=32)
        ref = TranslatorHardwareModel()
        assert half.buffer_cells() < ref.buffer_cells()
        assert half.buffer_sram_bytes() == 128

    def test_wider_translator_has_longer_critical_path(self):
        assert TranslatorHardwareModel(width=16).critical_path_gates() == 17
        assert TranslatorHardwareModel(width=32).critical_path_gates() == 18

    def test_breakdown_sums_to_total(self):
        model = TranslatorHardwareModel(width=16, buffer_entries=32)
        assert sum(model.breakdown().values()) == model.total_cells()

    def test_register_state_dominates_area(self):
        # Section 4.1: the register state is the largest block (~half).
        model = TranslatorHardwareModel()
        breakdown = model.breakdown()
        assert breakdown["register_state"] == max(breakdown.values())

    def test_table2_row_fields(self):
        row = TranslatorHardwareModel().table2_row()
        assert row["description"] == "8-wide Translator"
        assert row["area_cells"] == PAPER_TOTAL_CELLS


class TestMicrocodeEntryIdentity:
    """Content-based identity (docs/retranslation.md): entries with the
    same function, width, and encoded fragment bytes are interchangeable
    regardless of when they became ready or where they came from."""

    def test_equal_by_content_not_ready_cycle(self):
        a = _entry("fn", ready=0)
        b = _entry("fn", ready=0)
        assert a == b and hash(a) == hash(b)
        assert a.table_key == b.table_key

    def test_table_key_components(self):
        entry = _entry("fn")
        assert entry.table_key == ("fn", 8, entry.encoded_bytes())

    def test_differs_on_fragment_bytes(self):
        a = _entry("fn", n_instr=3)
        b = _entry("fn", n_instr=4)
        assert a != b and a.table_key != b.table_key

    def test_with_ready_cycle_preserves_encoding_memo(self):
        entry = _entry("fn", ready=7)
        raw = entry.encoded_bytes()
        clone = entry.with_ready_cycle(0)
        assert clone.ready_cycle == 0 and entry.ready_cycle == 7
        assert clone.encoded_bytes() is raw
        assert clone.table_key == entry.table_key

    def test_from_dict_round_trip_dedupes_with_fresh(self):
        fresh = _entry("fn")
        loaded = MicrocodeEntry.from_dict(fresh.to_dict())
        assert loaded == fresh
        assert loaded.encoded_bytes() == fresh.encoded_bytes()
        # Store-loaded and fresh entries key identically in the
        # machine's fragment tables, so a run never fuses them twice.
        assert len({fresh.table_key, loaded.table_key}) == 1
