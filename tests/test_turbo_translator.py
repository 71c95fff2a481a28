"""Translator regression on the fused path.

Untraced, the fast engine materializes no :class:`RetireEvent` objects
inside fused superblocks — but the dynamic translator is an *observer*,
so while a translation is in flight the machine must drop back to the
per-instruction path and hand the translator exactly the eager event
stream a traced run (per-instruction everywhere) produces.  These tests
pin that contract: an outlined function whose translation starts and
completes mid-run observes an identical retire stream, and produces an
identical :class:`TranslationResult` (byte-identical microcode for
successes, identical :class:`AbortReason` and blacklist behaviour for
failures), whether the rest of the run is traced (eager) or not (fused).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.scalarize import build_liquid_program
from repro.core.translate.translator import AbortReason, DynamicTranslator
from repro.isa.encoding import encode_program
from repro.kernels.suite import build_kernel
from repro.simd.accelerator import config_for_width
from repro.system.machine import Machine, MachineConfig
from repro.system.trace import TraceRecorder


@pytest.fixture(scope="module")
def fft_program():
    return build_liquid_program(build_kernel("FFT"))


def _run_recording(monkeypatch, program, traced, **config_kwargs):
    """Run *program*; also capture what the translator observed.

    Returns ``(result, streams)`` where ``streams`` is a list of
    ``(function, [observed RetireEvent, ...])`` in begin() order.
    """
    streams = []

    class Recording(DynamicTranslator):
        def begin(self, target):
            self._observed = []
            streams.append((target, self._observed))
            return super().begin(target)

        def observe(self, event):
            self._observed.append(event)
            return super().observe(event)

    monkeypatch.setattr("repro.system.machine.DynamicTranslator", Recording)
    tracer = TraceRecorder() if traced else None
    result = Machine(MachineConfig(**config_kwargs), tracer=tracer).run(program)
    return result, streams


def _assert_same_translations(eager_result, fused_result):
    eager, fused = eager_result.translations, fused_result.translations
    assert len(eager) == len(fused)
    for f, t in zip(eager, fused):
        assert f.function == t.function
        assert f.ok == t.ok
        assert f.reason == t.reason
        if f.ok:
            assert t.entry is not None
            assert f.entry.width == t.entry.width
            assert encode_program(f.entry.fragment) == \
                encode_program(t.entry.fragment)


def test_observed_stream_identical(monkeypatch, fft_program):
    """Mid-run translation sees the same events traced or fused."""
    eager_result, eager_streams = _run_recording(
        monkeypatch, fft_program, True, accelerator=config_for_width(8))
    fused_result, fused_streams = _run_recording(
        monkeypatch, fft_program, False, accelerator=config_for_width(8))

    assert [fn for fn, _ in eager_streams] == [fn for fn, _ in fused_streams]
    for (fn, eager_events), (_, fused_events) in zip(eager_streams,
                                                    fused_streams):
        assert len(eager_events) == len(fused_events), \
            f"observation count diverges for {fn}"
        for i, (f_ev, t_ev) in enumerate(zip(eager_events, fused_events)):
            assert f_ev == t_ev, \
                f"{fn}: observed event {i} diverges: {f_ev} != {t_ev}"
    assert eager_streams, "FFT must trigger at least one translation"

    _assert_same_translations(eager_result, fused_result)
    assert eager_result.to_dict() == fused_result.to_dict()
    ok = [t for t in eager_result.translations if t.ok]
    assert ok, "FFT stage must translate successfully"


def test_abort_path_identical(monkeypatch, fft_program):
    """No permutation repertoire: both paths abort identically and the
    blacklisted function keeps running in scalar form forever."""
    accel = dataclasses.replace(config_for_width(8), permutations=())
    eager_result, eager_streams = _run_recording(
        monkeypatch, fft_program, True, accelerator=accel)
    fused_result, fused_streams = _run_recording(
        monkeypatch, fft_program, False, accelerator=accel)

    aborted = [t for t in eager_result.translations
               if t.reason is AbortReason.UNSUPPORTED_PATTERN]
    assert aborted, "removing permutations must abort the FFT stage"
    _assert_same_translations(eager_result, fused_result)
    assert [fn for fn, _ in eager_streams] == [fn for fn, _ in fused_streams]
    for (_, eager_events), (_, fused_events) in zip(eager_streams,
                                                   fused_streams):
        assert eager_events == fused_events

    # Blacklist behaviour: the aborted function never runs as SIMD, and
    # it is only attempted once (one observation stream per function).
    for t in aborted:
        f_stats = eager_result.functions[t.function]
        t_stats = fused_result.functions[t.function]
        assert t_stats.simd_runs == f_stats.simd_runs == 0
        assert t_stats.scalar_runs == f_stats.scalar_runs
        assert t_stats.calls == f_stats.calls
    attempts = [fn for fn, _ in fused_streams]
    assert len(attempts) == len(set(attempts)), \
        "a blacklisted function must not be re-attempted"
    assert eager_result.to_dict() == fused_result.to_dict()


def test_buffer_overflow_abort_identical(monkeypatch, fft_program):
    """A 2-entry microcode buffer overflows identically when fused."""
    eager_result, _ = _run_recording(
        monkeypatch, fft_program, True,
        accelerator=config_for_width(8), max_ucode_instructions=2)
    fused_result, _ = _run_recording(
        monkeypatch, fft_program, False,
        accelerator=config_for_width(8), max_ucode_instructions=2)
    assert eager_result.translations
    assert all(not t.ok for t in eager_result.translations)
    assert {t.reason for t in eager_result.translations} == \
        {AbortReason.BUFFER_OVERFLOW}
    _assert_same_translations(eager_result, fused_result)
    assert eager_result.to_dict() == fused_result.to_dict()
