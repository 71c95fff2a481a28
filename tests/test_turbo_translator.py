"""Translator regression on the fused path.

Untraced, the fast engine materializes no :class:`RetireEvent` objects
inside self-loop windows — but the dynamic translator is an *observer*.
While a translation is in flight, the machine runs a self-loop fused
once every pc in it has retired in the attempt
(:meth:`DynamicTranslator.pending_values` is not None).  When some of
its loads still fill value collectors, the window records the values
those loads wrote and hands them to
:meth:`DynamicTranslator.record_values`; any other retirement there
would change nothing.  Everything else runs on the per-instruction path
and is observed, so an untraced attempt observes each pc once, unless a
load still owed values is one a window cannot record (not run inline).

So the untraced translator sees the eager (traced) stream minus events
that were either ignored when they retired or whose values are in
their collectors by the next observed event.  These tests pin that
contract on outlined functions whose translation starts and completes
mid-run: the fused stream is an in-order subsequence of the eager one;
replaying the skipped events into a deep copy of the translator at the
next observed event changes none of its state; ``ignores`` never turns
false again once true; and the :class:`TranslationResult` is identical
(byte-identical microcode for successes, identical
:class:`AbortReason` and blacklist behaviour for failures), also where
a trip stores over the element it loaded or feeds a later trip's load.
With ``interrupt_interval`` set, the translator still sees every event.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.core.scalarize import build_liquid_program
from repro.core.translate.translator import AbortReason, DynamicTranslator
from repro.isa.assembler import assemble
from repro.isa.encoding import encode_program
from repro.kernels.suite import build_kernel
from repro.simd.accelerator import config_for_width
from repro.system.machine import Machine, MachineConfig
from repro.system.trace import TraceRecorder


@pytest.fixture(scope="module")
def fft_program():
    return build_liquid_program(build_kernel("FFT"))


def _state(translator):
    """Everything :meth:`DynamicTranslator.observe` may change."""
    return (translator.seen, translator.collectors, vars(translator.regs),
            vars(translator.buffer), translator.scopes,
            translator.pending_perms, translator.pending_consts,
            translator._sat, translator._minmax, translator._last_dp,
            translator.aborted, translator.abort_detail, translator.done)


def _run_recording(monkeypatch, program, traced, eager=None,
                   **config_kwargs):
    """Run *program*; also capture what the translator observed.

    Returns ``(result, streams)`` where ``streams`` is a list of
    ``(function, [observed RetireEvent, ...])`` in begin() order.

    With *eager* (the streams of a traced run of the same program) the
    run is checked as it goes.  Each observed event must come next, in
    order, in the eager stream.  The eager events skipped on the way
    (and those left at ``finish``) must each be ignored by the
    translator when they retire, and replaying them into a deep copy of
    it must leave its state unchanged.
    """
    streams = []
    pending = {}  # translator -> iterator over its eager stream

    class Recording(DynamicTranslator):
        def begin(self, target):
            self._observed = []
            if eager is not None:
                pending[self] = iter(eager[len(streams)][1])
            streams.append((target, self._observed))
            return super().begin(target)

        def observe(self, event):
            if eager is not None:
                self._replay_skipped(event)
            self._observed.append(event)
            return super().observe(event)

        def finish(self, ret_cycle=0):
            if eager is not None:
                self._replay_skipped(None)
            return super().finish(ret_cycle)

        def _replay_skipped(self, event):
            skipped = []
            for eager_event in pending[self]:
                if eager_event == event:
                    break
                skipped.append(eager_event)
            else:
                assert event is None, \
                    "fused stream is not an in-order subsequence of the " \
                    "eager stream"
            if not skipped:
                return
            probe = copy.deepcopy(
                self, {id(self.resolve_label): self.resolve_label})
            for skipped_event in skipped:
                assert probe.ignores(skipped_event.pc), \
                    "skipped an event the translator needed: " \
                    f"{skipped_event}"
                DynamicTranslator.observe(probe, skipped_event)
            assert _state(probe) == _state(self)

    monkeypatch.setattr("repro.system.machine.DynamicTranslator", Recording)
    tracer = TraceRecorder() if traced else None
    result = Machine(MachineConfig(**config_kwargs), tracer=tracer).run(program)
    return result, streams


def _run_pair(monkeypatch, program, **config_kwargs):
    """Eager (traced) then fused (untraced, checked against the eager
    streams) runs: ``(eager_result, eager_streams, fused_result,
    fused_streams)``."""
    eager_result, eager_streams = _run_recording(
        monkeypatch, program, True, **config_kwargs)
    fused_result, fused_streams = _run_recording(
        monkeypatch, program, False, eager=eager_streams, **config_kwargs)
    assert [fn for fn, _ in eager_streams] == [fn for fn, _ in fused_streams]
    return eager_result, eager_streams, fused_result, fused_streams


def _observed(streams) -> int:
    return sum(len(events) for _, events in streams)


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
    """Mid-run translation: the fused run observes the eager stream
    minus events the translator ignores, and translates identically."""
    eager_result, eager_streams, fused_result, fused_streams = _run_pair(
        monkeypatch, fft_program, accelerator=config_for_width(8))
    assert eager_streams, "FFT must trigger at least one translation"
    assert _observed(fused_streams) < _observed(eager_streams), \
        "the fused run must skip ignored events"

    _assert_same_translations(eager_result, fused_result)
    assert eager_result.to_dict() == fused_result.to_dict()
    ok = [t for t in eager_result.translations if t.ok]
    assert ok, "FFT stage must translate successfully"


def test_abort_path_identical(monkeypatch, fft_program):
    """No permutation repertoire: both paths abort identically and the
    blacklisted function keeps running in scalar form forever."""
    accel = dataclasses.replace(config_for_width(8), permutations=())
    eager_result, eager_streams, fused_result, fused_streams = _run_pair(
        monkeypatch, fft_program, accelerator=accel)

    aborted = [t for t in eager_result.translations
               if t.reason is AbortReason.UNSUPPORTED_PATTERN]
    assert aborted, "removing permutations must abort the FFT stage"
    _assert_same_translations(eager_result, fused_result)
    assert _observed(fused_streams) < _observed(eager_streams)

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


@pytest.mark.parametrize("permutations", [None, ()],
                         ids=["standard", "no-permutations"])
def test_ignores_never_turns_false(monkeypatch, fft_program, permutations):
    """Across the whole eager FFT stream, a pc the translator ignores
    stays ignored — what makes fusing past it safe."""
    accel = config_for_width(8)
    if permutations is not None:
        accel = dataclasses.replace(accel, permutations=permutations)
    pcs = range(len(fft_program.instructions))
    checked = []

    class Checking(DynamicTranslator):
        def begin(self, target):
            self._ignored = set()
            return super().begin(target)

        def observe(self, event):
            super().observe(event)
            ignored = {pc for pc in pcs if self.ignores(pc)}
            assert ignored >= self._ignored, \
                f"ignores() turned false for {self._ignored - ignored}"
            self._ignored = ignored
            checked.append(len(ignored))

    monkeypatch.setattr("repro.system.machine.DynamicTranslator", Checking)
    Machine(MachineConfig(accelerator=accel),
            tracer=TraceRecorder()).run(fft_program)
    assert checked and checked[-1] == len(pcs)


def test_buffer_overflow_abort_identical(monkeypatch, fft_program):
    """A 2-entry microcode buffer overflows identically when fused; an
    aborted attempt still ends at the first ``ret``."""
    eager_result, _, fused_result, _ = _run_pair(
        monkeypatch, fft_program,
        accelerator=config_for_width(8), max_ucode_instructions=2)
    assert eager_result.translations
    assert all(not t.ok for t in eager_result.translations)
    assert {t.reason for t in eager_result.translations} == \
        {AbortReason.BUFFER_OVERFLOW}
    _assert_same_translations(eager_result, fused_result)
    assert eager_result.to_dict() == fused_result.to_dict()


def test_interrupt_interval_observes_every_event(monkeypatch, fft_program):
    """With external aborts, whose instant is read after every
    instruction, the untraced translator gets the full eager stream."""
    config = dict(accelerator=config_for_width(8), interrupt_interval=500)
    eager_result, eager_streams = _run_recording(
        monkeypatch, fft_program, True, **config)
    fused_result, fused_streams = _run_recording(
        monkeypatch, fft_program, False, **config)
    assert eager_streams
    assert fused_streams == eager_streams
    _assert_same_translations(eager_result, fused_result)
    assert eager_result.to_dict() == fused_result.to_dict()


@pytest.mark.parametrize("width", [4, 16])
def test_untraced_attempt_observes_each_pc_once(monkeypatch, fft_program,
                                                width):
    """Trips 2..2W of an observed loop run as one recording window, not
    as observed steps: no untraced attempt observes a pc twice."""
    _, streams = _run_recording(monkeypatch, fft_program, False,
                                accelerator=config_for_width(width))
    assert streams
    for function, events in streams:
        pcs = [event.pc for event in events]
        assert len(pcs) == len(set(pcs)), function


def _liquid_loop(data, body):
    """A program that calls the outlined ``work`` twice: the first call
    is observed, the second runs the microcode if it translated."""
    return assemble("\n".join(
        data + ["main:", "blo work", "blo work", "halt",
                "work:", "mov r0, #0", "loop:", *body,
                "add r0, r0, #1", "cmp r0, #64", "blt loop", "ret"]))


def _ints(values):
    return ", ".join(str(v) for v in values)


#: Each trip loads M[i] and X[i] and then stores new values over both;
#: M[i] is the lane mask the translator materializes from the loaded
#: values, so recording them from memory after the trip would change
#: the microcode.
LOAD_THEN_STORE = _liquid_loop(
    [f".data M i32 64 = {_ints([-1, 0] * 32)}",
     ".data X f32 64 = 1.5", ".data Y f32 64 = 0.0"],
    ["ldw r1, [M + r0]", "ldf f1, [X + r0]", "and f2, f1, r1",
     "stf f2, [Y + r0]", "fadd f1, f1, f1", "stf f1, [X + r0]",
     "add r2, r1, #1", "stw r2, [M + r0]"])

#: Each trip gathers T[i + P[i]] through the butterfly offsets +1, -1
#: and stores P[i] to T[i]: an odd trip loads what the trip before it
#: stored, an even trip the initial T[i + 1].  The gathered values are
#: the lane mask, as above.
STORE_FEEDS_LATER_LOAD = _liquid_loop(
    [f".data P i32 64 = {_ints([1, -1] * 32)}", ".data T i32 65 = 7",
     ".data X f32 64 = 1.5", ".data Y f32 64 = 0.0"],
    ["ldw r13, [P + r0]", "add r12, r0, r13", "ldw r3, [T + r12]",
     "ldf f1, [X + r0]", "and f2, f1, r3", "stf f2, [Y + r0]",
     "stw r13, [T + r0]"])


@pytest.mark.parametrize("width", [4, 16])
@pytest.mark.parametrize("program", [LOAD_THEN_STORE,
                                     STORE_FEEDS_LATER_LOAD],
                         ids=["load-then-store", "store-feeds-later-load"])
def test_recorded_values_are_the_loads_own(monkeypatch, program, width):
    """The values a recording window hands the translator are the ones
    its loads wrote, in trip order: the lane constant they resolve to
    is the traced run's, byte for byte."""
    eager_result, eager_streams, fused_result, fused_streams = _run_pair(
        monkeypatch, program, accelerator=config_for_width(width))
    assert [t.ok for t in eager_result.translations] == [True]
    assert _observed(fused_streams) < _observed(eager_streams)
    _assert_same_translations(eager_result, fused_result)
    assert eager_result.to_dict() == fused_result.to_dict()


@pytest.mark.parametrize("width", [4, 16])
def test_load_no_window_records_is_observed(monkeypatch, width):
    """An ``ldf`` into an integer register runs as an executor step in
    a window, which records only inline loads: its loop stays on the
    per-instruction path until its collector holds 2 x width values,
    and only then runs a plain window."""
    program = _liquid_loop([".data A f32 64 = 2.5", ".data B i32 64 = 0"],
                           ["ldf r1, [A + r0]", "stw r1, [B + r0]"])
    eager_result, _, fused_result, fused_streams = _run_pair(
        monkeypatch, program, accelerator=config_for_width(width))
    [(_, events)] = fused_streams
    load_pc = program.label_index("loop")
    assert [event.pc for event in events].count(load_pc) == 2 * width
    _assert_same_translations(eager_result, fused_result)
    assert eager_result.to_dict() == fused_result.to_dict()
