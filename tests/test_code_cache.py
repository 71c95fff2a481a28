"""The per-process code-object cache behind ``compile_closure``.

Each generated source is compiled once per process and its code object
``exec``-ed into every later caller's fresh namespace, so a second run
of the same program compiles nothing, computes the same result and
still pins none of its own objects once it returns.
"""

import gc
import sys
import threading
import traceback
from collections import Counter

import pytest

import repro.system.machine as machine_module
from repro.codegen import emit
from repro.core.scalarize import build_liquid_program
from repro.kernels.suite import build_kernel
from repro.observability import telemetry
from repro.simd.accelerator import config_for_width
from repro.system.machine import Machine, MachineConfig


@pytest.fixture
def empty_code_cache(monkeypatch):
    """A cold cache for this test only; the process-wide one is kept."""
    monkeypatch.setattr(emit, "_code", {})


def _run_fft():
    """One FFT width-8 run of a freshly built program, telemetry on:
    window closures, loop-timing closures and a chain kernel."""
    program = build_liquid_program(build_kernel("FFT"))
    telemetry.enable()
    try:
        result = Machine(MachineConfig(
            accelerator=config_for_width(8))).run(program)
    finally:
        telemetry.disable()
    wire = result.to_dict()
    counters = wire.pop("telemetry")["counters"]
    return wire, counters


def _per_kind(counters, family):
    prefix = f"codegen.{family}."
    return Counter({name[len(prefix):]: n for name, n in counters.items()
                    if name.startswith(prefix)})


def test_second_run_reuses_every_closure(empty_code_cache):
    first, first_counters = _run_fft()
    second, second_counters = _run_fft()
    compiled = _per_kind(first_counters, "compile")
    assert set(compiled) == {"superblock", "loop-timing", "numpy-kernel"}
    assert _per_kind(second_counters, "compile") == Counter()
    assert _per_kind(second_counters, "reuse") == \
        compiled + _per_kind(first_counters, "reuse")
    assert second == first


def test_full_cache_evicts_its_oldest_source(empty_code_cache, monkeypatch):
    monkeypatch.setattr(emit, "CODE_ENTRIES", 2)
    tel = telemetry.enable()
    outcomes = []
    try:
        for value in (1, 2, 3, 1, 3):
            compiles = tel.counters.get("codegen.compile.test", 0)
            fn = emit.compile_closure(f"def f():\n    return {value}",
                                      "<test:f@0>", {}, "f", kind="test")
            assert fn() == value
            compiled = tel.counters.get("codegen.compile.test", 0) > compiles
            outcomes.append("compile" if compiled else "reuse")
    finally:
        telemetry.disable()
    # 3 evicts 1, and 1 compiled again evicts 2; 3 is still cached.
    assert outcomes == ["compile"] * 4 + ["reuse"]
    assert len(emit._code) == 2


def test_threads_compiling_at_once_keep_the_bound(empty_code_cache,
                                                  monkeypatch):
    """Misses on several threads evict and insert one at a time: no
    eviction pops a key another thread already popped, and the cache
    never outgrows its bound."""
    monkeypatch.setattr(emit, "CODE_ENTRIES", 4)
    errors = []

    def work(offset):
        try:
            for n in range(1000):
                value = (7 * n + offset) % 24
                fn = emit.compile_closure(f"def f():\n    return {value}",
                                          "<test:f@0>", {}, "f")
                assert fn() == value
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(offset,))
                   for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(emit._code) <= 4


def test_same_source_under_another_filename_compiles_once(empty_code_cache):
    """The cache is keyed on the source alone; a closure reused under
    another filename still names its own in tracebacks, nested code
    objects (here a generator expression's) included."""
    source = "def f(x):\n    return sum(1 // v for v in x)"
    tel = telemetry.enable()
    try:
        first = emit.compile_closure(source, "<test:a@0>", {}, "f",
                                     kind="test")
        second = emit.compile_closure(source, "<test:b@0>", {}, "f",
                                      kind="test")
        counters = dict(tel.counters)
    finally:
        telemetry.disable()
    assert counters["codegen.compile.test"] == 1
    assert counters["codegen.reuse.test"] == 1
    assert len(emit._code) == 1
    assert first([1]) == second([1]) == 1
    assert first.__code__.co_filename == "<test:a@0>"
    assert second.__code__.co_filename == "<test:b@0>"
    with pytest.raises(ZeroDivisionError) as raised:
        second([0])
    frames = [frame.filename
              for frame in traceback.extract_tb(raised.value.__traceback__)]
    assert frames[-2:] == ["<test:b@0>", "<test:b@0>"]
    assert "<test:a@0>" not in frames


def test_warm_run_pins_no_run_object(empty_code_cache, monkeypatch):
    """Only code objects outlive a run: a run that compiles nothing
    leaves no reference to its memory buffer once it returns, with the
    cyclic collector off (``tests/test_machine.py::TestRunLifetime``)."""
    _run_fft()
    cached = dict(emit._code)
    buffers = []
    real_load = machine_module.load_program

    def load_program(*args, **kwargs):
        memory, symbols = real_load(*args, **kwargs)
        buffers.append(memory._bytes)
        return memory, symbols

    monkeypatch.setattr(machine_module, "load_program", load_program)
    program = build_liquid_program(build_kernel("FFT"))
    gc.disable()
    try:
        result = Machine(MachineConfig(
            accelerator=config_for_width(8))).run(program)
        assert result.successful_translations
        assert emit._code == cached
        del result, program
        buffer = buffers.pop()
        # Only ``buffer`` and getrefcount's own argument.
        assert sys.getrefcount(buffer) == 2
    finally:
        gc.enable()
