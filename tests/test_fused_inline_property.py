"""Property battery: the fused block's inline shapes vs. the reference.

The superblock emitter (``repro.codegen.superblock._inline_lines``) runs
scalar loads and stores, ``fadd``/``fsub``/``fmul``,
``fmax``/``fmin``/``fabs``/``fneg``, conditional moves, wrapping
``add``/``sub`` and the float-register mask idiom (``and``/``orr``) as
straight Python over register banks (or, in a self-loop's window
closure, locals) and the memory buffer hoisted once per block, with
symbol bases, the memory size and its read-only ranges folded into
literals at fuse time.  Each inline form claims to compute exactly
what the reference executor step it replaces computes; every other
shape is such a step.

Hypothesis generates self-loop bodies drawn from every one of those
shapes (each load/store opcode and signedness, symbol and register
bases with no, immediate or register index, truncating ``i8``/``i16``
stores, conditional moves under whatever flags the trip left) over
memory seeded with binary32 bit patterns that include signed zeros,
infinities, quiet and signalling NaNs with payloads, and subnormals.
The fast engine must match ``engine="reference"``: the same
``to_dict()`` (float arrays compared by bit pattern, so NaN payloads
count) or the same ``MachineError`` text.

The fixed cases fault on a late trip of a self-loop window -- a store
into ``.rodata``, a store past the end of memory, a negative-address
load, a store fault after a chained executor step has counted itself
retired, a fault after an all-inline window has advanced an integer
register, a float accumulator and the flags -- and on an undefined
symbol, which must stay an executor step.  Each must leave the
reference's pc, retired count, message, registers and flags.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.system.machine as machine_module
from repro import arith
from repro.isa.assembler import assemble
from repro.isa.opcodes import ELEM_SIZES, LOAD_ELEM, STORE_ELEM
from repro.observability import telemetry
from repro.system.machine import Machine, MachineConfig, MachineError

INT_REGS = ("r2", "r3", "r4", "r5", "r6")
FLOAT_REGS = ("f1", "f2", "f3", "f4", "f5")
CONDS = ("eq", "ne", "lt", "le", "gt", "ge")
#: Words in the data array ``M`` every generated access stays inside.
WORDS = 32
MAX_TRIPS = 8

#: binary32 patterns the float shapes must get right bit for bit.
SPECIAL_BITS = (
    0x00000000, 0x80000000,              # +0, -0
    0x7F800000, 0xFF800000,              # +inf, -inf
    0x7FC00000, 0xFFC00000,              # quiet NaNs
    0x7FC12345, 0xFFD00001,              # quiet NaNs with payloads
    0x7F800001, 0xFFA00000,              # signalling NaNs
    0x00000001, 0x807FFFFF, 0x00400000,  # subnormals
    0x7F7FFFFF, 0x00800000,              # largest finite, smallest normal
    0x3F800000, 0xC1000000,              # 1.0, -8.0
    0xFFFFFFFF, 0x7FFFFFFF,              # all-ones and abs masks (NaNs)
)

#: Float immediates: exact, inexact in binary32, subnormal, signed zero.
FLOAT_IMMS = ("-8.0", "0.0", "-0.0", "1.0", "0.1", "1e-40", "-1e-45",
              "3.4e38")


def _signed(bits: int) -> int:
    return bits - (1 << 32) if bits >= 1 << 31 else bits


words = st.one_of(st.sampled_from(SPECIAL_BITS),
                  st.integers(0, (1 << 32) - 1)).map(_signed)
int_regs = st.sampled_from(INT_REGS)
float_regs = st.sampled_from(FLOAT_REGS)
wide_ints = st.one_of(st.integers(-(1 << 33), 1 << 33),
                      st.sampled_from((0x7FFFFFFF, -0x80000000, 0xFFFFFFFF,
                                       0x80000000, 0x12345678)))


@st.composite
def addresses(draw, scale: int) -> str:
    """``[base + index]`` inside ``M`` for an element of *scale* bytes:
    symbol or register base (``r1`` holds ``M``'s address) with no,
    immediate or register index (``r0`` counts trips)."""
    base = draw(st.sampled_from(("M", "r1")))
    index = draw(st.sampled_from(("none", "imm", "reg")))
    if index == "none":
        return f"[{base}]"
    if index == "reg":
        return f"[{base} + r0]"
    k = draw(st.integers(0, WORDS * 4 // scale - 1))
    return f"[{base} + #{k}]"


@st.composite
def loads(draw) -> str:
    opcode = draw(st.sampled_from(sorted(LOAD_ELEM)))
    elem = LOAD_ELEM[opcode][0]
    dst = draw(float_regs if elem == "f32" else int_regs)
    return f"{opcode} {dst}, {draw(addresses(ELEM_SIZES[elem]))}"


@st.composite
def stores(draw) -> str:
    opcode = draw(st.sampled_from(sorted(STORE_ELEM)))
    elem = STORE_ELEM[opcode]
    src = draw(float_regs if elem == "f32" else int_regs)
    return f"{opcode} {src}, {draw(addresses(ELEM_SIZES[elem]))}"


@st.composite
def cond_moves(draw) -> str:
    cond = draw(st.sampled_from(CONDS))
    if draw(st.booleans()):
        dst = draw(int_regs)
        src = draw(st.one_of(int_regs, wide_ints.map(lambda v: f"#{v}")))
        return f"mov{cond} {dst}, {src}"
    src = draw(st.one_of(float_regs,
                         st.sampled_from(FLOAT_IMMS).map(lambda v: f"#{v}")))
    return f"fmov{cond} {draw(float_regs)}, {src}"


@st.composite
def compares(draw) -> str:
    b = draw(st.one_of(int_regs, wide_ints.map(lambda v: f"#{v}")))
    return f"cmp {draw(int_regs)}, {b}"


@st.composite
def float_ops(draw) -> str:
    opcode = draw(st.sampled_from(("fmax", "fmin", "fabs", "fneg", "fadd",
                                   "fsub", "fmul")))
    dst, a = draw(float_regs), draw(float_regs)
    if opcode in ("fabs", "fneg"):
        return f"{opcode} {dst}, {a}"
    b = draw(st.one_of(float_regs,
                       st.sampled_from(FLOAT_IMMS).map(lambda v: f"#{v}")))
    return f"{opcode} {dst}, {a}, {b}"


@st.composite
def wrapping_alu(draw) -> str:
    opcode = draw(st.sampled_from(("add", "sub")))
    b = draw(st.one_of(int_regs, wide_ints.map(lambda v: f"#{v}")))
    return f"{opcode} {draw(int_regs)}, {draw(int_regs)}, {b}"


@st.composite
def float_masks(draw) -> str:
    """The FFT mask idiom: ``and Fd, Fa, Ri`` and ``orr Fd, Fa, Ri|Fb``."""
    opcode = draw(st.sampled_from(("and", "orr")))
    b = draw(int_regs if opcode == "and"
             else st.one_of(int_regs, float_regs))
    return f"{opcode} {draw(float_regs)}, {draw(float_regs)}, {b}"


body_instructions = st.one_of(loads(), stores(), cond_moves(), compares(),
                              float_ops(), wrapping_alu(), float_masks())


def _program_source(data, body, trips: int) -> str:
    """A self-loop over *body*: registers seeded from ``M`` before the
    loop, every scratch register dumped to ``O`` / ``F`` after it."""
    lines = [f".data M i32 {WORDS} = " + ", ".join(map(str, data)),
             f".data O i32 {len(INT_REGS)} = 0",
             f".data F f32 {len(FLOAT_REGS)} = 0.0",
             "main:", "mov r0, #0", "mov r1, M"]
    lines += [f"ldw {reg}, [M + #{k}]" for k, reg in enumerate(INT_REGS)]
    lines += [f"ldf {reg}, [M + #{k + len(INT_REGS)}]"
              for k, reg in enumerate(FLOAT_REGS)]
    lines += ["loop:", *body, "add r0, r0, #1", f"cmp r0, #{trips}",
              "blt loop"]
    lines += [f"stw {reg}, [O + #{k}]" for k, reg in enumerate(INT_REGS)]
    lines += [f"stf {reg}, [F + #{k}]" for k, reg in enumerate(FLOAT_REGS)]
    lines.append("halt")
    return "\n".join(lines)


def _by_bits(result: dict) -> dict:
    """*result* with float array elements as binary32 bit patterns."""
    result = dict(result)
    result.pop("telemetry", None)
    result["arrays"] = {
        name: [arith.float_bits(v) if isinstance(v, float) else v
               for v in values]
        for name, values in result["arrays"].items()}
    return result


@contextlib.contextmanager
def _counting():
    """Telemetry on for the block; yields the counters it recorded."""
    tel = telemetry.enable()
    counters = {}
    try:
        yield counters
        counters.update(tel.to_dict()["counters"])
    finally:
        telemetry.disable()


def _outcome(program, engine: str):
    """``to_dict()`` by bit pattern, or the ``MachineError`` text."""
    try:
        return _by_bits(Machine(MachineConfig(engine=engine)).run(program)
                        .to_dict())
    except MachineError as exc:
        return f"MachineError: {exc}"


@given(data=st.lists(words, min_size=WORDS, max_size=WORDS),
       body=st.lists(body_instructions, min_size=1, max_size=12),
       trips=st.integers(1, MAX_TRIPS))
# f1..f5 load five NaNs with distinct payloads.  The reference's
# float32 arithmetic keeps the second operand's payload; Python's
# binary64 ``+``/``*`` may keep either (CPython keeps the first once it
# has specialized the operation, some trips in).
@example(data=[_signed(b) for b in (SPECIAL_BITS * 2)[:WORDS]],
         body=["fadd f3, f1, f2", "fmul f4, f2, f5"], trips=16)
@settings(max_examples=150, deadline=None)
def test_inline_shapes_match_reference(data, body, trips):
    program = assemble(_program_source(data, body, trips))
    with _counting() as counters:
        fast = _outcome(program, "fast")
    assert fast == _outcome(program, "reference")
    # Everything but ``mov r1, M`` (a symbol source) ran inline, so the
    # comparison above exercised the inline forms, not the fallbacks.
    chained = {name for name in counters
               if name.startswith("codegen.superblock.chained.")}
    assert chained == {"codegen.superblock.chained.mov"}


# -- exhaustive edge pairs -----------------------------------------------------


def _pair_loop(values, body, outputs) -> str:
    """A self-loop over every ordered pair of *values* (words in
    ``V``): each trip loads pair ``r0`` as ``f1``/``f2`` and ``r2``/``r3``,
    then runs *body*, which stores into the *outputs* arrays."""
    n = len(values)
    firsts = [i for i in range(n) for _ in range(n)]
    seconds = [j for _ in range(n) for j in range(n)]
    lines = [".data V i32 = " + ", ".join(map(str, values)),
             ".data IA i32 = " + ", ".join(map(str, firsts)),
             ".data IB i32 = " + ", ".join(map(str, seconds))]
    lines += [f".data {name} {elem} {n * n} = 0" for name, elem in outputs]
    lines += ["main:", "mov r0, #0", "loop:",
              "ldw r4, [IA + r0]", "ldw r5, [IB + r0]",
              "ldf f1, [V + r4]", "ldf f2, [V + r5]",
              "ldw r2, [V + r4]", "ldw r3, [V + r5]",
              *body,
              "add r0, r0, #1", f"cmp r0, #{n * n}", "blt loop", "halt"]
    return "\n".join(lines)


def test_float_shapes_on_every_special_pair():
    """``fmax``/``fmin`` ties between signed zeros and NaNs in either
    operand, ``fabs``/``fneg`` of every special, immediates that tie
    with or round differently from the register value, the mask idiom
    with every special as the mask (``0``, all-ones, sign-only and abs
    among them) or as the second float, and ``fadd``/``fsub``/``fmul``
    rounding, overflowing, and choosing between two NaN payloads."""
    ops = [("fmax f3, f1, f2", "MX"), ("fmin f3, f1, f2", "MN"),
           ("fmax f3, f1, #-0.0", "MXZ"), ("fmin f3, f1, #0.0", "MNZ"),
           ("fmax f3, f1, #0.1", "MXI"), ("fmin f3, f2, #-8.0", "MNI"),
           ("fabs f3, f1", "AB"), ("fneg f3, f2", "NG"),
           ("and f3, f1, r3", "AM"), ("orr f3, f1, r3", "OM"),
           ("orr f3, f1, f2", "OF"), ("fadd f3, f1, f2", "AD"),
           ("fsub f3, f1, f2", "SB"), ("fmul f3, f1, f2", "ML"),
           ("fadd f3, f1, #0.1", "ADI"), ("fmul f3, f2, #3.4e38", "MLI")]
    body = []
    for instr, out in ops:
        body += [instr, f"stf f3, [{out} + r0]"]
    program = assemble(_pair_loop([_signed(b) for b in SPECIAL_BITS], body,
                                  [(out, "f32") for _, out in ops]))
    with _counting() as counters:
        fast = _outcome(program, "fast")
    assert fast == _outcome(program, "reference")
    assert isinstance(fast, dict)
    assert not [name for name in counters
                if name.startswith("codegen.superblock.chained.")]


def test_wrapping_add_sub_on_boundaries():
    """``add``/``sub`` results one past either end of the i32 range must
    wrap; a sign probe (``cmp`` + conditional moves) exposes a result
    that was stored unwrapped, which a masking ``stw`` would hide."""
    values = [0, 1, -1, 2, -2, 0x7FFFFFFF, -0x80000000, 0x7FFFFFFE,
              -0x7FFFFFFF, 0x40000000, -0x40000000]
    ops = [("add r6, r2, r3", "AD"), ("sub r6, r2, r3", "SB"),
           ("add r6, r2, #2147483647", "ADI"), ("sub r6, r3, #-2", "SBI"),
           ("add r6, r2, #4294967296", "ADW")]
    body = []
    for instr, out in ops:
        body += [instr, f"stw r6, [{out} + r0]",
                 "mov r7, #0", "cmp r6, #0", "movlt r7, #-1",
                 "movgt r7, #1", f"stb r7, [{out}S + r0]"]
    outputs = [(out, "i32") for _, out in ops]
    outputs += [(out + "S", "i8") for _, out in ops]
    program = assemble(_pair_loop(values, body, outputs))
    fast = _outcome(program, "fast")
    assert fast == _outcome(program, "reference")
    assert isinstance(fast, dict)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_immediates_take_the_generic_path():
    """Immediates whose binary32 (or exact) literal does not exist: the
    emitter declines these shapes, and the fused blocks must step the
    reference executor on them."""
    body = ["fadd f1, f1, #1e999", "fmul f2, f2, #-1e39",
            "fmax f3, f3, #1e999", "fmin f4, f4, #-1e999",
            "fmov f5, #1e999", "cmp r2, #1e999", "movlt r3, #7",
            "cmp r2, #-1e999", "movgt r4, #9",
            "stf f1, [F + #0]", "stf f2, [F + #1]", "stf f3, [F + #2]",
            "stf f4, [F + #3]", "stf f5, [F + #4]",
            "stw r3, [O + #0]", "stw r4, [O + #1]"]
    source = _program_source([_signed(b) for b in SPECIAL_BITS[:WORDS]]
                             + [0] * (WORDS - len(SPECIAL_BITS)), body, 3)
    program = assemble(source)
    with _counting() as counters:
        fast = _outcome(program, "fast")
    assert fast == _outcome(program, "reference")
    assert isinstance(fast, dict)
    for opcode in ("fadd", "fmul", "fmax", "fmin", "fmov", "cmp"):
        assert counters["codegen.superblock.chained." + opcode] >= 1


# -- faults on a late trip ----------------------------------------------------


def _fault(source: str, engine: str, monkeypatch):
    """(exception type, message, pc, retired, registers, flags) of a
    faulting run."""
    states = []
    real_state = machine_module.MachineState

    def capture(*args, **kwargs):
        state = real_state(*args, **kwargs)
        states.append(state)
        return state

    monkeypatch.setattr(machine_module, "MachineState", capture)
    with pytest.raises((MachineError, KeyError, OverflowError)) as info:
        Machine(MachineConfig(engine=engine)).run(assemble(source))
    state = states[0]
    return (type(info.value).__name__, str(info.value), state.pc,
            state.instructions_retired, state.regs.snapshot(),
            dict(state.regs.flags))


def _walk(access: str, start: str, step: int, trips: int = 64,
          data: str = "") -> str:
    """A self-loop whose *access* walks ``r1`` from *start* by *step*."""
    return "\n".join([".data A i32 8 = 7", data, "main:", "mov r0, #0",
                      f"mov r1, {start}", "mov r2, #-1", "loop:", access,
                      f"add r1, r1, #{step}", "add r0, r0, #1",
                      f"cmp r0, #{trips}", "blt loop", "halt"])


FAULTS = {
    # A is 32 bytes, padded to 64; the read-only K follows it, so the
    # walk reaches K on trip 17.
    "store-into-rodata": _walk("stw r2, [r1 + #0]", "A", 4,
                               data=".rodata K i32 8 = 1"),
    "sub-word-store-into-rodata": _walk("sth r2, [A + r1]", "#0", 1,
                                        data=".rodata K i32 8 = 1"),
    "store-past-end": _walk("stw r2, [r1 + #0]", f"#{(1 << 22) - 20}", 4),
    "float-store-past-end": _walk("stf f1, [r1]", f"#{(1 << 22) - 20}", 4),
    # Byte steps: the first faulting word straddles the end.
    "load-straddling-end": _walk("ldw r3, [r1 + #0]", f"#{(1 << 22) - 8}",
                                 1),
    "negative-address-load": _walk("ldw r3, [r1 + #0]", "#12", -4),
    # Address 30 - 2 * trip: negative on trip 17.
    "negative-index-load": _walk("ldh r3, [r1 + r0]", "#30", -4),
    # Every instruction inline: the trip counter, a float accumulator
    # and the flags have advanced by the time the store faults on trip
    # 17, so the window closure must write its locals back.
    "inline-state-then-fault": _walk("fadd f1, f1, f2\nstw r2, [A + r1]",
                                     "#0", 4, data=".rodata K i32 8 = 1")
    .replace("loop:", "fmov f2, #0.1\nloop:"),
    # The symbol-source move stays an executor step, which counts
    # itself retired before the store faults on trip 17.
    "chained-then-fault": _walk("mov r4, A\nstw r2, [A + r1]", "#0", 1,
                                data=".rodata K i32 8 = 1"),
    "undefined-symbol": _walk("ldw r3, [A + #0]", "#0", 4, trips=40)
    .replace("halt", "ldw r3, [NOPE + r0]\nhalt"),
    # An immediate no inline form can hold: int() of it overflows when
    # the executor executes it.
    "infinite-integer-immediate": _walk("ldw r3, [A + #0]", "#0", 4,
                                        trips=40)
    .replace("halt", "add r3, r3, #1e999\nhalt"),
}


@pytest.mark.parametrize("case", sorted(FAULTS))
def test_late_trip_fault_matches_reference(case, monkeypatch):
    source = FAULTS[case]
    with _counting() as counters:
        fast = _fault(source, "fast", monkeypatch)
    assert fast == _fault(source, "reference", monkeypatch)
    if case == "undefined-symbol":
        assert fast[0] == "KeyError"
        # The lookup must fail at run time, from the faulting pc.
        assert counters["codegen.superblock.chained.ldw"] == 1
    elif case == "infinite-integer-immediate":
        assert fast[0] == "OverflowError"
        assert counters["codegen.superblock.chained.add"] == 1
    else:
        if case == "chained-then-fault":
            # Once in the entry block, once in the self-loop block.
            assert counters["codegen.superblock.chained.mov"] == 2
        if case == "inline-state-then-fault":
            assert not [name for name in counters
                        if name.startswith("codegen.superblock.chained.")]
            assert fast[4]["f1"] != 0.0 and fast[5]["lt"]
        assert fast[0] == "MachineError"
        assert fast[3] > 10, "the fault should land on a late trip"


@pytest.mark.parametrize("opcode", sorted(STORE_ELEM))
@pytest.mark.parametrize("edge", ("start", "end"))
@pytest.mark.parametrize("delta", range(-5, 3))
@pytest.mark.parametrize("form", ("constant", "register"))
def test_read_only_edges_match_reference(opcode, edge, delta, form):
    """Stores straddling either edge of a read-only range: the inline
    test (``start - n < a < end``) must fault exactly where
    ``Memory._check_store`` does, for a fuse-time constant address
    (whole elements either side) and for a run-time one (byte steps,
    so a wide store can straddle the edge)."""
    nbytes = ELEM_SIZES[STORE_ELEM[opcode]]
    src = "f1" if opcode == "stf" else "r2"
    edge_bytes = 0 if edge == "start" else 32  # K is eight words
    if form == "constant":
        access = [f"{opcode} {src}, [K + #{edge_bytes // nbytes + delta}]"]
    else:
        access = ["mov r1, K", f"add r1, r1, #{edge_bytes + delta}",
                  f"{opcode} {src}, [r1]"]
    program = assemble("\n".join([
        ".data A i32 16 = 3", ".rodata K i32 8 = 1", ".data B i32 16 = 5",
        "main:", "mov r2, #-2", *access, "halt"]))
    assert _outcome(program, "fast") == _outcome(program, "reference")
