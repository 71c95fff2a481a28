"""Unit tests for the functional executor (scalar and vector semantics)."""

import re

import pytest

from repro.interp.executor import ENGINES, ExecutionError, Executor
from repro.interp.state import MachineState, SymbolInfo, SymbolTable
from repro.isa.assembler import assemble
from repro.isa.decoded import predecode
from repro.isa.instructions import Imm, Instruction, Reg
from repro.isa.opcodes import OPCODES
from repro.isa.program import Program
from repro.memory.memory import Memory
from repro.system.machine import Machine, MachineConfig, MachineError


def make_state(source: str, width=None, data_base: int = 0x400):
    """Assemble *source*, place its data, return (state, executor)."""
    program = assemble(source)
    memory = Memory(1 << 16)
    symbols = SymbolTable()
    addr = data_base
    for arr in program.data.values():
        symbols.add(SymbolInfo(arr.name, addr, arr.elem, len(arr),
                               arr.read_only))
        if arr.values:
            memory.store_vector(addr, arr.elem, arr.values)
        addr += max(arr.size_bytes, 64)
    state = MachineState(program, memory, symbols, vector_width=width)
    return state, Executor(state)


def run(state, executor, max_steps=10000):
    steps = 0
    while not state.halted:
        executor.execute(state.program.instructions[state.pc])
        steps += 1
        assert steps < max_steps, "runaway program"
    return state


class TestScalarExecution:
    def test_mov_and_alu(self):
        state, ex = make_state("""
            mov r1, #6
            mov r2, #7
            mul r3, r1, r2
            halt
        """)
        run(state, ex)
        assert state.regs.read("r3") == 42

    def test_conditional_move_taken_and_not(self):
        state, ex = make_state("""
            mov r1, #5
            cmp r1, #3
            movgt r2, #1
            movlt r3, #1
            halt
        """)
        run(state, ex)
        assert state.regs.read("r2") == 1
        assert state.regs.read("r3") == 0

    def test_float_ops(self):
        state, ex = make_state("""
            fmov f1, #1.5
            fmov f2, #2.0
            fmul f3, f1, f2
            fneg f4, f3
            fabs f5, f4
            halt
        """)
        run(state, ex)
        assert state.regs.read("f3") == 3.0
        assert state.regs.read("f4") == -3.0
        assert state.regs.read("f5") == 3.0

    def test_loop_with_branch(self):
        state, ex = make_state("""
            mov r0, #0
        loop:
            add r0, r0, #1
            cmp r0, #5
            blt loop
            halt
        """)
        run(state, ex)
        assert state.regs.read("r0") == 5

    def test_load_store_elements_scaled(self):
        state, ex = make_state("""
        .data A i16 4 = 10, 20, 30, 40
        .data B i16 4 = 0
            mov r0, #2
            ldh r1, [A + r0]
            sth r1, [B + r0]
            halt
        """)
        run(state, ex)
        b_addr = state.symbols.address_of("B")
        assert state.memory.load(b_addr + 4, "i16") == 30

    def test_byte_load_sign_extends(self):
        state, ex = make_state("""
        .data A i8 2 = -1, 1
            mov r0, #0
            ldb r1, [A + r0]
            halt
        """)
        run(state, ex)
        assert state.regs.read("r1") == -1

    def test_call_and_return(self):
        state, ex = make_state("""
        .entry main
        main:
            bl fn
            mov r2, #2
            halt
        fn:
            mov r1, #1
            ret
        """)
        run(state, ex)
        assert state.regs.read("r1") == 1
        assert state.regs.read("r2") == 2

    def test_float_mask_idiom(self):
        # `and f, f, rmask` operates on the binary32 bit pattern.
        state, ex = make_state("""
            fmov f1, #2.5
            mov r2, #0
            and f3, f1, r2
            fmov f4, #3.5
            orr f5, f3, f4
            halt
        """)
        run(state, ex)
        assert state.regs.read("f3") == 0.0
        assert state.regs.read("f5") == 3.5

    def test_min_max_pseudo_ops(self):
        state, ex = make_state("""
            mov r1, #-5
            mov r2, #3
            min r3, r1, r2
            max r4, r1, r2
            halt
        """)
        run(state, ex)
        assert state.regs.read("r3") == -5
        assert state.regs.read("r4") == 3

    def test_event_fields(self):
        state, ex = make_state(".data A i32 1 = 7\nmov r0, #0\nldw r1, [A + r0]\nhalt")
        ex.execute(state.program.instructions[0])
        event = ex.execute(state.program.instructions[1])
        assert event.value == 7
        assert event.mem_addr == state.symbols.address_of("A")
        assert event.pc == 1 and event.next_pc == 2

    def test_int_op_on_float_register_rejected(self):
        state, ex = make_state("fmov f1, #1.0\nmov r2, #1\nadd f3, f1, r2\nhalt")
        ex.execute(state.program.instructions[0])
        ex.execute(state.program.instructions[1])
        with pytest.raises(ExecutionError):
            ex.execute(state.program.instructions[2])


class TestVectorExecution:
    def test_vector_requires_accelerator(self):
        state, ex = make_state(".data A f32 8 = 1.0\nmov r0, #0\n"
                               "vld.f32 vf0, [A + r0]\nhalt")
        ex.execute(state.program.instructions[0])
        with pytest.raises(ExecutionError):
            ex.execute(state.program.instructions[1])

    def test_vld_vst_roundtrip(self):
        state, ex = make_state("""
        .data A f32 8 = 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0
        .data B f32 8 = 0.0
            mov r0, #0
            vld.f32 vf0, [A + r0]
            vst.f32 vf0, [B + r0]
            halt
        """, width=4)
        run(state, ex)
        addr = state.symbols.address_of("B")
        assert state.memory.load_vector(addr, "f32", 4) == [1.0, 2.0, 3.0, 4.0]

    def test_vector_binary_and_imm(self):
        state, ex = make_state("""
        .data A i32 4 = 1, 2, 3, 4
            mov r0, #0
            vld.i32 v2, [A + r0]
            vadd.i32 v3, v2, #10
            vmul.i32 v4, v3, v2
            halt
        """, width=4)
        run(state, ex)
        assert state.vregs.read("v3") == [11, 12, 13, 14]
        assert state.vregs.read("v4") == [11, 24, 39, 56]

    def test_vector_immediate_operand(self):
        state, ex = make_state("""
        .data A i32 4 = 7, 7, 7, 7
            mov r0, #0
            vld.i32 v2, [A + r0]
            vand.i32 v3, v2, #<1, 3, 7, 0>
            halt
        """, width=4)
        run(state, ex)
        assert state.vregs.read("v3") == [1, 3, 7, 0]

    def test_vimm_lane_count_enforced(self):
        state, ex = make_state("""
        .data A i32 4 = 1, 1, 1, 1
            mov r0, #0
            vld.i32 v2, [A + r0]
            vand.i32 v3, v2, #<1, 2>
            halt
        """, width=4)
        ex.execute(state.program.instructions[0])
        ex.execute(state.program.instructions[1])
        with pytest.raises(ExecutionError):
            ex.execute(state.program.instructions[2])

    def test_permutations(self):
        state, ex = make_state("""
        .data A i32 4 = 0, 1, 2, 3
            mov r0, #0
            vld.i32 v2, [A + r0]
            vbfly.i32 v3, v2, #4
            vrev.i32 v4, v2, #4
            vrot.i32 v5, v2, #4, #1
            halt
        """, width=4)
        run(state, ex)
        assert state.vregs.read("v3") == [2, 3, 0, 1]
        assert state.vregs.read("v4") == [3, 2, 1, 0]
        assert state.vregs.read("v5") == [1, 2, 3, 0]

    def test_perm_period_must_tile_width(self):
        state, ex = make_state("""
        .data A i32 4 = 0, 1, 2, 3
            mov r0, #0
            vld.i32 v2, [A + r0]
            vbfly.i32 v3, v2, #8
            halt
        """, width=4)
        ex.execute(state.program.instructions[0])
        ex.execute(state.program.instructions[1])
        with pytest.raises(ExecutionError):
            ex.execute(state.program.instructions[2])

    def test_reduction_into_scalar(self):
        state, ex = make_state("""
        .data A i32 4 = 1, 2, 3, 4
            mov r0, #0
            mov r1, #100
            vld.i32 v2, [A + r0]
            vredsum.i32 r1, r1, v2
            halt
        """, width=4)
        run(state, ex)
        assert state.regs.read("r1") == 110

    def test_unaligned_vector_access_rejected(self):
        state, ex = make_state("""
        .data A f32 8 = 1.0
            mov r0, #1
            vld.f32 vf0, [A + r0]
            halt
        """, width=4)
        ex.execute(state.program.instructions[0])
        with pytest.raises(ExecutionError):
            ex.execute(state.program.instructions[1])

    def test_vector_event_reports_width(self):
        state, ex = make_state("""
        .data A f32 8 = 1.0
            mov r0, #0
            vld.f32 vf0, [A + r0]
            halt
        """, width=8)
        ex.execute(state.program.instructions[0])
        event = ex.execute(state.program.instructions[1])
        assert event.vector_width == 8

    def test_saturating_vector_ops(self):
        state, ex = make_state("""
        .data A i8 4 = 120, -120, 5, 0
        .data B i8 4 = 100, -100, 5, 0
            mov r0, #0
            vld.i8 v2, [A + r0]
            vld.i8 v3, [B + r0]
            vqadd.i8 v4, v2, v3
            halt
        """, width=4)
        run(state, ex)
        assert state.vregs.read("v4") == [127, -128, 10, 0]


# ---------------------------------------------------------------------------
# Dispatch error paths (both engines)
#
# The assembler rejects unknown opcodes outright, so these tests build
# Instruction/Program objects by hand to reach the interpreter's own
# guards.  Both engines must fail with the same error, message and pc:
# the fast engine's fused block steps the executor on a shape it does
# not inline, and nothing fires before the bad instruction executes
# (repro.isa.decoded.predecode never raises), so an unreachable bad
# instruction never aborts a run.
# ---------------------------------------------------------------------------


def make_raw_program(instructions):
    """A program over hand-constructed instructions (no assembler)."""
    program = Program(name="raw")
    program.labels["main"] = 0
    for ins in instructions:
        program.emit(ins)
    return program


def run_error(instructions, engine):
    """The error a :class:`Machine` run of *instructions* raises."""
    with pytest.raises(MachineError) as excinfo:
        Machine(MachineConfig(engine=engine)).run(
            make_raw_program(instructions))
    return excinfo.value


def assert_same_error_on_both_engines(instructions, match):
    """Both engines fail the same way: a :class:`MachineError` wrapping
    the executor's :class:`ExecutionError`, with the same text (which
    names the faulting pc).  On the fast engine the faulting shape sits
    in a fused block, which steps the executor on it."""
    errors = [run_error(instructions, engine)
              for engine in ("reference", "fast")]
    for error in errors:
        assert isinstance(error.__cause__, ExecutionError)
        assert re.search(match, str(error)), str(error)
    reference, fast = errors
    assert str(fast) == str(reference)


#: A valid instruction first, so the fault's pc is not the entry's.
_PROLOGUE = Instruction("mov", dst=Reg("r1"), srcs=(Imm(1),))


class TestDispatchErrors:
    def test_unknown_opcode_reference(self):
        error = run_error([
            _PROLOGUE,
            Instruction("frobnicate", dst=Reg("r0"), srcs=(Imm(1),)),
        ], "reference")
        assert isinstance(error.__cause__, ExecutionError)
        assert str(error) == \
            "raw @pc=1: unknown opcode 'frobnicate' at pc=1"

    def test_unknown_opcode_fast(self):
        assert_same_error_on_both_engines([
            _PROLOGUE,
            Instruction("frobnicate", dst=Reg("r0"), srcs=(Imm(1),)),
        ], r"^raw @pc=1: unknown opcode 'frobnicate' at pc=1$")

    def test_unknown_condition_suffix_both_engines(self, monkeypatch):
        # Register the opcode so dispatch reaches the condition decoder;
        # the suffix guard must still reject what _COND doesn't know.
        monkeypatch.setitem(OPCODES, "movxx", OPCODES["moveq"])
        assert_same_error_on_both_engines([
            _PROLOGUE,
            Instruction("movxx", dst=Reg("r0"), srcs=(Imm(1),)),
        ], r"^raw @pc=1: unknown condition suffix 'xx' in opcode 'movxx'$")

    def test_unknown_branch_condition_both_engines(self, monkeypatch):
        monkeypatch.setitem(OPCODES, "bxx", OPCODES["beq"])
        assert_same_error_on_both_engines([
            _PROLOGUE,
            Instruction("bxx", target="main"),
        ], r"^raw @pc=1: unknown branch condition 'xx' in opcode 'bxx'$")

    def test_predecode_defers_errors_to_execution(self):
        program = make_raw_program([
            Instruction("halt"),
            Instruction("frobnicate"),                 # unknown opcode
            Instruction("add", dst=Reg("r0")),         # malformed
            Instruction("bxx", target="nowhere"),      # bad condition
        ])
        # Decoding never raises: an unknown opcode just has no timing.
        table = predecode(program)
        assert table.metas[1] is None
        assert table.metas[0] is not None
        # The bad instructions are unreachable, so neither engine fires.
        for engine in ENGINES:
            result = Machine(MachineConfig(engine=engine)).run(program)
            assert result.instructions == 1

    def test_machine_config_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="engine must be one of"):
            MachineConfig(engine="warp")

    def test_unknown_engine_message_lists_engines(self):
        # The error must enumerate ENGINES dynamically, mirroring the
        # CLI's --engine choices.
        with pytest.raises(ValueError) as excinfo:
            MachineConfig(engine="warp")
        message = str(excinfo.value)
        assert str(ENGINES) in message
        for engine in ENGINES:
            assert engine in message
