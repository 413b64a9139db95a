"""Unit tests for the instruction set definitions."""

import pytest

from repro.errors import IsaError
from repro.isa import instructions as ins
from repro.isa.instructions import AluOp, Instruction, Opcode


class TestConstructors:
    def test_nop_has_no_operands(self):
        instr = ins.nop()
        assert instr.op is Opcode.NOP
        assert instr.source_registers() == ()
        assert instr.destination_register() is None

    def test_li_sets_destination_and_imm(self):
        instr = ins.li(3, 0x42)
        assert instr.destination_register() == 3
        assert instr.imm == 0x42
        assert instr.source_registers() == ()

    def test_alu_register_form_reads_both_sources(self):
        instr = ins.alu(AluOp.ADD, 1, 2, src2=3)
        assert set(instr.source_registers()) == {2, 3}
        assert instr.destination_register() == 1

    def test_alu_immediate_form_reads_one_source(self):
        instr = ins.alu(AluOp.XOR, 1, 2, imm=7)
        assert instr.source_registers() == (2,)

    def test_load_with_base_register(self):
        instr = ins.load(5, base=6, imm=0x100)
        assert instr.is_load
        assert instr.is_memory
        assert instr.source_registers() == (6,)
        assert instr.destination_register() == 5

    def test_load_absolute_has_no_sources(self):
        instr = ins.load(5, imm=0x100)
        assert instr.source_registers() == ()

    def test_store_reads_base_and_data(self):
        instr = ins.store(2, base=1, imm=8)
        assert instr.is_store
        assert set(instr.source_registers()) == {1, 2}
        assert instr.destination_register() is None

    def test_flush_is_memory_but_not_load(self):
        instr = ins.flush(imm=0x40)
        assert instr.is_memory
        assert not instr.is_load
        assert not instr.is_store

    def test_fence_and_rdtsc_are_serialising(self):
        assert ins.fence().is_serialising
        assert ins.rdtsc(1).is_serialising
        assert not ins.nop().is_serialising

    def test_rdtsc_writes_destination(self):
        assert ins.rdtsc(9).destination_register() == 9

    def test_tag_is_preserved(self):
        assert ins.load(1, imm=0, tag="trigger").tag == "trigger"


class TestValidation:
    def test_alu_requires_alu_op(self):
        with pytest.raises(IsaError):
            Instruction(Opcode.ALU, dst=1, src1=2)

    def test_register_out_of_range(self):
        with pytest.raises(IsaError):
            ins.li(99, 0)

    def test_negative_register_rejected(self):
        with pytest.raises(IsaError):
            ins.load(-1, imm=0)

    def test_nop_rejects_operands(self):
        with pytest.raises(IsaError):
            Instruction(Opcode.NOP, dst=1)

    def test_store_requires_data_register(self):
        with pytest.raises(IsaError):
            Instruction(Opcode.STORE, src1=1)

    def test_store_rejects_destination(self):
        with pytest.raises(IsaError):
            Instruction(Opcode.STORE, dst=1, src1=2, src2=3)

    def test_load_rejects_second_source(self):
        with pytest.raises(IsaError):
            Instruction(Opcode.LOAD, dst=1, src1=2, src2=3)

    def test_fence_rejects_operands(self):
        with pytest.raises(IsaError):
            Instruction(Opcode.FENCE, dst=1)

    def test_rdtsc_requires_destination(self):
        with pytest.raises(IsaError):
            Instruction(Opcode.RDTSC)

    def test_imm_must_be_int(self):
        with pytest.raises(IsaError):
            ins.li(1, "not an int")

    def test_boolean_register_rejected(self):
        with pytest.raises(IsaError):
            ins.li(True, 0)


class TestClassification:
    def test_long_latency_ops_contains_mul(self):
        assert AluOp.MUL in ins.LONG_LATENCY_ALU_OPS
        assert AluOp.ADD not in ins.LONG_LATENCY_ALU_OPS

    def test_str_renders_mnemonics(self):
        text = str(ins.alu(AluOp.ADD, 1, 2, src2=3))
        assert "add" in text
        assert "r1" in text

    def test_instruction_is_hashable_and_frozen(self):
        instr = ins.nop()
        with pytest.raises(Exception):
            instr.imm = 5
        assert hash(instr) == hash(ins.nop())

    def test_cached_registers_follow_replace_equality_and_pickle(self):
        """The register tuples are computed once per instruction: a
        ``dataclasses.replace`` recomputes them, and neither equality,
        hashing nor a pickle round trip sees them."""
        import dataclasses
        import pickle

        instr = ins.alu(AluOp.ADD, 1, 2, src2=3)
        assert instr.source_registers() is instr.source_registers()
        immediate = dataclasses.replace(instr, src2=None, dst=4)
        assert immediate.source_registers() == (2,)
        assert immediate.destination_register() == 4
        store = dataclasses.replace(
            ins.store(5, base=6), src1=None, src2=7
        )
        assert store.source_registers() == (7,)
        assert store.destination_register() is None

        twin = ins.alu(AluOp.ADD, 1, 2, src2=3)
        assert twin == instr and hash(twin) == hash(instr)
        assert instr != immediate
        assert repr(twin) == repr(instr)
        assert [f.name for f in dataclasses.fields(instr)] == [
            "op", "dst", "src1", "src2", "imm", "alu_op", "tag", "secret",
        ]
        for original in (instr, immediate, store, ins.rdtsc(9)):
            restored = pickle.loads(pickle.dumps(original))
            assert restored == original
            assert hash(restored) == hash(original)
            assert restored.source_registers() == original.source_registers()
            assert (restored.destination_register()
                    == original.destination_register())
