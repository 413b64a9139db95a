"""Unit tests for the dataflow/taint pass."""

from repro.analysis.taint import analyze_taint, dst_ever_read
from repro.isa.assembler import assemble


def test_secret_load_is_source():
    program = assemble(".secret\nload r1, [0x100]\nhalt\n")
    report = analyze_taint(program)
    assert len(report.loads) == 1
    load = report.loads[0]
    assert load.secret and load.tainted
    assert load.addr == 0x100
    assert report.secret_loads == [load]


def test_taint_propagates_through_alu_to_address():
    program = assemble(
        """
        .secret
        load r1, [0x100]
        mul  r2, r1, 64
        load r3, [r2+0x800]
        halt
        """
    )
    report = analyze_taint(program)
    assert len(report.address_flows) == 1
    flow = report.address_flows[0]
    assert flow.op == "load"
    assert "secret->address" in flow.describe()
    assert report.has_secret_flow


def test_store_address_flow_detected():
    program = assemble(
        ".secret\nload r1, [0x100]\nstore [r1+0], r1\nhalt\n"
    )
    report = analyze_taint(program)
    assert [flow.op for flow in report.address_flows] == ["store"]


def test_taint_through_memory():
    # Secret stored to a known address taints a later load of it.
    program = assemble(
        """
        li    r9, 0x400
        .secret
        load  r1, [0x100]
        store [r9+0], r1
        load  r2, [0x400]
        add   r3, r2, 0
        load  r4, [r3+0x800]
        halt
        """
    )
    report = analyze_taint(program)
    assert report.loads[1].tainted  # reload of the tainted address
    assert report.address_flows  # and it still reaches an address


def test_clean_program_has_no_flows():
    program = assemble(
        "li r1, 0x40\nload r2, [r1+0]\nadd r3, r2, 1\nhalt\n"
    )
    report = analyze_taint(program)
    assert not report.has_secret_flow
    assert not report.secret_loads
    assert not report.loads[0].tainted


def test_window_pairing_and_contents():
    program = assemble(
        """
        rdtsc r8
        load  r1, [0x200]
        rdtsc r9
        rdtsc r10
        nop
        rdtsc r11
        halt
        """
    )
    report = analyze_taint(program)
    assert not report.unpaired_rdtsc
    assert len(report.windows) == 2
    first, second = report.windows
    assert first.has_load and first.instructions == 1
    assert not second.has_load and second.instructions == 1


def test_unpaired_rdtsc_flagged():
    report = analyze_taint(assemble("rdtsc r8\nnop\nhalt\n"))
    assert report.unpaired_rdtsc
    assert not report.windows


def test_tainted_window():
    program = assemble(
        """
        .secret
        load  r1, [0x100]
        rdtsc r8
        add   r2, r1, 1
        rdtsc r9
        halt
        """
    )
    report = analyze_taint(program)
    assert [w.tainted for w in report.windows] == [True]
    assert report.tainted_windows == report.windows


def test_extra_source_pcs_without_annotations():
    program = assemble("load r1, [0x100]\nload r2, [r1+0x800]\nhalt\n")
    clean = analyze_taint(program)
    assert not clean.address_flows
    pc = program.instructions[0].pc
    forced = analyze_taint(
        program, extra_source_pcs=frozenset([pc]),
        use_secret_annotations=False,
    )
    assert forced.address_flows


def test_loads_tagged():
    program = assemble(
        ".tag trigger-load\nload r1, [0x100]\nload r2, [0x200]\nhalt\n"
    )
    report = analyze_taint(program)
    assert [load.pc for load in report.loads_tagged("trigger-load")] == [0]


def test_loop_produces_dynamic_load_instances():
    program = assemble(".loop 3\nload r1, [0x40]\n.endloop\nhalt\n")
    report = analyze_taint(program)
    assert len(report.loads) == 3
    assert len({load.pc for load in report.loads}) == 1


class TestDstEverRead:
    def test_read(self):
        program = assemble("load r1, [0x100]\nadd r2, r1, 1\nhalt\n")
        assert dst_ever_read(program, 0)

    def test_overwritten_first(self):
        program = assemble(
            "load r1, [0x100]\nli r1, 5\nadd r2, r1, 1\nhalt\n"
        )
        assert not dst_ever_read(program, 0)

    def test_never_read(self):
        program = assemble("load r1, [0x100]\nhalt\n")
        assert not dst_ever_read(program, 0)
