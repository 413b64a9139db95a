"""The exhaustive attack-space hunt: certificate, round-trips, dynamics."""

import json
import os

import pytest

from repro.analysis.enumerate import (
    build_certificate,
    dynamic_targets,
    follow_reduction,
    hunt_records,
)
from repro.core.actions import (
    MODIFY_ACTIONS,
    TRAIN_ACTIONS,
    TRIGGER_ACTIONS,
    Action,
)
from repro.core.model import (
    Verdict,
    all_combos,
    canonicalize,
    classify,
    parse_combo,
    table_ii_combos,
)


@pytest.fixture(scope="module")
def records():
    return hunt_records(confidence=4)


@pytest.fixture(scope="module")
def certificate(records):
    return build_certificate(records, confidence=4)


# ----------------------------------------------------------------------
# Symbol round-trips over the full alphabet and product (satellite)
# ----------------------------------------------------------------------

class TestSymbolRoundtrip:
    @pytest.mark.parametrize(
        "action", MODIFY_ACTIONS, ids=lambda a: a.symbol
    )
    def test_action_parse_inverts_symbol(self, action):
        assert Action.parse(action.symbol) == action

    def test_alphabet_sizes_match_table_i(self):
        assert len(TRAIN_ACTIONS) == 8
        assert len(MODIFY_ACTIONS) == 9
        assert len(TRIGGER_ACTIONS) == 8
        assert len(all_combos()) == 8 * 9 * 8

    def test_combo_parse_inverts_symbol_for_all_576(self):
        for combo in all_combos():
            parsed = parse_combo(combo.symbol)
            assert parsed == combo, combo.symbol

    def test_action_symbols_are_distinct(self):
        symbols = [action.symbol for action in MODIFY_ACTIONS]
        assert len(set(symbols)) == len(symbols)


# ----------------------------------------------------------------------
# The certificate
# ----------------------------------------------------------------------

class TestCertificate:
    def test_certified(self, certificate):
        assert certificate["certified"] is True
        assert all(
            claim["ok"] for claim in certificate["claims"].values()
        )

    def test_verdicts_partition_the_space(self, certificate):
        verdicts = certificate["verdicts"]
        assert verdicts["effective"] == 12
        assert sum(verdicts.values()) == 576
        assert certificate["space"]["combos"] == 576

    def test_effective_classes_are_table_ii(self, certificate):
        representatives = {cls["symbol"] for cls in certificate["classes"]}
        expected = {combo.symbol for combo, _ in table_ii_combos()}
        assert representatives == expected
        assert len(certificate["classes"]) == 12

    def test_class_members_cover_all_leaking_combos(self, certificate):
        members = [
            symbol
            for cls in certificate["classes"]
            for symbol in cls["member_symbols"]
        ]
        # Disjoint cover: no combo reduces into two classes.
        assert len(members) == len(set(members))
        assert len(members) + certificate["invalid_members"] == 576

    def test_byte_identical_across_runs(self, tmp_path):
        from repro.harness.hunt import CERTIFICATE_FILENAME, run_hunt

        run_hunt(str(tmp_path / "a"), static_only=True)
        run_hunt(str(tmp_path / "b"), static_only=True)
        first = (tmp_path / "a" / CERTIFICATE_FILENAME).read_bytes()
        second = (tmp_path / "b" / CERTIFICATE_FILENAME).read_bytes()
        assert first == second

    def test_payload_is_json_serializable(self, certificate):
        encoded = json.dumps(certificate, sort_keys=True)
        assert json.loads(encoded) == certificate


# ----------------------------------------------------------------------
# Static trials and reduction chains
# ----------------------------------------------------------------------

class TestStaticHunt:
    def test_every_table_ii_variant_leaks_statically(self, records):
        by_symbol = {record.combo.symbol: record for record in records}
        for combo, category in table_ii_combos():
            record = by_symbol[combo.symbol]
            assert record.timing_leak, combo.symbol
            assert record.model.verdict is Verdict.EFFECTIVE
            assert record.terminal.category is category

    def test_invalid_combos_are_statically_silent(self, records):
        for record in records:
            if record.chain[-1] == record.combo.symbol and (
                record.model.verdict is Verdict.INVALID
            ):
                assert not record.timing_leak, record.combo.symbol

    def test_reduction_chains_terminate(self, records):
        for record in records:
            terminal, chain = follow_reduction(record.combo)
            assert terminal.verdict in (Verdict.EFFECTIVE, Verdict.INVALID)
            assert chain == record.chain
            assert chain[0] == record.combo.symbol

    def test_capture_roundtrips_canonical_form(self, records):
        # Spot-check: the classifier re-derives the combo from its own
        # captured programs for every effective record.
        for record in records:
            if record.model.verdict is Verdict.EFFECTIVE:
                assert record.roundtrip_ok, record.combo.symbol

    def test_canonical_form_is_idempotent(self):
        for combo in all_combos()[:50]:
            canonical = canonicalize(combo)
            assert canonicalize(canonical) == canonical

    def test_silent_flavour_wipe_combo(self):
        # A flavours-question combo whose known modify wipes training
        # under both hypotheses: admissibility rules it out.
        from repro.analysis.enumerate import hunt_combo

        combo = parse_combo("(S^SD', S^KD, S^SD'')")
        verdict = hunt_combo(combo)
        assert not verdict.timing_leak
        assert classify(combo).verdict is not Verdict.EFFECTIVE


# ----------------------------------------------------------------------
# Dynamic confirmation
# ----------------------------------------------------------------------

class TestDynamicConfirmation:
    def test_targets_are_the_twelve_survivors(self, records):
        targets = dynamic_targets(records)
        assert len(targets) == 12
        assert {t.combo.symbol for t in targets} == {
            combo.symbol for combo, _ in table_ii_combos()
        }

    def test_confirm_dynamic_smoke(self, records, tmp_path):
        from repro.harness.hunt import DYNAMIC_FILENAME, confirm_dynamic

        # Two survivors, one data- and one index-dimension, through the
        # real measurement path with early stopping.
        wanted = {"(S^SD', —, S^KD)", "(R^KI, S^SI', R^KI)"}
        subset = [r for r in records if r.combo.symbol in wanted]
        payload = confirm_dynamic(
            subset, str(tmp_path), n_runs=24, seed=3, resume=False
        )
        assert payload["all_agree"] is True
        assert payload["targets"] == 2
        for row in payload["rows"]:
            assert row["dynamic_effective"] is True
            assert row["agree"] is True
            assert row["pvalue"] < 0.05
        assert os.path.isfile(tmp_path / DYNAMIC_FILENAME)

    def test_run_hunt_static_only(self, tmp_path):
        from repro.harness.hunt import CERTIFICATE_FILENAME, run_hunt

        out = run_hunt(str(tmp_path), static_only=True)
        assert out["certificate"]["certified"] is True
        assert out["dynamic"] is None
        assert os.path.isfile(tmp_path / CERTIFICATE_FILENAME)


# ----------------------------------------------------------------------
# ComboAttack: the one realization of a combo
# ----------------------------------------------------------------------

def _shape(program):
    """A program's name, pid and placed instructions, for comparison."""
    return program.name, program.pid, tuple(program)


class TestComboAttack:
    def test_matches_handwritten_variant_verdict(self):
        from repro.core.attack import AttackConfig, AttackRunner
        from repro.core.model import AttackCategory
        from repro.core.synthesis import ComboAttack

        combo = parse_combo("(S^SD', —, S^KD)")
        variant = ComboAttack(combo, category=AttackCategory.TEST_HIT)
        result = AttackRunner(
            variant, AttackConfig(n_runs=30, seed=5)
        ).run_experiment()
        assert result.attack_succeeds

    def test_silent_combo_does_not_leak(self):
        from repro.core.attack import AttackConfig, AttackRunner
        from repro.core.model import AttackCategory
        from repro.core.synthesis import ComboAttack

        # Rule-9 invalid: both steps known, nothing secret to leak.
        combo = parse_combo("(S^KD, —, S^KD)")
        variant = ComboAttack(combo, category=AttackCategory.TRAIN_TEST)
        result = AttackRunner(
            variant, AttackConfig(n_runs=30, seed=5)
        ).run_experiment()
        assert not result.attack_succeeds

    def test_trigger_pcs_cover_both_hypotheses(self):
        from repro.core.synthesis import ComboAttack
        from repro.workloads.gadgets import Layout

        variant = ComboAttack(parse_combo("(R^KI, S^SI', R^KI)"))
        assert len(variant.trigger_pcs(Layout())) >= 1

    def test_trigger_is_single_access(self):
        from repro.core.synthesis import ComboAttack

        # A receiver trigger is RDTSC-bracketed, a sender one plain;
        # either way the trigger step is one probing load.
        for symbol in ("(S^SD', —, R^KD)", "(S^KD, —, S^SD')"):
            variant = ComboAttack(parse_combo(symbol))
            for mapped in (True, False):
                program = variant.trigger_program(mapped, 4)
                assert len(program.pcs_tagged("trigger-load")) == 1

    def test_train_defaults_to_confidence(self):
        from repro.analysis.capture import capture_variant
        from repro.core.channels import ChannelType
        from repro.core.synthesis import ComboAttack
        from repro.isa.instructions import Opcode

        variant = ComboAttack(parse_combo("(S^KD, —, S^SD')"))
        trial = capture_variant(
            variant, ChannelType.TIMING_WINDOW, True, confidence=4
        )
        train = trial.program_named("combo-train")
        loads = [
            placed for placed in train.dynamic_trace()
            if placed.instruction.op is Opcode.LOAD
        ]
        assert len(loads) == 4

    def test_empty_modify_runs_no_program(self):
        from repro.analysis.capture import capture_variant
        from repro.core.channels import ChannelType
        from repro.core.model import count_choices
        from repro.core.synthesis import ComboAttack

        combo = parse_combo("(S^SD', —, S^KD)")
        assert count_choices(combo) == (
            ("confidence", "one"), ("confidence-1", "one"),
        )
        for train_count, modify_count in count_choices(combo):
            variant = ComboAttack(
                combo, train_count=train_count, modify_count=modify_count,
            )
            trial = capture_variant(variant, ChannelType.TIMING_WINDOW, True)
            assert trial.program_names == ["combo-train", "combo-trigger"]


class TestOneRealization:
    """The static hunt analyses the programs the confirmation measures."""

    @pytest.mark.parametrize(
        "symbol", [combo.symbol for combo, _ in table_ii_combos()],
    )
    def test_hunt_interprets_the_programs_a_trial_runs(
        self, records, symbol, monkeypatch
    ):
        from repro.analysis.enumerate import HUNT_CHAIN_LENGTH, hunt_combo
        from repro.analysis.vpstate import VpsAbstractMachine
        from repro.core.attack import AttackConfig, AttackRunner
        from repro.core.model import count_choices
        from repro.harness.hunt import _target_variant
        from repro.memory.hierarchy import MemorySystem
        from repro.pipeline.core import Core

        record = next(
            r for r in dynamic_targets(records) if r.combo.symbol == symbol
        )
        interpreted = []
        run_trial = VpsAbstractMachine.run_trial

        def spy_run_trial(machine, trial):
            interpreted.append(trial)
            return run_trial(machine, trial)

        monkeypatch.setattr(VpsAbstractMachine, "run_trial", spy_run_trial)
        hunt_combo(record.combo)
        monkeypatch.undo()
        # Interpreted in count-choice order, mapped before unmapped.
        witness = record.witness
        choice = count_choices(record.combo).index(
            (witness.train_count, witness.modify_count)
        )
        static = dict(zip((True, False), interpreted[2 * choice:][:2]))

        ran = []
        written = {}
        core_run = Core.run
        write_value = MemorySystem.write_value

        def spy_core_run(core, program, *args, **kwargs):
            ran.append(program)
            return core_run(core, program, *args, **kwargs)

        def spy_write_value(memory, pid, addr, value):
            written[(pid, addr)] = value
            return write_value(memory, pid, addr, value)

        monkeypatch.setattr(Core, "run", spy_core_run)
        monkeypatch.setattr(MemorySystem, "write_value", spy_write_value)
        runner = AttackRunner(
            _target_variant(record),
            AttackConfig(chain_length=HUNT_CHAIN_LENGTH, backend="scalar"),
        )
        for mapped in (True, False):
            ran.clear()
            written.clear()
            runner.run_trial(mapped, 0)
            trial = static[mapped]
            assert trial.mapped is mapped
            assert [_shape(program) for program in ran] == [
                _shape(captured.program) for captured in trial.programs
            ]
            assert written == trial.values
