"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main, parse_defense
from repro.defenses import (
    AlwaysPredictDefense,
    DefenseStack,
    DelaySideEffectsDefense,
    InvisiSpecDefense,
    RandomWindowDefense,
)
from repro.errors import ReproError


class TestDefenseParsing:
    def test_none(self):
        assert parse_defense(None) is None
        assert parse_defense("") is None

    def test_single_components(self):
        stack = parse_defense("R[5]")
        assert isinstance(stack, DefenseStack)
        assert isinstance(stack.defenses[0], RandomWindowDefense)
        assert stack.defenses[0].window_size == 5

    def test_full_stack(self):
        stack = parse_defense("R[3]+A[history]+D")
        kinds = [type(defense) for defense in stack]
        assert kinds == [
            RandomWindowDefense, AlwaysPredictDefense,
            DelaySideEffectsDefense,
        ]

    def test_invisispec(self):
        stack = parse_defense("invisispec")
        assert isinstance(stack.defenses[0], InvisiSpecDefense)

    def test_a_mode_parsed(self):
        stack = parse_defense("A[fixed]")
        assert stack.defenses[0].mode == "fixed"

    def test_unknown_component(self):
        with pytest.raises(ReproError):
            parse_defense("X[1]")

    def test_malformed_window_names_the_token(self):
        with pytest.raises(ReproError, match=r"'R\[x\]'.*'x'"):
            parse_defense("R[x]")


SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.mark.parametrize("args", [
    ["attack", "--variant", "Train + Test", "--defense", "R[x]"],
    ["sweep", "--variant", "Train + Test", "--windows", "1,x"],
    ["sweep", "--variant", "Train + Test", "--windows", ""],
])
def test_malformed_numbers_fail_with_one_line(args):
    """A malformed number is a one-line ``error:``, not a traceback."""
    run = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("error: ")
    assert run.stderr.count("\n") == 1


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "576" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert out.count("Train + Test") == 4

    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        assert "BranchScope" in capsys.readouterr().out

    def test_attack_command(self, capsys):
        code = main([
            "attack", "--variant", "Fill Up", "--runs", "6", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fill Up" in out
        assert "mapped" in out

    def test_attack_with_defense(self, capsys):
        code = main([
            "attack", "--variant", "Spill Over", "--runs", "6",
            "--defense", "A[fixed]",
        ])
        assert code == 0
        assert "A[fixed]" in capsys.readouterr().out

    def test_attack_unknown_variant_fails_cleanly(self, capsys):
        assert main(["attack", "--variant", "Bogus", "--runs", "6"]) == 1
        assert "error" in capsys.readouterr().err

    def test_sweep_command(self, capsys):
        code = main([
            "sweep", "--variant", "Train + Test", "--windows", "1,6",
            "--runs", "20",
        ])
        assert code == 0
        assert "window" in capsys.readouterr().out

    def test_speedup_command(self, capsys):
        assert main(["speedup"]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("flag", [
        "--snapshot-trials", "--audit-snapshots", "--lane-schedule=pool",
        "--backend=pool", "--fixed-n",
    ])
    def test_removed_trial_protocol_flags_exit_2(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["all", "--out", str(tmp_path), flag])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("command", ["serve", "submit", "jobs", "perf"])
    def test_removed_commands_exit_2(self, tmp_path, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--root", str(tmp_path)])
        assert exit_info.value.code == 2


class TestHeavierCommands:
    def test_fig5_command_small(self, capsys):
        assert main(["fig5", "--runs", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("pvalue=") == 4

    def test_fig8_command_small(self, capsys):
        assert main(["fig8", "--runs", "4", "--seed", "1"]) == 0
        assert "Test + Hit" in capsys.readouterr().out

    def test_table3_command_small(self, capsys):
        assert main(["table3", "--runs", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Train + Hit" in out
        assert "—" in out  # channel-free cells

    def test_fig7_command(self, capsys):
        assert main(["fig7", "--seed", "7"]) == 0
        assert "bit success rate" in capsys.readouterr().out

    def test_attack_oracle_invalidate_flags(self, capsys):
        code = main([
            "attack", "--variant", "Train + Test", "--runs", "6",
            "--oracle", "--modify-mode", "invalidate",
        ])
        assert code == 0

    def test_all_command(self, tmp_path, capsys):
        code = main([
            "all", "--out", str(tmp_path), "--runs", "3",
            "--artifacts", "table1,fig5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert (tmp_path / "fig5.json").exists()


class TestResilienceFlags:
    def test_attack_supervised_prints_classification(self, capsys):
        code = main([
            "attack", "--variant", "Fill Up", "--runs", "6", "--seed", "1",
            "--max-retries", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        # The classification line is printed (clean, or retried after
        # adaptive escalation).
        assert "execution: " in out
        assert "attempt(s)" in out
        assert "Fill Up" in out

    def test_attack_with_fault_profile(self, capsys):
        # At seed 5 the crash profile crashes this cell's attempt 0.
        code = main([
            "attack", "--variant", "Fill Up", "--runs", "6", "--seed", "5",
            "--max-retries", "1", "--fault-profile", "crash",
        ])
        assert code == 0
        assert "execution: retried (2 attempt(s))" in capsys.readouterr().out

    def test_attack_invalid_configuration_fails_once(self, capsys):
        # No reseed cures n_runs=1, so the cell raises before its first
        # attempt instead of failing three times.
        code = main(["attack", "--variant", "Fill Up", "--runs", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n_runs must be >= 2 for the t-test\n"

    def test_all_invalid_configuration_writes_no_figure(self, tmp_path):
        code = main([
            "all", "--out", str(tmp_path), "--runs", "1",
            "--artifacts", "fig5",
        ])
        assert code == 1
        assert not (tmp_path / "fig5.txt").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_all_invalid_trial_count_leaves_out_empty(
        self, tmp_path, capsys, workers
    ):
        # Rejected before the checkpoint opens or a worker forks.
        code = main([
            "all", "--out", str(tmp_path), "--runs", "1",
            "--artifacts", "fig5", "--workers", workers,
        ])
        assert code == 1
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr().err == (
            "error: n_runs must be >= 2 for the t-test\n"
        )

    def test_all_invalid_trial_count_is_fine_without_attack_cells(
        self, tmp_path
    ):
        code = main([
            "all", "--out", str(tmp_path), "--runs", "1",
            "--artifacts", "table1,table2",
        ])
        assert code == 0
        assert (tmp_path / "table2.json").exists()

    def test_attack_unknown_fault_profile_fails_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "attack", "--variant", "Fill Up", "--runs", "6",
                "--fault-profile", "bogus",
            ])
        assert exit_info.value.code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["attack", "all"])
    @pytest.mark.parametrize("profile", [
        "dram-noise", "sample-loss", "vp-corruption", "chaos",
    ])
    def test_removed_fault_profiles_exit_2(
        self, tmp_path, capsys, command, profile
    ):
        target = (["--variant", "Fill Up"] if command == "attack"
                  else ["--out", str(tmp_path)])
        with pytest.raises(SystemExit) as exit_info:
            main([command, *target, "--fault-profile", profile])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        if command == "attack":
            # attack starts no worker pool: in-process profiles only.
            assert "'crash', 'none'" in err
            assert "worker-kill" not in err
        else:
            assert "'crash', 'none', 'worker-kill'" in err
        assert os.listdir(tmp_path) == []

    def test_attack_refuses_process_fault_profiles(self, capsys):
        # A process fault fires only inside a pool worker, and attack
        # starts none, so worker-kill would inject nothing.
        with pytest.raises(SystemExit) as exit_info:
            main(["attack", "--variant", "Fill Up", "--runs", "6",
                  "--seed", "1", "--fault-profile", "worker-kill"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'worker-kill'" in capsys.readouterr().err

    def test_all_resume_round_trip(self, tmp_path, capsys):
        args = [
            "all", "--out", str(tmp_path), "--runs", "3", "--seed", "1",
            "--artifacts", "fig5",
        ]
        assert main(args) == 0
        first = (tmp_path / "fig5.json").read_bytes()
        assert main(args + ["--resume"]) == 0
        assert (tmp_path / "fig5.json").read_bytes() == first

    def test_all_with_fault_profile_still_writes(self, tmp_path, capsys):
        code = main([
            "all", "--out", str(tmp_path), "--runs", "3", "--seed", "1",
            "--artifacts", "fig5", "--fault-profile", "crash",
            "--max-retries", "3",
        ])
        assert code == 0
        assert (tmp_path / "run_summary.json").exists()


class TestOnePolicy:
    """Every command measures a cell the way ``repro all`` does."""

    ARGS = ["--runs", "10", "--seed", "0"]

    @pytest.fixture(scope="class")
    def fig5_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("all")
        assert main(
            ["all", "--out", str(out), "--artifacts", "fig5", *self.ARGS]
        ) == 0
        return out

    def test_fig5_prints_what_all_writes(self, fig5_dir, capsys):
        capsys.readouterr()
        assert main(["fig5", *self.ARGS]) == 0
        assert capsys.readouterr().out == (fig5_dir / "fig5.txt").read_text()

    def test_attack_reports_the_cell_all_records(self, fig5_dir, capsys):
        # Panel (2) of Figure 5 is Train + Test on the timing-window
        # channel with an LVP, the attack command's defaults.  At 10
        # trials per hypothesis its p-value is inconclusive, so both
        # commands extend it to 20.
        record = json.loads((fig5_dir / "fig5.json").read_text())["panels"][
            "(2) Timing-Window Channel (LVP)"
        ]
        capsys.readouterr()
        assert main(["attack", "--variant", "Train + Test", *self.ARGS]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("execution:")] \
            == [lines[0]]
        assert f"pvalue={record['pvalue']:.4f}" in lines[1]
        n = record["mapped_samples"]
        execution = record["execution"]
        assert execution["escalations"] == 1 and n == 20
        assert lines[0] == (
            f"execution: {execution['classification']} "
            f"({len(execution['attempts'])} attempt(s), "
            f"{execution['escalations']} escalation(s))"
        )
        assert lines[2].endswith(f"(n={n})")
        assert lines[3].endswith(f"(n={n})")


class TestSequentialFlags:
    def test_attack_sequential_prints_effective_n(self, capsys):
        code = main([
            "attack", "--variant", "Train + Test", "--runs", "40",
            "--seed", "1", "--sequential",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sequential: effective n" in out
        assert "stopped early" in out

    def test_attack_custom_interim_looks(self, capsys):
        code = main([
            "attack", "--variant", "Train + Test", "--runs", "20",
            "--seed", "1", "--sequential", "--interim-looks", "6,12",
        ])
        assert code == 0
        assert "sequential: effective n" in capsys.readouterr().out

    def test_interim_looks_require_sequential(self, capsys):
        code = main([
            "attack", "--variant", "Train + Test", "--runs", "20",
            "--interim-looks", "6,12",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_interim_looks_fail_cleanly(self, capsys):
        code = main([
            "attack", "--variant", "Train + Test", "--runs", "20",
            "--sequential", "--interim-looks", "six,twelve",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_all_sequential_writes_records(self, tmp_path, capsys):
        import json

        code = main([
            "all", "--out", str(tmp_path), "--runs", "8", "--seed", "1",
            "--artifacts", "fig5", "--sequential",
        ])
        assert code == 0
        fig5 = json.load(open(str(tmp_path / "fig5.json")))
        assert all(
            "sequential" in record for record in fig5["panels"].values()
        )


class TestHuntCli:
    def test_hunt_static(self, tmp_path, capsys):
        code = main(["hunt", "--static", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "576 combos" in out
        assert "CERTIFIED" in out
        assert (tmp_path / "hunt_certificate.json").exists()
        assert not (tmp_path / "hunt_dynamic.json").exists()

    def test_report_hunt_renders_certificate(self, tmp_path, capsys):
        assert main(["hunt", "--static", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["report", "--dir", str(tmp_path), "--hunt"]) == 0
        out = capsys.readouterr().out
        assert "CERTIFIED" in out
        assert "Fill Up" in out

    def test_report_hunt_without_certificate_fails(self, tmp_path, capsys):
        assert main(["report", "--dir", str(tmp_path), "--hunt"]) == 1
        assert "hunt_certificate.json" in capsys.readouterr().err

    def test_hunt_json_output(self, tmp_path, capsys):
        import json

        code = main(["hunt", "--static", "--out", str(tmp_path), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["certificate"]["certified"] is True
        assert payload["dynamic"] is None

    def test_attack_strict_preflight_flag(self, capsys):
        code = main([
            "attack", "--variant", "Train + Test", "--runs", "10",
            "--channel", "persistent", "--defense", "D",
            "--strict-preflight",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "static analysis predicts effective" in err
