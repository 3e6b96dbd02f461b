import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import nlhide
from nlhide import Ensemble, cli, hiding, load_ensemble, save_ensemble
from nlhide.cli import main
from nlhide.discrimination import DEFAULT_MAX_ITERATIONS, DEFAULT_SOLVER_TOL

from test_hiding import bell_mix, overlapping_pair


@pytest.fixture()
def runner():
    return CliRunner()


def write_example(runner, tmp_path, args, name="e.json"):
    path = tmp_path / name
    result = runner.invoke(main, ["example", *args, "-o", str(path)])
    assert result.exit_code == 0, result.output
    return path


@pytest.fixture()
def ghz22_file(runner, tmp_path):
    return write_example(runner, tmp_path, ["--kind", "1", "--d", "2", "--m", "2"])


@pytest.fixture()
def parity2212_file(runner, tmp_path):
    return write_example(
        runner, tmp_path,
        ["--kind", "2", "--d", "2", "--m", "2", "--s", "1", "--t", "2"],
        name="p.json",
    )


@pytest.fixture()
def zero_prior_file(tmp_path, ghz22_file):
    pair = load_ensemble(str(ghz22_file))
    path = tmp_path / "zero.json"
    save_ensemble(Ensemble(pair.parties, (1.0, 0.0), pair.states), str(path))
    return path


@pytest.fixture()
def negative_prior_file(tmp_path, ghz22_file):
    """The GHZ-complement (2,2) file with priors that sum to 1 but one is -1e-13."""
    doc = json.loads(ghz22_file.read_text())
    doc["probs"] = [1.0000000000001, -1e-13]
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture()
def bad_herm_file(tmp_path, ghz22_file):
    """The GHZ-complement (2,2) file with one off-diagonal entry of state 0 changed."""
    doc = json.loads(ghz22_file.read_text())
    doc["states"][0][0][1] = [0.25, 0]
    path = tmp_path / "bad-herm.json"
    path.write_text(json.dumps(doc))
    return path


def assert_solver_options(runner, monkeypatch, args):
    """``args``, a command on a file, takes ``--tol`` and ``--max-iterations`` in
    ``check``'s ranges (else exit 2, naming the option) and hands both to the one
    ``check_hiding`` call behind its report."""
    calls = []
    real = hiding.check_hiding

    def recording(e, tol, max_iterations):
        calls.append((tol, max_iterations))
        return real(e, tol=tol, max_iterations=max_iterations)

    monkeypatch.setattr(hiding, "check_hiding", recording)
    monkeypatch.setattr(cli, "check_hiding", recording)
    for flags in (["--tol", "0"], ["--max-iterations", "-3"]):
        result = runner.invoke(main, [*args, *flags])
        assert result.exit_code == 2
        assert flags[0] in result.output
    assert calls == []
    result = runner.invoke(main, [*args, "--tol", "1e-6", "--max-iterations", "7"])
    assert result.exit_code == 0, result.output
    assert calls == [(1e-6, 7)]


def assert_fails(result, code):
    """Exit ``code`` with an ``error:`` line, through ``sys.exit``: an escaped
    exception (a traceback outside the test runner) lands in ``result.exception``."""
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert any(line.lower().startswith("error:") for line in result.output.splitlines())


class TestExampleCommand:
    def test_kind1_writes_expected_probs(self, runner, tmp_path, ghz22_file):
        ensemble = load_ensemble(str(ghz22_file))
        assert ensemble.probs == (0.75, 0.25)
        assert ensemble.dim == 4

    def test_kind2_large_family(self, runner, tmp_path):
        path = write_example(
            runner, tmp_path,
            ["--kind", "2", "--d", "2", "--m", "2", "--s", "2", "--t", "2"],
            name="big.json",
        )
        ensemble = load_ensemble(str(path))
        assert ensemble.n == 4
        assert ensemble.dim == 256

    @pytest.mark.parametrize("args, digest", [
        (["--kind", "1", "--d", "2", "--m", "2"],
         "a7f23bb993dcf0470add15341f7b9352869963f294fd86b577c2997409854c5e"),
        (["--kind", "2", "--d", "2", "--m", "2", "--s", "2", "--t", "2"],
         "2b1beba671a697e672df79c360e2e1d55a2aaf24e31c86f6f2c6c9c72510ea25"),
    ], ids=["pair", "blocks"])
    def test_same_ensemble_gives_the_same_bytes(self, runner, tmp_path, args, digest):
        # The README's pair.json and blocks.json, pinned by their sha256.
        path = write_example(runner, tmp_path, args)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_diagnostics_printed(self, runner, tmp_path):
        path = tmp_path / "e.json"
        result = runner.invoke(
            main, ["example", "--kind", "1", "--d", "2", "--m", "2", "-o", str(path)]
        )
        assert "probability-sum: ok" in result.output

    def test_small_d_rejected(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["example", "--kind", "1", "--d", "1", "--m", "2", "-o", str(tmp_path / "x.json")],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("flags", [["--s", "5", "--t", "3"], ["--s", "2"], ["--t", "1"]])
    def test_kind1_rejects_block_flags(self, runner, tmp_path, flags):
        path = tmp_path / "x.json"
        args = ["example", "--kind", "1", "--d", "2", "--m", "2", *flags, "-o", str(path)]
        result = runner.invoke(main, args)
        assert_fails(result, 2)
        assert f"{flags[0]} has no effect for kind 1" in result.output
        assert not path.exists()

    def test_cap_exceeded(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["--cap", "100", "example", "--kind", "2", "--d", "2", "--m", "2",
             "--s", "2", "--t", "2", "-o", str(tmp_path / "x.json")],
        )
        assert result.exit_code == 3

    def test_cap_env_var(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["example", "--kind", "1", "--d", "2", "--m", "2",
             "-o", str(tmp_path / "x.json")],
            env={"NLHIDE_DIM_CAP": "2"},
        )
        assert result.exit_code == 3


class TestCheckCommand:
    def test_admissible_exits_zero(self, runner, ghz22_file):
        result = runner.invoke(main, ["check", str(ghz22_file)])
        assert result.exit_code == 0
        assert "q[A1|A2] = 0.75" in result.output
        assert "admissible: yes" in result.output

    def test_inadmissible_exits_one_with_failed_condition(self, runner, parity2212_file):
        result = runner.invoke(main, ["check", str(parity2212_file)])
        assert result.exit_code == 1
        assert "0.5625 >= 0.5" in result.output
        assert "admissible: no" in result.output

    @pytest.mark.parametrize("name, code", [("ghz22_file", 0), ("parity2212_file", 1)])
    def test_exit_holds_no_ensemble_or_report(self, runner, request, name, code):
        # CliRunner keeps the exit's traceback; no frame in it may pin the command's work.
        result = runner.invoke(main, ["check", str(request.getfixturevalue(name))])
        assert result.exit_code == code
        exc, frames = result.exc_info[1], []
        while exc is not None:
            tb = exc.__traceback__
            while tb is not None:
                frames.append(tb.tb_frame)
                tb = tb.tb_next
            exc = exc.__context__
        assert frames
        held = [type(v).__name__ for frame in frames for v in frame.f_locals.values()
                if isinstance(v, (Ensemble, hiding.HidingReport))]
        assert held == []

    def test_forms_the_entries_once(self, runner, tmp_path, entry_passes):
        # Parity (2, 3, 1, 3): the load's validate and the report read one record of the
        # eight states' entries, one mask pass and one Hermitian check each.
        path = str(tmp_path / "parity.json")
        save_ensemble(nlhide.parity_block_ensemble(nlhide.ParityBlockParams(2, 3, 1, 3)), path)
        masked, checked = entry_passes
        result = runner.invoke(main, ["check", path])
        assert result.exit_code == 1, result.output  # orthogonal, not hiding
        assert (sum(masked), len(checked)) == (8, 8)

    def test_json_format(self, runner, ghz22_file):
        result = runner.invoke(main, ["check", str(ghz22_file), "--format", "json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["admissible"] is True
        assert report["q_values"]["A1|A2"] == pytest.approx(0.75)
        assert report["min_folds"] == 19

    def test_zero_tol_exits_two(self, runner, tmp_path):
        # Three Bell states: no cut is decided by dominance, so the solver would run.
        path = tmp_path / "bell.json"
        save_ensemble(bell_mix((0.5, 0.3, 0.2)), str(path))
        result = runner.invoke(main, ["check", str(path), "--tol", "0"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "--tol" in result.output

    def test_negative_max_iterations_exits_two(self, runner, ghz22_file, monkeypatch):
        def no_report(*args, **kwargs):
            raise AssertionError("check_hiding ran")

        monkeypatch.setattr(cli, "check_hiding", no_report)
        result = runner.invoke(main, ["check", str(ghz22_file), "--max-iterations", "-3"])
        assert result.exit_code == 2
        assert "--max-iterations" in result.output

    def test_truncated_file_exits_two(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"parties": ["A1",', encoding="utf-8")
        result = runner.invoke(main, ["check", str(bad)])
        assert result.exit_code == 2

    def test_schema_error_names_the_reason(self, runner, tmp_path, ghz22_file):
        doc = json.loads(ghz22_file.read_text(encoding="utf-8"))
        doc["party_of_slot"] = [-1, 0]
        bad = tmp_path / "bad-owner.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        result = runner.invoke(main, ["check", str(bad)])
        assert_fails(result, 2)
        assert "schema: party_of_slot entries must be integers in 0..1, got -1" in result.output

    @pytest.mark.parametrize("command", [["check"], ["coalition", "--L", "1"]])
    def test_colliding_cut_names_exit_two(self, runner, tmp_path, colliding_labels, command):
        path = tmp_path / "collide.json"
        save_ensemble(colliding_labels, str(path))
        result = runner.invoke(main, [command[0], str(path), *command[1:]])
        assert_fails(result, 2)
        (line,) = result.output.splitlines()
        assert line.startswith("error:") and "'abc|bc'" in line

    def test_leading_zero_number_exits_two(self, runner, tmp_path, ghz22_file):
        text = ghz22_file.read_text(encoding="utf-8")
        bad = tmp_path / "leading-zero.json"
        bad.write_text(text.replace('"states":[[[[0.', '"states":[[[[00.', 1), encoding="utf-8")
        result = runner.invoke(main, ["check", str(bad)])
        assert_fails(result, 2)
        assert "schema: not valid JSON" in result.output

    def test_indented_file_gives_the_same_report(self, runner, tmp_path, parity2212_file):
        indented = tmp_path / "indented.json"
        indented.write_text(json.dumps(json.loads(parity2212_file.read_text()), indent=1))
        outputs = [runner.invoke(main, ["check", str(path), "--format", "json"]).output
                   for path in (parity2212_file, indented)]
        assert outputs[0] == outputs[1]

    def test_missing_file_exits_two(self, runner, tmp_path):
        result = runner.invoke(main, ["check", str(tmp_path / "nope.json")])
        assert result.exit_code == 2

    def test_undecided_exits_four(self, runner, ghz22_file, monkeypatch):
        import nlhide.cli as cli_module

        real_check = cli_module.check_hiding

        def undecided_check(ensemble, tol, max_iterations):
            report = real_check(ensemble, tol=tol, max_iterations=max_iterations)
            object.__setattr__(report, "admissible", None)
            return report

        monkeypatch.setattr(cli_module, "check_hiding", undecided_check)
        result = runner.invoke(main, ["check", str(ghz22_file)])
        assert result.exit_code == 4
        assert "undecided" in result.output


class TestBoundsCommand:
    def test_curve_rows(self, runner, ghz22_file):
        result = runner.invoke(main, ["bounds", str(ghz22_file), "--lmax", "4"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "L,bound,exact"
        values = [line.split(",") for line in lines[1:]]
        assert [v[1] for v in values] == ["0.75", "0.625", "0.5625", "0.53125"]
        assert [v[2] for v in values] == ["0.75", "0.625", "0.5625", "0.53125"]

    def test_zero_lmax_rejected(self, runner, ghz22_file):
        result = runner.invoke(main, ["bounds", str(ghz22_file), "--lmax", "0"])
        assert_fails(result, 2)

    def test_inadmissible_needs_force(self, runner, parity2212_file):
        result = runner.invoke(main, ["bounds", str(parity2212_file), "--lmax", "3"])
        assert_fails(result, 1)
        forced = runner.invoke(
            main, ["bounds", str(parity2212_file), "--lmax", "3", "--force"]
        )
        assert forced.exit_code == 0
        assert forced.output.startswith("L,bound,exact")
        # max q 0.5625 >= 2/4: the bound never decays, and is capped at 1.
        assert [line.split(",")[1] for line in forced.output.splitlines()[1:]] == ["1"] * 3


    def test_solver_options(self, runner, monkeypatch, ghz22_file):
        assert_solver_options(runner, monkeypatch, ["bounds", str(ghz22_file), "--lmax", "2"])


class TestSimulateCommand:
    def test_summary_and_determinism(self, runner, ghz22_file, tmp_path):
        args = [
            "simulate", str(ghz22_file), "--L", "3", "--x", "1",
            "--trials", "500", "--seed", "42",
        ]
        first = runner.invoke(
            main, args + ["--transcripts", str(tmp_path / "t1.jsonl")]
        )
        assert first.exit_code == 0, first.output
        header, row = first.output.strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["recovery_rate"] == "1"
        assert cells["expected_0"] == "0.5625"

        second = runner.invoke(
            main, args + ["--transcripts", str(tmp_path / "t2.jsonl")]
        )
        assert (tmp_path / "t1.jsonl").read_bytes() == (tmp_path / "t2.jsonl").read_bytes()
        assert first.output == second.output

        lines = (tmp_path / "t1.jsonl").read_text().strip().splitlines()
        assert len(lines) == 500
        transcript = json.loads(lines[0])
        assert transcript["x"] == 1
        assert transcript["recovered"] == 1

    def test_transcript_written_in_blocks_is_the_whole_run(self, runner, ghz22_file, tmp_path,
                                                          monkeypatch):
        monkeypatch.setattr(cli, "_TRANSCRIPT_BLOCK", 64)  # 500 trials: 8 blocks, the last short
        out = tmp_path / "t.jsonl"
        result = runner.invoke(main, ["simulate", str(ghz22_file), "--L", "3", "--x", "1",
                                      "--trials", "500", "--seed", "42", "--transcripts", str(out)])
        assert result.exit_code == 0, result.output
        cfg = hiding.SchemeConfig.create(load_ensemble(str(ghz22_file)), 3, seed=42)
        run = hiding.run_protocol(cfg, 1, 500)
        assert out.read_text(encoding="utf-8") == hiding.transcripts_to_jsonl(run)

    def test_negative_seed_exits_two(self, runner, ghz22_file):
        result = runner.invoke(
            main, ["simulate", str(ghz22_file), "--L", "3", "--x", "1", "--seed", "-1"]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "--seed" in result.output

    def test_x_out_of_range_exits_two(self, runner, ghz22_file):
        result = runner.invoke(
            main, ["simulate", str(ghz22_file), "--L", "3", "--x", "5", "--trials", "10"]
        )
        assert result.exit_code == 2

    def test_direct_mode_descriptor(self, runner, ghz22_file, tmp_path):
        out = tmp_path / "enc.json"
        result = runner.invoke(
            main,
            ["simulate", str(ghz22_file), "--L", "2", "--x", "1", "--mode", "direct",
             "--transcripts", str(out)],
        )
        assert result.exit_code == 0, result.output
        descriptor = json.loads(out.read_text())
        assert descriptor["dim"] == 16
        assert descriptor["recovery_ok"] is True
        assert "recovery_ok" in result.output.splitlines()[0]

    @pytest.mark.parametrize("folds", ["1", "2"])
    def test_direct_mode_non_orthogonal_never_recovers(self, runner, tmp_path, folds):
        # |0><0| and |+><+|: the leftover of the class "measurement" is not PSD.
        path = tmp_path / "overlap.json"
        save_ensemble(overlapping_pair(), str(path))
        result = runner.invoke(
            main,
            ["simulate", str(path), "--L", folds, "--x", "1", "--mode", "direct", "--force"],
        )
        assert result.exit_code == 0, result.output
        header, row = result.output.splitlines()
        assert row.split(",")[header.split(",").index("recovery_ok")] == "0"

    def test_forced_broadcast_of_non_orthogonal_states_exits_one(self, runner, tmp_path):
        path = tmp_path / "overlap.json"
        save_ensemble(overlapping_pair(), str(path))
        result = runner.invoke(
            main, ["simulate", str(path), "--L", "3", "--x", "1", "--force"]
        )
        assert_fails(result, 1)
        assert "orthogonal" in result.output

    def test_inadmissible_needs_force(self, runner, parity2212_file):
        result = runner.invoke(
            main, ["simulate", str(parity2212_file), "--L", "2", "--x", "0", "--trials", "10"]
        )
        assert_fails(result, 1)
        forced = runner.invoke(
            main,
            ["simulate", str(parity2212_file), "--L", "2", "--x", "0", "--trials", "10",
             "--force"],
        )
        assert forced.exit_code == 0


class TestFoldCommand:
    def test_writes_coarse_ensemble(self, runner, ghz22_file, tmp_path):
        out = tmp_path / "coarse.json"
        result = runner.invoke(
            main, ["fold", str(ghz22_file), "--L", "2", "-o", str(out)]
        )
        assert result.exit_code == 0, result.output
        coarse = load_ensemble(str(out))
        assert coarse.dim == 16
        np.testing.assert_allclose(coarse.probs, [0.625, 0.375])

    def test_uniform_flag(self, runner, ghz22_file, tmp_path):
        out = tmp_path / "uniform.json"
        result = runner.invoke(
            main, ["fold", str(ghz22_file), "--L", "2", "--uniform", "-o", str(out)]
        )
        assert result.exit_code == 0
        assert load_ensemble(str(out)).probs == (0.5, 0.5)

    def test_cap_exceeded_exits_three(self, runner, ghz22_file, tmp_path):
        result = runner.invoke(
            main,
            ["--cap", "64", "fold", str(ghz22_file), "--L", "4",
             "-o", str(tmp_path / "x.json")],
        )
        assert_fails(result, 3)

    @pytest.mark.parametrize("flags", [[], ["--uniform"]], ids=["coarse", "uniform"])
    def test_forms_only_the_base_entries(self, runner, ghz22_file, tmp_path, entry_passes,
                                         flags):
        # The loader's validate forms the two base states' entries; the coarse states
        # are built and saved without being read as entries.
        masked, checked = entry_passes
        out = str(tmp_path / "coarse.json")
        result = runner.invoke(main, ["fold", str(ghz22_file), "--L", "2", *flags, "-o", out])
        assert result.exit_code == 0, result.output
        assert (masked, len(checked)) == ([2], 2)


class TestCoalitionCommand:
    def test_table(self, runner, tmp_path):
        path = write_example(
            runner, tmp_path, ["--kind", "1", "--d", "2", "--m", "3"], name="g3.json"
        )
        result = runner.invoke(main, ["coalition", str(path), "--L", "2"])
        assert result.exit_code == 0, result.output
        lines = result.output.strip().splitlines()
        assert lines[0] == "partition,L,bound_or_exact,kind"
        assert len(lines) == 5
        assert all(line.endswith("exact") for line in lines[1:])
        assert "0.78125" in lines[1]

    def test_inadmissible_exits_one(self, runner, parity2212_file):
        result = runner.invoke(main, ["coalition", str(parity2212_file), "--L", "2"])
        assert_fails(result, 1)

    def test_solver_options(self, runner, monkeypatch, ghz22_file):
        assert_solver_options(runner, monkeypatch, ["coalition", str(ghz22_file), "--L", "2"])

    def test_too_many_parties_exits_two(self, runner, tmp_path, eleven_parties):
        path = tmp_path / "eleven.json"
        save_ensemble(eleven_parties, str(path))
        result = runner.invoke(main, ["coalition", str(path), "--L", "1", "--force"])
        assert result.exit_code == 2
        assert "11 parties" in result.output


@pytest.mark.parametrize(
    "args, code",
    [
        (["simulate", "{zero}", "--mode", "direct", "--L", "1", "--x", "0", "--force"], 2),
        (["bounds", "{pair}", "--lmax", "3", "-o", "{missing}/x.csv"], 2),
        (["check", "{pair}", "--tol", "nan"], 2),
        (["check", "{herm}"], 2),
        (["--cap", "8", "simulate", "{pair}", "--mode", "direct", "--L", "2", "--x", "0"], 3),
        (["--cap", "0", "check", "{pair}"], 2),
        (["fold", "{pair}", "--L", "0", "-o", "{missing}/c.json"], 2),
        (["simulate", "{pair}", "--L", "0", "--x", "0"], 2),
        (["coalition", "{pair}", "--L", "0"], 2),
        (["simulate", "{pair}", "--L", "1", "--x", "0", "--trials", "0"], 2),
        (["simulate", "{pair}", "--mode", "direct", "--L", "3", "--x", "1", "--trials", "5"], 2),
        (["check", "{negative}"], 2),
        (["fold", "{negative}", "--L", "2", "-o", "{missing}/c.json"], 2),
    ],
    ids=["direct-zero-prior-class", "bounds-missing-dir", "check-tol-nan", "check-non-hermitian",
         "direct-cap", "cap-zero", "fold-L0", "simulate-L0", "coalition-L0", "simulate-trials0",
         "direct-trials", "check-negative-prior", "fold-negative-prior"],
)
def test_errors_exit_with_their_code(runner, tmp_path, ghz22_file, zero_prior_file, bad_herm_file,
                                     negative_prior_file, args, code):
    paths = {"pair": ghz22_file, "zero": zero_prior_file, "herm": bad_herm_file,
             "negative": negative_prior_file, "missing": tmp_path / "missing"}
    result = runner.invoke(main, [arg.format(**paths) for arg in args])
    assert_fails(result, code)
    if "{negative}" in args:
        assert "probability-nonnegative" in result.output


@pytest.mark.parametrize(
    "target, args",
    [
        ("run_protocol", ["simulate", "{pair}", "--L", "3", "--x", "1", "--trials", "5"]),
        ("load_ensemble", ["check", "{pair}"]),
    ],
    ids=["simulate", "check"],
)
def test_job_too_large_for_memory_exits_two(runner, ghz22_file, monkeypatch, target, args):
    # Stands in for numpy's allocation error; a test never asks for the real allocation.
    def too_large(*a, **kw):
        raise MemoryError("Unable to allocate 2.18 TiB for an array with shape (100000000000, 3)")

    monkeypatch.setattr(cli, target, too_large)
    result = runner.invoke(main, [arg.format(pair=ghz22_file) for arg in args])
    assert_fails(result, 2)
    assert result.output.splitlines() == [
        "error: Unable to allocate 2.18 TiB for an array with shape (100000000000, 3)"]


@pytest.mark.parametrize(
    "args, reports",
    [
        (["check"], 1),
        (["bounds", "--lmax", "3"], 1),
        (["simulate", "--L", "2", "--x", "1", "--trials", "5"], 1),
        (["simulate", "--L", "2", "--x", "1", "--mode", "direct"], 1),
        (["coalition", "--L", "2"], 1),
        (["fold", "--L", "2", "-o", "coarse.json"], 0),
    ],
    ids=["check", "bounds", "simulate-broadcast", "simulate-direct", "coalition", "fold"],
)
def test_one_report_per_command(runner, ghz22_file, monkeypatch, args, reports):
    calls = []
    real = hiding.check_hiding

    def counting(*a, **kw):
        calls.append(1)
        return real(*a, **kw)

    monkeypatch.setattr(hiding, "check_hiding", counting)
    monkeypatch.setattr(cli, "check_hiding", counting)
    with runner.isolated_filesystem():
        result = runner.invoke(main, [args[0], str(ghz22_file), *args[1:]])
    assert result.exit_code == 0, result.output
    assert len(calls) == reports


@pytest.mark.parametrize("command", ["check", "bounds", "coalition"])
def test_solver_option_defaults_are_the_library_defaults(command):
    defaults = {param.name: param.default for param in main.commands[command].params}
    assert defaults["tol"] == DEFAULT_SOLVER_TOL
    assert defaults["max_iterations"] == DEFAULT_MAX_ITERATIONS


def test_cli_import_leaves_scipy_stats_unloaded():
    src = str(Path(nlhide.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, nlhide.cli; sys.exit('scipy.stats' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
