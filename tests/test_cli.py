import csv
import io
import json
import math

import pytest

from specturan.cli import main
from specturan.graph import (
    make_turan,
    make_turan_plus_edge,
    random_gnm,
    read_edge_list,
    write_edge_list,
    write_edge_list_file,
)
from specturan.theorems import CHECKS, TheoremId, run_check


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_turan_to_file_then_mu(self, tmp_path, capsys):
        path = str(tmp_path / "g.el")
        code, out, err = run_cli(
            capsys, "gen", "--family", "turan", "--n", "7", "--r", "3", "-o", path
        )
        assert code == 0 and out == ""
        code, out, err = run_cli(capsys, "mu", path, "--tol", "1e-10")
        assert code == 0
        rec = json.loads(out)
        # largest root of 3/(x+3) + 4/(x+2) = 1
        assert rec["value"] == pytest.approx(1 + math.sqrt(13), abs=1e-8)
        assert rec["converged"] is True

    def test_gen_stdout(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--family", "complete", "--n", "3")
        assert code == 0
        assert out == "3 3\n0 1\n0 2\n1 2\n"

    def test_gnm_deterministic(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.el"), str(tmp_path / "b.el")
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "gen", "--family", "gnm", "--n", "20", "--m", "95",
                "--seed", "42", "-o", path,
            )
            assert code == 0
        assert open(a).read() == open(b).read()

    def test_krplus_parts(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--family", "krplus", "--parts", "2,1,1")
        assert code == 0
        assert read_edge_list(out).edge_count() == 6  # K_4

    def test_missing_args_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--family", "turan")
        assert code == 1
        assert "error" in err and out == ""


class TestStatistics:
    @pytest.fixture()
    def t26_plus(self, tmp_path):
        path = str(tmp_path / "t26p.el")
        g = make_turan(6, 2).with_edge(0, 1)
        write_edge_list_file(g, path)
        return path

    def test_cliques(self, t26_plus, capsys):
        code, out, _ = run_cli(capsys, "cliques", t26_plus, "--r", "3")
        assert code == 0
        assert json.loads(out) == {"count": 3, "r": 3}

    def test_joints(self, t26_plus, capsys):
        code, out, _ = run_cli(capsys, "joints", t26_plus, "--r", "3")
        rec = json.loads(out)
        assert code == 0
        assert rec["size"] == 3 and rec["witness_edge"] == [0, 1]

    def test_joints_per_edge(self, t26_plus, capsys):
        code, out, _ = run_cli(capsys, "joints", t26_plus, "--r", "3", "--per-edge")
        rec = json.loads(out)
        assert rec["per_edge"]["0,1"] == 3

    def test_books(self, t26_plus, capsys):
        code, out, _ = run_cli(capsys, "books", t26_plus, "--r", "2")
        rec = json.loads(out)
        assert code == 0 and rec["size"] == 3

    def test_csv_json_numeric_parity(self, t26_plus, capsys):
        code, jout, _ = run_cli(capsys, "joints", t26_plus, "--r", "3")
        code, cout, _ = run_cli(capsys, "joints", t26_plus, "--r", "3",
                                "--format", "csv")
        jrec = json.loads(jout)
        rows = list(csv.reader(io.StringIO(cout)))
        crec = dict(zip(rows[0], rows[1]))
        assert int(crec["size"]) == jrec["size"]
        assert json.loads(crec["witness_edge"]) == jrec["witness_edge"]

    def test_missing_file_is_io_error(self, capsys):
        code, out, err = run_cli(capsys, "cliques", "/nonexistent.el", "--r", "3")
        assert code == 1 and "error" in err


class TestFind:
    def test_absent_exit_zero(self, tmp_path, capsys):
        path = str(tmp_path / "t28.el")
        write_edge_list_file(make_turan(8, 2), path)
        code, out, _ = run_cli(
            capsys, "find", path, "--target", "kplus", "--parts", "2,2"
        )
        assert code == 0
        assert json.loads(out)["status"] == "absent"

    def test_found_embedding(self, tmp_path, capsys):
        path = str(tmp_path / "k4.el")
        write_edge_list_file(make_turan(4, 4), path)  # K_4
        code, out, _ = run_cli(
            capsys, "find", path, "--target", "kplus", "--parts", "2,2"
        )
        rec = json.loads(out)
        assert code == 0 and rec["status"] == "found"
        assert rec["extra_edge"] is not None

    def test_budget_exit_three(self, tmp_path, capsys):
        path = str(tmp_path / "t.el")
        write_edge_list_file(make_turan(40, 4), path)
        code, out, _ = run_cli(
            capsys, "find", path, "--target", "multipartite",
            "--parts", "3,3,3,3,3", "--budget", "3",
        )
        assert code == 3
        assert json.loads(out)["status"] == "budget"


class TestCheck:
    def test_stt_yes_exit_zero(self, tmp_path, capsys):
        path = str(tmp_path / "g.el")
        write_edge_list_file(make_turan(6, 2).with_edge(0, 1), path)
        code, out, _ = run_cli(capsys, "check", path, "--theorem", "stt", "--r", "2")
        rec = json.loads(out)
        assert code == 0
        assert rec["hypothesis"] == "yes" and rec["conclusion"] == "yes"

    def test_tie_settles_exactly(self, tmp_path, capsys):
        # mu(T_2(6)) ties itself; the checker settles the tie exactly.
        path = str(tmp_path / "t.el")
        write_edge_list_file(make_turan(6, 2), path)
        code, out, _ = run_cli(capsys, "check", path, "--theorem", "stt", "--r", "2")
        rec = json.loads(out)
        assert code == 0
        assert rec["hypothesis"] == "no"
        assert rec["detail"]["hypothesis_resolved"] == "exact"

    def test_settled_no_hypothesis_exits_zero(self, tmp_path, capsys):
        # T_3(9) ties the stability threshold (1 - 1/3 - b) 9 = 6 at b = 0:
        # hypothesis "no", settled exactly.  No branch is certified, so the
        # conclusion stays open, but the theorem promises nothing here.
        path = str(tmp_path / "t.el")
        write_edge_list_file(make_turan(9, 3), path)
        code, out, _ = run_cli(
            capsys, "check", path, "--theorem", "t1.2", "--r", "3", "--b", "0"
        )
        rec = json.loads(out)
        assert code == 0
        assert rec["hypothesis"] == "no" and rec["conclusion"] == "inconclusive"
        assert rec["detail"]["hypothesis_resolved"] == "exact"

    def test_open_conclusion_under_held_hypothesis_exits_three(self, tmp_path, capsys):
        # A K_r^+ search cut by its budget leaves t2's conclusion open on a
        # host that meets the hypothesis.
        path = str(tmp_path / "t.el")
        write_edge_list_file(make_turan_plus_edge(9, 3), path)
        code, out, _ = run_cli(
            capsys, "check", path, "--theorem", "t2", "--r", "3", "--c", "0.6",
            "--budget", "1",
        )
        rec = json.loads(out)
        assert code == 3
        assert rec["hypothesis"] == "yes" and rec["conclusion"] == "inconclusive"

    def test_negative_stability_slack_is_usage_error(self, tmp_path, capsys):
        path = str(tmp_path / "t.el")
        write_edge_list_file(make_turan_plus_edge(9, 3), path)
        code, out, err = run_cli(
            capsys, "check", path, "--theorem", "t1.2", "--r", "3", "--b", "-0.01"
        )
        assert code == 1 and out == ""
        assert err.strip() == "error: stability slack b must be at least 0, got -0.01"

    def test_counterexample_exit_two(self, tmp_path, capsys):
        path = str(tmp_path / "k4.el")
        write_edge_list_file(make_turan(4, 4), path)
        code, out, _ = run_cli(
            capsys, "check", path, "--theorem", "t2", "--r", "2", "--c", "10.0"
        )
        rec = json.loads(out)
        assert code == 2
        assert rec["hypothesis"] == "yes" and rec["conclusion"] == "no"
        assert rec["graph"] is not None

    def test_tsize_without_graph(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--theorem", "tsize", "--n", "7", "--r", "3"
        )
        rec = json.loads(out)
        assert code == 0 and rec["conclusion"] == "yes"

    def test_stability(self, tmp_path, capsys):
        path = str(tmp_path / "t.el")
        write_edge_list_file(make_turan(20, 2), path)
        code, out, _ = run_cli(
            capsys, "check", path, "--theorem", "t1.2", "--r", "2", "--b", "0.001"
        )
        rec = json.loads(out)
        assert code == 0
        assert rec["certificate"]["branch"] == "b"

    def test_stability_r3_above_recursion_limit(self, tmp_path, capsys):
        path = str(tmp_path / "t.el")
        write_edge_list_file(make_turan_plus_edge(1024, 3), path)
        code, out, _ = run_cli(capsys, "check", path, "--theorem", "t1.2", "--r", "3")
        rec = json.loads(out)
        assert code == 0
        assert rec["hypothesis"] == "yes" and rec["conclusion"] == "yes"

    def test_t2_requires_c(self, tmp_path, capsys):
        path = str(tmp_path / "t.el")
        write_edge_list_file(make_turan(6, 2), path)
        code, _, err = run_cli(capsys, "check", path, "--theorem", "t2", "--r", "2")
        assert code == 1 and "needs --c" in err

    def test_params_echo_tol(self, tmp_path, capsys):
        path = str(tmp_path / "t.el")
        write_edge_list_file(make_turan(6, 2).with_edge(0, 1), path)
        code, out, _ = run_cli(
            capsys, "check", path, "--theorem", "stt", "--r", "2", "--tol", "1e-8"
        )
        assert json.loads(out)["params"]["tol"] == 1e-8


class TestCheckerTable:
    def test_one_spec_per_theorem(self):
        assert set(CHECKS) == set(TheoremId)  # dict keys: one spec each

    @pytest.mark.parametrize(
        "tid", [t for t in TheoremId if not CHECKS[t].graph_free], ids=lambda t: t.value
    )
    def test_cli_matches_run_check(self, tid, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("SPECTURAN_TOL", raising=False)
        monkeypatch.delenv("SPECTURAN_BUDGET", raising=False)
        g = make_turan_plus_edge(9, 3)
        path = str(tmp_path / "g.el")
        write_edge_list_file(g, path)
        c = 0.6 if CHECKS[tid].needs_c else None
        argv = ["check", path, "--theorem", tid.value, "--r", "3"]
        code, out, _ = run_cli(capsys, *argv, *(["--c", "0.6"] if c else []))
        assert code == 0
        expected = run_check(tid, g, 3, c=c).to_json_dict()
        assert out == json.dumps(expected, sort_keys=True) + "\n"


class TestEnvOverrides:
    def test_tol_env(self, tmp_path, capsys, monkeypatch):
        path = str(tmp_path / "t.el")
        write_edge_list_file(make_turan(6, 2).with_edge(0, 1), path)
        monkeypatch.setenv("SPECTURAN_TOL", "1e-6")
        code, out, _ = run_cli(capsys, "check", path, "--theorem", "stt", "--r", "2")
        assert json.loads(out)["params"]["tol"] == 1e-6
        # explicit flag wins over the environment
        code, out, _ = run_cli(
            capsys, "check", path, "--theorem", "stt", "--r", "2", "--tol", "1e-9"
        )
        assert json.loads(out)["params"]["tol"] == 1e-9

    def test_budget_env(self, tmp_path, capsys, monkeypatch):
        path = str(tmp_path / "t.el")
        write_edge_list_file(make_turan(40, 4), path)
        monkeypatch.setenv("SPECTURAN_BUDGET", "3")
        code, out, _ = run_cli(
            capsys, "find", path, "--target", "multipartite", "--parts", "3,3,3,3,3"
        )
        assert code == 3  # env budget of 3 exhausts


class TestNonFiniteC:
    @pytest.mark.parametrize("c", ["-inf", "inf", "nan"])
    def test_usage_error(self, c, tmp_path, capsys):
        path = str(tmp_path / "t.el")
        write_edge_list_file(make_turan_plus_edge(30, 3), path)
        code, out, err = run_cli(capsys, "check", path, "--theorem", "t3", "--r", "3", f"--c={c}")
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: c must be finite, got {c}"]


class TestNonFiniteTol:
    """--tol, SPECTURAN_TOL and an experiment's tol must be positive and
    finite: each bad value is one error line and exit 1, before any work."""

    BAD = ["inf", "-inf", "nan", "0"]

    @pytest.fixture
    def host(self, tmp_path):
        path = str(tmp_path / "t.el")
        write_edge_list_file(make_turan_plus_edge(30, 3), path)
        return path

    @staticmethod
    def _rejected(code, out, err, value, prefix=""):
        assert code == 1 and out == ""
        assert err.splitlines() == [
            f"error: {prefix}tol must be positive and finite, got {float(value)}"
        ]

    @pytest.mark.parametrize("value", BAD)
    def test_flag(self, value, host, capsys):
        self._rejected(*run_cli(capsys, "mu", host, f"--tol={value}"), value)
        argv = ("check", host, "--theorem", "stt", "--r", "3", f"--tol={value}")
        self._rejected(*run_cli(capsys, *argv), value)

    @pytest.mark.parametrize("value", BAD)
    def test_environment(self, value, host, capsys, monkeypatch):
        monkeypatch.setenv("SPECTURAN_TOL", value)
        prefix = "SPECTURAN_TOL: "
        self._rejected(*run_cli(capsys, "mu", host), value, prefix)
        argv = ("check", host, "--theorem", "t1", "--r", "3")
        self._rejected(*run_cli(capsys, *argv), value, prefix)
        argv = ("experiment", "--set", "mode=exhaustive", "--set", "n=3")
        self._rejected(*run_cli(capsys, *argv), value, prefix)
        # An explicit setting wins over the environment.
        code, _, _ = run_cli(capsys, "mu", host, "--tol=1e-10")
        assert code == 0

    @pytest.mark.parametrize("value", BAD)
    def test_experiment_setting(self, value, capsys):
        argv = ("experiment", "--set", "mode=exhaustive", "--set", "n=3")
        argv += ("--set", f"tol={value}")
        self._rejected(*run_cli(capsys, *argv), value)


class TestIntegerFlags:
    """Integer flags, SPECTURAN_BUDGET and experiment settings are read
    exactly: plain integers at any size, scientific notation only where it
    names an integer, and anything else is a usage error."""

    BIG = "9007199254740993"  # 2^53 + 1, which a float rounds to 2^53

    @staticmethod
    def _usage_error(code, out, err):
        assert code == 1 and out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            err.splitlines()[0]
        ]

    def test_gen_seed_and_m(self, capsys):
        def gnm(*flags):
            code, out, _ = run_cli(capsys, "gen", "--family", "gnm", "--n", "6", *flags)
            assert code == 0
            return out

        near = gnm("--m", "5", "--seed", "18446744073709551557")
        assert near == write_edge_list(random_gnm(6, 5, 18446744073709551557))
        assert near != gnm("--m", "5", "--seed", "18446744073709551616")
        assert gnm("--m", "1e1", "--seed", "1.5e3") == gnm("--m", "10", "--seed", "1500")

    @pytest.mark.parametrize("value", ["2.5", "4/2", "inf", "1e-1", "x"])
    def test_fractional_flags_are_usage_errors(self, value, tmp_path, capsys):
        path = str(tmp_path / "t.el")
        write_edge_list_file(make_turan(6, 2), path)
        for argv in (
            ("gen", "--family", "gnm", "--n", "6", "--m", value),
            ("gen", "--family", "gnm", "--n", "6", "--m", "5", "--seed", value),
            ("mu", path, "--max-iter", value),
            ("find", path, "--target", "kplus", "--parts", "2,2", "--budget", value),
            ("check", path, "--theorem", "stt", "--r", "2", "--budget", value),
            ("experiment", "--set", "mode=exhaustive", "--set", "n=3",
             "--set", "checks=tsize", "--set", f"seed={value}"),
        ):
            self._usage_error(*run_cli(capsys, *argv))

    def test_budget_env(self, tmp_path, capsys, monkeypatch):
        path = str(tmp_path / "t.el")
        write_edge_list_file(make_turan(40, 4), path)
        find = ("find", path, "--target", "multipartite", "--parts", "3,3,3,3,3")
        monkeypatch.setenv("SPECTURAN_BUDGET", "3e0")
        assert run_cli(capsys, *find)[0] == 3
        for value in ("2.5", "inf"):
            monkeypatch.setenv("SPECTURAN_BUDGET", value)
            code, out, err = run_cli(capsys, *find)
            self._usage_error(code, out, err)
            assert "SPECTURAN_BUDGET" in err

    def test_report_echoes_exact_seed(self, tmp_path, capsys):
        base = ("--set", "mode=random_hunt", "--set", "n=6", "--set", "trials=1e0",
                "--set", "checks=stt")
        code, out, _ = run_cli(capsys, "experiment", *base, "--set", f"seed={self.BIG}")
        assert code == 0
        assert json.loads(out)["config"]["seed"] == int(self.BIG)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"mode = random_hunt\nn = 6\ntrials = 1\nseed = {self.BIG}\n")
        code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["config"]["seed"] == int(self.BIG)


class TestExperimentCommand:
    def test_config_file_run(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        out_path = tmp_path / "report.json"
        cfg.write_text(
            f"mode = exhaustive\nn = 4\nr = 2\nchecks = stt,tsize\n"
            f"output = {out_path}\n"
        )
        code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 0
        payload = json.loads(out)
        assert payload["counterexamples"] == []
        assert out_path.exists()
        assert json.loads(out_path.read_text())["instances_checked"] == 65

    def test_set_overrides(self, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "--set", "mode=exhaustive", "--set", "n=3",
            "--set", "r=2", "--set", "checks=tsize",
        )
        assert code == 0
        assert json.loads(out)["instances_checked"] == 1

    def test_no_config_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "experiment")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize(
        "mode, setting",
        [("exhaustive", "sample_cap=-3"), ("random_hunt", "trials=-2")],
    )
    def test_negative_count_usage_error(self, mode, setting, capsys):
        code, out, err = run_cli(
            capsys, "experiment", "--set", f"mode={mode}", "--set", "n=5",
            "--set", setting,
        )
        key, value = setting.split("=")
        assert code == 1 and out == ""
        assert err.strip() == f"error: {key} must be >= 0, got {value}"


class TestUsageContract:
    def test_unknown_subcommand(self, capsys):
        code, out, err = run_cli(capsys, "frobnicate")
        assert code == 1 and out == ""

    def test_stdout_machine_parseable_only(self, tmp_path, capsys):
        path = str(tmp_path / "g.el")
        write_edge_list_file(make_turan(5, 2), path)
        code, out, err = run_cli(capsys, "mu", path)
        json.loads(out)  # must parse
        assert err == ""
