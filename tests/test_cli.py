"""Tests for the command-line interface and its exit-code contract."""

import json
import pickle

import pytest

from noisy_sqp import (NoiseSpec, SolverConfig, get_problem, reference_solution, solve,
                       write_trace_csv)
from noisy_sqp.cli import dispatch
from noisy_sqp.solver import Status


def test_solve_exact_reports_solution(capsys):
    code = dispatch(["solve", "--problem", "HS7", "--eps1", "0", "--eps2", "0",
                     "--beta", "3", "--max-iters", "200"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status:         converged" in out
    assert "kkt residual" in out and "||c(x)||_1" in out


def test_solve_default_config_completes(capsys):
    code = dispatch(["solve", "--problem", "HS7"])
    assert code == 0
    assert "final x" in capsys.readouterr().out


@pytest.mark.parametrize("command,iters_flag", [("solve", "--max-iters MAX_ITERS"),
                                               ("trace", "--iters ITERS")])
def test_help_shows_the_solver_config_defaults(command, iters_flag, capsys):
    assert dispatch([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert f"Hessian scaling (default {SolverConfig.beta})" in text
    assert f"{iters_flag} " in text and f"(default {SolverConfig.max_iters})" in text


def test_solve_without_relaxation_exits_2(capsys):
    code = dispatch(["solve", "--problem", "HS7", "--eps1", "1e-5", "--eps2", "1e-5",
                     "--no-relaxation", "--seed", "1", "--no-termination"])
    out = capsys.readouterr().out
    assert code == 2
    assert "failure at:     iteration" in out


def test_solve_reports_a_rank_deficient_end_point_and_exits_3(capsys):
    # The run ends singular_jacobian; J at the end point fails the rank gate
    # again, and the report prints n/a for the KKT residual, not a traceback.
    code = dispatch(["solve", "--problem", "BT11", "--eps1", "1e-3", "--eps2", "1e-3",
                     "--beta", "0.01", "--seed", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert "status:         singular_jacobian" in captured.out
    assert "kkt residual:   n/a (Jacobian numerically rank deficient" in captured.out
    assert "dist to x*:" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("status,value,kind,exit_code", [
    (Status.CONVERGED, "converged", "opt", 0),
    (Status.MAX_ITERS, "max_iters", "max_iters", 0),
    (Status.LINE_SEARCH_FAILURE, "line_search_failure", "ls", 2),
    (Status.SINGULAR_JACOBIAN, "singular_jacobian", "singular", 3),
    (Status.NONFINITE, "nonfinite", "nonfinite", 4),
])
def test_status_value_kind_and_exit_code(status, value, kind, exit_code):
    assert (status.value, status.kind, status.exit_code) == (value, kind, exit_code)


@pytest.mark.parametrize("status", list(Status))
def test_status_looks_up_pickles_and_prints_by_its_value(status):
    assert Status(status.value) is status
    assert pickle.loads(pickle.dumps(status)) is status
    assert repr(status) == f"<Status.{status.name}: {status.value!r}>"


@pytest.mark.parametrize("command", ["tables", "misest"])
def test_json_termination_kind_is_the_status_kind(command, capsys):
    argv = [command, "--problems", "HS7", "--eps-levels", "1e-5", "--seeds", "1",
            "--format", "json"]
    if command == "tables":
        argv += ["--kmax", "20"]
    assert dispatch(argv) == 0
    runs = json.loads(capsys.readouterr().out)["runs"]
    assert runs
    for row in runs:
        assert row["termination_kind"] == Status(row["status"]).kind


def test_trace_writes_requested_file(tmp_path, capsys):
    out = tmp_path / "bt11.csv"
    code = dispatch(["trace", "--problem", "BT11", "--eps1", "1e-3", "--eps2", "1e-3",
                     "--iters", "40", "--seed", "2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 41  # header + one row per iteration
    assert lines[0] == "k,dist,log2_dist,alpha,pi,merit_noisy,psi,backtracks"


def test_trace_is_seed_deterministic(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    base = ["trace", "--problem", "HS7", "--eps1", "1e-3", "--eps2", "1e-3", "--iters", "30"]
    assert dispatch(base + ["--seed", "7", "--out", str(a)]) == 0
    assert dispatch(base + ["--seed", "7", "--out", str(b)]) == 0
    assert dispatch(base + ["--seed", "8", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_trace_honours_solver_flags(tmp_path, capsys):
    base = ["trace", "--problem", "HS7", "--eps1", "1e-3", "--eps2", "1e-3",
            "--iters", "60", "--seed", "3"]
    default, flagged = tmp_path / "default.csv", tmp_path / "flagged.csv"
    assert dispatch(base + ["--out", str(default)]) == 0
    assert dispatch(base + ["--beta", "3", "--no-relaxation", "--out", str(flagged)]) == 0
    capsys.readouterr()
    # Default flags: the relaxed, stop-test-free run on the true noise bounds.
    p = get_problem("HS7")
    spec = NoiseSpec(1e-3, 1e-3, seed=3)
    cfg = SolverConfig(max_iters=60, termination_enabled=False)
    cfg = cfg.with_estimates(spec.bounds(p.n, p.m))
    result = solve(p, spec, cfg, x_ref=reference_solution("HS7").x_star, collect_psi=True)
    write_trace_csv(result, tmp_path / "reference.csv")
    assert default.read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert flagged.read_bytes() != default.read_bytes()


def test_trace_reports_rows_written_when_run_ends_early(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = dispatch(["trace", "--problem", "HS7", "--eps1", "1e-1", "--eps2", "1e-1",
                     "--no-relaxation", "--iters", "500", "--out", str(out)])
    assert code == 0
    rows = len(out.read_text().splitlines()) - 1
    assert rows < 500  # the classical search fails well before --iters
    assert capsys.readouterr().out.strip() == f"wrote {rows}-row trace to {out}"


def test_trace_out_file_leaves_the_default_name_untouched(tmp_path, capsys):
    default = tmp_path / "trace_HS7_eps0.001_seed0.csv"
    default.write_bytes(b"kept\n")
    mine = tmp_path / "mine.csv"
    assert dispatch(["trace", "--problem", "HS7", "--eps1", "1e-3", "--eps2", "1e-3",
                     "--iters", "20", "--out", str(mine)]) == 0
    assert capsys.readouterr().out.strip() == f"wrote 20-row trace to {mine}"
    assert default.read_bytes() == b"kept\n"
    assert len(mine.read_text().splitlines()) == 21


def test_trace_out_directory_gets_the_default_name(tmp_path, capsys):
    base = ["trace", "--problem", "HS7", "--eps1", "1e-3", "--eps2", "1e-3", "--iters", "20"]
    out_dir = tmp_path / "d"
    assert dispatch(base + ["--out", str(out_dir)]) == 0
    assert dispatch(base + ["--out", str(out_dir / "x.csv")]) == 0
    written = out_dir / "trace_HS7_eps0.001_seed0.csv"
    assert capsys.readouterr().out.splitlines()[0] == f"wrote 20-row trace to {written}"
    assert written.read_bytes() == (out_dir / "x.csv").read_bytes()


def test_trace_out_existing_directory_with_a_suffix_gets_the_default_name(tmp_path, capsys):
    out_dir = tmp_path / "out.d"
    out_dir.mkdir()
    assert dispatch(["trace", "--problem", "HS7", "--iters", "5", "--out", str(out_dir)]) == 0
    written = out_dir / "trace_HS7_eps0.0_seed0.csv"
    assert capsys.readouterr().out.strip() == f"wrote 5-row trace to {written}"
    assert len(written.read_text().splitlines()) == 6


def test_traces_differing_only_in_eps2_keep_both_files(tmp_path, capsys):
    base = ["trace", "--problem", "HS7", "--eps1", "1e-3", "--iters", "5", "--out", str(tmp_path)]
    assert dispatch(base + ["--eps2", "1e-3"]) == 0
    assert dispatch(base + ["--eps2", "1e-5"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "trace_HS7_eps0.001_eps2-1e-05_seed0.csv", "trace_HS7_eps0.001_seed0.csv"]


def test_check_passes_on_shipped_problems(capsys):
    assert dispatch(["check"]) == 0
    out = capsys.readouterr().out
    for name in ("HS7", "BT11", "HS40"):
        assert f"{name}:" in out and "[ok]" in out


def test_check_fails_on_a_nan_gradient(monkeypatch, capsys):
    import numpy as np

    from noisy_sqp import Problem

    def nan_gradient(name):
        p = get_problem(name)
        return Problem(p.name, p.n, p.m, p.eval_f, p.eval_c,
                       lambda x: np.full(p.n, np.nan), p.eval_J, p.x_start)

    monkeypatch.setattr("noisy_sqp.cli.get_problem", nan_gradient)
    assert dispatch(["check"]) == 1
    out = capsys.readouterr().out
    assert out.count("error nan  [FAIL]") == 3


def test_usage_errors_exit_1(capsys):
    assert dispatch([]) == 1
    assert dispatch(["solve"]) == 1                           # missing --problem
    assert dispatch(["solve", "--problem", "HS99"]) == 1      # unknown choice
    assert dispatch(["frobnicate"]) == 1
    assert dispatch(["misest", "--kmax", "5"]) == 1           # --kmax belongs to tables
    assert dispatch(["solve", "--problem", "HS7", "--config", "x.json"]) == 1  # flags only
    # Constants, not settings: SolverConfig.nu, .tau and .pi_init, and check's point set.
    for command in (["solve", "--problem", "HS7"], ["trace", "--problem", "HS7", "--out", "t.csv"]):
        for flag in (["--nu", "0.2"], ["--tau", "0.5"], ["--pi-init", "2"]):
            assert dispatch(command + flag) == 1
    assert dispatch(["check", "--points", "5"]) == 1
    assert dispatch(["check", "--seed", "1"]) == 1
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert dispatch(["--help"]) == 0
    capsys.readouterr()


def test_tables_small_grid(tmp_path, capsys):
    code = dispatch(["tables", "--problems", "HS7", "--eps-levels", "1e-3",
                     "--seeds", "0,1", "--kmax", "50,100",
                     "--out", str(tmp_path), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads((tmp_path / "relaxation_eps0.001.json").read_text())
    assert {r["seed"] for r in doc["runs"]} == {0, 1}
    assert "wrote" in out


def test_close_levels_get_distinct_files(tmp_path, capsys):
    code = dispatch(["tables", "--problems", "HS7", "--eps-levels", "0.001,0.0010000001",
                     "--seeds", "0", "--kmax", "20", "--out", str(tmp_path), "--format", "json"])
    capsys.readouterr()
    assert code == 0
    for eps in (0.001, 0.0010000001):
        doc = json.loads((tmp_path / f"relaxation_eps{eps!r}.json").read_text())
        assert doc["runs"] and {r["eps1"] for r in doc["runs"]} == {eps}


def test_misest_small_grid(tmp_path, capsys):
    code = dispatch(["misest", "--problems", "HS7", "--eps-levels", "1e-5",
                     "--seeds", "1", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads((tmp_path / "misestimation_eps1e-05.json").read_text())
    kinds = {r["est_multiplier"]: r["termination_kind"] for r in doc["runs"]}
    assert kinds[1e-3] == "ls" and kinds[1e3] == "opt"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["solve", "--problem", "HS7", "--beta", "-1"], "beta must be positive"),
        (["solve", "--problem", "HS7", "--max-iters", "0"],
         "max_iters must be a positive integer"),
        (["solve", "--problem", "HS7", "--seed", "-1"],
         "invalid noise: seed must be a nonnegative integer"),
        (["solve", "--problem", "HS7", "--seed", "4294967296"],
         "invalid noise: seed must be below 2**32, got 4294967296"),
        (["tables", "--seeds", "0,4294967296"], "seed must be below 2**32, got 4294967296"),
        (["solve", "--problem", "HS7", "--eps1", "-0.001"],
         "invalid noise: noise half-widths must be nonnegative"),
        (["solve", "--problem", "HS7", "--eps1", "1e-3", "--est-multiplier", "nan"],
         "estimate multiplier must be nonnegative"),
        (["trace", "--problem", "HS7", "--iters", "0", "--out", "t.csv"],
         "max_iters must be a positive integer"),
        (["tables", "--problems", "HS7,FOO"], "unknown problems: FOO"),
        (["tables", "--seeds", ","], "plan lists must be non-empty: seeds"),
        (["tables", "--seeds", "-1"], "seed must be a nonnegative integer"),
        (["misest", "--problems", ","], "plan lists must be non-empty: problems"),
        (["tables", "--kmax", "0"], "max_iters must be a positive integer"),
        (["solve", "--problem", "HS7", "--beta", "nan"], "beta must be positive"),
        (["tables", "--eps-levels", "inf"], "half-widths must be nonnegative and finite"),
        (["solve", "--problem", "HS7", "--eps1", "inf"],
         "invalid noise: noise half-widths must be nonnegative and finite"),
        (["tables", "--seeds", "0,0"], "plan lists must not repeat a value: seeds"),
        (["tables", "--problems", "HS7", "--seeds", "0,0", "--eps-levels", "1e-3",
          "--kmax", "5,5", "--format", "json"],
         "plan lists must not repeat a value: seeds, k_max_values"),
        (["misest", "--problems", "HS7,HS7"], "plan lists must not repeat a value: problems"),
        (["misest", "--eps-levels", "1e-3,0.001"],
         "plan lists must not repeat a value: eps_levels"),
        # BT11's constraint estimate 3 * 1e308 overflows: rejected before HS7's runs.
        (["tables", "--problems", "HS7,BT11", "--eps-levels", "1e-3,1e308", "--seeds", "0",
          "--kmax", "5"], "invalid plan"),
        (["misest", "--problems", "HS7,BT11", "--eps-levels", "1e-3,1e308", "--seeds", "0"],
         "invalid plan"),
    ],
)
def test_bad_input_exits_1_with_one_line_before_any_run(argv, message, monkeypatch, capsys):
    _assert_rejected_before_any_run(argv, message, monkeypatch, capsys)


def _assert_rejected_before_any_run(argv, message, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    for name in ("solve", "run_relaxation_table", "run_misestimation_table"):
        monkeypatch.setattr(f"noisy_sqp.cli.{name}", no_run)
    assert dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["tables", "misest"])
def test_out_naming_a_file_exits_1_before_any_run(command, tmp_path, monkeypatch, capsys):
    taken = tmp_path / "results"
    taken.write_text("not a directory")
    _assert_rejected_before_any_run([command, "--out", str(taken)],
                                    "cannot create --out directory", monkeypatch, capsys)
    assert taken.read_text() == "not a directory"


@pytest.mark.parametrize("out", ["results", "results/t.csv"], ids=["file", "under-file"])
def test_trace_out_naming_a_file_exits_1_before_any_run(out, tmp_path, monkeypatch, capsys):
    taken = tmp_path / "results"
    taken.write_text("not a directory")
    _assert_rejected_before_any_run(
        ["trace", "--problem", "HS7", "--iters", "5", "--out", str(tmp_path / out)],
        "cannot create --out directory", monkeypatch, capsys)
    assert taken.read_text() == "not a directory"


def test_solve_max_iters_is_honoured(capsys):
    assert dispatch(["solve", "--problem", "HS7", "--eps1", "1e-3", "--eps2", "1e-3",
                     "--max-iters", "3", "--no-termination"]) == 0
    assert "iterations:     3" in capsys.readouterr().out


@pytest.mark.parametrize("command,table", [("tables", "relaxation"),
                                           ("misest", "misestimation")])
def test_json_format_without_out_prints_one_document(command, table, capsys):
    argv = [command, "--problems", "HS7", "--eps-levels", "1e-3,1e-1", "--seeds", "2"]
    if command == "tables":
        argv += ["--kmax", "20"]
    assert dispatch(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["table"] == table
    assert {r["eps1"] for r in doc["runs"]} == {1e-3, 1e-1}
    assert dispatch(argv) == 0
    assert not capsys.readouterr().out.lstrip().startswith("{")
