"""Tests for the command-line interface and its exit-code contract."""

import json

import pytest

from noisy_sqp import (NoiseSpec, SolverConfig, get_problem, reference_solution, solve,
                       write_trace_csv)
from noisy_sqp.cli import dispatch
from noisy_sqp.solver import Status
from noisy_sqp.cli import _STATUS_EXIT


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


def test_solve_without_relaxation_exits_2(capsys):
    code = dispatch(["solve", "--problem", "HS7", "--eps1", "1e-5", "--eps2", "1e-5",
                     "--no-relaxation", "--seed", "1", "--no-termination"])
    out = capsys.readouterr().out
    assert code == 2
    assert "failure at:     iteration" in out


def test_status_exit_mapping_is_total():
    assert _STATUS_EXIT[Status.CONVERGED] == 0
    assert _STATUS_EXIT[Status.MAX_ITERS] == 0
    assert _STATUS_EXIT[Status.LINE_SEARCH_FAILURE] == 2
    assert _STATUS_EXIT[Status.SINGULAR_JACOBIAN] == 3


def test_nonfinite_status_exits_4():
    assert _STATUS_EXIT[Status.NONFINITE] == 4
    assert set(_STATUS_EXIT) == set(Status)


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


def test_check_passes_on_shipped_problems(capsys):
    assert dispatch(["check", "--points", "5"]) == 0
    out = capsys.readouterr().out
    for name in ("HS7", "BT11", "HS40"):
        assert f"{name}:" in out and "[ok]" in out


def test_usage_errors_exit_1(capsys):
    assert dispatch([]) == 1
    assert dispatch(["solve"]) == 1                           # missing --problem
    assert dispatch(["solve", "--problem", "HS99"]) == 1      # unknown choice
    assert dispatch(["frobnicate"]) == 1
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert dispatch(["--help"]) == 0
    capsys.readouterr()


def test_config_file_applies_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beta": 3.0, "max_iters": 150}))
    code = dispatch(["solve", "--problem", "BT11", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert "converged" in out

    # flag wins over the file
    cfg.write_text(json.dumps({"beta": 50.0}))
    code = dispatch(["solve", "--problem", "BT11", "--config", str(cfg),
                     "--beta", "3", "--max-iters", "150"])
    assert code == 0
    assert "converged" in capsys.readouterr().out


def test_config_file_rejects_unknown_fields(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert dispatch(["solve", "--problem", "HS7", "--config", str(cfg)]) == 1
    assert "unknown config fields" in capsys.readouterr().err


def test_tables_small_grid(tmp_path, capsys):
    code = dispatch(["tables", "--problems", "HS7", "--eps-levels", "1e-3",
                     "--seeds", "0,1", "--kmax", "50,100",
                     "--out", str(tmp_path), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads((tmp_path / "relaxation_eps0.001.json").read_text())
    assert {r["seed"] for r in doc["runs"]} == {0, 1}
    assert "wrote" in out


def test_misest_small_grid(tmp_path, capsys):
    code = dispatch(["misest", "--problems", "HS7", "--eps-levels", "1e-5",
                     "--seeds", "1", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads((tmp_path / "misestimation_eps1e-05.json").read_text())
    kinds = {r["est_multiplier"]: r["termination_kind"] for r in doc["runs"]}
    assert kinds[1e-3] == "ls" and kinds[1e3] == "opt"
