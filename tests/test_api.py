"""Tests for the package's public surface."""

import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import noisy_sqp
from noisy_sqp import NoiseSpec, SolverConfig, Status, get_problem, problems, solve, solver

PUBLIC_NAMES = {
    "ExperimentPlan", "IterateRecord", "NoiseSpec", "NoiseStream", "PROBLEM_NAMES",
    "Problem", "RunSummary", "SolveResult", "SolverConfig", "Status", "get_problem",
    "reference_solution", "render_misestimation_table", "render_relaxation_table",
    "run_misestimation_table", "run_relaxation_table", "run_trace_experiment", "solve",
    "summaries_to_json", "verify_derivatives", "write_trace_csv",
}


def test_all_lists_exactly_the_public_names():
    assert len(noisy_sqp.__all__) == len(PUBLIC_NAMES) == 21
    assert set(noisy_sqp.__all__) == PUBLIC_NAMES
    for name in noisy_sqp.__all__:
        assert getattr(noisy_sqp, name) is not None


def test_package_and_cli_never_import_scipy():
    # Nor numpy.random: the package imports it on its first noise draw only.
    code = ("import sys, noisy_sqp, noisy_sqp.cli\n"
            "for name in noisy_sqp.PROBLEM_NAMES: noisy_sqp.reference_solution(name)\n"
            "print('scipy' in sys.modules, 'numpy.random' in sys.modules)")
    src = str(Path(noisy_sqp.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True).stdout
    assert out.split() == ["False", "False"]


def test_readme_library_example_runs():
    p = get_problem("BT11")
    spec = NoiseSpec(eps1=1e-3, eps2=1e-3, seed=0)
    cfg = SolverConfig().with_estimates(spec.bounds(p.n, p.m))
    result = solve(p, spec, cfg)
    assert isinstance(result.status, Status)
    assert result.x.shape == (p.n,)


def test_max_backtracks_is_a_constant_not_a_field():
    for name, value in (("max_backtracks", 50), ("nu", 0.1), ("tau", 0.9), ("pi_init", 1.0),
                        ("zero_noise_tol", 1e-8)):
        assert getattr(SolverConfig, name) == getattr(SolverConfig(), name) == value
        with pytest.raises(TypeError):
            SolverConfig(**{name: value})
    with pytest.raises(TypeError):
        SolverConfig(alpha_init=1.0)


def test_helpers_read_the_class_constants():
    # A class constant is read where it is used, never passed in.
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    constants = set(SolverConfig.__annotations__) - fields
    assert constants == {"nu", "tau", "pi_init", "max_backtracks", "zero_noise_tol"}
    functions = [getattr(solver, name) for name in solver.__all__]
    functions += [f for _, f in inspect.getmembers(problems, inspect.isfunction)
                  if f.__module__ == problems.__name__]
    functions = [f for f in functions if inspect.isfunction(f)]
    assert {f.__name__ for f in functions} >= {"relaxed_line_search", "update_penalty",
                                               "verify_derivatives", "solve"}
    for f in functions:
        assert not constants & set(inspect.signature(f).parameters), f.__name__
