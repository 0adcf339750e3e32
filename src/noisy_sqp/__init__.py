"""Noise-tolerant SQP for equality-constrained problems under bounded noise.

The top level exports the solver, the noise model, the problems and the
experiments.  Kernels, diagnostics and the solver's iteration helpers
are imported from their own modules (``noisy_sqp.kernels``,
``noisy_sqp.diagnostics``, ``noisy_sqp.solver``, ...).
"""

from .harness import (
    ExperimentPlan,
    RunSummary,
    render_misestimation_table,
    render_relaxation_table,
    run_misestimation_table,
    run_relaxation_table,
    run_trace_experiment,
    summaries_to_json,
    write_trace_csv,
)
from .oracles import NoiseSpec, NoiseStream, Problem
from .problems import PROBLEM_NAMES, get_problem, reference_solution, verify_derivatives
from .solver import IterateRecord, SolveResult, SolverConfig, Status, solve

__version__ = "0.1.0"

__all__ = [
    "ExperimentPlan",
    "IterateRecord",
    "NoiseSpec",
    "NoiseStream",
    "PROBLEM_NAMES",
    "Problem",
    "RunSummary",
    "SolveResult",
    "SolverConfig",
    "Status",
    "get_problem",
    "reference_solution",
    "render_misestimation_table",
    "render_relaxation_table",
    "run_misestimation_table",
    "run_relaxation_table",
    "run_trace_experiment",
    "solve",
    "summaries_to_json",
    "verify_derivatives",
    "write_trace_csv",
]
