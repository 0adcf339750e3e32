"""Experiment harness: convergence traces, relaxation comparison, misestimation study.

All experiments run the solver with the defaults nu=0.1, tau=0.9,
beta=50 and report distances to the derived reference solutions.
Results are deterministic functions of the plan: each run owns a noise
stream keyed by its seed.  Runs execute one after another in plan order;
they are Python-bound, so threads would only queue on the interpreter
lock.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .oracles import NoiseSpec
from .problems import get_problem, reference_solution
from .solver import SolverConfig, SolveResult, Status, solve

TRACE_HEADER = ("k", "dist", "log2_dist", "alpha", "pi", "merit_noisy", "psi", "backtracks")

# Estimate multipliers used in the misestimation study, per true noise
# level: one decade set reaching 1000x at the smallest level down to
# 10x at the largest.
MISESTIMATION_MULTIPLIERS = {
    1e-5: (1.0, 1e-3, 1e3),
    1e-3: (1.0, 1e-2, 1e2),
    1e-1: (1.0, 1e-1, 1e1),
}

_TERMINATION_KIND = {
    Status.CONVERGED: "opt",
    Status.LINE_SEARCH_FAILURE: "ls",
    Status.MAX_ITERS: "max_iters",
    Status.SINGULAR_JACOBIAN: "singular",
    Status.NONFINITE: "nonfinite",
}


@dataclass(frozen=True)
class ExperimentPlan:
    """Grid of runs for the comparison tables."""

    problems: tuple[str, ...] = ("HS7", "BT11", "HS40")
    eps_levels: tuple[tuple[float, float], ...] = ((1e-5, 1e-5), (1e-3, 1e-3), (1e-1, 1e-1))
    seeds: tuple[int, ...] = tuple(range(10))
    k_max_values: tuple[int, ...] = (100, 500, 1000)
    relaxation_modes: tuple[bool, ...] = (False, True)
    est_multipliers: Optional[tuple[float, ...]] = None  # None: per-level defaults
    misest_max_iters: int = 5000

    def __post_init__(self):
        if not (self.problems and self.eps_levels and self.seeds
                and self.k_max_values and self.relaxation_modes):
            raise ValueError("plan lists must be non-empty")
        if self.est_multipliers is not None and any(m <= 0 for m in self.est_multipliers):
            raise ValueError("estimate multipliers must be positive")

    def multipliers_for(self, eps1: float) -> tuple[float, ...]:
        if self.est_multipliers is not None:
            return self.est_multipliers
        return MISESTIMATION_MULTIPLIERS.get(eps1, (1.0, 1e-1, 1e1))


@dataclass(frozen=True)
class RunSummary:
    """One table cell: outcome of a single solver run."""

    problem: str
    eps1: float
    eps2: float
    seed: int
    relaxation: bool
    est_multiplier: float
    status: str
    failure_iter: Optional[int]
    min_dist: float
    min_dist_iter: int
    iters_run: int
    termination_kind: str


def _run_one(
    problem_name: str,
    eps1: float,
    eps2: float,
    seed: int,
    relaxation: bool,
    est_multiplier: float,
    max_iters: int,
    termination_enabled: bool,
) -> tuple[RunSummary, SolveResult]:
    p = get_problem(problem_name)
    ref = reference_solution(problem_name)
    spec = NoiseSpec(eps1, eps2, seed=seed)
    cfg = SolverConfig(
        relaxation_enabled=relaxation,
        max_iters=max_iters,
        termination_enabled=termination_enabled,
    ).with_estimates(spec.bounds(p.n, p.m), est_multiplier)
    result = solve(p, spec, cfg, x_ref=ref.x_star)

    dists = [r.dist_to_ref for r in result.trace]
    dists.append(float(np.linalg.norm(result.x - ref.x_star)))
    min_iter = int(np.argmin(dists))
    summary = RunSummary(
        problem=problem_name,
        eps1=eps1,
        eps2=eps2,
        seed=seed,
        relaxation=relaxation,
        est_multiplier=est_multiplier,
        status=result.status.value,
        failure_iter=result.failure_iter,
        min_dist=float(dists[min_iter]),
        min_dist_iter=min_iter,
        iters_run=result.iters_run,
        termination_kind=_TERMINATION_KIND[result.status],
    )
    return summary, result


def write_trace_csv(result: SolveResult, path: Path) -> None:
    """One row per executed iteration, in shortest round-trip decimals."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for row in result.trace:
            dist = row.dist_to_ref
            if dist > 0:
                log2_dist = math.log2(dist)
            else:
                log2_dist = -math.inf if dist == 0 else math.nan
            writer.writerow(
                (row.k, repr(dist), repr(log2_dist), repr(row.alpha), repr(row.pi),
                 repr(row.merit_noisy), repr(row.psi), row.backtracks)
            )


def run_trace_experiment(
    out_dir: Path,
    problems: Iterable[str] = ("HS7", "BT11", "HS40"),
    eps1: float = 1e-3,
    eps2: float = 1e-3,
    seeds: Iterable[int] = (0,),
    iters: int = 1000,
    config: Optional[SolverConfig] = None,
) -> list[Path]:
    """Write one per-iteration CSV per (problem, seed) and return the paths.

    Runs go the full ``iters`` iterations (stop test disabled) so the
    trace shows the noise-floor band rather than an early stop.
    ``config`` supplies the remaining solver settings, estimates
    included; None means the defaults with each problem's true noise
    bounds as estimates.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def one(name: str, seed: int) -> Path:
        p = get_problem(name)
        spec = NoiseSpec(eps1, eps2, seed=seed)
        if config is None:
            cfg = SolverConfig().with_estimates(spec.bounds(p.n, p.m))
        else:
            cfg = config
        cfg = replace(cfg, max_iters=iters, termination_enabled=False)
        result = solve(p, spec, cfg, x_ref=reference_solution(name).x_star, collect_psi=True)
        path = out_dir / f"trace_{name}_eps{eps1:g}_seed{seed}.csv"
        write_trace_csv(result, path)
        return path

    return [one(name, seed) for name in problems for seed in seeds]


def run_relaxation_table(plan: ExperimentPlan) -> list[RunSummary]:
    """Relaxation on/off comparison over the plan grid.

    Disabled runs go until the first line-search failure (or the largest
    k_max); enabled runs are repeated for each k_max with the stop test
    disabled, reporting the best distance seen.
    """
    longest = max(plan.k_max_values)
    tasks = []
    for name in plan.problems:
        for eps1, eps2 in plan.eps_levels:
            for seed in plan.seeds:
                if False in plan.relaxation_modes:
                    tasks.append((name, eps1, eps2, seed, False, longest))
                if True in plan.relaxation_modes:
                    for k_max in plan.k_max_values:
                        tasks.append((name, eps1, eps2, seed, True, k_max))

    def one(name, eps1, eps2, seed, relaxation, k_max):
        summary, _ = _run_one(name, eps1, eps2, seed, relaxation=relaxation,
                              est_multiplier=1.0, max_iters=k_max,
                              termination_enabled=False)
        return summary

    return [one(*task) for task in tasks]


def run_misestimation_table(plan: ExperimentPlan) -> list[RunSummary]:
    """Misestimated-noise study: scale the solver's estimates, stop test enabled.

    Each run multiplies all four estimated bounds by the same factor and
    terminates on the noisy stationarity test, a line-search failure, or
    the iteration cap, whichever comes first.
    """
    tasks = []
    for name in plan.problems:
        for eps1, eps2 in plan.eps_levels:
            for seed in plan.seeds:
                for mult in plan.multipliers_for(eps1):
                    tasks.append((name, eps1, eps2, seed, mult))

    def one(name, eps1, eps2, seed, mult):
        summary, _ = _run_one(name, eps1, eps2, seed, relaxation=True,
                              est_multiplier=mult, max_iters=plan.misest_max_iters,
                              termination_enabled=True)
        return summary

    return [one(*task) for task in tasks]


def summaries_to_json(summaries: Iterable[RunSummary], table: str) -> str:
    """Serialize one table as a JSON document with RunSummary-mirroring rows."""
    doc = {"table": table, "runs": [asdict(s) for s in summaries]}
    return json.dumps(doc, indent=2)


def _median(values) -> float:
    values = [v for v in values if v == v]  # drop NaN
    return statistics.median(values) if values else math.nan


def _stop_iteration(s: RunSummary) -> int:
    """Iteration index of the terminal event (the last trace row's k)."""
    if s.termination_kind == "max_iters":
        return s.iters_run
    return max(s.iters_run - 1, 0)


def render_relaxation_table(summaries: Sequence[RunSummary]) -> str:
    """Terminal rendering of the relaxation comparison, medians over seeds."""
    lines = []
    eps_levels = sorted({(s.eps1, s.eps2) for s in summaries})
    k_values = sorted({s.iters_run for s in summaries if s.relaxation})
    for eps1, eps2 in eps_levels:
        lines.append(f"min_k ||x_k - x*||  at eps1={eps1:g}, eps2={eps2:g}")
        header = (f"{'problem':>8} | {'failure iter':>12} | {'min dist (off)':>14} | "
                  + " | ".join(f"k_max={k:<5}" for k in k_values))
        lines.append(header)
        lines.append("-" * len(header))
        problems = sorted({s.problem for s in summaries})
        for name in problems:
            rows = [s for s in summaries if s.problem == name and s.eps1 == eps1]
            disabled = [s for s in rows if not s.relaxation]
            fail_iters = [s.failure_iter for s in disabled if s.failure_iter is not None]
            fail = f"{_median(fail_iters):.0f}" if fail_iters else "-"
            off = f"{_median([s.min_dist for s in disabled]):.4e}" if disabled else "-"
            cells = []
            for k in k_values:
                on = [s.min_dist for s in rows if s.relaxation and s.iters_run == k]
                cells.append(f"{_median(on):.4e}" if on else "-")
            lines.append(f"{name:>8} | {fail:>12} | {off:>14} | " + " | ".join(f"{c:<11}" for c in cells))
        lines.append("")
    return "\n".join(lines)


def render_misestimation_table(summaries: Sequence[RunSummary]) -> str:
    """Terminal rendering of the misestimation study, medians over seeds."""
    lines = []
    eps_levels = sorted({(s.eps1, s.eps2) for s in summaries})
    for eps1, eps2 in eps_levels:
        lines.append(f"min_k ||x_k - x*||  at true eps1={eps1:g}, eps2={eps2:g}")
        rows = [s for s in summaries if s.eps1 == eps1]
        mults = sorted({s.est_multiplier for s in rows})
        header = f"{'problem':>8} | " + " | ".join(f"est x{m:<9g}" for m in mults)
        lines.append(header)
        lines.append("-" * len(header))
        for name in sorted({s.problem for s in rows}):
            cells = []
            for mult in mults:
                cell_rows = [s for s in rows if s.problem == name and s.est_multiplier == mult]
                if not cell_rows:
                    cells.append("-")
                    continue
                med = _median([s.min_dist for s in cell_rows])
                iters = _median([_stop_iteration(s) for s in cell_rows])
                kinds = {s.termination_kind for s in cell_rows}
                kind = kinds.pop() if len(kinds) == 1 else "mixed"
                cells.append(f"{iters:.0f} ({kind}) {med:.3e}")
            lines.append(f"{name:>8} | " + " | ".join(f"{c:<22}" for c in cells))
        lines.append("")
    return "\n".join(lines)
