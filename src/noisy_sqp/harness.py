"""Experiment harness: convergence traces, relaxation comparison, misestimation study.

All experiments run the solver with beta=50, nu=0.1 and tau=0.9 and
report distances to the stored reference solutions.
Results are deterministic functions of the plan: each run owns a noise
stream keyed by its seed.  All three experiments solve their runs in one
loop, one after another in plan order; they are Python-bound, so threads
would only queue on the interpreter lock.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .oracles import NoiseSpec
from .problems import PROBLEM_NAMES, get_problem, reference_solution
from .solver import SolverConfig, SolveResult, solve

TRACE_HEADER = ("k", "dist", "log2_dist", "alpha", "pi", "merit_noisy", "psi", "backtracks")

# Estimate multipliers used in the misestimation study, per true noise
# level: one decade set reaching 1000x at the smallest level down to
# 10x at the largest.
MISESTIMATION_MULTIPLIERS = {
    1e-5: (1.0, 1e-3, 1e3),
    1e-3: (1.0, 1e-2, 1e2),
    1e-1: (1.0, 1e-1, 1e1),
}


@dataclass(frozen=True)
class ExperimentPlan:
    """Grid of runs for the comparison tables, checked in full before any run."""

    problems: tuple[str, ...] = PROBLEM_NAMES
    eps_levels: tuple[tuple[float, float], ...] = ((1e-5, 1e-5), (1e-3, 1e-3), (1e-1, 1e-1))
    seeds: tuple[int, ...] = tuple(range(10))
    k_max_values: tuple[int, ...] = (100, 500, 1000)
    misest_max_iters: int = 5000

    def __post_init__(self):
        lists = ("problems", "eps_levels", "seeds", "k_max_values")
        empty = [f for f in lists if not getattr(self, f)]
        if empty:
            raise ValueError(f"plan lists must be non-empty: {', '.join(empty)}")
        unknown = [name for name in self.problems if name not in PROBLEM_NAMES]
        if unknown:
            raise ValueError(f"unknown problems: {', '.join(unknown)} "
                             f"(choose from {', '.join(PROBLEM_NAMES)})")
        # NoiseSpec and SolverConfig own the value rules: build one per value
        # and keep the builtin value it stores.
        specs = [NoiseSpec(eps1, eps2) for eps1, eps2 in self.eps_levels]
        # Each run's estimates must be finite too; the plan does not know which
        # study it feeds, so every misestimation multiplier is checked.
        for name in self.problems:
            p = get_problem(name)
            for spec in specs:
                for multiplier in self.multipliers_for(spec.eps1):
                    SolverConfig().with_estimates(spec.bounds(p.n, p.m), multiplier)
        builtin = {
            "problems": tuple(self.problems),
            "eps_levels": tuple((s.eps1, s.eps2) for s in specs),
            "seeds": tuple(NoiseSpec(0.0, 0.0, seed).seed for seed in self.seeds),
            "k_max_values": tuple(SolverConfig(max_iters=k).max_iters for k in self.k_max_values),
            "misest_max_iters": SolverConfig(max_iters=self.misest_max_iters).max_iters,
        }
        for name, value in builtin.items():
            object.__setattr__(self, name, value)
        # A repeated value would run its cells twice and weight them twice in the medians.
        repeated = [f for f in lists if len(set(getattr(self, f))) < len(getattr(self, f))]
        if repeated:
            raise ValueError(f"plan lists must not repeat a value: {', '.join(repeated)}")

    def multipliers_for(self, eps1: float) -> tuple[float, ...]:
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
    k_max: int  # the run's iteration cap
    termination_kind: str


def _grid_runs(plan: ExperimentPlan, modes, collect_psi: bool = False):
    """Solve the plan's (problem, level, seed, mode) cells in plan order.

    ``modes(plan, eps1)`` lists a level's runs per seed as (config, multiplier)
    pairs; the estimates are the true noise bounds times the multiplier.  Yields
    name, spec, multiplier, config, result and the distances to the reference
    solution, per iterate and then for the final point.
    """
    for name in plan.problems:
        p, x_star = get_problem(name), reference_solution(name).x_star
        for eps1, eps2 in plan.eps_levels:
            level_modes = modes(plan, eps1)
            for seed in plan.seeds:
                spec = NoiseSpec(eps1, eps2, seed=seed)
                for base, multiplier in level_modes:
                    cfg = base.with_estimates(spec.bounds(p.n, p.m), multiplier)
                    result = solve(p, spec, cfg, x_ref=x_star, collect_psi=collect_psi)
                    dists = [r.dist_to_ref for r in result.trace]
                    dists.append(float(np.linalg.norm(result.x - x_star)))
                    yield name, spec, multiplier, cfg, result, np.array(dists)


def _relaxed_modes(plan: ExperimentPlan, eps1: float) -> list:
    """One relaxed run per k_max with the stop test disabled."""
    return [(SolverConfig(max_iters=k, termination_enabled=False), 1.0)
            for k in plan.k_max_values]


def _relaxation_modes(plan: ExperimentPlan, eps1: float) -> list:
    """A classical run to the largest k_max, then the relaxed runs."""
    classical = SolverConfig(relaxation_enabled=False, max_iters=max(plan.k_max_values),
                             termination_enabled=False)
    return [(classical, 1.0)] + _relaxed_modes(plan, eps1)


def _misestimation_modes(plan: ExperimentPlan, eps1: float) -> list:
    """Relaxed runs with the stop test enabled, one per estimate multiplier."""
    cfg = SolverConfig(max_iters=plan.misest_max_iters)
    return [(cfg, multiplier) for multiplier in plan.multipliers_for(eps1)]


def _summaries(plan: ExperimentPlan, modes) -> list[RunSummary]:
    summaries = []
    for name, spec, multiplier, cfg, result, dists in _grid_runs(plan, modes):
        min_iter = int(np.argmin(dists))
        summaries.append(RunSummary(
            problem=name, eps1=spec.eps1, eps2=spec.eps2, seed=spec.seed,
            relaxation=cfg.relaxation_enabled, est_multiplier=multiplier,
            status=result.status.value, failure_iter=result.failure_iter,
            min_dist=float(dists[min_iter]), min_dist_iter=min_iter,
            iters_run=result.iters_run, k_max=cfg.max_iters,
            termination_kind=result.status.kind))
    return summaries


def write_trace_csv(result: SolveResult, path: Path) -> None:
    """One row per executed iteration, in shortest round-trip decimals, with the bytes
    of ``csv.writer``'s excel dialect: no int or float repr needs quoting."""
    lines = [",".join(TRACE_HEADER)]
    for row in result.trace:
        dist = row.dist_to_ref
        if dist > 0:
            log2_dist = math.log2(dist)
        else:
            log2_dist = -math.inf if dist == 0 else math.nan
        lines.append(f"{row.k},{dist!r},{log2_dist!r},{row.alpha!r},{row.pi!r},"
                     f"{row.merit_noisy!r},{row.psi!r},{row.backtracks}")
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def trace_path(out_dir: Path, problem: str, spec: NoiseSpec) -> Path:
    """Default trace file name in ``out_dir`` for one problem, noise level and seed.

    The level is written with repr, eps2 only where it differs from eps1
    (``trace_HS7_eps0.001_eps2-1e-05_seed0.csv``), so distinct levels get
    distinct names.
    """
    eps2 = f"_eps2-{spec.eps2!r}" if spec.eps2 != spec.eps1 else ""
    return Path(out_dir) / f"trace_{problem}_eps{spec.eps1!r}{eps2}_seed{spec.seed}.csv"


def run_trace_experiment(
    out_dir: Path,
    problems: Iterable[str] = PROBLEM_NAMES,
    eps1: float = 1e-3,
    eps2: float = 1e-3,
    seeds: Iterable[int] = (0,),
    iters: int = SolverConfig.max_iters,
) -> list[Path]:
    """Write one per-iteration CSV per (problem, seed) and return the paths.

    Runs use the default solver settings with each problem's true noise
    bounds as estimates, and go the full ``iters`` iterations (stop test
    disabled) so the trace shows the noise-floor band rather than an
    early stop.  The whole grid is checked, as an :class:`ExperimentPlan`,
    before any file is written.
    """
    plan = ExperimentPlan(problems=tuple(problems), eps_levels=((eps1, eps2),),
                          seeds=tuple(seeds), k_max_values=(iters,))
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    paths = []
    for name, spec, _, _, result, _ in _grid_runs(plan, _relaxed_modes, collect_psi=True):
        paths.append(trace_path(out_dir, name, spec))
        write_trace_csv(result, paths[-1])
    return paths


def run_relaxation_table(plan: ExperimentPlan) -> list[RunSummary]:
    """Relaxation on/off comparison over the plan grid.

    Disabled runs go until the first line-search failure (or the largest
    k_max); enabled runs are repeated for each k_max with the stop test
    disabled, reporting the best distance seen.
    """
    return _summaries(plan, _relaxation_modes)


def run_misestimation_table(plan: ExperimentPlan) -> list[RunSummary]:
    """Misestimated-noise study: scale the solver's estimates, stop test enabled.

    Each run multiplies all four estimated bounds by the same factor and
    terminates on the noisy stationarity test, a line-search failure, or
    the iteration cap, whichever comes first.
    """
    return _summaries(plan, _misestimation_modes)


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


def _block(table: list[tuple[str, list[str]]]) -> list[str]:
    """Header, rule and rows of one table from (lead, cells) pairs, the header's first:
    every cell column is as wide as the widest entry, and no line ends in a blank."""
    width = max((len(c) for _, cells in table for c in cells), default=0)
    text = [lead + " | ".join(f"{c:<{width}}" for c in cells) for lead, cells in table]
    return [text[0].rstrip(), "-" * len(text[0])] + [t.rstrip() for t in text[1:]]


def render_relaxation_table(summaries: Sequence[RunSummary]) -> str:
    """Terminal rendering of the relaxation comparison, medians over seeds."""
    lines = []
    eps_levels = sorted({(s.eps1, s.eps2) for s in summaries})
    k_values = sorted({s.k_max for s in summaries if s.relaxation})
    for eps1, eps2 in eps_levels:
        lines.append(f"min_k ||x_k - x*||  at eps1={eps1:g}, eps2={eps2:g}")
        table = [(f"{'problem':>8} | {'failure iter':>12} | {'min dist (off)':>14} | ",
                  [f"k_max={k:<5}" for k in k_values])]
        for name in sorted({s.problem for s in summaries}):
            rows = [s for s in summaries if (s.problem, s.eps1, s.eps2) == (name, eps1, eps2)]
            disabled = [s for s in rows if not s.relaxation]
            fail_iters = [s.failure_iter for s in disabled if s.failure_iter is not None]
            fail = f"{_median(fail_iters):.0f}" if fail_iters else "-"
            off = f"{_median([s.min_dist for s in disabled]):.4e}" if disabled else "-"
            on = [[s.min_dist for s in rows if s.relaxation and s.k_max == k] for k in k_values]
            cells = [f"{_median(d):.4e}" if d else "-" for d in on]
            table.append((f"{name:>8} | {fail:>12} | {off:>14} | ", cells))
        lines += _block(table) + [""]
    return "\n".join(lines)


def render_misestimation_table(summaries: Sequence[RunSummary]) -> str:
    """Terminal rendering of the misestimation study, medians over seeds."""
    lines = []
    eps_levels = sorted({(s.eps1, s.eps2) for s in summaries})
    for eps1, eps2 in eps_levels:
        lines.append(f"min_k ||x_k - x*||  at true eps1={eps1:g}, eps2={eps2:g}")
        rows = [s for s in summaries if (s.eps1, s.eps2) == (eps1, eps2)]
        mults = sorted({s.est_multiplier for s in rows})
        table = [(f"{'problem':>8} | ", [f"est x{m:g}" for m in mults])]
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
            table.append((f"{name:>8} | ", cells))
        lines += _block(table) + [""]
    return "\n".join(lines)
