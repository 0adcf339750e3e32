"""The benchmark's workloads, the per-run recorder and the output checks.

Each workload drives the package through a public entry point, with every
noise seed derived from the one workload seed.  While a workload runs, the
``solve`` that the harness looks up is wrapped by a :class:`Recorder`,
which times each run and derives its counters from the returned
``IterateRecord`` rows, so no counter relies on code inside the package.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from noisy_sqp import cli, diagnostics, harness, oracles, solver
from noisy_sqp.harness import ExperimentPlan
from noisy_sqp.oracles import NoiseSpec
from noisy_sqp.problems import get_problem, reference_solution
from noisy_sqp.solver import SolverConfig, Status

from tracer import Tracer, layer_totals

PROBLEMS = ("HS7", "BT11", "HS40")
EPS_LEVELS = (1e-5, 1e-3, 1e-1)

# (owner, attribute, span name, starts a run).  Each owner is the module
# (or class) whose attribute the caller looks up at call time, so the
# wrapper sees every call that crosses the layer boundary.
TRACE_POINTS = (
    (cli, "dispatch", "cli.dispatch", False),
    (cli, "run_relaxation_table", "harness.run_relaxation_table", False),
    (harness, "run_trace_experiment", "harness.run_trace_experiment", False),
    (harness, "run_misestimation_table", "harness.run_misestimation_table", False),
    (harness, "write_trace_csv", "harness.write_trace_csv", False),
    (harness, "solve", "solver.solve", True),
    (solver, "eval_noisy", "oracles.eval_noisy", False),
    (oracles, "eval_exact", "oracles.eval_exact", False),
    (oracles.NoiseStream, "next_rng", "oracles.next_rng", False),
    (solver, "solve_sqp_step", "kernels.solve_sqp_step", False),
    (solver, "stationarity_psi", "diagnostics.stationarity_psi", False),
    (diagnostics, "project_tangent", "kernels.project_tangent", False),
    (solver, "merit_value", "solver.merit_value", False),
    (solver, "linear_model", "solver.linear_model", False),
    (solver, "update_penalty", "solver.update_penalty", False),
    (solver, "check_termination", "solver.check_termination", False),
    (solver, "relaxed_line_search", "solver.line_search", False),
)


def noise_seeds(seed: int, count: int) -> tuple[int, ...]:
    """Noise seeds of one workload, a pure function of the workload seed."""
    rnd = random.Random(seed)
    return tuple(rnd.getrandbits(31) for _ in range(count))


# ---------------------------------------------------------------- per run


@dataclass
class RunStats:
    """What the benchmark keeps of one solver run."""

    problem: str
    eps1: float
    eps2: float
    seed: int
    relaxation: bool
    seconds: float
    cpu_seconds: float
    iters: int = 0
    trials: int = 0
    searches: int = 0
    accepts: int = 0
    relax_used: int = 0
    min_dist: float = math.nan
    status: str = "raised"
    failure: Optional[str] = None
    xs: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def evals(self) -> int:
        return self.iters + self.trials


def failure_reason(result, relaxation: bool, exact_estimates: bool) -> Optional[str]:
    """Why a finished run counts as failed, or None when it does not."""
    xs = [r.x for r in result.trace] + [result.x]
    if not all(np.all(np.isfinite(x)) for x in xs):
        return "non-finite iterate"
    for r in result.trace:
        accepted = not r.line_search_failed and not math.isnan(r.alpha)
        if not math.isfinite(r.merit_noisy) or (accepted and not math.isfinite(r.merit_trial)):
            return "non-finite merit"
    if result.status is Status.SINGULAR_JACOBIAN:
        return "singular_jacobian"
    if relaxation and exact_estimates and result.status is Status.LINE_SEARCH_FAILURE:
        return "relaxed run with exact estimates ended in ls"
    return None


def _run_stats(p, spec, cfg, seconds: float, cpu_seconds: float, **fields) -> RunStats:
    return RunStats(p.name, spec.eps1, spec.eps2, spec.seed, cfg.relaxation_enabled,
                    seconds, cpu_seconds, **fields)


def summarize_run(p, spec, cfg, x_ref, result, seconds: float, cpu_seconds: float) -> RunStats:
    """Counters of one run, derived from its trace rows and its config."""
    bounds = spec.bounds(p.n, p.m)
    exact = (cfg.eps_f_est, cfg.eps_c_est, cfg.eps_g_est, cfg.eps_J_est) == (
        bounds.eps_f, bounds.eps_c, bounds.eps_g, bounds.eps_J)
    stats = _run_stats(p, spec, cfg, seconds, cpu_seconds, iters=len(result.trace),
                       status=result.status.value,
                       failure=failure_reason(result, cfg.relaxation_enabled, exact))
    for r in result.trace:
        if r.line_search_failed:
            trials = cfg.max_backtracks + 1
        elif math.isnan(r.alpha):  # stop test fired or the Jacobian was singular
            trials = 0
        else:
            trials = r.backtracks + 1
            stats.accepts += 1
            if r.merit_trial > r.merit_noisy + cfg.nu * r.alpha * r.model_value:
                stats.relax_used += 1
        stats.trials += trials
        stats.searches += trials > 0
    if x_ref is not None:
        dists = [r.dist_to_ref for r in result.trace]
        dists.append(float(np.linalg.norm(result.x - x_ref)))
        stats.min_dist = min(dists)
    if cfg.relaxation_enabled and not cfg.termination_enabled:
        stats.xs = np.array([r.x for r in result.trace])
    return stats


class Recorder:
    """Wraps ``harness.solve`` to time every run and keep its :class:`RunStats`.

    A run's ``seconds`` is wall time, which under the thread pool includes
    waiting for the interpreter lock; ``cpu_seconds`` is the time its thread
    actually ran.
    """

    def __init__(self, sampler=None):
        self.runs: list[RunStats] = []
        self._original = harness.solve
        self._sampler = sampler

    def __enter__(self) -> "Recorder":
        original, runs, sampler = self._original, self.runs, self._sampler

        def recorded_solve(p, spec, cfg, x_ref=None, collect_psi=False):
            start, cpu_start = time.perf_counter(), time.thread_time()
            try:
                result = original(p, spec, cfg, x_ref=x_ref, collect_psi=collect_psi)
            except Exception:
                runs.append(_run_stats(p, spec, cfg, time.perf_counter() - start,
                                       time.thread_time() - cpu_start, failure="raised"))
                raise
            seconds, cpu_seconds = time.perf_counter() - start, time.thread_time() - cpu_start
            runs.append(summarize_run(p, spec, cfg, x_ref, result, seconds, cpu_seconds))
            if sampler:
                sampler.sample()
            return result

        harness.solve = recorded_solve
        return self

    def __exit__(self, *exc) -> None:
        harness.solve = self._original


def redundant_iterations(runs: list[RunStats]) -> int:
    """Iterations of relaxed runs whose whole trajectory is a prefix of a longer run's."""
    groups: dict[tuple, list[RunStats]] = {}
    for r in runs:
        if r.xs is not None:
            groups.setdefault((r.problem, r.eps1, r.eps2, r.seed), []).append(r)
    total = 0
    for group in groups.values():
        group.sort(key=lambda r: r.iters, reverse=True)
        longest = group[0].xs
        for r in group[1:]:
            if np.array_equal(r.xs, longest[:r.iters]):
                total += r.iters
    return total


def counters(runs: list[RunStats]) -> dict[str, float]:
    """Deterministic ratios of one repetition; each must repeat exactly."""
    iters = sum(r.iters for r in runs)
    searches = sum(r.searches for r in runs)
    accepts = sum(r.accepts for r in runs)
    return {
        "iterations": iters,
        "oracle_evals": sum(r.evals for r in runs),
        "oracle_evals_per_iter": sum(r.evals for r in runs) / iters,
        "trials_per_iter": sum(r.trials for r in runs) / iters,
        "accept_share": accepts / searches if searches else math.nan,
        "relaxation_used_share": sum(r.relax_used for r in runs) / accepts if accepts else 0.0,
        "redundant_iter_share": redundant_iterations(runs) / iters,
    }


# ---------------------------------------------------------------- workloads


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_rows(rows: list[dict]) -> bytes:
    return json.dumps(rows, sort_keys=True, separators=(",", ":")).encode()


@dataclass
class Outputs:
    """What one repetition of a workload produced, beyond its runs."""

    fingerprint: dict[str, str]
    problems: list[str]          # output checks that failed
    bad_runs: set[int] = field(default_factory=set)   # indices into the recorded runs


def _trace_band(plan: dict, out_dir: Path, runs: list[RunStats]) -> Outputs:
    paths = []
    for eps in plan["eps_levels"]:
        paths += harness.run_trace_experiment(
            out_dir, problems=plan["problems"], eps1=eps, eps2=eps,
            seeds=plan["noise_seeds"], iters=plan["iters"])
    out = Outputs({}, [])
    if len(paths) != len(runs):
        out.problems.append(f"{len(paths)} trace files for {len(runs)} runs")
    for i, (path, run) in enumerate(zip(paths, runs)):
        data = Path(path).read_bytes()
        out.fingerprint[Path(path).name] = _sha256(data)
        rows = data.count(b"\n") - 1
        if rows != run.iters:
            out.bad_runs.add(i)
            out.problems.append(f"{Path(path).name}: {rows} rows for {run.iters} iterations")
    return out


def _misest_grid(plan: dict, out_dir: Path, runs: list[RunStats]) -> Outputs:
    summaries = harness.run_misestimation_table(ExperimentPlan(
        problems=plan["problems"], eps_levels=tuple((e, e) for e in plan["eps_levels"]),
        seeds=plan["noise_seeds"], misest_max_iters=plan["max_iters"]))
    rows = [asdict(s) for s in summaries]
    out = Outputs({"misestimation_rows": _sha256(canonical_rows(rows))}, [])
    if len(rows) != len(runs):
        out.problems.append(f"{len(rows)} summaries for {len(runs)} runs")
    for i, (row, run) in enumerate(zip(rows, runs)):
        if (row["iters_run"], row["status"]) != (run.iters, run.status) or not _same(
                row["min_dist"], run.min_dist):
            out.bad_runs.add(i)
            out.problems.append(f"summary {i} disagrees with its run")
    return out


def _tables_cli(plan: dict, out_dir: Path, runs: list[RunStats]) -> Outputs:
    argv = plan["argv"] + ["--out", str(out_dir)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.dispatch(argv)
    out = Outputs({}, [] if code == 0 else [f"tables exited with code {code}"])
    by_key = {(r.problem, r.eps1, r.seed, r.relaxation, r.iters): i for i, r in enumerate(runs)}
    seen = 0
    for path in sorted(out_dir.glob("relaxation_eps*.json")):
        rows = json.loads(path.read_text())["runs"]
        out.fingerprint[path.name] = _sha256(canonical_rows(rows))
        for row in rows:
            seen += 1
            i = by_key.get((row["problem"], row["eps1"], row["seed"], row["relaxation"],
                            row["iters_run"]))
            if i is None:
                out.problems.append(f"{path.name}: row without a matching run")
            elif row["status"] != runs[i].status or not _same(row["min_dist"], runs[i].min_dist):
                out.bad_runs.add(i)
                out.problems.append(f"{path.name}: row disagrees with its run")
    if seen != len(runs):
        out.problems.append(f"{seen} JSON rows for {len(runs)} runs")
    return out


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@dataclass(frozen=True)
class Workload:
    name: str
    drive: Callable[[dict, Path, list], Outputs]
    make_plan: Callable[[int], dict]


def _trace_band_plan(seed: int) -> dict:
    # 150 iterations put the 1e-3 and 1e-1 runs deep in their noise-floor band.
    # Longer runs put the median over runs of min_k ||x_k - x*|| into a
    # bimodal stretch of its distribution, where it varied by ~20% between
    # workload seeds; 16 noise seeds keep per-iteration work at 21600.
    seeds = noise_seeds(seed, 16)
    return {
        "entry": "noisy_sqp.harness.run_trace_experiment",
        "problems": PROBLEMS, "eps_levels": EPS_LEVELS, "noise_seeds": seeds,
        "iters": 150, "relaxation": True, "stop_test": False, "collect_psi": True,
        "output": "csv", "workers": 1, "runs": len(PROBLEMS) * len(EPS_LEVELS) * len(seeds),
    }


def _misest_grid_plan(seed: int) -> dict:
    plan = ExperimentPlan(problems=PROBLEMS, eps_levels=tuple((e, e) for e in EPS_LEVELS),
                          seeds=noise_seeds(seed, 8), misest_max_iters=500)
    multipliers = {e: plan.multipliers_for(e) for e in EPS_LEVELS}
    return {
        "entry": "noisy_sqp.harness.run_misestimation_table",
        "problems": PROBLEMS, "eps_levels": EPS_LEVELS, "noise_seeds": plan.seeds,
        "multipliers": {repr(e): m for e, m in multipliers.items()},
        "max_iters": plan.misest_max_iters, "stop_test": True, "workers": 1,
        "runs": len(PROBLEMS) * len(plan.seeds) * sum(len(m) for m in multipliers.values()),
    }


def _tables_cli_plan(seed: int) -> dict:
    seeds = noise_seeds(seed, 2)
    k_max = (100, 250, 500)
    return {
        "entry": "noisy_sqp.cli.dispatch",
        "argv": ["tables", "--problems", ",".join(PROBLEMS),
                 "--eps-levels", ",".join(repr(e) for e in EPS_LEVELS),
                 "--seeds", ",".join(map(str, seeds)), "--kmax", ",".join(map(str, k_max)),
                 "--format", "json"],
        "noise_seeds": seeds,
        # No --jobs: the CLI default is the CPU count once NOISY_SQP_JOBS is unset.
        "workers": os.cpu_count() or 1,
        "runs": len(PROBLEMS) * len(EPS_LEVELS) * len(seeds) * (1 + len(k_max)),
    }


WORKLOADS = {
    w.name: w for w in (
        Workload("trace-band", _trace_band, _trace_band_plan),
        Workload("misest-grid", _misest_grid, _misest_grid_plan),
        Workload("tables-cli", _tables_cli, _tables_cli_plan),
    )
}


# ---------------------------------------------------------------- one repetition


def warm_up() -> None:
    """Fill lazy caches (references, first numpy and scipy calls) before timing."""
    for name in PROBLEMS:
        p = get_problem(name)
        spec = NoiseSpec(1e-3, 1e-3, seed=0)
        cfg = SolverConfig(max_iters=20, termination_enabled=False)
        solver.solve(p, spec, cfg.with_estimates(spec.bounds(p.n, p.m)),
                     x_ref=reference_solution(name).x_star, collect_psi=True)


@dataclass
class Rep:
    wall: float
    runs: list[RunStats]
    outputs: Optional[Outputs]
    error: Optional[str]
    layers: Optional[dict] = None
    tracer: Optional[Tracer] = None

    def failed_runs(self) -> int:
        bad = {i for i, r in enumerate(self.runs) if r.failure}
        if self.outputs is not None:
            bad |= self.outputs.bad_runs
        return len(bad)

    def signature(self) -> tuple:
        """Everything that must repeat exactly across repetitions."""
        return (
            tuple(sorted((r.problem, r.eps1, r.seed, r.relaxation, r.iters, r.evals, r.status,
                          r.min_dist) for r in self.runs)),
            tuple(sorted(self.outputs.fingerprint.items())) if self.outputs else (),
        )


def run_once(workload: Workload, plan: dict, scratch: Path, traced: bool, sampler=None) -> Rep:
    """One repetition of a workload, optionally under the span tracer.

    ``sampler`` (a ``calibrate.Sampler``) is given the chance to time a
    calibration chunk after every solver run.
    """
    out_dir = Path(tempfile.mkdtemp(dir=scratch))
    outputs = error = tracer = None
    try:
        with contextlib.ExitStack() as patches:
            if traced:
                tracer = patches.enter_context(Tracer())
                for owner, attr, name, starts_run in TRACE_POINTS:
                    tracer.wrap(owner, attr, name, starts_run)
            recorder = patches.enter_context(Recorder(sampler))
            start = time.perf_counter()
            try:
                outputs = workload.drive(plan, out_dir, recorder.runs)
            except Exception:
                error = traceback.format_exc()
            wall = time.perf_counter() - start
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    rep = Rep(wall, recorder.runs, outputs, error, tracer=tracer)
    if tracer:
        rep.layers = layer_totals(tracer.spans)
    return rep
