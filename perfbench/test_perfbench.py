"""Tests of the benchmark's own machinery: span arithmetic, run checks, tracing."""

import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from noisy_sqp import NoiseSpec, Problem, SolverConfig, solve  # noqa: E402

import workloads  # noqa: E402
from tracer import Span, layer_totals, self_times  # noqa: E402


def test_self_time_subtracts_merged_child_coverage():
    spans = [
        Span(0, None, "root", 0, 100, None),
        Span(1, 0, "a", 10, 40, 0),      # overlaps b, as pool workers do
        Span(2, 0, "b", 30, 60, 1),
        Span(3, 1, "leaf", 15, 25, 0),
        Span(4, 0, "c", 90, 120, 2),     # runs past its parent: clipped to 90..100
    ]
    own = self_times(spans)
    assert own == {0: 100 - (50 + 10), 1: 30 - 10, 2: 30, 3: 10, 4: 30}
    totals = layer_totals(spans)
    assert totals["root"] == {"calls": 1, "self_ns": 40}
    assert totals["leaf"] == {"calls": 1, "self_ns": 10}


def _problem(name, f, J):
    return Problem(name, 2, 1, f, lambda x: np.array([x[0] - 1.0]), lambda x: 2 * x, J,
                   np.array([2.0, 2.0]))


def test_failure_reason_flags_singular_and_nonfinite_runs():
    spec = NoiseSpec(0.0, 0.0, seed=0)
    cfg = SolverConfig(max_iters=5)
    full_rank = lambda x: np.array([[1.0, 0.0]])  # noqa: E731

    singular = _problem("SING", lambda x: float(x @ x), lambda x: np.zeros((1, 2)))
    result = solve(singular, spec, cfg)
    assert workloads.failure_reason(result, True, True) == "singular_jacobian"

    nan_objective = _problem("NAN", lambda x: math.nan, full_rank)
    result = solve(nan_objective, spec, cfg)
    assert workloads.failure_reason(result, True, True) == "non-finite merit"

    healthy = _problem("OK", lambda x: float(x @ x), full_rank)
    result = solve(healthy, spec, cfg)
    assert workloads.failure_reason(result, True, True) is None
    stats = workloads.summarize_run(healthy, spec, cfg, np.array([1.0, 0.0]), result, 1.0, 1.0)
    assert stats.failure is None and stats.evals == stats.iters + stats.trials


def _originals():
    return [owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            for owner, attr, _, _ in workloads.TRACE_POINTS]


def test_traced_runs_restore_every_wrapped_attribute(tmp_path):
    workloads.warm_up()  # reference solutions call the solver too; cache them first
    before = _originals()
    solve_before = workloads.harness.solve

    plan = dict(workloads.WORKLOADS["trace-band"].make_plan(0),
                problems=("HS7",), eps_levels=(1e-3,), noise_seeds=(1,), iters=5, runs=1)
    rep = workloads.run_once(workloads.WORKLOADS["trace-band"], plan, tmp_path, traced=True)
    assert rep.error is None and rep.failed_runs() == 0
    assert rep.layers["oracles.eval_noisy"]["calls"] == workloads.counters(rep.runs)["oracle_evals"]
    assert rep.layers["diagnostics.stationarity_psi"]["calls"] == 5

    plan = workloads.WORKLOADS["tables-cli"].make_plan(0)
    argv = list(plan["argv"])
    argv[argv.index("--problems") + 1] = "HS7"
    argv[argv.index("--kmax") + 1] = "3,5"
    plan = dict(plan, argv=argv, runs=len(workloads.EPS_LEVELS) * 2 * 3)
    rep = workloads.run_once(workloads.WORKLOADS["tables-cli"], plan, tmp_path, traced=True)
    assert rep.error is None and rep.failed_runs() == 0 and not rep.outputs.problems
    by_id = {s.span_id: s for s in rep.tracer.spans}
    solves = [s for s in rep.tracer.spans if s.name == "solver.solve"]
    assert len(solves) == plan["runs"]
    assert {by_id[s.parent].name for s in solves} == {"harness.run_relaxation_table"}
    assert workloads.counters(rep.runs)["redundant_iter_share"] > 0

    assert all(a is b for a, b in zip(_originals(), before))
    assert workloads.harness.solve is solve_before

