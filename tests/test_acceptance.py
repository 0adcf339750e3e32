"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The heavy run grids come from session-scoped fixtures shared
with the harness tests.
"""

import math
import time

import numpy as np

from conftest import EPS_LEVELS, SEEDS
from helpers import dense_kkt_step, kkt_residual, random_full_rank
from noisy_sqp import (
    PROBLEM_NAMES,
    NoiseSpec,
    SolverConfig,
    Status,
    get_problem,
    solve,
    verify_derivatives,
)
from noisy_sqp.kernels import project_tangent, solve_sqp_step


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_zero_noise_convergence():
    # Exact oracles from the standard starts: feasibility and KKT
    # residual at or below 1e-8 within 200 iterations, under 1s total.
    t0 = time.perf_counter()
    worst_feas, worst_kkt, worst_iters = 0.0, 0.0, 0
    for name in PROBLEM_NAMES:
        p = get_problem(name)
        cfg = SolverConfig(beta=3.0, max_iters=200, relaxation_enabled=False)
        result = solve(p, NoiseSpec(0.0, 0.0, seed=0), cfg)
        assert result.status is Status.CONVERGED, name
        c = np.asarray(p.eval_fc(result.x)[1])
        g, J = (np.asarray(v) for v in p.eval_gJ(result.x))
        lam = np.linalg.lstsq(J.T, g, rcond=None)[0]
        worst_feas = max(worst_feas, float(np.sum(np.abs(c))))
        worst_kkt = max(worst_kkt, float(np.linalg.norm(g - J.T @ lam)))
        worst_iters = max(worst_iters, result.iters_run)
    elapsed = time.perf_counter() - t0
    ok = worst_feas <= 1e-8 and worst_kkt <= 1e-8 and worst_iters <= 200 and elapsed < 1.0
    _criterion(1, ok, f"zero-noise convergence (feas={worst_feas:.1e}, "
                      f"kkt={worst_kkt:.1e}, iters<={worst_iters}, {elapsed:.2f}s)")


def test_criterion_2_qp_step_oracle_equivalence():
    rng = np.random.default_rng(20240601)
    betas = (0.7, 1.0, 5.0, 50.0)
    worst_diff, worst_orth = 0.0, 0.0
    for i in range(100):
        J, c, g = random_full_rank(rng)
        beta = betas[i % len(betas)]
        step = solve_sqp_step(J, c, g, beta)
        worst_diff = max(worst_diff, float(np.max(np.abs(step.d - dense_kkt_step(J, c, g, beta)))))
        bound = 1e-10 * (np.linalg.norm(step.u) * np.linalg.norm(step.v) + 1.0)
        worst_orth = max(worst_orth, abs(np.dot(step.u, step.v)) / bound)
    ok = worst_diff <= 1e-9 and worst_orth <= 1.0
    _criterion(2, ok, f"QP step vs dense solve on 100 instances "
                      f"(max diff={worst_diff:.1e}, orth ratio={worst_orth:.2f})")


def test_criterion_3_derivative_correctness():
    rng = np.random.default_rng(20240602)
    errors = []
    for name in PROBLEM_NAMES:
        p = get_problem(name)
        for _ in range(100):
            x = p.x_start + rng.uniform(-2.0, 2.0, size=p.n)
            errors.append(verify_derivatives(p, x))
    worst = float(np.max(errors))  # the builtin max would drop a NaN
    ok = worst <= 1e-5
    _criterion(3, ok, f"central-difference agreement at 100 points/problem "
                      f"(max rel err={worst:.2e})")


def _band_counts(grid, eps, fail_before, dist_bound, k_max):
    """Per problem: seeds with a classical failure in time, and with the
    relaxed run inside the distance band at k_max."""
    out = {}
    for name in PROBLEM_NAMES:
        fails = sum(
            1 for seed in SEEDS
            if grid[(name, eps, seed)].disabled.status is Status.LINE_SEARCH_FAILURE
            and grid[(name, eps, seed)].disabled.failure_iter < fail_before
        )
        in_band = sum(
            1 for seed in SEEDS
            if grid[(name, eps, seed)].enabled_dists[: k_max + 1].min() <= dist_bound
        )
        out[name] = (fails, in_band)
    return out


def test_criterion_4_low_noise_band(experiment_grid):
    counts = _band_counts(experiment_grid["runs"], 1e-5,
                          fail_before=500, dist_bound=1e-4, k_max=500)
    elapsed = experiment_grid["timings"][1e-5]
    ok = all(f >= 8 and b >= 8 for f, b in counts.values()) and elapsed < 30.0
    _criterion(4, ok, f"eps=1e-5: failures<500 and min dist<=1e-4 at k=500 "
                      f"{counts} in {elapsed:.1f}s")


def test_criterion_5_moderate_noise_band(experiment_grid):
    counts = _band_counts(experiment_grid["runs"], 1e-3,
                          fail_before=200, dist_bound=1e-2, k_max=500)
    ok = all(f >= 8 and b >= 8 for f, b in counts.values())
    _criterion(5, ok, f"eps=1e-3: failures<200 and min dist<=1e-2 at k=500 {counts}")


def test_criterion_6_relaxation_benefit(experiment_grid):
    runs = experiment_grid["runs"]
    worst = None
    ok = True
    for name in PROBLEM_NAMES:
        for eps in EPS_LEVELS:
            on = np.median([runs[(name, eps, s)].enabled_dists.min() for s in SEEDS])
            off = np.median([runs[(name, eps, s)].disabled_dists.min() for s in SEEDS])
            if on > off:
                ok = False
            if worst is None or on / off > worst[0]:
                worst = (on / off, name, eps)
    _criterion(6, ok, f"median relaxed min dist <= classical at every level "
                      f"(worst ratio {worst[0]:.2e} at {worst[1]}, eps={worst[2]:g})")


def test_criterion_7_misestimation_behavior(misestimation_grid):
    counts = {}
    for name in PROBLEM_NAMES:
        good = 0
        for seed in SEEDS:
            exact, d_exact = misestimation_grid[(name, seed, 1.0)]
            under, _ = misestimation_grid[(name, seed, 1e-3)]
            over, d_over = misestimation_grid[(name, seed, 1e3)]
            if (
                exact.status is Status.CONVERGED
                and under.status is Status.LINE_SEARCH_FAILURE
                and over.status is Status.CONVERGED
                and d_over.min() >= 10.0 * d_exact.min()
            ):
                good += 1
        counts[name] = good
    ok = all(v >= 8 for v in counts.values())
    _criterion(7, ok, f"underestimate->ls, overestimate->opt with >=10x worse "
                      f"distance {counts}")


def test_criterion_8_penalty_behavior(experiment_grid, misestimation_grid):
    all_runs = []
    for entry in experiment_grid["runs"].values():
        all_runs.append(entry.enabled)
        all_runs.append(entry.disabled)
    all_runs.extend(result for result, _ in misestimation_grid.values())

    # Constancy of the tail is asserted for runs long enough to settle;
    # a classical-search failure can cut a run dead at iteration ~10,
    # mid-way through the penalty's initial growth.
    monotone = settled = True
    for result in all_runs:
        pis = [r.pi for r in result.trace]
        if any(b < a for a, b in zip(pis, pis[1:])):
            monotone = False
        if len(pis) >= 100:
            tail = pis[math.ceil(0.2 * len(pis)):]
            if len(set(tail)) > 1:
                settled = False

    # at the moderate noise levels the penalty must be fixed early
    worst_fix = 0
    for (name, eps, seed), entry in experiment_grid["runs"].items():
        if eps > 1e-3:
            continue
        pis = [r.pi for r in entry.enabled.trace]
        changes = [k for k in range(1, len(pis)) if pis[k] != pis[k - 1]]
        worst_fix = max(worst_fix, changes[-1] if changes else 0)

    ok = monotone and settled and worst_fix <= 30
    _criterion(8, ok, f"penalty nondecreasing, constant over final 80%, "
                      f"fixed by iteration {worst_fix} <= 30 on default runs")


def test_criterion_9_relaxed_search_never_fails(experiment_grid, misestimation_grid):
    failures = []
    for key, entry in experiment_grid["runs"].items():
        if entry.enabled.status is Status.LINE_SEARCH_FAILURE:
            failures.append(("grid",) + key)
    for (name, seed, mult), (result, _) in misestimation_grid.items():
        if mult == 1.0 and result.status is Status.LINE_SEARCH_FAILURE:
            failures.append(("misest", name, seed))
    ok = not failures
    _criterion(9, ok, f"no line-search failure with relaxation + exact estimates "
                      f"across {len(experiment_grid['runs']) + len(SEEDS) * len(PROBLEM_NAMES)} "
                      f"runs ({failures or 'none'})")


def test_criterion_10_multiplier_projection_identity():
    rng = np.random.default_rng(20240603)
    worst = 0.0
    for _ in range(100):
        J, c, g = random_full_rank(rng)
        lam = solve_sqp_step(J, c, g, 1.0).lambda_hat
        residual = kkt_residual(g, J, -lam)
        worst = max(worst, abs(residual - np.linalg.norm(project_tangent(J, g))))
    ok = worst <= 1e-10
    _criterion(10, ok, f"||g + J'(-lam)|| equals projected-gradient norm "
                       f"(max gap={worst:.1e})")
