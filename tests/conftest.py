"""Session-scoped experiment grids shared by the harness and acceptance tests.

The grids are the harness's own experiment runs on ExperimentPlan's default
problems, levels and seeds.  Building them is the dominant cost of the
suite, so the runs are computed once per session.  Every run is
deterministic in its seed, which keeps the assertions stable across machines.
"""

import time
from dataclasses import dataclass, replace

import numpy as np
import pytest

from noisy_sqp import ExperimentPlan, SolveResult
from noisy_sqp.harness import _grid_runs, _misestimation_modes, _relaxation_modes

PLAN = ExperimentPlan()
EPS_LEVELS = tuple(eps1 for eps1, _ in PLAN.eps_levels)
SEEDS = PLAN.seeds


@dataclass
class GridEntry:
    enabled: SolveResult
    disabled: SolveResult
    enabled_dists: np.ndarray   # per-iterate distances plus the final point
    disabled_dists: np.ndarray


@pytest.fixture(scope="session")
def experiment_grid():
    """The relaxation table's runs at k_max = 1000, keyed (problem, eps, seed) and timed per level."""
    runs, timings = {}, {}
    for level in PLAN.eps_levels:
        t0 = time.perf_counter()
        cells = iter(_grid_runs(replace(PLAN, eps_levels=(level,), k_max_values=(1000,)),
                                _relaxation_modes))
        # Each seed's classical run comes just before its relaxed one.
        for (name, spec, _, _, disabled, d_off), (*_, enabled, d_on) in zip(cells, cells):
            runs[(name, spec.eps1, spec.seed)] = GridEntry(enabled, disabled, d_on, d_off)
        timings[level[0]] = time.perf_counter() - t0
    return {"runs": runs, "timings": timings}


@pytest.fixture(scope="session")
def misestimation_grid():
    """The misestimation study's runs at the smallest level, keyed (problem, seed, multiplier)."""
    plan = replace(PLAN, eps_levels=(min(PLAN.eps_levels),))
    return {(name, spec.seed, mult): (result, dists)
            for name, spec, mult, _, result, dists in _grid_runs(plan, _misestimation_modes)}
