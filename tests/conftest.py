"""Session-scoped experiment grids shared by the harness, acceptance and golden tests.

The grids are the harness's own experiment runs on ExperimentPlan's default
problems, levels and seeds (see ``helpers.relaxation_grid`` and
``helpers.misestimation_grid``).  Building them is the dominant cost of the
suite, so the runs are computed once per session.  Every run is
deterministic in its seed, which keeps the assertions stable across machines.
"""

import pytest

import helpers

EPS_LEVELS = tuple(eps1 for eps1, _ in helpers.PLAN.eps_levels)
SEEDS = helpers.PLAN.seeds


@pytest.fixture(scope="session")
def experiment_grid():
    """The relaxation table's runs at k_max = 1000, keyed (problem, eps, seed) and timed per level."""
    return helpers.relaxation_grid()


@pytest.fixture(scope="session")
def misestimation_grid():
    """The misestimation study's runs at the smallest level, keyed (problem, seed, multiplier)."""
    return helpers.misestimation_grid()
