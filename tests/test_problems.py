"""Tests for the benchmark problems, derivative checks, and reference solutions."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import NUMPY_SCALAR_CALLBACKS
from noisy_sqp import (
    NoiseSpec,
    SolverConfig,
    get_problem,
    reference_solution,
    verify_derivatives,
)
from noisy_sqp.kernels import project_tangent, solve_sqp_step

DIMENSIONS = {"HS7": (2, 1), "BT11": (4, 3), "HS40": (5, 3)}
STARTS = {
    "HS7": np.array([2.0, 2.0]),
    "BT11": np.array([2.0, 2.0, 2.0, 2.0]),
    "HS40": np.full(5, 0.8),
}


@pytest.mark.parametrize("name", list(DIMENSIONS))
def test_dimensions_and_start(name):
    p = get_problem(name)
    assert (p.n, p.m) == DIMENSIONS[name]
    assert_allclose(p.x_start, STARTS[name])


def test_unknown_problem():
    with pytest.raises(KeyError, match="unknown problem"):
        get_problem("HS99")


def test_problems_compare_by_identity():
    # Equal fields, ndarray x_start among them, do not make two problems equal.
    from noisy_sqp import Problem

    p = get_problem("HS7")
    twin = Problem(p.name, p.n, p.m, p.eval_f, p.eval_c, p.eval_g, p.eval_J, p.x_start)
    assert p == p and p != twin
    assert len({p, twin, get_problem("HS7")}) == 3


@pytest.mark.parametrize(
    "name,x",
    [
        ("HS7", np.array([2.0, 2.0])),
        ("BT11", np.array([1.0, 1.0, 1.0, 1.0])),
        ("HS40", np.full(5, 0.8)),
    ],
)
def test_derivatives_at_pinned_points(name, x):
    assert verify_derivatives(get_problem(name), x, h=1e-6) <= 1e-6


@pytest.mark.parametrize("name", list(DIMENSIONS))
def test_derivatives_at_random_points(name):
    p = get_problem(name)
    rng = np.random.default_rng(17)
    for _ in range(100):
        x = p.x_start + rng.uniform(-2.0, 2.0, size=p.n)
        assert verify_derivatives(p, x, h=1e-6) <= 1e-6


# Any finite double, and points near the start where the solver runs.
COORDS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(-10.0, 10.0))


@pytest.mark.parametrize("name", list(DIMENSIONS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_callbacks_equal_numpy_scalar_forms_bitwise(name, data):
    p = get_problem(name)
    x = np.array(data.draw(st.lists(COORDS, min_size=p.n, max_size=p.n)))
    with np.errstate(all="ignore"):
        for got, want in zip((p.eval_f, p.eval_c, p.eval_g, p.eval_J),
                             NUMPY_SCALAR_CALLBACKS[name]):
            expected = np.asarray(want(x), dtype=float)
            assert np.asarray(got(x), dtype=float).tobytes() == expected.tobytes()


def test_verify_derivatives_detects_a_wrong_gradient():
    from noisy_sqp import Problem

    p = get_problem("HS7")
    broken = Problem(
        "HS7-broken", p.n, p.m, p.eval_f, p.eval_c,
        lambda x: p.eval_g(x) + np.array([0.1, 0.0]), p.eval_J, p.x_start,
    )
    assert verify_derivatives(broken, p.x_start) > 1e-3


def test_verify_derivatives_rejects_a_point_of_another_length():
    # BT11's callbacks unpack x, so a 3-vector raised a bare TypeError.
    with pytest.raises(ValueError, match=r"^point has shape \(3,\), expected \(4,\) for BT11"):
        verify_derivatives(get_problem("BT11"), np.ones(3))


def test_verify_derivatives_rejects_a_gradient_of_another_shape():
    # A one-entry gradient broadcast against the differences and gave 9.0.
    p = replace(get_problem("BT11"), eval_g=lambda x: np.array([1.0]))
    with pytest.raises(ValueError, match=r"^BT11: eval_g returned shape \(1,\), expected \(4,\)"):
        verify_derivatives(p, p.x_start)


@pytest.mark.parametrize("h", [0.0, -1e-6])  # other edge values are rows of test_input_rules
def test_verify_derivatives_requires_finite_positive_step(h):
    with pytest.raises(ValueError, match="^step must be positive and finite, got "):
        verify_derivatives(get_problem("HS7"), np.array([2.0, 2.0]), h=h)


@pytest.mark.parametrize("entry", ["g", "J"])
def test_verify_derivatives_reports_nan_disagreement(entry):
    # The builtin max(worst, nan) keeps worst, which would hide the NaN.
    from noisy_sqp import Problem

    p = get_problem("HS7")
    eval_g, eval_J = p.eval_g, p.eval_J
    if entry == "g":
        def eval_g(x):
            return np.array([math.nan, -1.0])
    else:
        def eval_J(x):
            J = np.array(p.eval_J(x), dtype=float)
            J[0, 1] = math.nan
            return J
    broken = Problem("HS7-nan", p.n, p.m, p.eval_f, p.eval_c, eval_g, eval_J, p.x_start)
    assert math.isnan(verify_derivatives(broken, p.x_start))


class TestReferenceSolutions:
    @pytest.mark.parametrize("name", list(DIMENSIONS))
    def test_first_order_conditions(self, name):
        # The bounds the stored points were verified to when they were derived.
        p = get_problem(name)
        ref = reference_solution(name)
        c = np.asarray(p.eval_c(ref.x_star))
        g = np.asarray(p.eval_g(ref.x_star))
        J = np.asarray(p.eval_J(ref.x_star))
        assert np.max(np.abs(c)) <= 1e-10
        assert np.linalg.norm(project_tangent(J, g)) <= 1e-10

    @pytest.mark.parametrize("name", list(DIMENSIONS))
    def test_zero_noise_solve_reaches_the_stored_point(self, name):
        # The derivation's first stage; Newton steps took its end point the
        # rest of the way.
        from noisy_sqp import solve

        cfg = SolverConfig(beta=5.0, max_iters=5000, relaxation_enabled=False,
                           eps_c_est=1e-6, eps_g_est=1e-6)
        result = solve(get_problem(name), NoiseSpec(0.0, 0.0, seed=0), cfg)
        assert np.linalg.norm(result.x - reference_solution(name).x_star) <= 1e-6

    def test_unknown_name_raises_key_error(self):
        with pytest.raises(KeyError, match="unknown problem 'FOO'"):
            reference_solution("FOO")

    def test_cached_and_read_only(self):
        ref = reference_solution("HS40")
        assert reference_solution("HS40") is ref
        with pytest.raises(ValueError):
            ref.x_star[0] = 0.0

    def test_compares_by_identity(self):
        ref = reference_solution("HS7")
        twin = type(ref)(ref.x_star, ref.f_star)
        assert ref == ref and ref != twin
        assert len({ref, twin}) == 2

    @pytest.mark.parametrize("name", list(DIMENSIONS))
    def test_fixed_point_of_the_iteration(self, name):
        p = get_problem(name)
        ref = reference_solution(name)
        step = solve_sqp_step(p.eval_J(ref.x_star), p.eval_c(ref.x_star),
                              p.eval_g(ref.x_star), 50.0)
        assert np.linalg.norm(step.d) <= 1e-8

    def test_hs7_optimum_is_analytic(self):
        ref = reference_solution("HS7")
        assert_allclose(ref.x_star, [0.0, math.sqrt(3.0)], atol=1e-9)
        assert ref.f_star == pytest.approx(-math.sqrt(3.0), abs=1e-10)

    @pytest.mark.parametrize("name", list(DIMENSIONS))
    def test_objective_value_consistent(self, name):
        p = get_problem(name)
        ref = reference_solution(name)
        assert abs(ref.f_star - p.eval_f(ref.x_star)) <= 1e-12

    @pytest.mark.parametrize("name", list(DIMENSIONS))
    def test_default_dynamics_land_on_the_same_point(self, name):
        # The experiment configuration (beta=50) must converge toward the
        # cached reference, or distance reporting would be meaningless.
        from noisy_sqp import solve

        p = get_problem(name)
        ref = reference_solution(name)
        cfg = SolverConfig(max_iters=1000, termination_enabled=False)
        result = solve(p, NoiseSpec(0.0, 0.0, seed=0), cfg)
        assert np.linalg.norm(result.x - ref.x_star) <= 1e-4
