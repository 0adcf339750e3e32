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
    twin = Problem(p.name, p.n, p.m, p.eval_fc, p.eval_gJ, p.x_start)
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
    assert verify_derivatives(get_problem(name), x) <= 1e-6


@pytest.mark.parametrize("name", list(DIMENSIONS))
def test_derivatives_at_random_points(name):
    p = get_problem(name)
    rng = np.random.default_rng(17)
    for _ in range(100):
        x = p.x_start + rng.uniform(-2.0, 2.0, size=p.n)
        assert verify_derivatives(p, x) <= 1e-6


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
        for got, want in zip((p.eval_fc, p.eval_gJ), NUMPY_SCALAR_CALLBACKS[name]):
            for a, b in zip(got(x), want(x), strict=True):
                assert np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def test_verify_derivatives_detects_a_wrong_gradient():
    from noisy_sqp import Problem

    p = get_problem("HS7")
    def eval_gJ(x):
        g, J = p.eval_gJ(x)
        return g + np.array([0.1, 0.0]), J

    broken = Problem("HS7-broken", p.n, p.m, p.eval_fc, eval_gJ, p.x_start)
    assert verify_derivatives(broken, p.x_start) > 1e-3


@pytest.mark.parametrize("entry", ["g", "J"])
@pytest.mark.parametrize("size", [1e3, 1e-3])
def test_verify_derivatives_error_is_relative_to_the_entry_or_1(entry, size):
    # f and c are linear, so the differences are exact but for rounding; one
    # analytic entry is off by 1e-6 max(1, size).
    from noisy_sqp import Problem

    g, J = np.array([size, 1.0]), np.array([[size, -1.0]])
    (g if entry == "g" else J[0])[0] += 1e-6 * max(1.0, size)
    p = Problem("linear", 2, 1, lambda x: (size * x[0] + x[1], np.array([size * x[0] - x[1]])),
                lambda x: (g, J), np.ones(2))
    assert verify_derivatives(p, p.x_start) == pytest.approx(1e-6, rel=1e-3)


def test_verify_derivatives_rejects_a_point_of_another_length():
    # BT11's callbacks unpack x, so a 3-vector raised a bare TypeError.
    with pytest.raises(ValueError, match=r"^point has shape \(3,\), expected \(4,\) for BT11"):
        verify_derivatives(get_problem("BT11"), np.ones(3))


def test_verify_derivatives_rejects_a_gradient_of_another_shape():
    # A one-entry gradient broadcast against the differences and gave 9.0.
    p = get_problem("BT11")
    p = replace(p, eval_gJ=lambda x, gJ=p.eval_gJ: (np.array([1.0]), gJ(x)[1]))
    with pytest.raises(ValueError,
                       match=r"^BT11: eval_gJ returned g of shape \(1,\), expected \(4,\)"):
        verify_derivatives(p, p.x_start)


@pytest.mark.parametrize("entry", ["g", "J"])
def test_verify_derivatives_reports_nan_disagreement(entry):
    # The builtin max(worst, nan) keeps worst, which would hide the NaN.
    from noisy_sqp import Problem

    p = get_problem("HS7")

    def eval_gJ(x):
        g, J = (np.array(v, dtype=float) for v in p.eval_gJ(x))
        if entry == "g":
            g[0] = math.nan
        else:
            J[0, 1] = math.nan
        return g, J

    broken = Problem("HS7-nan", p.n, p.m, p.eval_fc, eval_gJ, p.x_start)
    assert math.isnan(verify_derivatives(broken, p.x_start))


class TestReferenceSolutions:
    @pytest.mark.parametrize("name", list(DIMENSIONS))
    def test_first_order_conditions(self, name):
        # The bounds the stored points were verified to when they were derived.
        p = get_problem(name)
        ref = reference_solution(name)
        c = np.asarray(p.eval_fc(ref.x_star)[1])
        g, J = (np.asarray(v) for v in p.eval_gJ(ref.x_star))
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
        twin = type(ref)(ref.x_star)
        assert ref == ref and ref != twin
        assert len({ref, twin}) == 2

    @pytest.mark.parametrize("name", list(DIMENSIONS))
    def test_fixed_point_of_the_iteration(self, name):
        p = get_problem(name)
        ref = reference_solution(name)
        (_, c), (g, J) = p.eval_fc(ref.x_star), p.eval_gJ(ref.x_star)
        step = solve_sqp_step(J, c, g, 50.0)
        assert np.linalg.norm(step.d) <= 1e-8

    def test_hs7_optimum_is_analytic(self):
        ref = reference_solution("HS7")
        assert_allclose(ref.x_star, [0.0, math.sqrt(3.0)], atol=1e-9)
        f, _ = get_problem("HS7").eval_fc(ref.x_star)
        assert f == pytest.approx(-math.sqrt(3.0), abs=1e-10)

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
