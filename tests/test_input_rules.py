"""One table for the input rules: every setting that takes a number, against
one list of edge values.

Each decision is pinned by hand.  A real setting takes a finite real >= 0
(> 0 for beta); an integer setting takes an integer >= 0 (> 0 for
dimensions and max_iters; a seed below 2**32).  A bool is neither, and NaN
fails.  An accepted value is stored as a builtin float or int, so numpy
scalars and fractions never reach the arithmetic or JSON.
"""

import dataclasses
import json
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from noisy_sqp import ExperimentPlan, NoiseSpec, Problem, SolverConfig, get_problem, solve

HS7 = get_problem("HS7")

# (id, value from the field's ordinary value v)
VALUES = [
    ("nan", lambda v: math.nan),
    ("inf", lambda v: math.inf),
    ("-inf", lambda v: -math.inf),
    ("-0.0", lambda v: -0.0),
    ("True", lambda v: True),
    ("False", lambda v: False),
    ("np.True_", lambda v: np.True_),
    ("float32", np.float32),
    ("float64", np.float64),
    ("int64", np.int64),
    ("Fraction", Fraction),
    ("Decimal", Decimal),
    ("str", lambda v: "1"),
    ("-1", lambda v: -1),
    ("-1e-3", lambda v: -1e-3),
    ("2**32-1", lambda v: 2**32 - 1),
    ("2**32", lambda v: 2**32),
]

# Each kind of setting: the builtin type it stores and the values it
# accepts; it rejects every other one.
REAL = float, {"-0.0", "float32", "float64", "int64", "Fraction", "2**32-1", "2**32"}
POSITIVE_REAL = float, REAL[1] - {"-0.0"}
POSITIVE_INT = int, {"int64", "2**32-1", "2**32"}
SEED = int, {"int64", "2**32-1"}


def _problem(**dims):
    dims = {"n": 2, "m": 1, **dims}
    return Problem("table", dims["n"], dims["m"], HS7.eval_fc, HS7.eval_gJ, np.zeros(2))


def _estimates(cfg):
    return cfg.eps_f_est, cfg.eps_c_est, cfg.eps_g_est, cfg.eps_J_est


def _config(name):
    return lambda x: (getattr(SolverConfig(**{name: x}), name),)


def _scaled_zero_bounds(multiplier):
    # Zero bounds: the multiplier is checked itself, as -1 * 0 gives -0.0 estimates.
    return _estimates(SolverConfig().with_estimates(NoiseSpec(0.0, 0.0).bounds(4, 3), multiplier))


def _plan(name, read, wrap):
    # A plan stores each value as its own rule does; one small grid around it.
    base = {"problems": ("HS7",), "eps_levels": ((1e-3, 1e-3),), "seeds": (0,),
            "k_max_values": (20,), "misest_max_iters": 20}
    return lambda x: (read(ExperimentPlan(**{**base, name: wrap(x)})),)


# field: (ordinary value v, build(value) -> the stored settings, rule, kind)
FIELDS = {
    "Problem.n": (2, lambda x: (_problem(n=x).n,), "n must be a positive integer", POSITIVE_INT),
    "Problem.m": (1, lambda x: (_problem(m=x).m,), "m must be a positive integer", POSITIVE_INT),
    "NoiseSpec.eps1": (2, lambda x: (NoiseSpec(x, 0.0).eps1,),
                       "noise half-widths must be nonnegative and finite", REAL),
    "NoiseSpec.eps2": (2, lambda x: (NoiseSpec(0.0, x).eps2,),
                       "noise half-widths must be nonnegative and finite", REAL),
    "NoiseSpec.seed": (2, lambda x: (NoiseSpec(0.0, 0.0, seed=x).seed,),
                       "seed must be a nonnegative integer", SEED),
    "SolverConfig.beta": (2, _config("beta"), "beta must be positive and finite", POSITIVE_REAL),
    **{f"SolverConfig.{name}": (2, _config(name),
                                "estimated noise bounds must be nonnegative and finite", REAL)
       for name in ("eps_f_est", "eps_c_est", "eps_g_est", "eps_J_est")},
    "SolverConfig.max_iters": (2, _config("max_iters"), "max_iters must be a positive integer",
                               POSITIVE_INT),
    "with_estimates multiplier": (2, _scaled_zero_bounds,
                                  "estimate multiplier must be nonnegative and finite", REAL),
    "ExperimentPlan.eps_levels": (2, _plan("eps_levels", lambda p: p.eps_levels[0][0],
                                           lambda x: ((x, 0.0),)),
                                  "noise half-widths must be nonnegative and finite", REAL),
    "ExperimentPlan.seeds": (2, _plan("seeds", lambda p: p.seeds[0], lambda x: (x,)),
                             "seed must be a nonnegative integer", SEED),
    "ExperimentPlan.k_max_values": (2, _plan("k_max_values", lambda p: p.k_max_values[0],
                                             lambda x: (x,)),
                                    "max_iters must be a positive integer", POSITIVE_INT),
    "ExperimentPlan.misest_max_iters": (2, _plan("misest_max_iters", lambda p: p.misest_max_iters,
                                                 lambda x: x),
                                        "max_iters must be a positive integer", POSITIVE_INT),
}


@pytest.mark.parametrize("value_id, make", VALUES, ids=[v[0] for v in VALUES])
@pytest.mark.parametrize("field", list(FIELDS))
def test_input_rule(field, value_id, make):
    v, build, rule, (kind, accepted) = FIELDS[field]
    value = make(v)
    if value_id not in accepted:
        if rule.startswith("seed") and value_id == "2**32":
            rule = "seed must be below 2**32"
        with pytest.raises(ValueError) as err:
            build(value)
        assert str(err.value) == f"{rule}, got {value!r}"
    elif field.startswith("Problem.") and value_id.startswith("2**32"):
        # The dimension rule has no upper bound; the start point's shape, or
        # m < n, rejects these.
        with pytest.raises(ValueError, match=r"^(x_start has shape|need m < n)"):
            build(value)
    else:
        stored = build(value)
        assert all(type(s) is kind for s in stored)
        if field == "with_estimates multiplier":
            assert stored == (0.0,) * 4
        else:
            assert stored == (kind(value),)


def test_numpy_scalar_settings_serialize_and_give_builtin_margins():
    cfg = SolverConfig(beta=np.float32(50.0), eps_f_est=np.float32(1e-3),
                       eps_c_est=np.float64(1e-3), max_iters=np.int64(20),
                       termination_enabled=False)
    assert json.loads(json.dumps(dataclasses.asdict(cfg)))["eps_f_est"] == cfg.eps_f_est
    spec = NoiseSpec(np.float32(1e-3), np.float64(1e-3), seed=np.int64(3))
    result = solve(HS7, spec, cfg)
    assert len(result.trace) == 20
    assert all(type(r.eps_R) is float and type(r.pi) is float for r in result.trace)
    scaled = SolverConfig().with_estimates(spec.bounds(HS7.n, HS7.m), np.float32(2.0))
    assert all(type(e) is float for e in _estimates(scaled))
