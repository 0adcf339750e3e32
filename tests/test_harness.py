"""Tests for the experiment harness: traces, tables, serialization."""

import csv
import dataclasses
import json
import math
import statistics

import numpy as np
import pytest

from conftest import EPS_LEVELS, SEEDS
from noisy_sqp import (
    ExperimentPlan,
    NoiseSpec,
    SolverConfig,
    get_problem,
    reference_solution,
    render_misestimation_table,
    render_relaxation_table,
    run_misestimation_table,
    run_relaxation_table,
    run_trace_experiment,
    summaries_to_json,
)
from noisy_sqp import harness
from noisy_sqp.harness import _TERMINATION_KIND, MISESTIMATION_MULTIPLIERS, trace_path
from noisy_sqp.solver import Status


def _read_csv(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return rows


class TestTraceExperiment:
    def test_row_count_and_header(self, tmp_path):
        paths = run_trace_experiment(tmp_path, problems=("HS7",), seeds=(0,), iters=120)
        rows = _read_csv(paths[0])
        assert len(rows) == 120
        assert list(rows[0]) == ["k", "dist", "log2_dist", "alpha", "pi",
                                 "merit_noisy", "psi", "backtracks"]
        assert [int(r["k"]) for r in rows] == list(range(120))

    def test_reruns_are_byte_identical(self, tmp_path):
        a = run_trace_experiment(tmp_path / "a", problems=("BT11",), seeds=(3,), iters=80)
        b = run_trace_experiment(tmp_path / "b", problems=("BT11",), seeds=(3,), iters=80)
        assert a[0].read_bytes() == b[0].read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a = run_trace_experiment(tmp_path / "a", problems=("HS7",), seeds=(0,), iters=50)
        b = run_trace_experiment(tmp_path / "b", problems=("HS7",), seeds=(1,), iters=50)
        assert a[0].read_bytes() != b[0].read_bytes()

    def test_zero_noise_trace_decays_to_the_floor(self, tmp_path):
        paths = run_trace_experiment(tmp_path, problems=("HS7",), eps1=0.0, eps2=0.0,
                                     seeds=(0,), iters=500)
        dists = np.array([float(r["dist"]) for r in _read_csv(paths[0])])
        assert dists[-1] <= 1e-6
        assert np.all(dists[1:] <= dists[:-1] * (1 + 1e-9) + 1e-15)

    def test_noisy_trace_stays_in_a_band(self, experiment_grid):
        # after the transient, the distance must not wander far above
        # its typical level
        entry = experiment_grid["runs"][("HS7", 1e-3, 0)]
        tail = entry.enabled_dists[100:]
        assert tail.max() <= 10.0 * np.percentile(tail, 90)


@pytest.fixture(scope="module")
def small_table():
    plan = ExperimentPlan(problems=("HS7",), eps_levels=((1e-5, 1e-5),),
                          seeds=(0, 1), k_max_values=(100, 300))
    return run_relaxation_table(plan)


class TestRelaxationTable:
    def test_disabled_runs_record_failures(self, small_table):
        disabled = [s for s in small_table if not s.relaxation]
        assert len(disabled) == 2
        for s in disabled:
            assert s.status == "line_search_failure"
            assert s.termination_kind == "ls"
            assert s.failure_iter is not None and s.failure_iter < 300
            assert s.min_dist > 0

    def test_enabled_runs_cover_each_k_max(self, small_table):
        enabled = [s for s in small_table if s.relaxation]
        assert sorted(s.iters_run for s in enabled if s.seed == 0) == [100, 300]
        assert all(s.k_max == s.iters_run for s in enabled)
        for s in enabled:
            assert s.status == "max_iters"
            assert s.failure_iter is None

    def test_relaxation_beats_classical_search(self, small_table):
        for seed in (0, 1):
            best_on = min(s.min_dist for s in small_table if s.relaxation and s.seed == seed)
            best_off = min(s.min_dist for s in small_table if not s.relaxation and s.seed == seed)
            assert best_on <= best_off

    def test_json_round_trip(self, small_table):
        doc = json.loads(summaries_to_json(small_table, "relaxation eps=1e-5"))
        assert doc["table"] == "relaxation eps=1e-5"
        assert len(doc["runs"]) == len(small_table)
        assert doc["runs"][0]["problem"] == "HS7"
        assert set(doc["runs"][0]) == {
            "problem", "eps1", "eps2", "seed", "relaxation", "est_multiplier",
            "status", "failure_iter", "min_dist", "min_dist_iter", "iters_run", "k_max",
            "termination_kind",
        }

    def test_renderer_mentions_key_cells(self, small_table):
        text = render_relaxation_table(small_table)
        assert "HS7" in text
        assert "k_max=100" in text and "k_max=300" in text
        assert "failure iter" in text

    def test_renderer_groups_on_k_max_not_iters_run(self, small_table):
        # A relaxed run that ends early (here on a singular Jacobian) stays
        # in its own k_max column and opens no column of its own.
        short = dataclasses.replace(
            next(s for s in small_table if s.relaxation and s.k_max == 100),
            iters_run=37, status="singular_jacobian", termination_kind="singular",
            min_dist=0.125)
        rows = [s for s in small_table if not (s.relaxation and s.k_max == 100)] + [short]
        text = render_relaxation_table(rows)
        assert "k_max=37" not in text
        header = next(line for line in text.splitlines() if "k_max=100" in line)
        cells = next(line for line in text.splitlines() if line.strip().startswith("HS7"))
        columns = [c.strip() for c in header.split("|")]
        assert cells.split("|")[columns.index("k_max=100")].strip() == "1.2500e-01"


class TestMisestimationTable:
    def test_multiplier_defaults_mirror_the_study(self):
        plan = ExperimentPlan()
        assert plan.multipliers_for(1e-5) == (1.0, 1e-3, 1e3)
        assert plan.multipliers_for(1e-3) == (1.0, 1e-2, 1e2)
        assert plan.multipliers_for(1e-1) == (1.0, 1e-1, 1e1)
        assert MISESTIMATION_MULTIPLIERS[1e-5] == (1.0, 1e-3, 1e3)

    def test_under_and_over_estimation_outcomes(self):
        plan = ExperimentPlan(problems=("HS7",), eps_levels=((1e-5, 1e-5),), seeds=(1,))
        rows = {s.est_multiplier: s for s in run_misestimation_table(plan)}
        assert rows[1.0].termination_kind == "opt"
        assert rows[1e-3].termination_kind == "ls"
        assert rows[1e3].termination_kind == "opt"
        assert rows[1e3].min_dist > rows[1.0].min_dist

    def test_renderer_shows_kinds(self):
        plan = ExperimentPlan(problems=("HS7",), eps_levels=((1e-5, 1e-5),), seeds=(1,))
        text = render_misestimation_table(run_misestimation_table(plan))
        assert "(opt)" in text and "(ls)" in text


def test_every_status_has_a_termination_kind():
    assert _TERMINATION_KIND[Status.NONFINITE] == "nonfinite"
    assert set(_TERMINATION_KIND) == set(Status)


def _assert_columns_line_up(text):
    # Every row of a block has its "|" at the header's offsets, under a rule
    # as wide as the widest row, and no line ends in a blank.
    for block in text.split("\n\n"):
        lines = block.strip("\n").splitlines()
        header, rule, rows = lines[1], lines[2], lines[3:]
        bars = [i for i, ch in enumerate(header) if ch == "|"]
        assert rows and set(rule) == {"-"}
        for row in rows:
            assert [i for i, ch in enumerate(row) if ch == "|"] == bars, (header, row)
            assert len(row) <= len(rule)
        assert all(line == line.rstrip() for line in lines)


def test_rendered_columns_line_up(small_table):
    # A 20-iteration cap ends some runs on max_iters, the longest cell kind.
    plan = ExperimentPlan(problems=("HS7", "BT11"), eps_levels=((1e-3, 1e-3), (1e-5, 1e-5)),
                          seeds=(0, 1), misest_max_iters=20)
    misest = run_misestimation_table(plan)
    assert any(s.termination_kind == "max_iters" for s in misest)
    _assert_columns_line_up(render_misestimation_table(misest))
    _assert_columns_line_up(render_relaxation_table(small_table))
    # Budgets of six digits widen the k_max columns.
    wide = [dataclasses.replace(s, k_max=s.k_max * 1000) if s.relaxation else s
            for s in small_table]
    _assert_columns_line_up(render_relaxation_table(wide))


GRID = ExperimentPlan(problems=("BT11", "HS7"), eps_levels=((1e-3, 1e-3), (1e-5, 0.0)),
                      seeds=(1, 0), k_max_values=(12, 5), misest_max_iters=15)

# Per table: the entry point on GRID (or, for traces, its first level at
# k_max 12), the plan it walks, and per level each seed's runs as
# (relaxation, max_iters, stop test, estimate multiplier).
WALKS = {
    "trace": (lambda out: run_trace_experiment(out, GRID.problems, *GRID.eps_levels[0],
                                               seeds=GRID.seeds, iters=12),
              dataclasses.replace(GRID, eps_levels=GRID.eps_levels[:1], k_max_values=(12,)),
              lambda eps1: [(True, 12, False, 1.0)]),
    "relaxation": (lambda out: run_relaxation_table(GRID), GRID,
                   lambda eps1: [(False, 12, False, 1.0), (True, 12, False, 1.0),
                                 (True, 5, False, 1.0)]),
    "misestimation": (lambda out: run_misestimation_table(GRID), GRID,
                      lambda eps1: [(True, 15, True, m) for m in GRID.multipliers_for(eps1)]),
}


@pytest.mark.parametrize("table", WALKS)
def test_each_cell_is_solved_once_in_plan_order(table, monkeypatch, tmp_path):
    # perfbench's Recorder wraps harness.solve and pairs the runs it sees,
    # in order, with the rows or files an entry point returns.
    run, plan, modes = WALKS[table]
    calls = []
    solve = harness.solve

    def recorded(p, spec, cfg, x_ref=None, collect_psi=False):
        calls.append((p.name, spec, cfg, x_ref, collect_psi))
        return solve(p, spec, cfg, x_ref=x_ref, collect_psi=collect_psi)

    monkeypatch.setattr(harness, "solve", recorded)
    outputs = run(tmp_path)
    expected = []
    for name in plan.problems:
        p = get_problem(name)
        for eps1, eps2 in plan.eps_levels:
            for seed in plan.seeds:
                spec = NoiseSpec(eps1, eps2, seed=seed)
                for relaxed, k_max, stop, mult in modes(eps1):
                    cfg = SolverConfig(relaxation_enabled=relaxed, max_iters=k_max,
                                       termination_enabled=stop)
                    expected.append((name, spec, cfg.with_estimates(spec.bounds(p.n, p.m), mult)))
    assert [call[:3] for call in calls] == expected
    assert len(outputs) == len(calls)
    for out, (name, spec, cfg, x_ref, collect_psi) in zip(outputs, calls):
        assert np.array_equal(x_ref, reference_solution(name).x_star)
        assert collect_psi is (table == "trace")
        if table == "trace":
            assert out == trace_path(tmp_path, name, spec)
        else:
            assert (out.problem, out.eps1, out.eps2, out.seed, out.relaxation, out.k_max) == (
                name, spec.eps1, spec.eps2, spec.seed, cfg.relaxation_enabled, cfg.max_iters)


@pytest.fixture
def no_solve(monkeypatch):
    """Make any solver run started through the harness fail the test."""
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "solve", no_run)


def test_renderers_keep_levels_that_share_eps1_apart():
    # Two levels with the same eps1: each table block must summarize its own
    # (eps1, eps2) rows, exactly as if that level had been run alone.
    plan = ExperimentPlan(problems=("HS7",), eps_levels=((1e-3, 1e-3), (1e-3, 0.0)),
                          seeds=(0, 1), k_max_values=(30,), misest_max_iters=200)
    for run, render in ((run_relaxation_table, render_relaxation_table),
                        (run_misestimation_table, render_misestimation_table)):
        summaries = run(plan)
        alone = [render([s for s in summaries if (s.eps1, s.eps2) == level])
                 for level in sorted(plan.eps_levels)]
        assert render(summaries) == "\n".join(alone)


class TestPlanValidation:
    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError):
            ExperimentPlan(problems=())

    @pytest.mark.parametrize(
        "grid,message",
        [
            ({"problems": ("HS7", "FOO")}, "unknown problems: FOO (choose from HS7, BT11, HS40)"),
            ({"seeds": (0, 1, -1)}, "seed must be a nonnegative integer, got -1"),
            ({"seeds": (0, 1.5)}, "seed must be a nonnegative integer, got 1.5"),
            ({"seeds": (True,)}, "seed must be a nonnegative integer, got True"),
            ({"seeds": (0, 2**32)}, "seed must be below 2**32, got 4294967296"),
            ({"eps_levels": ((1e-3, 1e-3), (math.nan, math.nan))}, "nonnegative"),
            ({"eps_levels": ((1e-3, 1e-3), (1e-3, -1e-3))}, "nonnegative"),
            ({"k_max_values": (20, 0)}, "max_iters must be a positive integer, got 0"),
            ({"misest_max_iters": 2.5}, "max_iters must be a positive integer, got 2.5"),
            ({"eps_levels": ((1e-3, 1e-3), (math.inf, math.inf))}, "nonnegative and finite"),
            # BT11's eps_c = 3 * 1e308 overflows; HS7's only under the multiplier 10.
            ({"problems": ("BT11",), "eps_levels": ((1e308, 1e308),)},
             "estimated noise bounds must be nonnegative and finite"),
            ({"eps_levels": ((1e308, 1e308),)},
             "estimated noise bounds must be nonnegative and finite"),
        ],
        ids=["problem", "negative-seed", "float-seed", "bool-seed", "wide-seed", "nan-eps",
             "negative-eps2", "k-max", "misest-max-iters", "inf-eps", "overflowing-estimate",
             "overflowing-misestimate"],
    )
    def test_bad_grid_raises_before_any_run(self, grid, message, no_solve):
        base = {"problems": ("HS7",), "eps_levels": ((1e-3, 1e-3),), "seeds": (0, 1),
                "k_max_values": (20,), "misest_max_iters": 20}
        with pytest.raises(ValueError) as err:
            plan = ExperimentPlan(**{**base, **grid})
            run_relaxation_table(plan)
            run_misestimation_table(plan)
        assert message in str(err.value)

    @pytest.mark.parametrize(
        "grid,repeated",
        [
            ({"problems": ("HS7", "HS7")}, "problems"),
            ({"eps_levels": ((1e-3, 1e-3), (1e-3, 1e-3))}, "eps_levels"),
            ({"seeds": (0, np.int64(0))}, "seeds"),
            ({"k_max_values": (20, 20)}, "k_max_values"),
            ({"seeds": (1, 1), "k_max_values": (5, 5)}, "seeds, k_max_values"),
        ],
        ids=["problems", "eps-levels", "seeds", "k-max", "two-lists"],
    )
    def test_repeated_values_raise_before_any_run(self, grid, repeated, no_solve):
        base = {"problems": ("HS7",), "eps_levels": ((1e-3, 1e-3),), "seeds": (0, 1),
                "k_max_values": (20,), "misest_max_iters": 20}
        with pytest.raises(ValueError, match=f"plan lists must not repeat a value: {repeated}$"):
            ExperimentPlan(**{**base, **grid})

    def test_problems_stored_as_tuple(self):
        plan = ExperimentPlan(problems=["HS7"])
        assert plan.problems == ("HS7",)
        assert hash(plan) == hash(ExperimentPlan(problems=("HS7",)))

    def test_numpy_scalars_serialize_as_builtins(self):
        eps = np.float64(1e-3)
        plan = ExperimentPlan(problems=("HS7",), eps_levels=((eps, eps),), seeds=(np.int64(1),),
                              k_max_values=(np.int64(20),), misest_max_iters=np.int64(20))
        assert plan.seeds == (1,) and type(plan.seeds[0]) is int
        assert type(plan.k_max_values[0]) is int and type(plan.misest_max_iters) is int
        assert type(plan.eps_levels[0][0]) is float
        for rows in (run_relaxation_table(plan), run_misestimation_table(plan)):
            doc = json.loads(summaries_to_json(rows, "t"))
            assert {r["seed"] for r in doc["runs"]} == {1}
            assert {r["k_max"] for r in doc["runs"]} == {20}

    @pytest.mark.parametrize(
        "kwargs",
        [{"problems": ("HS7", "FOO")}, {"seeds": (0, -1)}, {"eps1": math.nan}, {"iters": 0},
         {"eps2": math.inf}],
        ids=["problem", "seed", "eps", "iters", "inf-eps"],
    )
    def test_bad_trace_grid_writes_no_file(self, kwargs, tmp_path, no_solve):
        out = tmp_path / "traces"
        with pytest.raises(ValueError):
            run_trace_experiment(out, **{"problems": ("HS7",), "iters": 5, **kwargs})
        assert not out.exists()


class TestGridProperties:
    def test_classical_accuracy_band_at_low_noise(self, experiment_grid):
        # where the classical search fails, the best distance reached sits
        # orders of magnitude above the noise level
        runs = experiment_grid["runs"]
        for name in ("HS7", "BT11", "HS40"):
            med = statistics.median(
                runs[(name, 1e-5, seed)].disabled_dists.min() for seed in SEEDS
            )
            assert 1e-4 <= med <= 1e-1, (name, med)

    def test_relaxed_runs_stay_bounded_at_high_noise(self, experiment_grid):
        runs = experiment_grid["runs"]
        for name in ("HS7", "BT11", "HS40"):
            worst = max(runs[(name, 1e-1, seed)].enabled_dists.min() for seed in SEEDS)
            assert worst <= 1.0, (name, worst)

    def test_quality_degrades_with_noise(self, experiment_grid):
        runs = experiment_grid["runs"]
        for name in ("HS7", "BT11", "HS40"):
            medians = {
                eps: statistics.median(
                    runs[(name, eps, seed)].enabled_dists.min() for seed in SEEDS
                )
                for eps in EPS_LEVELS
            }
            assert medians[1e-1] >= medians[1e-3] >= medians[1e-5], (name, medians)
