"""Tests for the experiment harness: traces, tables, serialization."""

import csv
import json
import statistics

import numpy as np
import pytest

from noisy_sqp import (
    ExperimentPlan,
    render_misestimation_table,
    render_relaxation_table,
    run_misestimation_table,
    run_relaxation_table,
    run_trace_experiment,
    summaries_to_json,
)
from noisy_sqp.harness import _TERMINATION_KIND, MISESTIMATION_MULTIPLIERS
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
            "status", "failure_iter", "min_dist", "min_dist_iter", "iters_run",
            "termination_kind",
        }

    def test_renderer_mentions_key_cells(self, small_table):
        text = render_relaxation_table(small_table)
        assert "HS7" in text
        assert "k_max=100" in text and "k_max=300" in text
        assert "failure iter" in text


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


class TestPlanValidation:
    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError):
            ExperimentPlan(problems=())

    def test_bad_multipliers_rejected(self):
        with pytest.raises(ValueError):
            ExperimentPlan(est_multipliers=(0.0,))


class TestGridProperties:
    def test_classical_accuracy_band_at_low_noise(self, experiment_grid):
        # where the classical search fails, the best distance reached sits
        # orders of magnitude above the noise level
        runs = experiment_grid["runs"]
        for name in ("HS7", "BT11", "HS40"):
            med = statistics.median(
                runs[(name, 1e-5, seed)].disabled_dists.min() for seed in range(10)
            )
            assert 1e-4 <= med <= 1e-1, (name, med)

    def test_relaxed_runs_stay_bounded_at_high_noise(self, experiment_grid):
        runs = experiment_grid["runs"]
        for name in ("HS7", "BT11", "HS40"):
            worst = max(runs[(name, 1e-1, seed)].enabled_dists.min() for seed in range(10))
            assert worst <= 1.0, (name, worst)

    def test_quality_degrades_with_noise(self, experiment_grid):
        runs = experiment_grid["runs"]
        for name in ("HS7", "BT11", "HS40"):
            medians = {
                eps: statistics.median(
                    runs[(name, eps, seed)].enabled_dists.min() for seed in range(10)
                )
                for eps in (1e-5, 1e-3, 1e-1)
            }
            assert medians[1e-1] >= medians[1e-3] >= medians[1e-5], (name, medians)
