"""Search objectives and the seeded random / tpe-lite strategies."""

import hashlib
import json
import math

import numpy as np
import pytest

from dpforecast import (
    MetricsReport,
    RngStream,
    SearchFailed,
    SearchSpace,
    objective_nonprivate,
    objective_private,
    run_search,
)
from dpforecast.tune import write_trials_csv


def report_from_rmse(values):
    values = np.asarray(values, dtype=np.float64)
    return MetricsReport(
        region_labels=tuple(f"R{i}" for i in range(len(values))),
        rmse=values,
        mae=values * 0.7,
        mean_rmse=float(values.mean()),
        mean_mae=float(values.mean() * 0.7),
        std_rmse=float(values.std(ddof=1)) if len(values) > 1 else 0.0,
    )


class TestObjectives:
    def test_equal_regions_reduce_to_common_value(self):
        assert objective_nonprivate(report_from_rmse([4.0, 4.0, 4.0])) == 4.0

    def test_hand_computed_two_regions(self):
        assert objective_nonprivate(report_from_rmse([1.0, 3.0])) == pytest.approx(
            3.414213562373095, rel=1e-12
        )

    def test_homogeneous_scaling(self):
        base = objective_nonprivate(report_from_rmse([1.0, 3.0]))
        scaled = objective_nonprivate(report_from_rmse([5.0, 15.0]))
        assert scaled == pytest.approx(5.0 * base, rel=1e-12)

    def test_single_region_rejected(self):
        with pytest.raises(ValueError):
            objective_nonprivate(report_from_rmse([2.0]))

    def test_private_multiplier(self):
        report = report_from_rmse([1.0, 3.0])
        assert objective_private(report, 0.0650) == pytest.approx(
            objective_nonprivate(report) * math.exp(0.0650), rel=1e-12
        )

    def test_private_approaches_nonprivate_for_tiny_epsilon(self):
        report = report_from_rmse([2.0, 4.0])
        assert objective_private(report, 1e-12) == pytest.approx(
            objective_nonprivate(report), rel=1e-9
        )

    def test_private_monotone_in_epsilon(self):
        report = report_from_rmse([2.0, 4.0])
        assert objective_private(report, 0.2) > objective_private(report, 0.1)

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ValueError):
            objective_private(report_from_rmse([1.0, 2.0]), 0.0)


def quadratic_pipeline(config, seed):
    """Synthetic objective minimized at h1=200, flat in other axes."""
    value = 100.0 + ((config["h1"] - 200) / 25.0) ** 2
    return report_from_rmse([value, value]), None


class TestRunSearch:
    def test_budget_one_returns_single_trial(self):
        result = run_search(SearchSpace(), quadratic_pipeline, budget=1, rng=RngStream(0))
        assert len(result.trials) == 1
        assert result.best is result.trials[0]

    @pytest.mark.parametrize("budget, strategy, message", [
        (0, "random", "budget must be >= 1"),
        (-2, "tpe-lite", "budget must be >= 1"),
        (3, "grid", "unknown strategy 'grid'"),
    ], ids=["zero-budget", "negative-budget", "strategy"])
    def test_bad_budget_or_strategy_is_refused(self, budget, strategy, message):
        calls = []

        def pipeline(config, seed):
            calls.append(seed)
            return quadratic_pipeline(config, seed)

        with pytest.raises(ValueError) as err:
            run_search(SearchSpace(), pipeline, budget, strategy, RngStream(0))
        assert str(err.value) == message
        assert calls == []

    def test_random_search_finds_near_optimum(self):
        result = run_search(
            SearchSpace(), quadratic_pipeline, budget=100, rng=RngStream(1)
        )
        assert result.best.objective <= 1.1 * 100.0

    def test_tpe_lite_not_worse_than_its_random_phase(self):
        result = run_search(
            SearchSpace(), quadratic_pipeline, budget=60, strategy="tpe-lite",
            rng=RngStream(2),
        )
        random_phase_best = min(t.objective for t in result.trials[:20])
        assert result.best.objective <= random_phase_best

    def test_sampled_configs_respect_grids(self):
        space = SearchSpace(clip_choices=(1.0, 1.5, 2.0, 2.5), noise_multiplier=70.0)
        result = run_search(
            space, lambda c, s: (report_from_rmse([1.0, 2.0]), 0.05),
            budget=50, strategy="tpe-lite", rng=RngStream(3),
        )
        for trial in result.trials:
            assert trial.config["h1"] % 25 == 0 and 25 <= trial.config["h1"] <= 500
            assert trial.config["batch_size"] % 5 == 0
            assert 5 <= trial.config["batch_size"] <= 40
            assert 1e-5 <= trial.config["learning_rate"] <= 3e-3
            assert trial.config["l2_norm_clip"] in (1.0, 1.5, 2.0, 2.5)
            assert trial.config["noise_multiplier"] == 70.0

    def test_reproducible_trial_sequence(self):
        a = run_search(SearchSpace(), quadratic_pipeline, budget=20, rng=RngStream(5))
        b = run_search(SearchSpace(), quadratic_pipeline, budget=20, rng=RngStream(5))
        assert [t.config for t in a.trials] == [t.config for t in b.trials]
        assert [t.seed for t in a.trials] == [t.seed for t in b.trials]

    def test_tpe_lite_trial_sequence_is_pinned(self):
        # Budget 30 runs past the random phase into neighbour sampling; the
        # digest pins the order in which every axis reads the generator.
        space = SearchSpace(clip_choices=(1.0, 1.5, 2.0, 2.5), noise_multiplier=70.0)
        result = run_search(space, quadratic_pipeline, budget=30, strategy="tpe-lite",
                            rng=RngStream(3))
        text = json.dumps([[t.config, t.seed] for t in result.trials], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "5161491ec812c5e445e7ab4c6bcc253046b63e6a3e079263473a3c4d94e89f36")

    def test_best_dominates_all_trials(self):
        result = run_search(SearchSpace(), quadratic_pipeline, budget=40, rng=RngStream(6))
        assert all(result.best.objective <= t.objective for t in result.trials)

    def test_private_trials_own_their_epsilon(self):
        def pipeline(config, seed):
            eps = 0.001 * config["batch_size"]  # batch-dependent budget
            return report_from_rmse([1.0, 2.0]), eps

        result = run_search(SearchSpace(), pipeline, budget=30, rng=RngStream(7))
        for trial in result.trials:
            assert trial.epsilon == pytest.approx(0.001 * trial.config["batch_size"])
            expected = objective_private(trial.metrics, trial.epsilon)
            assert trial.objective == pytest.approx(expected, rel=1e-9)

    def test_objective_recomputable_from_stored_values(self):
        result = run_search(SearchSpace(), quadratic_pipeline, budget=10, rng=RngStream(8))
        for trial in result.trials:
            assert trial.objective == pytest.approx(
                objective_nonprivate(trial.metrics), rel=1e-9
            )

    def test_all_failures_raise_search_failed(self):
        def broken(config, seed):
            raise RuntimeError("boom")

        with pytest.raises(SearchFailed) as err:
            run_search(SearchSpace(), broken, budget=3, rng=RngStream(9))
        assert len(err.value.errors) == 3

    def test_search_failed_names_the_first_trial_error(self):
        failures = iter([ValueError("first cause"), KeyError("later")])

        def broken(config, seed):
            raise next(failures)

        with pytest.raises(SearchFailed) as err:
            run_search(SearchSpace(), broken, budget=2, rng=RngStream(9))
        assert str(err.value) == "all 2 trials failed, first ValueError: first cause"

    def test_partial_failures_are_skipped(self):
        calls = {"n": 0}

        def flaky(config, seed):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                raise RuntimeError("boom")
            return report_from_rmse([1.0, 2.0]), None

        result = run_search(SearchSpace(), flaky, budget=10, rng=RngStream(10))
        assert len(result.trials) == 5

    def test_trials_csv_columns(self, tmp_path):
        result = run_search(SearchSpace(), quadratic_pipeline, budget=3, rng=RngStream(11))
        path = tmp_path / "trials.csv"
        write_trials_csv(result, path)
        header = path.read_text().splitlines()[0]
        assert header == ("trial_id,h1,batch,learning_rate,clip,noise_multiplier,"
                          "epsilon,objective,mean_rmse,mean_mae")
