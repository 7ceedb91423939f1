"""Metrics, persistence baseline, and the run pipelines."""

import logging
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpforecast import (
    BudgetError,
    BudgetLedger,
    DpSgdConfig,
    MechanismValidityError,
    MobilitySeries,
    ModelConfig,
    ModelSpec,
    NonPrivateConfig,
    PrivacyParams,
    RngStream,
    TrainConfig,
    evaluate_forecast,
    fit_release,
    input_release,
    ledger_total,
    mae,
    persistence_forecast,
    rmse,
    run_baseline,
    run_gradient_perturbation,
    run_input_perturbation,
    run_nonprivate,
    split,
    utility_loss,
)
from dpforecast import forecast
from dpforecast.data import SLOTS_PER_DAY, MinMaxScaler, WindowedDataset, feature_matrix

from conftest import build_series
from test_data import constant_column_warnings


class TestMetrics:
    def test_perfect_prediction_scores_zero(self):
        y = np.arange(12.0).reshape(6, 2)
        report = evaluate_forecast(y, y, ("R1", "R2"))
        assert np.all(report.rmse == 0.0) and np.all(report.mae == 0.0)
        assert report.mean_rmse == report.mean_mae == 0.0

    def test_constant_offset(self):
        y = np.zeros((10, 3))
        report = evaluate_forecast(y, y + 5.0, ("a", "b", "c"))
        np.testing.assert_allclose(report.rmse, 5.0, atol=1e-12)
        np.testing.assert_allclose(report.mae, 5.0, atol=1e-12)
        assert report.std_rmse == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_single_region(self):
        y = np.array([[0.0], [0.0]])
        yhat = np.array([[3.0], [4.0]])
        assert rmse(y, yhat)[0] == pytest.approx(3.5355339059327378, rel=1e-12)
        assert mae(y, yhat)[0] == pytest.approx(3.5, rel=1e-12)

    def test_summary_recomputable_from_regions(self):
        gen = np.random.default_rng(0)
        y = gen.uniform(0, 100, (30, 4))
        yhat = y + gen.normal(0, 5, (30, 4))
        report = evaluate_forecast(y, yhat, tuple("abcd"))
        assert report.mean_rmse == pytest.approx(float(report.rmse.mean()), rel=1e-12)
        assert report.std_rmse == pytest.approx(float(report.rmse.std(ddof=1)), rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rmse(np.zeros((3, 2)), np.zeros((2, 3)))

    @settings(max_examples=30)
    @given(st.integers(0, 10_000))
    def test_rmse_dominates_mae(self, seed):
        gen = np.random.default_rng(seed)
        y = gen.uniform(0, 50, (20, 3))
        yhat = y + gen.normal(0, gen.uniform(0.1, 10), (20, 3))
        report = evaluate_forecast(y, yhat, ("x", "y", "z"))
        assert np.all(report.rmse >= report.mae - 1e-12)


class TestUtilityLoss:
    def test_reference_scale_examples(self):
        assert utility_loss(1221.2, 1214.3) == pytest.approx(0.57, abs=0.01)
        assert utility_loss(1248.4, 1214.3) == pytest.approx(2.81, abs=0.01)

    def test_equal_errors_no_loss(self):
        assert utility_loss(321.0, 321.0) == 0.0

    def test_nonpositive_reference_rejected(self):
        with pytest.raises(ValueError):
            utility_loss(1.0, 0.0)


class TestPersistence:
    def test_constant_series_is_perfect(self):
        test_counts = np.full((8, 2), 7.0)
        preds = persistence_forecast(test_counts, np.array([7.0, 7.0]))
        np.testing.assert_array_equal(preds, test_counts)

    def test_shift_by_one(self):
        test_counts = np.array([[1.0], [2.0], [3.0]])
        preds = persistence_forecast(test_counts, np.array([9.0]))
        np.testing.assert_array_equal(preds, [[9.0], [1.0], [2.0]])

    @pytest.mark.parametrize("test_counts", [np.zeros((0, 2)), np.zeros(3)],
                             ids=["no-slots", "flat"])
    def test_empty_or_flat_test_counts_are_refused(self, test_counts):
        with pytest.raises(ValueError) as err:
            persistence_forecast(test_counts, np.array([7.0, 7.0]))
        assert str(err.value) == "test counts must be a nonempty (n, regions) matrix"

    def test_deterministic_run(self, sine_series):
        a = run_baseline(sine_series, train_days=13, test_days=2)
        b = run_baseline(sine_series, train_days=13, test_days=2)
        assert a.metrics.mean_rmse == b.metrics.mean_rmse
        np.testing.assert_array_equal(a.predictions, b.predictions)


class TestPredictionsCsv:
    def test_text_is_repr_of_each_float(self, tmp_path):
        labels = ("R1", "R2")
        y_true = np.array([[3, 0], [7, 2**53 + 1]], dtype=np.int64)
        preds = np.array([[-0.0, 5e-324], [1e300, 0.1]])
        stamps = np.array(["2020-08-24T23:30:00", "2020-08-25T00:00:00"], dtype="datetime64[s]")
        artifact = forecast.RunArtifact(
            run_kind="baseline", region_labels=labels,
            metrics=evaluate_forecast(y_true, y_true, labels), predictions=preds,
            y_true=y_true, target_timestamps=stamps, seeds=(), best_seed=None,
        )
        artifact.write_predictions_csv(tmp_path / "predictions.csv")
        expected = "datetime,region,y_true,y_pred\r\n" + "".join(
            f"{stamp},{region},{float(y_true[i, j])!r},{float(preds[i, j])!r}\r\n"
            for i, stamp in enumerate(["2020-08-24 23:30:00", "2020-08-25 00:00:00"])
            for j, region in enumerate(labels)
        )
        assert (tmp_path / "predictions.csv").read_bytes() == expected.encode()


MODEL = ModelConfig(cell="gru", bidirectional=True, hidden_size=8, activation="relu")
SMOKE_TRAIN = TrainConfig(batch_size=32, learning_rate=5e-3, epochs=15)


class TestRunRecords:
    @pytest.mark.parametrize("record, rules, bad", [
        (ModelConfig, ModelSpec, {"cell": "rnn"}),
        (ModelConfig, ModelSpec, {"activation": "sigmoid"}),
        (ModelConfig, ModelSpec, {"hidden_size": 0}),
        (TrainConfig, NonPrivateConfig, {"batch_size": 0}),
        (TrainConfig, NonPrivateConfig, {"learning_rate": math.nan}),
        (TrainConfig, NonPrivateConfig, {"epochs": -1}),
    ], ids=["cell", "activation", "hidden_size", "batch_size", "nan-rate", "epochs"])
    def test_bad_value_raises_its_rule_at_construction(self, record, rules, bad):
        with pytest.raises(ValueError) as expected:
            rules(**asdict(record()) | bad)
        with pytest.raises(ValueError) as raised:
            record(**bad)
        assert str(raised.value) == str(expected.value)


class TestPrepare:
    def test_positional_true_scale_is_the_default(self, sine_series):
        # perfbench/workloads.py passes scale positionally; the call must change no byte.
        passed = forecast.prepare(sine_series, 6, 13, 2, True)
        default = forecast.prepare(sine_series, 6, 13, 2)
        for get in (lambda p: p.train_windows.inputs, lambda p: p.train_windows.targets,
                    lambda p: p.train_windows.target_timestamps, lambda p: p.test_inputs,
                    lambda p: p.raw_test_targets, lambda p: p.target_timestamps):
            a, b = get(passed), get(default)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert passed.scaler.to_dict() == default.scaler.to_dict()
        assert (passed.region_labels, passed.n_train_slots) == (
            default.region_labels, default.n_train_slots)

    @pytest.mark.parametrize("scale", [False, 1])
    def test_scale_other_than_true_is_refused(self, sine_series, scale):
        with pytest.raises(ValueError, match="scale must be True"):
            forecast.prepare(sine_series, 6, 13, 2, scale)

    @pytest.mark.parametrize("constant", [False, True], ids=["varying", "constant_region"])
    @pytest.mark.parametrize("n_regions", [1, 6])
    @pytest.mark.parametrize("lag", [1, 6])
    def test_matches_scaling_the_windows(self, caplog, lag, n_regions, constant):
        series = build_series(n_days=9, n_regions=n_regions, seed=3)
        if constant:
            counts = series.counts.copy()
            counts[:, -1] = 500.0
            series = MobilitySeries(series.timestamps, counts, series.region_labels)
        expected = _prepare_by_windows(series, lag, 7, 2)
        expected_warnings = constant_column_warnings(expected[-1])
        with caplog.at_level(logging.WARNING, logger="dpforecast"):
            prepared = forecast.prepare(series, lag, 7, 2)
        assert [r.getMessage() for r in caplog.records] == expected_warnings
        assert bool(expected_warnings) == constant
        got = (prepared.train_windows.inputs, prepared.train_windows.targets,
               prepared.train_windows.target_timestamps, prepared.test_inputs,
               prepared.raw_test_targets, prepared.target_timestamps)
        for a, b in zip(got, expected[:-1], strict=True):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            assert a.flags.c_contiguous and a.flags.owndata and a.base is None
        assert prepared.scaler.to_dict() == expected[-1]

    def test_test_windows_target_every_raw_test_count(self):
        series = build_series(n_days=72, n_regions=2, seed=0, noise=0.0)
        _, test = split(series)
        prepared = forecast.prepare(series)
        assert prepared.test_inputs.shape == (336, 6, 2 + 4)
        np.testing.assert_array_equal(prepared.raw_test_targets, test.counts)
        np.testing.assert_array_equal(prepared.target_timestamps, test.timestamps)


def _prepare_by_windows(series, lag, train_days, test_days):
    """``prepare``'s arrays and scaler bounds from slices of the feature rows, in numpy.

    Windows are stacked slices of the train and test days' feature rows,
    the bounds are the min and max over the training windows, and the
    windows are then scaled with them.
    """
    n_train, n_test = train_days * SLOTS_PER_DAY, test_days * SLOTS_PER_DAY
    days = slice(series.n_slots - n_train - n_test, None)
    rows = feature_matrix(MobilitySeries(series.timestamps[days], series.counts[days],
                                         series.region_labels))
    counts, stamps = series.counts[days], series.timestamps[days]
    train_x = np.stack([rows[i:i + lag] for i in range(n_train - lag)])
    test_x = np.stack([rows[i:i + lag] for i in range(n_train - lag, n_train + n_test - lag)])
    train_y = counts[lag:n_train]
    x_lo, x_hi = (f(train_x.reshape(-1, rows.shape[1]), axis=0) for f in (np.min, np.max))
    y_lo, y_hi = np.min(train_y, axis=0), np.max(train_y, axis=0)

    def scaled(x, lo, hi):
        span = hi - lo
        return np.where(span == 0, 0.0, (x - lo) / np.where(span == 0, 1.0, span))

    bounds = {"input_min": x_lo.tolist(), "input_max": x_hi.tolist(),
              "target_min": y_lo.tolist(), "target_max": y_hi.tolist()}
    return (scaled(train_x, x_lo, x_hi), scaled(train_y, y_lo, y_hi), stamps[lag:n_train],
            scaled(test_x, x_lo, x_hi), np.array(counts[n_train:]), stamps[n_train:], bounds)


class TestRecurrentForecaster:
    def test_fit_predict_shapes_and_determinism(self):
        gen = np.random.default_rng(0)
        X = gen.uniform(0, 1, (40, 4, 3))
        y = gen.uniform(0, 1, (40, 2))
        windows = WindowedDataset(X, y, target_timestamps=np.arange(40))
        scaler = MinMaxScaler().fit(build_series(n_days=1, n_regions=2, seed=0), lag=4)
        prepared = forecast.Prepared(
            train_windows=windows, test_inputs=X, raw_test_targets=y,
            target_timestamps=np.arange(40), scaler=scaler,
            region_labels=("r0", "r1"), n_train_slots=40,
        )
        model = ModelConfig(cell="gru", bidirectional=True, hidden_size=4, activation="relu")
        cfg = TrainConfig(batch_size=8, learning_rate=1e-3, epochs=2)
        a = forecast._fit_one_seed((prepared, model, cfg, 1))
        b = forecast._fit_one_seed((prepared, model, cfg, 1))
        assert a.predictions.shape == (40, 2)
        np.testing.assert_array_equal(a.predictions, b.predictions)


class TestRunNonprivate:
    def test_beats_persistence_on_sine_series(self, sine_series):
        baseline = run_baseline(sine_series, train_days=13, test_days=2)
        run = run_nonprivate(
            sine_series, MODEL, SMOKE_TRAIN, seeds=[0, 1],
            train_days=13, test_days=2,
        )
        assert run.metrics.mean_rmse < baseline.metrics.mean_rmse

    def test_same_seeds_reproduce_artifact(self, sine_series):
        cfg = TrainConfig(batch_size=32, learning_rate=5e-3, epochs=3)
        a = run_nonprivate(sine_series, MODEL, cfg, [3, 4], train_days=13, test_days=2)
        b = run_nonprivate(sine_series, MODEL, cfg, [3, 4], train_days=13, test_days=2)
        assert a.best_seed == b.best_seed
        assert a.metrics.mean_rmse == b.metrics.mean_rmse
        np.testing.assert_array_equal(a.predictions, b.predictions)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_process_pool_matches_serial(self, sine_series):
        cfg = TrainConfig(batch_size=32, learning_rate=5e-3, epochs=2)
        serial = run_nonprivate(sine_series, MODEL, cfg, [3, 4], train_days=13, test_days=2)
        pooled = run_nonprivate(
            sine_series, MODEL, cfg, [3, 4], train_days=13, test_days=2, jobs=2
        )
        assert pooled.best_seed == serial.best_seed
        np.testing.assert_array_equal(pooled.predictions, serial.predictions)
        for a, b in zip(pooled.per_seed, serial.per_seed):
            assert a.seed == b.seed
            np.testing.assert_array_equal(a.metrics.rmse, b.metrics.rmse)
            np.testing.assert_array_equal(a.metrics.mae, b.metrics.mae)
        assert pooled.params.keys() == serial.params.keys()
        for name in serial.params:
            assert pooled.params[name].tobytes() == serial.params[name].tobytes()

    def test_rejects_nonfinite_inputs(self, sine_series, monkeypatch):
        counts = sine_series.counts.copy()
        counts[-10 * 48, 1] = np.nan  # within the 13 training days
        series = MobilitySeries(sine_series.timestamps, counts, sine_series.region_labels)
        trained = []
        monkeypatch.setattr(forecast, "train", lambda *args: trained.append(args))
        with pytest.raises(ValueError, match="NaN"):
            run_nonprivate(series, MODEL, SMOKE_TRAIN, [0, 1], train_days=13, test_days=2)
        assert trained == []

    def test_keeps_best_seed_by_mean_rmse(self, sine_series):
        cfg = TrainConfig(batch_size=32, learning_rate=5e-3, epochs=3)
        run = run_nonprivate(sine_series, MODEL, cfg, [0, 1, 2], train_days=13, test_days=2)
        best = min(r.metrics.mean_rmse for r in run.per_seed)
        assert run.metrics.mean_rmse == best
        assert len(run.per_seed) == 3


class TestRunGradientPerturbation:
    def test_smoke_run_attaches_consistent_accountant(self, sine_series):
        dp_cfg = DpSgdConfig(
            l2_norm_clip=1.0, noise_multiplier=2.0, num_microbatches=4,
            batch_size=4, epochs=2, learning_rate=5e-3,
        )
        run = run_gradient_perturbation(
            sine_series, MODEL, dp_cfg, delta=1e-7, seeds=[0],
            train_days=13, test_days=2,
        )
        n_train = 13 * 48
        assert run.privacy["n_basis"] == n_train
        assert run.privacy["q"] == pytest.approx(4 / n_train)
        assert run.privacy["steps"] == run.train_log.step_count
        assert run.privacy["epsilon_total"] == pytest.approx(
            n_train * run.privacy["epsilon"], rel=1e-9
        )

    def test_process_pool_matches_serial(self, sine_series):
        # Each pool worker runs train's noise thread inside a forked process.
        dp_cfg = DpSgdConfig(
            l2_norm_clip=1.0, noise_multiplier=2.0, num_microbatches=4,
            batch_size=8, epochs=1, learning_rate=5e-3,
        )
        args = (sine_series, MODEL, dp_cfg, 1e-7, [3, 4])
        serial = run_gradient_perturbation(*args, train_days=13, test_days=2)
        pooled = run_gradient_perturbation(*args, train_days=13, test_days=2, jobs=2)
        assert pooled.best_seed == serial.best_seed
        np.testing.assert_array_equal(pooled.predictions, serial.predictions)
        for a, b in zip(pooled.per_seed, serial.per_seed):
            assert a.seed == b.seed
            np.testing.assert_array_equal(a.metrics.rmse, b.metrics.rmse)
        assert pooled.params.keys() == serial.params.keys()
        for name in serial.params:
            assert pooled.params[name].tobytes() == serial.params[name].tobytes()

    def test_zero_noise_refused(self, sine_series):
        dp_cfg = DpSgdConfig(
            l2_norm_clip=1.0, noise_multiplier=0.0, num_microbatches=4,
            batch_size=4, epochs=1, learning_rate=1e-3,
        )
        with pytest.raises(MechanismValidityError):
            run_gradient_perturbation(
                sine_series, MODEL, dp_cfg, delta=1e-7, seeds=[0],
                train_days=13, test_days=2,
            )

    @pytest.mark.parametrize("sigma", [0.0, 1e-170])
    def test_refused_noise_multiplier_trains_no_seed(self, sine_series, monkeypatch, sigma):
        trained = []
        monkeypatch.setattr(forecast, "train", lambda *args: trained.append(args))
        dp_cfg = DpSgdConfig(
            l2_norm_clip=1.0, noise_multiplier=sigma, num_microbatches=4,
            batch_size=4, epochs=1, learning_rate=1e-3,
        )
        with pytest.raises(MechanismValidityError, match="noise_multiplier"):
            run_gradient_perturbation(
                sine_series, MODEL, dp_cfg, delta=1e-7, seeds=[0, 1, 2],
                train_days=13, test_days=2,
            )
        assert trained == []

    def test_oversized_delta_refused_with_bound(self, sine_series):
        dp_cfg = DpSgdConfig(
            l2_norm_clip=1.0, noise_multiplier=2.0, num_microbatches=4,
            batch_size=4, epochs=1, learning_rate=1e-3,
        )
        n_train = 13 * 48
        with pytest.raises(BudgetError, match=f"{1.0 / n_train**2:.3e}"):
            run_gradient_perturbation(
                sine_series, MODEL, dp_cfg, delta=1e-4, seeds=[0],
                train_days=13, test_days=2,
            )

    def test_zero_delta_refused_by_the_budget_check(self, sine_series):
        dp_cfg = DpSgdConfig(
            l2_norm_clip=1.0, noise_multiplier=2.0, num_microbatches=4,
            batch_size=4, epochs=1, learning_rate=1e-3,
        )
        with pytest.raises(BudgetError, match="need 0 < delta"):
            run_gradient_perturbation(
                sine_series, MODEL, dp_cfg, delta=0.0, seeds=[0],
                train_days=13, test_days=2,
            )


class PoisonableArray(np.ndarray):
    """ndarray that raises once poisoned; detects raw reads after release."""

    poisoned = False

    def _guard(self):
        if PoisonableArray.poisoned:
            raise AssertionError("raw training data accessed after release")

    def __getitem__(self, item):
        self._guard()
        return super().__getitem__(item)

    @staticmethod
    def _plain(arg):
        """``arg`` with every PoisonableArray in it, also inside a list or tuple, as ndarray."""
        if isinstance(arg, PoisonableArray):
            return np.asarray(arg)
        if isinstance(arg, (list, tuple)):
            return type(arg)(PoisonableArray._plain(a) for a in arg)
        return arg

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self._guard()
        return getattr(ufunc, method)(*self._plain(inputs), **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        self._guard()
        return func(*self._plain(args), **kwargs)


PRIVACY = PrivacyParams(epsilon=0.5, delta=1e-6, l2_sensitivity=1.0)
SMOKE_IP_TRAIN = TrainConfig(batch_size=32, learning_rate=5e-3, epochs=3)


class TestRunInputPerturbation:
    def test_trains_on_sanitized_but_scores_raw(self, sine_series):
        run = run_input_perturbation(
            sine_series, MODEL, SMOKE_IP_TRAIN, PRIVACY, seeds=[0],
            train_days=13, test_days=2,
        )
        _, raw_test = split(sine_series, 13, 2)
        np.testing.assert_array_equal(run.y_true, raw_test.counts)
        assert run.privacy["sigma"] > 0

    def test_ledger_totals_scale_with_training_slots(self, sine_series):
        run = run_input_perturbation(
            sine_series, MODEL, SMOKE_IP_TRAIN, PRIVACY, seeds=[0],
            train_days=13, test_days=2,
        )
        n_train = 13 * 48
        assert run.privacy["n_releases"] == n_train
        assert run.privacy["epsilon_total"] == pytest.approx(
            n_train * PRIVACY.epsilon, rel=1e-12
        )

    @settings(max_examples=200, deadline=None)
    @given(epsilon=st.floats(0, 1e6), delta=st.floats(0, 1), n_basis=st.integers(1, 5000))
    def test_privacy_totals_are_the_ledger_totals(self, epsilon, delta, n_basis):
        # the product is the correctly rounded sum of n_basis equal terms, as fsum's
        block = forecast._privacy_block("laplace", epsilon, delta, n_basis)
        ledger = BudgetLedger.uniform(epsilon, delta, count=n_basis, n_population=n_basis)
        assert (block["epsilon_total"], block["delta_total"]) == ledger_total(ledger)

    def test_privacy_record_independent_of_model(self, sine_series):
        small = ModelConfig("gru", True, 4, "relu")
        big = ModelConfig("lstm", False, 12, "tanh")
        run_a = run_input_perturbation(
            sine_series, small, SMOKE_IP_TRAIN, PRIVACY, [0],
            train_days=13, test_days=2,
        )
        run_b = run_input_perturbation(
            sine_series, big, TrainConfig(16, 1e-3, 1), PRIVACY, [5],
            train_days=13, test_days=2,
        )
        assert run_a.privacy == run_b.privacy

    def test_invalid_epsilon_refused(self, sine_series):
        with pytest.raises(MechanismValidityError):
            run_input_perturbation(
                sine_series, MODEL, SMOKE_IP_TRAIN,
                PrivacyParams(1.5, 1e-6), seeds=[0], train_days=13, test_days=2,
            )

    def test_never_reads_raw_data_after_release(self, sine_series):
        counts = np.array(sine_series.counts).view(PoisonableArray)
        PoisonableArray.poisoned = False
        tracked = MobilitySeries(
            sine_series.timestamps, counts, sine_series.region_labels
        )
        release = input_release(tracked, PRIVACY, RngStream(1), 13, 2)
        assert not isinstance(release.sanitized.counts, PoisonableArray)
        assert not isinstance(release.raw_test_counts, PoisonableArray)
        PoisonableArray.poisoned = True
        try:
            artifact = fit_release(
                release, MODEL, TrainConfig(32, 5e-3, 2), [0],
                train_days=13, test_days=2,
            )
        finally:
            PoisonableArray.poisoned = False
        assert np.isfinite(artifact.metrics.mean_rmse)

    def test_fit_release_reports_the_privacy_of_its_release(self, sine_series):
        run = run_input_perturbation(
            sine_series, MODEL, SMOKE_IP_TRAIN, PRIVACY, [3], train_days=13, test_days=2,
        )
        release = input_release(sine_series, PRIVACY, forecast.release_stream(3), 13, 2)
        artifact = fit_release(release, MODEL, SMOKE_IP_TRAIN, [3], train_days=13, test_days=2)
        assert artifact.privacy == run.privacy
        assert artifact.privacy["mechanism"] == "gaussian-input"
        assert artifact.privacy["sigma"] == release.sanitized.privacy.sigma
        assert artifact.config["privacy"] == run.config["privacy"] == {
            "epsilon": 0.5, "delta": 1e-6, "sensitivity": 1.0}

    def test_refuses_an_unsanitized_series_before_training(self, sine_series, monkeypatch):
        _, raw_test = split(sine_series, 13, 2)
        release = forecast.InputRelease(sine_series, np.array(raw_test.counts), 13 * 48)

        def no_training(*args, **kwargs):
            raise AssertionError("trained on an unsanitized series")

        monkeypatch.setattr(forecast, "train", no_training)
        with pytest.raises(ValueError, match="no PrivacyRecord"):
            fit_release(release, MODEL, TrainConfig(32, 5e-3, 2), [0],
                        train_days=13, test_days=2)

    def test_refuses_a_delta_over_budget_before_training(self, sine_series, monkeypatch):
        # 624 releases of delta = 0.01 total 6.24, far over 1/624.
        release = input_release(sine_series, PrivacyParams(0.5, 0.01, 1.0), RngStream(1), 13, 2)

        def no_training(*args, **kwargs):
            raise AssertionError("trained on a release over its delta budget")

        monkeypatch.setattr(forecast, "train", no_training)
        with pytest.raises(BudgetError, match="over 624 samples; need 0 < delta < 2.568e-06"):
            fit_release(release, MODEL, TrainConfig(32, 5e-3, 2), [0],
                        train_days=13, test_days=2)

    @pytest.mark.parametrize("train_days, test_days", [(13, 1), (12, 2), (11, 3)])
    def test_refuses_another_split_before_training(self, sine_series, monkeypatch,
                                                   train_days, test_days):
        release = input_release(sine_series, PRIVACY, RngStream(1), 13, 2)

        def no_training(*args, **kwargs):
            raise AssertionError("trained on a mismatched split")

        monkeypatch.setattr(forecast, "train", no_training)
        with pytest.raises(ValueError, match="the release holds 624 training and 96 test"):
            fit_release(release, MODEL, TrainConfig(32, 5e-3, 2), [0],
                        train_days=train_days, test_days=test_days)


class TestPublishedShapeRehearsal:
    """The dataset-gated acceptance paths, exercised at full data shape."""

    def test_pipeline_handles_72_day_6_region_series(self):
        series = build_series(n_days=72, n_regions=6, seed=10, noise=30.0, base=5000.0)
        from dpforecast import descriptive_stats, iqr_clean

        cleaned = iqr_clean(series)
        train_s, test_s = split(cleaned)
        assert train_s.n_slots == 3120 and test_s.n_slots == 336
        stats = descriptive_stats(cleaned)
        assert stats["mean"].shape == (6,)
        baseline = run_baseline(cleaned)
        run = run_nonprivate(
            cleaned, ModelConfig("gru", True, 16, "relu"),
            TrainConfig(batch_size=32, learning_rate=5e-3, epochs=2), seeds=[0],
        )
        assert run.metrics.mean_rmse < baseline.metrics.mean_rmse
        assert run.predictions.shape == (336, 6)


class TestCausality:
    def test_prediction_depends_only_on_past_slots(self, sine_series):
        run = run_nonprivate(
            sine_series, MODEL, TrainConfig(32, 5e-3, 2), [0],
            train_days=13, test_days=2,
        )
        k = 10
        perturbed_counts = np.array(sine_series.counts)
        test_start = sine_series.n_slots - 2 * 48
        perturbed_counts[test_start + k:, :] += 1_000.0
        perturbed = MobilitySeries(
            sine_series.timestamps, perturbed_counts, sine_series.region_labels
        )
        run_p = run_nonprivate(
            perturbed, MODEL, TrainConfig(32, 5e-3, 2), [0],
            train_days=13, test_days=2,
        )
        np.testing.assert_allclose(
            run.predictions[:k - 6], run_p.predictions[:k - 6], atol=1e-9
        )


SMOKE_DP = DpSgdConfig(
    l2_norm_clip=1.0, noise_multiplier=2.0, num_microbatches=4,
    batch_size=4, epochs=1, learning_rate=1e-3,
)


@pytest.mark.parametrize("run, args", [
    (run_nonprivate, (MODEL, SMOKE_TRAIN)),
    (run_gradient_perturbation, (MODEL, SMOKE_DP, 1e-7)),
    (run_input_perturbation, (MODEL, SMOKE_IP_TRAIN, PRIVACY)),
], ids=["nonprivate", "gradient", "input"])
def test_empty_seed_list_rejected_before_reading_the_series(run, args):
    # No series at all: any data work before the check would fail otherwise.
    with pytest.raises(ValueError, match="seeds must be nonempty"):
        run(None, *args, seeds=[])
