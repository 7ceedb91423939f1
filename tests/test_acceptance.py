"""Acceptance gate: one test per criterion, each printing a PASS line.

Criteria 3-6 exercise the published mobility dataset and skip with an
explanatory message when it is not present (place it at data/mobility.csv
or point DPFORECAST_DATASET at it). The full-scale training criteria
additionally require DPFORECAST_FULL_ACCEPTANCE=1 since they train
100-epoch models; the reduced smoke variant runs by default.
"""

import math
import os
import time

import mpmath as mp
import numpy as np
import pytest

from dpforecast import (
    DEFAULT_ORDERS,
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
    backward_batch,
    compute_epsilon,
    delta_budget_check,
    descriptive_stats,
    finite_diff_grad,
    fit_release,
    forward_batch,
    gaussian_sigma,
    init_params,
    input_release,
    iqr_clean,
    ledger_total,
    load_csv,
    run_baseline,
    run_gradient_perturbation,
    run_input_perturbation,
    run_nonprivate,
    sanitize_series,
    train,
)

from conftest import SLOT, START, require_dataset
from reference import network_forward

FULL = os.environ.get("DPFORECAST_FULL_ACCEPTANCE") == "1"


def ok(criterion, detail):
    print(f"[ACCEPTANCE] criterion {criterion}: PASS — {detail}")


# Golden accountant configurations for the reference deployment:
# (batch, noise multiplier, expected per-sample epsilon, expected total, decimals)
GOLDEN = [
    (5, 35.0, 0.0650, "202.8", 1),
    (5, 70.0, 0.0399, "124.488", 3),
    (10, 140.0, 0.0357, "111.384", 3),
    (5, 500.0, 0.0317, "98.904", 3),
]


def test_criterion_1_accountant_golden_values():
    n, delta, epochs = 3120, 1e-7, 100
    start = time.monotonic()
    observed = []
    for batch, sigma, expected, _, _ in GOLDEN:
        steps = epochs * (n // batch)
        eps, order = compute_epsilon(batch / n, sigma, steps, delta, DEFAULT_ORDERS)
        assert abs(eps - expected) / expected < 0.02, (batch, sigma, eps)
        observed.append((sigma, round(eps, 4), order))
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"accountant took {elapsed:.2f}s"
    ok(1, f"epsilons {observed} within 2% in {elapsed * 1000:.0f} ms")


def test_criterion_2_sequential_composition_totals():
    for _, _, eps, total_str, decimals in GOLDEN:
        ledger = BudgetLedger.uniform(eps, 1e-7, count=3120, n_population=3120)
        total_eps, _ = ledger_total(ledger)
        assert f"{total_eps:.{decimals}f}" == total_str
    ok(2, "ledger totals 202.8 / 124.488 / 111.384 / 98.904 reproduced exactly")


def published_cleaned():
    path = require_dataset()
    return iqr_clean(load_csv(path))


def test_criterion_3_persistence_baseline_reproduction():
    series = published_cleaned()
    artifact = run_baseline(series)
    assert abs(artifact.metrics.mean_rmse - 1503.6) / 1503.6 < 0.05
    assert abs(artifact.metrics.mean_mae - 1107.1) / 1107.1 < 0.05
    ok(3, f"baseline mean RMSE {artifact.metrics.mean_rmse:.1f}, "
          f"mean MAE {artifact.metrics.mean_mae:.1f}")


REFERENCE_MEAN = [116_777, 14_307, 16_274, 11_758, 4_166, 11_559]
REFERENCE_MEDIAN = [121_488, 14_808, 16_661, 12_134, 4_495, 12_542]


def test_criterion_4_dataset_statistics():
    series = published_cleaned()
    stats = descriptive_stats(series)
    for observed, expected in zip(stats["mean"], REFERENCE_MEAN):
        assert abs(observed - expected) / expected < 0.02
    for observed, expected in zip(stats["median"], REFERENCE_MEDIAN):
        assert abs(observed - expected) / expected < 0.02
    ok(4, "per-region mean and median within 2% of the reference table")


BIGRU = ModelConfig(cell="gru", bidirectional=True, hidden_size=175, activation="relu")


def nonprivate_reference(series):
    if FULL:
        cfg = TrainConfig(batch_size=5, learning_rate=2.89e-4, epochs=100)
        seeds = list(range(10))
    else:
        cfg = TrainConfig(batch_size=5, learning_rate=2.89e-4, epochs=10)
        seeds = [0, 1]
    return run_nonprivate(series, BIGRU, cfg, seeds), cfg, seeds


def test_criterion_5_nonprivate_forecasting_beats_baseline():
    series = published_cleaned()
    baseline = run_baseline(series)
    artifact, cfg, seeds = nonprivate_reference(series)
    assert artifact.metrics.mean_rmse < baseline.metrics.mean_rmse
    if FULL:
        assert artifact.metrics.mean_rmse <= 1400.0
    variant = "full (100 epochs, 10 seeds)" if FULL else "smoke (10 epochs, 2 seeds)"
    ok(5, f"{variant}: mean RMSE {artifact.metrics.mean_rmse:.1f} "
          f"< baseline {baseline.metrics.mean_rmse:.1f}")


@pytest.mark.skipif(
    not FULL, reason="full DP training run; set DPFORECAST_FULL_ACCEPTANCE=1"
)
def test_criterion_6_dp_utility_within_ten_percent():
    series = published_cleaned()
    baseline = run_baseline(series)
    reference, _, _ = nonprivate_reference(series)

    gp_cfg = DpSgdConfig(
        l2_norm_clip=2.0, noise_multiplier=70.0, num_microbatches=5,
        batch_size=5, epochs=100, learning_rate=4.55e-4,
    )
    gp = run_gradient_perturbation(series, ModelConfig("gru", True, 425, "relu"),
                                   gp_cfg, 1e-7, list(range(10)))
    ip = run_input_perturbation(
        series, ModelConfig("gru", True, 275, "relu"),
        TrainConfig(batch_size=5, learning_rate=1.182e-3, epochs=100),
        PrivacyParams(epsilon=0.0399, delta=1e-7), list(range(10)),
    )
    for run in (gp, ip):
        rel = abs(run.metrics.mean_rmse - reference.metrics.mean_rmse)
        assert rel / reference.metrics.mean_rmse < 0.10
        assert run.metrics.mean_rmse < baseline.metrics.mean_rmse
    ok(6, f"GP {gp.metrics.mean_rmse:.1f} and IP {ip.metrics.mean_rmse:.1f} within "
          f"10% of non-private {reference.metrics.mean_rmse:.1f}")


def _kink_free(spec, params, X, y, margin=1e-3):
    """True when no relu or MAE kink sits within ``margin`` of the pass.

    Cell states that are exactly zero are pinned zeros (a relu-killed
    candidate with zero history stays identically zero under the finite-
    difference perturbation), so only near-zero-but-moving values are
    rejected.
    """
    pred, tape = forward_batch(spec, params, X)
    if np.min(np.abs(pred - y)) <= margin:
        return False
    if spec.activation == "relu":
        k = spec.hidden_size
        # The LSTM's tape keeps no states before its last: take them from the reference.
        states = network_forward(spec, params, X)[1] if spec.cell == "lstm" else None
        for direction, cache in tape.caches.items():
            # The candidate's pre-activation at every step, from the fused weights.
            W, U, b = (tape.weights[f"{direction}_{name}"][..., -k:] for name in "WUb")
            if spec.cell == "gru":
                h_in = cache.r * cache.h_prev
            else:
                h_in = np.stack([np.zeros_like(states[direction][0]), *states[direction][:-1]])
            preacts = cache.xs @ W + b + h_in @ U
            if any(np.min(np.abs(a)) <= margin for a in preacts):
                return False
            if spec.cell == "lstm":
                for c in cache.c_t:
                    moving = c != 0.0
                    if np.any(np.abs(c[moving]) <= margin):
                        return False
    return True


def test_criterion_7_gradient_property_suite():
    start = time.monotonic()
    combos = [(cell, bidir) for cell in ("gru", "lstm") for bidir in (False, True)]
    checked = 0
    worst = 0.0
    for combo_idx, (cell, bidir) in enumerate(combos):
        for rep in range(25):
            base_seed = 1000 * combo_idx + rep
            for attempt in range(10):
                rng = RngStream(base_seed, attempt)
                gen = rng.generator()
                spec = ModelSpec(
                    cell=cell, bidirectional=bidir,
                    hidden_size=int(gen.integers(2, 4)),
                    input_size=int(gen.integers(1, 4)),
                    output_size=int(gen.integers(1, 4)),
                    activation="tanh" if rep % 2 == 0 else "relu",
                )
                params = {
                    k: 1.5 * v for k, v in init_params(spec, rng.child(1)).items()
                }
                lag = int(gen.integers(2, 5))
                X = gen.standard_normal((1, lag, spec.input_size))
                y = gen.standard_normal((1, spec.output_size))
                if _kink_free(spec, params, X, y):
                    break
            else:
                pytest.fail(f"could not find a kink-free instance for seed {base_seed}")

            _, tape = forward_batch(spec, params, X)
            grads = backward_batch(spec, params, tape, y)
            for name in params:
                def f(t, name=name):
                    trial = dict(params)
                    trial[name] = t
                    pred, _ = forward_batch(spec, trial, X)
                    return float(np.mean(np.abs(pred - y)))
                fd = finite_diff_grad(f, params[name], 1e-5)
                denom = np.maximum(np.maximum(np.abs(grads[name]), np.abs(fd)), 1e-5)
                err = float(np.max(np.abs(grads[name] - fd) / denom))
                worst = max(worst, err)
                assert err < 1e-4, (cell, bidir, name, err)
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == 100
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    ok(7, f"100 models checked, worst relative error {worst:.2e} in {elapsed:.1f}s")


def test_criterion_8_dpsgd_degeneracy():
    gen = np.random.default_rng(7)

    class Windows:
        inputs = gen.standard_normal((40, 4, 3))
        targets = gen.standard_normal((40, 2))

    spec = ModelSpec("gru", True, 3, 3, 2, "tanh")
    p0 = init_params(spec, RngStream(5))
    # 40 samples, batch 8, 10 epochs: exactly 50 optimizer steps
    plain = NonPrivateConfig(batch_size=8, epochs=10, learning_rate=0.01)
    degenerate = DpSgdConfig(
        l2_norm_clip=1e9, noise_multiplier=0.0, num_microbatches=8,
        batch_size=8, epochs=10, learning_rate=0.01,
    )
    pa, la = train(spec, p0, Windows, plain, RngStream(9))
    pb, lb = train(spec, p0, Windows, degenerate, RngStream(9))
    assert la.step_count == lb.step_count == 50
    worst = 0.0
    for name in pa:
        worst = max(worst, float(np.max(np.abs(pa[name] - pb[name]))))
        np.testing.assert_allclose(pa[name], pb[name], rtol=0, atol=1e-9)
    np.testing.assert_allclose(la.epoch_mae, lb.epoch_mae, atol=1e-9)
    ok(8, f"50-step trajectory difference {worst:.2e} <= 1e-9")


def test_criterion_9_mechanism_calibration():
    mp.mp.dps = 50
    spots = [(1.0, 0.5, 0.125), (1.0, 0.0357, 1e-7), (1.0, 0.0650, 1e-7),
             (2.0, 0.25, 1e-5)]
    for sens, eps, delta in spots:
        expected = float(
            mp.mpf(repr(sens)) / mp.mpf(repr(eps))
            * mp.sqrt(2 * mp.log(mp.mpf("1.25") / mp.mpf(repr(delta))))
        )
        assert abs(gaussian_sigma(sens, eps, delta) - expected) / expected < 1e-9

    n_slots, regions = 20_000, 6  # 120k entries
    ts = START + np.arange(n_slots) * SLOT
    zeros = MobilitySeries(ts, np.zeros((n_slots, regions)),
                           tuple(f"R{i}" for i in range(regions)))
    params = PrivacyParams(epsilon=0.0399, delta=1e-7, l2_sensitivity=1.0)
    noisy = sanitize_series(zeros, params, RngStream(2024))
    sigma = gaussian_sigma(1.0, 0.0399, 1e-7)
    observed = noisy.counts.var()
    assert abs(observed - sigma**2) / sigma**2 < 0.02
    ok(9, f"noise variance {observed:.1f} vs sigma^2 {sigma**2:.1f} (2%); "
          f"sigma spot values at 1e-9")


def test_criterion_10_privacy_guards(sine_series):
    # Gaussian mechanism validity
    with pytest.raises(MechanismValidityError):
        sanitize_series(sine_series, PrivacyParams(1.0, 1e-6), RngStream(0))
    with pytest.raises(MechanismValidityError):
        gaussian_sigma(1.0, 1.2, 1e-6)

    # delta budget for DP-SGD runs
    assert delta_budget_check(1e-7, 3120)
    assert not delta_budget_check(1e-6, 3120)
    bad_dp = DpSgdConfig(
        l2_norm_clip=1.0, noise_multiplier=2.0, num_microbatches=4,
        batch_size=4, epochs=1, learning_rate=1e-3,
    )
    with pytest.raises(BudgetError):
        run_gradient_perturbation(
            sine_series, ModelConfig("gru", True, 4, "relu"), bad_dp,
            delta=1e-3, seeds=[0], train_days=13, test_days=2,
        )

    # input-perturbation isolation: raw counts poisoned after the release
    from test_forecast import PoisonableArray

    counts = np.array(sine_series.counts).view(PoisonableArray)
    PoisonableArray.poisoned = False
    tracked = MobilitySeries(sine_series.timestamps, counts, sine_series.region_labels)
    release = input_release(tracked, PrivacyParams(0.5, 1e-6), RngStream(1), 13, 2)
    PoisonableArray.poisoned = True
    try:
        artifact = fit_release(
            release, ModelConfig("gru", True, 4, "relu"),
            TrainConfig(32, 5e-3, 2), [0], train_days=13, test_days=2,
        )
    finally:
        PoisonableArray.poisoned = False
    assert math.isfinite(artifact.metrics.mean_rmse)
    ok(10, "validity guard, delta budget guard, and raw-data isolation all enforced")
