"""Gaussian mechanism, RDP accountant, ledger, and budget guards."""

import math

import mpmath as mp
import numpy as np
import pytest

from dpforecast import privacy
from dpforecast import (
    DEFAULT_ORDERS,
    BudgetLedger,
    MechanismValidityError,
    MobilitySeries,
    PrivacyParams,
    RdpCurve,
    RngStream,
    compute_epsilon,
    delta_budget_check,
    gaussian_sigma,
    ledger_total,
    log_binomial,
    logsumexp,
    rdp_curve,
    rdp_subsampled_gaussian,
    sanitize_series,
)

from conftest import SLOT, START, build_series


class TestGaussianSigma:
    def test_spot_value_small_delta_regime(self):
        # (1, 0.5, 0.125): sqrt(2 ln 10) / 0.5
        assert gaussian_sigma(1.0, 0.5, 0.125) == pytest.approx(
            4.2919320525786944, rel=1e-9
        )

    def test_spot_value_strict_regime(self):
        assert gaussian_sigma(1.0, 0.0357, 1e-7) == pytest.approx(
            160.13611031011, rel=1e-9
        )

    def test_matches_high_precision_evaluation(self):
        mp.mp.dps = 50
        for eps, delta in [(0.5, 0.125), (0.0357, 1e-7), (0.99, 1e-5), (0.0650, 1e-7)]:
            expected = float(
                mp.sqrt(2 * mp.log(mp.mpf("1.25") / mp.mpf(repr(delta)))) / mp.mpf(repr(eps))
            )
            assert gaussian_sigma(1.0, eps, delta) == pytest.approx(expected, rel=1e-9)

    def test_linear_in_sensitivity(self):
        assert gaussian_sigma(2.0, 0.3, 1e-6) == 2.0 * gaussian_sigma(1.0, 0.3, 1e-6)

    @pytest.mark.parametrize("eps", [1.0, 1.5, 0.0, -0.2])
    def test_epsilon_outside_validity_rejected(self, eps):
        with pytest.raises(MechanismValidityError):
            gaussian_sigma(1.0, eps, 1e-5)

    def test_boundary_epsilon_accepted(self):
        assert gaussian_sigma(1.0, 0.99, 1e-5) > 0


class TestSanitizeSeries:
    def test_noise_variance_matches_mechanism_scale(self):
        n_slots, regions = 20_000, 6
        ts = START + np.arange(n_slots) * SLOT
        series = MobilitySeries(
            ts, np.zeros((n_slots, regions)), tuple(f"R{i}" for i in range(regions))
        )
        params = PrivacyParams(epsilon=0.0357, delta=1e-7, l2_sensitivity=1.0)
        noisy = sanitize_series(series, params, RngStream(4))
        sigma = gaussian_sigma(1.0, 0.0357, 1e-7)
        assert noisy.counts.var() == pytest.approx(sigma**2, rel=0.02)
        assert abs(noisy.counts.mean()) < 3 * sigma / math.sqrt(n_slots * regions)

    def test_noise_field_is_independent_of_data(self):
        a = build_series(n_days=2, seed=1)
        b = MobilitySeries(a.timestamps, a.counts + 123.0, a.region_labels)
        params = PrivacyParams(0.5, 1e-6)
        na = sanitize_series(a, params, RngStream(11))
        nb = sanitize_series(b, params, RngStream(11))
        # identical draws; subtraction only reintroduces float rounding
        np.testing.assert_allclose(
            na.counts - a.counts, nb.counts - b.counts, atol=1e-9
        )

    def test_epsilon_validity_edge(self):
        series = build_series(n_days=1)
        assert sanitize_series(series, PrivacyParams(0.99, 1e-6), RngStream(0)).is_sanitized
        with pytest.raises(MechanismValidityError):
            sanitize_series(series, PrivacyParams(1.0, 1e-6), RngStream(0))

    def test_timestamps_and_record(self):
        series = build_series(n_days=1)
        noisy = sanitize_series(series, PrivacyParams(0.2, 1e-6, 1.5), RngStream(0))
        assert np.array_equal(noisy.timestamps, series.timestamps)
        assert noisy.privacy.mechanism == "gaussian"
        assert noisy.privacy.epsilon == 0.2
        assert noisy.privacy.l2_sensitivity == 1.5
        assert noisy.privacy.sigma == gaussian_sigma(1.5, 0.2, 1e-6)

    def test_record_is_immutable(self):
        series = build_series(n_days=1)
        noisy = sanitize_series(series, PrivacyParams(0.2, 1e-6), RngStream(0))
        with pytest.raises(Exception):
            noisy.privacy.epsilon = 10.0

    def test_nonnegative_clamp_flag(self):
        n_slots = 200
        ts = START + np.arange(n_slots) * SLOT
        series = MobilitySeries(ts, np.zeros((n_slots, 1)), ("R1",))
        noisy = sanitize_series(
            series, PrivacyParams(0.5, 1e-6), RngStream(3), clamp_nonnegative=True
        )
        assert noisy.counts.min() >= 0.0


def rdp_oracle(q, sigma, alpha):
    """Arbitrary-precision direct evaluation of the binomial expansion."""
    mp.mp.dps = 60
    q = mp.mpf(q)
    sigma = mp.mpf(sigma)
    total = mp.mpf(0)
    for k in range(alpha + 1):
        total += (
            mp.binomial(alpha, k) * (1 - q) ** (alpha - k) * q**k
            * mp.e ** (mp.mpf(k * (k - 1)) / (2 * sigma**2))
        )
    return float(mp.log(total) / (alpha - 1))


class TestRdpSubsampledGaussian:
    def test_zero_sampling_rate_costs_nothing(self):
        for alpha in (2, 32, 512):
            assert rdp_subsampled_gaussian(0.0, 35.0, alpha) == 0.0

    def test_full_sampling_reduces_to_gaussian(self):
        assert rdp_subsampled_gaussian(1.0, 1.0, 2) == pytest.approx(1.0, abs=0)
        assert rdp_subsampled_gaussian(1.0, 2.0, 8) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize(
        "q,sigma,alpha",
        [(5 / 3120, 35.0, 512), (5 / 3120, 70.0, 256), (10 / 3120, 140.0, 64),
         (0.01, 2.0, 32), (5 / 3120, 500.0, 512)],
    )
    def test_matches_big_number_oracle(self, q, sigma, alpha):
        assert rdp_subsampled_gaussian(q, sigma, alpha) == pytest.approx(
            rdp_oracle(q, sigma, alpha), rel=1e-9
        )

    def test_invalid_order_rejected(self):
        for alpha in (1, 0, -3):
            with pytest.raises(ValueError):
                rdp_subsampled_gaussian(0.01, 2.0, alpha)
        with pytest.raises(ValueError):
            rdp_subsampled_gaussian(0.01, 2.0, 2.5)

    def test_nondecreasing_in_order(self):
        values = [rdp_subsampled_gaussian(0.001603, 35.0, a) for a in (2, 4, 8, 64, 512)]
        assert all(a <= b + 1e-18 for a, b in zip(values, values[1:]))

    def test_curve_spans_grid_and_is_monotone(self):
        curve = rdp_curve(5 / 3120, 35.0)
        assert curve.orders == DEFAULT_ORDERS
        assert len(curve.rdp) == len(curve.orders)
        assert all(a <= b + 1e-18 for a, b in zip(curve.rdp, curve.rdp[1:]))

    def test_curve_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RdpCurve(orders=(2, 3), rdp=(0.1,))


GOLDEN_CONFIGS = [
    # (batch, noise multiplier, epochs, expected epsilon)
    (5, 35.0, 100, 0.0650),
    (5, 70.0, 100, 0.0399),
    (10, 140.0, 100, 0.0357),
    (5, 500.0, 100, 0.0317),
]


class TestComputeEpsilon:
    @pytest.mark.parametrize("batch,sigma,epochs,expected", GOLDEN_CONFIGS)
    def test_golden_accountant_values(self, batch, sigma, epochs, expected):
        n = 3120
        steps = epochs * (n // batch)
        eps, order = compute_epsilon(batch / n, sigma, steps, 1e-7, DEFAULT_ORDERS)
        assert eps == pytest.approx(expected, rel=0.02)
        assert order in DEFAULT_ORDERS

    def test_composition_is_linear_in_steps(self):
        q, sigma, delta = 0.002, 50.0, 1e-7
        orders = (2, 8, 64, 512)
        steps = 1234
        eps, _ = compute_epsilon(q, sigma, steps, delta, orders)
        manual = min(
            steps * rdp_subsampled_gaussian(q, sigma, a) + math.log(1 / delta) / (a - 1)
            for a in orders
        )
        assert eps == manual

    def test_degenerate_full_sampling_single_step(self):
        sigma, delta = 3.0, 1e-6
        eps, _ = compute_epsilon(1.0, sigma, 1, delta, DEFAULT_ORDERS)
        manual = min(
            a / (2 * sigma**2) + math.log(1 / delta) / (a - 1) for a in DEFAULT_ORDERS
        )
        assert eps == pytest.approx(manual, rel=1e-12)

    def test_zero_steps_keeps_conversion_term_only(self):
        eps, order = compute_epsilon(0.01, 35.0, 0, 1e-7, DEFAULT_ORDERS)
        assert order == max(DEFAULT_ORDERS)
        assert eps == pytest.approx(math.log(1e7) / (max(DEFAULT_ORDERS) - 1), rel=1e-12)

    def test_monotonicity_grid(self):
        gen = np.random.default_rng(5)
        orders = (2, 4, 8, 16, 64, 256)
        for _ in range(20):
            q = float(gen.uniform(1e-4, 0.05))
            sigma = float(gen.uniform(5.0, 200.0))
            steps = int(gen.integers(100, 5000))
            delta = float(10 ** gen.uniform(-9, -5))
            base, _ = compute_epsilon(q, sigma, steps, delta, orders)
            more_steps, _ = compute_epsilon(q, sigma, steps * 2, delta, orders)
            more_q, _ = compute_epsilon(min(2 * q, 1.0), sigma, steps, delta, orders)
            more_sigma, _ = compute_epsilon(q, sigma * 2, steps, delta, orders)
            more_delta, _ = compute_epsilon(q, sigma, steps, min(delta * 10, 0.99), orders)
            assert more_steps >= base - 1e-12
            assert more_q >= base - 1e-12
            assert more_sigma <= base + 1e-12
            assert more_delta <= base + 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            compute_epsilon(0.01, 35.0, 100, 1e-7, orders=())
        with pytest.raises(ValueError):
            compute_epsilon(0.01, 35.0, 100, 1.0)
        with pytest.raises(ValueError):
            compute_epsilon(0.01, 35.0, -1, 1e-7)


def reference_rdp(q, noise_multiplier, order):
    """The term-by-term accountant that the array kernel must match bit for bit."""
    if not isinstance(order, (int,)) or isinstance(order, bool) or order < 2:
        raise ValueError(f"order must be an integer >= 2, got {order!r}")
    if noise_multiplier <= 0:
        raise ValueError("noise_multiplier must be positive")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"sampling rate q must be in [0, 1], got {q}")
    if q == 0.0:
        return 0.0
    sigma2 = noise_multiplier * noise_multiplier
    if q == 1.0:
        return order / (2.0 * sigma2)
    log_q = math.log(q)
    log_1q = math.log1p(-q)
    terms = []
    for k in range(order + 1):
        t = log_binomial(order, k) + k * log_q + (order - k) * log_1q
        t += k * (k - 1) / (2.0 * sigma2)
        terms.append(t)
    return logsumexp(terms) / (order - 1)


def reference_curve(q, noise_multiplier, orders):
    return tuple(reference_rdp(q, noise_multiplier, a) for a in orders)


def reference_epsilon(q, noise_multiplier, steps, delta, orders):
    if not orders:
        raise ValueError("orders must be nonempty")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    log_inv_delta = math.log(1.0 / delta)
    best_eps = math.inf
    best_order = orders[0]
    for order, value in zip(orders, reference_curve(q, noise_multiplier, orders)):
        eps = steps * value + log_inv_delta / (order - 1)
        if eps < best_eps:
            best_eps = eps
            best_order = order
    return best_eps, best_order


def bits(values):
    """Exact identity of floats: repr round-trips, and every NaN reads 'nan'."""
    return [repr(float(v)) for v in values]


UNSORTED_GRID = (64, 3, 512, 3, 2, 17, 64, 2)
WIDE_GRID = (2, 5, 33, 128, 700, 1024)


def seeded_cases(seed, count):
    """(q, sigma) pairs: q log-uniform in [1e-6, 1) plus 0 and 1, sigma in [0.3, 1e3]."""
    gen = np.random.default_rng(seed)
    qs = [float(q) for q in 10 ** gen.uniform(-6, 0, count)] + [0.0, 1.0]
    sigmas = [float(s) for s in 10 ** gen.uniform(math.log10(0.3), 3, count + 2)]
    return list(zip(qs, sigmas))


def raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return None


class TestArrayKernelMatchesScalar:
    @pytest.mark.parametrize("orders", [DEFAULT_ORDERS, UNSORTED_GRID, WIDE_GRID])
    def test_curve_bits(self, orders):
        for q, sigma in seeded_cases(31, 18):
            curve = rdp_curve(q, sigma, orders)
            assert curve.orders == orders
            assert bits(curve.rdp) == bits(reference_curve(q, sigma, orders)), (q, sigma)

    def test_single_order_bits(self):
        for q, sigma in seeded_cases(32, 40):
            for order in (2, 3, 17, 64, 512, 1024):
                assert bits([rdp_subsampled_gaussian(q, sigma, order)]) == bits(
                    [reference_rdp(q, sigma, order)]
                ), (q, sigma, order)

    @pytest.mark.parametrize("orders", [DEFAULT_ORDERS, UNSORTED_GRID, WIDE_GRID])
    def test_epsilon_and_order(self, orders):
        steps_choices = (0, 1, 624, 62400)
        for i, (q, sigma) in enumerate(seeded_cases(33, 14)):
            steps = steps_choices[i % len(steps_choices)]
            eps, order = compute_epsilon(q, sigma, steps, 1e-7, orders)
            ref_eps, ref_order = reference_epsilon(q, sigma, steps, 1e-7, orders)
            assert bits([eps]) == bits([ref_eps]) and order == ref_order, (q, sigma, steps)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_term_gives_nan_that_never_wins(self):
        # 2 sigma^2 is about 1e-303, so k (k - 1) / (2 sigma^2) overflows from k = 425 on
        sigma, orders = 2.2e-152, (512, 2, 64, 1024)
        curve = rdp_curve(0.01, sigma, orders)
        assert bits(curve.rdp) == bits(reference_curve(0.01, sigma, orders))
        assert math.isnan(curve.rdp[0]) and math.isnan(curve.rdp[3])
        assert all(math.isfinite(v) for v in curve.rdp[1:3])
        eps, order = compute_epsilon(0.01, sigma, 1, 1e-7, orders)
        assert (eps, order) == reference_epsilon(0.01, sigma, 1, 1e-7, orders)
        assert order in (2, 64) and math.isfinite(eps)

    def test_alternating_grids_reuse_the_cache(self):
        fresh = {}
        for orders in (DEFAULT_ORDERS, WIDE_GRID):
            privacy._grid.cache_clear()
            fresh[orders] = bits(rdp_curve(5 / 3120, 70.0, orders).rdp)
        privacy._grid.cache_clear()
        for orders in (DEFAULT_ORDERS, WIDE_GRID, DEFAULT_ORDERS):
            assert bits(rdp_curve(5 / 3120, 70.0, orders).rdp) == fresh[orders]
        for order in range(2, 14):  # more grids than the cache holds
            rdp_subsampled_gaussian(5 / 3120, 70.0, order)
        assert bits(rdp_curve(5 / 3120, 70.0, DEFAULT_ORDERS).rdp) == fresh[DEFAULT_ORDERS]

    @pytest.mark.parametrize(
        "q,sigma,order",
        [(0.01, 2.0, 1), (0.01, 2.0, 0), (0.01, 2.0, -3), (0.01, 2.0, 2.5),
         (0.01, 2.0, 2.0), (0.01, 2.0, True), (0.01, 2.0, False), (0.01, 2.0, None),
         (0.01, 2.0, "3"), (0.01, 2.0, np.float64(2.0)), (0.01, 2.0, np.True_),
         (0.01, 0.0, 2), (0.01, -1.0, 2), (-0.1, 2.0, 2), (1.5, 2.0, 2),
         (math.nan, 2.0, 2), (0.5, 1e-170, 2), (1.0, 1e-170, 2), (0.01, 0.0, 1)],
    )
    def test_invalid_single_order_raises_as_scalar(self, q, sigma, order):
        expected = raised(reference_rdp, q, sigma, order)
        assert expected is not None
        assert raised(rdp_subsampled_gaussian, q, sigma, order) == expected

    @pytest.mark.parametrize(
        "q,sigma,orders",
        [(0.01, 2.0, (2, 1)), (0.01, 0.0, (1, 2)), (0.01, 0.0, (2, 1)),
         (1.5, 2.0, (2, 2.5)), (0.01, 2.0, (2, 3, 2.0)), (0.5, 1e-170, (2, 2.5)),
         (1.0, 1e-170, (3, True)), (0.0, 1e-170, (3, True))],
    )
    def test_invalid_grid_raises_as_scalar(self, q, sigma, orders):
        expected = raised(reference_curve, q, sigma, orders)
        assert expected is not None
        assert raised(rdp_curve, q, sigma, orders) == expected
        assert raised(compute_epsilon, q, sigma, 10, 1e-7, orders) == expected

    @pytest.mark.parametrize(
        "steps,delta,orders",
        [(10, 1e-7, ()), (-1, 1e-7, DEFAULT_ORDERS), (10, 1.0, DEFAULT_ORDERS),
         (10, 0.0, DEFAULT_ORDERS), (-1, 1.0, ())],
    )
    def test_invalid_epsilon_arguments_raise_as_scalar(self, steps, delta, orders):
        expected = raised(reference_epsilon, 0.01, 35.0, steps, delta, orders)
        assert expected is not None
        assert raised(compute_epsilon, 0.01, 35.0, steps, delta, orders) == expected

    def test_empty_grid_gives_empty_curve(self):
        assert rdp_curve(0.01, -1.0, ()) == RdpCurve((), ())


class TestNumpyOrderGrids:
    @pytest.mark.parametrize("make", [np.arange, lambda a, b: list(np.arange(a, b))])
    def test_numpy_orders_give_the_tuple_grid_bits(self, make):
        orders = make(2, 65)
        eps, order = compute_epsilon(5 / 3120, 70.0, 62400, 1e-7, orders=orders)
        assert (eps, order) == compute_epsilon(5 / 3120, 70.0, 62400, 1e-7, tuple(range(2, 65)))
        assert type(order) is int
        curve = rdp_curve(5 / 3120, 70.0, orders)
        assert curve.orders == tuple(range(2, 65))
        assert all(type(a) is int for a in curve.orders)
        assert bits(curve.rdp) == bits(reference_curve(5 / 3120, 70.0, tuple(range(2, 65))))
        assert rdp_subsampled_gaussian(5 / 3120, 70.0, np.int64(64)) == curve.rdp[-1]

    @pytest.mark.parametrize("order", [True, 2.0, 2.5, np.float64(3.0), 1, np.int64(1)])
    def test_non_integral_or_small_orders_still_refused(self, order):
        with pytest.raises(ValueError, match="order must be an integer >= 2"):
            rdp_subsampled_gaussian(0.01, 2.0, order)
        with pytest.raises(ValueError, match="order must be an integer >= 2"):
            compute_epsilon(0.01, 2.0, 10, 1e-7, orders=[4, order])


LEDGER_CASES = [
    (0.0650, "202.8", 1),
    (0.0399, "124.488", 3),
    (0.0357, "111.384", 3),
    (0.0317, "98.904", 3),
]


class TestBudgetLedger:
    @pytest.mark.parametrize("eps,total_str,decimals", LEDGER_CASES)
    def test_sequential_composition_totals(self, eps, total_str, decimals):
        ledger = BudgetLedger.uniform(eps, 1e-7, count=3120, n_population=3120)
        total_eps, total_delta = ledger_total(ledger)
        assert f"{total_eps:.{decimals}f}" == total_str
        assert total_delta == pytest.approx(3120 * 1e-7, rel=1e-12)

    def test_empty_ledger(self):
        assert ledger_total(BudgetLedger(n_population=10)) == (0.0, 0.0)

    def test_csv_cumulative_columns(self, tmp_path):
        ledger = BudgetLedger(n_population=2)
        ledger.add("a", 0.1, 1e-8)
        ledger.add("b", 0.2, 1e-8)
        path = tmp_path / "ledger.csv"
        ledger.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "label,epsilon,delta,cumulative_epsilon,cumulative_delta"
        last = lines[-1].split(",")
        assert last[0] == "b"
        assert float(last[3]) == pytest.approx(0.3, rel=1e-12)


class TestDeltaBudgetCheck:
    def test_small_delta_fits_budget(self):
        assert delta_budget_check(1e-7, 3120) is True

    def test_too_large_delta_fails(self):
        assert delta_budget_check(1e-6, 3120) is False

    def test_zero_delta_always_fits(self):
        for n in (1, 10, 10**6):
            assert delta_budget_check(0.0, n) is True
