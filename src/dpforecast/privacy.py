"""Gaussian mechanism, Renyi-DP accounting, and the privacy budget ledger.

Two regimes are supported:

* Input perturbation: every count in a series receives independent
  ``N(0, sigma^2)`` noise with ``sigma = (sensitivity / epsilon) *
  sqrt(2 ln(1.25 / delta))``, valid for ``epsilon in (0, 1)``. Anything
  computed from the sanitized series afterwards is covered by
  post-processing.

* Gradient perturbation: DP-SGD noise is tracked with a Renyi-DP
  accountant for the subsampled Gaussian mechanism. At integer order
  ``alpha >= 2`` and sampling rate ``q``, the per-step RDP is

      (1 / (alpha - 1)) * ln sum_{k=0}^{alpha}
          C(alpha, k) (1 - q)^(alpha - k) q^k exp(k (k - 1) / (2 sigma^2))

  evaluated in log space. RDP composes additively over steps and converts
  to (epsilon, delta)-DP via ``eps_rdp + ln(1 / delta) / (alpha - 1)``,
  minimized over a grid of orders.

Per-release guarantees compose sequentially: a ledger of k entries with
budgets (eps_i, delta_i) totals (sum eps_i, sum delta_i).
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from .core import RngStream, gaussian_sample, log_binomial, logsumexp

if TYPE_CHECKING:  # pragma: no cover
    from .data import MobilitySeries

# Reproduces published accountant outputs for noise multipliers >= 35 at
# sampling rates around 1e-3; the optimum lands at or near the top order.
DEFAULT_ORDERS: tuple[int, ...] = tuple(range(2, 65)) + (128, 256, 512)


class MechanismValidityError(ValueError):
    """Parameters outside the regime where the mechanism's guarantee holds."""


class BudgetError(ValueError):
    """A requested release does not fit the delta budget."""


@dataclass(frozen=True)
class PrivacyParams:
    """(epsilon, delta) target plus the query's L2 sensitivity."""

    epsilon: float
    delta: float
    l2_sensitivity: float = 1.0


@dataclass(frozen=True)
class PrivacyRecord:
    """Immutable record attached to a sanitized release."""

    mechanism: str
    epsilon: float
    delta: float
    l2_sensitivity: float
    sigma: float


def gaussian_sigma(l2_sensitivity: float, epsilon: float, delta: float) -> float:
    """Noise scale of the Gaussian mechanism: (s/eps) * sqrt(2 ln(1.25/delta)).

    The (epsilon, delta) guarantee only holds for ``epsilon in (0, 1)``;
    values outside that open interval are rejected.
    """
    if l2_sensitivity <= 0:
        raise ValueError("l2_sensitivity must be positive")
    if not 0.0 < epsilon < 1.0:
        raise MechanismValidityError(
            f"Gaussian mechanism requires epsilon in (0, 1), got {epsilon}"
        )
    if not 0.0 < delta < 1.0:
        raise MechanismValidityError(f"delta must be in (0, 1), got {delta}")
    return (l2_sensitivity / epsilon) * math.sqrt(2.0 * math.log(1.25 / delta))


def sanitize_series(
    series: "MobilitySeries",
    params: PrivacyParams,
    rng: RngStream,
    clamp_nonnegative: bool = False,
) -> "MobilitySeries":
    """Add independent Gaussian noise to every count of ``series``.

    Timestamps are untouched. The returned series carries an immutable
    :class:`PrivacyRecord`; downstream code treats it as the only visible
    data. ``clamp_nonnegative`` optionally floors the noisy counts at zero
    for publication (post-processing, so the record is unchanged); the
    default keeps the noise unbiased for training.
    """
    sigma = gaussian_sigma(params.l2_sensitivity, params.epsilon, params.delta)
    noise = gaussian_sample(series.counts.shape, sigma, rng)
    noisy = series.counts + noise
    if clamp_nonnegative:
        noisy = noisy.clip(min=0.0)
    record = PrivacyRecord(
        mechanism="gaussian",
        epsilon=params.epsilon,
        delta=params.delta,
        l2_sensitivity=params.l2_sensitivity,
        sigma=sigma,
    )
    return dataclasses.replace(series, counts=noisy, privacy=record)


def rdp_subsampled_gaussian(q: float, noise_multiplier: float, order: int) -> float:
    """Per-step RDP of the subsampled Gaussian mechanism at an integer order.

    Stable in log space for orders up to a few thousand with
    ``noise_multiplier >= 1``; ``q == 0`` touches no data and costs 0,
    ``q == 1`` reduces to the plain Gaussian value ``order / (2 sigma^2)``.
    """
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


@dataclass(frozen=True)
class RdpCurve:
    """Per-step RDP values of one mechanism across a grid of orders."""

    orders: tuple[int, ...]
    rdp: tuple[float, ...]

    def __post_init__(self):
        if len(self.orders) != len(self.rdp):
            raise ValueError("orders and rdp values must have equal length")


def rdp_curve(
    q: float, noise_multiplier: float, orders: Sequence[int] = DEFAULT_ORDERS
) -> RdpCurve:
    """Evaluate the subsampled-Gaussian RDP at every order of the grid."""
    values = tuple(rdp_subsampled_gaussian(q, noise_multiplier, a) for a in orders)
    return RdpCurve(tuple(orders), values)


def compute_epsilon(
    q: float,
    noise_multiplier: float,
    steps: int,
    delta: float,
    orders: Sequence[int] = DEFAULT_ORDERS,
) -> tuple[float, int]:
    """(epsilon, best_order) after ``steps`` compositions at rate ``q``.

    epsilon = min over orders of
        steps * rdp(q, noise_multiplier, order) + ln(1/delta) / (order - 1).
    """
    if not orders:
        raise ValueError("orders must be nonempty")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    log_inv_delta = math.log(1.0 / delta)
    curve = rdp_curve(q, noise_multiplier, orders)
    best_eps = math.inf
    best_order = curve.orders[0]
    for order, value in zip(curve.orders, curve.rdp):
        eps = steps * value + log_inv_delta / (order - 1)
        if eps < best_eps:
            best_eps = eps
            best_order = order
    return best_eps, best_order


def delta_budget_check(delta: float, n: int) -> bool:
    """True iff ``n`` releases of ``delta`` stay under 1/n in total."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return n * delta < 1.0 / n


def require_delta_budget(delta: float, n: int) -> None:
    """Raise ``BudgetError`` unless ``delta > 0`` passes ``delta_budget_check`` over ``n``."""
    if not (delta > 0 and delta_budget_check(delta, n)):
        raise BudgetError(f"delta={delta} fails the budget check over {n} samples; "
                          f"need 0 < delta < {1.0 / (n * n):.3e}")


@dataclass(frozen=True)
class LedgerEntry:
    label: str
    epsilon: float
    delta: float


@dataclass
class BudgetLedger:
    """Append-only record of per-release budgets with sequential totals."""

    n_population: int
    entries: list[LedgerEntry] = field(default_factory=list)

    def add(self, label: str, epsilon: float, delta: float) -> None:
        self.entries.append(LedgerEntry(label, epsilon, delta))

    def total(self) -> tuple[float, float]:
        """(total epsilon, total delta) under sequential composition."""
        eps = math.fsum(e.epsilon for e in self.entries)
        dlt = math.fsum(e.delta for e in self.entries)
        return eps, dlt

    @classmethod
    def uniform(
        cls, epsilon: float, delta: float, count: int, n_population: int,
        label: str = "release",
    ) -> "BudgetLedger":
        ledger = cls(n_population=n_population)
        for i in range(count):
            ledger.add(f"{label}-{i}", epsilon, delta)
        return ledger

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["label", "epsilon", "delta", "cumulative_epsilon", "cumulative_delta"]
            )
            cum_eps = 0.0
            cum_delta = 0.0
            for e in self.entries:
                cum_eps += e.epsilon
                cum_delta += e.delta
                writer.writerow([e.label, repr(e.epsilon), repr(e.delta),
                                 repr(cum_eps), repr(cum_delta)])


def ledger_total(ledger: BudgetLedger) -> tuple[float, float]:
    """Sequentially composed (epsilon, delta) totals of ``ledger``."""
    return ledger.total()
