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

  Every (alpha, k) term of a grid is formed in one numpy pass. What
  depends on the orders alone (ln C(alpha, k) from an ``lgamma`` table,
  k, alpha - k and k (k - 1)) is built once per orders tuple and kept in
  a small LRU cache. Each term is computed in the order of the scalar
  expression above, terms whose ``exp`` underflows to 0 against their
  order's largest are dropped, and each order's remaining terms go
  through :func:`core.logsumexp`; so every value has the bits of a
  term-by-term loop. :func:`rdp_curve` is the one entry to these values
  (a single order is its one-order grid) and the one judge of a noise
  multiplier, which a gradient run asks before any model trains.

Per-release guarantees compose sequentially: a ledger of k entries with
budgets (eps_i, delta_i) totals (sum eps_i, sum delta_i).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .core import RngStream, gaussian_sample, logsumexp, write_csv

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
    if not 0 < l2_sensitivity < math.inf:
        raise ValueError(f"l2_sensitivity must be positive and finite, got {l2_sensitivity}")
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
) -> "MobilitySeries":
    """Add independent Gaussian noise to every count of ``series``.

    Timestamps are untouched. The returned series carries an immutable
    :class:`PrivacyRecord`; downstream code treats it as the only visible
    data. The noisy counts are not floored at zero, so the noise stays
    unbiased for training.
    """
    sigma = gaussian_sigma(params.l2_sensitivity, params.epsilon, params.delta)
    noise = gaussian_sample(series.counts.shape, sigma, rng)
    noisy = series.counts + noise
    record = PrivacyRecord(
        mechanism="gaussian",
        epsilon=params.epsilon,
        delta=params.delta,
        l2_sensitivity=params.l2_sensitivity,
        sigma=sigma,
    )
    return dataclasses.replace(series, counts=noisy, privacy=record)


# ``math.exp`` is exactly 0.0 below this, so such a shifted term adds nothing.
_EXP_UNDERFLOW = -746.0


def _check_order(order) -> int:
    """``order`` as a plain int: any integral type (``bool`` is 0 or 1), at least 2."""
    try:
        value = operator.index(order)
    except TypeError:
        value = None
    if value is None or value < 2:
        raise ValueError(f"order must be an integer >= 2, got {order!r}")
    return value


class _Grid(NamedTuple):
    """The parts of every (order, k) term that depend on the orders alone."""

    starts: np.ndarray  # index of each order's k = 0 term
    sizes: np.ndarray  # order + 1 terms per order
    log_binom: np.ndarray  # ln C(order, k)
    k: np.ndarray
    rest: np.ndarray  # order - k
    k_pairs: np.ndarray  # k (k - 1)


@functools.lru_cache(maxsize=8)
def _grid(orders: tuple[int, ...]) -> _Grid:
    lg = np.array([math.lgamma(n + 1) for n in range(max(orders) + 1)])
    sizes = np.array(orders) + 1
    starts = np.cumsum(sizes) - sizes
    alpha = np.repeat(sizes - 1, sizes)
    k = np.arange(alpha.size) - np.repeat(starts, sizes)
    grid = _Grid(starts, sizes, lg[alpha] - lg[k] - lg[alpha - k],
                 k.astype(float), (alpha - k).astype(float), (k * (k - 1)).astype(float))
    for array in grid:
        array.flags.writeable = False
    return grid


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
    """Per-step RDP of the subsampled Gaussian mechanism at every order of the grid.

    Stable in log space for orders up to a few thousand with
    ``noise_multiplier >= 1``; ``q == 0`` touches no data and costs 0,
    ``q == 1`` reduces to the plain Gaussian value ``order / (2 sigma^2)``.

    Arguments are checked in the order a per-order loop would meet them:
    the first order, then the noise multiplier and the rate, then the rest
    of the orders. A noise multiplier must be finite, and so large that
    2 sigma^2 does not underflow to 0 unless q is 0.
    """
    checked = []
    for order in orders:
        checked.append(_check_order(order))
        if len(checked) == 1:
            if noise_multiplier <= 0:
                raise ValueError("noise_multiplier must be positive")
            if not math.isfinite(noise_multiplier):
                raise ValueError(f"noise_multiplier must be finite, got {noise_multiplier}")
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"sampling rate q must be in [0, 1], got {q}")
            if q != 0.0 and 2.0 * (noise_multiplier * noise_multiplier) == 0.0:
                raise ValueError(
                    f"noise_multiplier {noise_multiplier!r} is too small: its square underflows")
    orders = tuple(checked)
    if not orders or q == 0.0:
        return RdpCurve(orders, (0.0,) * len(orders))
    sigma2 = noise_multiplier * noise_multiplier
    if q == 1.0:
        return RdpCurve(orders, tuple(order / (2.0 * sigma2) for order in orders))
    g = _grid(orders)
    with np.errstate(over="ignore", invalid="ignore"):
        t = g.log_binom + g.k * math.log(q)
        t += g.rest * math.log1p(-q)
        t += g.k_pairs / (2.0 * sigma2)
        # np.maximum propagates NaN; a NaN maximum then drops no term.
        shifted = t - np.repeat(np.maximum.reduceat(t, g.starts), g.sizes)
        keep = ~(shifted < _EXP_UNDERFLOW)
    kept = t[keep].tolist()
    counts = np.add.reduceat(keep, g.starts, dtype=np.intp).tolist()
    values = []
    stop = 0
    for order, count in zip(orders, counts):
        start, stop = stop, stop + count
        values.append(logsumexp(kept[start:stop]) / (order - 1))
    return RdpCurve(orders, tuple(values))


def compute_epsilon(
    q: float,
    noise_multiplier: float,
    steps: int,
    delta: float,
    orders: Sequence[int] = DEFAULT_ORDERS,
) -> tuple[float, int]:
    """(epsilon, best_order) after ``steps`` compositions at rate ``q``.

    epsilon = min over orders of
        steps * rdp(q, noise_multiplier, order) + ln(1/delta) / (order - 1);
    the first order reaching the minimum wins, and a NaN value never does.
    """
    if len(orders) == 0:
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
        cls, epsilon: float, delta: float, count: int, n_population: int
    ) -> "BudgetLedger":
        """``count`` releases of (epsilon, delta), labelled ``release-0`` onwards."""
        ledger = cls(n_population=n_population)
        for i in range(count):
            ledger.add(f"release-{i}", epsilon, delta)
        return ledger

    def write_csv(self, path) -> None:
        """One row per entry; each cumulative is its prefix's ``math.fsum``, as in ``total``."""
        cum_eps = _running_fsums(e.epsilon for e in self.entries)
        cum_delta = _running_fsums(e.delta for e in self.entries)
        rows = ([e.label, repr(e.epsilon), repr(e.delta), repr(ce), repr(cd)]
                for e, ce, cd in zip(self.entries, cum_eps, cum_delta))
        write_csv(path, ["label", "epsilon", "delta", "cumulative_epsilon", "cumulative_delta"],
                  rows)


def _running_fsums(values) -> list[float]:
    """``math.fsum`` of every prefix of ``values``, in one pass.

    The finite values are summed exactly as a ``Fraction``, which is rounded
    once per prefix, as ``math.fsum`` rounds. Non-finite values are kept
    apart for ``math.fsum`` to sum.
    """
    # Imported here: ``fractions`` imports ``decimal``, and only a ledger
    # write needs it.
    from fractions import Fraction

    exact, specials, sums = Fraction(0), [], []
    for x in values:
        if math.isfinite(x):
            exact += Fraction(x)
        else:
            specials.append(x)
        sums.append(math.fsum([float(exact), *specials]))
    return sums


def ledger_total(ledger: BudgetLedger) -> tuple[float, float]:
    """Sequentially composed (epsilon, delta) totals of ``ledger``."""
    return ledger.total()
