"""Seeded hyperparameter search over the experiment pipelines.

The search objective for non-private campaigns is mean RMSE plus the
across-region RMSE spread; private campaigns multiply it by exp(epsilon)
to penalize loose guarantees. The fixed grid is stated here alone:
hidden size ``H1_CHOICES``, batch size ``BATCH_CHOICES``, a learning
rate log-uniform in ``LR_RANGE`` and, for gradient campaigns, a clip norm
from ``CLIP_CHOICES``. Two strategies are provided behind one interface:
plain random search and "tpe-lite", which spends the first 20 trials at
random and then samples near the best quartile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import RngStream, write_csv
from .forecast import MetricsReport


class SearchFailed(RuntimeError):
    """Every trial of a search raised; carries the per-trial errors and names the first."""

    def __init__(self, errors: list[tuple[int, Exception]]):
        first = errors[0][1]
        super().__init__(f"all {len(errors)} trials failed, first {type(first).__name__}: {first}")
        self.errors = errors


H1_CHOICES = tuple(range(25, 501, 25))
BATCH_CHOICES = tuple(range(5, 41, 5))
LR_RANGE = (1e-5, 3e-3)
CLIP_CHOICES = (1.0, 1.5, 2.0, 2.5)
# tpe-lite's trials drawn at random before it samples near the best quartile.
_N_RANDOM = 20


@dataclass(frozen=True)
class SearchSpace:
    """The fixed hyperparameter grid, plus what a private campaign adds.

    ``clip_choices`` and ``noise_multiplier`` are only set for private
    campaigns; the noise multiplier is fixed per campaign rather than
    searched.
    """

    clip_choices: Optional[tuple[float, ...]] = None
    noise_multiplier: Optional[float] = None

    def sample(self, gen: np.random.Generator) -> dict:
        config = {
            "h1": int(gen.choice(H1_CHOICES)),
            "batch_size": int(gen.choice(BATCH_CHOICES)),
            "learning_rate": float(
                np.exp(gen.uniform(math.log(LR_RANGE[0]), math.log(LR_RANGE[1])))
            ),
        }
        if self.clip_choices is not None:
            config["l2_norm_clip"] = float(gen.choice(self.clip_choices))
        if self.noise_multiplier is not None:
            config["noise_multiplier"] = self.noise_multiplier
        return config

    def neighbor(self, config: dict, gen: np.random.Generator) -> dict:
        """Jitter a config by at most one grid step per axis, clamped."""
        out = dict(config)
        out["h1"] = _step_neighbor(config["h1"], H1_CHOICES, gen)
        out["batch_size"] = _step_neighbor(config["batch_size"], BATCH_CHOICES, gen)
        lr = config["learning_rate"] * math.exp(gen.normal(0.0, 0.5))
        out["learning_rate"] = float(min(max(lr, LR_RANGE[0]), LR_RANGE[1]))
        if self.clip_choices is not None:
            out["l2_norm_clip"] = _step_neighbor(config["l2_norm_clip"], self.clip_choices, gen)
        return out


def _step_neighbor(value, choices, gen: np.random.Generator):
    idx = choices.index(value)
    idx = min(max(idx + int(gen.integers(-1, 2)), 0), len(choices) - 1)
    return choices[idx]


@dataclass
class Trial:
    trial_id: int
    config: dict
    objective: float
    metrics: MetricsReport
    epsilon: Optional[float]
    seed: int


@dataclass
class TuneResult:
    trials: list[Trial] = field(default_factory=list)
    best: Optional[Trial] = None


def objective_nonprivate(metrics: MetricsReport) -> float:
    """Mean RMSE plus the sample std of per-region RMSE."""
    if len(metrics.region_labels) < 2:
        raise ValueError("objective needs at least two regions (std undefined)")
    return metrics.mean_rmse + metrics.std_rmse

def objective_private(metrics: MetricsReport, epsilon: float) -> float:
    """Non-private objective scaled by exp(epsilon)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return objective_nonprivate(metrics) * math.exp(epsilon)


PipelineFn = Callable[[dict, int], tuple[MetricsReport, Optional[float]]]


def run_search(
    space: SearchSpace,
    pipeline: PipelineFn,
    budget: int = 100,
    strategy: str = "random",
    rng: RngStream = RngStream(0),
) -> TuneResult:
    """Sample ``budget`` configs, evaluate them, and return the argmin.

    ``pipeline(config, seed)`` must return ``(metrics, epsilon_or_None)``;
    the objective is chosen accordingly. Deterministic given
    ``(space, budget, strategy, rng)``. Trials that raise are recorded and
    skipped; if every trial fails a :class:`SearchFailed` carries them.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if strategy not in ("random", "tpe-lite"):
        raise ValueError(f"unknown strategy {strategy!r}")
    gen = rng.generator()
    result = TuneResult()
    errors: list[tuple[int, Exception]] = []
    for trial_id in range(budget):
        if strategy == "random" or trial_id < _N_RANDOM or not result.trials:
            config = space.sample(gen)
        else:
            ranked = sorted(result.trials, key=lambda t: t.objective)
            top = ranked[: max(1, len(ranked) // 4)]
            pick = top[int(gen.integers(0, len(top)))]
            config = space.neighbor(pick.config, gen)
        seed = int(gen.integers(0, 2**31 - 1))
        try:
            metrics, epsilon = pipeline(config, seed)
        except Exception as exc:  # noqa: BLE001 - trial isolation is the point
            errors.append((trial_id, exc))
            continue
        if epsilon is None:
            objective = objective_nonprivate(metrics)
        else:
            objective = objective_private(metrics, epsilon)
        trial = Trial(trial_id, config, objective, metrics, epsilon, seed)
        result.trials.append(trial)
        if result.best is None or objective < result.best.objective:
            result.best = trial
    if not result.trials:
        raise SearchFailed(errors)
    return result


def write_trials_csv(result: TuneResult, path) -> None:
    write_csv(
        path,
        ["trial_id", "h1", "batch", "learning_rate", "clip",
         "noise_multiplier", "epsilon", "objective", "mean_rmse", "mean_mae"],
        ([
            t.trial_id,
            t.config.get("h1"),
            t.config.get("batch_size"),
            repr(t.config.get("learning_rate")),
            t.config.get("l2_norm_clip", ""),
            t.config.get("noise_multiplier", ""),
            "" if t.epsilon is None else repr(t.epsilon),
            repr(t.objective),
            repr(t.metrics.mean_rmse),
            repr(t.metrics.mean_mae),
        ] for t in result.trials),
    )
