"""End-to-end experiment pipelines and evaluation metrics.

Four run kinds share one evaluation harness:

* ``baseline``   — persistence model, x_{t+1} = x_t, no training;
* ``nonprivate`` — Adam-trained recurrent forecaster on cleaned data;
* ``gradient``   — the same forecaster trained with DP-Adam (clip+noise),
  with an RDP accountant attached to the run;
* ``input``      — the whole series is sanitized once with the Gaussian
  mechanism, training sees only the noisy data, and evaluation compares
  predictions against the raw test targets. Its two halves are public:
  :func:`input_release` is the one touch of the raw data, and
  :func:`fit_release` trains on what it returns and reports the privacy
  block of that release.

The three trained runs differ only in where the noise enters: they share
one seed loop, one choice of the best seed (lowest mean RMSE, ties to the
lower seed) and one artifact assembly.

Metrics are per-region RMSE and MAE over the test slots, reported in the
original count scale, plus their means and the across-region RMSE spread.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import RngStream, write_csv, write_json
from .data import (
    SLOTS_PER_DAY,
    MinMaxScaler,
    MobilitySeries,
    WindowedDataset,
    format_timestamps,
    make_windows,
    split,
)
from .nn import ModelSpec, forward_batch, init_params
from .optim import DpSgdConfig, NonPrivateConfig, TrainLog, train
from .privacy import (
    PrivacyParams,
    compute_epsilon,
    rdp_curve,
    require_delta_budget,
    sanitize_series,
)

# Fixed sub-streams of a seed: initialization, batching and sanitization each
# draw independent noise, so the release is independent of training randomness.
_INIT_STREAM = 1
_TRAIN_STREAM = 2
_SANITIZE_STREAM = 7


@dataclass(frozen=True)
class MetricsReport:
    """Per-region RMSE/MAE with region-averaged summaries."""

    region_labels: tuple[str, ...]
    rmse: np.ndarray
    mae: np.ndarray
    mean_rmse: float
    mean_mae: float
    std_rmse: float

    def to_rows(self) -> list[dict]:
        rows = [
            {"region": label, "rmse": float(r), "mae": float(m)}
            for label, r, m in zip(self.region_labels, self.rmse, self.mae)
        ]
        rows.append({"region": "mean", "rmse": self.mean_rmse, "mae": self.mean_mae})
        return rows


def rmse(y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
    """Per-region root-mean-square error over test slots."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    sq = np.sum((y_true - y_pred) ** 2, axis=0)
    return np.sqrt(sq / y_true.shape[0])


def mae(y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
    """Per-region mean absolute error over test slots."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    return np.mean(np.abs(y_true - y_pred), axis=0)


def _check_pair(y_true, y_pred):
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape or y_true.ndim != 2:
        raise ValueError(
            f"y_true and y_pred must share a 2-d shape, got {y_true.shape} vs {y_pred.shape}"
        )
    return y_true, y_pred


def evaluate_forecast(
    y_true: np.ndarray,
    y_pred: np.ndarray,
    region_labels: Sequence[str],
) -> MetricsReport:
    region_rmse = rmse(y_true, y_pred)
    region_mae = mae(y_true, y_pred)
    return MetricsReport(
        region_labels=tuple(region_labels),
        rmse=region_rmse,
        mae=region_mae,
        mean_rmse=float(region_rmse.mean()),
        mean_mae=float(region_mae.mean()),
        std_rmse=float(region_rmse.std(ddof=1)) if len(region_rmse) > 1 else 0.0,
    )


def utility_loss(e_dp: float, e_np: float) -> float:
    """Percentage degradation of a private model versus its reference."""
    if e_np <= 0:
        raise ValueError("reference error must be positive")
    return 100.0 * (e_dp - e_np) / e_np


def persistence_forecast(test_counts: np.ndarray, last_train: np.ndarray) -> np.ndarray:
    """Predict each slot as the previous slot's counts.

    The first test slot is predicted by the final training slot; slot k>1
    by test slot k-1.
    """
    test_counts = np.asarray(test_counts, dtype=np.float64)
    last_train = np.asarray(last_train, dtype=np.float64)
    if test_counts.ndim != 2 or test_counts.shape[0] == 0:
        raise ValueError("test counts must be a nonempty (n, regions) matrix")
    return np.vstack([last_train[None, :], test_counts[:-1]])


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters of every trained pipeline, checked as a ``ModelSpec``."""

    cell: str = "gru"
    bidirectional: bool = True
    hidden_size: int = 175
    activation: str = "relu"

    def __post_init__(self):
        ModelSpec(**asdict(self))


@dataclass(frozen=True)
class TrainConfig:
    """Non-private optimizer hyperparameters, checked as a ``NonPrivateConfig``."""

    batch_size: int = 5
    learning_rate: float = 2.89e-4
    epochs: int = 100

    def __post_init__(self):
        NonPrivateConfig(**asdict(self))


@dataclass
class SeedResult:
    seed: int
    metrics: MetricsReport
    predictions: np.ndarray
    params: dict
    train_log: Optional[TrainLog]


@dataclass
class RunArtifact:
    """Everything needed to audit one experiment run."""

    run_kind: str
    region_labels: tuple[str, ...]
    metrics: MetricsReport
    predictions: np.ndarray
    y_true: np.ndarray
    target_timestamps: np.ndarray
    seeds: tuple[int, ...]
    best_seed: Optional[int]
    per_seed: list[SeedResult] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    privacy: Optional[dict] = None
    scaler_state: Optional[dict] = None
    params: Optional[dict] = None
    train_log: Optional[TrainLog] = None

    def write_metrics_csv(self, path) -> None:
        write_csv(path, ["run_kind", "region", "rmse", "mae"],
                  ([self.run_kind, row["region"], repr(row["rmse"]), repr(row["mae"])]
                   for row in self.metrics.to_rows()))

    def write_predictions_csv(self, path) -> None:
        # One conversion per array; float64 first, so integer counts print as floats.
        y_true = np.asarray(self.y_true, dtype=np.float64).tolist()
        y_pred = np.asarray(self.predictions, dtype=np.float64).tolist()
        stamps = format_timestamps(self.target_timestamps)
        write_csv(path, ["datetime", "region", "y_true", "y_pred"],
                  ((stamp, region, repr(t), repr(p))
                   for stamp, t_row, p_row in zip(stamps, y_true, y_pred, strict=True)
                   for region, t, p in zip(self.region_labels, t_row, p_row, strict=True)))

    def summary(self) -> dict:
        out = {
            "run_kind": self.run_kind,
            "regions": list(self.region_labels),
            "seeds": list(self.seeds),
            "best_seed": self.best_seed,
            "mean_rmse": self.metrics.mean_rmse,
            "mean_mae": self.metrics.mean_mae,
            "std_rmse": self.metrics.std_rmse,
            "per_region_rmse": self.metrics.rmse.tolist(),
            "per_region_mae": self.metrics.mae.tolist(),
            "per_seed": [
                {"seed": r.seed, "mean_rmse": r.metrics.mean_rmse,
                 "mean_mae": r.metrics.mean_mae}
                for r in self.per_seed
            ],
            "config": self.config,
        }
        if self.privacy is not None:
            out["privacy"] = self.privacy
        if self.scaler_state is not None:
            out["scaler"] = self.scaler_state
        if self.train_log is not None:
            out["train_steps"] = self.train_log.step_count
        return out

    def write_summary_json(self, path) -> None:
        write_json(path, self.summary())


@dataclass
class Prepared:
    """Split, windowed, and scaled data ready for training and scoring."""

    train_windows: WindowedDataset
    test_inputs: np.ndarray
    raw_test_targets: np.ndarray
    target_timestamps: np.ndarray
    scaler: MinMaxScaler
    region_labels: tuple[str, ...]
    n_train_slots: int


def prepare(
    series: MobilitySeries,
    lag: int = 6,
    train_days: int = 65,
    test_days: int = 7,
    scale: bool = True,
) -> Prepared:
    """Split, min-max scale and window one series.

    The scaler is fitted on the rows the training windows cover (feature
    rows ``0 .. n_train_slots - 2`` and the counts of training slots
    ``lag ..`` as targets), which gives the bounds of a fit on the training
    windows themselves. The test windows are the windows of the series'
    last ``lag + test`` slots, so their inputs reach back into the last
    ``lag`` training slots and every test slot is a target. Rows are scaled
    once each and then cut into windows; every array is the bytes of
    windowing first and scaling the windows. Every run scales. ``scale``
    remains only because ``perfbench/workloads.py`` passes ``True`` in its
    place, and any other value raises ``ValueError``. Evaluation targets
    are the unscaled test counts; the input-perturbation pipeline swaps in
    the raw counts afterwards since its training data is noisy.
    """
    if scale is not True:
        raise ValueError(f"scale must be True, got {scale!r}: every run min-max scales")
    train_s, test_s = split(series, train_days, test_days)
    scaler = MinMaxScaler().fit(train_s, lag)
    train_w = make_windows(train_s, lag, scaler=scaler)
    n = lag + test_s.n_slots
    tail = MobilitySeries(series.timestamps[-n:], series.counts[-n:], series.region_labels)
    test_w = make_windows(tail, lag, scaler=scaler)
    return Prepared(
        train_windows=train_w,
        test_inputs=test_w.inputs,
        raw_test_targets=np.array(test_s.counts, subok=False),
        target_timestamps=test_w.target_timestamps,
        scaler=scaler,
        region_labels=series.region_labels,
        n_train_slots=train_s.n_slots,
    )


def _fit_one_seed(args) -> SeedResult:
    prepared, model_cfg, opt, seed = args
    windows = prepared.train_windows
    spec = ModelSpec(**asdict(model_cfg), input_size=windows.inputs.shape[2],
                     output_size=windows.targets.shape[1])
    base = RngStream(seed)
    params, log = train(spec, init_params(spec, base.child(_INIT_STREAM)), windows, opt,
                        base.child(_TRAIN_STREAM))
    scaled_preds, _ = forward_batch(spec, params, prepared.test_inputs)
    preds = prepared.scaler.inverse_transform_targets(scaled_preds)
    metrics = evaluate_forecast(prepared.raw_test_targets, preds, prepared.region_labels)
    return SeedResult(seed, metrics, preds, params, log)


def _fit_best_seed(
    run_kind: str,
    prepared: Prepared,
    model_cfg: ModelConfig,
    opt: TrainConfig | DpSgdConfig,
    seeds: Sequence[int],
    jobs: int,
    echo: dict,
) -> RunArtifact:
    """Train one model per seed and assemble the artifact of the best one.

    The best seed has the lowest ``(mean_rmse, seed)``. Seeds run in a
    process pool when ``jobs > 1``; a seed's result depends only on its own
    arguments, so the artifact is the same either way. ``echo`` is the
    run-specific part of ``config``.
    """
    windows = prepared.train_windows
    if not all(np.isfinite(a).all()
               for a in (windows.inputs, windows.targets, prepared.test_inputs)):
        raise ValueError("the training or test windows contain NaN or Inf")
    tasks = [(prepared, model_cfg, opt, seed) for seed in seeds]
    if jobs > 1:
        # Imported here: multiprocessing costs every process that never runs a pool.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_fit_one_seed, tasks))
    else:
        results = [_fit_one_seed(t) for t in tasks]
    best = min(results, key=lambda r: (r.metrics.mean_rmse, r.seed))
    return RunArtifact(
        run_kind=run_kind,
        region_labels=prepared.region_labels,
        metrics=best.metrics,
        predictions=best.predictions,
        y_true=prepared.raw_test_targets,
        target_timestamps=prepared.target_timestamps,
        seeds=tuple(seeds),
        best_seed=best.seed,
        per_seed=results,
        config={"model": asdict(model_cfg)} | echo,
        scaler_state=prepared.scaler.to_dict(),
        params=best.params,
        train_log=best.train_log,
    )


def _privacy_block(mechanism: str, epsilon: float, delta: float, n_basis: int) -> dict:
    """The privacy keys of both private runs; every training slot is charged.

    ``n_basis * epsilon`` is the correctly rounded sum of ``n_basis`` equal
    terms, the bits a ``BudgetLedger`` of them totals to.
    """
    return {
        "mechanism": mechanism, "epsilon": epsilon, "delta": delta,
        "epsilon_total": n_basis * epsilon, "delta_total": n_basis * delta, "n_basis": n_basis,
    }


def _split_args(seeds: Sequence[int], lag: int, train_days: int, test_days: int) -> dict:
    """The split arguments of a trained run; every trained run checks its seeds here."""
    if len(seeds) == 0:
        raise ValueError("seeds must be nonempty")
    return dict(lag=lag, train_days=train_days, test_days=test_days)


def run_baseline(
    series: MobilitySeries,
    lag: int = 6,
    train_days: int = 65,
    test_days: int = 7,
) -> RunArtifact:
    """Persistence-model run; fully deterministic."""
    train_s, test_s = split(series, train_days, test_days)
    preds = persistence_forecast(test_s.counts, train_s.counts[-1])
    metrics = evaluate_forecast(test_s.counts, preds, series.region_labels)
    return RunArtifact(
        run_kind="baseline",
        region_labels=series.region_labels,
        metrics=metrics,
        predictions=preds,
        y_true=np.array(test_s.counts),
        target_timestamps=np.array(test_s.timestamps),
        seeds=(),
        best_seed=None,
        config={"lag": lag, "train_days": train_days, "test_days": test_days},
    )


def run_nonprivate(
    series: MobilitySeries,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    seeds: Sequence[int],
    lag: int = 6,
    train_days: int = 65,
    test_days: int = 7,
    jobs: int = 1,
) -> RunArtifact:
    """Plain-Adam pipeline; the best of the seeded runs (by mean RMSE) wins."""
    split_args = _split_args(seeds, lag, train_days, test_days)
    prepared = prepare(series, **split_args)
    return _fit_best_seed(
        "nonprivate", prepared, model_cfg, train_cfg, seeds, jobs,
        {"train": asdict(train_cfg)} | split_args,
    )


def run_gradient_perturbation(
    series: MobilitySeries,
    model_cfg: ModelConfig,
    dp_cfg: DpSgdConfig,
    delta: float,
    seeds: Sequence[int],
    lag: int = 6,
    train_days: int = 65,
    test_days: int = 7,
    jobs: int = 1,
) -> RunArtifact:
    """DP-Adam pipeline with an RDP accountant attached to the artifact.

    The per-sample epsilon comes from the accountant run at the sampling
    rate ``q = batch_size / n_train_slots`` over the exact step count the
    training log reports; the worst-case total assumes one user present in
    every training slot (sequential composition). Before any seed trains, the
    delta budget is checked and a noise multiplier that the accountant
    refuses at ``q``, zero among them, raises the accountant's
    ``MechanismValidityError``.
    """
    split_args = _split_args(seeds, lag, train_days, test_days)
    prepared = prepare(series, **split_args)
    n_basis = prepared.n_train_slots
    require_delta_budget(delta, n_basis)
    q = dp_cfg.batch_size / n_basis
    rdp_curve(q, dp_cfg.noise_multiplier)
    artifact = _fit_best_seed(
        "gradient", prepared, model_cfg, dp_cfg, seeds, jobs,
        {"dp": asdict(dp_cfg), "delta": delta} | split_args,
    )
    steps = artifact.train_log.step_count
    epsilon, order = compute_epsilon(q, dp_cfg.noise_multiplier, steps, delta)
    artifact.privacy = _privacy_block("dp-sgd", epsilon, delta, n_basis) | {
        "q": q,
        "noise_multiplier": dp_cfg.noise_multiplier,
        "l2_norm_clip": dp_cfg.l2_norm_clip,
        "steps": steps,
        "best_order": order,
    }
    return artifact


@dataclass
class InputRelease:
    """Output of the one raw-data touchpoint of the input-perturbation run.

    Everything downstream receives only this object: the sanitized series
    plus a detached copy of the raw test targets used for scoring. The raw
    training counts are unreachable from it.
    """

    sanitized: MobilitySeries
    raw_test_counts: np.ndarray
    n_train_slots: int


def input_release(
    series: MobilitySeries,
    params: PrivacyParams,
    rng: RngStream,
    train_days: int = 65,
    test_days: int = 7,
) -> InputRelease:
    """Sanitize the whole series and detach the raw test targets."""
    sanitized = sanitize_series(series, params, rng)
    raw_train, raw_test = split(series, train_days, test_days)
    return InputRelease(
        sanitized=sanitized,
        raw_test_counts=np.array(raw_test.counts, dtype=np.float64, subok=False),
        n_train_slots=raw_train.n_slots,
    )


def release_stream(seed: int) -> RngStream:
    """The stream that an input run whose first seed is ``seed`` sanitizes with."""
    return RngStream(seed).child(_SANITIZE_STREAM)


def run_input_perturbation(
    series: MobilitySeries,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    privacy_params: PrivacyParams,
    seeds: Sequence[int],
    lag: int = 6,
    train_days: int = 65,
    test_days: int = 7,
    jobs: int = 1,
) -> RunArtifact:
    """Sanitize-then-train pipeline.

    The series is sanitized once (training inputs, training targets, and
    test inputs are all noisy); the scaler is fitted on the sanitized
    training windows; metrics compare predictions with the raw test
    targets. The privacy ledger composes one release per training slot.
    """
    split_args = _split_args(seeds, lag, train_days, test_days)
    release = input_release(
        series, privacy_params, release_stream(seeds[0]), train_days, test_days
    )
    return fit_release(release, model_cfg, train_cfg, seeds, jobs=jobs, **split_args)


def fit_release(
    release: InputRelease,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    seeds: Sequence[int],
    lag: int = 6,
    train_days: int = 65,
    test_days: int = 7,
    jobs: int = 1,
) -> RunArtifact:
    """Train and score on an :class:`InputRelease`; never sees raw data.

    ``train_days`` and ``test_days`` must be the split the release was made
    with; another split, a series with no ``PrivacyRecord``, or a delta that
    fails the budget over the release's training slots (``BudgetError``) is
    refused before any training. The artifact's ``privacy`` block and
    ``config["privacy"]`` come from the release's own record.
    """
    split_args = _split_args(seeds, lag, train_days, test_days)
    record = release.sanitized.privacy
    if record is None:
        raise ValueError("the release's series has no PrivacyRecord; make it with input_release")
    released = (release.n_train_slots, release.raw_test_counts.shape[0])
    if (train_days * SLOTS_PER_DAY, test_days * SLOTS_PER_DAY) != released:
        raise ValueError(
            f"the release holds {released[0]} training and {released[1]} test slots; "
            f"train_days={train_days} and test_days={test_days} would fit "
            f"{train_days * SLOTS_PER_DAY} and score {test_days * SLOTS_PER_DAY}")
    n_basis = release.n_train_slots
    require_delta_budget(record.delta, n_basis)
    prepared = prepare(release.sanitized, **split_args)
    prepared.raw_test_targets = release.raw_test_counts
    privacy = {"epsilon": record.epsilon, "delta": record.delta,
               "sensitivity": record.l2_sensitivity}
    artifact = _fit_best_seed(
        "input", prepared, model_cfg, train_cfg, seeds, jobs,
        {"train": asdict(train_cfg)} | split_args | {"privacy": privacy},
    )
    artifact.privacy = _privacy_block("gaussian-input", record.epsilon, record.delta, n_basis) | {
        "l2_sensitivity": record.l2_sensitivity, "sigma": record.sigma, "n_releases": n_basis,
    }
    return artifact
