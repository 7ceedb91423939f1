"""Command-line interface: stats, clean, sanitize, accountant, train, tune,
evaluate, report.

``stats``, ``clean``, ``sanitize``, ``train`` and ``tune`` also write a
``manifest.json`` with input digests, the effective configuration, seeds,
and the library version; equal manifests imply byte-identical metric
outputs. ``evaluate`` and ``report`` write only their CSV. Exit codes:
0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, finite_float, parse_config
from .core import RngStream, write_csv, write_json
from .data import (
    DataFormatError,
    descriptive_stats,
    format_timestamps,
    iqr_clean,
    load_csv,
    make_windows,
    split,
)
from .forecast import (
    ModelConfig,
    TrainConfig,
    evaluate_forecast,
    fit_release,
    input_release,
    release_stream,
    run_baseline,
    run_gradient_perturbation,
    run_nonprivate,
    utility_loss,
)
from .nn import save_params
from .optim import DpSgdConfig, TrainingDiverged
from .privacy import (
    BudgetError,
    BudgetLedger,
    MechanismValidityError,
    PrivacyParams,
    compute_epsilon,
    gaussian_sigma,
    rdp_curve,
    require_delta_budget,
    sanitize_series,
)
from .tune import BATCH_CHOICES, SearchSpace, run_search, write_trials_csv

USAGE_ERROR = 2
RUNTIME_ERROR = 1

_CONFIG_ERRORS = (ConfigError, DataFormatError, MechanismValidityError, BudgetError)
_FLOAT_MAX = sys.float_info.max


@contextmanager
def _usage(source: str):
    """Report a ValueError from checking user input as a usage error; elsewhere it is a bug."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, inputs: list[Path], config_echo: dict, seeds) -> None:
    manifest = {
        "version": __version__,
        "inputs": {str(p): _sha256(p) for p in inputs if p is not None and p.exists()},
        "config": config_echo,
        "seeds": list(seeds),
    }
    write_json(out_dir / "manifest.json", manifest)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_config(args) -> ExperimentConfig:
    if not args.config:
        raise ConfigError("this command requires --config <path>")
    return parse_config(args.config)


def _dataset_series(cfg: ExperimentConfig):
    path = Path(cfg.require("dataset", "path"))
    # Encoded first: is_file() is False for a name the file system encoding cannot spell.
    try:
        os.fsencode(path)
    except UnicodeEncodeError:
        raise ConfigError(f"[dataset] path {path} cannot be encoded as "
                          f"{sys.getfilesystemencoding()}") from None
    if not path.is_file():
        raise ConfigError(f"[dataset] path {path} is not a file")
    return iqr_clean(load_csv(path)), path


def _seeds(cfg: ExperimentConfig, args) -> tuple[int, ...]:
    seeds = cfg.get("run", "seeds")
    if seeds is not None:
        return seeds
    base = args.seed if args.seed is not None else 0
    return tuple(range(base, base + 10))


def _jobs(args) -> int:
    """Worker processes for the seeds: ``--jobs``, else 1."""
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    return args.jobs


def _model_config(cfg: ExperimentConfig) -> ModelConfig:
    with _usage("[model]"):
        return ModelConfig(**cfg.section("model"))


def _train_config(cfg: ExperimentConfig, n_windows: int) -> TrainConfig:
    with _usage("[train]"):
        train = TrainConfig(**cfg.section("train"))
    if train.batch_size > n_windows:
        raise ConfigError(f"[train] batch_size exceeds the {n_windows} training windows")
    return train


_DP_DEFAULTS = {"l2_norm_clip": 1.0, "noise_multiplier": 35.0, "num_microbatches": 5}


def _dp_config(cfg: ExperimentConfig, train: TrainConfig, **trial) -> DpSgdConfig:
    """``[dp]`` over ``train``; a tune trial overrides the clip it searches."""
    with _usage("[dp]"):
        return DpSgdConfig(**_DP_DEFAULTS | cfg.section("dp") | asdict(train) | trial)


def _privacy_params(cfg: ExperimentConfig) -> PrivacyParams:
    params = PrivacyParams(
        epsilon=cfg.require("privacy", "epsilon"),
        delta=cfg.require("privacy", "delta"),
        l2_sensitivity=cfg.get("privacy", "sensitivity", 1.0),
    )
    with _usage("[privacy]"):
        gaussian_sigma(params.l2_sensitivity, params.epsilon, params.delta)
    return params


def _split_args(cfg: ExperimentConfig, series) -> tuple[dict, int, int]:
    """``[run]`` lag and days, checked against ``series``; the training window and slot counts."""
    run = cfg.section("run")
    args = {
        "lag": run.get("lag", 6),
        "train_days": run.get("train_days", 65),
        "test_days": run.get("test_days", 7),
    }
    with _usage("[run]"):
        # Only these two calls can refuse the values: prepare cuts the test
        # windows from the series' last lag + test slots, and split keeps
        # at least one test slot, so those are at least lag + 1.
        train_s, _ = split(series, args["train_days"], args["test_days"])
        n_windows = make_windows(train_s, args["lag"]).n_samples
    return args, n_windows, train_s.n_slots


def cmd_stats(args) -> int:
    cfg = _load_config(args)
    series, path = _dataset_series(cfg)
    if series.n_slots < 2:
        raise ConfigError(f"{path}: stats needs two or more slots for a sample std, "
                          f"got {series.n_slots}")
    stats = descriptive_stats(series)
    out = _out_dir(args)
    write_csv(out / "stats.csv", ["statistic", *series.region_labels],
              ([name, *[repr(float(v)) for v in stats[name]]]
               for name in ("min", "max", "mean", "std", "median")))
    _write_manifest(out, [path], cfg.echo(), [])
    print(f"wrote {out / 'stats.csv'}")
    return 0


def _write_series_csv(series, path: Path) -> None:
    write_csv(path, ["datetime", *series.region_labels],
              ([stamp, *[repr(float(v)) for v in row]]
               for stamp, row in zip(format_timestamps(series.timestamps), series.counts)))


def cmd_clean(args) -> int:
    cfg = _load_config(args)
    series, path = _dataset_series(cfg)
    out = _out_dir(args)
    _write_series_csv(series, out / "cleaned.csv")
    _write_manifest(out, [path], cfg.echo(), [])
    print(f"wrote {out / 'cleaned.csv'}")
    return 0


def cmd_sanitize(args) -> int:
    cfg = _load_config(args)
    series, path = _dataset_series(cfg)
    params = _privacy_params(cfg)
    seed = args.seed if args.seed is not None else 0
    # The stream an input train with seeds[0] = seed, or tune --seed seed, releases from.
    sanitized = sanitize_series(series, params, release_stream(seed))
    out = _out_dir(args)
    _write_series_csv(sanitized, out / "sanitized.csv")
    ledger = BudgetLedger.uniform(
        params.epsilon, params.delta, count=series.n_slots, n_population=series.n_slots
    )
    ledger.write_csv(out / "ledger.csv")
    record = sanitized.privacy
    eps_total, delta_total = ledger.total()
    write_json(out / "privacy.json",
               asdict(record) | {"total_epsilon": eps_total, "total_delta": delta_total})
    _write_manifest(out, [path], cfg.echo(), [seed])
    print(f"wrote {out / 'sanitized.csv'} (sigma={record.sigma:.6g})")
    return 0


def cmd_accountant(args) -> int:
    for flag, value in (("--n", args.n), ("--batch", args.batch)):
        if value is not None and value < 1:
            raise ConfigError(f"accountant: {flag} must be >= 1, got {value}")
    if args.q is not None:
        q = args.q
    elif args.n is not None and args.batch is not None:
        q = args.batch / args.n
    else:
        raise ConfigError("provide --q or both --n and --batch")
    if args.steps is not None:
        steps = args.steps
    elif args.epochs is not None and args.n is not None and args.batch is not None:
        steps = args.epochs * (args.n // args.batch)
    else:
        raise ConfigError("provide --steps or --epochs with --n/--batch")
    if steps == 0:
        print("warning: zero steps; epsilon reflects the conversion term only",
              file=sys.stderr)
    with _usage("accountant"):
        eps, order = compute_epsilon(q, args.noise_multiplier, steps, args.delta)
    print(f"eps={eps:.6f} at order={order} (delta={args.delta:g})")
    return 0


def _trained_run(cfg: ExperimentConfig, kind: str, series, release_seed: int):
    """``(model, train, fit)`` for the campaign ``train`` and ``tune`` make.

    Checks, in this order and before any model trains: ``[run]`` lag and
    days against ``series``, ``[model]``, ``[train]`` with its batch size
    against the training windows, then the kind's privacy settings: the
    ``[dp]`` noise multiplier for gradient, ``[privacy]`` for input, and
    the delta budget over the training slots for both. An input campaign
    makes its one release from ``release_seed``. ``fit(model, train,
    seeds, jobs=1, **trial)`` trains; a gradient ``trial`` overrides the
    ``[dp]`` values a search varies.
    """
    split_args, n_windows, n_basis = _split_args(cfg, series)
    model = _model_config(cfg)
    train = _train_config(cfg, n_windows)
    if kind == "nonprivate":
        def fit(model, train, seeds, jobs=1):
            return run_nonprivate(series, model, train, seeds, jobs=jobs, **split_args)
    elif kind == "gradient":
        delta = cfg.require("privacy", "delta")
        with _usage("[dp]"):
            # The accountant's check of the noise multiplier; the rate does not enter it.
            rdp_curve(1.0, cfg.get("dp", "noise_multiplier", _DP_DEFAULTS["noise_multiplier"]))
        with _usage("[privacy]"):
            require_delta_budget(delta, n_basis)

        def fit(model, train, seeds, jobs=1, **trial):
            return run_gradient_perturbation(series, model, _dp_config(cfg, train, **trial),
                                             delta, seeds, jobs=jobs, **split_args)
    else:
        params = _privacy_params(cfg)
        with _usage("[privacy]"):
            require_delta_budget(params.delta, n_basis)
        release = input_release(series, params, release_stream(release_seed),
                                split_args["train_days"], split_args["test_days"])

        def fit(model, train, seeds, jobs=1):
            return fit_release(release, model, train, seeds, jobs=jobs, **split_args)
    return model, train, fit


def cmd_train(args) -> int:
    cfg = _load_config(args)
    kind = cfg.get("run", "kind", "nonprivate")
    jobs = _jobs(args)
    series, path = _dataset_series(cfg)
    seeds = _seeds(cfg, args)
    if kind == "baseline":
        artifact = run_baseline(series, **_split_args(cfg, series)[0])
    else:
        model, train, fit = _trained_run(cfg, kind, series, seeds[0])
        artifact = fit(model, train, seeds, jobs=jobs)
    out = _out_dir(args)
    artifact.write_metrics_csv(out / "metrics.csv")
    artifact.write_predictions_csv(out / "predictions.csv")
    artifact.write_summary_json(out / "summary.json")
    if artifact.train_log is not None:
        artifact.train_log.write_csv(out / "trainlog.csv")
    if artifact.params is not None:
        save_params(out / "params.npz", artifact.params)
    _write_manifest(out, [path], cfg.echo(), seeds)
    print(f"{artifact.run_kind}: mean RMSE {artifact.metrics.mean_rmse:.1f}, "
          f"mean MAE {artifact.metrics.mean_mae:.1f}")
    return 0


def cmd_evaluate(args) -> int:
    run_dir = Path(args.run)
    pred_file = run_dir / "predictions.csv"
    if not pred_file.exists():
        raise ConfigError(f"no predictions.csv under {run_dir}")
    per_region: dict[str, list[tuple[float, float]]] = {}
    with open(pred_file, encoding="utf-8", newline="") as fh, _usage(str(pred_file)):
        rows = csv.reader(fh)
        header = next(rows, [])
        # The last column of a name wins, as in csv.DictReader.
        column = {name: i for i, name in enumerate(header)}
        missing = [name for name in ("region", "y_true", "y_pred") if name not in column]
        if missing:
            raise ValueError(
                f"needs region, y_true and y_pred columns; missing {', '.join(missing)}"
            )
        region, y_true, y_pred = column["region"], column["y_true"], column["y_pred"]
        for row in rows:
            if not row:
                continue
            if len(row) < len(header):
                raise ValueError(
                    f"line {rows.line_num} has {len(row)} fields, the header {len(header)}"
                )
            t, p = float(row[y_true]), float(row[y_pred])
            # abs(x) <= the largest float is False exactly for NaN and ±inf.
            if not (abs(t) <= _FLOAT_MAX and abs(p) <= _FLOAT_MAX):
                name = "y_pred" if abs(t) <= _FLOAT_MAX else "y_true"
                raise ValueError(f"line {rows.line_num}: {name} is not finite")
            per_region.setdefault(row[region], []).append((t, p))
    if not per_region or len({len(pairs) for pairs in per_region.values()}) > 1:
        raise ConfigError(f"{pred_file} needs the same nonzero number of rows per region")
    pairs = np.asarray(list(per_region.values()))  # (regions, slots, [y_true, y_pred])
    # Finite values can still overflow in a difference, its square or a sum.
    with np.errstate(over="ignore", invalid="ignore"):
        report = evaluate_forecast(pairs[..., 0].T, pairs[..., 1].T, list(per_region))
    for row in report.to_rows():
        for metric in ("rmse", "mae"):
            if not abs(row[metric]) <= _FLOAT_MAX:
                raise ConfigError(
                    f"{pred_file}: the {metric} of region {row['region']} overflows a float")
    out = _out_dir(args)
    write_csv(out / "metrics.csv", ["region", "rmse", "mae"],
              ([row["region"], repr(row["rmse"]), repr(row["mae"])] for row in report.to_rows()))
    print(f"wrote {out / 'metrics.csv'}")
    return 0


def cmd_report(args) -> int:
    def _summary(path: Path) -> dict:
        summary_file = Path(path) / "summary.json"
        if not summary_file.exists():
            raise ConfigError(f"no summary.json under {path}")
        with open(summary_file, "rb") as fh, _usage(str(summary_file)):
            # An integer too large for a float reads as inf, and so is refused.
            summary = json.load(fh, parse_int=float)
            if not isinstance(summary, dict):
                raise ValueError("expected a JSON object")
            for metric in ("mean_rmse", "mean_mae"):
                value = summary.get(metric)
                if type(value) is not float or not np.isfinite(value):
                    raise ValueError(f"{metric} must be a finite number, got {value!r}")
        return summary

    dp = _summary(Path(args.run))
    ref = _summary(Path(args.reference))
    out = _out_dir(args)
    rows = []
    for metric in ("mean_rmse", "mean_mae"):
        with _usage(str(args.reference)):
            loss = utility_loss(dp[metric], ref[metric])
        rows.append([metric, repr(dp[metric]), repr(ref[metric]), repr(loss)])
    write_csv(out / "report.csv", ["metric", "dp_value", "np_value", "utility_loss_pct"], rows)
    print(f"wrote {out / 'report.csv'}")
    return 0


def cmd_tune(args) -> int:
    cfg = _load_config(args)
    series, path = _dataset_series(cfg)
    kind = cfg.get("run", "kind", "nonprivate")
    if kind == "baseline":
        raise ConfigError("[run] kind = baseline has no hyperparameters to tune")
    budget = cfg.get("tune", "budget", 100)
    strategy = cfg.get("tune", "strategy", "random")
    trial_epochs = cfg.get("tune", "epochs", cfg.get("train", "epochs", 100))
    if budget < 1 or trial_epochs < 0 or strategy not in ("random", "tpe-lite"):
        raise ConfigError(
            "[tune] needs budget >= 1, epochs >= 0 and strategy random or tpe-lite")
    if len(series.region_labels) < 2:
        raise ConfigError("tune needs two or more regions: its objective uses their RMSE spread")
    seed = args.seed if args.seed is not None else 0
    model, train, fit = _trained_run(cfg, kind, series, seed)
    if kind == "gradient":
        space = SearchSpace(
            clip_choices=(1.0, 1.5, 2.0, 2.5),
            noise_multiplier=cfg.get("dp", "noise_multiplier", _DP_DEFAULTS["noise_multiplier"]),
        )
        for batch in BATCH_CHOICES:  # only a search varies the batch size
            try:
                _dp_config(cfg, replace(train, batch_size=batch, epochs=trial_epochs),
                           l2_norm_clip=space.clip_choices[0])
            except ConfigError as exc:
                raise ConfigError(f"{exc} (tune searches batch size {batch})") from None
    else:
        space = SearchSpace()

    def pipeline(config, trial_seed):
        trial = {"l2_norm_clip": config["l2_norm_clip"]} if "l2_norm_clip" in config else {}
        artifact = fit(replace(model, hidden_size=config["h1"]),
                       replace(train, batch_size=config["batch_size"],
                               learning_rate=config["learning_rate"], epochs=trial_epochs),
                       [trial_seed], **trial)
        return artifact.metrics, None if artifact.privacy is None else artifact.privacy["epsilon"]

    result = run_search(space, pipeline, budget, strategy, RngStream(seed))
    out = _out_dir(args)
    write_trials_csv(result, out / "trials.csv")
    write_json(out / "best.json",
               {"config": result.best.config, "objective": result.best.objective,
                "mean_rmse": result.best.metrics.mean_rmse, "seed": result.best.seed})
    _write_manifest(out, [path], cfg.echo(), [seed])
    print(f"best objective {result.best.objective:.3f} with {result.best.config}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpforecast",
        description="Differentially private recurrent forecasting of mobility counts",
    )
    parser.add_argument("--config", help="experiment config file", default=None)
    parser.add_argument("--out", help="output directory", default="out")
    parser.add_argument("--seed", type=int, default=None, help="base random seed")
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("stats", help="descriptive statistics CSV").set_defaults(fn=cmd_stats)
    sub.add_parser("clean", help="IQR-clean the dataset").set_defaults(fn=cmd_clean)
    sub.add_parser("sanitize", help="Gaussian-mechanism release").set_defaults(fn=cmd_sanitize)

    acct = sub.add_parser("accountant", help="DP-SGD epsilon for given settings")
    acct.add_argument("--q", type=finite_float, default=None, help="sampling rate")
    acct.add_argument("--n", type=int, default=None, help="training set size")
    acct.add_argument("--batch", type=int, default=None, help="batch size")
    acct.add_argument("--noise-multiplier", type=finite_float, required=True)
    acct.add_argument("--steps", type=int, default=None)
    acct.add_argument("--epochs", type=int, default=None)
    acct.add_argument("--delta", type=finite_float, required=True)
    acct.set_defaults(fn=cmd_accountant)

    sub.add_parser("train", help="run the configured pipeline").set_defaults(fn=cmd_train)
    sub.add_parser("tune", help="hyperparameter search").set_defaults(fn=cmd_tune)

    ev = sub.add_parser("evaluate", help="recompute metrics from a run directory")
    ev.add_argument("--run", required=True)
    ev.set_defaults(fn=cmd_evaluate)

    rep = sub.add_parser("report", help="utility loss of a DP run vs a reference")
    rep.add_argument("--run", required=True, help="DP run directory")
    rep.add_argument("--reference", required=True, help="non-private run directory")
    rep.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (TrainingDiverged, RuntimeError, OSError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
