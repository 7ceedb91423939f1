"""The three closed-loop workloads, each one caller in one process.

Every workload runs on a seeded synthetic series of the paper's shape
(72 days x 6 regions on a 30-minute grid, a 65 + 7-day split, lag 6,
d = 10 features, 3114 training windows) and calls the package only
through module attributes, so the tracer's wrappers see every call.

* ``train_np_bigru``: ``optim.train`` with ``NonPrivateConfig`` on a
  BiGRU (h = 175, relu, batch 5, lr 2.89e-4).
* ``train_dp_bigru``: the same model with ``DpSgdConfig`` (clip 2.0,
  noise multiplier 70, 5 microbatches of 1, lr 4.55e-4), then
  ``compute_epsilon`` for the steps run.
* ``release_score_bilstm``: read the CSV, clean, sanitize, prepare,
  score a fixed BiLSTM on the 336 test windows, account the golden
  configurations, write the run artifact and re-score it through the CLI.

One operation of a training workload is one ``train`` call over a chunk
of ``steps_per_op`` batches; the model carries over from call to call.
One operation of the release workload is one pass.
"""

from __future__ import annotations

import csv
import hashlib
import io
import logging
import math
import resource
import shutil
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles

import numpy as np
from dpforecast import cli, data, forecast, nn, optim, privacy
from dpforecast.core import RngStream

from . import calibrate, checks, synth
from .tracing import NULL, Tracer

WORKLOADS = ("train_np_bigru", "train_dp_bigru", "release_score_bilstm")
STEPS_PER_EPOCH = 622  # floor(3114 / 5)


@dataclass(frozen=True)
class Shape:
    """Sizes of one run; ``PAPER`` is the benchmark, smaller ones are for tests."""

    days: int = 72
    train_days: int = 65
    test_days: int = 7
    lag: int = 6
    hidden: int = 175
    batch: int = 5
    steps_per_op: int = 20
    fixed_ops: int = 10       # ops always run; train_mae is taken over them
    setup_reps: int = 7


PAPER = Shape()
NP_LR = 2.89e-4
DP = dict(l2_norm_clip=2.0, noise_multiplier=70.0, num_microbatches=5, learning_rate=4.55e-4)
DP_DELTA = 1e-7
DP_N_BASIS = 3120          # q = batch / 3120, as the pipelines report it
RELEASE_PRIVACY = privacy.PrivacyParams(epsilon=0.0399, delta=1e-7, l2_sensitivity=1.0)
MODEL_SEED = 0
CLI_RTOL = 1e-12           # cli evaluate vs evaluate_forecast: reassociated sums only


@dataclass
class Chunk:
    inputs: np.ndarray
    targets: np.ndarray


@dataclass
class Outcome:
    """What one run measured; metrics map name -> (value, unit)."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    tracer: Tracer | None = None

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"# check failed: {name}")


@dataclass
class State:
    csv_path: Path
    spec: nn.ModelSpec
    params: dict
    chunks: list
    params_path: Path


def _spec(workload: str, shape: Shape) -> nn.ModelSpec:
    cell = "lstm" if workload == "release_score_bilstm" else "gru"
    return nn.ModelSpec(cell, True, shape.hidden, 10, 6, "relu")


def setup(workload: str, shape: Shape, seed: int, workdir: Path) -> State:
    """Synthesize the input, load, clean, prepare and initialise the model."""
    csv_path = workdir / "mobility.csv"
    synth.write_csv(csv_path, shape.days, seed)
    cleaned = data.iqr_clean(data.load_csv(csv_path))
    prepared = forecast.prepare(cleaned, shape.lag, shape.train_days, shape.test_days, True)
    spec = _spec(workload, shape)
    # Model initialisation and training noise use fixed streams, so the
    # workload seed varies the input data only and the training MAE stays
    # comparable across seeds.
    params = nn.init_params(spec, RngStream(MODEL_SEED, 1))
    windows = prepared.train_windows
    order = np.random.default_rng([seed, 2]).permutation(windows.n_samples)
    per = shape.batch * shape.steps_per_op
    chunks = [Chunk(windows.inputs[order[i:i + per]], windows.targets[order[i:i + per]])
              for i in range(0, windows.n_samples - per + 1, per)]
    params_path = workdir / "model.npz"
    nn.save_params(params_path, params)
    return State(csv_path, spec, params, chunks, params_path)


def _train_cfg(workload: str, shape: Shape):
    if workload == "train_dp_bigru":
        return optim.DpSgdConfig(batch_size=shape.batch, epochs=1, **DP)
    return optim.NonPrivateConfig(shape.batch, 1, NP_LR)


def _scaled_mae(prepared: forecast.Prepared, report) -> float:
    span = prepared.scaler.target_max_ - prepared.scaler.target_min_
    return float(np.mean(report.mae / span))


class TrainLoop:
    """Closed-loop ``train`` calls over successive chunks of the training windows."""

    def __init__(self, workload: str, shape: Shape, state: State):
        self.cfg = _train_cfg(workload, shape)
        self.state = state
        self.fixed_ops = shape.fixed_ops
        self.fixed_digest: str | None = None
        self.steps = 0
        self.maes: list[float] = []

    def op(self, k: int, tracer) -> bool:
        st = self.state
        with tracer.span("bench.op"):
            params, log = optim.train(st.spec, st.params, st.chunks[k % len(st.chunks)],
                                      self.cfg, RngStream(MODEL_SEED, 1000 + k))
        st.params = params
        if k == self.fixed_ops - 1:
            # The op count varies with the run's speed; this point does not.
            self.fixed_digest = checks.digest(params)
        self.steps += log.step_count
        self.maes.append(log.epoch_mae[0])
        return math.isfinite(log.epoch_mae[0]) and all(
            np.isfinite(v).all() for v in params.values())

    def determinism(self) -> bool:
        """Two ``train`` calls from the same state and seed give the same bytes."""
        st = self.state
        small = Chunk(st.chunks[0].inputs[:2 * self.cfg.batch_size],
                      st.chunks[0].targets[:2 * self.cfg.batch_size])
        digests = {checks.digest(optim.train(st.spec, st.params, small, self.cfg,
                                             RngStream(MODEL_SEED, 999))[0])
                   for _ in range(2)}
        return len(digests) == 1


class ReleaseLoop:
    """Closed-loop release-and-score passes over the synthetic CSV."""

    def __init__(self, shape: Shape, seed: int, state: State, workdir: Path):
        self.shape = shape
        self.seed = seed
        self.state = state
        self.run_dir = workdir / "run"
        self.eval_dir = workdir / "eval"
        self.reference = {"compute_epsilon": checks.load_reference()["compute_epsilon"]}
        self.first_digest: str | None = None
        self.maes: list[float] = []

    def op(self, k: int, tracer) -> bool:
        sh, st = self.shape, self.state
        with tracer.span("bench.op"):
            cleaned = data.iqr_clean(data.load_csv(st.csv_path))
            release = forecast.input_release(cleaned, RELEASE_PRIVACY, RngStream(self.seed, 7),
                                             sh.train_days, sh.test_days)
            prepared = forecast.prepare(release.sanitized, sh.lag, sh.train_days,
                                        sh.test_days, True)
            params = nn.load_params(st.params_path)
            scaled, _ = nn.forward_batch(st.spec, params, prepared.test_inputs)
            preds = prepared.scaler.inverse_transform_targets(scaled)
            labels = cleaned.region_labels
            with tracer.span("forecast.evaluate"):
                report = forecast.evaluate_forecast(release.raw_test_counts, preds, labels)
                baseline = forecast.run_baseline(cleaned, sh.lag, sh.train_days, sh.test_days)
            epsilons = checks.golden_epsilons(privacy.compute_epsilon)
            with tracer.span("forecast.write_artifacts"):
                self._write_artifact(release, prepared, report, preds, params)
            with tracer.span("cli.evaluate"):
                with redirect_stdout(io.StringIO()):
                    code = cli.main(["--out", str(self.eval_dir), "evaluate",
                                     "--run", str(self.run_dir)])
                rescored = _read_cli_metrics(self.eval_dir / "metrics.csv")
        mae = _scaled_mae(prepared, report)
        self.maes.append(mae)
        digest = hashlib.sha256((self.run_dir / "predictions.csv").read_bytes()).hexdigest()
        if self.first_digest is None:
            self.first_digest = digest
        ok = [
            code == 0,
            _metrics_match(rescored, report),
            checks.compare({"compute_epsilon": epsilons}, self.reference)["compute_epsilon"],
            digest == self.first_digest,
            math.isfinite(mae) and math.isfinite(baseline.metrics.mean_rmse),
        ]
        return all(ok)

    def _write_artifact(self, release, prepared, report, preds, params) -> None:
        sh = self.shape
        artifact = forecast.RunArtifact(
            run_kind="input",
            region_labels=report.region_labels,
            metrics=report,
            predictions=preds,
            y_true=release.raw_test_counts,
            target_timestamps=prepared.target_timestamps,
            seeds=(self.seed,),
            best_seed=self.seed,
            config={"lag": sh.lag, "train_days": sh.train_days, "test_days": sh.test_days},
            privacy={"mechanism": "gaussian-input", "epsilon": RELEASE_PRIVACY.epsilon,
                     "delta": RELEASE_PRIVACY.delta},
            scaler_state=prepared.scaler.to_dict(),
            params=params,
        )
        self.run_dir.mkdir(parents=True, exist_ok=True)
        artifact.write_metrics_csv(self.run_dir / "metrics.csv")
        artifact.write_predictions_csv(self.run_dir / "predictions.csv")
        artifact.write_summary_json(self.run_dir / "summary.json")
        nn.save_params(self.run_dir / "params.npz", params)


def _read_cli_metrics(path: Path) -> dict[str, tuple[float, float]]:
    with open(path, newline="") as fh:
        return {row["region"]: (float(row["rmse"]), float(row["mae"]))
                for row in csv.DictReader(fh)}


def _metrics_match(rescored: dict, report) -> bool:
    expected = {label: (r, m) for label, r, m in
                zip(report.region_labels, report.rmse.tolist(), report.mae.tolist())}
    expected["mean"] = (report.mean_rmse, report.mean_mae)
    if set(rescored) != set(expected):
        return False
    return all(math.isclose(a, b, rel_tol=CLI_RTOL)
               for key in expected for a, b in zip(rescored[key], expected[key]))


def run(workload: str, seed: int, seconds: float, trace: bool, import_s: float,
        workdir: Path, shape: Shape = PAPER) -> Outcome:
    """Set up, check, run the closed loop for ``seconds`` and summarise it."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    logging.getLogger("dpforecast").setLevel(logging.ERROR)
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else NULL
    out = Outcome(tracer=tracer if trace else None)
    try:
        # Set-up: several repetitions untraced (median), one traced.
        setup_times = []
        for _ in range(1 if trace else shape.setup_reps):
            t0 = time.perf_counter()
            with tracer.installed(), tracer.span("bench.setup"):
                state = setup(workload, shape, seed, workdir)
            setup_times.append(time.perf_counter() - t0)

        for name, ok in checks.run_probe_checks().items():
            out.check(f"probe {name}", ok)
        if workload == "release_score_bilstm":
            loop = ReleaseLoop(shape, seed, state, workdir)
        else:
            loop = TrainLoop(workload, shape, state)
            out.check("same seed, same parameter bytes", loop.determinism())

        latencies = _closed_loop(loop, out, tracer, seconds, shape)

        if workload == "train_dp_bigru":
            with tracer.installed(), tracer.span("bench.account"):
                eps, _ = privacy.compute_epsilon(
                    shape.batch / DP_N_BASIS, DP["noise_multiplier"], loop.steps, DP_DELTA)
            out.check("compute_epsilon for the steps run", math.isfinite(eps) and eps > 0)
            out.notes["epsilon"] = eps
            out.notes["steps"] = loop.steps
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        _trace_metrics(out, latencies)
    else:
        _e2e_metrics(out, workload, shape, import_s, setup_times, latencies, loop)
    return out


def _closed_loop(loop, out: Outcome, tracer, seconds: float, shape: Shape):
    """Run ops until ``seconds`` pass (and at least ``fixed_ops`` ran).

    An untraced run times the calibration kernel before the first op and
    after each one, and returns the op latencies and the kernel times in
    ms. A traced run alternates untraced and traced ops and returns both
    lists of latencies, so drift cancels in the overhead.
    """
    trace = tracer is not NULL
    _run_op(loop, out, -1, NULL)  # warm-up: caches, allocator, BLAS buffers
    calibrate.kernel()
    plain, traced = [], []
    cal = [] if trace else [calibrate.timed_ms()]
    k = 0
    start = time.perf_counter()
    min_ops = 2 if trace else (shape.fixed_ops if isinstance(loop, TrainLoop) else 1)
    while k < min_ops or time.perf_counter() - start < seconds:
        this = tracer if k % 2 == 1 else NULL
        t0 = time.perf_counter()
        with this.installed():
            _run_op(loop, out, k, this)
        (plain if this is NULL else traced).append(1e3 * (time.perf_counter() - t0))
        if not trace:
            cal.append(calibrate.timed_ms())
        k += 1
    return (plain, traced) if trace else (plain, cal)


def _run_op(loop, out: Outcome, k: int, tracer) -> None:
    errors = tracer.error_count()
    try:
        ok = loop.op(k, tracer)
    except Exception as exc:  # an operation that raises is a failed operation
        print(f"# op {k} raised {type(exc).__name__}: {exc}")
        ok = False
    out.check(f"op {k}", ok and tracer.error_count() == errors)


def _p80(values: list[float]) -> float:
    # A release run has about 50 ops: the 80th percentile is the highest
    # with ten of them beyond it.
    return quantiles(values, n=5)[-1] if len(values) >= 2 else values[0]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_latencies(latencies: list[float], cal: list[float]) -> list[float]:
    """Each op's latency at the reference speed: over the mean of the kernel
    times just before and just after it, times ``calibrate.REF_MS``."""
    return [calibrate.REF_MS * op / (0.5 * (before + after))
            for op, before, after in zip(latencies, cal, cal[1:])]


def _e2e_metrics(out, workload, shape, import_s, setup_times, timings, loop) -> None:
    latencies, cal = timings
    ref = reference_latencies(latencies, cal)
    per_epoch = STEPS_PER_EPOCH / shape.steps_per_op / 1e3
    if isinstance(loop, TrainLoop):
        mae = float(np.mean(loop.maes[:shape.fixed_ops]))
        out.notes["epoch_s"] = median(latencies) * per_epoch
        out.notes["epoch_ref_s"] = median(ref) * per_epoch
        out.notes["params_sha256"] = loop.fixed_digest
    else:
        mae = loop.maes[0]
    out.metrics = {
        "setup_s": (import_s + median(setup_times), "s"),
        "op_ref_ms_p50": (median(ref), "ref_ms"),
        "op_ref_ms_p80": (_p80(ref), "ref_ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "mae_scaled": (mae, "scaled"),
    }
    out.notes["ops"] = len(latencies)
    out.notes["op_ms"] = latencies
    out.notes["op_ms_p50"] = median(latencies)
    out.notes["op_ms_p80"] = _p80(latencies)
    out.notes["calibration_ms"] = cal
    out.notes["setup_reps_s"] = setup_times
    out.notes["import_s"] = import_s


def _trace_metrics(out: Outcome, latencies) -> None:
    plain, traced = latencies
    tracer = out.tracer
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (median(traced) / median(plain) - 1.0, "fraction")
    wall, accounted, train_self = tracer.train_accounting()
    if wall > 0:
        out.check("traced train() time is fully accounted for",
                  abs(accounted - wall) <= 1e-6 * wall)
        out.notes["train_unwrapped_frac"] = train_self / wall
    out.metrics = metrics
    out.notes["ops_traced"] = len(traced)
    out.notes["ops_untraced"] = len(plain)
    out.notes["absent"] = list(tracer.absent)
