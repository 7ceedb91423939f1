"""The benchmark's own tests: its checks catch real faults, its runs repeat.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import dpforecast  # noqa: E402
from dpforecast import nn, optim, privacy  # noqa: E402

from perfbench import synth, workloads  # noqa: E402

TINY = workloads.Shape(days=10, train_days=8, test_days=2, hidden=8,
                       steps_per_op=2, fixed_ops=2, setup_reps=1)


def run(tmp_path, workload, seed=3, trace=False, seconds=0.2):
    return workloads.run(workload, seed, seconds, trace, 0.0, tmp_path / "work", TINY)


def test_clean_runs_have_no_failures(tmp_path):
    for workload in workloads.WORKLOADS:
        out = run(tmp_path, workload)
        assert out.failed == 0, workload
        assert out.attempted > 0
        assert set(out.metrics) == {m["name"] for m in _bench()["end_to_end"]}
        assert all(value > 0 for value, _ in out.metrics.values()), workload


def test_reference_latency_cancels_a_machine_slowdown():
    # The second op and the kernel runs around it take twice as long.
    assert workloads.reference_latencies([100.0, 200.0], [50.0, 50.0, 150.0]) == [100.0, 100.0]


def test_same_seed_gives_same_parameter_bytes(tmp_path):
    first = run(tmp_path, "train_np_bigru", seed=5)
    second = run(tmp_path, "train_np_bigru", seed=5)
    other = run(tmp_path, "train_np_bigru", seed=6)
    assert first.notes["params_sha256"] == second.notes["params_sha256"]
    assert first.notes["params_sha256"] != other.notes["params_sha256"]


def test_sign_flipped_gradient_is_caught(tmp_path, monkeypatch):
    original = nn.backward_batch

    def flipped(*args, **kwargs):
        return {k: -v for k, v in original(*args, **kwargs).items()}

    monkeypatch.setattr(nn, "backward_batch", flipped)
    monkeypatch.setattr(optim, "backward_batch", flipped)
    out = run(tmp_path, "train_np_bigru")
    assert out.failed > 0


def test_wrong_accountant_is_caught(tmp_path, monkeypatch):
    original = privacy.compute_epsilon

    def inflated(*args, **kwargs):
        eps, order = original(*args, **kwargs)
        return eps * 1.001, order

    monkeypatch.setattr(privacy, "compute_epsilon", inflated)
    out = run(tmp_path, "release_score_bilstm")
    assert out.failed > 0


def test_traced_runs_report_every_layer(tmp_path):
    names = {m["name"] for m in _bench()["per_layer"]}
    dp = run(tmp_path, "train_dp_bigru", trace=True)
    np_ = run(tmp_path, "train_np_bigru", trace=True)
    for out in (dp, np_):
        assert out.failed == 0
        assert set(out.metrics) == names
    step = ("nn.backward_stack.share", "optim.dp_aggregate.share")
    assert sum(dp.metrics[k][0] for k in step) > 0
    assert all(np_.metrics[k][0] == 0 for k in step)
    assert np_.metrics["nn.backward_mean.calls"][0] > 0


def test_missing_layer_is_reported_absent(tmp_path, monkeypatch):
    monkeypatch.delattr(optim, "dp_aggregate")
    out = run(tmp_path, "release_score_bilstm", trace=True)
    assert out.failed == 0
    assert out.metrics["trace.absent_layers"][0] == 1
    assert out.notes["absent"] == ["dpforecast.optim.dp_aggregate"]


def test_synthetic_input_repeats_and_exercises_cleaning(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    summary = synth.write_csv(a, 72, seed=4)
    synth.write_csv(b, 72, seed=4)
    assert a.read_bytes() == b.read_bytes()
    series = dpforecast.load_csv(a)
    assert series.counts.shape == (72 * 48, 6)
    gaps = int(np.isnan(series.counts).any(axis=1).sum())
    assert gaps == summary.n_dropped > 0
    counts, _, cells = synth.synth_counts(72, 4)
    cleaned = dpforecast.iqr_clean(series)
    assert (cleaned.counts.flat[cells] != counts.flat[cells]).all()


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_np_bigru",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _bench():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)
