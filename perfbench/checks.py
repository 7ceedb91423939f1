"""Output checks against references recorded from a known-good commit.

The probe is a fixed batch of five paper-shape windows (lag 6, d = 10,
six outputs) run through a BiGRU and a BiLSTM with hidden size 175. A
gradient tensor is summarised by its L2 norm and its projection on a fixed
random direction; together they catch a wrong sign, scale or entry while
tolerating the reassociated float sums of a faithful rewrite.

``python3 perfbench/record_reference.py`` rewrites ``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from dpforecast import nn, optim, privacy
from dpforecast.core import RngStream

REFERENCE_PATH = Path(__file__).with_name("reference.json")
RTOL = 1e-9
PROBE_SEED = 20220501
PROBE_CLIP = 1.35  # probe per-example norms are 1.30-1.44: two clip, three do not
# (batch, noise multiplier) of the four golden accountant configurations,
# each at n = 3120 slots, 100 epochs and delta = 1e-7.
GOLDEN = ((5, 35.0), (5, 70.0), (10, 140.0), (5, 500.0))
GOLDEN_N, GOLDEN_EPOCHS, GOLDEN_DELTA = 3120, 100, 1e-7


def golden_epsilons(compute_epsilon) -> list[list[float]]:
    """``[epsilon, best_order]`` for each golden configuration."""
    out = []
    for batch, sigma in GOLDEN:
        steps = GOLDEN_EPOCHS * (GOLDEN_N // batch)
        eps, order = compute_epsilon(batch / GOLDEN_N, sigma, steps, GOLDEN_DELTA)
        out.append([eps, order])
    return out


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _summary(grads, directions) -> dict[str, list[float]]:
    return {k: [float(np.linalg.norm(v)), float(np.vdot(v, directions[k]))]
            for k, v in grads.items()}


def probe_values() -> dict:
    """Everything the probe checks compare, computed with the package as it is."""
    gen = np.random.default_rng(PROBE_SEED)
    windows = gen.uniform(0.0, 1.0, size=(5, 6, 10))
    targets = gen.uniform(0.0, 1.0, size=(5, 6))
    out: dict = {}
    for cell in ("gru", "lstm"):
        spec = nn.ModelSpec(cell, True, 175, 10, 6, "relu")
        params = nn.init_params(spec, RngStream(PROBE_SEED, 1))
        dirs = {k: _unit(gen.standard_normal(v.shape)) for k, v in params.items()}
        preds, tape = nn.forward_batch(spec, params, windows)
        out[f"{cell}.forward"] = preds.ravel().tolist()
        if cell != "gru":
            continue
        mean = nn.backward_batch(spec, params, tape, targets, reduce="mean")
        out["gru.backward_mean"] = _summary(mean, dirs)
        stack = nn.backward_batch(spec, params, tape, targets, reduce="stack")
        per_example = [{k: v[i] for k, v in stack.items()} for i in range(windows.shape[0])]
        out["gru.backward_stack"] = [_summary(g, dirs) for g in per_example]
        if hasattr(optim, "dp_aggregate"):
            agg = optim.dp_aggregate(per_example, PROBE_CLIP, 0.0, RngStream(0))
            out["gru.dp_aggregate"] = _summary(agg, dirs)
    out["compute_epsilon"] = golden_epsilons(privacy.compute_epsilon)
    return out


def _close_vector(got, ref) -> bool:
    got, ref = np.asarray(got, dtype=np.float64), np.asarray(ref, dtype=np.float64)
    return got.shape == ref.shape and bool(
        np.linalg.norm(got - ref) <= RTOL * max(np.linalg.norm(ref), 1e-300))


def _close_summary(got: dict, ref: dict) -> bool:
    if set(got) != set(ref):
        return False
    for k, (ref_norm, ref_proj) in ref.items():
        norm, proj = got[k]
        # Directions are unit vectors, so |proj error| <= ||gradient error||.
        tol = RTOL * max(ref_norm, 1e-300)
        if abs(norm - ref_norm) > tol or abs(proj - ref_proj) > tol:
            return False
    return True


def compare(observed: dict, reference: dict) -> dict[str, bool]:
    """``check name -> passed`` for every reference the observation covers."""
    results = {}
    for key, ref in reference.items():
        if key not in observed:
            continue  # a renamed or merged function: reported, not failed
        got = observed[key]
        if key.endswith(".forward"):
            ok = _close_vector(got, ref)
        elif key == "compute_epsilon":
            ok = all(o == r_o and abs(e - r_e) <= RTOL * r_e
                     for (e, o), (r_e, r_o) in zip(got, ref)) and len(got) == len(ref)
        elif key == "gru.backward_stack":
            ok = len(got) == len(ref) and all(map(_close_summary, got, ref))
        else:
            ok = _close_summary(got, ref)
        results[key] = ok
    return results


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def run_probe_checks() -> dict[str, bool]:
    """Run the probe with the package as it is now and compare it to the reference."""
    reference = load_reference()
    observed = probe_values()
    results = compare(observed, reference)
    for key in reference:
        if key not in observed:
            print(f"# check {key}: skipped, function absent")
    return results


def digest(params) -> str:
    """SHA-256 over parameter names, shapes and bytes in key order."""
    h = hashlib.sha256()
    for k in sorted(params):
        v = np.ascontiguousarray(params[k])
        h.update(k.encode())
        h.update(str(v.shape).encode())
        h.update(v.tobytes())
    return h.hexdigest()
