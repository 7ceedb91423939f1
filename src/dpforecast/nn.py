"""Recurrent cells (LSTM, GRU), bidirectional networks, and exact BPTT.

Parameters live in a flat ``dict[str, np.ndarray]`` keyed by direction
prefix plus tensor name. One direction of a GRU holds

    W_z, W_r, W_c : (d, h)   input weights (update, reset, candidate)
    U_z, U_r, U_c : (h, h)   recurrent weights
    b_z, b_r, b_c : (h,)     biases

and one direction of an LSTM holds

    W_xi, W_xf, W_xo, W_xg : (d, h)
    W_hi, W_hf, W_ho, W_hg : (h, h)
    b_i,  b_f,  b_o,  b_g  : (h,)

Keys are prefixed ``fw_`` (always) and ``bw_`` (bidirectional only); the
dense output layer is ``out_W`` (H, output) and ``out_b`` (output,) with
H = hidden or 2*hidden under bidirectional concatenation.

Step equations, with x_t the input row and ⊗ elementwise:

    GRU:   z = sigmoid(x W_z + h U_z + b_z)
           r = sigmoid(x W_r + h U_r + b_r)
           c = act(x W_c + (r ⊗ h) U_c + b_c)
           h' = (1 - z) ⊗ h + z ⊗ c

    LSTM:  i, f, o = sigmoid(x W_x* + h W_h* + b_*)
           g = act(x W_xg + h W_hg + b_g)
           c' = f ⊗ c + i ⊗ g
           h' = o ⊗ act(c')

``act`` is tanh or relu; gates are always sigmoid. The loss everywhere is
per-example MAE over output coordinates, with the subgradient at a zero
residual defined as 0.

The forward pass keeps a tape per direction: the input in direction order
(n, T, d), the hidden (and LSTM cell) states stacked as (T+1, n, h), and
the gate values and pre-activations stacked as (T, n, h). The backward
pass runs the recurrence over ``dh`` step by step, collects each step's
gate deltas in (T, n, h) arrays, and then forms each weight gradient in
one reduction: a (k, T*n) @ (T*n, h) matmul for the batch mean, or a
batched (n, k, T) @ (n, T, h) matmul for per-example gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import RngStream

Params = dict[str, np.ndarray]

GRU_INPUT = ("W_z", "W_r", "W_c")
GRU_RECUR = ("U_z", "U_r", "U_c")
GRU_BIAS = ("b_z", "b_r", "b_c")
LSTM_INPUT = ("W_xi", "W_xf", "W_xo", "W_xg")
LSTM_RECUR = ("W_hi", "W_hf", "W_ho", "W_hg")
LSTM_BIAS = ("b_i", "b_f", "b_o", "b_g")


class StaleTapeError(RuntimeError):
    """Raised when backward() is given a tape from different parameters."""


@dataclass(frozen=True)
class ModelSpec:
    """Architecture of a single-hidden-layer recurrent forecaster.

    ``output_size`` equals the number of regions being forecast. The
    bidirectional merge is concatenation of the two final hidden states.
    """

    cell: str = "gru"
    bidirectional: bool = True
    hidden_size: int = 32
    input_size: int = 1
    output_size: int = 1
    activation: str = "relu"

    def __post_init__(self):
        if self.cell not in ("lstm", "gru"):
            raise ValueError(f"cell must be 'lstm' or 'gru', got {self.cell!r}")
        if self.activation not in ("relu", "tanh"):
            raise ValueError(f"activation must be 'relu' or 'tanh', got {self.activation!r}")
        if self.hidden_size < 1 or self.input_size < 1 or self.output_size < 1:
            raise ValueError("hidden_size, input_size and output_size must be >= 1")

    @property
    def directions(self) -> tuple[str, ...]:
        return ("fw", "bw") if self.bidirectional else ("fw",)

    @property
    def dense_input(self) -> int:
        return self.hidden_size * len(self.directions)


def _sigmoid(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    out = np.empty_like(a) if out is None else out
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ea = np.exp(a[~pos])
    out[~pos] = ea / (1.0 + ea)
    return out


def _act(a: np.ndarray, kind: str, out: np.ndarray | None = None) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(a, out=out)
    return np.maximum(a, 0.0, out=out)


def _act_grad(pre: np.ndarray, out: np.ndarray, kind: str) -> np.ndarray:
    # tanh' from the activation output; relu' from the pre-activation,
    # with the subgradient at exactly 0 taken as 0.
    if kind == "tanh":
        return 1.0 - out * out
    return (pre > 0).astype(np.float64)


def param_shapes(spec: ModelSpec) -> dict[str, tuple[int, ...]]:
    """Deterministically ordered name -> shape map for ``spec``."""
    d, h = spec.input_size, spec.hidden_size
    if spec.cell == "gru":
        groups = [(GRU_INPUT, (d, h)), (GRU_RECUR, (h, h)), (GRU_BIAS, (h,))]
    else:
        groups = [(LSTM_INPUT, (d, h)), (LSTM_RECUR, (h, h)), (LSTM_BIAS, (h,))]
    shapes: dict[str, tuple[int, ...]] = {}
    for direction in spec.directions:
        for names, shape in groups:
            for name in names:
                shapes[f"{direction}_{name}"] = shape
    shapes["out_W"] = (spec.dense_input, spec.output_size)
    shapes["out_b"] = (spec.output_size,)
    return shapes


def init_params(spec: ModelSpec, rng: RngStream) -> Params:
    """Glorot-uniform weights (per-gate fans), zero biases."""
    gen = rng.generator()
    params: Params = {}
    for name, shape in param_shapes(spec).items():
        if len(shape) == 1:
            params[name] = np.zeros(shape)
        else:
            bound = np.sqrt(6.0 / (shape[0] + shape[1]))
            params[name] = gen.uniform(-bound, bound, size=shape)
    return params


def direction_view(params: Mapping[str, np.ndarray], direction: str) -> Params:
    """Un-prefixed view of one direction's cell parameters."""
    prefix = direction + "_"
    return {k[len(prefix):]: v for k, v in params.items() if k.startswith(prefix)}


def _check_vec(x, dim: int, name: str):
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != dim:
        raise ValueError(f"{name} has trailing dimension {x.shape[-1]}, expected {dim}")
    return x


def lstm_step(p: Mapping[str, np.ndarray], x_t, h_prev, c_prev, activation: str = "tanh"):
    """One LSTM step; returns (h_t, c_t). Accepts (d,)/(h,) or batched rows."""
    d, h = p["W_xi"].shape
    x_t = _check_vec(x_t, d, "x_t")
    h_prev = _check_vec(h_prev, h, "h_prev")
    c_prev = _check_vec(c_prev, h, "c_prev")
    i = _sigmoid(x_t @ p["W_xi"] + h_prev @ p["W_hi"] + p["b_i"])
    f = _sigmoid(x_t @ p["W_xf"] + h_prev @ p["W_hf"] + p["b_f"])
    o = _sigmoid(x_t @ p["W_xo"] + h_prev @ p["W_ho"] + p["b_o"])
    g = _act(x_t @ p["W_xg"] + h_prev @ p["W_hg"] + p["b_g"], activation)
    c_t = f * c_prev + i * g
    h_t = o * _act(c_t, activation)
    return h_t, c_t


def gru_step(p: Mapping[str, np.ndarray], x_t, h_prev, activation: str = "tanh"):
    """One GRU step; returns h_t. Accepts (d,)/(h,) or batched rows."""
    d, h = p["W_z"].shape
    x_t = _check_vec(x_t, d, "x_t")
    h_prev = _check_vec(h_prev, h, "h_prev")
    z = _sigmoid(x_t @ p["W_z"] + h_prev @ p["U_z"] + p["b_z"])
    r = _sigmoid(x_t @ p["W_r"] + h_prev @ p["U_r"] + p["b_r"])
    c = _act(x_t @ p["W_c"] + (r * h_prev) @ p["U_c"] + p["b_c"], activation)
    return (1.0 - z) * h_prev + z * c


@dataclass
class _DirectionCache:
    """Forward intermediates of one direction, stacked over time.

    ``xs`` is the direction-ordered input (n, T, d). ``hs`` (and, for the
    LSTM, ``cs``) is (T+1, n, h): row 0 is the zero initial state and row
    t+1 the state after step t. Each gate array is (T, n, h), row t written
    by step t; the fields of the other cell stay None. The forward pass
    allocates every array once and writes each row in place, and the
    backward pass reads whole arrays for its per-weight reductions.
    """

    xs: np.ndarray
    hs: np.ndarray
    # GRU
    z: np.ndarray | None = None
    r: np.ndarray | None = None
    c: np.ndarray | None = None
    a_c: np.ndarray | None = None
    # LSTM
    cs: np.ndarray | None = None
    i: np.ndarray | None = None
    f: np.ndarray | None = None
    o: np.ndarray | None = None
    g: np.ndarray | None = None
    a_g: np.ndarray | None = None
    act_c: np.ndarray | None = None

    @classmethod
    def allocate(cls, cell: str, xs: np.ndarray, hidden: int) -> "_DirectionCache":
        n, T, _ = xs.shape
        gates = ("z", "r", "c", "a_c") if cell == "gru" else ("i", "f", "o", "g", "a_g", "act_c")
        arrays = {name: np.empty((T, n, hidden)) for name in gates}
        if cell == "lstm":
            arrays["cs"] = np.zeros((T + 1, n, hidden))
        return cls(xs, np.zeros((T + 1, n, hidden)), **arrays)

    @property
    def h_prev(self) -> np.ndarray:
        return self.hs[:-1]

    @property
    def final(self) -> np.ndarray:
        return self.hs[-1]

    @property
    def c_prev(self) -> np.ndarray:
        return self.cs[:-1]

    @property
    def c_t(self) -> np.ndarray:
        return self.cs[1:]


@dataclass
class ForwardTape:
    """Intermediates retained by forward() for exact backpropagation."""

    spec: ModelSpec
    params: Mapping[str, np.ndarray]
    caches: dict[str, _DirectionCache]
    h_cat: np.ndarray
    prediction: np.ndarray

    @property
    def direction_finals(self) -> dict[str, np.ndarray]:
        return {d: c.final for d, c in self.caches.items()}


def _run_direction(spec: ModelSpec, dp: Params, xs: np.ndarray) -> _DirectionCache:
    cache = _DirectionCache.allocate(spec.cell, xs, spec.hidden_size)
    act = spec.activation
    hs = cache.hs
    if spec.cell == "gru":
        for t in range(xs.shape[1]):
            x_t, h = xs[:, t, :], hs[t]
            z = _sigmoid(x_t @ dp["W_z"] + h @ dp["U_z"] + dp["b_z"], out=cache.z[t])
            r = _sigmoid(x_t @ dp["W_r"] + h @ dp["U_r"] + dp["b_r"], out=cache.r[t])
            a_c = np.add(x_t @ dp["W_c"] + (r * h) @ dp["U_c"], dp["b_c"], out=cache.a_c[t])
            c = _act(a_c, act, out=cache.c[t])
            np.add((1.0 - z) * h, z * c, out=hs[t + 1])
    else:
        cs = cache.cs
        for t in range(xs.shape[1]):
            x_t, h = xs[:, t, :], hs[t]
            i = _sigmoid(x_t @ dp["W_xi"] + h @ dp["W_hi"] + dp["b_i"], out=cache.i[t])
            f = _sigmoid(x_t @ dp["W_xf"] + h @ dp["W_hf"] + dp["b_f"], out=cache.f[t])
            o = _sigmoid(x_t @ dp["W_xo"] + h @ dp["W_ho"] + dp["b_o"], out=cache.o[t])
            a_g = np.add(x_t @ dp["W_xg"] + h @ dp["W_hg"], dp["b_g"], out=cache.a_g[t])
            g = _act(a_g, act, out=cache.g[t])
            c_t = np.add(f * cs[t], i * g, out=cs[t + 1])
            act_c = _act(c_t, act, out=cache.act_c[t])
            np.multiply(o, act_c, out=hs[t + 1])
    return cache


def forward_batch(spec: ModelSpec, params: Mapping[str, np.ndarray], windows: np.ndarray):
    """Run the network over a batch of windows (n, lag, d).

    Initial hidden (and cell) states are zero for every window; the
    backward direction consumes the reversed window. Returns
    ``(predictions (n, output), tape)``.
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3:
        raise ValueError(f"windows must be 3-d (n, lag, d), got shape {windows.shape}")
    if windows.shape[1] < 1:
        raise ValueError("window must contain at least one step")
    if windows.shape[2] != spec.input_size:
        raise ValueError(
            f"window feature size {windows.shape[2]} != spec input_size {spec.input_size}"
        )
    caches: dict[str, _DirectionCache] = {}
    finals = []
    for direction in spec.directions:
        xs = windows if direction == "fw" else windows[:, ::-1, :]
        cache = _run_direction(spec, direction_view(params, direction), xs)
        caches[direction] = cache
        finals.append(cache.final)
    h_cat = np.concatenate(finals, axis=1) if len(finals) > 1 else finals[0]
    prediction = h_cat @ params["out_W"] + params["out_b"]
    return prediction, ForwardTape(spec, params, caches, h_cat, prediction)


def forward(spec: ModelSpec, params: Mapping[str, np.ndarray], window: np.ndarray):
    """Single-window forward pass; returns ``(prediction (output,), tape)``."""
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 2:
        raise ValueError(f"window must be 2-d (lag, d), got shape {window.shape}")
    pred, tape = forward_batch(spec, params, window[None])
    return pred[0], tape


def _sum_outer(a: np.ndarray, da: np.ndarray, per_example: bool) -> np.ndarray:
    """Sum over steps t of ``a[t].T @ da[t]``, for a (T, n, k) and da (T, n, h).

    Returns the (k, h) sum over steps and batch rows, one matmul over T*n
    rows; with ``per_example`` the (n, k, h) per-row sums, one batched
    (n, k, T) @ (n, T, h) matmul.
    """
    if per_example:
        return np.matmul(a.transpose(1, 2, 0), da.transpose(1, 0, 2))
    T, n, k = a.shape
    return a.reshape(T * n, k).T @ da.reshape(T * n, -1)


def _backprop_direction(
    spec: ModelSpec,
    dp: Params,
    cache: _DirectionCache,
    dh_final: np.ndarray,
    per_example: bool,
) -> Params:
    act = spec.activation
    xs = cache.xs.transpose(1, 0, 2)
    h_prev = cache.h_prev
    dh = dh_final
    if spec.cell == "gru":
        da_z, da_r, da_c = np.empty((3,) + cache.z.shape)
        for t in reversed(range(xs.shape[0])):
            z, r, c = cache.z[t], cache.r[t], cache.c[t]
            np.multiply(dh * z, _act_grad(cache.a_c[t], c, act), out=da_c[t])
            d_rh = da_c[t] @ dp["U_c"].T
            np.multiply(dh * (c - h_prev[t]) * z, 1.0 - z, out=da_z[t])
            np.multiply(d_rh * h_prev[t] * r, 1.0 - r, out=da_r[t])
            dh = dh * (1.0 - z) + d_rh * r + da_z[t] @ dp["U_z"].T + da_r[t] @ dp["U_r"].T
        weights = {
            "W_z": (xs, da_z), "W_r": (xs, da_r), "W_c": (xs, da_c),
            "U_z": (h_prev, da_z), "U_r": (h_prev, da_r), "U_c": (cache.r * h_prev, da_c),
        }
        biases = {"b_z": da_z, "b_r": da_r, "b_c": da_c}
    else:
        da_i, da_f, da_o, da_g = np.empty((4,) + cache.i.shape)
        dc = np.zeros_like(dh_final)
        for t in reversed(range(xs.shape[0])):
            i, f, o, g, act_c = cache.i[t], cache.f[t], cache.o[t], cache.g[t], cache.act_c[t]
            dc_t = dc + dh * o * _act_grad(cache.c_t[t], act_c, act)
            np.multiply(dh * act_c * o, 1.0 - o, out=da_o[t])
            np.multiply(dc_t * cache.c_prev[t] * f, 1.0 - f, out=da_f[t])
            np.multiply(dc_t * g * i, 1.0 - i, out=da_i[t])
            np.multiply(dc_t * i, _act_grad(cache.a_g[t], g, act), out=da_g[t])
            dc = dc_t * f
            dh = (
                da_i[t] @ dp["W_hi"].T
                + da_f[t] @ dp["W_hf"].T
                + da_o[t] @ dp["W_ho"].T
                + da_g[t] @ dp["W_hg"].T
            )
        weights = {
            "W_xi": (xs, da_i), "W_xf": (xs, da_f), "W_xo": (xs, da_o), "W_xg": (xs, da_g),
            "W_hi": (h_prev, da_i), "W_hf": (h_prev, da_f),
            "W_ho": (h_prev, da_o), "W_hg": (h_prev, da_g),
        }
        biases = {"b_i": da_i, "b_f": da_f, "b_o": da_o, "b_g": da_g}
    grads = {name: _sum_outer(a, da, per_example) for name, (a, da) in weights.items()}
    for name, da in biases.items():
        grads[name] = da.sum(axis=0) if per_example else da.sum(axis=(0, 1))
    return grads


def backward_batch(
    spec: ModelSpec,
    params: Mapping[str, np.ndarray],
    tape: ForwardTape,
    targets: np.ndarray,
    loss: str = "mae",
    reduce: str = "mean",
) -> Params:
    """Gradients of per-example MAE w.r.t. every parameter tensor.

    ``reduce="mean"`` returns the average gradient over the batch;
    ``reduce="stack"`` returns per-example gradients with a leading batch
    axis on every tensor.
    """
    if loss != "mae":
        raise ValueError(f"unsupported loss {loss!r}")
    if reduce not in ("mean", "stack"):
        raise ValueError(f"reduce must be 'mean' or 'stack', got {reduce!r}")
    if tape.params is not params:
        raise StaleTapeError("tape was produced by a different parameter set")
    targets = np.asarray(targets, dtype=np.float64)
    pred = tape.prediction
    if targets.shape != pred.shape:
        raise ValueError(f"targets shape {targets.shape} != predictions {pred.shape}")
    n, out = pred.shape
    per_example = reduce == "stack"
    h = spec.hidden_size

    dpred = np.sign(pred - targets) / out
    grads: Params = {}
    grads["out_W"] = _sum_outer(tape.h_cat[None], dpred[None], per_example)
    grads["out_b"] = dpred if per_example else dpred.sum(axis=0)
    dh_cat = dpred @ params["out_W"].T
    for k, direction in enumerate(spec.directions):
        dh_final = dh_cat[:, k * h:(k + 1) * h]
        dgrads = _backprop_direction(
            spec, direction_view(params, direction), tape.caches[direction],
            dh_final, per_example,
        )
        for name, g in dgrads.items():
            grads[f"{direction}_{name}"] = g
    if not per_example:
        grads = {k: v / n for k, v in grads.items()}
    return grads


def backward(
    spec: ModelSpec,
    params: Mapping[str, np.ndarray],
    tape: ForwardTape,
    target: np.ndarray,
    loss: str = "mae",
) -> Params:
    """Single-example gradient of MAE; ``tape`` must come from forward()."""
    target = np.asarray(target, dtype=np.float64)
    if target.ndim == 1:
        target = target[None]
    return backward_batch(spec, params, tape, target, loss=loss, reduce="mean")


def save_params(path, params: Mapping[str, np.ndarray]) -> None:
    """Write parameters as a named-tensor archive; round-trips bit-exactly."""
    np.savez(path, **{k: np.asarray(v) for k, v in params.items()})


def load_params(path) -> Params:
    with np.load(path) as data:
        return {k: data[k] for k in data.files}
