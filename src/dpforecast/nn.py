"""Recurrent cells (LSTM, GRU), bidirectional networks, and exact BPTT.

Parameters are a ``dict[str, np.ndarray]`` keyed by direction prefix plus
tensor name. One direction of a GRU holds

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

The packed layout. ``init_params`` and ``pack_params`` return a
:class:`Packed`: every named tensor as a view into one contiguous float64
vector, which the ``Packed`` holds as ``vector``. Each direction's gates
are fused: the vector holds, per direction in order, ``W`` (d, G*h), ``U``
(h, G*h) and ``b`` (G*h,), each row-major, then ``out_W`` and ``out_b``,
with G = 3 for the GRU and G = 4 for the LSTM. A gate's tensor is a column
block of its fused tensor in the gate order above: ``W_z`` is ``W[:, :h]``,
``W_r`` is ``W[:, h:2h]``, ``W_xg`` is ``W[:, 3h:]``; ``Packed.fused`` holds
the fused tensors. The optimizer updates the vector in place, and the mean
and clipped backward passes return their gradients as a fresh ``Packed``. The forward pass
reads the fused tensors of a ``Packed`` of its spec; any other mapping of
named tensors (``load_params`` output, a hand-built dict) is first copied
into a fresh packed vector.

Step equations, with x_t the input row, a = x_t W + b the fused input
projection of that step and ⊗ elementwise:

    GRU:   [z | r] = sigmoid(a[:, :2h] + h U[:, :2h])
           c = act(a[:, 2h:] + (r ⊗ h) U[:, 2h:])
           h' = (1 - z) ⊗ h + z ⊗ c

    LSTM:  [i | f | o] = sigmoid((a + h U)[:, :3h])
           g = act((a + h U)[:, 3h:])
           c' = f ⊗ c + i ⊗ g
           h' = o ⊗ act(c')

``act`` is tanh or relu; gates are always sigmoid. The loss everywhere is
per-example MAE over output coordinates, with the subgradient at a zero
residual defined as 0.

The forward pass computes ``a`` for all T steps in one matmul and keeps a
tape per direction: the input in time-major direction order (T, n, d), the
GRU's hidden states and the LSTM's cell states stacked as (T+1, n, h), and
the gate values stacked gate-major as (T, G, n, h). Of the LSTM's hidden
states only the last is kept: its steps take turns in two slots, and the
backward rebuilds h_t as o_t ⊗ act(c_t) from the gates and cell states,
the forward's own product of the same values, so the same bits. No
pre-activation is kept, since each activation's derivative is read from
its output: tanh' is 1 - out**2 and relu' is out > 0. The projection
matmul writes its row-major (T*n, G*h) product over the gates' memory, and
step t turns its (n, G*h) slab into (G, n, h) gate values in place, so
every gate's (n, h) block is contiguous. The GRU permutes the slab to
gate-major through one step's scratch, then runs its elementwise work on
whole blocks, its recurrent products added through a gate-major view of
their fused row-major shapes. The LSTM sums the slab and its fused product
``h U`` row-major in that scratch and reads the sums once, through a
gate-major view, writing each gate block once. A direction's states and
gates are views of one fresh block per call, so no tape shares memory with
another call's, and the steps of a call reuse one set of scratch arrays
for the cell's temporaries (one set per direction when a large
bidirectional pass runs its directions on two threads; see
``forward_batch``). Step 0 has no recurrent term in
either pass, since the initial state is zero: the forward skips ``h U``
there (and the GRU's ``(r ⊗ h) U_c``), and the backward skips the t = 0
matmuls whose results would only feed the initial state, with the GRU's
reset delta at t = 0 set to 0. The backward pass runs the recurrence over
``dh`` step by step, with the LSTM's gate deltas (the GRU's update and
reset deltas) copied to one row-major (n, G*h) operand (n, 2h for the GRU)
for one fused matmul per step, and collects the gate deltas gate-major in
a (G, T, n, h) array, so each gate's deltas are one contiguous block.
Every weight gradient is a sum over rows of ``a.T @ delta``, with ``a``
the input of its tensor (``xs``, ``h_prev`` or, for the GRU's candidate,
``r ⊗ h_prev``; a bias's input is a column of ones). Two reductions share
the recurrence, each forming a gate tensor's gradient in one reduction:

- the batch mean, a (k, T*n) @ (T*n, h) matmul written straight into the
  packed gradient vector; per-example gradients (``reduce="stack"``) are
  this reduction run on one batch row at a time;
- DP-SGD's clipped sum, which never forms a per-example gradient. A
  microbatch's gradient is ``A.T @ D`` over its rows, so its squared
  norm is ``<A A.T, D D.T>``: the inner product of two (s*T, s*T) Gram
  matrices, summed over the weight groups and clamped at 0 against
  rounding. Each microbatch's rows of ``dpred`` and of the deltas are
  then scaled by its clip factor over its size, and the mean reduction's
  matmuls sum them into a fresh packed vector (the book-keeping form of
  ghost clipping: Li et al. 2022; Bu et al. 2023).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .core import RngStream

Params = dict[str, np.ndarray]

# Per-gate tensor names of one direction, in gate order: the input weights,
# the recurrent weights and the biases. Each row is one fused tensor.
GATE_NAMES = {
    "gru": (("W_z", "W_r", "W_c"), ("U_z", "U_r", "U_c"), ("b_z", "b_r", "b_c")),
    "lstm": (
        ("W_xi", "W_xf", "W_xo", "W_xg"),
        ("W_hi", "W_hf", "W_ho", "W_hg"),
        ("b_i", "b_f", "b_o", "b_g"),
    ),
}


class StaleTapeError(RuntimeError):
    """Raised when backward_batch() gets a tape forward_batch() made from other parameters."""


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
    # 0.5 * (1 + tanh(a / 2)): no overflow for any a, and no boolean masks.
    out = np.multiply(a, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _act(a: np.ndarray, kind: str, out: np.ndarray | None = None) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(a, out=out)
    return np.maximum(a, 0.0, out=out)


def _act_grad(out: np.ndarray, kind: str) -> np.ndarray:
    # Both from the activation's output. relu' is pre > 0, the subgradient
    # at exactly 0 taken as 0, and relu(pre) > 0 is the same mask: relu
    # keeps -0.0 and NaN, neither of them above 0.
    if kind == "tanh":
        return 1.0 - out * out
    return (out > 0).astype(np.float64)


def _layout(shapes: Mapping[str, tuple[int, ...]]) -> tuple[tuple, ...]:
    """(name, slice, shape) of consecutive row-major blocks, one per shape, in order."""
    layout, lo = [], 0
    for name, shape in shapes.items():
        hi = lo + math.prod(shape)
        layout.append((name, slice(lo, hi), shape))
        lo = hi
    return tuple(layout)


def _views(flat: np.ndarray, layout) -> Params:
    """The blocks of the 1-d ``flat`` that ``layout`` names, as views."""
    return {name: flat[span].reshape(shape) for name, span, shape in layout}


def _gate_major(a: np.ndarray, k: int) -> np.ndarray:
    """The (G, n, k) gate-major view of the row-major fused rows ``a`` (n, G*k)."""
    return a.reshape(a.shape[0], -1, k).transpose(1, 0, 2)


@lru_cache(maxsize=64)
def _view_plan(spec: ModelSpec):
    """``(size, fused, named)``: the packed layout of ``spec``, built once per spec.

    ``size`` is the vector's length and ``fused`` the ``_layout`` of its
    fused tensors, in the vector's order. ``named`` holds, in
    ``param_shapes`` order, each named tensor's (name, shape, fused name,
    index): the index of its gate's column block in the fused tensor, or
    None where it is the fused tensor itself.
    """
    d, k = spec.input_size, spec.hidden_size
    width = len(GATE_NAMES[spec.cell][0]) * k
    shapes: dict[str, tuple[int, ...]] = {}
    named = []
    for direction in spec.directions:
        for group, rows, names in zip("WUb", (d, k, None), GATE_NAMES[spec.cell]):
            source = f"{direction}_{group}"
            shapes[source] = (width,) if rows is None else (rows, width)
            for j, name in enumerate(names):
                cols = slice(j * k, (j + 1) * k)
                named.append((f"{direction}_{name}", shapes[source][:-1] + (k,), source,
                              cols if rows is None else (slice(None), cols)))
    shapes["out_W"] = (spec.dense_input, spec.output_size)
    shapes["out_b"] = (spec.output_size,)
    named += [(name, shapes[name], name, None) for name in ("out_W", "out_b")]
    fused = _layout(shapes)
    return sum(math.prod(shape) for _, _, shape in fused), fused, tuple(named)


def param_count(spec: ModelSpec) -> int:
    """Length of the packed parameter vector."""
    return _view_plan(spec)[0]


class Packed(Mapping):
    """The named per-gate tensors of ``spec``, as views of one packed vector.

    ``vector`` is the 1-d float64 vector in the packed layout and ``fused``
    its fused tensors (``fw_W``, ``fw_U``, ..., ``out_b``); the mapping
    holds the per-gate views in ``param_shapes`` order. It has no item
    assignment: write through a view to change a tensor, or take
    ``dict(p)`` for a loose copy of the mapping. Pickling sends the spec
    and the vector, so a copy's views share its own vector.
    """

    __slots__ = ("spec", "vector", "fused", "_named")

    def __init__(self, spec: ModelSpec, vector: np.ndarray):
        size, fused, named = _view_plan(spec)
        if not (isinstance(vector, np.ndarray) and vector.dtype == np.float64
                and vector.shape == (size,) and vector.flags.c_contiguous):
            raise ValueError(f"the packed vector of {spec} is a contiguous float64 array "
                             f"of shape ({size},)")
        self.spec, self.vector = spec, vector
        self.fused = _views(vector, fused)
        self._named = {name: self.fused[source] if index is None else self.fused[source][index]
                       for name, _, source, index in named}

    def __getitem__(self, name: str) -> np.ndarray:
        return self._named[name]

    def __iter__(self):
        return iter(self._named)

    def __len__(self) -> int:
        return len(self._named)

    def __reduce__(self):
        return Packed, (self.spec, self.vector)


def param_shapes(spec: ModelSpec) -> dict[str, tuple[int, ...]]:
    """Deterministically ordered name -> shape map for ``spec``."""
    return {name: shape for name, shape, _, _ in _view_plan(spec)[2]}


def pack_params(spec: ModelSpec, tensors: Mapping[str, np.ndarray] | None = None) -> Packed:
    """A fresh :class:`Packed` holding copies of ``tensors``.

    With ``tensors=None`` the vector is zero. The caller's arrays are never
    shared with the result.
    """
    packed = Packed(spec, np.zeros(param_count(spec)))
    if tensors is not None:
        for name, view in packed.items():
            value = np.asarray(tensors[name], dtype=np.float64)
            if value.shape != view.shape:
                raise ValueError(f"{name} has shape {value.shape}, expected {view.shape}")
            view[...] = value
    return packed


def init_params(spec: ModelSpec, rng: RngStream) -> Packed:
    """Glorot-uniform weights (per-gate fans), zero biases, packed."""
    gen = rng.generator()
    params = pack_params(spec)
    for value in params.values():
        if value.ndim == 2:
            bound = np.sqrt(6.0 / (value.shape[0] + value.shape[1]))
            value[...] = gen.uniform(-bound, bound, size=value.shape)
    return params


def _gru_cell(slab, a, h, U, act: str, out, rec, rec_gates, tmp, first: bool):
    """One GRU step, in place on its input projection.

    ``slab`` is the step's projection, row-major (n, 3h), and ``a`` its
    gate-major view (3, n, h) over the same memory, to be filled: the slab
    is first permuted to gate-major through ``rec``. Adds the recurrent
    terms and applies the gates, so that ``a`` ends as [z, r, c], each
    pre-activation overwritten by its value; writes the new hidden state
    into ``out``. ``rec`` (n, 3h) and ``tmp`` (n, h) are scratch: the
    recurrent products are written row-major into ``rec``'s column blocks
    and added through ``rec_gates``, its gate-major view. With ``first``,
    ``h`` is the zero initial state, whose recurrent products are +0.0 for
    finite ``U``, and they are skipped.
    """
    k = h.shape[-1]
    np.copyto(rec, slab)
    np.copyto(a, rec_gates)
    zr = a[:2]
    if not first:
        np.matmul(h, U[:, :2 * k], out=rec[:, :2 * k])
        zr += rec_gates[:2]
    z, r = _sigmoid(zr, out=zr)
    if first:
        # Adding 0.0 where (r h) U would add +0.0: a -0.0 turns into +0.0 all the same.
        a[2] += 0.0
    else:
        np.matmul(np.multiply(r, h, out=tmp), U[:, 2 * k:], out=rec[:, 2 * k:])
        a[2] += rec_gates[2]
    c = _act(a[2], act, out=a[2])
    # h' = z c + (1 - z) h, the two terms summed in either order (IEEE addition commutes).
    np.multiply(z, c, out=out)
    out += np.multiply(np.subtract(1.0, z, out=tmp), h, out=tmp)
    return out


def _lstm_cell(slab, a, h, c, U, act: str, h_out, c_out, rec, rec_gates, tmp, first: bool):
    """One LSTM step, in place on its input projection.

    ``slab`` is the step's projection, row-major (n, 4h), and ``a`` its
    gate-major view (4, n, h) over the same memory. The pre-activations
    ``slab + h U`` are summed row-major in ``rec`` (n, 4h) and read once,
    through ``rec_gates``, its gate-major view: each gate block of ``a`` is
    written once, as [i, f, o, g]. Writes the new states into ``h_out`` and
    ``c_out``, and returns them; ``tmp`` (n, h) is scratch. With ``first``,
    ``h`` is the zero initial state, whose product ``h U`` is +0.0 for
    finite ``U``, and it is skipped.
    """
    if first:
        # a aliases the slab, so the slab is read from a copy.
        np.copyto(rec, slab)
        # Adding 0.0 to g where h U would add +0.0: a -0.0 turns into +0.0 all the same.
        rec_gates[3] += 0.0
    else:
        np.matmul(h, U, out=rec)
        rec += slab  # fl(h U + slab) is fl(slab + h U): IEEE addition commutes.
    i, f, o = _sigmoid(rec_gates[:3], out=a[:3])
    g = _act(rec_gates[3], act, out=a[3])
    np.multiply(f, c, out=c_out)
    c_out += np.multiply(i, g, out=tmp)
    np.multiply(o, _act(c_out, act, out=tmp), out=h_out)
    return h_out, c_out


@dataclass
class _DirectionCache:
    """Forward intermediates of one direction, stacked over time.

    ``xs`` is the time-major, direction-ordered input (T, n, d). ``gates``
    is (T, G, n, h), gate-major within each step, so every ``gates[t, j]``
    is one contiguous (n, h) block: step t's input projection, which the
    projection matmul writes row-major as (n, G*h) and the step turns into
    its gate values in gate order. No pre-activation is kept: the backward
    reads each activation's derivative from its output. The GRU's ``hs``
    is (T+1, n, h): row 0 is the zero initial state and row t+1 the state
    after step t. The LSTM's ``cs`` is the same for the cell state, but
    its ``hs`` is a ring of two slots, which the steps take in turn, so
    only the last state, ``final``, is kept; the backward rebuilds the
    others as ``o * act(c)``. ``allocate`` takes ``gates``, ``hs`` and
    ``cs`` as views of one fresh block, uninitialised but for the zero
    rows, so a tape shares no memory with any other call's.
    """

    xs: np.ndarray
    hs: np.ndarray
    gates: np.ndarray
    cs: np.ndarray | None = None

    @classmethod
    def allocate(cls, cell: str, xs: np.ndarray, hidden: int) -> "_DirectionCache":
        T, n, _ = xs.shape
        states = {"hs": 2, "cs": T + 1} if cell == "lstm" else {"hs": T + 1}
        shapes = {"gates": (T, len(GATE_NAMES[cell][0]), n, hidden)}
        shapes.update((state, (slots, n, hidden)) for state, slots in states.items())
        views = _views(np.empty(sum(math.prod(s) for s in shapes.values())), _layout(shapes))
        for state in states:
            views[state][0] = 0.0
        return cls(xs, **views)

    @property
    def h_prev(self) -> np.ndarray:
        """The state before each step, (T, n, h), which only the GRU's tape holds."""
        if self.cs is not None:
            raise AttributeError("an LSTM tape keeps no hidden states but the last; "
                                 "the backward rebuilds them as o * act(c)")
        return self.hs[:-1]

    # The state after the last step, slot T of the GRU's hs, T % 2 of the LSTM's ring.
    final = property(lambda self: self.hs[len(self.xs) % len(self.hs)])
    c_prev = property(lambda self: self.cs[:-1])
    c_t = property(lambda self: self.cs[1:])
    # The GRU's gates are [z, r, c].
    r = property(lambda self: self.gates[:, 1])


@dataclass
class ForwardTape:
    """Intermediates forward_batch() retains for backward_batch()'s exact backpropagation.

    ``weights`` holds the fused tensors the pass read. For a packed
    parameter set they are views, so update the parameters in place only
    after the backward pass.
    """

    params: Mapping[str, np.ndarray]
    weights: Params
    caches: dict[str, _DirectionCache]
    h_cat: np.ndarray
    prediction: np.ndarray


# A bidirectional pass runs its ``bw`` direction on a worker thread once
# n * hidden**2 reaches this. Forward ms, sequential/threaded, on 2 vCPUs
# with 1 BLAS thread: GRU h=32 n=336 3.6/4.0, GRU h=64 n=96 3.2/2.8; GRU
# h=175 n=10 1.81/2.15, n=20 3.2/2.9, n=40 6.1/5.7, n=96 14.2/10.0, n=336
# 47/30; LSTM h=175 n=336 59/41. Break-even lies near 0.4M, but a whole
# h=175 batch-40 training step gained at most 5% (15.0/14.2 ms). 2**21
# keeps every training batch of the paper's h=175 (at most 40 * 175**2 =
# 1.2M) sequential and threads the 336-window test forward. The gain was
# measured only with one BLAS thread in one process; for the two cases
# that lost, see ``_direction_thread_allowed``.
_THREAD_MIN_WORK = 2**21


def _direction_thread_allowed() -> bool:
    """Whether this process's own state lets a large pass thread its directions.

    It reads only this process, and requires all of:

    - the BLAS pinned to one thread: ``OPENBLAS_NUM_THREADS`` (or, where
      that is unset, ``OMP_NUM_THREADS``) is 1. With OpenBLAS's default of
      a thread per core, the 336-window h=175 forward on 2 vCPUs ran
      slower threaded: BiLSTM 41.7 -> 53.7 ms, BiGRU 27.9 -> 42.4 ms;
    - not a ``multiprocessing`` worker, such as a ``train --jobs`` seed,
      whose sibling processes fill the other cores. Under ``--jobs 2``
      with one BLAS thread each worker's test forward ran slower
      threaded: BiLSTM 47.5 -> 51.6 ms, BiGRU 41.9 -> 45.3 ms;
    - no other live thread, whatever it does. A DP ``train`` call keeps
      its noise thread alive throughout, and beside it a direction thread
      made DP steps slower: h=500 batch 10 45.8 -> 52.9 ms, batch 40
      99.2 -> 107.3 ms;
    - an affinity (or, without one, a CPU count) of two CPUs or more.

    Other processes competing for the cores are not seen.
    """
    import os
    import sys
    import threading

    blas = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    if blas is None or blas.strip() != "1":
        return False
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None and multiprocessing.parent_process() is not None:
        return False
    if threading.active_count() > 1:
        return False
    try:
        return len(os.sched_getaffinity(0)) > 1
    except AttributeError:
        return (os.cpu_count() or 1) > 1


def _step_scratch(cell: str, n: int, hidden: int) -> tuple[np.ndarray, np.ndarray]:
    """One direction's step temporaries: ``rec`` (n, G*h) and ``tmp`` (n, h)."""
    return np.empty((n, len(GATE_NAMES[cell][0]) * hidden)), np.empty((n, hidden))


def _run_direction(spec: ModelSpec, W, U, b, cache: _DirectionCache, rec, tmp) -> None:
    """Fill ``cache`` from its ``xs``, in place, using ``rec`` and ``tmp`` as step scratch.

    Allocates nothing that outlives a step, so it may run on a worker thread
    over arrays the caller allocated.
    """
    xs, gates, hs, cs, act = cache.xs, cache.gates, cache.hs, cache.cs, spec.activation
    T, n, d = xs.shape
    # The input projection of every step in one matmul, written row-major
    # over the gates' memory: step t's (n, G*h) rows fill the slab that
    # gates[t] later holds gate-major.
    rows = gates.reshape(T, n, -1)
    np.matmul(xs.reshape(T * n, d), W, out=rows.reshape(T * n, -1))
    rows += b
    rec_gates = _gate_major(rec, spec.hidden_size)
    for t in range(T):
        if spec.cell == "gru":
            _gru_cell(rows[t], gates[t], hs[t], U, act, hs[t + 1], rec, rec_gates, tmp,
                      first=t == 0)
        else:
            # hs is a ring of two slots: step t reads h_t and writes h_{t+1}.
            _lstm_cell(rows[t], gates[t], hs[t % 2], cs[t], U, act, hs[(t + 1) % 2], cs[t + 1],
                       rec, rec_gates, tmp, first=t == 0)


def forward_batch(spec: ModelSpec, params: Mapping[str, np.ndarray], windows: np.ndarray):
    """Run the network over a batch of windows (n, lag, d).

    Initial hidden (and cell) states are zero for every window; the
    backward direction consumes the reversed window. Returns
    ``(predictions (n, output), tape)``.

    A bidirectional pass with n * hidden**2 >= ``_THREAD_MIN_WORK``, where
    ``_direction_thread_allowed`` holds (one BLAS thread, not a pool
    worker, no other live thread in the process, two CPUs or more), runs
    ``bw`` on one worker thread while the calling thread runs ``fw``. The
    calling thread allocates every array the worker writes, so the worker
    only computes in place; each matmul keeps its shape and operands, so
    the bytes are those of the sequential pass.
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
    same = isinstance(params, Packed) and params.spec == spec
    weights = (params if same else pack_params(spec, params)).fused
    n, h = windows.shape[0], spec.hidden_size
    time_major = windows.transpose(1, 0, 2)
    caches = {
        direction: _DirectionCache.allocate(
            spec.cell,
            np.ascontiguousarray(time_major if direction == "fw" else time_major[::-1]), h)
        for direction in spec.directions
    }
    runs = [(spec, *(weights[f"{direction}_{k}"] for k in "WUb"), cache)
            for direction, cache in caches.items()]
    scratch = _step_scratch(spec.cell, n, h)
    if spec.bidirectional and n * h * h >= _THREAD_MIN_WORK and _direction_thread_allowed():
        from concurrent.futures import ThreadPoolExecutor

        # The pool joins its thread on leaving the block, also when fw raises.
        with ThreadPoolExecutor(max_workers=1) as pool:
            bw = pool.submit(_run_direction, *runs[1], *_step_scratch(spec.cell, n, h))
            _run_direction(*runs[0], *scratch)
            bw.result()
    else:
        for run in runs:
            _run_direction(*run, *scratch)
    finals = [cache.final for cache in caches.values()]
    h_cat = np.concatenate(finals, axis=1) if len(finals) > 1 else finals[0]
    prediction = h_cat @ weights["out_W"] + weights["out_b"]
    return prediction, ForwardTape(params, weights, caches, h_cat, prediction)


def _sum_outer(a: np.ndarray, da: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write into ``out`` the sum over steps t and rows of ``a[t].T @ da[t]``.

    ``a`` is (T, n, k) and ``da`` (T, n, m); the (k, m) sum is one matmul
    over T*n rows.
    """
    T, n, k = a.shape
    return np.matmul(a.reshape(T * n, k).T, da.reshape(T * n, -1), out=out)


def _direction_deltas(spec: ModelSpec, U: np.ndarray, cache: _DirectionCache, dh: np.ndarray):
    """One direction's gate deltas, gate-major (G, T, n, h), and each gate's recurrent input."""
    act, k = spec.activation, spec.hidden_size
    gates = cache.gates
    T, G, n, _ = gates.shape
    # Start each gate delta as its sigmoid's derivative, and take the other
    # factors that do not depend on dh, for all steps at once.
    da = np.empty((G, T, n, k))
    sig = gates[:, :G - 1]
    np.multiply(sig, 1.0 - sig, out=da[:G - 1].transpose(1, 0, 2, 3))
    d_cand = _act_grad(gates[:, G - 1], act)
    if spec.cell == "gru":
        h_prev = cache.h_prev
        U_zr, U_c = U[:, :2 * k], U[:, 2 * k:]
        c_minus_h = gates[:, 2] - h_prev
        # The fused recurrent product's operand [da_z | da_r], row-major (n, 2h).
        zr_rows = np.empty((n, 2 * k))
        zr_gates = _gate_major(zr_rows, k)
        for t in reversed(range(T)):
            z, r, _ = gates[t]
            da_z, da_r, da_c = da[:, t]
            dh_z = dh * z
            np.multiply(dh_z, d_cand[t], out=da_c)
            da_z *= dh * c_minus_h[t]
            if t == 0:
                # h_prev[0] is the zero initial state: da_r is 0 and dh is not read.
                da_r.fill(0.0)
                break
            d_rh = da_c @ U_c.T
            da_r *= d_rh * h_prev[t]
            np.copyto(zr_gates, da[:2, t])
            dh = dh - dh_z + d_rh * r + zr_rows @ U_zr.T
        recurrent_inputs = (h_prev, h_prev, cache.r * h_prev)
    else:
        dc = np.zeros_like(dh)
        act_c = _act(cache.c_t, act)
        d_act_c = _act_grad(act_c, act)
        # The recurrent product's operand da[:, t], row-major (n, 4h).
        da_rows = np.empty((n, G * k))
        da_gates = _gate_major(da_rows, k)
        for t in reversed(range(T)):
            i, f, o, g = gates[t]
            da_i, da_f, da_o, da_g = da[:, t]
            dc_t = dc + dh * o * d_act_c[t]
            da_i *= dc_t * g
            da_f *= dc_t * cache.c_prev[t]
            da_o *= dh * act_c[t]
            np.multiply(dc_t * i, d_cand[t], out=da_g)
            if t == 0:
                break  # dc and dh of the zero initial state are not read.
            dc = dc_t * f
            np.copyto(da_gates, da[:, t])
            dh = da_rows @ U.T
        # The states before each step, from the tape: h_0 = 0 and h_t = o_t act(c_t),
        # the forward's own product of the same values, so the same bits.
        h_prev = np.empty_like(act_c)
        h_prev[0] = 0.0
        np.multiply(gates[:-1, 2], act_c[:-1], out=h_prev[1:])
        recurrent_inputs = (h_prev,) * 4
    return da, recurrent_inputs


def _reduce(spec: ModelSpec, xs: Mapping[str, np.ndarray], h_cat: np.ndarray,
            dpred: np.ndarray, deltas, outs: Mapping[str, np.ndarray]) -> None:
    """Write every gradient, summed over the batch rows, into ``outs`` (name -> array).

    ``xs`` and ``deltas`` map each direction to its input (T, n, d) and to
    its gate-major deltas (G, T, n, h) with their recurrent inputs.
    """
    dpred.sum(axis=0, out=outs["out_b"])
    _sum_outer(h_cat[None], dpred[None], outs["out_W"])
    # One reduction per gate tensor: with T*n = 30 rows (T = 6 per example)
    # OpenBLAS forms h-wide products faster than one fused G*h-wide product.
    for direction, (da, inputs) in deltas.items():
        names_W, names_U, names_b = (
            [f"{direction}_{name}" for name in names] for names in GATE_NAMES[spec.cell])
        for name, delta in zip(names_W, da):
            _sum_outer(xs[direction], delta, outs[name])
        for name, a, delta in zip(names_U, inputs, da):
            _sum_outer(a, delta, outs[name])
        for name, delta in zip(names_b, da):
            delta.sum(axis=(0, 1), out=outs[name])


def _grams(a: np.ndarray, m: int) -> np.ndarray:
    """Gram matrices of the rows of ``a`` (T, n, k), one per microbatch.

    Microbatch j holds examples j*s to (j+1)*s - 1, with s = n / m; the
    result is (m, s*T, s*T).
    """
    T, n, k = a.shape
    rows = a.transpose(1, 0, 2).reshape(m, n // m * T, k)
    return rows @ rows.transpose(0, 2, 1)


def _gram_inner(ga: np.ndarray, gd: np.ndarray) -> np.ndarray:
    """``<ga, gd>`` per microbatch: the squared norm of its ``a.T @ delta``."""
    return np.einsum("mij,mij->m", ga, gd)


def _squared_norms(tape: ForwardTape, dpred, deltas, m: int) -> np.ndarray:
    """The squared L2 norm of each microbatch's summed gradient, from Grams.

    A bias is a weight on an input of ones, so its Gram is all ones.
    """
    sq = _gram_inner(_grams(tape.h_cat[None], m) + 1.0, _grams(dpred[None], m))
    for direction, (da, inputs) in deltas.items():
        gx = _grams(tape.caches[direction].xs, m) + 1.0
        last = None
        # Gates that share a recurrent input are adjacent: reuse its Gram.
        for a, delta in zip(inputs, da):
            if a is not last:
                ga, last = gx + _grams(a, m), a
            sq += _gram_inner(ga, _grams(delta, m))
    return np.maximum(sq, 0.0)


def clip_scales(norms: np.ndarray, clip: float) -> np.ndarray:
    """The factor that clips each gradient norm to ``clip``.

    ``clip / norm`` unless ``norm <= clip``, where it is 1: a zero norm is
    left alone (no 0/0), and a NaN norm gives a NaN factor, which poisons
    whatever it scales.
    """
    return np.divide(clip, norms, out=np.ones(norms.shape), where=~(norms <= clip))


def backward_batch(
    spec: ModelSpec,
    params: Mapping[str, np.ndarray],
    tape: ForwardTape,
    targets: np.ndarray,
    *,
    reduce: str = "mean",
    clip: float | None = None,
    microbatches: int = 1,
) -> Mapping[str, np.ndarray]:
    """Gradients of per-example MAE w.r.t. every parameter tensor.

    ``reduce="mean"`` returns the average gradient over the batch as a
    fresh :class:`Packed`, in ``param_shapes`` order. ``reduce="stack"``
    returns per-example gradients, one array with a leading batch axis per
    tensor, keyed in ``param_shapes`` order: the mean reduction's matmuls
    run on each batch row in turn and write into that row of the output.

    ``reduce="clip"`` returns DP-SGD's clipped sum as a fresh ``Packed``;
    only it reads ``clip`` and ``microbatches``, which the other reductions
    reject. The batch is cut into ``microbatches`` runs
    of consecutive examples of equal size, each run's mean gradient is
    scaled by ``clip_scales`` to L2 norm at most ``clip``, and the scaled
    run gradients are summed. No per-example gradient is formed. Each
    run's squared norm is the sum, over the weight groups, of
    ``<A A.T, D D.T>``, the inner product of the Gram matrices of the
    group's inputs and deltas over the run's rows, and is clamped at 0;
    the sum is the mean reduction's matmuls over the deltas with each
    run's rows scaled by its factor over its size.
    """
    if reduce not in ("mean", "stack", "clip"):
        raise ValueError(f"reduce must be 'mean', 'stack' or 'clip', got {reduce!r}")
    if tape.params is not params:
        raise StaleTapeError("tape was produced by a different parameter set")
    targets = np.asarray(targets, dtype=np.float64)
    pred = tape.prediction
    if targets.shape != pred.shape:
        raise ValueError(f"targets shape {targets.shape} != predictions {pred.shape}")
    n, out = pred.shape
    if reduce != "clip" and (clip is not None or microbatches != 1):
        raise ValueError(f"clip and microbatches are for reduce='clip', not {reduce!r}")
    if reduce == "clip":
        if not (clip is not None and clip > 0):
            raise ValueError(f"reduce='clip' needs a positive clip, got {clip}")
        if not (microbatches >= 1 and n % microbatches == 0):
            raise ValueError(f"microbatches must be >= 1 and divide the batch of {n}, "
                             f"got {microbatches}")
    h = spec.hidden_size

    # The mean's 1/n rides on dpred, which every gradient is linear in.
    dpred = np.sign(pred - targets) / (out * n if reduce == "mean" else out)
    dh_cat = dpred @ tape.weights["out_W"].T
    deltas = {
        direction: _direction_deltas(spec, tape.weights[f"{direction}_U"],
                                     tape.caches[direction], dh_cat[:, k * h:(k + 1) * h])
        for k, direction in enumerate(spec.directions)
    }
    if reduce == "clip":
        size = n // microbatches
        norms = np.sqrt(_squared_norms(tape, dpred, deltas, microbatches)) / size
        rows = np.repeat(clip_scales(norms, clip) / size, size)[:, None]
        dpred *= rows
        for da, _ in deltas.values():
            da *= rows
    xs = {direction: tape.caches[direction].xs for direction in spec.directions}
    if reduce != "stack":
        grads = Packed(spec, np.empty(param_count(spec)))
        _reduce(spec, xs, tape.h_cat, dpred, deltas, grads)
        return grads
    stack = {name: np.empty((n,) + shape) for name, shape in param_shapes(spec).items()}
    for i in range(n):
        row = slice(i, i + 1)
        row_deltas = {direction: (da[:, :, row], tuple(a[:, row] for a in inputs))
                      for direction, (da, inputs) in deltas.items()}
        _reduce(spec, {direction: x[:, row] for direction, x in xs.items()},
                tape.h_cat[row], dpred[row], row_deltas,
                {name: value[i] for name, value in stack.items()})
    return stack


def save_params(path, params: Mapping[str, np.ndarray]) -> None:
    """Write parameters as a named-tensor archive; round-trips bit-exactly."""
    np.savez(path, **{k: np.asarray(v) for k, v in params.items()})


def load_params(path) -> Params:
    with np.load(path) as data:
        return {k: data[k] for k in data.files}
