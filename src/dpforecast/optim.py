"""Adam and DP-Adam (clip-and-noise) optimizers plus the training loop.

Every step, private or not, runs one forward and one backward over its
batch. A non-private step takes the mean gradient. A private step takes
the backward's sum of the microbatch gradients, each clipped to global L2
norm ``C``, adds one draw of ``N(0, (noise_multiplier * C)^2)`` noise and
divides by the number of microbatches. A microbatch of size one is a
single training example, which is the granularity the privacy analysis
assumes.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .core import RngStream, write_csv
from .nn import ModelSpec, Packed, Params, backward_batch, clip_scales, forward_batch, pack_params


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes non-finite."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged (non-finite loss) at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class NonPrivateConfig:
    """Plain Adam training configuration."""

    batch_size: int
    epochs: int
    learning_rate: float

    def __post_init__(self):
        _check_schedule(self.batch_size, self.epochs, self.learning_rate)


def _check_schedule(batch_size: int, epochs: int, learning_rate: float) -> None:
    # NaN-safe: a NaN rate fails ``0 < rate``.
    if batch_size < 1 or epochs < 0 or not 0 < learning_rate < math.inf:
        raise ValueError("batch_size >= 1, epochs >= 0, finite learning_rate > 0 required")


@dataclass(frozen=True)
class DpSgdConfig:
    """DP-Adam configuration; num_microbatches must divide batch_size."""

    l2_norm_clip: float
    noise_multiplier: float
    num_microbatches: int
    batch_size: int
    epochs: int
    learning_rate: float

    def __post_init__(self):
        if not 0 < self.l2_norm_clip < math.inf:
            raise ValueError(f"l2_norm_clip must be positive and finite, got {self.l2_norm_clip}")
        if not 0 <= self.noise_multiplier < math.inf:
            raise ValueError(
                f"noise_multiplier must be nonnegative and finite, got {self.noise_multiplier}")
        if self.num_microbatches < 1 or self.batch_size % self.num_microbatches != 0:
            raise ValueError("num_microbatches must be >= 1 and divide batch_size")
        _check_schedule(self.batch_size, self.epochs, self.learning_rate)


def global_norm(g: Mapping[str, np.ndarray]) -> float:
    """L2 norm over all entries of all tensors in ``g``."""
    return math.sqrt(math.fsum(float(np.vdot(v, v)) for v in g.values()))


def dp_aggregate(
    per_microbatch: Union[Sequence[Mapping[str, np.ndarray]], Packed],
    clip: float,
    noise_multiplier: float,
    rng: Union[RngStream, np.random.Generator],
    *,
    microbatches: Optional[int] = None,
) -> Mapping[str, np.ndarray]:
    """Clip each microbatch gradient, sum, noise once, and average.

    Returns ``(1/m) * (sum_i clip(g_i) + N(0, (noise_multiplier*clip)^2 I))``.
    ``per_microbatch`` is either the m microbatch gradients, which are
    clipped and summed here, or, with ``microbatches=m``, their clipped sum
    as one ``nn.Packed`` (``backward_batch(reduce="clip")`` returns it),
    which is noised and averaged in place and returned. The noise is one
    flat standard-normal vector, drawn once per call and added entrywise
    over the sum's flat layout: the packed ``vector`` for a ``Packed``,
    the tensors one after another in key order for the list form. With
    ``noise_multiplier == 0`` no randomness is consumed.

    ``rng`` is an ``RngStream`` (a fresh generator is made from it) or
    anything with a ``standard_normal(size)`` method, such as a numpy
    ``Generator``. The returned vector is scaled by ``noise_multiplier *
    clip`` in place before it is added, so it must be the caller's to
    overwrite.
    """
    if not 0 < clip < math.inf:
        raise ValueError("clip must be positive and finite")
    if not 0 <= noise_multiplier < math.inf:
        raise ValueError(
            f"noise_multiplier must be nonnegative and finite, got {noise_multiplier}")
    summed = isinstance(per_microbatch, Packed)
    if summed != (microbatches is not None) or (summed and microbatches < 1):
        raise ValueError("a Packed clipped sum takes microbatches=m >= 1, and only it does")
    if summed:
        out, total, m = per_microbatch, per_microbatch.vector, microbatches
    else:
        out, total = _clipped_sum(per_microbatch, clip)
        m = len(per_microbatch)
    if noise_multiplier > 0:
        gen = rng.generator() if isinstance(rng, RngStream) else rng
        z = gen.standard_normal(total.size)
        z *= noise_multiplier * clip
        total += z
    total /= m
    return out


def _clipped_sum(per_microbatch: Sequence[Mapping[str, np.ndarray]],
                 clip: float) -> tuple[Params, np.ndarray]:
    """The sum of the clipped gradients, as views in key order of one vector."""
    if not per_microbatch:
        raise ValueError("per_microbatch must be nonempty")
    first = per_microbatch[0]
    keys = list(first.keys())
    for g in per_microbatch[1:]:
        if list(g.keys()) != keys or any(g[k].shape != first[k].shape for k in keys):
            raise ValueError("inconsistent gradient shapes across microbatches")
    scales = clip_scales(np.array([global_norm(g) for g in per_microbatch]), clip)
    bounds = np.cumsum([0] + [first[k].size for k in keys]).tolist()
    total = np.empty(bounds[-1])
    out: Params = {}
    for k, lo, hi in zip(keys, bounds, bounds[1:]):
        acc = out[k] = total[lo:hi].reshape(first[k].shape)
        np.multiply(first[k], scales[0], out=acc)
        for g, s in zip(per_microbatch[1:], scales[1:]):
            acc += g[k] * s
    return out, total


# Elements per pass of ``adam_step``: chunks of the parameter, moment,
# gradient and work vectors stay in a core's L2 cache through the update.
# On a 2 MB L2, 32768 beat 16384 and 65536, and whole vectors by a fifth.
_ADAM_CHUNK = 32768
_BETA1, _BETA2, _EPS_HAT = 0.9, 0.999, 1e-7


@dataclass
class AdamState:
    """Flat first/second moment vectors with a strictly increasing step count.

    ``m`` and ``v`` are laid out like the packed parameter vector they
    belong to. The private field is ``adam_step``'s work space, a
    chunk-long work vector.
    """

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    _work: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._work = np.empty(min(self.m.size, _ADAM_CHUNK))


def _packed(params) -> Packed:
    if not isinstance(params, Packed):
        raise ValueError("Adam needs the parameters as one flat packed vector, an nn.Packed "
                         f"(init_params and pack_params return one), got {type(params).__name__}")
    return params


def init_adam_state(params: Packed) -> AdamState:
    size = _packed(params).vector.size
    return AdamState(m=np.zeros(size), v=np.zeros(size))


def adam_step(
    params: Packed,
    g: Mapping[str, np.ndarray],
    state: AdamState,
    learning_rate: float,
) -> tuple[Packed, AdamState]:
    """One bias-corrected Adam update, in place.

    ``params`` must be a :class:`~dpforecast.nn.Packed` (``init_params``
    and ``train`` return one). Its vector and the state's ``m``, ``v`` and
    step count are updated in place, and the same ``(params, state)``
    objects are returned. ``g`` is any mapping with the keys and shapes of
    ``params``; a ``Packed`` of the same spec, as ``backward_batch`` and
    the DP step return it, is read in place, and any other is first
    copied into a fresh one.

    With beta1 = 0.9, beta2 = 0.999, eps_hat = 1e-7 and the bias
    corrections bc1 = 1 - beta1**t and bc2 = 1 - beta2**t, the update
    ``p -= lr * (m / bc1) / (sqrt(v / bc2) + eps_hat)`` is computed
    as ``lr * sqrt(bc2) / bc1 * m / (sqrt(v) + eps_hat * sqrt(bc2))``:
    twelve in-place vector operations per chunk, through one work vector.
    """
    p = _packed(params).vector
    if p.size != state.m.size:
        raise ValueError(f"state holds {state.m.size} moments for {p.size} parameters")
    if not (isinstance(g, Packed) and g.spec == params.spec):
        g = pack_params(params.spec, g)
    grad = g.vector
    t = state.step + 1
    b1, b2 = _BETA1, _BETA2
    bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
    eps = _EPS_HAT * math.sqrt(bc2)
    rate = learning_rate * math.sqrt(bc2) / bc1
    for lo in range(0, p.size, _ADAM_CHUNK):
        chunk = slice(lo, lo + _ADAM_CHUNK)
        pc, m, v, gc = p[chunk], state.m[chunk], state.v[chunk], grad[chunk]
        w = state._work[:pc.size]
        np.multiply(gc, 1.0 - b1, out=w)
        m *= b1
        m += w
        w *= w
        w *= (1.0 - b2) / (1.0 - b1) ** 2
        v *= b2
        v += w
        np.sqrt(v, out=w)
        w += eps
        np.divide(m, w, out=w)
        w *= rate
        pc -= w
    state.step = t
    return params, state


@dataclass
class TrainLog:
    """Per-epoch training MAE plus the exact optimizer step count."""

    epoch_mae: list[float] = field(default_factory=list)
    step_count: int = 0

    def write_csv(self, path) -> None:
        steps_per_epoch = self.step_count // len(self.epoch_mae) if self.epoch_mae else 0
        write_csv(path, ["epoch", "step_count", "train_mae"],
                  ([e, steps_per_epoch * (e + 1), repr(mae)]
                   for e, mae in enumerate(self.epoch_mae)))


def train(
    spec: ModelSpec,
    params0: Mapping[str, np.ndarray],
    dataset,
    cfg: Union[NonPrivateConfig, DpSgdConfig],
    rng: RngStream,
) -> tuple[Packed, TrainLog]:
    """Train over shuffled batches for ``cfg.epochs`` epochs.

    ``dataset`` needs ``inputs`` of shape (n, lag, d) and ``targets`` of
    shape (n, output). Each epoch draws a fresh uniform permutation from
    ``rng`` and drops the incomplete trailing batch, so exactly
    ``epochs * floor(n / batch_size)`` optimizer steps run. ``params0`` is
    copied into a fresh packed vector, which the steps then update in
    place; the caller's arrays are never changed.

    ``cfg`` is read for ``batch_size``, ``epochs`` and ``learning_rate``
    alone, so a ``NonPrivateConfig`` and a ``forecast.TrainConfig`` train
    alike; only a ``DpSgdConfig`` (an ``isinstance`` check) clips and
    noises its steps.

    With DP noise, each step's standard-normal vector is drawn one step
    ahead on one worker thread, while the main thread runs the step's
    forward and backward passes. The generator is read in the serial
    order (an epoch's permutation, then that epoch's draws, one per step),
    so the result is the same bytes as drawing in the step itself. The
    thread starts on the first draw and lives only for this call.
    """
    inputs = np.asarray(dataset.inputs, dtype=np.float64)
    targets = np.asarray(dataset.targets, dtype=np.float64)
    n = inputs.shape[0]
    if n == 0:
        raise ValueError("dataset is empty")
    if cfg.batch_size > n:
        raise ValueError(f"batch_size {cfg.batch_size} exceeds dataset size {n}")
    b = cfg.batch_size
    n_batches = n // b
    gen = rng.generator()
    params = pack_params(spec, params0)
    state = init_adam_state(params)
    log = TrainLog()

    with ThreadPoolExecutor(max_workers=1) as pool:
        noise = None
        if isinstance(cfg, DpSgdConfig) and cfg.noise_multiplier > 0:
            noise = _NoiseAhead(gen, state.m.size, pool)
        for epoch in range(cfg.epochs):
            perm = gen.permutation(n)
            if noise is not None:
                noise.draw_next()
            epoch_losses = []
            for j in range(n_batches):
                idx = perm[j * b:(j + 1) * b]
                grad, batch_mae = _batch_gradient(
                    spec, params, inputs[idx], targets[idx], cfg, noise)
                if noise is not None and j + 1 < n_batches:
                    noise.draw_next()
                if not math.isfinite(batch_mae):
                    raise TrainingDiverged(epoch)
                params, state = adam_step(params, grad, state, cfg.learning_rate)
                # Free the gradient before the next step allocates, so that the
                # next step's arrays reuse its memory while it is still in cache.
                del grad
                log.step_count += 1
                epoch_losses.append(batch_mae)
            log.epoch_mae.append(float(np.mean(epoch_losses)) if epoch_losses else math.nan)
    return params, log


class _NoiseAhead:
    """``train``'s noise source: one step's draw, made ahead on a worker thread.

    ``draw_next`` queues ``gen.standard_normal`` into one reused vector;
    ``standard_normal`` waits for that draw and hands the vector over, to be
    used up before the next ``draw_next``. The worker touches nothing but
    the generator.
    """

    def __init__(self, gen: np.random.Generator, size: int, pool: ThreadPoolExecutor):
        self._gen, self._pool = gen, pool
        self._buf = np.empty(size)
        self._pending = None

    def draw_next(self) -> None:
        self._pending = self._pool.submit(self._gen.standard_normal, out=self._buf)

    def standard_normal(self, size: int) -> np.ndarray:
        return self._pending.result()


def _batch_gradient(spec, params, xb, yb, cfg, noise):
    """The step's gradient and batch MAE; the forward tape is freed on return.

    A ``DpSgdConfig`` takes the backward's clipped sum of the microbatch
    gradients, which forms none of them, and ``dp_aggregate`` noises it
    from ``noise`` and averages it; any other config takes the mean.
    """
    preds, tape = forward_batch(spec, params, xb)
    if isinstance(cfg, DpSgdConfig):
        m, clip = cfg.num_microbatches, cfg.l2_norm_clip
        clipped = backward_batch(spec, params, tape, yb, reduce="clip", clip=clip, microbatches=m)
        grad = dp_aggregate(clipped, clip, cfg.noise_multiplier, noise, microbatches=m)
    else:
        grad = backward_batch(spec, params, tape, yb, reduce="mean")
    return grad, float(np.mean(np.abs(preds - yb)))
