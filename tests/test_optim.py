"""Clipping, DP aggregation, Adam, and the training loop."""

import math
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpforecast import (
    DpSgdConfig,
    MinMaxScaler,
    MobilitySeries,
    ModelSpec,
    NonPrivateConfig,
    RngStream,
    TrainingDiverged,
    adam_step,
    backward_batch,
    dp_aggregate,
    forward_batch,
    global_norm,
    init_params,
    make_windows,
    train,
)
from dpforecast import optim
from dpforecast.nn import Packed, clip_scales, pack_params, param_shapes
from dpforecast.optim import _batch_gradient, _NoiseAhead, init_adam_state

from conftest import SLOT, START


def grad_set(*arrays):
    return {f"t{i}": np.asarray(a, dtype=np.float64) for i, a in enumerate(arrays)}


class TestGlobalNorm:
    def test_zeros(self):
        assert global_norm(grad_set(np.zeros(3), np.zeros((2, 2)))) == 0.0

    def test_pythagorean_across_tensors(self):
        assert global_norm(grad_set([3.0], [[4.0]])) == 5.0

    def test_matches_elementwise_loop_oracle(self):
        gen = np.random.default_rng(11)
        g = grad_set(gen.standard_normal(100), gen.standard_normal((3, 4)))
        acc = 0.0
        for v in g.values():
            for x in v.ravel():
                acc += float(x) * float(x)
        assert global_norm(g) == pytest.approx(math.sqrt(acc), rel=1e-12)

    @given(st.floats(-1e3, 1e3), st.integers(1, 30))
    def test_absolute_homogeneity(self, a, n):
        gen = np.random.default_rng(n)
        g = grad_set(gen.standard_normal(n), gen.standard_normal(2))
        scaled = {k: a * v for k, v in g.items()}
        assert global_norm(scaled) == pytest.approx(abs(a) * global_norm(g), rel=1e-12,
                                                    abs=1e-12)


class TestClipScales:
    def test_clip_over_norm_above_the_clip_and_one_at_or_below(self):
        norms = np.array([5.0, 2.5, 2.0, 1.0])
        assert clip_scales(norms, 2.0).tolist() == [2.0 / 5.0, 2.0 / 2.5, 1.0, 1.0]

    def test_zero_norm_gives_one_and_nan_norm_gives_nan(self):
        with np.errstate(all="raise"):
            scales = clip_scales(np.array([0.0, np.nan]), 1.0)
        assert scales[0] == 1.0 and np.isnan(scales[1])

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8), st.floats(1e-3, 1e3))
    def test_scaled_norm_is_min_of_clip_and_norm(self, values, clip):
        g = np.array(values)
        norm = np.linalg.norm(g)
        scale = clip_scales(np.array([norm]), clip)[0]
        assert np.linalg.norm(scale * g) == pytest.approx(min(clip, norm), rel=1e-12)


class TestDpAggregate:
    def test_zero_noise_is_plain_average(self):
        g1 = grad_set([0.1, 0.2])
        g2 = grad_set([0.3, -0.2])
        out = dp_aggregate([g1, g2], clip=10.0, noise_multiplier=0.0, rng=RngStream(0))
        np.testing.assert_allclose(out["t0"], [0.2, 0.0], atol=1e-15)

    def test_opposite_gradients_cancel(self):
        v = np.array([0.5, -0.25, 0.1])
        out = dp_aggregate(
            [grad_set(v), grad_set(-v)], clip=1.0, noise_multiplier=0.0,
            rng=RngStream(0),
        )
        np.testing.assert_allclose(out["t0"], 0.0, atol=1e-15)

    def test_noise_distribution_on_zero_gradient(self):
        # m=1, g=0, noise_multiplier=1, clip=2: entries are N(0, 4).
        g = grad_set(np.zeros(100_000))
        out = dp_aggregate([g], clip=2.0, noise_multiplier=1.0, rng=RngStream(99))
        assert out["t0"].var() == pytest.approx(4.0, rel=0.02)
        assert abs(out["t0"].mean()) < 0.03

    def test_noise_std_scales_with_microbatch_count(self):
        m = 4
        micro = [grad_set(np.zeros(50_000)) for _ in range(m)]
        out = dp_aggregate(micro, clip=2.0, noise_multiplier=1.0, rng=RngStream(7))
        assert out["t0"].std() == pytest.approx(2.0 / m, rel=0.02)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dp_aggregate(
                [grad_set([1.0, 2.0]), grad_set([1.0, 2.0, 3.0])],
                clip=1.0, noise_multiplier=0.0, rng=RngStream(0),
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dp_aggregate([], clip=1.0, noise_multiplier=0.0, rng=RngStream(0))


    def test_nonpositive_clip_rejected(self):
        for clip in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                dp_aggregate([grad_set([1.0])], clip=clip, noise_multiplier=0.0,
                             rng=RngStream(0))

    @pytest.mark.parametrize("noise", [math.nan, math.inf, -1.0])
    def test_noise_multiplier_must_be_nonnegative_and_finite(self, noise):
        # A NaN multiplier fails ``noise_multiplier > 0`` and would skip the noise.
        with pytest.raises(ValueError, match="noise_multiplier must be nonnegative and finite"):
            dp_aggregate([grad_set([1.0])], clip=1.0, noise_multiplier=noise, rng=RngStream(0))

    def test_key_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dp_aggregate(
                [{"a": np.ones(2)}, {"b": np.ones(2)}],
                clip=1.0, noise_multiplier=0.0, rng=RngStream(0),
            )

    def test_zero_gradients_give_noise_only(self):
        # No 0/0 from the clip scale; the noise is the per-key draws, in key
        # order, of an identically seeded generator.
        micro = [grad_set(np.zeros(3), np.zeros((2, 4))) for _ in range(3)]
        with np.errstate(all="raise"):
            quiet = dp_aggregate(micro, clip=1.5, noise_multiplier=0.0, rng=RngStream(4))
            noisy = dp_aggregate(micro, clip=1.5, noise_multiplier=2.0, rng=RngStream(4))
        gen = RngStream(4).generator()
        for k in ("t0", "t1"):
            assert np.array_equal(quiet[k], np.zeros_like(quiet[k]))
            shape = micro[0][k].shape
            expected = (np.zeros(shape) + 3.0 * gen.standard_normal(size=shape)) / 3
            assert np.array_equal(noisy[k], expected)

    def test_nan_gradient_stays_nan(self):
        out = dp_aggregate(
            [grad_set([np.nan, 1.0]), grad_set([0.5, 0.5])],
            clip=1.0, noise_multiplier=0.0, rng=RngStream(0),
        )
        assert np.isnan(out["t0"]).all()


def reference_dp_gradient(spec, params, xb, yb, cfg, gen):
    """Microbatch by microbatch: mean backward, clip, sum, per-key noise, / m."""
    m = cfg.num_microbatches
    size = cfg.batch_size // m
    total, maes, norms = None, [], []
    for i in range(m):
        sl = slice(i * size, (i + 1) * size)
        preds, tape = forward_batch(spec, params, xb[sl])
        g = backward_batch(spec, params, tape, yb[sl], reduce="mean")
        norms.append(global_norm(g))
        scale = min(1.0, cfg.l2_norm_clip / norms[-1])
        clipped = {k: v * scale for k, v in g.items()}
        total = clipped if total is None else {k: total[k] + clipped[k] for k in total}
        maes.append(np.mean(np.abs(preds - yb[sl])))
    # The noise is one draw laid over the packed vector.
    if cfg.noise_multiplier > 0:
        total = pack_params(spec, total)
        scale = cfg.noise_multiplier * cfg.l2_norm_clip
        total.vector += scale * gen.standard_normal(total.vector.size)
    return {k: total[k] / m for k in param_shapes(spec)}, float(np.mean(maes)), norms


class TestDpBatchGradient:
    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    @pytest.mark.parametrize("bidirectional", [False, True])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("clip", [1e-3, 1e6])
    @pytest.mark.parametrize("noise", [0.0, 3.0])
    def test_matches_microbatch_reference(self, cell, bidirectional, activation, size,
                                          clip, noise):
        spec = ModelSpec(cell, bidirectional, 4, 3, 2, activation)
        params = init_params(spec, RngStream(11))
        data = random_windows(n=4, lag=5, d=3, out=2, seed=12)
        cfg = DpSgdConfig(
            l2_norm_clip=clip, noise_multiplier=noise, num_microbatches=4 // size,
            batch_size=4, epochs=1, learning_rate=0.01,
        )
        got, got_mae = _batch_gradient(
            spec, params, data.inputs, data.targets, cfg, RngStream(13).generator())
        ref, ref_mae, norms = reference_dp_gradient(
            spec, params, data.inputs, data.targets, cfg, RngStream(13).generator())
        assert all((n > clip) == (clip < 1) for n in norms)  # the small clip binds
        assert isinstance(got, Packed) and got.spec == spec and set(got) == set(ref)
        for k in ref:
            err = np.linalg.norm(got[k] - ref[k])
            assert err <= 1e-12 * max(np.linalg.norm(ref[k]), 1e-300), k
        assert got_mae == pytest.approx(ref_mae, rel=1e-12)

    def test_paper_shape_step_forms_no_per_example_buffer(self):
        # The per-example gradients of the paper's BiGRU at batch 5 take
        # 5 * 197,406 float64s; the clipped reduction never forms them.
        spec = ModelSpec("gru", True, 175, 10, 6, "relu")
        params = init_params(spec, RngStream(1))
        data = random_windows(n=5, lag=6, d=10, out=6, seed=2)
        cfg = DpSgdConfig(2.0, 70.0, 5, 5, 1, 4.55e-4)
        per_example_bytes = 5 * params.vector.nbytes
        gen = RngStream(3).generator()
        tracemalloc.start()
        try:
            _batch_gradient(spec, params, data.inputs, data.targets, cfg, gen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < per_example_bytes, peak


def clipped_sum(spec, params, inputs, targets, clip, microbatches):
    _, tape = forward_batch(spec, params, inputs)
    return backward_batch(spec, params, tape, targets, reduce="clip", clip=clip,
                          microbatches=microbatches)


class TestClippedReduction:
    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    @pytest.mark.parametrize("bidirectional", [False, True])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("clip", [1e-3, 1e6])
    def test_matches_stacked_aggregate_and_reference(self, cell, bidirectional, activation,
                                                     size, clip):
        spec = ModelSpec(cell, bidirectional, 4, 3, 2, activation)
        params = init_params(spec, RngStream(11))
        data = random_windows(n=6, lag=5, d=3, out=2, seed=12)
        m = 6 // size
        got = clipped_sum(spec, params, data.inputs, data.targets, clip, m)
        assert isinstance(got, Packed) and got.spec == spec
        _, tape = forward_batch(spec, params, data.inputs)
        stack = backward_batch(spec, params, tape, data.targets, reduce="stack")
        micro = [{k: v[i * size:(i + 1) * size].mean(axis=0) for k, v in stack.items()}
                 for i in range(m)]
        aggregated = dp_aggregate(micro, clip, 0.0, RngStream(0))
        cfg = DpSgdConfig(clip, 0.0, m, 6, 1, 0.01)
        ref, _, norms = reference_dp_gradient(spec, params, data.inputs, data.targets, cfg,
                                              None)
        assert all((n > clip) == (clip < 1) for n in norms)  # the small clip binds
        for oracle in (aggregated, ref):
            for k, value in oracle.items():
                err = np.linalg.norm(got[k] / m - value)
                assert err <= 1e-12 * max(np.linalg.norm(value), 1e-300), k

    def test_zero_gradient_is_left_alone(self):
        spec = ModelSpec("lstm", True, 3, 3, 2, "tanh")
        params = init_params(spec, RngStream(0))
        inputs = random_windows(n=4, lag=5, d=3, out=2, seed=1).inputs
        preds, _ = forward_batch(spec, params, inputs)
        with np.errstate(all="raise"):
            got = clipped_sum(spec, params, inputs, preds, 1.0, 2)
        assert not got.vector.any()

    def test_nan_window_poisons_the_sum_like_the_aggregate(self):
        spec = ModelSpec("gru", True, 3, 3, 2, "relu")
        params = init_params(spec, RngStream(0))
        data = random_windows(n=4, lag=5, d=3, out=2, seed=1)
        data.inputs[2, 1, 0] = np.nan
        got = clipped_sum(spec, params, data.inputs, data.targets, 1.0, 4)
        _, tape = forward_batch(spec, params, data.inputs)
        stack = backward_batch(spec, params, tape, data.targets, reduce="stack")
        micro = [{k: v[i] for k, v in stack.items()} for i in range(4)]
        aggregated = dp_aggregate(micro, 1.0, 0.0, RngStream(0))
        assert np.isnan(got.vector).all()
        for k, value in aggregated.items():
            assert np.array_equal(np.isnan(got[k]), np.isnan(value)), k

    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_cancelling_gradients_get_no_nan_norm(self, cell, bidirectional):
        # Two copies of one window with targets on either side of its
        # prediction: the microbatch's gradients cancel exactly, and the
        # Gram inner products come out as rounding noise of either sign.
        spec = ModelSpec(cell, bidirectional, 4, 3, 2, "tanh")
        for seed in range(5):
            params = init_params(spec, RngStream(seed))
            inputs = np.repeat(random_windows(n=1, lag=5, d=3, out=2, seed=seed).inputs, 2,
                               axis=0)
            preds, _ = forward_batch(spec, params, inputs)
            with np.errstate(invalid="raise"):
                got = clipped_sum(spec, params, inputs, preds + [[-1.0], [1.0]], 1e-3, 1)
            assert np.abs(got.vector).max() <= 1e-12, seed

    def test_rejects_bad_clip_and_microbatches(self):
        spec = ModelSpec("gru", False, 2, 3, 2, "tanh")
        params = init_params(spec, RngStream(0))
        data = random_windows(n=4, lag=3, d=3, out=2, seed=1)
        for clip, m in ((None, 1), (0.0, 1), (1.0, 3), (1.0, 0)):
            with pytest.raises(ValueError):
                clipped_sum(spec, params, data.inputs, data.targets, clip, m)

    def test_other_reductions_refuse_clip_arguments(self):
        spec = ModelSpec("gru", False, 2, 3, 2, "tanh")
        params = init_params(spec, RngStream(0))
        data = random_windows(n=4, lag=3, d=3, out=2, seed=1)
        _, tape = forward_batch(spec, params, data.inputs)
        for reduce in ("mean", "stack"):
            for extra in ({"clip": 1.0}, {"microbatches": 2}):
                with pytest.raises(ValueError, match="reduce='clip'"):
                    backward_batch(spec, params, tape, data.targets, reduce=reduce, **extra)

    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_each_form_adds_the_noise_over_its_own_flat_layout(self, cell, bidirectional):
        # sigma * C * z lands on the packed vector for the clipped sum, and on
        # the tensors one after another in key order for the list form.
        spec = ModelSpec(cell, bidirectional, 4, 3, 2, "tanh")
        params = init_params(spec, RngStream(11))
        data = random_windows(n=4, lag=5, d=3, out=2, seed=12)
        summed = clipped_sum(spec, params, data.inputs, data.targets, 0.1, 2)
        z = 3.0 * 0.1 * RngStream(5).generator().standard_normal(summed.vector.size)
        expected = (summed.vector + z) / 2
        got = dp_aggregate(summed, 0.1, 3.0, RngStream(5), microbatches=2)
        assert got is summed and got.vector.tobytes() == expected.tobytes()
        _, tape = forward_batch(spec, params, data.inputs)
        stack = backward_batch(spec, params, tape, data.targets, reduce="stack")
        micro = [{k: v[2 * i:2 * i + 2].mean(axis=0) for k, v in stack.items()}
                 for i in range(2)]
        _, total = optim._clipped_sum(micro, 0.1)
        got = dp_aggregate(micro, 0.1, 3.0, RngStream(5))
        assert list(got) == list(param_shapes(spec))
        flat = np.concatenate([v.ravel() for v in got.values()])
        assert flat.tobytes() == ((total + z) / 2).tobytes()

    def test_aggregate_takes_microbatches_only_with_a_packed_sum(self):
        spec = ModelSpec("gru", False, 2, 3, 2, "tanh")
        summed = pack_params(spec)
        for args, m in (([dict(summed)], 1), (summed, None), (summed, 0)):
            with pytest.raises(ValueError, match="Packed clipped sum"):
                dp_aggregate(args, 1.0, 0.0, RngStream(0), microbatches=m)


TINY = ModelSpec("gru", False, 1, 1, 1)  # 11 parameters


def tiny(*values):
    """A packed ``TINY`` set whose vector starts with ``values``, zero after."""
    packed = pack_params(TINY)
    packed.vector[:len(values)] = values
    return packed


class TestAdamStep:
    # adam_step updates the parameter vector and the state in place, so each
    # test compares against copies taken before the step.

    def test_zero_gradient_keeps_params(self):
        params = tiny(1.0, -2.0)
        saved = params.vector.copy()
        state = init_adam_state(params)
        new_params, new_state = adam_step(params, tiny(), state, 0.1)
        assert new_params is params and new_state is state
        assert np.array_equal(new_params.vector, saved)
        assert new_state.step == 1

    def test_state_of_another_size_is_refused(self):
        params = tiny(1.0)
        saved = params.vector.copy()
        state = optim.AdamState(m=np.zeros(5), v=np.zeros(5))
        with pytest.raises(ValueError) as err:
            adam_step(params, tiny(), state, 0.1)
        assert str(err.value) == "state holds 5 moments for 11 parameters"
        assert np.array_equal(params.vector, saved)

    def test_single_step_hand_value(self):
        # Bias-corrected first step with g=1: update = -lr / (1 + eps_hat).
        params = tiny()
        state = init_adam_state(params)
        new_params, _ = adam_step(params, Packed(TINY, np.ones(11)), state, 0.1)
        np.testing.assert_allclose(new_params.vector, -0.099999990000001, rtol=0, atol=1e-15)

    def test_deterministic(self):
        # Two independent copies of one starting state take the same steps.
        g = tiny(0.1, -0.2)
        runs = []
        for _ in range(2):
            params = tiny(0.3, 0.7)
            state = init_adam_state(params)
            for _ in range(3):
                params, state = adam_step(params, g, state, 0.01)
            runs.append((params.vector.tobytes(), state.m.tobytes(), state.v.tobytes(),
                         state.step))
        assert runs[0] == runs[1]
        assert runs[0][3] == 3

    def test_step_counter_strictly_increases(self):
        params = tiny()
        state = init_adam_state(params)
        for expected in (1, 2, 3):
            params, state = adam_step(params, tiny(0.5), state, 0.01)
            assert state.step == expected

    @pytest.mark.parametrize("layout", ["packed", "loose", "reordered"])
    def test_matches_per_tensor_formula(self, layout):
        # The per-tensor Adam of the dict-of-arrays optimizer, five steps on a
        # BiGRU, against the in-place flat update. Gradients come laid out
        # like the parameters (as backward_batch returns them), as loose
        # arrays, or as views of one vector in another layout (as
        # dp_aggregate returns them).
        spec = ModelSpec("gru", True, 6, 3, 2, "relu")
        params = init_params(spec, RngStream(4))
        ref_p = {k: v.copy() for k, v in params.items()}
        ref_m = {k: np.zeros_like(v) for k, v in ref_p.items()}
        ref_v = {k: np.zeros_like(v) for k, v in ref_p.items()}
        state = init_adam_state(params)
        gen = np.random.default_rng(8)
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-7
        for t in range(1, 6):
            g = {k: gen.standard_normal(v.shape) * 10.0 ** gen.integers(-4, 1)
                 for k, v in params.items()}
            for k in ref_p:
                ref_m[k] = b1 * ref_m[k] + (1.0 - b1) * g[k]
                ref_v[k] = b2 * ref_v[k] + (1.0 - b2) * g[k] * g[k]
                m_hat = ref_m[k] / (1.0 - b1**t)
                v_hat = ref_v[k] / (1.0 - b2**t)
                ref_p[k] = ref_p[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
            if layout == "packed":
                g = pack_params(spec, g)
            elif layout == "reordered":
                buffer = np.concatenate([v.ravel() for v in reversed(g.values())])
                ends = np.cumsum([v.size for v in reversed(g.values())])
                g = {k: buffer[end - v.size:end].reshape(v.shape)
                     for (k, v), end in zip(reversed(g.items()), ends)}
            adam_step(params, g, state, lr)
        m, v = Packed(spec, state.m), Packed(spec, state.v)
        for k, p in params.items():
            assert np.max(np.abs(p - ref_p[k])) <= 1e-15, k
            np.testing.assert_allclose(m[k], ref_m[k], rtol=1e-14, atol=1e-300)
            np.testing.assert_allclose(v[k], ref_v[k], rtol=1e-14, atol=1e-300)

    def test_rejects_unpacked_params(self):
        params = {"a": np.zeros(2), "b": np.zeros(3)}
        with pytest.raises(ValueError, match="one flat"):
            init_adam_state(params)


def toy_windows(n=60, seed=3, lag=3):
    ts = START + np.arange(n + lag + 1) * SLOT
    counts = 100 + 50 * np.sin(2 * np.pi * np.arange(n + lag + 1) / 48)
    series = MobilitySeries(ts, counts[:, None], ("R1",))
    return make_windows(series, lag=lag, scaler=MinMaxScaler().fit(series, lag))


def random_windows(n=40, lag=4, d=3, out=2, seed=7):
    gen = np.random.default_rng(seed)
    return SimpleNamespace(
        inputs=gen.standard_normal((n, lag, d)),
        targets=gen.standard_normal((n, out)),
    )


class TestTrain:
    def test_zero_epochs_returns_params_unchanged(self):
        ds = random_windows()
        spec = ModelSpec("gru", False, 2, 3, 2, "tanh")
        p0 = init_params(spec, RngStream(0))
        params, log = train(spec, p0, ds, NonPrivateConfig(8, 0, 0.01), RngStream(1))
        for name in p0:
            assert np.array_equal(params[name], p0[name])
        assert log.step_count == 0

    @pytest.mark.parametrize("private", [False, True])
    def test_empty_dataset_is_refused(self, private):
        spec = ModelSpec("gru", False, 2, 3, 2, "tanh")
        cfg = (DpSgdConfig(1.0, 0.5, 1, 8, 2, 0.01) if private
               else NonPrivateConfig(8, 2, 0.01))
        with pytest.raises(ValueError) as err:
            train(spec, init_params(spec, RngStream(0)), random_windows(n=0), cfg, RngStream(1))
        assert str(err.value) == "dataset is empty"

    @pytest.mark.parametrize("private", [False, True])
    def test_params0_untouched_and_same_seed_same_bytes(self, private):
        ds = random_windows()
        spec = ModelSpec("gru", True, 3, 3, 2, "relu")
        p0 = init_params(spec, RngStream(0))
        saved = {k: v.copy() for k, v in p0.items()}
        cfg = (DpSgdConfig(1.0, 0.5, 4, 8, 2, 0.01) if private
               else NonPrivateConfig(8, 2, 0.01))
        runs = [train(spec, p0, ds, cfg, RngStream(1))[0] for _ in range(2)]
        for name in p0:
            assert p0[name].tobytes() == saved[name].tobytes(), name
            assert runs[0][name].tobytes() == runs[1][name].tobytes(), name
        assert not np.array_equal(runs[0]["fw_U_z"], p0["fw_U_z"])
        assert not np.shares_memory(runs[0].vector, p0.vector)

    def test_training_mae_strictly_decreases_on_toy_series(self):
        w = toy_windows()
        spec = ModelSpec("gru", False, 1, w.inputs.shape[2], 1, "tanh")
        p0 = init_params(spec, RngStream(0))
        _, log = train(spec, p0, w, NonPrivateConfig(8, 6, 0.02), RngStream(1))
        first5 = log.epoch_mae[:5]
        assert all(a > b for a, b in zip(first5, first5[1:]))

    def test_step_count_is_epochs_times_floor_batches(self):
        ds = random_windows(n=43)
        spec = ModelSpec("gru", False, 2, 3, 2, "tanh")
        p0 = init_params(spec, RngStream(2))
        _, log = train(spec, p0, ds, NonPrivateConfig(8, 3, 0.01), RngStream(3))
        assert log.step_count == 3 * (43 // 8)
        assert len(log.epoch_mae) == 3

    def test_dp_with_zero_noise_and_loose_clip_matches_nonprivate(self):
        ds = random_windows()
        spec = ModelSpec("gru", True, 3, 3, 2, "tanh")
        p0 = init_params(spec, RngStream(5))
        for epochs in (2, 10):
            npc = NonPrivateConfig(batch_size=8, epochs=epochs, learning_rate=0.01)
            dpc = DpSgdConfig(
                l2_norm_clip=1e9, noise_multiplier=0.0, num_microbatches=8,
                batch_size=8, epochs=epochs, learning_rate=0.01,
            )
            pa, la = train(spec, p0, ds, npc, RngStream(9))
            pb, lb = train(spec, p0, ds, dpc, RngStream(9))
            for name in pa:
                np.testing.assert_allclose(pa[name], pb[name], rtol=0, atol=1e-9)
            np.testing.assert_allclose(la.epoch_mae, lb.epoch_mae, atol=1e-9)

    def test_dp_steps_go_through_dp_aggregate(self, monkeypatch):
        # Each step's clipped sum is noised and averaged by the public
        # aggregate, so a tracer that wraps it times the DP tail.
        calls = []
        original = optim.dp_aggregate

        def counted(*args, **kwargs):
            calls.append(kwargs.get("microbatches"))
            return original(*args, **kwargs)

        monkeypatch.setattr(optim, "dp_aggregate", counted)
        spec = ModelSpec("gru", True, 2, 3, 2, "relu")
        p0 = init_params(spec, RngStream(6))
        _, log = train(spec, p0, random_windows(n=24), DpSgdConfig(1.0, 0.5, 3, 6, 2, 0.01),
                       RngStream(7))
        assert calls == [3] * log.step_count == [3] * 8

    def test_dp_multi_example_microbatches_run(self):
        ds = random_windows(n=24)
        spec = ModelSpec("lstm", False, 2, 3, 2, "relu")
        p0 = init_params(spec, RngStream(6))
        cfg = DpSgdConfig(
            l2_norm_clip=1.0, noise_multiplier=0.5, num_microbatches=3,
            batch_size=6, epochs=2, learning_rate=0.01,
        )
        params, log = train(spec, p0, ds, cfg, RngStream(7))
        assert log.step_count == 2 * 4
        assert all(np.isfinite(v).all() for v in params.values())

    def test_batch_larger_than_dataset_rejected(self):
        ds = random_windows(n=4)
        spec = ModelSpec("gru", False, 2, 3, 2, "tanh")
        p0 = init_params(spec, RngStream(0))
        with pytest.raises(ValueError):
            train(spec, p0, ds, NonPrivateConfig(8, 1, 0.01), RngStream(0))

    def test_divergence_reports_epoch(self):
        ds = random_windows(n=16)
        ds.targets[3, 0] = np.nan
        spec = ModelSpec("gru", False, 2, 3, 2, "tanh")
        p0 = init_params(spec, RngStream(0))
        with pytest.raises(TrainingDiverged) as err:
            train(spec, p0, ds, NonPrivateConfig(16, 2, 0.01), RngStream(0))
        assert err.value.epoch == 0

    def test_microbatch_must_divide_batch(self):
        with pytest.raises(ValueError):
            DpSgdConfig(
                l2_norm_clip=1.0, noise_multiplier=1.0, num_microbatches=3,
                batch_size=8, epochs=1, learning_rate=0.01,
            )

    @pytest.mark.parametrize("field, value, message", [
        ("noise_multiplier", math.nan, "noise_multiplier must be nonnegative and finite"),
        ("noise_multiplier", math.inf, "noise_multiplier must be nonnegative and finite"),
        ("noise_multiplier", -1.0, "noise_multiplier must be nonnegative and finite"),
        ("l2_norm_clip", math.nan, "l2_norm_clip must be positive and finite"),
        ("l2_norm_clip", math.inf, "l2_norm_clip must be positive and finite"),
        ("learning_rate", math.nan, "finite learning_rate > 0"),
        ("learning_rate", math.inf, "finite learning_rate > 0"),
    ])
    def test_dp_config_refuses_non_finite_values(self, field, value, message):
        fields = dict(l2_norm_clip=1.0, noise_multiplier=1.0, num_microbatches=4,
                      batch_size=8, epochs=1, learning_rate=0.01)
        with pytest.raises(ValueError, match=message):
            DpSgdConfig(**fields | {field: value})
        if field == "learning_rate":
            with pytest.raises(ValueError, match=message):
                NonPrivateConfig(batch_size=8, epochs=1, learning_rate=value)

    def test_trainlog_csv(self, tmp_path):
        ds = random_windows()
        spec = ModelSpec("gru", False, 2, 3, 2, "tanh")
        p0 = init_params(spec, RngStream(0))
        _, log = train(spec, p0, ds, NonPrivateConfig(8, 2, 0.01), RngStream(1))
        path = tmp_path / "trainlog.csv"
        log.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,step_count,train_mae"
        assert len(lines) == 3


def serial_dp_train(spec, params0, dataset, cfg, rng):
    """``train``'s DP loop with every draw made on the caller's thread."""
    gen = rng.generator()
    params = pack_params(spec, params0)
    state = init_adam_state(params)
    n, b = dataset.inputs.shape[0], cfg.batch_size
    for _ in range(cfg.epochs):
        perm = gen.permutation(n)
        for j in range(n // b):
            idx = perm[j * b:(j + 1) * b]
            grad, _ = _batch_gradient(
                spec, params, dataset.inputs[idx], dataset.targets[idx], cfg, gen)
            params, state = adam_step(params, grad, state, cfg.learning_rate)
    return params


class TestNoiseDrawnAhead:
    @pytest.mark.parametrize("size", [1, 2])
    def test_draw_order_matches_serial_loop(self, size):
        # 43 windows in batches of 4: ten steps an epoch and a dropped tail,
        # so each epoch's permutation comes between two runs of draws.
        ds = random_windows(n=43)
        spec = ModelSpec("lstm", True, 3, 3, 2, "tanh")
        p0 = init_params(spec, RngStream(4))
        cfg = DpSgdConfig(1.0, 3.0, 4 // size, 4, 3, 0.01)
        got, log = train(spec, p0, ds, cfg, RngStream(8))
        ref = serial_dp_train(spec, p0, ds, cfg, RngStream(8))
        assert log.step_count == 30
        assert got.vector.tobytes() == ref.vector.tobytes()

    def test_concurrent_trains_under_fast_switching(self):
        # Four train calls at once, each with its own noise thread, on a
        # 1-microsecond switch interval: any draw read before it is complete,
        # or any generator use racing the worker, changes the bytes.
        ds = random_windows(n=20)
        spec = ModelSpec("gru", True, 3, 3, 2, "tanh")
        p0 = init_params(spec, RngStream(4))
        cfg = DpSgdConfig(1.0, 3.0, 2, 4, 2, 0.01)
        refs = [serial_dp_train(spec, p0, ds, cfg, RngStream(s)).vector.tobytes()
                for s in range(4)]
        got = [None] * 4

        def run(s):
            got[s] = train(spec, p0, ds, cfg, RngStream(s))[0].vector.tobytes()

        threads = [threading.Thread(target=run, args=(s,)) for s in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == refs

    def test_divergence_with_a_draw_pending(self, monkeypatch):
        # Poison the parameters after the sixth update: the seventh step, the
        # third of epoch 1, diverges after the eighth step's draw is queued.
        queued, taken = [], []
        draw_next, standard_normal = _NoiseAhead.draw_next, _NoiseAhead.standard_normal

        def counting_draw_next(self):
            queued.append(1)
            draw_next(self)

        def counting_standard_normal(self, size):
            taken.append(1)
            return standard_normal(self, size)

        def poisoning_adam_step(params, g, state, lr):
            out = adam_step(params, g, state, lr)
            if state.step == 6:
                params.vector[:] = np.nan
            return out

        monkeypatch.setattr(_NoiseAhead, "draw_next", counting_draw_next)
        monkeypatch.setattr(_NoiseAhead, "standard_normal", counting_standard_normal)
        monkeypatch.setattr(optim, "adam_step", poisoning_adam_step)
        ds = random_windows(n=16)
        spec = ModelSpec("gru", False, 2, 3, 2, "tanh")
        p0 = init_params(spec, RngStream(0))
        before = threading.active_count()
        with pytest.raises(TrainingDiverged) as err:
            train(spec, p0, ds, DpSgdConfig(1.0, 2.0, 4, 4, 3, 0.01), RngStream(0))
        assert err.value.epoch == 1
        assert (len(queued), len(taken)) == (8, 7)
        assert threading.active_count() == before

    @pytest.mark.parametrize("cfg, extra", [
        (NonPrivateConfig(8, 2, 0.01), 0),
        (DpSgdConfig(1.0, 0.0, 4, 8, 2, 0.01), 0),
        (DpSgdConfig(1.0, 0.5, 4, 8, 2, 0.01), 1),
    ])
    def test_only_noisy_runs_start_a_thread(self, monkeypatch, cfg, extra):
        seen = []

        def counting_adam_step(*args):
            seen.append(threading.active_count())
            return adam_step(*args)

        monkeypatch.setattr(optim, "adam_step", counting_adam_step)
        ds = random_windows()
        spec = ModelSpec("gru", False, 2, 3, 2, "tanh")
        p0 = init_params(spec, RngStream(0))
        before = threading.active_count()
        train(spec, p0, ds, cfg, RngStream(1))
        assert seen == [before + extra] * 10
        assert threading.active_count() == before
