"""Cell equations, network forward/backward, and gradient oracles."""

import copy
import math
import multiprocessing
import os
import pickle
import threading
import tracemalloc

import numpy as np
import pytest

from dpforecast import (
    ModelSpec,
    RngStream,
    StaleTapeError,
    backward_batch,
    finite_diff_grad,
    forward_batch,
    init_params,
    load_params,
    save_params,
)
from dpforecast import nn
from dpforecast.nn import GATE_NAMES, Packed, pack_params, param_count, param_shapes
from dpforecast.optim import adam_step, dp_aggregate, init_adam_state

from reference import cell_gates, cell_step, network_forward


def zero_params(spec):
    return {k: np.zeros(s) for k, s in param_shapes(spec).items()}


def lstm_dir_params(**values):
    """One LSTM direction with one unit: zero tensors but for ``values``."""
    names = ("W_xi", "W_xf", "W_xo", "W_xg", "W_hi", "W_hf", "W_ho", "W_hg",
             "b_i", "b_f", "b_o", "b_g")
    return {k: np.array([[values.get(k, 0.0)]]) if k.startswith("W")
            else np.array([values.get(k, 0.0)]) for k in names}


def gru_dir_params(W_z=0.0, U_z=0.0, b_z=0.0, W_r=0.0, U_r=0.0, b_r=0.0,
                   W_c=0.0, U_c=0.0, b_c=0.0):
    return {
        "W_z": np.array([[W_z]]), "U_z": np.array([[U_z]]), "b_z": np.array([b_z]),
        "W_r": np.array([[W_r]]), "U_r": np.array([[U_r]]), "b_r": np.array([b_r]),
        "W_c": np.array([[W_c]]), "U_c": np.array([[U_c]]), "b_c": np.array([b_c]),
    }


class TestInitParams:
    def test_weights_within_per_gate_bound(self):
        spec = ModelSpec("gru", False, 25, 10, 4)
        params = init_params(spec, RngStream(0))
        bound_in = math.sqrt(6.0 / (10 + 25))
        bound_rec = math.sqrt(6.0 / (25 + 25))
        for name in ("fw_W_z", "fw_W_r", "fw_W_c"):
            assert np.all(np.abs(params[name]) <= bound_in)
        for name in ("fw_U_z", "fw_U_r", "fw_U_c"):
            assert np.all(np.abs(params[name]) <= bound_rec)

    def test_tiny_spec_bound(self):
        spec = ModelSpec("lstm", False, 1, 1, 1)
        params = init_params(spec, RngStream(1))
        for name, value in params.items():
            if value.ndim == 2:
                rows, cols = value.shape
                assert np.all(np.abs(value) <= math.sqrt(6.0 / (rows + cols)))

    def test_biases_zero_and_seed_reproducible(self):
        spec = ModelSpec("gru", True, 3, 2, 2)
        a = init_params(spec, RngStream(9))
        b = init_params(spec, RngStream(9))
        for name in a:
            assert np.array_equal(a[name], b[name])
            if name.endswith(("b_z", "b_r", "b_c", "out_b")):
                assert np.all(a[name] == 0.0)


def tape_arrays(tape) -> list[np.ndarray]:
    """Every array a forward tape holds."""
    arrays = [tape.prediction, tape.h_cat]
    for cache in tape.caches.values():
        arrays += [cache.xs, cache.hs, cache.gates]
        arrays += [] if cache.cs is None else [cache.cs]
    return arrays


def lstm_rebuilt_states(spec, tape) -> dict[str, np.ndarray]:
    """Per direction, the states before each step (T, n, h) that the LSTM backward rebuilds."""
    zero = np.zeros((tape.prediction.shape[0], spec.hidden_size))
    return {direction: nn._direction_deltas(spec, tape.weights[f"{direction}_U"], cache, zero)[1][0]
            for direction, cache in tape.caches.items()}


def same_view(a, b):
    return a.__array_interface__ == b.__array_interface__


class TestPackedLayout:
    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    def test_named_tensors_are_gate_blocks_of_one_vector(self, cell):
        spec = ModelSpec(cell, True, 4, 3, 2, "relu")
        d, h, G = 3, 4, len(GATE_NAMES[cell][0])
        params = init_params(spec, RngStream(0))
        flat = params.vector
        assert flat.size == sum(v.size for v in params.values())
        assert all(np.shares_memory(v, flat) for v in params.values())
        lo = 0
        for direction in ("fw", "bw"):
            fused = []
            for shape in ((d, G * h), (h, G * h), (G * h,)):
                fused.append(flat[lo:lo + math.prod(shape)].reshape(shape))
                lo += math.prod(shape)
            for block, names in zip(fused, GATE_NAMES[cell]):
                for j, name in enumerate(names):
                    assert same_view(params[f"{direction}_{name}"], block[..., j * h:(j + 1) * h])
        assert same_view(params["out_W"], flat[lo:lo + 16].reshape(8, 2))
        assert same_view(params["out_b"], flat[lo + 16:])
        fused[0][0, 0] = 7.0  # bw W: the write shows through the bw_W_z / bw_W_xi view
        assert params[f"bw_{GATE_NAMES[cell][0][0]}"][0, 0] == 7.0

    def test_mean_gradient_is_laid_out_like_params(self):
        spec = ModelSpec("gru", True, 4, 3, 2, "relu")
        params = init_params(spec, RngStream(0))
        gen = np.random.default_rng(1)
        _, tape = forward_batch(spec, params, gen.standard_normal((5, 4, 3)))
        targets = gen.standard_normal((5, 2))
        grads = backward_batch(spec, params, tape, targets)
        assert isinstance(grads, Packed) and grads.spec == spec
        assert list(grads) == list(params) == list(param_shapes(spec))
        assert not np.shares_memory(grads.vector, params.vector)
        stacked = backward_batch(spec, params, tape, targets, reduce="stack")
        assert list(stacked) == list(param_shapes(spec))

    def test_init_draws_per_gate_tensors_in_key_order(self):
        spec = ModelSpec("lstm", True, 5, 3, 2)
        gen = RngStream(3).generator()
        expected = {}
        for name, shape in param_shapes(spec).items():
            if len(shape) == 1:
                expected[name] = np.zeros(shape)
            else:
                bound = np.sqrt(6.0 / (shape[0] + shape[1]))
                expected[name] = gen.uniform(-bound, bound, size=shape)
        params = init_params(spec, RngStream(3))
        assert list(params) == list(expected)
        for name, value in expected.items():
            assert params[name].tobytes() == value.tobytes(), name

    def test_pack_copies_and_checks_shapes(self):
        spec = ModelSpec("gru", False, 2, 1, 1)
        loose = {k: np.full(s, 0.5) for k, s in param_shapes(spec).items()}
        packed = pack_params(spec, loose)
        for name, value in loose.items():
            assert np.array_equal(packed[name], value)
            assert not np.shares_memory(packed[name], value)
        loose["fw_U_r"] = np.zeros((2, 3))
        with pytest.raises(ValueError, match="fw_U_r"):
            pack_params(spec, loose)

    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    def test_fused_forward_matches_per_gate_reference(self, cell):
        spec = ModelSpec(cell, True, 5, 3, 2, "relu")
        params = init_params(spec, RngStream(11))
        X = RngStream(12).generator().standard_normal((4, 6, 3))
        expected, _ = network_forward(spec, params, X)
        got, _ = forward_batch(spec, params, X)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15)

    def test_loose_and_packed_params_give_the_same_forward(self):
        spec = ModelSpec("lstm", True, 4, 3, 2, "tanh")
        params = init_params(spec, RngStream(5))
        loose = {k: v.copy() for k, v in params.items()}
        X = RngStream(6).generator().standard_normal((1, 4, 3))
        assert np.array_equal(forward_batch(spec, params, X)[0], forward_batch(spec, loose, X)[0])


class TestPacked:
    @pytest.mark.parametrize("clone", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_copies_keep_every_view_on_their_own_vector(self, clone):
        spec = ModelSpec("lstm", True, 3, 2, 2, "relu")
        params = init_params(spec, RngStream(1))
        copied = clone(params)
        assert isinstance(copied, Packed) and copied.spec == spec
        assert copied.vector.tobytes() == params.vector.tobytes()
        assert not np.shares_memory(copied.vector, params.vector)
        views = list(copied.values()) + list(copied.fused.values())
        assert all(np.shares_memory(v, copied.vector) for v in views)
        copied.vector[:] = 0.0
        assert all((v == 0.0).all() for v in views)

    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_every_view_shares_the_vector_in_param_shapes_order(self, cell, bidirectional):
        # Two packs of one spec: the views are cached per spec as a plan, but
        # each pack's views are of its own vector.
        spec = ModelSpec(cell, bidirectional, 3, 2, 4, "relu")
        size = param_count(spec)
        for start in (0.0, float(size)):
            vector = np.arange(start, start + size)
            packed = Packed(spec, vector)
            assert [(k, v.shape) for k, v in packed.items()] == list(param_shapes(spec).items())
            assert all(np.shares_memory(v, vector) for v in packed.values())
            assert all(np.shares_memory(v, vector) for v in packed.fused.values())
            # The named views cover every element of the vector exactly once.
            covered = np.sort(np.concatenate([v.ravel() for v in packed.values()]))
            assert covered.tobytes() == vector.tobytes()
            assert packed["out_W"] is packed.fused["out_W"]
            assert packed["out_b"] is packed.fused["out_b"]

    def test_no_item_assignment(self):
        params = pack_params(ModelSpec("gru", False, 2, 1, 1))
        with pytest.raises(TypeError):
            params["out_b"] = np.ones(1)
        loose = dict(params)
        loose["out_b"] = np.ones(1)
        assert params["out_b"][0] == 0.0

    def test_vector_is_checked(self):
        spec = ModelSpec("gru", False, 2, 1, 1)
        size = len(pack_params(spec).vector)
        for bad in (np.zeros(size, dtype=np.float32), np.zeros(size + 1),
                    np.zeros((size, 1)), np.zeros(2 * size)[::2], [0.0] * size):
            with pytest.raises(ValueError, match="packed vector"):
                Packed(spec, bad)

    def test_forward_of_another_specs_packed_equals_a_loose_forward(self):
        # Same layout, other activation: the fused tensors are not taken as is.
        spec = ModelSpec("gru", True, 4, 3, 2, "tanh")
        relu = init_params(ModelSpec("gru", True, 4, 3, 2, "relu"), RngStream(2))
        X = RngStream(3).generator().standard_normal((5, 6, 3))
        got, _ = forward_batch(spec, relu, X)
        expected, _ = forward_batch(spec, dict(relu), X)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_dp_noise_is_laid_over_the_packed_vector(self, cell, bidirectional):
        spec = ModelSpec(cell, bidirectional, 3, 2, 4, "relu")
        summed = pack_params(spec)
        got = dp_aggregate(summed, 1.5, 2.0, RngStream(6), microbatches=1)
        expected = 3.0 * RngStream(6).generator().standard_normal(summed.vector.size)
        assert got is summed
        assert got.vector.tobytes() == expected.tobytes()

    def test_adam_refuses_a_plain_dict(self):
        spec = ModelSpec("gru", False, 2, 1, 1)
        params = init_params(spec, RngStream(4))
        state = init_adam_state(params)
        with pytest.raises(ValueError, match="one flat"):
            adam_step(dict(params), params, state, 0.1)


class TestLstmStep:
    """Hand-evaluated LSTM steps pin the reference ``cell_step``."""

    def test_zero_fixed_point(self):
        h, c = cell_step("lstm", lstm_dir_params(), np.zeros(1), np.zeros(1), np.zeros(1))
        assert np.all(h == 0.0) and np.all(c == 0.0)

    def test_hand_evaluated_gate_equations(self):
        # All weights and biases zero except b_g = 10: gates are 0.5, the
        # candidate saturates to tanh(10), so c = 0.5*tanh(10) and
        # h = 0.5*tanh(c).
        p = lstm_dir_params(b_g=10.0)
        h, c = cell_step("lstm", p, np.zeros(1), np.zeros(1), np.zeros(1), activation="tanh")
        assert c[0] == pytest.approx(0.49999999793884636, abs=1e-12)
        assert h[0] == pytest.approx(0.2310585778195101, abs=1e-12)

    def test_relu_kills_candidate(self):
        p = lstm_dir_params(b_g=-4.0)
        c_prev = np.array([0.8])
        h, c = cell_step("lstm", p, np.zeros(1), np.zeros(1), c_prev, activation="relu")
        # f = 0.5 exactly, g = relu(-4) = 0, so c = f * c_prev exactly
        assert c[0] == 0.5 * 0.8


class TestGruStep:
    """Hand-evaluated GRU steps pin the reference ``cell_step``."""

    def test_zero_fixed_point(self):
        h = cell_step("gru", gru_dir_params(), np.zeros(1), np.zeros(1), activation="tanh")
        assert np.all(h == 0.0)

    def test_halving_with_zero_weights(self):
        v = np.array([0.62])
        h = cell_step("gru", gru_dir_params(), np.zeros(1), v, activation="tanh")
        # z = r = 0.5 and the candidate is act(0) = 0, so h = (1-z) v = v/2
        assert h[0] == pytest.approx(0.31, abs=1e-15)

    def test_hand_evaluated_update(self):
        # W_z = W_c = 1, everything else 0, x = 2, h_prev = 0.7:
        # z = sigmoid(2), r = 0.5, c = tanh(2), h = (1-z)*0.7 + z*c.
        p = gru_dir_params(W_z=1.0, W_c=1.0)
        h = cell_step("gru", p, np.array([2.0]), np.array([0.7]), activation="tanh")
        z = 0.8807970779778823
        expected = (1 - z) * 0.7 + z * 0.9640275800758169
        assert h[0] == pytest.approx(expected, abs=1e-12)
        assert h[0] == pytest.approx(0.9325547210363508, abs=1e-12)

    def test_gate_convention_keeps_history_when_update_closed(self):
        # Strongly negative update-gate bias forces z ~ 0 and h ~ h_prev.
        p = gru_dir_params(b_z=-30.0, W_c=1.0)
        h = cell_step("gru", p, np.array([2.0]), np.array([0.7]), activation="tanh")
        assert h[0] == pytest.approx(0.7, abs=1e-9)


class TestActGrad:
    def test_relu_derivative_from_the_output_is_the_pre_activation_mask(self):
        # relu keeps -0.0 and NaN, neither above 0, so the output's mask is
        # the pre-activation's, bit for bit.
        tiny = np.nextafter(0.0, 1.0)
        pre = np.concatenate([
            [0.0, -0.0, tiny, -tiny, np.finfo(float).tiny / 2, -np.finfo(float).tiny / 2,
             np.inf, -np.inf, np.nan, -np.nan, np.finfo(float).max, -np.finfo(float).max],
            RngStream(60).generator().standard_normal(200) * 10.0 ** np.arange(-100, 100),
        ])
        got = nn._act_grad(np.maximum(pre, 0.0), "relu")
        assert got.dtype == np.float64
        assert got.tobytes() == (pre > 0).astype(float).tobytes()


class TestForwardBatchInputChecks:
    @pytest.mark.parametrize("shape, message", [
        ((6, 3), "windows must be 3-d"),
        ((2, 0, 3), "at least one step"),
        ((2, 6, 4), "feature size 4 != spec input_size 3"),
    ], ids=["2-d", "zero-lag", "feature-size"])
    def test_bad_windows_rejected(self, shape, message):
        spec = ModelSpec("lstm", True, 3, 3, 2)
        params = init_params(spec, RngStream(0))
        with pytest.raises(ValueError, match=message):
            forward_batch(spec, params, np.zeros(shape))


class TestForward:
    def test_zero_params_returns_dense_bias(self):
        spec = ModelSpec("gru", True, 3, 2, 2, "relu")
        params = zero_params(spec)
        params["out_b"] = np.array([1.5, -2.0])
        pred, _ = forward_batch(spec, params, np.ones((1, 4, 2)))
        np.testing.assert_allclose(pred, [[1.5, -2.0]], atol=0)

    def test_palindromic_window_symmetry(self):
        spec = ModelSpec("gru", True, 3, 2, 2, "tanh")
        params = init_params(spec, RngStream(3))
        for name in params:
            if name.startswith("bw_"):
                params[name][...] = params["fw_" + name[3:]]
        window = np.array([[0.1, -0.4], [1.0, 0.2], [0.1, -0.4]])
        _, tape = forward_batch(spec, params, window[None])
        np.testing.assert_allclose(tape.caches["fw"].final, tape.caches["bw"].final, atol=1e-15)

    def test_matches_chained_gru_steps(self):
        spec = ModelSpec("gru", False, 1, 1, 1, "tanh")
        dirp = gru_dir_params(W_z=0.8, U_z=0.3, W_r=-0.5, U_r=0.2, W_c=1.1, U_c=0.7,
                              b_z=0.1, b_r=-0.2, b_c=0.05)
        params = {f"fw_{k}": v for k, v in dirp.items()}
        params["out_W"] = np.array([[2.0]])
        params["out_b"] = np.array([0.25])
        window = np.array([[0.4], [-1.2]])
        h = np.zeros(1)
        for t in range(2):
            h = cell_step("gru", dirp, window[t], h, activation="tanh")
        expected = h @ params["out_W"] + params["out_b"]
        pred, _ = forward_batch(spec, params, window[None])
        np.testing.assert_allclose(pred[0], expected, atol=1e-15)

    def test_reversal_swaps_direction_finals(self):
        spec = ModelSpec("lstm", True, 3, 2, 1, "tanh")
        params = init_params(spec, RngStream(8))
        gen = RngStream(8).generator()
        X = gen.standard_normal((1, 5, 2))
        _, tape = forward_batch(spec, params, X)
        swapped = dict(params)
        for name in params:
            if name.startswith("fw_"):
                swapped[name] = params["bw_" + name[3:]]
            elif name.startswith("bw_"):
                swapped[name] = params["fw_" + name[3:]]
        _, tape_rev = forward_batch(spec, swapped, X[:, ::-1])
        for a, b in (("fw", "bw"), ("bw", "fw")):
            np.testing.assert_allclose(tape.caches[a].final, tape_rev.caches[b].final, atol=0)

    def test_deterministic(self):
        spec = ModelSpec("lstm", False, 4, 3, 2, "relu")
        params = init_params(spec, RngStream(2))
        X = RngStream(2).generator().standard_normal((1, 6, 3))
        a, _ = forward_batch(spec, params, X)
        b, _ = forward_batch(spec, params, X)
        assert np.array_equal(a, b)

    def test_gate_boundedness_tanh(self):
        spec = ModelSpec("gru", False, 4, 2, 1, "tanh")
        params = init_params(spec, RngStream(4))
        gen = RngStream(5).generator()
        X = 3.0 * gen.standard_normal((1, 10, 2))
        _, tape = forward_batch(spec, params, X)
        assert np.all(np.abs(tape.caches["fw"].final) <= 1.0)
        for z in tape.caches["fw"].gates[:, 0]:
            assert np.all((z > 0) & (z < 1))

    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    @pytest.mark.parametrize("bidirectional", [False, True])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_tape_holds_each_gate_as_one_contiguous_block(self, cell, bidirectional, activation):
        spec = ModelSpec(cell, bidirectional, 5, 3, 2, activation)
        params = init_params(spec, RngStream(40))
        X = RngStream(41).generator().standard_normal((4, 3, 3))
        _, tape = forward_batch(spec, params, X)
        _, states = network_forward(spec, params, X)
        for direction, cache in tape.caches.items():
            assert cache.gates.shape == (3, len(GATE_NAMES[cell][0]), 4, 5)
            prefix = f"{direction}_"
            p = {k[len(prefix):]: v for k, v in params.items() if k.startswith(prefix)}
            xs = X if direction == "fw" else X[:, ::-1]
            # The LSTM's tape keeps no states before its last: take them from the reference.
            h_prev = cache.hs if cell == "gru" else [np.zeros((4, 5))] + states[direction]
            for t, step in enumerate(cache.gates):
                expected = cell_gates(cell, p, xs[:, t], h_prev[t], activation)
                for block, gate in zip(step, expected):
                    assert block.flags.c_contiguous
                    np.testing.assert_allclose(block, gate, rtol=1e-13, atol=0)

    @staticmethod
    def paper_shape_forward_peak(monkeypatch, threaded: bool) -> tuple[int, int]:
        """The traced peak of a 336-window BiLSTM forward, and its tape's bytes."""
        monkeypatch.setattr(nn, "_direction_thread_allowed", lambda: threaded)
        spec = ModelSpec("lstm", True, 175, 10, 6, "relu")
        params = init_params(spec, RngStream(42))
        X = RngStream(43).generator().standard_normal((336, 6, 10))
        forward_batch(spec, params, X)
        tracemalloc.start()
        try:
            _, tape = forward_batch(spec, params, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, sum(a.nbytes for a in tape_arrays(tape))

    @pytest.mark.parametrize("cell, units", [("gru", 25), ("lstm", 33)])
    def test_paper_shape_tape_holds_no_pre_activation(self, cell, units):
        # Per direction, the block behind the states and gates holds G*T gate
        # blocks of n*h floats, T+1 of each state's but 2 of the LSTM's
        # hidden state: GRU 18 + 7, LSTM 24 + 7 + 2.
        spec = ModelSpec(cell, True, 175, 10, 6, "relu")
        params = init_params(spec, RngStream(44))
        X = RngStream(45).generator().standard_normal((336, 6, 10))
        _, tape = forward_batch(spec, params, X)
        owners = {}
        for a in [tape.prediction, tape.h_cat] + [
                value for cache in tape.caches.values() for value in vars(cache).values()
                if isinstance(value, np.ndarray)]:
            while a.base is not None:
                a = a.base
            owners[id(a)] = a
        n, h, T, d = 336, 175, 6, 10
        expected = 8 * (n * 6 + n * 2 * h + 2 * (T * n * d + units * n * h))
        assert sum(a.nbytes for a in owners.values()) == expected

    def test_paper_shape_forward_peak_is_the_tape_and_one_step_of_scratch(self, monkeypatch):
        # A 336-window BiLSTM: each step reads its projection through one
        # step's scratch, so no full-size temporary ever lives beside the tape.
        peak, tape_bytes = self.paper_shape_forward_peak(monkeypatch, threaded=False)
        step_scratch = 336 * 4 * 175 * 8
        assert peak <= tape_bytes + step_scratch + 2**20, (peak, tape_bytes)

    def test_threaded_paper_shape_forward_peak_is_the_tape_and_a_step_per_direction(
            self, monkeypatch):
        # Each direction running at once has its own step scratch, rec and
        # tmp, and nothing more.
        peak, tape_bytes = self.paper_shape_forward_peak(monkeypatch, threaded=True)
        step_scratch = 336 * (4 + 1) * 175 * 8
        assert peak <= tape_bytes + 2 * step_scratch + 2**20, (peak, tape_bytes)


def allow_direction_thread(monkeypatch):
    """Make every check of ``nn._direction_thread_allowed`` pass, each on its own."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setattr(multiprocessing, "parent_process", lambda: None)
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def thread_allowed_in_a_pool_worker() -> tuple[bool, bool]:
    """Run in a pool worker: the rule as it stands, and with its worker check patched out."""
    parent_process = multiprocessing.parent_process
    as_is = nn._direction_thread_allowed()
    multiprocessing.parent_process = lambda: None
    try:
        return as_is, nn._direction_thread_allowed()
    finally:
        multiprocessing.parent_process = parent_process


class TestDirectionThread:
    """A large bidirectional forward runs ``bw`` on a worker thread, with the same bytes."""

    @staticmethod
    def recorded_forward(monkeypatch, spec, params, X):
        """forward_batch's result, and direction -> the thread that ran it.

        Also checks that the call leaves the process's threads as they were.
        """
        ran_on = {}
        run = nn._run_direction

        def recording(spec, W, U, b, cache, rec, tmp):
            ran_on[id(cache)] = threading.current_thread()
            return run(spec, W, U, b, cache, rec, tmp)

        monkeypatch.setattr(nn, "_run_direction", recording)
        before = threading.enumerate()
        result = forward_batch(spec, params, X)
        assert threading.enumerate() == before
        monkeypatch.setattr(nn, "_run_direction", run)
        caches = result[1].caches
        assert len(ran_on) == len(caches)
        return result, {direction: ran_on[id(cache)] for direction, cache in caches.items()}

    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_threaded_pass_has_the_sequential_bytes(self, monkeypatch, cell, activation):
        # Large enough that numpy releases the GIL, so the directions overlap.
        spec = ModelSpec(cell, True, 32, 3, 2, activation)
        params = init_params(spec, RngStream(50))
        gen = RngStream(51).generator()
        X, y = gen.standard_normal((64, 5, 3)), gen.standard_normal((64, 2))
        results = {}
        monkeypatch.setattr(nn, "_THREAD_MIN_WORK", 0)
        for threaded in (False, True):
            monkeypatch.setattr(nn, "_direction_thread_allowed", lambda: threaded)
            (_, tape), ran_on = self.recorded_forward(monkeypatch, spec, params, X)
            main = threading.current_thread()
            assert ran_on["fw"] is main and (ran_on["bw"] is not main) == threaded
            mean = backward_batch(spec, params, tape, y)
            clipped = backward_batch(spec, params, tape, y, reduce="clip", clip=0.05,
                                     microbatches=4)
            results[threaded] = ([a.tobytes() for a in tape_arrays(tape)],
                                 mean.vector.tobytes(), clipped.vector.tobytes())
        assert results[True] == results[False]

    @pytest.mark.parametrize("case", [
        "unidirectional", "below the bar", "BLAS threads unset", "two BLAS threads",
        "OPENBLAS_NUM_THREADS over OMP_NUM_THREADS", "pool worker", "another thread",
        "one CPU", "one CPU by count"])
    def test_no_thread_is_started(self, monkeypatch, case):
        # Every other check passes, so the one the case names decides.
        allow_direction_thread(monkeypatch)
        spec = ModelSpec("gru", case != "unidirectional", 4, 3, 2)
        params = init_params(spec, RngStream(52))
        X = RngStream(53).generator().standard_normal((6, 3, 3))
        if case == "below the bar":
            assert 6 * 4**2 < nn._THREAD_MIN_WORK
        else:
            monkeypatch.setattr(nn, "_THREAD_MIN_WORK", 0)
        if case == "BLAS threads unset":
            monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        if case == "two BLAS threads":
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        if case == "OPENBLAS_NUM_THREADS over OMP_NUM_THREADS":
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
            monkeypatch.setenv("OMP_NUM_THREADS", "1")
        if case == "pool worker":
            monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        if case == "another thread":
            monkeypatch.setattr(threading, "active_count", lambda: 2)
        if case == "one CPU":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        if case == "one CPU by count":
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        (_, _), ran_on = self.recorded_forward(monkeypatch, spec, params, X)
        assert set(ran_on.values()) == {threading.current_thread()}

    @pytest.mark.parametrize("cpus", ["affinity", "count"])
    @pytest.mark.parametrize("blas", [{"OPENBLAS_NUM_THREADS": "1"}, {"OMP_NUM_THREADS": "1"},
                                      {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}])
    def test_one_blas_thread_and_two_cpus_start_one(self, monkeypatch, cpus, blas):
        allow_direction_thread(monkeypatch)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        for name, value in blas.items():
            monkeypatch.setenv(name, value)
        if cpus == "count":
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(nn, "_THREAD_MIN_WORK", 0)
        spec = ModelSpec("gru", True, 4, 3, 2)
        X = RngStream(53).generator().standard_normal((6, 3, 3))
        params = init_params(spec, RngStream(52))
        (_, _), ran_on = self.recorded_forward(monkeypatch, spec, params, X)
        assert ran_on["fw"] is threading.current_thread() is not ran_on["bw"]

    def test_a_pool_worker_is_seen_as_one(self, monkeypatch):
        # The worker inherits the environment and the affinity, and has no
        # other thread, so only the worker check can refuse.
        from concurrent.futures import ProcessPoolExecutor

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        with ProcessPoolExecutor(max_workers=1) as pool:
            as_is, unchecked = pool.submit(thread_allowed_in_a_pool_worker).result()
        assert not as_is
        assert unchecked == (len(os.sched_getaffinity(0)) > 1)

    @pytest.mark.parametrize("direction", ["bw", "fw"])
    def test_a_raising_direction_propagates_and_leaves_no_thread(self, monkeypatch, direction):
        # The worker runs bw, the reversed input; the calling thread runs fw.
        main = threading.current_thread()
        cell = nn._lstm_cell

        def failing(*args, **kwargs):
            if (threading.current_thread() is main) == (direction == "fw"):
                raise FloatingPointError(f"{direction} failed")
            return cell(*args, **kwargs)

        monkeypatch.setattr(nn, "_lstm_cell", failing)
        monkeypatch.setattr(nn, "_THREAD_MIN_WORK", 0)
        monkeypatch.setattr(nn, "_direction_thread_allowed", lambda: True)
        spec = ModelSpec("lstm", True, 4, 3, 2)
        X = RngStream(54).generator().standard_normal((6, 3, 3))
        before = threading.enumerate()
        with pytest.raises(FloatingPointError, match=f"{direction} failed"):
            forward_batch(spec, init_params(spec, RngStream(55)), X)
        assert threading.enumerate() == before


def max_rel_err(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-5)
    return float(np.max(np.abs(analytic - numeric) / denom))


def loss_fn(spec, params, X, y):
    pred, _ = forward_batch(spec, params, X)
    return float(np.mean(np.abs(pred - y)))


class TestBackward:
    def test_zero_gradients_when_prediction_matches_target(self):
        spec = ModelSpec("gru", False, 2, 1, 1, "tanh")
        params = init_params(spec, RngStream(0))
        X = np.array([[[0.3], [0.1]]])
        pred, tape = forward_batch(spec, params, X)
        grads = backward_batch(spec, params, tape, pred)
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_dense_bias_gradient_is_sign_over_output_size(self):
        spec = ModelSpec("gru", False, 2, 1, 3, "tanh")
        params = init_params(spec, RngStream(1))
        X = np.array([[[0.5], [-0.2]]])
        pred, tape = forward_batch(spec, params, X)
        target = pred + np.array([1.0, -2.0, 0.5])
        grads = backward_batch(spec, params, tape, target)
        np.testing.assert_allclose(grads["out_b"], np.sign(pred - target)[0] / 3.0, atol=0)

    def test_unknown_reduction_is_refused(self):
        spec = ModelSpec("gru", False, 2, 1, 1, "tanh")
        params = init_params(spec, RngStream(0))
        pred, tape = forward_batch(spec, params, np.zeros((2, 3, 1)))
        with pytest.raises(ValueError) as err:
            backward_batch(spec, params, tape, pred, reduce="sum")
        assert str(err.value) == "reduce must be 'mean', 'stack' or 'clip', got 'sum'"

    @pytest.mark.parametrize("reduce", ["mean", "stack", "clip"])
    def test_target_shape_must_match_predictions(self, reduce):
        spec = ModelSpec("gru", False, 2, 1, 1, "tanh")
        params = init_params(spec, RngStream(0))
        _, tape = forward_batch(spec, params, np.zeros((2, 3, 1)))
        clip = {"clip": 1.0} if reduce == "clip" else {}
        with pytest.raises(ValueError) as err:
            backward_batch(spec, params, tape, np.zeros((3, 1)), reduce=reduce, **clip)
        assert str(err.value) == "targets shape (3, 1) != predictions (2, 1)"

    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_gradients_match_finite_differences(self, cell, bidirectional):
        spec = ModelSpec(cell, bidirectional, 3, 2, 2, "tanh")
        rng = RngStream(12)
        params = init_params(spec, rng)
        gen = rng.generator()
        X = gen.standard_normal((1, 4, 2))
        y = gen.standard_normal((1, 2))
        _, tape = forward_batch(spec, params, X)
        grads = backward_batch(spec, params, tape, y)
        for name in params:
            def f(t, name=name):
                trial = dict(params)
                trial[name] = t
                return loss_fn(spec, trial, X, y)
            fd = finite_diff_grad(f, params[name], 1e-5)
            assert max_rel_err(grads[name], fd) < 1e-4, name

    def test_stack_reduce_means_to_batch_gradient(self):
        spec = ModelSpec("lstm", True, 3, 2, 2, "relu")
        params = init_params(spec, RngStream(6))
        gen = RngStream(7).generator()
        X = gen.standard_normal((5, 4, 2))
        y = gen.standard_normal((5, 2))
        _, tape = forward_batch(spec, params, X)
        mean_g = backward_batch(spec, params, tape, y, reduce="mean")
        _, tape2 = forward_batch(spec, params, X)
        stacked = backward_batch(spec, params, tape2, y, reduce="stack")
        for name in mean_g:
            np.testing.assert_allclose(
                stacked[name].mean(axis=0), mean_g[name], atol=1e-12
            )

    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    def test_stack_row_equals_one_window_batch_backward(self, cell):
        spec = ModelSpec(cell, True, 4, 3, 2, "relu")
        params = init_params(spec, RngStream(21))
        gen = RngStream(22).generator()
        X = gen.standard_normal((5, 6, 3))
        y = gen.standard_normal((5, 2))
        _, tape = forward_batch(spec, params, X)
        stacked = backward_batch(spec, params, tape, y, reduce="stack")
        assert set(stacked) == set(params)
        for i in range(X.shape[0]):
            _, tape_i = forward_batch(spec, params, X[i:i + 1])
            single = backward_batch(spec, params, tape_i, y[i:i + 1])
            for name, g in single.items():
                assert stacked[name][i].shape == g.shape
                err = np.linalg.norm(stacked[name][i] - g)
                assert err <= 1e-12 * max(np.linalg.norm(g), 1e-300), (name, i)

    def test_paper_shape_stack_allocates_little_beyond_its_output(self):
        # The paper's BiGRU at batch 5: 5 * 197,406 float64s of per-example
        # gradients, written row by row into the output.
        spec = ModelSpec("gru", True, 175, 10, 6, "relu")
        params = init_params(spec, RngStream(1))
        gen = RngStream(2).generator()
        y = gen.standard_normal((5, 6))
        _, tape = forward_batch(spec, params, gen.standard_normal((5, 6, 10)))
        tracemalloc.start()
        try:
            stacked = backward_batch(spec, params, tape, y, reduce="stack")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out_bytes = sum(v.nbytes for v in stacked.values())
        assert out_bytes == 5 * params.vector.nbytes
        assert peak <= 1.3 * out_bytes, (peak, out_bytes)

    def test_stale_tape_rejected(self):
        spec = ModelSpec("gru", False, 2, 1, 1, "tanh")
        params = init_params(spec, RngStream(0))
        _, tape = forward_batch(spec, params, np.ones((1, 2, 1)))
        other = {k: v.copy() for k, v in params.items()}
        with pytest.raises(StaleTapeError):
            backward_batch(spec, other, tape, np.zeros((1, 1)))

    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    def test_tape_is_untouched_by_a_later_forward(self, cell):
        spec = ModelSpec(cell, True, 7, 3, 2, "relu")
        params = init_params(spec, RngStream(30))
        gen = RngStream(31).generator()
        X_a, X_b = gen.standard_normal((2, 4, 6, 3))
        y = gen.standard_normal((4, 2))

        def tape_bytes(tape):
            return [a.tobytes() for a in tape_arrays(tape)]

        def grad_bytes(tape):
            mean = backward_batch(spec, params, tape, y)
            clipped = backward_batch(spec, params, tape, y, reduce="clip", clip=0.5,
                                     microbatches=2)
            return [mean.vector.tobytes(), clipped.vector.tobytes()]

        _, tape_a = forward_batch(spec, params, X_a)
        before, grads_before = tape_bytes(tape_a), grad_bytes(tape_a)
        forward_batch(spec, params, X_b)
        assert tape_bytes(tape_a) == before
        assert grad_bytes(tape_a) == grads_before


class TestLstmTapeStates:
    """An LSTM tape keeps its hidden states in a ring of two slots; the backward rebuilds them."""

    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    def test_lstm_tape_holds_two_hidden_slots_and_gru_tape_every_state(self, cell):
        spec = ModelSpec(cell, True, 5, 3, 2)
        X = RngStream(63).generator().standard_normal((4, 6, 3))
        _, tape = forward_batch(spec, init_params(spec, RngStream(62)), X)
        for cache in tape.caches.values():
            if cell == "gru":
                assert cache.hs.shape == (7, 4, 5) and cache.cs is None
            else:
                assert cache.hs.shape == (2, 4, 5) and cache.cs.shape == (7, 4, 5)
                with pytest.raises(AttributeError, match="rebuilds them"):
                    cache.h_prev

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("n", [1, 5, 336])
    @pytest.mark.parametrize("inputs", ["random", "zero bias, -0.0 window"])
    def test_backward_rebuilds_the_states_the_steps_wrote(self, monkeypatch, activation, n,
                                                          inputs):
        spec, lag = ModelSpec("lstm", True, 16, 4, 2, activation), 5
        params = init_params(spec, RngStream(60))
        gen = RngStream(61).generator()
        if inputs == "random":
            for value in params.values():
                value += 0.1 * gen.standard_normal(value.shape)  # nonzero biases too
            X = gen.standard_normal((n, lag, 4))
        else:
            X = np.full((n, lag, 4), -0.0)
        written, cell = [], nn._lstm_cell

        def recording(*args, **kwargs):
            h, c = cell(*args, **kwargs)
            written.append(h.copy())
            return h, c

        monkeypatch.setattr(nn, "_lstm_cell", recording)
        monkeypatch.setattr(nn, "_direction_thread_allowed", lambda: False)
        _, tape = forward_batch(spec, params, X)
        _, states = network_forward(spec, params, X)
        zero = np.zeros((n, 16))
        for j, (direction, rebuilt) in enumerate(lstm_rebuilt_states(spec, tape).items()):
            steps = written[j * lag:(j + 1) * lag]  # fw's steps, then bw's
            assert rebuilt.tobytes() == np.stack([zero] + steps[:-1]).tobytes()
            expected = np.stack([zero] + states[direction][:-1])
            if inputs == "random":
                # The reference sums its gates unfused and its sigmoid is 1 / (1 + exp(-a)),
                # so a state near 0 may differ from it by a few ulps of the terms it sums.
                np.testing.assert_allclose(rebuilt, expected, rtol=1e-13, atol=1e-15)
            else:
                # Every value is exact, +0.0, in the library and the reference alike.
                assert rebuilt.tobytes() == expected.tobytes()


class TestZeroInitialState:
    """Step 0 skips the recurrent matmuls on the zero state; the reference still runs them."""

    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("bidirectional", [False, True])
    @pytest.mark.parametrize("lag", [1, 6])
    def test_forward_matches_chained_steps(self, cell, activation, bidirectional, lag):
        spec = ModelSpec(cell, bidirectional, 7, 4, 2, activation)
        params = init_params(spec, RngStream(40))
        gen = RngStream(41).generator()
        for value in params.values():
            value += 0.1 * gen.standard_normal(value.shape)  # nonzero biases too
        X = gen.standard_normal((3, lag, 4))
        pred, tape = forward_batch(spec, params, X)
        expected, states = network_forward(spec, params, X)
        for direction, hs in states.items():
            cache = tape.caches[direction]
            # The LSTM's tape keeps its last state; the backward rebuilds the others.
            after = cache.hs[1:] if cell == "gru" else [
                *lstm_rebuilt_states(spec, tape)[direction][1:], cache.final]
            for t, h in enumerate(hs):
                np.testing.assert_allclose(after[t], h, rtol=1e-13, atol=0)
        np.testing.assert_allclose(pred, expected, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_one_step_windows_have_zero_recurrent_gradients(self, cell, bidirectional):
        # With lag 1 every step is step 0, so the whole pass is the shortcut.
        spec = ModelSpec(cell, bidirectional, 7, 4, 2, "tanh")
        params = init_params(spec, RngStream(42))
        gen = RngStream(43).generator()
        X = gen.standard_normal((3, 1, 4))
        y = gen.standard_normal((3, 2))
        _, tape = forward_batch(spec, params, X)
        mean_g = backward_batch(spec, params, tape, y, reduce="mean")
        stacked = backward_batch(spec, params, tape, y, reduce="stack")
        names_W, names_U, names_b = GATE_NAMES[cell]
        for direction in spec.directions:
            for name in names_U:
                key = f"{direction}_{name}"
                assert np.all(mean_g[key] == 0.0) and np.all(stacked[key] == 0.0), key
            for name in names_W + names_b:
                key = f"{direction}_{name}"
                np.testing.assert_allclose(stacked[key].mean(axis=0), mean_g[key],
                                           rtol=1e-12, atol=1e-17)


class TestSerialization:
    def test_round_trip_is_bit_exact(self, tmp_path):
        spec = ModelSpec("lstm", True, 5, 3, 2, "relu")
        params = init_params(spec, RngStream(33))
        path = tmp_path / "params.npz"
        # A packed set: every tensor is a view of one vector.
        assert all(np.shares_memory(v, params.vector) for v in params.values())
        save_params(path, params)
        loaded = load_params(path)
        assert set(loaded) == set(params)
        for name in params:
            assert np.array_equal(loaded[name], params[name])
            assert loaded[name].dtype == params[name].dtype
            assert loaded[name].shape == params[name].shape

    def test_per_tensor_archive_still_loads(self, tmp_path):
        # Archives written before the packed layout hold one contiguous array
        # per tensor; they load and forward exactly as the packed set does.
        spec = ModelSpec("gru", True, 5, 3, 2, "relu")
        params = init_params(spec, RngStream(34))
        path = tmp_path / "params.npz"
        np.savez(path, **{k: np.ascontiguousarray(v) for k, v in params.items()})
        loaded = load_params(path)
        assert list(loaded) == list(params)
        X = RngStream(35).generator().standard_normal((1, 6, 3))
        expected, _ = forward_batch(spec, params, X)
        got, _ = forward_batch(spec, loaded, X)
        assert got.tobytes() == expected.tobytes()
