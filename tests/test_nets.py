import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from rile import agents
from rile.agents import make_actor_critic, student_update, trainer_update
from rile.baselines import airl_loss_and_grads, airl_update, make_airl_heads
from rile.discriminator import _bce_loss_and_grads, disc_update, make_discriminator
from rile.nets import (
    MlpParams,
    _forward_cached,
    adam_init,
    adam_step,
    load_mlp,
    mlp_backward,
    mlp_forward,
    mlp_forward_cached,
    mlp_from_bytes,
    mlp_init,
    mlp_to_bytes,
    polyak,
    save_mlp,
)

from oracles import FLOAT32_RTOL, finite_diff_check, flat_to_params, nets, params_to_flat


def single_layer(w, b):
    """A network of one layer, which is linear."""
    return MlpParams([np.asarray(w, float)], [np.asarray(b, float)])


class TestForward:
    def test_identity_layer(self):
        p = single_layer(np.eye(2), [0.0, 0.0])
        assert np.array_equal(mlp_forward(p, [[3.0, -1.0]]), [[3.0, -1.0]])

    def test_relu_clamps_negative_preactivation(self):
        # hidden ReLU layer, then an identity output layer
        p = MlpParams([np.eye(2), np.eye(2)], [np.array([-2.0, 0.0]), np.zeros(2)])
        assert np.array_equal(mlp_forward(p, [[1.0, 1.0]]), [[0.0, 1.0]])

    def test_two_layer_hand_computed_chain(self):
        # 2 -> 2 (relu) -> 1 (linear), every element written out by hand;
        # the second hidden unit's pre-activation is negative.
        w1 = [[0.5, -0.25], [0.1, 0.3]]
        b1 = [0.05, -0.1]
        w2 = [[2.0, -1.0]]
        b2 = [0.25]
        p = MlpParams(
            [np.array(w1), np.array(w2)],
            [np.array(b1), np.array(b2)],
        )
        x0, x1 = 0.8, -0.4
        z1_0 = 0.5 * x0 + (-0.25) * x1 + 0.05
        z1_1 = 0.1 * x0 + 0.3 * x1 + (-0.1)
        assert z1_0 > 0.0 > z1_1
        h1_0 = max(z1_0, 0.0)
        h1_1 = max(z1_1, 0.0)
        y = 2.0 * h1_0 + (-1.0) * h1_1 + 0.25
        out = mlp_forward(p, [[x0, x1]])
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(y, abs=1e-15)

    def test_batch_matches_per_row(self):
        rng = np.random.default_rng(0)
        p = mlp_init([3, 5, 2], rng)
        xs = rng.normal(size=(7, 3))
        batch = mlp_forward(p, xs)
        # gemm vs gemv BLAS paths may differ in the last bits
        for i in range(7):
            np.testing.assert_allclose(batch[i:i + 1], mlp_forward(p, xs[i:i + 1]),
                                       rtol=1e-13, atol=1e-15)

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(1)
        p = mlp_init([4, 8, 3], rng)
        x = rng.normal(size=(1, 4))
        a, b = mlp_forward(p, x), mlp_forward(p, x)
        assert np.array_equal(a, b)

    def test_dimension_mismatch_names_layer(self):
        p = single_layer(np.eye(2), [0.0, 0.0])
        with pytest.raises(ValueError, match="dim"):
            mlp_forward(p, [[1.0, 2.0, 3.0]])

    def test_one_dimensional_input_rejected(self):
        # a single row is a 1-row batch; a bare vector is not taken for one
        p = single_layer(np.eye(2), [0.0, 0.0])
        with pytest.raises(ValueError, match=r"shape \(2,\)"):
            mlp_forward(p, [1.0, 2.0])
        with pytest.raises(ValueError, match=r"upstream gradient has shape \(2,\)"):
            mlp_backward(p, mlp_forward_cached(p, [[1.0, 2.0]])[1], [1.0, 0.0])

    def test_bad_chain_rejected(self):
        with pytest.raises(ValueError, match="layer 1"):
            MlpParams(
                [np.zeros((3, 2)), np.zeros((1, 4))],
                [np.zeros(3), np.zeros(1)],
            )


class TestFlatLayout:
    def net(self):
        return mlp_init([3, 4, 2], np.random.default_rng(12))

    def test_layout_is_w0_b0_w1_b1(self):
        p = self.net()
        expected = np.concatenate([p.weights[0].ravel(), p.biases[0],
                                   p.weights[1].ravel(), p.biases[1]])
        assert np.array_equal(p.flat, expected)
        assert p.flat.dtype == np.float64 and p.flat.size == 26

    def test_views_and_flat_alias_both_ways(self):
        p = self.net()
        p.weights[1][1, 2] = 7.0
        p.biases[0][3] = -3.0
        assert p.flat[12 + 4 + 1 * 4 + 2] == 7.0
        assert p.flat[12 + 3] == -3.0
        p.flat[:] = np.arange(p.flat.size)
        assert p.weights[0][2, 1] == 7.0
        assert np.array_equal(p.biases[1], [24.0, 25.0])

    def test_constructor_copies_its_arrays(self):
        w, b = np.eye(2), np.zeros(2)
        p = MlpParams([w], [b])
        w[0, 0] = 5.0
        p.biases[0][0] = 5.0
        assert p.weights[0][0, 0] == 1.0 and b[0] == 0.0

    def test_results_do_not_alias_inputs(self):
        p = self.net()
        flat = params_to_flat(p)
        for r in (p.copy(), flat_to_params(flat, p)):
            for x in (p.flat, flat):
                assert not np.shares_memory(r.flat, x)

    def test_flat_to_params_rejects_wrong_size(self):
        p = self.net()
        with pytest.raises(ValueError, match="26"):
            flat_to_params(np.zeros(25), p)

    def test_serialized_payload_is_the_flat_vector(self):
        p = self.net()
        data = mlp_to_bytes(p)
        assert data.endswith(p.flat.tobytes())
        assert len(data) == 8 + 4 + 9 * p.n_layers + p.flat.nbytes
        for bad in (data[:-8], data + bytes(8)):
            with pytest.raises(ValueError, match="payload"):
                mlp_from_bytes(bad)


class TestBackward:
    def test_linear_layer_gradient(self):
        # y = Wx + b, upstream e1: d/db = e1, d/dW = e1 x^T.
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        p = single_layer(w, [0.0, 0.0])
        x = np.array([[0.7, -1.3]])
        grads = flat_to_params(mlp_backward(p, mlp_forward_cached(p, x)[1], [[1.0, 0.0]]), p)
        assert np.array_equal(grads.biases[0], [1.0, 0.0])
        assert np.array_equal(grads.weights[0], np.outer([1.0, 0.0], x))

    def test_relu_subgradient_at_zero_is_zero(self):
        # Hidden pre-activation exactly 0: convention pins the subgradient to 0.
        p = MlpParams([np.ones((1, 1)), np.ones((1, 1))], [np.zeros(1), np.zeros(1)])
        grads = flat_to_params(mlp_backward(p, mlp_forward_cached(p, [[0.0]])[1], [[1.0]]), p)
        assert grads.weights[1][0, 0] == 0.0 and grads.biases[1][0] == 1.0
        assert grads.weights[0][0, 0] == 0.0
        assert grads.biases[0][0] == 0.0

    @nets((6,))
    def test_two_layer_matches_finite_differences(self, hidden):
        rng = np.random.default_rng(42)
        p = mlp_init([3, *hidden, 2], rng)
        x = rng.normal(size=(1, 3))
        u = rng.normal(size=2)

        def loss(q):
            return float(mlp_forward(q, x)[0] @ u)

        analytic = mlp_backward(p, mlp_forward_cached(p, x)[1], u[None])
        assert finite_diff_check(loss, p, analytic, step=1e-5) <= 1e-4

    def test_upstream_dim_mismatch_rejected(self):
        p = single_layer(np.eye(2), [0.0, 0.0])
        with pytest.raises(ValueError):
            mlp_backward(p, mlp_forward_cached(p, [[1.0, 2.0]])[1], [[1.0, 0.0, 0.0]])

    def test_upstream_row_count_mismatch_rejected(self):
        p = single_layer(np.eye(2), [0.0, 0.0])
        _, cache = mlp_forward_cached(p, np.ones((3, 2)))
        with pytest.raises(ValueError, match="batch sizes"):
            mlp_backward(p, cache, np.ones((2, 2)))


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        rng = np.random.default_rng(5)
        p = mlp_init([2, 3, 1], rng)
        before = params_to_flat(p)
        state = adam_init(p, lr=0.1)
        adam_step(p, np.zeros_like(p.flat), state)
        assert np.array_equal(p.flat, before)
        assert state.step == 1
        assert np.array_equal(state.m, np.zeros(p.flat.size))
        assert np.array_equal(state.v, np.zeros(p.flat.size))

    def test_single_step_hand_computed(self):
        # One scalar parameter, g=1, lr=0.1, fresh state:
        #   m=0.1, v=0.001, m_hat=1, v_hat=1 -> delta = 0.1/(1+1e-8)
        p = single_layer([[2.0]], [0.0])
        g = single_layer([[1.0]], [0.0])
        st = adam_init(p, lr=0.1)
        adam_step(p, g.flat, st)
        expected = 2.0 - 0.1 * 1.0 / (1.0 + 1e-8)
        assert p.weights[0][0, 0] == pytest.approx(expected, abs=1e-15)
        assert st.step == 1
        assert st.m[0] == pytest.approx(0.1, abs=1e-15)  # flat index 0 is W0[0, 0]
        assert st.v[0] == pytest.approx(0.001, abs=1e-15)

    def test_two_identical_steps_follow_recurrence(self):
        # Second step with g=1: m=0.19, v=0.001999, both bias corrections
        # cancel exactly (1-0.9^2=0.19, 1-0.999^2=0.001999) so delta repeats.
        p = single_layer([[0.0]], [5.0])
        g = single_layer([[1.0]], [1.0])
        st = adam_init(p, lr=0.1)
        adam_step(p, g.flat, st)
        adam_step(p, g.flat, st)
        delta = 0.1 * 1.0 / (1.0 + 1e-8)
        assert st.m[1] == pytest.approx(0.9 * 0.1 + 0.1, abs=1e-15)  # flat index 1 is b0[0]
        assert st.v[1] == pytest.approx(0.999 * 0.001 + 0.001, abs=1e-15)
        m_hat = (0.9 * 0.1 + 0.1) / (1.0 - 0.9**2)
        v_hat = (0.999 * 0.001 + 0.001) / (1.0 - 0.999**2)
        assert m_hat == pytest.approx(1.0, abs=1e-12)
        assert v_hat == pytest.approx(1.0, abs=1e-12)
        assert p.biases[0][0] == pytest.approx(5.0 - 2 * delta, abs=1e-12)
        assert p.weights[0][0, 0] == pytest.approx(0.0 - 2 * delta, abs=1e-12)

    def test_non_finite_gradient_rejected(self):
        p = single_layer([[1.0]], [0.0])
        g = single_layer([[1.0]], [0.0])
        g.weights[0][0, 0] = np.nan  # after construction: param validation is separate
        with pytest.raises(ValueError, match="non-finite"):
            adam_step(p, g.flat, adam_init(p, lr=0.1))

    @pytest.mark.parametrize("bad", ["nan", "inf", "size"])
    def test_rejected_step_writes_nothing(self, bad):
        # after two steps the moments are non-zero, so a partial write shows
        rng = np.random.default_rng(8)
        dims = [3, 4, 2]
        p = mlp_init(dims, rng)
        state = adam_init(p, lr=1e-2)
        for _ in range(2):
            adam_step(p, mlp_init(dims, rng).flat, state)
        g = mlp_init([3, 5, 2] if bad == "size" else dims, rng)
        g.flat[-1] = {"nan": np.nan, "inf": np.inf, "size": 1.0}[bad]
        before = [a.tobytes() for a in (p.flat, state.m, state.v)]
        with pytest.raises(ValueError):
            adam_step(p, g.flat, state)
        assert [a.tobytes() for a in (p.flat, state.m, state.v)] == before
        assert state.step == 2

    def test_shape_closure(self):
        rng = np.random.default_rng(6)
        p = mlp_init([3, 4, 2], rng)
        shapes = [w.shape for w in p.weights]
        st = adam_init(p, lr=1e-3)
        adam_step(p, mlp_init([3, 4, 2], rng).flat, st)
        assert [w.shape for w in p.weights] == shapes
        assert st.m.shape == st.v.shape == p.flat.shape

    def test_step_writes_in_place(self):
        rng = np.random.default_rng(6)
        p = mlp_init([3, 4, 2], rng)
        g = mlp_init([3, 4, 2], rng)
        st = adam_init(p, lr=1e-3)
        buffers = (p.flat, st.m, st.v)
        before = [params_to_flat(p), st.m.copy(), st.v.copy()]
        assert adam_step(p, g.flat, st) is None
        assert all(a is b for a, b in zip((p.flat, st.m, st.v), buffers))
        assert np.shares_memory(p.weights[0], p.flat)
        for now, then in zip(buffers, before):
            assert now.shape == then.shape and not np.array_equal(now, then)

    def test_step_allocates_at_most_two_parameter_vectors(self):
        # at most, and in fact none: the step's two scratch vectors live in
        # the network's workspace from its first step on, and the finiteness
        # mask is written into them, so a later step allocates no parameters,
        # moments, scratch or mask (two fresh scratch vectors took the peak
        # to 2 x flat.nbytes, and a fresh boolean mask alone is 0.125 x)
        rng = np.random.default_rng(7)
        dims = [2, 128, 128, 4]
        p, g = mlp_init(dims, rng), mlp_init(dims, rng)
        state = adam_init(p, lr=1e-3)
        adam_step(p, g.flat, state)
        held = p.ws._bufs.get("adam")
        tracemalloc.start()
        try:
            adam_step(p, g.flat, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * p.flat.nbytes
        assert held is not None and p.ws._bufs["adam"] is held and held.size == 2 * p.flat.size

    def test_matches_per_layer_reference(self):
        # The same arithmetic, one array at a time: results must be bit-equal.
        rng = np.random.default_rng(13)
        p = mlp_init([3, 5, 4, 2], rng)
        state = adam_init(p, lr=1e-2)
        ps = [a.copy() for a in (*p.weights, *p.biases)]
        ms = [np.zeros_like(a) for a in ps]
        vs = [np.zeros_like(a) for a in ps]
        for t in range(1, 6):
            g = mlp_init([3, 5, 4, 2], rng)
            adam_step(p, g.flat, state)
            c1, c2 = 1.0 - 0.9**t, 1.0 - 0.999**t
            for i, ga in enumerate((*g.weights, *g.biases)):
                ms[i] = 0.9 * ms[i] + (1.0 - 0.9) * ga
                vs[i] = 0.999 * vs[i] + (1.0 - 0.999) * ga * ga
                ps[i] = ps[i] - 1e-2 * (ms[i] / c1) / (np.sqrt(vs[i] / c2) + 1e-8)
        for got, want in zip((p, flat_to_params(state.m, p), flat_to_params(state.v, p)),
                             (ps, ms, vs)):
            for a, b in zip((*got.weights, *got.biases), want):
                assert np.array_equal(a, b)

    def test_counter_strictly_increments(self):
        p = single_layer([[1.0]], [0.0])
        st = adam_init(p, lr=0.1)
        for expect in (1, 2, 3):
            adam_step(p, np.zeros_like(p.flat), st)
            assert st.step == expect


def test_polyak_allocates_no_parameter_vector():
    # tau * source goes into a row of the target's workspace from the first
    # call on, so a later call allocates nothing parameter-sized (the fresh
    # product took the peak to 1 x flat.nbytes) and averages bit for bit
    rng = np.random.default_rng(7)
    dims = [2, 128, 128, 4]
    target, source = mlp_init(dims, rng), mlp_init(dims, rng)
    polyak(target, source, 0.01)
    held, flat = target.ws._bufs.get("polyak"), target.flat
    want = target.flat * (1 - 0.01) + 0.01 * source.flat
    tracemalloc.start()
    try:
        polyak(target, source, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * target.flat.nbytes
    assert held is not None and target.ws._bufs["polyak"] is held and target.flat is flat
    assert np.array_equal(target.flat, want)


def test_backward_allocates_less_than_one_parameter_vector():
    # the gradient goes into a row of the network's workspace from the
    # first backward on, so a later one allocates only its masks and small
    # transients (a fresh gradient took the peak to 1.73 x flat.nbytes)
    rng = np.random.default_rng(7)
    p = mlp_init([2, 128, 128, 4], rng)
    _, cache = mlp_forward_cached(p, rng.normal(size=(256, 2)))
    u = rng.normal(size=(256, 4))
    first = mlp_backward(p, cache, u).copy()
    held = p.ws._bufs.get("grad")
    tracemalloc.start()
    try:
        grad = mlp_backward(p, cache, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p.flat.nbytes
    assert held is not None and p.ws._bufs["grad"] is held and np.shares_memory(grad, held)
    assert np.array_equal(grad, first)


def test_a_second_backward_allocates_no_mask():
    # each hidden layer's ReLU mask is written into one scratch buffer of
    # the network's dtype, which the product then reads without a cast, so
    # a later backward allocates only the ufunc's small cast buffer: 0.075 x
    # flat.nbytes, where a fresh boolean mask and its float64 cast per
    # hidden layer took the peak to 0.72 x
    rng = np.random.default_rng(7)
    p = mlp_init([2, 128, 128, 4], rng)
    _, cache = mlp_forward_cached(p, rng.normal(size=(256, 2)))
    u = rng.normal(size=(256, 4))
    first = mlp_backward(p, cache, u).copy()
    tracemalloc.start()
    try:
        grad = mlp_backward(p, cache, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * p.flat.nbytes
    assert np.array_equal(grad, first)


class TestPrecision:
    """A network computes in the dtype of its parameter vector: float32 for
    the learners' networks, float64 otherwise."""

    DIMS = [3, 16, 8, 2]

    def test_float32_arrays_stay_float32_and_others_become_float64(self):
        w, b = np.ones((2, 3)), np.zeros(2)
        p32 = MlpParams([w.astype(np.float32)], [b.astype(np.float32)])
        assert p32.flat.dtype == p32.copy().flat.dtype == p32.weights[0].dtype == np.float32
        for ws, bs in (([w], [b]), ([w.astype(np.float32)], [b]), ([w.astype(int)], [b.astype(int)])):
            assert MlpParams(ws, bs).flat.dtype == np.float64

    def test_init_draws_in_float64_and_rounds_once(self):
        rng64, rng32 = np.random.default_rng(3), np.random.default_rng(3)
        p64, p32 = mlp_init(self.DIMS, rng64), mlp_init(self.DIMS, rng32, np.float32)
        assert p32.flat.dtype == np.float32
        assert np.array_equal(p32.flat, p64.flat.astype(np.float32))
        assert rng64.uniform() == rng32.uniform()  # the dtype moved no draw

    def test_a_float32_network_keeps_float32_inside_and_float64_outside(self):
        rng = np.random.default_rng(4)
        p = mlp_init(self.DIMS, rng, np.float32)
        opt = adam_init(p, lr=1e-2)
        y, cache = mlp_forward_cached(p, rng.normal(size=(32, 3)))
        grad = mlp_backward(p, cache, rng.normal(size=(32, 2)))
        adam_step(p, grad, opt)
        polyak(p, p.copy(), 0.5)
        assert y.dtype == np.float64 and not any(np.shares_memory(y, b)
                                                 for b in p.ws._bufs.values())
        arrays = [*cache, grad, opt.m, opt.v, p.flat, *p.ws._bufs.values()]
        assert all(a.dtype == np.float32 for a in arrays)

    def test_a_float32_forward_rounds_only_its_input_and_arithmetic(self):
        rng = np.random.default_rng(5)
        p = mlp_init(self.DIMS, rng, np.float32)
        x = rng.normal(size=(64, 3))
        y = mlp_forward(p, x)
        np.testing.assert_allclose(y, mlp_forward(flat_to_params(p.flat, p), x),
                                   rtol=FLOAT32_RTOL, atol=FLOAT32_RTOL * np.abs(y).max())
        assert np.array_equal(y, mlp_forward(p, x.astype(np.float32)))

    def test_a_float32_file_has_the_float64_layout(self, tmp_path):
        # the payload is flat as float64, exact for float32 values: the same
        # bytes as a float64 network of equal values, loaded back as float64
        p = mlp_init(self.DIMS, np.random.default_rng(6), np.float32)
        twin = flat_to_params(p.flat, p)
        data = mlp_to_bytes(p)
        assert data == mlp_to_bytes(twin)
        assert len(data) == 8 + 4 + 9 * p.n_layers + 8 * p.flat.size
        save_mlp(p, tmp_path / "net.mlp")
        q = load_mlp(tmp_path / "net.mlp")
        assert q.flat.dtype == np.float64 and np.array_equal(q.flat, p.flat)

    def test_float64_kernels_keep_their_bits(self):
        # a seed-fixed float64 sequence of forwards, backwards and Adam
        # steps, hashed; the pinned value is what these kernels gave before
        # networks could be float32, so float64 networks compute as before
        rng = np.random.default_rng(35)
        p = mlp_init([3, 32, 16, 2], rng)
        state = adam_init(p, lr=1e-2)
        h = hashlib.sha256()
        for n in (256, 7, 1, 256, 64):
            y, cache = mlp_forward_cached(p, 3.0 * rng.normal(size=(n, 3)))
            grad = mlp_backward(p, cache, rng.normal(size=(n, 2)))
            adam_step(p, grad, state)
            for a in (y, grad, p.flat, state.m, state.v):
                h.update(a.tobytes())
        assert h.hexdigest() == ("b275b356627069e37c9136abda55338f"
                                 "8b212237a5c55729165bf96c16e21997")


def _float64(p):
    """A float64 network of p's values."""
    return flat_to_params(p.flat, p)


class TestFloat32Learners:
    """The gradients of each factory-built float32 learner equal those of
    its float64 copy, to float32 rounding."""

    N = 256

    def assert_close(self, got, want):
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=FLOAT32_RTOL,
                                   atol=FLOAT32_RTOL * np.abs(want).max())

    def test_actor_critic(self):
        rng = np.random.default_rng(40)
        agent = make_actor_critic(3, 2, (64, 64), rng)
        s, a = rng.normal(size=(self.N, 3)), rng.uniform(-0.95, 0.95, (self.N, 2))
        targets = rng.normal(size=self.N)
        weights = agents.advantage_weights(rng.normal(size=self.N))
        for net, grads in (
                (agent.critic, lambda q: agents._critic_loss_grads(q, s, targets)[1]),
                (agent.actor, lambda q: agents._actor_loss_grads(q, s, a, weights, 0.2)[1])):
            self.assert_close(grads(net).copy(), grads(_float64(net)))

    def test_discriminator(self):
        rng = np.random.default_rng(41)
        net = make_discriminator(4, (64, 64), 1e-3, rng)
        x = rng.normal(size=(self.N, 4))

        def grads(q):
            return _bce_loss_and_grads(q, *_forward_cached(q, x), self.N // 2)[1]

        self.assert_close(grads(net.params).copy(), grads(_float64(net.params)))

    def test_airl_heads(self):
        rng = np.random.default_rng(42)
        heads = make_airl_heads(2, 2, (64, 64), 1e-3, 0.99, rng)
        twin = dataclasses.replace(heads, reward=_float64(heads.reward),
                                   potential=_float64(heads.potential))
        x, sp = rng.normal(size=(self.N, 4)), rng.normal(size=(self.N, 2))
        logp = rng.normal(size=self.N)
        got = [g.copy() for g in airl_loss_and_grads(heads, x, sp, logp, self.N // 2)[1:]]
        for g, want in zip(got, airl_loss_and_grads(twin, x, sp, logp, self.N // 2)[1:]):
            self.assert_close(g, want)


def _learner(kind, rng):
    """(learner, its networks' attribute names, its Adam states' attribute
    names, one update of it) for a small learner of each kind."""
    n = 16
    if kind in ("student", "trainer"):
        da = 2 if kind == "student" else 1
        agent = make_actor_critic(3, da, (8,), rng)
        batch = (rng.normal(size=(n, 3)), rng.uniform(-0.9, 0.9, (n, da)),
                 rng.normal(size=n), rng.normal(size=(n, 3)), np.zeros(n))
        update = student_update if kind == "student" else trainer_update
        return (agent, ("actor", "critic", "critic_target"), ("actor_opt", "critic_opt"),
                lambda: update(agent, batch))
    expert, student = ((np.hstack([rng.normal(size=(n, 2)), rng.uniform(-1, 1, (n, 2))]),
                        rng.normal(size=(n, 2))) for _ in range(2))
    if kind == "disc":
        net = make_discriminator(4, (8,), 1e-2, rng)
        return (net, ("params",), ("opt",),
                lambda: disc_update(net, expert[0], student[0]))
    heads = make_airl_heads(2, 2, (8,), 1e-2, 0.99, rng)
    policy = make_actor_critic(2, 2, (8,), rng)
    return (heads, ("reward", "potential"), ("reward_opt", "potential_opt"),
            lambda: airl_update(heads, policy, expert, student))


class TestLearnersWriteInPlace:
    @pytest.mark.parametrize("kind", ["student", "trainer", "disc", "airl"])
    def test_update_keeps_every_network_and_changes_its_values(self, kind):
        learner, nets, opts, update = _learner(kind, np.random.default_rng(30))
        held = {name: getattr(learner, name) for name in (*nets, *opts)}
        buffers = {name: (held[name].flat,) for name in nets}
        buffers.update({name: (held[name].m, held[name].v) for name in opts})
        values = {name: [b.copy() for b in bufs] for name, bufs in buffers.items()}
        update()
        for name, obj in held.items():
            assert getattr(learner, name) is obj, name
        for name in opts:
            assert held[name].step == 1
        for name, bufs in buffers.items():
            now = (held[name].flat,) if name in nets else (held[name].m, held[name].v)
            for b, b_now, before in zip(bufs, now, values[name]):
                assert b_now is b, name
                assert not np.array_equal(b, before), name


class TestFiniteDiffCheck:
    def test_quadratic_loss_is_nearly_exact(self):
        rng = np.random.default_rng(7)
        p = mlp_init([3, 4, 2], rng)

        def loss(q):
            f = params_to_flat(q)
            return 0.5 * float(f @ f)

        assert finite_diff_check(loss, p, p.flat, step=1e-5) <= 1e-8

    def test_bce_through_mlp(self):
        rng = np.random.default_rng(8)
        p = mlp_init([2, 8, 1], rng)
        xs = rng.normal(size=(16, 2))
        ys = rng.integers(0, 2, size=16).astype(float)

        def loss(q):
            logits = mlp_forward(q, xs)[:, 0]
            probs = 1.0 / (1.0 + np.exp(-logits))
            return float(-np.mean(ys * np.log(probs) + (1 - ys) * np.log(1 - probs)))

        logits = mlp_forward(p, xs)[:, 0]
        probs = 1.0 / (1.0 + np.exp(-logits))
        upstream = ((probs - ys) / len(ys))[:, None]
        analytic = mlp_backward(p, mlp_forward_cached(p, xs)[1], upstream)
        assert finite_diff_check(loss, p, analytic, step=1e-5) <= 1e-4

    def test_corrupted_gradient_detected(self):
        # Doubling one large-gradient entry must push the error past 0.4.
        p = single_layer([[2.0, 1.0]], [0.5])

        def loss(q):
            f = params_to_flat(q)
            return 0.5 * float(f @ f)

        corrupted = p.copy()
        corrupted.weights[0][0, 0] *= 2.0
        assert finite_diff_check(loss, p, corrupted.flat) > 0.4

    def test_rejects_bad_step(self):
        p = single_layer([[1.0]], [0.0])
        with pytest.raises(ValueError):
            finite_diff_check(lambda q: 0.0, p, p.flat, step=0.0)

    def test_rejects_non_finite_loss(self):
        p = single_layer([[1.0]], [0.0])
        with pytest.raises(ValueError):
            finite_diff_check(lambda q: np.inf, p, p.flat)


class TestBackpropExactnessSweep:
    @pytest.mark.parametrize("hidden", [(64, 64), (256, 256)])
    @pytest.mark.parametrize("net", ["relu", "identity"])
    def test_shapes_and_activations(self, hidden, net):
        # "identity" is one linear layer as wide as the hidden layers
        rng = np.random.default_rng([hidden[0], int(net == "relu")])
        dims = [5, *hidden, 2] if net == "relu" else [5, hidden[0]]
        p = mlp_init(dims, rng)
        x = rng.normal(size=(1, 5))
        u = rng.normal(size=dims[-1])
        analytic = mlp_backward(p, mlp_forward_cached(p, x)[1], u[None])

        def loss(q):
            return float(mlp_forward(q, x)[0] @ u)

        err = finite_diff_check(loss, p, analytic, step=1e-5, coords=24, rng=rng)
        assert err <= 1e-4


class TestSerialization:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(9)
        p = mlp_init([3, 7, 2], rng)
        q = mlp_from_bytes(mlp_to_bytes(p))
        assert mlp_to_bytes(q) == mlp_to_bytes(p)
        assert np.array_equal(params_to_flat(q), params_to_flat(p))

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        p = mlp_init([2, 4, 1], rng)
        path = tmp_path / "net.mlp"
        save_mlp(p, path)
        q = load_mlp(path)
        assert np.array_equal(params_to_flat(q), params_to_flat(p))

    # 2 -> 1 (relu) -> 1 (linear), W0 = [[0.5, -1]], b0 = [0.25], W1 = [[2]],
    # b1 = [-0.5]: magic, layer count, (in, out, activation code) per layer,
    # then the float64 parameters
    GOLDEN = bytes.fromhex(
        "52494c454d4c5031" "02000000"
        "02000000" "01000000" "00"
        "01000000" "01000000" "03"
        "000000000000e03f" "000000000000f0bf" "000000000000d03f"
        "0000000000000040" "000000000000e0bf")

    def golden_net(self):
        return MlpParams([np.array([[0.5, -1.0]]), np.array([[2.0]])],
                         [np.array([0.25]), np.array([-0.5])])

    def test_golden_bytes(self):
        assert mlp_to_bytes(self.golden_net()) == self.GOLDEN
        q = mlp_from_bytes(self.GOLDEN)
        assert np.array_equal(q.flat, self.golden_net().flat)
        assert mlp_to_bytes(q) == self.GOLDEN

    @pytest.mark.parametrize("offset,code", [(20, 1), (29, 0)],
                             ids=["hidden_tanh", "last_relu"])
    def test_other_activation_codes_rejected(self, offset, code):
        data = bytearray(self.GOLDEN)
        data[offset] = code
        with pytest.raises(ValueError, match="activation code"):
            mlp_from_bytes(bytes(data))

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            mlp_from_bytes(b"NOTAMLP0" + b"\x00" * 16)

    @pytest.mark.parametrize("data", [b"RILEMLP1", b"RILEMLP1" b"\x02\x00\x00\x00" b"\x02\x00"],
                             ids=["no_layer_count", "cut_in_first_layer"])
    def test_truncated_header_rejected(self, data):
        with pytest.raises(ValueError, match="header truncated"):
            mlp_from_bytes(data)

    def test_every_truncation_rejected(self):
        for end in range(len(self.GOLDEN)):
            with pytest.raises(ValueError):
                mlp_from_bytes(self.GOLDEN[:end])

    def test_flat_round_trip(self):
        rng = np.random.default_rng(11)
        p = mlp_init([4, 3, 2], rng)
        q = flat_to_params(params_to_flat(p), p)
        assert np.array_equal(params_to_flat(q), params_to_flat(p))


def _reference_pass(p, x, u):
    """Forward output and parameter gradient computed with a fresh array
    for every intermediate, in the order the library uses."""
    last = p.n_layers - 1
    hs = [x]
    for k, (w, b) in enumerate(zip(p.weights, p.biases)):
        z = hs[-1] @ w.T + b
        hs.append(np.maximum(z, 0.0) if k < last else z)
    grads, delta = [], u
    for k in range(last, -1, -1):
        if k < last:
            delta = delta * (hs[k + 1] > 0.0)
        grads = [delta.T @ hs[k], delta.sum(axis=0)] + grads
        if k:
            delta = delta @ p.weights[k]
    return hs[-1], np.concatenate([g.ravel() for g in grads])


def _held(p):
    """Bytes of every scratch buffer the network p holds."""
    return sum(b.nbytes for b in p.ws._bufs.values())


class TestWorkspace:
    ROWS = (256, 32, 1)

    def net(self, hidden):
        return mlp_init([5, *hidden, 3], np.random.default_rng(21))

    def batches(self):
        rng = np.random.default_rng(22)
        return [(rng.normal(size=(n, 5)), rng.normal(size=(n, 3))) for n in self.ROWS]

    @nets((16, 12))
    def test_reused_workspace_is_bit_equal_to_throwaway(self, hidden):
        # repeated calls on one network reuse its scratch; a fresh copy()
        # brings fresh scratch
        p = self.net(hidden)
        for x, u in self.batches():
            y, cache = mlp_forward_cached(p, x)
            grads = mlp_backward(p, cache, u)
            fresh = p.copy()
            y0, cache0 = mlp_forward_cached(fresh, x)
            grads0 = mlp_backward(fresh, cache0, u)
            ref_y, ref_g = _reference_pass(p, x, u)
            for got, want in ((y, y0), (grads, grads0), (y, ref_y), (grads, ref_g)):
                assert np.array_equal(got, want)

    @nets((16, 12))
    def test_results_are_fresh(self, hidden):
        # network outputs are fresh and outlive later passes; the gradient
        # is a row of the scratch (test_gradient_is_a_row_of_the_scratch)
        p = self.net(hidden)
        kept = []
        for x, u in self.batches():
            y, cache = mlp_forward_cached(p, x)
            mlp_backward(p, cache, u)
            assert not any(np.shares_memory(y, b) for b in p.ws._bufs.values())
            kept.append((y, y.copy()))
        for y, y_then in kept:
            assert np.array_equal(y, y_then)

    @nets((16, 12))
    def test_gradient_is_a_row_of_the_scratch(self, hidden):
        # mlp_backward returns one vector laid out like flat, in the same
        # memory of the network's scratch at every batch size, and equal
        # to the reference gradient
        p = self.net(hidden)
        grads = []
        for x, u in self.batches():
            grad = mlp_backward(p, mlp_forward_cached(p, x)[1], u)
            assert type(grad) is np.ndarray and grad.shape == p.flat.shape
            assert any(np.shares_memory(grad, b) for b in p.ws._bufs.values())
            assert np.array_equal(grad, _reference_pass(p, x, u)[1])
            grads.append(grad)
        assert all(np.shares_memory(g, grads[0]) for g in grads)

    @nets((16, 12))
    def test_smaller_batches_add_no_bytes(self, hidden):
        p = self.net(hidden)
        held = []
        for x, u in self.batches():
            mlp_backward(p, mlp_forward_cached(p, x)[1], u)
            held.append(_held(p))
        # each hidden layer's activation and backward delta and one ReLU
        # mask as wide as the widest hidden layer, at 256 rows, and the
        # gradient vector
        assert held == [(2 * sum(hidden) + max(hidden, default=0)) * 256 * 8
                        + p.flat.nbytes] * len(self.ROWS)

    @nets((16, 12))
    def test_cache_holds_one_buffer_per_hidden_layer(self, hidden):
        # each hidden activation overwrites its pre-activation; the output
        # layer's is fresh
        p = self.net(hidden)
        mlp_forward_cached(p, np.ones((256, 5)))
        assert _held(p) == 256 * sum(hidden) * 8

    def test_every_network_owns_its_scratch(self):
        # copies, loaded networks and networks over a given vector start
        # with scratch of their own, so a forward on one leaves another's
        # cache
        p = self.net((16, 12))
        x = np.ones((4, 5))
        _, cache = mlp_forward_cached(p, x)
        others = [p.copy(), mlp_from_bytes(mlp_to_bytes(p)),
                  flat_to_params(np.zeros_like(p.flat), p)]
        assert len({id(q.ws) for q in [p, *others]}) == 1 + len(others)
        assert all(_held(q) == 0 for q in others)
        held = [h.copy() for h in cache]
        mlp_forward_cached(others[0], 2.0 * x)
        assert all(np.array_equal(h, h0) for h, h0 in zip(cache, held))

    def test_student_update_allocates_no_batch_sized_arrays(self):
        # A 64x64 student's steady-state update at batch 256 keeps its batch
        # activations and Adam's scratch in its networks' workspaces and
        # writes its parameters, gradients and Adam moments in place. What
        # it still allocates is small transients; fresh batch
        # activations at every update took the peak to about 1.3 MiB.
        rng = np.random.default_rng(0)
        agent = make_actor_critic(2, 2, (64, 64), rng)
        n = 256
        batch = (rng.uniform(-1, 1, (n, 2)), rng.uniform(-0.9, 0.9, (n, 2)),
                 rng.normal(size=n), rng.uniform(-1, 1, (n, 2)), np.zeros(n))
        for _ in range(3):
            student_update(agent, batch)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for _ in range(5):
                student_update(agent, batch)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 700 * 1024
