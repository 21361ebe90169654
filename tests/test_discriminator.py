import numpy as np
import pytest

from rile import discriminator, nets as rile_nets
from rile.discriminator import (
    DiscriminatorNet,
    _bce_loss_and_grads,
    _gp_loss_and_grads,
    disc_output,
    disc_update,
    make_discriminator,
)
from rile.nets import (
    MlpParams,
    Workspace,
    _forward_cached,
    adam_init,
    mlp_backward,
    mlp_forward_cached,
    mlp_init,
)

from oracles import (
    disc_per_block,
    finite_diff_check,
    nets,
    optimal_disc_oracle,
    params_to_flat,
)


def _bce(params, xe, xs):
    """_bce_loss_and_grads over one forward of the stacked rows [xe; xs]."""
    y, hs = _forward_cached(params, np.concatenate([xe, xs]), Workspace())
    return _bce_loss_and_grads(params, y, hs, len(xe), len(xs), Workspace())


def _gp(params, x):
    """_gp_loss_and_grads over one forward of x alone."""
    return _gp_loss_and_grads(params, _forward_cached(params, x, Workspace())[1])


def _gp_full_sweep(params, x):
    """_gp_loss_and_grads with every intermediate a fresh array and the
    second-derivative terms of every layer folded back, although ReLU's and
    the linear output's are all zero."""
    n, L = x.shape[0], params.n_layers
    zs, hs = [], [x]
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        zs.append(hs[-1] @ w.T + b)
        hs.append(np.maximum(zs[-1], 0.0) if k < L - 1 else zs[-1])
    d1 = [(z > 0.0).astype(np.float64) for z in zs[:-1]] + [np.ones_like(zs[-1])]
    d2 = [np.zeros_like(z) for z in zs]
    vs, ds = [None] * (L + 1), [None] * L
    vs[L] = np.ones((n, 1))
    for k in range(L - 1, -1, -1):
        ds[k] = d1[k] * vs[k + 1]
        vs[k] = ds[k] @ params.weights[k]
    g = vs[0]
    norms = np.linalg.norm(g, axis=1)
    loss = float(np.mean((norms - 1.0) ** 2))
    g_bar = (2.0 / n) * ((norms - 1.0) / np.maximum(norms, 1e-12))[:, None] * g
    grads = MlpParams([np.zeros_like(w) for w in params.weights],
                      [np.zeros_like(b) for b in params.biases])
    z_bars = [np.zeros_like(z) for z in zs]
    v_bar = g_bar
    for k in range(L):
        w_bar = v_bar @ params.weights[k].T
        grads.weights[k] += ds[k].T @ v_bar
        z_bars[k] += d2[k] * vs[k + 1] * w_bar
        v_bar = d1[k] * w_bar
    h_bar = np.zeros((n, 1))
    for k in range(L - 1, -1, -1):
        delta = z_bars[k] + d1[k] * h_bar
        grads.weights[k] += delta.T @ hs[k]
        grads.biases[k] += delta.sum(axis=0)
        h_bar = delta @ params.weights[k]
    return loss, grads


def zero_disc(hidden=(8,)):
    rng = np.random.default_rng(0)
    net = make_discriminator(1, 1, hidden, lr=1e-3, rng=rng)
    for w in net.params.weights:
        w[:] = 0.0
    for b in net.params.biases:
        b[:] = 0.0
    return net


class TestOutput:
    def test_zero_weight_net_outputs_half(self):
        net = zero_disc()
        assert disc_output(net, [0.3], [0.7]) == 0.5

    def test_clamp_keeps_output_strictly_inside(self):
        rng = np.random.default_rng(1)
        net = make_discriminator(1, 1, (4,), lr=1e-3, rng=rng)
        for w in net.params.weights:
            w[:] = 50.0
        for b in net.params.biases:
            b[:] = 50.0
        for x in ([100.0], [-100.0], [0.0]):
            p = disc_output(net, x, x)
            assert 2e-9 < p < 1 - 2e-9

    def test_dimension_mismatch_rejected(self):
        net = zero_disc()
        with pytest.raises(ValueError, match="dim"):
            disc_output(net, [0.1, 0.2], [0.3])

    def test_batch_output(self):
        net = zero_disc()
        p = disc_output(net, np.zeros((5, 1)), np.zeros((5, 1)))
        assert p.shape == (5,) and np.all(p == 0.5)

    def test_separable_toy_data(self):
        rng = np.random.default_rng(2)
        net = make_discriminator(1, 1, (32, 32), lr=3e-3, rng=rng)
        xe = (np.full((64, 1), 1.0), np.zeros((64, 1)))
        xs = (np.full((64, 1), -1.0), np.zeros((64, 1)))
        for _ in range(400):
            disc_update(net, xe, xs, gp_weight=0.0)
        assert disc_output(net, [1.0], [0.0]) > 0.9
        assert disc_output(net, [-1.0], [0.0]) < 0.1


class TestUpdate:
    def test_identical_batches_approach_two_log_two(self):
        rng = np.random.default_rng(3)
        batch = (rng.normal(size=(32, 1)), rng.normal(size=(32, 1)))
        net = make_discriminator(1, 1, (16,), lr=1e-2, rng=rng)
        loss = None
        for _ in range(500):
            loss = disc_update(net, batch, batch, gp_weight=0.0)
        assert loss >= 2 * np.log(2) - 1e-9
        assert loss < 2 * np.log(2) + 0.01

    def test_zero_lr_is_noop(self):
        rng = np.random.default_rng(4)
        net = make_discriminator(1, 1, (8,), lr=0.0, rng=rng)
        before = params_to_flat(net.params).copy()
        loss = disc_update(net, (np.ones((4, 1)), np.ones((4, 1))),
                           (np.zeros((4, 1)), np.zeros((4, 1))), gp_weight=0.0)
        assert np.array_equal(params_to_flat(net.params), before)
        assert np.isfinite(loss)

    def test_empty_batch_rejected(self):
        net = zero_disc()
        with pytest.raises(ValueError):
            disc_update(net, (np.zeros((0, 1)), np.zeros((0, 1))),
                        (np.zeros((3, 1)), np.zeros((3, 1))), gp_weight=0.0)

    def test_gp_without_rng_rejected(self):
        net = zero_disc()
        with pytest.raises(ValueError, match="rng"):
            disc_update(net, (np.ones((2, 1)), np.ones((2, 1))),
                        (np.zeros((2, 1)), np.zeros((2, 1))), gp_weight=1.0)

    def test_returns_pre_step_loss(self):
        rng = np.random.default_rng(12)
        net = make_discriminator(2, 1, (8,), lr=1e-2, rng=rng)
        xe = (rng.normal(size=(6, 2)), rng.normal(size=(6, 1)))
        xs = (rng.normal(size=(4, 2)), rng.normal(size=(4, 1)))
        gp_weight = 0.5
        draw = np.random.default_rng()
        draw.bit_generator.state = rng.bit_generator.state  # same interpolation draw
        before = net.params.copy()
        loss = disc_update(net, xe, xs, gp_weight, rng=rng)

        ex, sx = np.concatenate(xe, axis=1), np.concatenate(xs, axis=1)
        u = draw.uniform(size=(4, 1))
        interp = u * ex[:4] + (1.0 - u) * sx[:4]

        def total_loss(params):
            probe = DiscriminatorNet(params, net.opt)
            bce = (-np.mean(np.log(disc_output(probe, *xe)))
                   - np.mean(np.log1p(-disc_output(probe, *xs))))
            gx = mlp_backward(params, mlp_forward_cached(params, interp)[1],
                              np.ones((len(interp), 1)))[1]
            norms = np.linalg.norm(gx, axis=1)
            return bce + gp_weight * np.mean((norms - 1.0) ** 2)

        assert loss == pytest.approx(total_loss(before), rel=1e-12)
        assert loss != pytest.approx(total_loss(net.params), rel=1e-6)

    def test_update_counter(self):
        net = zero_disc()
        b = (np.ones((2, 1)), np.ones((2, 1)))
        disc_update(net, b, b, gp_weight=0.0)
        disc_update(net, b, b, gp_weight=0.0)
        assert net.updates == 2


class TestGradients:
    def test_bce_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        params = mlp_init([3, 8, 1], rng)
        xe = rng.normal(size=(6, 3))
        xs = rng.normal(size=(6, 3))
        _, analytic = _bce(params, xe, xs)

        def loss(q):
            return _bce(q, xe, xs)[0]

        assert finite_diff_check(loss, params, analytic, step=1e-5) <= 1e-4

    @nets((10,))
    def test_gradient_penalty_double_backprop_matches_fd(self, hidden):
        rng = np.random.default_rng(6)
        params = mlp_init([3, *hidden, 1], rng)
        x = rng.normal(size=(7, 3))
        _, analytic = _gp(params, x)

        def loss(q):
            return _gp(q, x)[0]

        assert finite_diff_check(loss, params, analytic, step=1e-6) <= 1e-4

    @nets((16, 12))
    def test_gradient_penalty_equals_the_full_sweep(self, hidden):
        # The penalty skips the fold of the z adjoints, which are all zero
        # on ReLU nets; the gradients must still equal the full sweep bit
        # for bit.
        rng = np.random.default_rng(10)
        params = mlp_init([4, *hidden, 1], rng)
        for b in params.biases[:-1]:
            b -= 0.3  # some relu units dead on every row
        x = rng.normal(size=(32, 4))
        loss, grads = _gp(params, x)
        ref_loss, ref_grads = _gp_full_sweep(params, x)
        assert loss == ref_loss
        assert grads.flat.tobytes() == ref_grads.flat.tobytes()

    def test_combined_loss_gradient_matches_fd(self):
        rng = np.random.default_rng(7)
        params = mlp_init([2, 6, 1], rng)
        xe = rng.normal(size=(5, 2))
        xs = rng.normal(size=(5, 2))
        u = rng.uniform(size=(5, 1))
        interp = u * xe + (1 - u) * xs

        def loss_and_grads(q):
            # one forward over [expert; student; interpolates] serves both terms
            y, hs = _forward_cached(q, np.concatenate([xe, xs, interp]), Workspace())
            bce, g1 = _bce_loss_and_grads(q, y, hs, 5, 5, Workspace())
            gp, g2 = _gp_loss_and_grads(q, [h[10:] for h in hs])
            analytic = MlpParams(
                [a + b for a, b in zip(g1.weights, g2.weights)],
                [a + b for a, b in zip(g1.biases, g2.biases)],
            )
            return bce + 1.0 * gp, analytic

        analytic = loss_and_grads(params)[1]
        assert finite_diff_check(lambda q: loss_and_grads(q)[0], params, analytic,
                                 step=1e-6) <= 1e-4

    @pytest.mark.parametrize("gp_weight", [0.0, 0.7])
    def test_stacked_update_matches_per_block_reference(self, gp_weight, monkeypatch):
        # disc_update's one forward and one BCE backward over the stacked
        # blocks give the loss and gradient of a forward and backward per
        # block, up to the order of floating-point sums
        stepped = []
        step = discriminator.adam_step

        def spy(params, grads, opt):
            stepped.append(grads.flat.copy())
            step(params, grads, opt)

        monkeypatch.setattr(discriminator, "adam_step", spy)
        rng = np.random.default_rng(13)
        for trial in range(20):
            hidden = tuple(rng.integers(1, 24, size=rng.integers(0, 3)))
            net = make_discriminator(2, 2, hidden, lr=1e-3, rng=rng)
            ne, ns = rng.integers(1, 40, size=2)
            xe = (rng.normal(size=(ne, 2)), rng.uniform(-1, 1, (ne, 2)))
            xs = (rng.normal(size=(ns, 2)), rng.uniform(-1, 1, (ns, 2)))
            draw = np.random.default_rng(trial)
            before = net.params.copy()
            loss = disc_update(net, xe, xs, gp_weight, rng=draw)

            ex, sx = np.concatenate(xe, axis=1), np.concatenate(xs, axis=1)
            interp = None
            if gp_weight > 0:
                m = min(ne, ns)
                u = np.random.default_rng(trial).uniform(size=(m, 1))
                interp = u * ex[:m] + (1.0 - u) * sx[:m]
            ref_loss, ref_grads = disc_per_block(before, ex, sx, interp, gp_weight)
            assert loss == pytest.approx(ref_loss, rel=1e-12)
            np.testing.assert_allclose(stepped[-1], ref_grads.flat, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref_grads.flat).max())

    @pytest.mark.parametrize("gp_weight", [0.0, 1.0])
    def test_one_forward_per_update(self, gp_weight, monkeypatch):
        calls = []

        def spy(name, fn):
            def wrapped(params, x, ws):
                calls.append((name, len(x)))
                return fn(params, x, ws)
            return wrapped

        monkeypatch.setattr(discriminator, "_forward_cached",
                            spy("disc", discriminator._forward_cached))
        monkeypatch.setattr(rile_nets, "_forward_cached", spy("nets", rile_nets._forward_cached))
        rng = np.random.default_rng(14)
        net = make_discriminator(2, 1, (8, 8), lr=1e-3, rng=rng)
        xe = (rng.normal(size=(6, 2)), rng.normal(size=(6, 1)))
        xs = (rng.normal(size=(4, 2)), rng.normal(size=(4, 1)))
        for _ in range(3):
            disc_update(net, xe, xs, gp_weight, rng=rng)
        rows = 6 + 4 + (4 if gp_weight > 0 else 0)
        assert calls == [("disc", rows)] * 3

    def test_gradient_penalty_shrinks_input_gradients(self):
        # seed-paired runs: with gp the mean |d logit/d x| at interpolates
        # must not exceed the no-gp run after equal training budgets
        def train(gp_weight):
            rng = np.random.default_rng(8)
            net = make_discriminator(1, 1, (32,), lr=3e-3, rng=rng)
            xe = (np.full((64, 1), 0.5), np.full((64, 1), 0.5))
            xs = (np.full((64, 1), -0.5), np.full((64, 1), -0.5))
            for _ in range(300):
                disc_update(net, xe, xs, gp_weight, rng=rng)
            u = np.random.default_rng(9).uniform(size=(256, 1))
            interp = u * np.array([[0.5, 0.5]]) + (1 - u) * np.array([[-0.5, -0.5]])
            gx = mlp_backward(net.params, mlp_forward_cached(net.params, interp)[1],
                              np.ones((len(interp), 1)))[1]
            return np.linalg.norm(gx, axis=1).mean()

        assert train(1.0) <= train(0.0)


class TestOracle:
    def test_equal_densities(self):
        p = np.array([0.25, 0.25, 0.25, 0.25])
        assert np.allclose(optimal_disc_oracle(p, p), 0.5)

    def test_disjoint_supports(self):
        d = optimal_disc_oracle([1.0, 0.0], [0.0, 1.0])
        assert np.array_equal(d, [1.0, 0.0])

    def test_direct_formula(self):
        d = optimal_disc_oracle([0.75, 0.25], [0.25, 0.75])
        assert np.allclose(d, [0.75, 0.25])

    def test_both_zero_is_nan(self):
        d = optimal_disc_oracle([1.0, 0.0], [1.0, 0.0])
        assert d[0] == 0.5 and np.isnan(d[1])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            optimal_disc_oracle([1.5, -0.5], [0.5, 0.5])

    def test_not_normalized_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            optimal_disc_oracle([0.5, 0.1], [0.5, 0.5])

    def test_trained_disc_converges_to_oracle(self):
        # 2-point support, samples at exact ratio, moderate budget
        pe = np.array([0.75, 0.25])
        ps = np.array([0.25, 0.75])
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        rng = np.random.default_rng(10)
        idx_e = rng.choice(2, size=4096, p=pe)
        idx_s = rng.choice(2, size=4096, p=ps)
        xe = pts[idx_e]
        xs = pts[idx_s]
        net = make_discriminator(1, 1, (32, 32), lr=3e-3, rng=rng)
        for _ in range(600):
            be = xe[rng.choice(len(xe), 128)]
            bs = xs[rng.choice(len(xs), 128)]
            disc_update(net, (be[:, :1], be[:, 1:]), (bs[:, :1], bs[:, 1:]),
                        gp_weight=0.0)
        d = disc_output(net, pts[:, :1], pts[:, 1:])
        star = optimal_disc_oracle(pe, ps)
        assert np.abs(d - star).max() < 0.05

    def test_swap_symmetry(self):
        # swapping roles maps the converged output to 1 - D at probe points
        pts = np.array([[0.2, 0.1], [0.8, -0.3], [0.5, 0.5]])

        def train(swap):
            rng = np.random.default_rng(11)
            net = make_discriminator(1, 1, (16, 16), lr=3e-3, rng=rng)
            a = (np.full((64, 1), 0.3), np.full((64, 1), 0.2))
            b = (np.full((64, 1), 0.7), np.full((64, 1), -0.2))
            first, second = (b, a) if swap else (a, b)
            for _ in range(400):
                disc_update(net, first, second, gp_weight=0.0)
            return disc_output(net, pts[:, :1], pts[:, 1:])

        d, d_swapped = train(False), train(True)
        assert np.abs(d - (1.0 - d_swapped)).max() < 0.05
