import warnings

import numpy as np
import pytest

from rile import discriminator, nets as rile_nets
from rile.discriminator import (
    DiscriminatorNet,
    _bce_loss_and_grads,
    disc_output,
    disc_update,
    logistic_loss,
    make_discriminator,
    sigmoid,
)
from rile.nets import _forward_cached, mlp_init

from oracles import (
    FLOAT32_RTOL,
    disc_per_block,
    finite_diff_check,
    float64_discriminator,
    optimal_disc_oracle,
    params_to_flat,
)


def _bce(params, xe, xs):
    """_bce_loss_and_grads over one forward of the stacked rows [xe; xs]."""
    y, hs = _forward_cached(params, np.concatenate([xe, xs]))
    return _bce_loss_and_grads(params, y, hs, len(xe))


def zero_disc(hidden=(8,)):
    rng = np.random.default_rng(0)
    net = make_discriminator(2, hidden, lr=1e-3, rng=rng)
    for w in net.params.weights:
        w[:] = 0.0
    for b in net.params.biases:
        b[:] = 0.0
    return net


class TestOutput:
    def test_zero_weight_net_outputs_half(self):
        net = zero_disc()
        assert disc_output(net, [[0.3, 0.7]])[0] == 0.5

    def test_clamp_keeps_output_strictly_inside(self):
        rng = np.random.default_rng(1)
        net = make_discriminator(2, (4,), lr=1e-3, rng=rng)
        for w in net.params.weights:
            w[:] = 50.0
        for b in net.params.biases:
            b[:] = 50.0
        for x in ([[100.0, 100.0]], [[-100.0, -100.0]], [[0.0, 0.0]]):
            p = disc_output(net, x)[0]
            assert 2e-9 < p < 1 - 2e-9

    def test_dimension_mismatch_rejected(self):
        net = zero_disc()
        with pytest.raises(ValueError, match="dim"):
            disc_output(net, [[0.1, 0.2, 0.3]])

    def test_batch_output(self):
        net = zero_disc()
        p = disc_output(net, np.zeros((5, 2)))
        assert p.shape == (5,) and np.all(p == 0.5)

    def test_separable_toy_data(self):
        rng = np.random.default_rng(2)
        net = make_discriminator(2, (32, 32), lr=3e-3, rng=rng)
        xe = np.hstack([np.full((64, 1), 1.0), np.zeros((64, 1))])
        xs = np.hstack([np.full((64, 1), -1.0), np.zeros((64, 1))])
        for _ in range(400):
            disc_update(net, xe, xs)
        assert disc_output(net, [[1.0, 0.0]])[0] > 0.9
        assert disc_output(net, [[-1.0, 0.0]])[0] < 0.1


class TestUpdate:
    def test_identical_batches_approach_two_log_two(self):
        rng = np.random.default_rng(3)
        batch = np.hstack([rng.normal(size=(32, 1)), rng.normal(size=(32, 1))])
        net = make_discriminator(2, (16,), lr=1e-2, rng=rng)
        loss = None
        for _ in range(500):
            loss = disc_update(net, batch, batch)["disc_loss"]
        assert loss >= 2 * np.log(2) - 1e-9
        assert loss < 2 * np.log(2) + 0.01

    def test_zero_lr_is_noop(self):
        rng = np.random.default_rng(4)
        net = make_discriminator(2, (8,), lr=0.0, rng=rng)
        before = params_to_flat(net.params).copy()
        loss = disc_update(net, np.ones((4, 2)), np.zeros((4, 2)))["disc_loss"]
        assert np.array_equal(params_to_flat(net.params), before)
        assert np.isfinite(loss)

    def test_empty_batch_rejected(self):
        net = zero_disc()
        with pytest.raises(ValueError):
            disc_update(net, np.zeros((0, 2)), np.zeros((3, 2)))

    @staticmethod
    def check_pre_step_loss(make, rel):
        # the stacked forward's diagnostics equal per-block forwards at the
        # parameters before the step, to the rounding of the net's dtype
        rng = np.random.default_rng(12)
        net = make(3, (8,), lr=1e-2, rng=rng)
        xe = np.hstack([rng.normal(size=(6, 2)), rng.normal(size=(6, 1))])
        xs = np.hstack([rng.normal(size=(4, 2)), rng.normal(size=(4, 1))])
        before = DiscriminatorNet(net.params.copy(), net.opt)
        diag = disc_update(net, xe, xs)

        def bce(probe):
            return (-np.mean(np.log(disc_output(probe, xe)))
                    - np.mean(np.log1p(-disc_output(probe, xs))))

        assert diag["disc_loss"] == pytest.approx(bce(before), rel=rel)
        assert diag["disc_loss"] != pytest.approx(bce(net), rel=1e-6)
        # the mean D over each block, also before the step
        assert diag["disc_expert"] == pytest.approx(np.mean(disc_output(before, xe)), rel=rel)
        assert diag["disc_student"] == pytest.approx(np.mean(disc_output(before, xs)), rel=rel)
        assert diag["disc_expert"] != pytest.approx(np.mean(disc_output(net, xe)), rel=1e-6)

    def test_returns_pre_step_loss(self):
        self.check_pre_step_loss(float64_discriminator, rel=1e-12)

    def test_returns_pre_step_loss_in_float32(self):
        self.check_pre_step_loss(make_discriminator, rel=FLOAT32_RTOL)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("block", ["expert", "student"])
    def test_a_non_finite_row_is_rejected_before_any_write(self, block, bad):
        rng = np.random.default_rng(15)
        net = make_discriminator(3, (8, 8), lr=1e-2, rng=rng)
        xe, xs = rng.normal(size=(6, 3)), rng.normal(size=(4, 3))
        disc_update(net, xe, xs)  # moments and step count past their initial zeros

        def state():
            return [net.params.flat.tobytes(), net.opt.m.tobytes(), net.opt.v.tobytes(),
                    net.opt.step]

        before = state()
        (xe if block == "expert" else xs)[2, 1] = bad
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="network unchanged"):
            disc_update(net, xe, xs)
        assert state() == before

    def test_update_counter(self):
        net = zero_disc()
        b = np.ones((2, 2))
        disc_update(net, b, b)
        disc_update(net, b, b)
        assert net.opt.step == 2


class TestLogisticLoss:
    """The one BCE and sigmoid that D and AIRL share, at logits far past
    any float64 exp range."""

    def test_sigmoid_saturates_without_a_warning(self):
        x = np.array([-1e308, -1e5, -800.0, 0.0, 800.0, 1e5, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = sigmoid(x)
        assert p.tolist() == [0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0]

    def test_sigmoid_is_the_logistic_function(self):
        x = np.linspace(-30.0, 30.0, 121)
        np.testing.assert_allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-15)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, rtol=1e-15)

    @pytest.mark.parametrize("big", [800.0, 1e5])
    def test_saturated_logits_give_the_exact_loss_and_limit_gradients(self, big):
        # expert rows (label 1) right, wrong and undecided, then student
        # rows (label 0) the same; the blocks differ in length, and each
        # block's mean counts equally
        ne, ns = 3, 4
        logits = np.array([big, -big, 0.0, -big, big, 0.0, -big])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, g = logistic_loss(logits, ne)
        # softplus(-big) is exp(-big), which is 0 in float64; softplus(0) is log 2
        assert np.isfinite(loss)
        assert loss == pytest.approx((big + np.log(2.0)) / ne + (big + np.log(2.0)) / ns,
                                     rel=1e-15)
        assert g.tolist() == [0.0, -1.0 / ne, -1.0 / (2 * ne),
                              0.0, 1.0 / ns, 1.0 / (2 * ns), 0.0]


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

    @staticmethod
    def check_stacked_update(monkeypatch, make, rtol):
        # disc_update's one forward and one BCE backward over the stacked
        # blocks give the loss and gradient of a forward and backward per
        # block, up to the order of floating-point sums in the net's dtype
        stepped = []
        step = discriminator.adam_step

        def spy(params, grads, opt):
            stepped.append(grads.copy())
            step(params, grads, opt)

        monkeypatch.setattr(discriminator, "adam_step", spy)
        rng = np.random.default_rng(13)
        for trial in range(20):
            hidden = tuple(rng.integers(1, 24, size=rng.integers(0, 3)))
            net = make(4, hidden, lr=1e-3, rng=rng)
            ne, ns = rng.integers(1, 40, size=2)
            xe = np.hstack([rng.normal(size=(ne, 2)), rng.uniform(-1, 1, (ne, 2))])
            xs = np.hstack([rng.normal(size=(ns, 2)), rng.uniform(-1, 1, (ns, 2))])
            before = net.params.copy()
            loss = disc_update(net, xe, xs)["disc_loss"]
            ref_loss, ref_grads = disc_per_block(before, xe, xs)
            assert loss == pytest.approx(ref_loss, rel=rtol)
            np.testing.assert_allclose(stepped[-1], ref_grads, rtol=rtol,
                                       atol=rtol * np.abs(ref_grads).max())

    def test_stacked_update_matches_per_block_reference(self, monkeypatch):
        self.check_stacked_update(monkeypatch, float64_discriminator, rtol=1e-12)

    def test_stacked_update_matches_per_block_reference_in_float32(self, monkeypatch):
        self.check_stacked_update(monkeypatch, make_discriminator, rtol=FLOAT32_RTOL)

    def test_one_forward_per_update(self, monkeypatch):
        calls = []

        def spy(name, fn):
            def wrapped(params, x):
                calls.append((name, len(x)))
                return fn(params, x)
            return wrapped

        monkeypatch.setattr(discriminator, "_forward_cached",
                            spy("disc", discriminator._forward_cached))
        monkeypatch.setattr(rile_nets, "_forward_cached", spy("nets", rile_nets._forward_cached))
        rng = np.random.default_rng(14)
        net = make_discriminator(3, (8, 8), lr=1e-3, rng=rng)
        xe = np.hstack([rng.normal(size=(6, 2)), rng.normal(size=(6, 1))])
        xs = np.hstack([rng.normal(size=(4, 2)), rng.normal(size=(4, 1))])
        for _ in range(3):
            disc_update(net, xe, xs)
        assert calls == [("disc", 6 + 4)] * 3


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
        net = make_discriminator(2, (32, 32), lr=3e-3, rng=rng)
        for _ in range(600):
            be = xe[rng.choice(len(xe), 128)]
            bs = xs[rng.choice(len(xs), 128)]
            disc_update(net, be, bs)
        d = disc_output(net, pts)
        star = optimal_disc_oracle(pe, ps)
        assert np.abs(d - star).max() < 0.05

    def test_swap_symmetry(self):
        # swapping roles maps the converged output to 1 - D at probe points
        pts = np.array([[0.2, 0.1], [0.8, -0.3], [0.5, 0.5]])

        def train(swap):
            rng = np.random.default_rng(11)
            net = make_discriminator(2, (16, 16), lr=3e-3, rng=rng)
            a = np.hstack([np.full((64, 1), 0.3), np.full((64, 1), 0.2)])
            b = np.hstack([np.full((64, 1), 0.7), np.full((64, 1), -0.2)])
            first, second = (b, a) if swap else (a, b)
            for _ in range(400):
                disc_update(net, first, second)
            return disc_output(net, pts)

        d, d_swapped = train(False), train(True)
        assert np.abs(d - (1.0 - d_swapped)).max() < 0.05
