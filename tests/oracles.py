"""Reference checks that only the tests use: the flat-vector round trip, a
central-difference gradient checker, the closed-form optimal
discriminator, per-block references for the discriminator's and AIRL's
stacked losses, float64 builds of the learners the factories build in
float32, and the two network cases the gradient tests run on.
A gradient is a vector laid out like its network's flat vector."""

from __future__ import annotations

import numpy as np
import pytest

from rile.baselines import AirlHeads
from rile.discriminator import LOGIT_CLAMP, DiscriminatorNet
from rile.nets import MlpParams, _views, adam_init, mlp_backward, mlp_forward_cached, mlp_init

# Relative agreement of two float32 computations of one quantity, or of a
# float32 and a float64 one, that sum in different orders over a few hundred
# rows and two or three layers: about 400 float32 ulps (eps 1.2e-7), eight
# times the largest gap measured on the learners' gradients.
FLOAT32_RTOL = 5e-5


def params_to_flat(params: MlpParams) -> np.ndarray:
    """A copy of the parameter vector, laid out [W0, b0, W1, b1, ...]."""
    return params.flat.copy()


def flat_to_params(flat: np.ndarray, like: MlpParams) -> MlpParams:
    """Network with like's layout over a copy of flat."""
    flat = np.asarray(flat, dtype=np.float64)
    if flat.shape != like.flat.shape:
        raise ValueError(f"flat vector has shape {flat.shape}, "
                         f"network needs ({like.flat.size},)")
    return MlpParams(*_views(flat, [w.shape for w in like.weights]))


def float64_discriminator(in_dim, hidden, lr, rng) -> DiscriminatorNet:
    """make_discriminator's network and draws, left in float64."""
    params = mlp_init([in_dim, *hidden, 1], rng)
    return DiscriminatorNet(params, adam_init(params, lr=lr))


def float64_airl_heads(state_dim, action_dim, hidden, lr, gamma, rng) -> AirlHeads:
    """make_airl_heads's networks and draws, left in float64."""
    reward = mlp_init([state_dim + action_dim, *hidden, 1], rng)
    potential = mlp_init([state_dim, *hidden, 1], rng)
    return AirlHeads(reward, potential, adam_init(reward, lr=lr), adam_init(potential, lr=lr),
                     gamma)


def finite_diff_check(loss_fn, params: MlpParams, analytic: np.ndarray,
                      step: float = 1e-5, coords=None, rng=None) -> float:
    """Max relative error between an analytic gradient and central differences.

    loss_fn maps MlpParams -> scalar and must be deterministic; analytic is
    the gradient vector to verify, laid out like params.flat. It is copied
    before loss_fn first runs. Error per coordinate is
    |analytic - fd| / max(1, |analytic|). coords, if given, limits the sweep
    to that many randomly chosen coordinates (rng required).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    flat = params_to_flat(params)
    aflat = np.array(analytic, dtype=np.float64)
    n = flat.size
    if coords is None:
        idx = np.arange(n)
    else:
        idx = rng.choice(n, size=min(coords, n), replace=False)
    worst = 0.0
    for i in idx:
        bump = np.zeros(n)
        bump[i] = step
        lo = loss_fn(flat_to_params(flat - bump, params))
        hi = loss_fn(flat_to_params(flat + bump, params))
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("loss_fn returned a non-finite value")
        fd = (hi - lo) / (2.0 * step)
        err = abs(aflat[i] - fd) / max(1.0, abs(aflat[i]))
        worst = max(worst, err)
    return worst


def optimal_disc_oracle(p_expert, p_student) -> np.ndarray:
    """Closed-form optimum p_E / (p_E + p_S) over a shared finite support.

    Entries where both probabilities are zero are undefined and returned
    as NaN.
    """
    pe = np.asarray(p_expert, dtype=np.float64)
    ps = np.asarray(p_student, dtype=np.float64)
    if pe.shape != ps.shape:
        raise ValueError("probability tables must share a support")
    if (pe < 0).any() or (ps < 0).any():
        raise ValueError("probabilities must be non-negative")
    for name, p in (("expert", pe), ("student", ps)):
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} table must sum to 1")
    tot = pe + ps
    out = np.full(pe.shape, np.nan)
    mask = tot > 0
    out[mask] = pe[mask] / tot[mask]
    return out


def _softplus_and_slope(sign, x):
    """softplus(sign * x) and its derivative in x."""
    return np.logaddexp(0.0, sign * x), sign / (1.0 + np.exp(-sign * x))


def disc_per_block(params: MlpParams, xe, xs):
    """The discriminator's BCE (expert label 1, student label 0, through the
    logit clamp) and its gradients, with a separate forward and backward for
    each of the two row blocks, summed in block order."""
    loss, grads = 0.0, np.zeros_like(params.flat)
    for x, sign in ((xe, -1.0), (xs, 1.0)):
        y, cache = mlp_forward_cached(params, x)
        term, slope = _softplus_and_slope(sign, np.clip(y[:, 0], -LOGIT_CLAMP, LOGIT_CLAMP))
        loss += float(np.mean(term))
        g = np.where(np.abs(y[:, 0]) < LOGIT_CLAMP, slope / len(x), 0.0)
        grads += mlp_backward(params, cache, g[:, None])
    return loss, grads


def airl_per_block(heads, expert_batch, student_batch, logp_expert, logp_student):
    """AIRL's BCE and the gradients of both heads, with a forward and a
    backward for each batch and each of r(s,a), V(s) and V(s'): six of each,
    summed within each batch and then across the batches. V(s) runs on a
    copy of the potential, whose cache then outlives V(s')'s forward."""
    loss = 0.0
    r_grads, v_grads = np.zeros_like(heads.reward.flat), np.zeros_like(heads.potential.flat)
    potential_at_s = heads.potential.copy()
    for (x, sp), logp, sign in ((expert_batch, logp_expert, -1.0),
                                (student_batch, logp_student, 1.0)):
        r, c_r = mlp_forward_cached(heads.reward, x)
        v, c_v = mlp_forward_cached(potential_at_s, x[:, :sp.shape[1]])
        vp, c_vp = mlp_forward_cached(heads.potential, sp)
        term, slope = _softplus_and_slope(sign, r[:, 0] + heads.gamma * vp[:, 0] - v[:, 0] - logp)
        loss += float(np.mean(term))
        df = (slope / len(x))[:, None]
        r_grads += mlp_backward(heads.reward, c_r, df)
        g_v = mlp_backward(heads.potential, c_vp, heads.gamma * df).copy()
        g_v += mlp_backward(potential_at_s, c_v, -df)
        v_grads += g_v
    return loss, r_grads, v_grads


def nets(relu_hidden):
    """Parametrizes hidden over two networks: "relu" has relu_hidden ReLU
    hidden layers; "identity" has none, so its one layer is linear."""
    return pytest.mark.parametrize("hidden", [relu_hidden, ()], ids=["relu", "identity"])
