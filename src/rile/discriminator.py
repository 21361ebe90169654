"""Expert-vs-student binary classifier.

Convention fixed artifact-wide: output near 1 means expert-like. Training
is one Adam descent step per call on the binary cross-entropy (expert
label 1, student label 0) plus an optional two-sided gradient penalty at
uniform interpolates between expert and student inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nets import (
    AdamState,
    MlpParams,
    Workspace,
    _act_grad,
    _act_grad2,
    _forward_cached,
    adam_init,
    adam_step,
    mlp_backward,
    mlp_forward_cached,
    mlp_init,
    zeros_like_params,
)

LOGIT_CLAMP = 20.0


@dataclass
class DiscriminatorNet:
    """Scalar-logit MLP over concatenated (state, action), with its
    optimizer state, an update counter and its batch scratch."""

    params: MlpParams
    opt: AdamState
    updates: int = 0
    ws: Workspace = field(default_factory=Workspace, repr=False, compare=False)

    @property
    def in_dim(self) -> int:
        return self.params.in_dim


def make_discriminator(state_dim: int, action_dim: int, hidden, lr: float,
                       rng) -> DiscriminatorNet:
    dims = [state_dim + action_dim, *hidden, 1]
    acts = ["relu"] * len(hidden) + ["identity"]
    params = mlp_init(dims, acts, rng)
    return DiscriminatorNet(params, adam_init(params, lr=lr))


def _join(state, action) -> np.ndarray:
    s = np.atleast_2d(np.asarray(state, dtype=np.float64))
    a = np.atleast_2d(np.asarray(action, dtype=np.float64))
    if s.shape[0] != a.shape[0]:
        raise ValueError("state and action batch sizes differ")
    return np.concatenate([s, a], axis=1)


def disc_logit(net: DiscriminatorNet, x: np.ndarray) -> np.ndarray:
    y, _ = _forward_cached(net.params, np.atleast_2d(x), net.ws)
    return np.clip(y[:, 0], -LOGIT_CLAMP, LOGIT_CLAMP)


def disc_output(net: DiscriminatorNet, state, action):
    """Expert-likeness probability, strictly inside (0, 1) thanks to the
    logit clamp. Scalar for single inputs, 1-d array for batches."""
    single = np.asarray(state).ndim == 1
    x = _join(state, action)
    if x.shape[1] != net.in_dim:
        raise ValueError(f"input dim {x.shape[1]} does not match "
                         f"discriminator input dim {net.in_dim}")
    p = 1.0 / (1.0 + np.exp(-disc_logit(net, x)))
    return float(p[0]) if single else p


def _softplus(z):
    return np.logaddexp(0.0, z)


def _bce_loss_and_grads(params: MlpParams, xe: np.ndarray, xs: np.ndarray,
                        ws: Workspace | None = None):
    """Loss = -mean log D(expert) - mean log(1-D(student)) and its exact
    parameter gradients, through the logit clamp. The expert and student
    caches live in two slots of ws."""
    ws = Workspace() if ws is None else ws
    ws_e, ws_s = ws.slot("expert"), ws.slot("student")
    ye, cache_e = mlp_forward_cached(params, xe, ws_e)
    ys, cache_s = mlp_forward_cached(params, xs, ws_s)
    le = np.clip(ye[:, 0], -LOGIT_CLAMP, LOGIT_CLAMP)
    ls = np.clip(ys[:, 0], -LOGIT_CLAMP, LOGIT_CLAMP)
    loss = float(np.mean(_softplus(-le)) + np.mean(_softplus(ls)))

    # d loss / d logit; clamp saturation zeroes the gradient
    ge = -(1.0 / (1.0 + np.exp(le))) / len(le)
    ge = np.where(np.abs(ye[:, 0]) < LOGIT_CLAMP, ge, 0.0)
    gs = (1.0 / (1.0 + np.exp(-ls))) / len(ls)
    gs = np.where(np.abs(ys[:, 0]) < LOGIT_CLAMP, gs, 0.0)

    grads, _ = mlp_backward(params, cache_e, ge[:, None], ws_e)
    grads.flat += mlp_backward(params, cache_s, gs[:, None], ws_s)[0].flat
    return loss, grads


def _gp_loss_and_grads(params: MlpParams, x: np.ndarray, ws: Workspace | None = None):
    """Two-sided penalty mean((||d logit/d x|| - 1)^2) with exact parameter
    gradients, i.e. reverse-mode applied to the input-gradient program,
    which reads only the activations cached in ws. Relu and identity layers
    have no second-derivative term, so the fold of those terms runs from the
    topmost tanh or sigmoid layer down, and not at all without one."""
    n = x.shape[0]
    _, hs = _forward_cached(params, x, Workspace() if ws is None else ws)

    # input-gradient sweep, keeping every intermediate
    acts = params.activations
    vs = [None] * (params.n_layers + 1)   # vs[k] = gradient w.r.t. h_k
    ds = [None] * params.n_layers         # ds[k] = gradient w.r.t. z_k
    vs[params.n_layers] = np.ones((n, 1))
    for k in range(params.n_layers - 1, -1, -1):
        ds[k] = _act_grad(acts[k], hs[k + 1]) * vs[k + 1]
        vs[k] = ds[k] @ params.weights[k]
    g = vs[0]

    norms = np.linalg.norm(g, axis=1)
    loss = float(np.mean((norms - 1.0) ** 2))
    g_bar = (2.0 / n) * ((norms - 1.0) / np.maximum(norms, 1e-12))[:, None] * g

    grads = zeros_like_params(params)
    z_bars = [None] * params.n_layers     # z adjoints of the curved layers
    v_bar = g_bar
    for k in range(params.n_layers):
        w_bar = v_bar @ params.weights[k].T
        grads.weights[k] += ds[k].T @ v_bar
        curv = _act_grad2(acts[k], hs[k + 1])
        if curv is not None:
            z_bars[k] = curv * vs[k + 1] * w_bar
        v_bar = _act_grad(acts[k], hs[k + 1]) * w_bar

    # fold the z adjoints back through the forward chain
    top = max((k for k, z_bar in enumerate(z_bars) if z_bar is not None), default=-1)
    h_bar = np.zeros((n, 1))
    for k in range(top, -1, -1):
        delta = _act_grad(acts[k], hs[k + 1]) * h_bar
        if z_bars[k] is not None:
            delta = z_bars[k] + delta
        grads.weights[k] += delta.T @ hs[k]
        grads.biases[k] += delta.sum(axis=0)
        h_bar = delta @ params.weights[k]
    return loss, grads


def disc_update(net: DiscriminatorNet, expert_batch, student_batch,
                gp_weight: float, rng=None):
    """One Adam step on BCE + gp_weight * gradient penalty, written into
    net in place.

    Returns the loss the step descended, BCE + gp_weight * GP at the
    parameters before the step. Rejects non-finite losses/gradients without
    touching the network.
    """
    xe = _join(*expert_batch)
    xs = _join(*student_batch)
    if len(xe) == 0 or len(xs) == 0:
        raise ValueError("expert and student batches must be non-empty")

    loss, grads = _bce_loss_and_grads(net.params, xe, xs, net.ws)
    if gp_weight > 0:
        if rng is None:
            raise ValueError("gradient penalty needs an rng for interpolation")
        m = min(len(xe), len(xs))
        u = rng.uniform(size=(m, 1))
        interp = u * xe[:m] + (1.0 - u) * xs[:m]
        gp, gp_grads = _gp_loss_and_grads(net.params, interp, net.ws.slot("gp"))
        loss += gp_weight * gp
        grads.flat += gp_weight * gp_grads.flat
    if not np.isfinite(loss):
        raise ValueError("non-finite discriminator loss; network unchanged")

    adam_step(net.params, grads, net.opt)
    net.updates += 1
    return loss

