"""Expert-vs-student binary classifier: an MLP over input rows.

An input row is whatever the caller scores: in a run, the orchestrator's
one [state, action] row. Convention fixed artifact-wide: output near 1
means expert-like. Training is one Adam descent step per call on the
binary cross-entropy (expert label 1, student label 0) plus an optional
two-sided gradient penalty at uniform interpolates between expert and
student rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nets import (
    AdamState,
    MlpParams,
    _as_batch,
    _forward_cached,
    adam_init,
    adam_step,
    mlp_backward,
    mlp_init,
    zeros_like_params,
)

LOGIT_CLAMP = 20.0


@dataclass
class DiscriminatorNet:
    """Scalar-logit MLP over input rows, with its optimizer state."""

    params: MlpParams
    opt: AdamState


def make_discriminator(in_dim: int, hidden, lr: float, rng) -> DiscriminatorNet:
    params = mlp_init([in_dim, *hidden, 1], rng)
    return DiscriminatorNet(params, adam_init(params, lr=lr))


def disc_output(net: DiscriminatorNet, x) -> np.ndarray:
    """Expert-likeness probability per row of x, strictly inside (0, 1)
    thanks to the logit clamp."""
    y, _ = _forward_cached(net.params, _as_batch(x, net.params.in_dim))
    return 1.0 / (1.0 + np.exp(-np.clip(y[:, 0], -LOGIT_CLAMP, LOGIT_CLAMP)))


def _softplus(z):
    return np.logaddexp(0.0, z)


def _bce_loss_and_grads(params: MlpParams, y: np.ndarray, hs, ne: int, ns: int):
    """Loss = -mean log D(expert) - mean log(1-D(student)) and its exact
    parameter gradients, through the logit clamp, from one forward (y, hs)
    whose first ne rows are expert rows and next ns rows student rows;
    later rows are ignored."""
    n = ne + ns
    logit = np.clip(y[:n, 0], -LOGIT_CLAMP, LOGIT_CLAMP)
    le, ls = logit[:ne], logit[ne:]
    loss = float(np.mean(_softplus(-le)) + np.mean(_softplus(ls)))

    # d loss / d logit; clamp saturation zeroes the gradient
    ge = -(1.0 / (1.0 + np.exp(le))) / ne
    gs = (1.0 / (1.0 + np.exp(-ls))) / ns
    g = np.where(np.abs(y[:n, 0]) < LOGIT_CLAMP, np.concatenate([ge, gs]), 0.0)
    grads, _ = mlp_backward(params, [h[:n] for h in hs], g[:, None])
    return loss, grads


def _gp_loss_and_grads(params: MlpParams, hs):
    """Two-sided penalty mean((||d logit/d x|| - 1)^2) with exact parameter
    gradients, i.e. reverse-mode applied to the input-gradient program,
    which reads only hs, the activations of a forward over the penalty's
    rows x = hs[0]. ReLU's second derivative is 0, so the input gradient is
    linear in each weight given the ReLU masks, and one reverse sweep
    through the masked layers is exact: there is no curvature term to fold
    back, and the biases' gradient is 0."""
    n = hs[0].shape[0]
    last = params.n_layers - 1

    # input-gradient sweep, keeping every intermediate
    ds = [None] * params.n_layers  # ds[k] = gradient w.r.t. z_k
    v = np.ones((n, 1))            # gradient w.r.t. layer k's output, then x
    for k in range(last, -1, -1):
        ds[k] = v if k == last else (hs[k + 1] > 0.0) * v
        v = ds[k] @ params.weights[k]

    norms = np.linalg.norm(v, axis=1)
    loss = float(np.mean((norms - 1.0) ** 2))
    v_bar = (2.0 / n) * ((norms - 1.0) / np.maximum(norms, 1e-12))[:, None] * v

    grads = zeros_like_params(params)
    for k in range(params.n_layers):
        grads.weights[k] += ds[k].T @ v_bar
        if k < last:
            v_bar = (hs[k + 1] > 0.0) * (v_bar @ params.weights[k].T)
    return loss, grads


def disc_update(net: DiscriminatorNet, xe: np.ndarray, xs: np.ndarray,
                gp_weight: float, rng=None):
    """One Adam step on BCE + gp_weight * gradient penalty over expert rows
    xe and student rows xs, written into net in place.

    One forward over the stacked rows [expert; student; interpolates] serves
    both terms. Returns the loss the step descended, BCE + gp_weight * GP
    at the parameters before the step. Rejects non-finite losses/gradients
    without touching the network.
    """
    ne, ns = len(xe), len(xs)
    if ne == 0 or ns == 0:
        raise ValueError("expert and student batches must be non-empty")
    rows = [xe, xs]
    if gp_weight > 0:
        if rng is None:
            raise ValueError("gradient penalty needs an rng for interpolation")
        m = min(ne, ns)
        u = rng.uniform(size=(m, 1))
        rows.append(u * xe[:m] + (1.0 - u) * xs[:m])

    y, hs = _forward_cached(net.params, np.concatenate(rows))
    loss, grads = _bce_loss_and_grads(net.params, y, hs, ne, ns)
    if gp_weight > 0:
        gp, gp_grads = _gp_loss_and_grads(net.params, [h[ne + ns:] for h in hs])
        loss += gp_weight * gp
        grads.flat += gp_weight * gp_grads.flat
    if not np.isfinite(loss):
        raise ValueError("non-finite discriminator loss; network unchanged")

    adam_step(net.params, grads, net.opt)
    return loss
