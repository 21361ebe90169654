"""Expert-vs-student binary classifier: an MLP over input rows.

An input row is whatever the caller scores: in a run, the orchestrator's
one [state, action] row. Convention fixed artifact-wide: output near 1
means expert-like. Training is one Adam descent step per call on the
binary cross-entropy (expert label 1, student label 0) alone: no gradient
penalty caps D's contrast between expert and student rows, which is the
signal the learned rewards read.
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
)

LOGIT_CLAMP = 20.0


@dataclass
class DiscriminatorNet:
    """Scalar-logit MLP over input rows, with its optimizer state."""

    params: MlpParams
    opt: AdamState


def make_discriminator(in_dim: int, hidden, lr: float, rng) -> DiscriminatorNet:
    params = mlp_init([in_dim, *hidden, 1], rng, np.float32)
    return DiscriminatorNet(params, adam_init(params, lr=lr))


def _expert_prob(y: np.ndarray) -> np.ndarray:
    """D per row of the forward output y, through the logit clamp."""
    return 1.0 / (1.0 + np.exp(-np.clip(y[:, 0], -LOGIT_CLAMP, LOGIT_CLAMP)))


def disc_output(net: DiscriminatorNet, x) -> np.ndarray:
    """Expert-likeness probability per row of x, strictly inside (0, 1)
    thanks to the logit clamp."""
    y, _ = _forward_cached(net.params, _as_batch(x, net.params.in_dim))
    return _expert_prob(y)


def _softplus(z):
    return np.logaddexp(0.0, z)


def _bce_loss_and_grads(params: MlpParams, y: np.ndarray, hs, ne: int):
    """Loss = -mean log D(expert) - mean log(1-D(student)) and its exact
    parameter gradients, through the logit clamp, from one forward (y, hs)
    whose first ne rows are expert rows and the rest student rows."""
    logit = np.clip(y[:, 0], -LOGIT_CLAMP, LOGIT_CLAMP)
    le, ls = logit[:ne], logit[ne:]
    loss = float(np.mean(_softplus(-le)) + np.mean(_softplus(ls)))

    # d loss / d logit; clamp saturation zeroes the gradient
    ge = -(1.0 / (1.0 + np.exp(le))) / ne
    gs = (1.0 / (1.0 + np.exp(-ls))) / len(ls)
    g = np.where(np.abs(y[:, 0]) < LOGIT_CLAMP, np.concatenate([ge, gs]), 0.0)
    grads = mlp_backward(params, hs, g[:, None])
    return loss, grads


def disc_update(net: DiscriminatorNet, xe: np.ndarray, xs: np.ndarray) -> dict:
    """One Adam step, written into net in place, on the BCE over expert
    rows xe and student rows xs, from one forward over [xe; xs] and one
    backward. Returns the diagnostics at the parameters before the step:
    disc_loss, the BCE the step descended, and disc_expert and
    disc_student, the mean D over xe and over xs. Rejects a non-finite
    loss or gradient without touching the network."""
    ne = len(xe)
    if ne == 0 or len(xs) == 0:
        raise ValueError("expert and student batches must be non-empty")
    y, hs = _forward_cached(net.params, np.concatenate([xe, xs]))
    loss, grads = _bce_loss_and_grads(net.params, y, hs, ne)
    if not np.isfinite(loss):
        raise ValueError("non-finite discriminator loss; network unchanged")

    adam_step(net.params, grads, net.opt)
    d = _expert_prob(y)
    return {"disc_loss": loss, "disc_expert": float(np.mean(d[:ne])),
            "disc_student": float(np.mean(d[ne:]))}
