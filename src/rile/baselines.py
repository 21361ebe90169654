"""GAIL, AIRL, and behavioral cloning on the shared harness.

All three train the same student. GAIL and AIRL also run the
orchestrator's training loop, so a seed-paired comparison with the
trainer-student path differs only in how the student's reward is
produced: GAIL scores expert-likeness through the discriminator, and AIRL
learns heads of its own, a reward plus a shaping potential. BC uses
neither a discriminator nor the loop: train_bc regresses the actor mean
directly onto expert actions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agents import (
    ActorCritic,
    _clamped_atanh,
    _logprob_presquash,
    _policy_heads,
)
from .discriminator import logistic_loss
from .nets import (
    AdamState,
    MlpParams,
    adam_init,
    adam_step,
    mlp_backward,
    mlp_forward,
    mlp_forward_cached,
    mlp_init,
)


def gail_student_reward(d):
    """-log(1 - d): monotone increasing in expert-likeness under the
    artifact-wide convention that the discriminator outputs 1 for expert."""
    return -np.log1p(-d)


@dataclass
class AirlHeads:
    """Learned reward r(s,a) decoupled from a shaping potential V(s)."""

    reward: MlpParams
    potential: MlpParams
    reward_opt: AdamState
    potential_opt: AdamState
    gamma: float


def make_airl_heads(state_dim: int, action_dim: int, hidden, lr: float,
                    gamma: float, rng) -> AirlHeads:
    reward = mlp_init([state_dim + action_dim, *hidden, 1], rng, np.float32)
    potential = mlp_init([state_dim, *hidden, 1], rng, np.float32)
    return AirlHeads(reward, potential, adam_init(reward, lr=lr),
                     adam_init(potential, lr=lr), gamma)


def airl_f_batch(heads: AirlHeads, x, sp):
    """f(s,a,s') = r(s,a) + gamma V(s') - V(s) per input row x = [s, a]
    with next state sp; V reads the state columns of x, the first
    heads.potential.in_dim.

    Returns (f, caches): the forward caches of r over x and of V over the
    stacked rows [s; s'], for mlp_backward."""
    r, c_r = mlp_forward_cached(heads.reward, x)
    s = x[:, :heads.potential.in_dim]
    v, c_v = mlp_forward_cached(heads.potential, np.concatenate([s, sp]))
    return r[:, 0] + heads.gamma * v[len(s):, 0] - v[:len(s), 0], (c_r, c_v)


def _student_logp(student: ActorCritic, x) -> np.ndarray:
    """AIRL's policy term log pi(a|s) per input row x = [s, a]: the
    student's tanh-Gaussian density with the pre-squash value clamped to
    +-3, as in the actor loss, so that expert actions on the boundary +-1
    give a bounded, finite value.

    The exact density is unbounded at such actions. Neither the paper nor
    the AIRL formula says what pi(a|s) should be for an expert action on the
    boundary of a squashed Gaussian; the clamp is this code's choice."""
    d = student.actor.in_dim
    mean, log_std, _ = _policy_heads(student.actor, x[:, :d])
    return _logprob_presquash(mean, log_std, _clamped_atanh(x[:, d:]))


def airl_loss_and_grads(heads: AirlHeads, x, sp, logp, n_expert: int):
    """The structured discriminator's BCE, discriminator.logistic_loss of the
    logits f - logp (expert 1, student 0), with exact gradients for both
    heads, from one forward and one backward per head. x and sp stack the
    input rows and next states [expert; student], the first n_expert rows
    expert; logp, the policy log-densities of the same rows, is treated as
    a constant, so d loss / d f is d loss / d logits."""
    f, (c_r, c_v) = airl_f_batch(heads, x, sp)
    loss, df = logistic_loss(f - logp, n_expert)
    r_grads = mlp_backward(heads.reward, c_r, df[:, None])
    dv = np.concatenate([-df, heads.gamma * df])  # d loss / d V over [s; s']
    v_grads = mlp_backward(heads.potential, c_v, dv[:, None])
    return loss, r_grads, v_grads


def airl_update(heads: AirlHeads, student: ActorCritic, expert_batch,
                student_batch) -> float:
    """One Adam step on both heads, in place, on (x, sp) batches, using the
    student's current density. Returns the loss before the step."""
    (xe, spe), (xs, sps) = expert_batch, student_batch
    x = np.concatenate([xe, xs])
    loss, r_grads, v_grads = airl_loss_and_grads(
        heads, x, np.concatenate([spe, sps]), _student_logp(student, x), len(xe))
    if not np.isfinite(loss):
        raise ValueError("non-finite AIRL loss; heads unchanged")
    adam_step(heads.reward, r_grads, heads.reward_opt)
    adam_step(heads.potential, v_grads, heads.potential_opt)
    return loss


def _bc_loss(actor: MlpParams, states, targets) -> float:
    """Squared error of the squashed actor mean against expert actions."""
    y = mlp_forward(actor, states)
    err = np.tanh(y[:, :y.shape[1] // 2]) - targets
    return float(np.mean(np.sum(err**2, axis=1)))


def _bc_loss_and_grads(actor: MlpParams, states, targets):
    """_bc_loss and its gradient, from one forward pass."""
    y, cache = mlp_forward_cached(actor, states)
    da = y.shape[1] // 2
    mean = np.tanh(y[:, :da])
    err = mean - targets
    loss = float(np.mean(np.sum(err**2, axis=1)))
    up_mean = 2.0 * err * (1.0 - mean**2) / len(states)
    upstream = np.concatenate([up_mean, np.zeros_like(up_mean)], axis=1)
    grads = mlp_backward(actor, cache, upstream)
    return loss, grads


def train_bc(cfg, s, a, student: ActorCritic, rng, diag_log) -> None:
    """Supervised regression of the actor mean at expert states s onto
    expert actions a, in place; no environment interaction. A
    cfg.bc_holdout share of the expert rows is held out and scored every
    epoch; each epoch's losses are written to diag_log."""
    n = len(s)
    perm = rng.permutation(n)
    n_hold = min(int(round(cfg.bc_holdout * n)), n - 1)  # leave a row to train on
    hold, train = perm[:n_hold], perm[n_hold:]
    batch = min(cfg.student_batch, len(train))
    for epoch in range(cfg.bc_epochs):
        order = rng.permutation(len(train))
        for lo in range(0, len(order), batch):
            idx = train[order[lo:lo + batch]]
            _, grads = _bc_loss_and_grads(student.actor, s[idx], a[idx])
            adam_step(student.actor, grads, student.actor_opt)
        row = {"epoch": epoch,
               "train_loss": _bc_loss(student.actor, s[train], a[train])}
        if len(hold) > 0:
            row["holdout_loss"] = _bc_loss(student.actor, s[hold], a[hold])
        diag_log.write(row)
