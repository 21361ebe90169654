"""GAIL, AIRL, and behavioral cloning on the shared harness.

All three reuse the student, discriminator, and orchestration machinery,
so comparisons against the trainer-student path differ only in how the
student's reward is produced: GAIL scores expert-likeness through the
discriminator, AIRL learns an explicit reward head plus a shaping
potential, BC regresses the actor mean directly onto expert actions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .agents import (
    ActorCritic,
    _clamped_atanh,
    _logprob_presquash,
    _policy_heads,
    make_actor_critic,
)
from .envs import ExpertDataset
from .nets import (
    AdamState,
    MlpParams,
    Workspace,
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
    d = np.asarray(d, dtype=np.float64)
    out = -np.log1p(-d)
    return float(out) if out.ndim == 0 else out


def _stable_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class AirlHeads:
    """Learned reward r(s,a) decoupled from a shaping potential V(s), with
    the batch scratch of both heads."""

    reward: MlpParams
    potential: MlpParams
    reward_opt: AdamState
    potential_opt: AdamState
    gamma: float = 0.99
    ws: Workspace = field(default_factory=Workspace, repr=False, compare=False)


def make_airl_heads(state_dim: int, action_dim: int, hidden, lr: float,
                    gamma: float, rng) -> AirlHeads:
    acts = ["relu"] * len(hidden) + ["identity"]
    reward = mlp_init([state_dim + action_dim, *hidden, 1], acts, rng)
    potential = mlp_init([state_dim, *hidden, 1], acts, rng)
    return AirlHeads(reward, potential, adam_init(reward, lr=lr),
                     adam_init(potential, lr=lr), gamma)


def airl_f_batch(heads: AirlHeads, s, a, sp, ws_r: Workspace, ws_v: Workspace,
                 ws_vp: Workspace):
    """f(s,a,s') = r(s,a) + gamma V(s') - V(s) per row.

    Returns (f, caches): caches are the forward caches of r(s,a), V(s) and
    V(s'), in that order, for mlp_backward, kept in ws_r, ws_v and ws_vp.
    Each stays valid until the next forward on its workspace, so a caller
    that backpropagates passes three slots, and one that needs f alone
    passes one workspace three times."""
    sa = np.concatenate([np.atleast_2d(s), np.atleast_2d(a)], axis=1)
    r, c_r = mlp_forward_cached(heads.reward, sa, ws_r)
    v, c_v = mlp_forward_cached(heads.potential, np.atleast_2d(s), ws_v)
    vp, c_vp = mlp_forward_cached(heads.potential, np.atleast_2d(sp), ws_vp)
    return r[:, 0] + heads.gamma * vp[:, 0] - v[:, 0], (c_r, c_v, c_vp)


def _student_logp(student: ActorCritic, s, a) -> np.ndarray:
    """AIRL's policy term log pi(a|s): the student's tanh-Gaussian density
    with the pre-squash value clamped to +-3, as in the actor loss, so that
    expert actions on the boundary +-1 give a bounded, finite value.

    The exact density is unbounded at such actions. Neither the paper nor
    the AIRL formula says what pi(a|s) should be for an expert action on the
    boundary of a squashed Gaussian; the clamp is this code's choice."""
    mean, log_std, _ = _policy_heads(student.actor, np.atleast_2d(s), student.ws)
    return _logprob_presquash(mean, log_std, _clamped_atanh(
        np.atleast_2d(np.asarray(a, dtype=np.float64))))


def airl_loss_and_grads(heads: AirlHeads, expert_batch, student_batch,
                        logp_expert, logp_student):
    """BCE of the structured discriminator vs labels (expert 1, student 0),
    with exact gradients for both heads. Policy log-densities are treated
    as constants. The six caches live in slots of the heads' workspace, one
    for each batch and head."""
    se, ae, spe = (np.atleast_2d(v) for v in expert_batch)
    ss, as_, sps = (np.atleast_2d(v) for v in student_batch)
    ws_e, ws_s = ([heads.ws.slot((batch, head)) for head in ("r", "v", "vp")]
                  for batch in ("expert", "student"))
    fe, caches_e = airl_f_batch(heads, se, ae, spe, *ws_e)
    fs, caches_s = airl_f_batch(heads, ss, as_, sps, *ws_s)
    me = fe - logp_expert
    ms = fs - logp_student
    loss = float(np.mean(np.logaddexp(0.0, -me)) + np.mean(np.logaddexp(0.0, ms)))

    dme = -_stable_sigmoid(-me) / len(me)   # d softplus(-m) / dm
    dms = _stable_sigmoid(ms) / len(ms)

    def head_grads(caches, df):
        """Reward and potential gradients of sum(df * f) over one batch."""
        c_r, c_v, c_vp = caches
        g_r, _ = mlp_backward(heads.reward, c_r, df[:, None], heads.ws)
        g_v, _ = mlp_backward(heads.potential, c_vp, (heads.gamma * df)[:, None], heads.ws)
        g_v.flat += mlp_backward(heads.potential, c_v, (-df)[:, None], heads.ws)[0].flat
        return g_r, g_v

    # Summed within each batch first, then across the two batches: same-seed
    # runs depend on this order of floating-point additions.
    r_grads, v_grads = head_grads(caches_e, dme)
    g_r, g_v = head_grads(caches_s, dms)
    r_grads.flat += g_r.flat
    v_grads.flat += g_v.flat
    return loss, r_grads, v_grads


def airl_update(heads: AirlHeads, student: ActorCritic, expert_batch,
                student_batch) -> float:
    """One Adam step on both heads, in place, using the student's current
    density. Returns the loss before the step."""
    logp_e = _student_logp(student, expert_batch[0], expert_batch[1])
    logp_s = _student_logp(student, student_batch[0], student_batch[1])
    loss, r_grads, v_grads = airl_loss_and_grads(heads, expert_batch, student_batch,
                                                 logp_e, logp_s)
    if not np.isfinite(loss):
        raise ValueError("non-finite AIRL loss; heads unchanged")
    adam_step(heads.reward, r_grads, heads.reward_opt)
    adam_step(heads.potential, v_grads, heads.potential_opt)
    return loss


def _bc_loss(actor: MlpParams, states, targets, ws: Workspace) -> float:
    """Squared error of the squashed actor mean against expert actions."""
    y = mlp_forward(actor, states, ws)
    err = np.tanh(y[:, :y.shape[1] // 2]) - targets
    return float(np.mean(np.sum(err**2, axis=1)))


def _bc_loss_and_grads(actor: MlpParams, states, targets, ws: Workspace):
    """_bc_loss and its gradient, from one forward pass."""
    y, cache = mlp_forward_cached(actor, states, ws)
    da = y.shape[1] // 2
    mean = np.tanh(y[:, :da])
    err = mean - targets
    loss = float(np.mean(np.sum(err**2, axis=1)))
    up_mean = 2.0 * err * (1.0 - mean**2) / len(states)
    upstream = np.concatenate([up_mean, np.zeros_like(up_mean)], axis=1)
    grads, _ = mlp_backward(actor, cache, upstream, ws)
    return loss, grads


def run_bc(config, expert: ExpertDataset, run_dir=None):
    """Supervised regression of the actor mean onto expert actions; no
    environment interaction during training. A 10% holdout split is scored
    every epoch."""
    from . import orchestrator

    if expert is None or expert.n_steps == 0:
        raise ValueError("behavioral cloning needs a non-empty expert dataset")
    cfg = orchestrator.replace(config, algorithm="bc").validate()
    if run_dir is not None:
        import os

        os.makedirs(run_dir, exist_ok=True)
    streams = orchestrator.seed_streams(cfg.seed)
    s, a = expert.all_pairs()
    student = make_actor_critic(s.shape[1], a.shape[1], cfg.student_hidden,
                                streams["init_student"], actor_lr=cfg.student_lr,
                                epsilon_greedy=cfg.epsilon_greedy, gamma=cfg.gamma)
    n = len(s)
    perm = streams["student"].permutation(n)
    n_hold = int(round(cfg.bc_holdout * n))
    hold, train = perm[:n_hold], perm[n_hold:]
    if len(train) == 0:
        train = perm
    diag = orchestrator._Logger(run_dir, "diagnostics.jsonl")
    metrics = orchestrator._Logger(run_dir, "metrics.jsonl")
    batch = min(cfg.student_batch, len(train))
    rng = streams["student"]
    for epoch in range(cfg.bc_epochs):
        order = rng.permutation(len(train))
        for lo in range(0, len(order), batch):
            idx = train[order[lo:lo + batch]]
            _, grads = _bc_loss_and_grads(student.actor, s[idx], a[idx], student.ws)
            adam_step(student.actor, grads, student.actor_opt)
        row = {"epoch": epoch,
               "train_loss": _bc_loss(student.actor, s[train], a[train], student.ws)}
        if len(hold) > 0:
            row["holdout_loss"] = _bc_loss(student.actor, s[hold], a[hold], student.ws)
        diag.write(row)

    artifacts = orchestrator.RunArtifacts(cfg, run_dir, student, None, None)
    orchestrator._checkpoint(run_dir, "final", student, None, None, None)
    from .metrics import evaluate_policy

    artifacts.final_return, _, artifacts.final_goal_rate = evaluate_policy(
        cfg.env, student, cfg.eval_episodes, seed=cfg.seed,
        action_noise=cfg.action_noise)
    artifacts.diagnostics_rows = diag.rows
    artifacts.metrics_rows = metrics.rows
    return artifacts
