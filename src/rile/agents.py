"""The two learners, one actor-critic type: an entropy-regularized student
whose reward is the trainer's action, and a trainer agent whose scalar
action in [-1, 1] is optimized against discriminator feedback.

Both are ActorCritic: a tanh-squashed Gaussian policy and a V critic with
a polyak-averaged target, trained by one shared one-step TD(0) advantage
update that writes every network in place. The trainer's reward, which
relates the discriminator output d and the trainer action a_T, lives here
as well.

Every function here takes and returns [rows, dim] batches (a single row is
a 1-row batch), except student_act: with the environment's own steps, it is
the one single-state entry, acting on the state the maze is in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nets import (
    AdamState,
    MlpParams,
    adam_init,
    adam_step,
    mlp_backward,
    mlp_forward,
    mlp_forward_cached,
    mlp_init,
    polyak,
)

LOG_STD_MIN, LOG_STD_MAX = -5.0, 2.0
TAU = 0.01  # the rate at which every critic target follows its critic


def trainer_reward(d, a_t):
    """RILe's trainer reward exp(-|2d - 1 - a_t|) for discriminator output d
    in [0, 1] and trainer action a_t in [-1, 1]: largest when the trainer's
    action agrees with 2d - 1. Vectorized over arrays."""
    d = np.asarray(d, dtype=np.float64)
    a = np.asarray(a_t, dtype=np.float64)
    if (d < 0).any() or (d > 1).any():
        raise ValueError("discriminator output must lie in [0, 1]")
    if (np.abs(a) > 1.0 + 1e-12).any():
        raise ValueError("trainer action must lie in [-1, 1]")
    return np.exp(-np.abs(2.0 * d - 1.0 - a))


def _split_heads(y: np.ndarray):
    """(mean, log_std, raw log_std) from actor output rows; log_std hard-clipped."""
    da = y.shape[1] // 2
    raw = y[:, da:]
    return y[:, :da], np.clip(raw, LOG_STD_MIN, LOG_STD_MAX), raw


def _policy_heads(actor: MlpParams, states: np.ndarray):
    """(mean, log_std, raw log_std) from the actor net; log_std hard-clipped."""
    return _split_heads(mlp_forward(actor, states))


# The two losses that score boundary actions clamp their pre-squash values to
# +-3 (tanh(3) ~ 0.995): the actor loss and AIRL's policy term. Their actions
# include epsilon-greedy uniform draws near +-1, the student's own samples
# with |u| > 3, and scripted-expert actions exactly on +-1; unclamped, these
# give unbounded atanh targets and blow up the likelihood gradients. The
# clamp is a guard on those losses, not part of the density:
# gaussian_tanh_logprob does not apply it.
_ATANH_CLIP = 3.0


def _atanh(a):
    """Pre-squash value of a, with a clipped into the open interval (-1, 1)."""
    return np.arctanh(np.clip(a, -1.0 + 1e-12, 1.0 - 1e-12))


def _clamped_atanh(a):
    """Pre-squash value of a, clamped to +-_ATANH_CLIP for the losses."""
    return np.clip(_atanh(a), -_ATANH_CLIP, _ATANH_CLIP)


def _logprob_presquash(mean, log_std, u) -> np.ndarray:
    """log pi(tanh(u)|s) given the pre-squash value u, summed over dims."""
    std = np.exp(log_std)
    base = -0.5 * ((u - mean) / std) ** 2 - log_std - 0.5 * np.log(2 * np.pi)
    # log(1 - tanh(u)^2) = 2 (log 2 - u - softplus(-2u))
    corr = 2.0 * (np.log(2.0) - u - np.logaddexp(0.0, -2.0 * u))
    return (base - corr).sum(axis=1)


def gaussian_tanh_logprob(mean, log_std, actions) -> np.ndarray:
    """log pi(a|s) for a = tanh(u), u ~ N(mean, std), with the exact
    change-of-variables correction. Stable for |u| large.

    The density is unbounded as a coordinate of a approaches +-1. At a = +-1
    itself, a is first clipped to +-(1 - 1e-12), so the value is finite."""
    return _logprob_presquash(mean, log_std,
                              _atanh(np.asarray(actions, dtype=np.float64)))


def gaussian_entropy(log_std) -> np.ndarray:
    """Entropy of the pre-squash Gaussian, summed over action dims."""
    return (log_std + 0.5 * np.log(2 * np.pi * np.e)).sum(axis=1)


@dataclass
class ActorCritic:
    """Tanh-Gaussian actor, V critic and its polyak target, with their Adam
    states. The student acts epsilon-greedily during collection; the
    trainer's epsilon_greedy is 0."""

    actor: MlpParams
    critic: MlpParams
    critic_target: MlpParams
    actor_opt: AdamState
    critic_opt: AdamState
    entropy_coef: float
    epsilon_greedy: float
    gamma: float

    @property
    def action_dim(self) -> int:
        return self.actor.out_dim // 2


def make_actor_critic(in_dim: int, action_dim: int, hidden, rng, lr=3e-4,
                      entropy_coef=0.2, epsilon_greedy=0.0, gamma=0.99) -> ActorCritic:
    """Actor [in_dim, *hidden, 2 * action_dim] (means, then log-stds) and
    critic [in_dim, *hidden, 1], float32 networks initialized in that order
    from rng; both learn at rate lr."""
    actor = mlp_init([in_dim, *hidden, 2 * action_dim], rng, np.float32)
    critic = mlp_init([in_dim, *hidden, 1], rng, np.float32)
    return ActorCritic(actor, critic, critic.copy(), adam_init(actor, lr=lr),
                       adam_init(critic, lr=lr), entropy_coef=entropy_coef,
                       epsilon_greedy=epsilon_greedy, gamma=gamma)


def student_act(agent: ActorCritic, state, rng=None) -> np.ndarray:
    """Action in [-1,1]^da for one state. With no rng, the squashed policy
    mean; otherwise, drawn from rng, a uniform random action with
    probability agent.epsilon_greedy, else a policy sample."""
    # epsilon = 0 draws no uniform: the policy sample is the only draw
    if (rng is not None and agent.epsilon_greedy > 0.0
            and rng.uniform() < agent.epsilon_greedy):
        return rng.uniform(-1.0, 1.0, size=agent.action_dim)
    mean, log_std, _ = _policy_heads(agent.actor, np.asarray(state, dtype=np.float64)[None])
    if rng is None:
        return np.tanh(mean[0])
    return np.tanh(mean[0] + np.exp(log_std[0]) * rng.normal(size=agent.action_dim))


def _critic_loss_grads(critic, states, targets):
    y, cache = mlp_forward_cached(critic, states)
    v = y[:, 0]
    err = v - targets
    loss = float(np.mean(err**2))
    grads = mlp_backward(critic, cache, (2.0 * err / len(err))[:, None])
    return loss, grads, v


# Exponentiated-advantage weights: non-negative, so the likelihood term is
# a weighted regression onto observed actions (negative linear weights make
# the mean and log-std diverge off-policy). Clipped for heavy-tail safety.
_ADV_WEIGHT_CLIP = 20.0


def advantage_weights(advantages) -> np.ndarray:
    return np.minimum(np.exp(advantages), _ADV_WEIGHT_CLIP)


def _actor_loss_grads(actor, states, actions, weights, entropy_coef, forward=None):
    """Weighted log-likelihood ascent plus entropy bonus; weights >= 0 are
    treated as constants (exponentiated advantages in training). The loss
    and its gradient both use the clamped pre-squash value of the actions.
    forward, if given, is the actor's (output, cache) over states."""
    y, cache = forward or mlp_forward_cached(actor, states)
    mean, log_std, raw = _split_heads(y)
    u = _clamped_atanh(actions)
    std = np.exp(log_std)
    z = (u - mean) / std
    logp = _logprob_presquash(mean, log_std, u)
    ent = gaussian_entropy(log_std)
    n = len(states)
    loss = float(-np.mean(weights * logp) - entropy_coef * np.mean(ent))

    w = weights[:, None]
    d_mean = -(w * z / std) / n
    d_logstd = (-(w * (z**2 - 1.0)) - entropy_coef) / n
    d_logstd = d_logstd * ((raw > LOG_STD_MIN) & (raw < LOG_STD_MAX))
    upstream = np.concatenate([d_mean, d_logstd], axis=1)
    grads = mlp_backward(actor, cache, upstream)
    return loss, grads, float(np.mean(ent))


def actor_critic_update(agent: ActorCritic, batch, actor_forward=None) -> dict:
    """One actor-critic step on (s, a, r, s', done) arrays; returns its
    diagnostics. The critic regresses to r + gamma (1-done) V_target(s');
    the actor ascends the advantage-weighted log-likelihood plus the entropy
    bonus; the target follows the critic by polyak averaging at rate TAU.
    Every network is updated in place. Non-finite losses are rejected before
    any state is touched. A given actor_forward, the actor's (output, cache)
    over s with no actor forward since, stands in for the actor's own."""
    states, actions, rewards, next_states, dones = batch
    states = np.asarray(states, dtype=np.float64)
    if len(states) == 0:
        raise ValueError("empty batch")
    actions = np.asarray(actions, dtype=np.float64).reshape(len(states), -1)
    rewards = np.asarray(rewards, dtype=np.float64)
    dones = np.asarray(dones, dtype=np.float64)
    v_next = mlp_forward(agent.critic_target, next_states)[:, 0]
    targets = rewards + agent.gamma * (1.0 - dones) * v_next

    c_loss, c_grads, v = _critic_loss_grads(agent.critic, states, targets)
    adv = targets - v
    if len(adv) > 1 and (sd := adv.std()) > 1e-8:
        adv = (adv - adv.mean()) / sd
    a_loss, a_grads, mean_ent = _actor_loss_grads(
        agent.actor, states, actions, advantage_weights(adv), agent.entropy_coef, actor_forward)
    if not (np.isfinite(c_loss) and np.isfinite(a_loss)):
        raise ValueError("non-finite loss in actor-critic update; agent unchanged")

    adam_step(agent.critic, c_grads, agent.critic_opt)
    adam_step(agent.actor, a_grads, agent.actor_opt)
    polyak(agent.critic_target, agent.critic, TAU)
    return {"critic_loss": c_loss, "actor_loss": a_loss, "entropy": mean_ent}


# The loop updates the student and the trainer under their own names.
student_update = trainer_update = actor_critic_update


def trainer_act(agent: ActorCritic, obs: np.ndarray, rng):
    """Stochastic scalar actions in [-1, 1] (tanh-squashed policy samples),
    one per row of obs, and the actor forward (output, cache) they came from;
    the rows draw their noise from rng in one call, row after row."""
    forward = mlp_forward_cached(agent.actor, obs)
    mean, log_std, _ = _split_heads(forward[0])
    return np.tanh(mean[:, 0] + np.exp(log_std[:, 0]) * rng.normal(size=len(mean))), forward


def trainer_act_batch(agent: ActorCritic, obs: np.ndarray) -> np.ndarray:
    """Deterministic actions for a batch of observations."""
    return np.tanh(_policy_heads(agent.actor, obs)[0][:, 0])
