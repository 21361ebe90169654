"""The two learners, one actor-critic type: an entropy-regularized student
whose reward is the trainer's action, and a trainer agent whose scalar
action in [-1, 1] is optimized against discriminator feedback.

Both are ActorCritic: a tanh-squashed Gaussian policy and a V critic with
a polyak-averaged target, trained by one shared one-step TD(0) advantage
update that writes every network in place. The six trainer reward
formulas relating the discriminator output d and the trainer action a_T
live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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

LOG_STD_MIN, LOG_STD_MAX = -5.0, 2.0

REWARD_VARIANTS = (
    "difference",
    "exponential_difference",
    "multiplication",
    "naive",
    "exponential_naive",
    "sigmoid",
)

ACT_MODES = ("stochastic", "deterministic", "epsilon_greedy")


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def trainer_reward(variant: str, d, a_t, exponent_sign: float = -1.0):
    """Reward for the trainer given discriminator output d in (0,1) and
    trainer action a_t in [-1, 1]. Vectorized over arrays.

    exponent_sign applies to the exponential-difference form only; the
    default -1 rewards agreement (the positive form is selectable for
    auditing and rewards maximal disagreement instead).
    """
    if variant not in REWARD_VARIANTS:
        raise ValueError(f"unknown trainer reward variant {variant!r}")
    d = np.asarray(d, dtype=np.float64)
    a = np.asarray(a_t, dtype=np.float64)
    if (d < 0).any() or (d > 1).any():
        raise ValueError("discriminator output must lie in [0, 1]")
    if (np.abs(a) > 1.0 + 1e-12).any():
        raise ValueError("trainer action must lie in [-1, 1]")
    if variant == "difference":
        out = -np.abs(2.0 * d - 1.0 - a)
    elif variant == "exponential_difference":
        out = np.exp(exponent_sign * np.abs(2.0 * d - 1.0 - a))
    elif variant == "multiplication":
        out = (2.0 * d - 1.0) * a
    elif variant == "naive":
        out = d + np.zeros_like(a)
    elif variant == "exponential_naive":
        out = np.exp(1.0 - d) + np.zeros_like(a)
    else:  # sigmoid
        out = d * _sigmoid(a)
    return float(out) if out.ndim == 0 else out


def _split_heads(y: np.ndarray):
    """(mean, log_std, raw log_std) from actor output rows; log_std hard-clipped."""
    da = y.shape[1] // 2
    raw = y[:, da:]
    return y[:, :da], np.clip(raw, LOG_STD_MIN, LOG_STD_MAX), raw


def _policy_heads(actor: MlpParams, states: np.ndarray, ws: Workspace | None = None):
    """(mean, log_std, raw log_std) from the actor net; log_std hard-clipped."""
    return _split_heads(mlp_forward(actor, np.atleast_2d(states), ws))


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
    states and batch scratch. The student acts epsilon-greedily during
    collection; the trainer's epsilon_greedy is 0. Once frozen, updates are
    rejected and the parameters stay as they are."""

    actor: MlpParams
    critic: MlpParams
    critic_target: MlpParams
    actor_opt: AdamState
    critic_opt: AdamState
    entropy_coef: float = 0.2
    epsilon_greedy: float = 0.0
    gamma: float = 0.99
    tau: float = 0.01
    advantage_norm: bool = True
    frozen: bool = False
    # batch scratch of the agent's forward and backward passes
    ws: Workspace = field(default_factory=Workspace, repr=False, compare=False)

    @property
    def action_dim(self) -> int:
        return self.actor.out_dim // 2


def make_actor_critic(in_dim: int, action_dim: int, hidden, rng,
                      actor_lr=3e-4, critic_lr=3e-4, entropy_coef=0.2,
                      epsilon_greedy=0.0, gamma=0.99, tau=0.01,
                      advantage_norm=True) -> ActorCritic:
    """ReLU actor [in_dim, *hidden, 2 * action_dim] (means, then log-stds)
    and critic [in_dim, *hidden, 1], initialized in that order from rng."""
    acts = ["relu"] * len(hidden) + ["identity"]
    actor = mlp_init([in_dim, *hidden, 2 * action_dim], acts, rng)
    critic = mlp_init([in_dim, *hidden, 1], acts, rng)
    return ActorCritic(actor, critic, critic.copy(),
                       adam_init(actor, lr=actor_lr), adam_init(critic, lr=critic_lr),
                       entropy_coef=entropy_coef, epsilon_greedy=epsilon_greedy,
                       gamma=gamma, tau=tau, advantage_norm=advantage_norm)


def _sample_action(agent: ActorCritic, obs, mode, rng, heads=None) -> np.ndarray:
    """Actions for the rows of obs, or one action for a 1-D obs. heads, the
    actor's (mean, log_std) at obs when a forward already made them, spares
    its forward. epsilon_greedy takes, with probability
    agent.epsilon_greedy, one uniform random action for a 1-D obs."""
    if mode not in ACT_MODES:
        raise ValueError(f"unknown act mode {mode!r}")
    mean, log_std = _policy_heads(agent.actor, obs)[:2] if heads is None else heads
    single = np.ndim(obs) == 1
    if mode == "deterministic":
        a = np.tanh(mean)
    # epsilon = 0 must consume no extra draws so it seed-pairs with "stochastic"
    elif (mode == "epsilon_greedy" and agent.epsilon_greedy > 0.0
          and rng.uniform() < agent.epsilon_greedy):
        return rng.uniform(-1.0, 1.0, size=agent.action_dim)
    else:
        a = np.tanh(mean + np.exp(log_std) * rng.normal(size=mean.shape))
    return a[0] if single else a


def student_act(agent: ActorCritic, state, mode: str, rng=None) -> np.ndarray:
    """Action in [-1,1]^da for one state. epsilon_greedy takes a uniform
    random action with probability epsilon, otherwise samples the policy."""
    return _sample_action(agent, state, mode, rng)


def _critic_loss_grads(critic, states, targets, ws=None):
    y, cache = mlp_forward_cached(critic, states, ws)
    v = y[:, 0]
    err = v - targets
    loss = float(np.mean(err**2))
    grads, _ = mlp_backward(critic, cache, (2.0 * err / len(err))[:, None], ws)
    return loss, grads, v


# Exponentiated-advantage weights: non-negative, so the likelihood term is
# a weighted regression onto observed actions (negative linear weights make
# the mean and log-std diverge off-policy). Clipped for heavy-tail safety.
_ADV_WEIGHT_CLIP = 20.0


def advantage_weights(advantages) -> np.ndarray:
    return np.minimum(np.exp(advantages), _ADV_WEIGHT_CLIP)


def _actor_loss_grads(actor, states, actions, weights, entropy_coef, ws=None):
    """Weighted log-likelihood ascent plus entropy bonus; weights >= 0 are
    treated as constants (exponentiated advantages in training). The loss
    and its gradient both use the clamped pre-squash value of the actions."""
    y, cache = mlp_forward_cached(actor, states, ws)
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
    grads, _ = mlp_backward(actor, cache, upstream, ws)
    return loss, grads, float(np.mean(ent))


def _polyak(target: MlpParams, source: MlpParams, tau: float) -> None:
    """target <- (1 - tau) target + tau source, in place."""
    target.flat *= 1 - tau
    target.flat += tau * source.flat


def actor_critic_update(agent: ActorCritic, batch) -> dict:
    """One actor-critic step on (s, a, r, s', done) arrays; returns its
    diagnostics. The critic regresses to r + gamma (1-done) V_target(s');
    the actor ascends the advantage-weighted log-likelihood plus the entropy
    bonus; the target follows the critic by polyak averaging. Every network
    is updated in place. Rejected while frozen; non-finite losses are
    rejected before any state is touched. The target, critic and actor
    passes run on the agent's workspace in turn: one cache is live at a
    time."""
    if agent.frozen:
        raise RuntimeError("agent is frozen; updates are rejected")
    states, actions, rewards, next_states, dones = batch
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    if len(states) == 0:
        raise ValueError("empty batch")
    actions = np.asarray(actions, dtype=np.float64).reshape(len(states), -1)
    rewards = np.asarray(rewards, dtype=np.float64)
    dones = np.asarray(dones, dtype=np.float64)
    v_next = mlp_forward(agent.critic_target, np.atleast_2d(next_states), agent.ws)[:, 0]
    targets = rewards + agent.gamma * (1.0 - dones) * v_next

    c_loss, c_grads, v = _critic_loss_grads(agent.critic, states, targets, agent.ws)
    adv = targets - v
    if agent.advantage_norm and len(adv) > 1 and adv.std() > 1e-8:
        adv = (adv - adv.mean()) / adv.std()
    a_loss, a_grads, mean_ent = _actor_loss_grads(
        agent.actor, states, actions, advantage_weights(adv), agent.entropy_coef,
        agent.ws)
    if not (np.isfinite(c_loss) and np.isfinite(a_loss)):
        raise ValueError("non-finite loss in actor-critic update; agent unchanged")

    adam_step(agent.critic, c_grads, agent.critic_opt)
    adam_step(agent.actor, a_grads, agent.actor_opt)
    _polyak(agent.critic_target, agent.critic, agent.tau)
    return {"critic_loss": c_loss, "actor_loss": a_loss, "entropy": mean_ent}


# The loop updates the student and the trainer under their own names.
student_update = trainer_update = actor_critic_update


def trainer_observation(state, action) -> np.ndarray:
    """The trainer observes the student's concatenated (state, action)."""
    return np.concatenate([np.asarray(state, float).ravel(),
                           np.asarray(action, float).ravel()])


def trainer_act(agent: ActorCritic, obs, mode: str = "deterministic",
                rng=None, heads=None):
    """Scalar action in [-1, 1] (tanh-squashed) per row of obs, or a float
    for a 1-D obs; a stochastic batch draws its noise in one call, row
    after row. heads, the trainer_heads at obs when a forward already made
    them, spares the actor's forward."""
    a = _sample_action(agent, obs, mode, rng, heads)
    return float(a[0]) if np.ndim(obs) == 1 else a[:, 0]


def trainer_heads(agent: ActorCritic, obs: np.ndarray):
    """The actor's (mean, log_std) rows for a batch of observations."""
    return _policy_heads(agent.actor, obs, agent.ws)[:2]


def trainer_act_batch(agent: ActorCritic, obs: np.ndarray, heads=None) -> np.ndarray:
    """Deterministic actions for a batch of observations, from their
    trainer_heads if a forward already made them."""
    mean, _ = trainer_heads(agent, obs) if heads is None else heads
    return np.tanh(mean[:, 0])
