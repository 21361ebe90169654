import copy

import numpy as np
import pytest

from rile import nets
from rile.agents import (
    _actor_loss_grads,
    _critic_loss_grads,
    _policy_heads,
    gaussian_tanh_logprob,
    make_actor_critic,
    student_act,
    student_update,
    trainer_act,
    trainer_act_batch,
    trainer_reward,
    trainer_update,
)
from rile.nets import mlp_forward

from oracles import finite_diff_check, params_to_flat


class TestTrainerReward:
    def test_exponential_difference_perfect_agreement(self):
        assert trainer_reward(1 - 1e-9, 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_exponential_difference_midpoint(self):
        assert trainer_reward(0.5, 1.0) == pytest.approx(np.exp(-1.0))

    def test_out_of_range_inputs_rejected(self):
        for d, a in ((-0.1, 0.0), (1.1, 0.0), (0.5, 1.1), (0.5, -1.1)):
            with pytest.raises(ValueError, match="must lie in"):
                trainer_reward(d, a)

    def test_ranges_per_million_random_inputs(self):
        rng = np.random.default_rng(0)
        d = rng.uniform(1e-12, 1 - 1e-12, size=1_000_000)
        a = rng.uniform(-1, 1, size=1_000_000)
        r = trainer_reward(d, a)
        assert r.min() >= np.exp(-2.0) and r.max() <= 1.0

    def test_bandit_optimum_is_upsilon_by_grid_search(self):
        # argmax over the action grid of the agreement reward must land
        # exactly on 2d-1 when 2d-1 is itself a grid point
        grid = np.round(np.arange(-1.0, 1.0 + 1e-9, 1e-3), 12)
        for k in range(0, 1001, 10):  # 101 values of d on the same lattice
            d = k / 1000.0
            r = trainer_reward(d, grid)
            best = grid[np.argmax(r)]
            assert best == pytest.approx(2 * d - 1.0, abs=1e-12)


class TestStudentAct:
    def make(self, epsilon_greedy=0.2):
        rng = np.random.default_rng(1)
        return make_actor_critic(2, 2, (8, 8), rng, epsilon_greedy=epsilon_greedy)

    def test_epsilon_one_is_uniform(self):
        agent = self.make(epsilon_greedy=1.0)
        rng = np.random.default_rng(2)
        acts = np.array([student_act(agent, [0.5, 0.5], rng)
                         for _ in range(10_000)])
        # mean of U[-1,1] is 0 with sigma/sqrt(n) = 1/sqrt(3e4)
        assert np.abs(acts.mean(axis=0)).max() <= 3.0 / np.sqrt(3 * 10_000)
        assert acts.min() >= -1 and acts.max() <= 1

    def test_epsilon_zero_equals_stochastic(self):
        # at epsilon 0 the one draw is the policy sample tanh(mean + std * normal)
        agent = self.make(epsilon_greedy=0.0)
        s = [0.2, 0.8]
        a = student_act(agent, s, np.random.default_rng(7))
        mean, log_std, _ = _policy_heads(agent.actor, np.array([s]))
        noise = np.random.default_rng(7).normal(size=2)
        assert np.array_equal(a, np.tanh(mean[0] + np.exp(log_std[0]) * noise))

    def test_deterministic_repeatable(self):
        agent = self.make()
        s = [0.3, 0.4]
        # with no rng, the action is the squashed policy mean
        a = student_act(agent, s)
        assert np.array_equal(a, student_act(agent, s))
        assert np.array_equal(a, np.tanh(_policy_heads(agent.actor, np.array([s]))[0][0]))

    def test_actions_in_box(self):
        agent = self.make(epsilon_greedy=0.0)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            a = student_act(agent, rng.uniform(0, 1, 2), rng)
            assert np.abs(a).max() <= 1.0


class TestStudentUpdate:
    def test_myopic_critic_converges_to_constant_reward(self):
        rng = np.random.default_rng(4)
        agent = make_actor_critic(2, 2, (16,), rng, lr=3e-3, gamma=0.0)
        states = rng.uniform(0, 1, size=(64, 2))
        batch = (states, np.zeros((64, 2)), np.full(64, 0.7), states, np.zeros(64))
        for _ in range(2000):
            student_update(agent, batch)
        v = mlp_forward(agent.critic, states)[:, 0]
        assert np.abs(v - 0.7).max() <= 1e-2

    def test_entropy_dominance_raises_log_std_to_bound(self):
        rng = np.random.default_rng(5)
        agent = make_actor_critic(2, 1, (8,), rng, lr=0.05, entropy_coef=1000.0)
        states = rng.uniform(0, 1, size=(32, 2))
        batch = (states, np.full((32, 1), 0.1), np.zeros(32), states, np.zeros(32))

        def mean_log_std(a):
            y = mlp_forward(a.actor, states)
            return float(np.clip(y[:, 1:], -5, 2).mean())

        history = [mean_log_std(agent)]
        for _ in range(100):
            student_update(agent, batch)
            history.append(mean_log_std(agent))
        diffs = np.diff(history)
        assert (diffs >= -1e-9).all()
        assert history[-1] == pytest.approx(2.0, abs=1e-6)

    def test_actor_critic_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        agent = make_actor_critic(2, 2, (6,), rng)
        states = rng.uniform(-1, 1, size=(8, 2))
        actions = rng.uniform(-0.8, 0.8, size=(8, 2))
        targets = rng.normal(size=8)
        adv = rng.normal(size=8)

        _, c_grads, _ = _critic_loss_grads(agent.critic, states, targets)
        assert finite_diff_check(
            lambda q: _critic_loss_grads(q, states, targets)[0],
            agent.critic, c_grads, step=1e-5) <= 1e-4

        _, a_grads, _ = _actor_loss_grads(agent.actor, states, actions, adv, 0.2)
        assert finite_diff_check(
            lambda q: _actor_loss_grads(q, states, actions, adv, 0.2)[0],
            agent.actor, a_grads, step=1e-5) <= 1e-4

    def test_actor_loss_guarded_at_boundary_actions(self):
        rng = np.random.default_rng(14)
        agent = make_actor_critic(2, 2, (6,), rng)
        states = rng.uniform(-1, 1, size=(8, 2))
        actions = rng.uniform(0.999, 1.0, size=(8, 2)) * rng.choice([-1.0, 1.0], size=(8, 2))
        actions[:2] = [[1.0, -1.0], [-1.0, 1.0]]
        weights = rng.uniform(0.0, 2.0, size=8)

        loss, a_grads, _ = _actor_loss_grads(agent.actor, states, actions, weights, 0.2)
        a_grads = a_grads.copy()  # the edge case's backward below reuses the actor's scratch
        assert np.isfinite(loss)
        assert np.isfinite(a_grads).all()
        assert finite_diff_check(
            lambda q: _actor_loss_grads(q, states, actions, weights, 0.2)[0],
            agent.actor, a_grads, step=1e-5) <= 1e-4

        # Past tanh(3) the loss sees the clamped pre-squash value +-3, so it
        # scores these actions as if they sat at tanh(+-3).
        edge = np.sign(actions) * np.tanh(3.0)
        edge_loss, edge_grads, _ = _actor_loss_grads(agent.actor, states, edge, weights, 0.2)
        assert loss == pytest.approx(edge_loss, rel=1e-9)
        np.testing.assert_allclose(a_grads, edge_grads,
                                   rtol=1e-9, atol=1e-12)

    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(7)
        agent = make_actor_critic(2, 2, (4,), rng)
        with pytest.raises(ValueError):
            student_update(agent, (np.zeros((0, 2)), np.zeros((0, 2)),
                                   np.zeros(0), np.zeros((0, 2)), np.zeros(0)))

    def test_non_finite_reward_rejected_agent_unchanged(self):
        rng = np.random.default_rng(8)
        agent = make_actor_critic(2, 2, (4,), rng)
        before = params_to_flat(agent.actor).copy()
        batch = (np.zeros((2, 2)), np.zeros((2, 2)), np.array([np.nan, 1.0]),
                 np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            student_update(agent, batch)
        assert np.array_equal(params_to_flat(agent.actor), before)


class TestLogProb:
    def test_matches_direct_density_calculation(self):
        rng = np.random.default_rng(9)
        mean = rng.normal(size=(5, 2))
        log_std = rng.uniform(-1, 0.5, size=(5, 2))
        u = rng.normal(size=(5, 2))
        a = np.tanh(mean + np.exp(log_std) * u)
        lp = gaussian_tanh_logprob(mean, log_std, a)
        uu = np.arctanh(np.clip(a, -1 + 1e-9, 1 - 1e-9))
        direct = (-0.5 * ((uu - mean) / np.exp(log_std)) ** 2 - log_std
                  - 0.5 * np.log(2 * np.pi) - np.log1p(-a**2 + 1e-300)).sum(axis=1)
        np.testing.assert_allclose(lp, direct, rtol=1e-8, atol=1e-8)


class TestTrainer:
    def test_zero_weight_actor_outputs_zero(self):
        rng = np.random.default_rng(10)
        t = make_actor_critic(4, 1, (8,), rng)
        for w in t.actor.weights:
            w[:] = 0.0
        for b in t.actor.biases:
            b[:] = 0.0
        assert trainer_act_batch(t, np.zeros((1, 4)))[0] == 0.0

    def test_outputs_bounded(self):
        rng = np.random.default_rng(11)
        t = make_actor_critic(4, 1, (8, 8), rng)
        obs = rng.normal(size=(100_000, 4)) * 10
        a = trainer_act_batch(t, obs)
        assert a.min() >= -1.0 and a.max() <= 1.0

    def test_stochastic_rows_draw_as_one_row_at_a_time(self):
        # one batched draw gives the same actions as a draw per row, from
        # the same heads and the same stream
        rng = np.random.default_rng(15)
        t = make_actor_critic(4, 1, (8,), rng)
        obs = rng.normal(size=(200, 4))
        mean, log_std, _ = _policy_heads(t.actor, obs)
        batch, (y, _) = trainer_act(t, obs, np.random.default_rng(3))
        draw = np.random.default_rng(3)
        rows = [np.tanh(mean[i, 0] + np.exp(log_std[i, 0]) * draw.normal())
                for i in range(len(obs))]
        assert batch.shape == (200,)
        assert np.array_equal(batch, rows)
        # the forward it returns is the actor's over obs
        assert np.array_equal(y, mlp_forward(t.actor, obs))
        # samples, not the deterministic action
        assert not np.array_equal(batch, trainer_act_batch(t, obs))

    def test_an_update_from_the_acting_forward_is_bit_equal_and_skips_the_actor(
            self, monkeypatch):
        # trainer_update given the forward trainer_act drew from leaves the
        # same nets, Adam states and diagnostics as one that forwards the
        # actor itself, and forwards the actor no more
        rng = np.random.default_rng(16)
        t = make_actor_critic(4, 1, (8, 8), rng)
        twin = copy.deepcopy(t)
        obs, obsp = rng.normal(size=(32, 4)), rng.normal(size=(32, 4))
        a_t, fwd = trainer_act(t, obs, np.random.default_rng(5))
        batch = (obs, a_t, rng.uniform(0, 1, 32), obsp, (rng.uniform(size=32) < 0.2) * 1.0)
        forwards = []
        original = nets._forward_cached

        def spy(params, x):
            forwards.append(params)
            return original(params, x)

        monkeypatch.setattr(nets, "_forward_cached", spy)
        diag = trainer_update(t, batch, fwd)
        assert [id(q) for q in forwards] == [id(t.critic_target), id(t.critic)]
        assert diag == trainer_update(twin, batch)
        assert forwards[-1] is twin.actor  # the twin forwards its actor itself
        for n in ("actor", "critic", "critic_target"):
            assert np.array_equal(getattr(t, n).flat, getattr(twin, n).flat)
        for o in ("actor_opt", "critic_opt"):
            mine, theirs = getattr(t, o), getattr(twin, o)
            assert np.array_equal(mine.m, theirs.m) and np.array_equal(mine.v, theirs.v)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_reward_rejected_before_any_state_changes(self, bad):
        # The only source of a non-finite trainer critic loss: the update
        # raises and leaves every network and both Adam states as they were.
        rng = np.random.default_rng(14)
        t = make_actor_critic(3, 1, (8,), rng)
        obs = rng.normal(size=(16, 3))
        batch = (obs, rng.uniform(-0.9, 0.9, 16), rng.normal(size=16), obs, np.zeros(16))
        trainer_update(t, batch)  # moments and step counts past their initial zeros

        def state():
            return ([params_to_flat(n) for n in (t.actor, t.critic, t.critic_target)]
                    + [x.copy() for opt in (t.actor_opt, t.critic_opt)
                       for x in (opt.m, opt.v, np.array(opt.step))])

        before = state()
        rewards = batch[2].copy()
        rewards[5] = bad
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite loss"):
            trainer_update(t, (obs, batch[1], rewards, obs, np.zeros(16)))
        after = state()
        assert all(np.array_equal(x, y) for x, y in zip(before, after))

    def test_trainer_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        t = make_actor_critic(3, 1, (6,), rng)
        obs = rng.normal(size=(8, 3))
        acts = rng.uniform(-0.8, 0.8, size=(8, 1))
        targets = rng.normal(size=8)
        adv = rng.normal(size=8)

        _, c_grads, _ = _critic_loss_grads(t.critic, obs, targets)
        assert finite_diff_check(
            lambda q: _critic_loss_grads(q, obs, targets)[0],
            t.critic, c_grads, step=1e-5) <= 1e-4

        _, a_grads, _ = _actor_loss_grads(t.actor, obs, acts, adv, 0.2)
        assert finite_diff_check(
            lambda q: _actor_loss_grads(q, obs, acts, adv, 0.2)[0],
            t.actor, a_grads, step=1e-5) <= 1e-4
