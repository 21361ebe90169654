import numpy as np
import pytest

from rile.agents import (
    REWARD_VARIANTS,
    _actor_loss_grads,
    _critic_loss_grads,
    gaussian_tanh_logprob,
    make_actor_critic,
    student_act,
    student_update,
    trainer_act,
    trainer_act_batch,
    trainer_heads,
    trainer_observation,
    trainer_reward,
    trainer_update,
)
from rile.nets import mlp_forward

from oracles import finite_diff_check, params_to_flat


class TestTrainerReward:
    def test_exponential_difference_perfect_agreement(self):
        assert trainer_reward("exponential_difference", 1 - 1e-9, 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_exponential_difference_midpoint(self):
        assert trainer_reward("exponential_difference", 0.5, 1.0) == pytest.approx(np.exp(-1.0))

    def test_multiplication(self):
        assert trainer_reward("multiplication", 0.75, 0.5) == pytest.approx(0.25)

    def test_naive_ignores_action(self):
        for a in (-1.0, 0.0, 0.33, 1.0):
            assert trainer_reward("naive", 0.3, a) == pytest.approx(0.3)

    def test_difference(self):
        assert trainer_reward("difference", 0.5, 1.0) == pytest.approx(-1.0)

    def test_exponential_naive(self):
        assert trainer_reward("exponential_naive", 0.5, 0.0) == pytest.approx(np.exp(0.5))

    def test_sigmoid(self):
        expected = 0.4 / (1.0 + np.exp(-0.5))
        assert trainer_reward("sigmoid", 0.4, 0.5) == pytest.approx(expected)

    def test_positive_exponent_form_selectable(self):
        r = trainer_reward("exponential_difference", 0.5, 1.0, exponent_sign=+1.0)
        assert r == pytest.approx(np.e)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            trainer_reward("bogus", 0.5, 0.0)

    def test_ranges_per_million_random_inputs(self):
        rng = np.random.default_rng(0)
        d = rng.uniform(1e-12, 1 - 1e-12, size=1_000_000)
        a = rng.uniform(-1, 1, size=1_000_000)
        r = trainer_reward("exponential_difference", d, a)
        assert r.min() >= np.exp(-2.0) and r.max() <= 1.0
        r = trainer_reward("difference", d, a)
        assert r.min() >= -2.0 and r.max() <= 0.0
        r = trainer_reward("multiplication", d, a)
        assert r.min() >= -1.0 and r.max() <= 1.0
        r = trainer_reward("naive", d, a)
        assert 0.0 < r.min() and r.max() < 1.0
        r = trainer_reward("exponential_naive", d, a)
        assert 1.0 < r.min() and r.max() < np.e
        r = trainer_reward("sigmoid", d, a)
        assert 0.0 < r.min() and (r < d).all()

    def test_bandit_optimum_is_upsilon_by_grid_search(self):
        # argmax over the action grid of the agreement reward must land
        # exactly on 2d-1 when 2d-1 is itself a grid point
        grid = np.round(np.arange(-1.0, 1.0 + 1e-9, 1e-3), 12)
        for k in range(0, 1001, 10):  # 101 values of d on the same lattice
            d = k / 1000.0
            r = trainer_reward("exponential_difference", d, grid)
            best = grid[np.argmax(r)]
            assert best == pytest.approx(2 * d - 1.0, abs=1e-12)


class TestStudentAct:
    def make(self, epsilon_greedy=0.2):
        rng = np.random.default_rng(1)
        return make_actor_critic(2, 2, (8, 8), rng, epsilon_greedy=epsilon_greedy)

    def test_epsilon_one_is_uniform(self):
        agent = self.make(epsilon_greedy=1.0)
        rng = np.random.default_rng(2)
        acts = np.array([student_act(agent, [0.5, 0.5], "epsilon_greedy", rng)
                         for _ in range(10_000)])
        # mean of U[-1,1] is 0 with sigma/sqrt(n) = 1/sqrt(3e4)
        assert np.abs(acts.mean(axis=0)).max() <= 3.0 / np.sqrt(3 * 10_000)
        assert acts.min() >= -1 and acts.max() <= 1

    def test_epsilon_zero_equals_stochastic(self):
        agent = self.make(epsilon_greedy=0.0)
        s = [0.2, 0.8]
        a1 = student_act(agent, s, "epsilon_greedy", np.random.default_rng(7))
        a2 = student_act(agent, s, "stochastic", np.random.default_rng(7))
        assert np.array_equal(a1, a2)

    def test_deterministic_repeatable(self):
        agent = self.make()
        s = [0.3, 0.4]
        assert np.array_equal(student_act(agent, s, "deterministic"),
                              student_act(agent, s, "deterministic"))

    def test_actions_in_box(self):
        agent = self.make()
        rng = np.random.default_rng(3)
        for _ in range(1000):
            a = student_act(agent, rng.uniform(0, 1, 2), "stochastic", rng)
            assert np.abs(a).max() <= 1.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            student_act(self.make(), [0.0, 0.0], "greedy", np.random.default_rng(0))


class TestStudentUpdate:
    def test_myopic_critic_converges_to_constant_reward(self):
        rng = np.random.default_rng(4)
        agent = make_actor_critic(2, 2, (16,), rng, critic_lr=3e-3, gamma=0.0)
        states = rng.uniform(0, 1, size=(64, 2))
        batch = (states, np.zeros((64, 2)), np.full(64, 0.7), states, np.zeros(64))
        for _ in range(2000):
            student_update(agent, batch)
        v = mlp_forward(agent.critic, states)[:, 0]
        assert np.abs(v - 0.7).max() <= 1e-2

    def test_entropy_dominance_raises_log_std_to_bound(self):
        rng = np.random.default_rng(5)
        agent = make_actor_critic(2, 1, (8,), rng, actor_lr=0.05, entropy_coef=1000.0)
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
        assert np.isfinite(loss)
        assert np.isfinite(params_to_flat(a_grads)).all()
        assert finite_diff_check(
            lambda q: _actor_loss_grads(q, states, actions, weights, 0.2)[0],
            agent.actor, a_grads, step=1e-5) <= 1e-4

        # Past tanh(3) the loss sees the clamped pre-squash value +-3, so it
        # scores these actions as if they sat at tanh(+-3).
        edge = np.sign(actions) * np.tanh(3.0)
        edge_loss, edge_grads, _ = _actor_loss_grads(agent.actor, states, edge, weights, 0.2)
        assert loss == pytest.approx(edge_loss, rel=1e-9)
        np.testing.assert_allclose(params_to_flat(a_grads), params_to_flat(edge_grads),
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
        assert trainer_act(t, np.zeros(4), "deterministic") == 0.0

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
        mean, log_std = trainer_heads(t, obs)
        batch = trainer_act(t, obs, "stochastic", np.random.default_rng(3), (mean, log_std))
        draw = np.random.default_rng(3)
        rows = [trainer_act(t, o, "stochastic", draw, (mean[i:i + 1], log_std[i:i + 1]))
                for i, o in enumerate(obs)]
        assert batch.shape == (200,) and all(isinstance(a, float) for a in rows)
        assert np.array_equal(batch, rows)
        assert np.array_equal(trainer_act(t, obs), trainer_act_batch(t, obs))

    def test_observation_concatenation(self):
        obs = trainer_observation([1.0, 2.0], [3.0])
        assert np.array_equal(obs, [1.0, 2.0, 3.0])

    def test_frozen_rejects_updates_and_stays_constant(self):
        rng = np.random.default_rng(12)
        t = make_actor_critic(3, 1, (8,), rng)
        obs = rng.normal(size=(16, 3))
        batch = (obs, rng.uniform(-0.9, 0.9, 16), rng.normal(size=16), obs, np.zeros(16))
        trainer_update(t, batch)
        t.frozen = True
        before = params_to_flat(t.actor).copy()
        probe = rng.normal(size=3)
        a_before = trainer_act(t, probe, "deterministic")
        with pytest.raises(RuntimeError, match="frozen"):
            trainer_update(t, batch)
        assert np.array_equal(params_to_flat(t.actor), before)
        assert trainer_act(t, probe, "deterministic") == a_before

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
