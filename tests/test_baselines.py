from dataclasses import replace

import numpy as np

from rile.agents import _policy_heads, gaussian_tanh_logprob, make_student
from rile.baselines import _student_logp, airl_loss_and_grads, make_airl_heads
from rile.envs import MazeSpec, generate_expert
from rile.nets import finite_diff_check


class TestAirlPolicyTerm:
    def test_clamped_density_on_scripted_expert_actions(self):
        states, actions = generate_expert(MazeSpec(), 4).all_pairs()
        assert (np.abs(actions) == 1.0).any()
        student = make_student(states.shape[1], actions.shape[1], (64, 64),
                               np.random.default_rng(0))
        logp = _student_logp(student, states, actions)
        assert np.isfinite(logp).all()

        mean, log_std, _ = _policy_heads(student.actor, states)
        u = np.clip(np.arctanh(np.clip(actions, -1 + 1e-12, 1 - 1e-12)), -3.0, 3.0)
        clamped = (-0.5 * ((u - mean) / np.exp(log_std)) ** 2 - log_std
                   - 0.5 * np.log(2 * np.pi) - np.log1p(-np.tanh(u) ** 2)).sum(axis=1)
        np.testing.assert_allclose(logp, clamped, rtol=1e-8, atol=1e-8)

        # The exact density differs wherever a coordinate lies past tanh(3).
        past = (np.abs(actions) > np.tanh(3.0)).any(axis=1)
        exact = gaussian_tanh_logprob(mean, log_std, actions)
        assert past.any()
        assert not np.isclose(logp[past], exact[past]).any()
        np.testing.assert_allclose(logp[~past], exact[~past], rtol=1e-8, atol=1e-8)


class TestAirlGradients:
    def test_both_heads_match_finite_differences(self):
        rng = np.random.default_rng(11)
        heads = make_airl_heads(2, 2, (6, 6), lr=1e-3, gamma=0.9, rng=rng)

        def batch(n):
            return (rng.normal(size=(n, 2)), rng.uniform(-1.0, 1.0, size=(n, 2)),
                    rng.normal(size=(n, 2)))

        expert, student = batch(5), batch(7)
        logp_e, logp_s = rng.normal(size=5), rng.normal(size=7)
        _, r_grads, v_grads = airl_loss_and_grads(heads, expert, student, logp_e, logp_s)

        def loss(**head):
            return airl_loss_and_grads(replace(heads, **head), expert, student,
                                       logp_e, logp_s)[0]

        assert finite_diff_check(lambda q: loss(reward=q), heads.reward, r_grads) <= 1e-4
        assert finite_diff_check(lambda q: loss(potential=q), heads.potential,
                                 v_grads) <= 1e-4
