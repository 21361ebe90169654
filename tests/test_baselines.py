from dataclasses import replace

import numpy as np
import pytest

from rile import baselines
from rile.agents import _policy_heads, gaussian_tanh_logprob, make_student
from rile.baselines import _student_logp, airl_loss_and_grads, make_airl_heads
from rile.envs import MazeSpec, generate_expert
from rile.orchestrator import RunConfig, run_training

from oracles import finite_diff_check


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


class TestBcHoldout:
    # One scripted episode: 48 distinct states, so every row passed to a
    # loss can be told apart. (generate_expert(spec, n) repeats one episode.)
    EXPERT = generate_expert(MazeSpec(), 1)
    EPOCHS = 3

    def _run(self, holdout, monkeypatch):
        """Runs BC and returns (diagnostics rows, row indices of each
        gradient batch, row indices of each scored loss)."""
        states = self.EXPERT.all_pairs()[0]
        index = {tuple(row): i for i, row in enumerate(states)}
        assert len(index) == len(states)
        trained, scored = [], []

        def rows(s):
            return [index[tuple(row)] for row in s]

        def spy(record, fn):
            def wrapped(actor, s, *rest):
                record.append(rows(s))
                return fn(actor, s, *rest)
            return wrapped

        monkeypatch.setattr(baselines, "_bc_loss_and_grads",
                            spy(trained, baselines._bc_loss_and_grads))
        monkeypatch.setattr(baselines, "_bc_loss", spy(scored, baselines._bc_loss))
        cfg = RunConfig(algorithm="bc", seed=2, student_hidden=(8, 8), student_batch=10,
                        bc_epochs=self.EPOCHS, bc_holdout=holdout, eval_episodes=1)
        artifacts = run_training(cfg, self.EXPERT)
        return artifacts.diagnostics_rows, trained, scored

    def _epochs(self, trained):
        """The gradient batches grouped by epoch, as sorted row indices."""
        per_epoch, rest = divmod(len(trained), self.EPOCHS)
        assert rest == 0
        return [sorted(sum(trained[e * per_epoch:(e + 1) * per_epoch], []))
                for e in range(self.EPOCHS)]

    @pytest.mark.parametrize("holdout", [0.1, 0.25])
    def test_held_out_rows_are_never_trained_on(self, holdout, monkeypatch):
        diag, trained, scored = self._run(holdout, monkeypatch)
        n = self.EXPERT.n_steps
        # each epoch scores the train rows, then the held-out rows
        assert len(scored) == 2 * self.EPOCHS
        train, held = sorted(scored[0]), sorted(scored[1])
        assert len(held) == round(holdout * n)
        assert sorted(train + held) == list(range(n))
        assert not set(held) & set(sum(trained, []))
        # every train row is in exactly one batch of each epoch
        assert self._epochs(trained) == [train] * self.EPOCHS
        assert all("holdout_loss" in row for row in diag)

    def test_no_holdout_trains_on_every_row(self, monkeypatch):
        diag, trained, scored = self._run(0.0, monkeypatch)
        every = list(range(self.EXPERT.n_steps))
        assert self._epochs(trained) == [every] * self.EPOCHS
        assert [sorted(s) for s in scored] == [every] * self.EPOCHS
        assert len(diag) == self.EPOCHS
        assert not any("holdout_loss" in row for row in diag)
