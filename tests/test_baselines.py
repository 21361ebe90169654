from dataclasses import replace

import numpy as np
import pytest

from rile import baselines, nets
from rile.agents import _policy_heads, gaussian_tanh_logprob, make_actor_critic
from rile.baselines import _student_logp, airl_loss_and_grads, airl_update, make_airl_heads
from rile.envs import ExpertDataset, MazeSpec, generate_expert, scripted_expert_episode
from rile.orchestrator import RunConfig, expert_transition_table, run_training

from oracles import FLOAT32_RTOL, airl_per_block, finite_diff_check, float64_airl_heads


class TestAirlPolicyTerm:
    def test_clamped_density_on_scripted_expert_actions(self):
        expert = generate_expert(MazeSpec(), 4)
        table = expert_transition_table(expert)
        states, actions = expert.s, expert.a
        assert (np.abs(actions) == 1.0).any()
        student = make_actor_critic(states.shape[1], actions.shape[1], (64, 64),
                                    np.random.default_rng(0))
        logp = _student_logp(student, table["obs"])
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
            return (np.hstack([rng.normal(size=(n, 2)), rng.uniform(-1.0, 1.0, size=(n, 2))]),
                    rng.normal(size=(n, 2)))

        expert, student = batch(5), batch(7)
        logp_e, logp_s = rng.normal(size=5), rng.normal(size=7)
        x, sp = (np.concatenate(column) for column in zip(expert, student))
        logp = np.concatenate([logp_e, logp_s])
        _, r_grads, v_grads = airl_loss_and_grads(heads, x, sp, logp, 5)
        # each loss below runs a backward through the other head, over its gradient
        r_grads, v_grads = r_grads.copy(), v_grads.copy()

        def loss(**head):
            return airl_loss_and_grads(replace(heads, **head), x, sp, logp, 5)[0]

        assert finite_diff_check(lambda q: loss(reward=q), heads.reward, r_grads) <= 1e-4
        assert finite_diff_check(lambda q: loss(potential=q), heads.potential,
                                 v_grads) <= 1e-4

    @staticmethod
    def check_stacked_rows(make, rtol):
        # one forward and one backward per head over [expert; student] give
        # the loss and gradients of six per-batch, per-head passes, up to
        # the order of floating-point sums in the heads' dtype
        rng = np.random.default_rng(12)
        for _ in range(20):
            hidden = tuple(rng.integers(1, 24, size=rng.integers(0, 3)))
            heads = make(2, 2, hidden, lr=1e-3, gamma=rng.uniform(0.5, 1.0), rng=rng)
            ne, ns = rng.integers(1, 40, size=2)
            expert, student = ((np.hstack([rng.normal(size=(n, 2)), rng.uniform(-1, 1, (n, 2))]),
                                rng.normal(size=(n, 2))) for n in (ne, ns))
            logp_e, logp_s = rng.normal(size=ne), rng.normal(size=ns)
            loss, *grads = airl_loss_and_grads(
                heads, *(np.concatenate(column) for column in zip(expert, student)),
                np.concatenate([logp_e, logp_s]), ne)
            grads = [g.copy() for g in grads]  # the reference reuses the heads' scratch
            ref_loss, *ref_grads = airl_per_block(heads, expert, student, logp_e, logp_s)
            assert loss == pytest.approx(ref_loss, rel=rtol)
            for g, ref in zip(grads, ref_grads):
                np.testing.assert_allclose(g, ref, rtol=rtol, atol=rtol * np.abs(ref).max())

    def test_stacked_rows_match_per_block_reference(self):
        self.check_stacked_rows(float64_airl_heads, rtol=1e-12)

    def test_stacked_rows_match_per_block_reference_in_float32(self):
        self.check_stacked_rows(make_airl_heads, rtol=FLOAT32_RTOL)

    def test_one_forward_and_backward_per_network(self, monkeypatch):
        rng = np.random.default_rng(13)
        heads = make_airl_heads(2, 2, (8, 8), lr=1e-3, gamma=0.9, rng=rng)
        student = make_actor_critic(2, 2, (8, 8), rng)
        forwards, backwards = [], []

        def spy(record, fn):
            def wrapped(params, *rest):
                record.append(params)
                return fn(params, *rest)
            return wrapped

        monkeypatch.setattr(nets, "_forward_cached", spy(forwards, nets._forward_cached))
        monkeypatch.setattr(baselines, "mlp_backward", spy(backwards, baselines.mlp_backward))
        batch = (np.hstack([rng.normal(size=(6, 2)), rng.uniform(-1, 1, (6, 2))]),
                 rng.normal(size=(6, 2)))
        for _ in range(2):
            forwards.clear()
            backwards.clear()
            airl_update(heads, student, batch, batch)
            assert sorted(map(id, forwards)) == sorted(
                map(id, (heads.reward, heads.potential, student.actor)))
            assert [id(p) for p in backwards] == [id(heads.reward), id(heads.potential)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("block, column", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_a_non_finite_row_is_rejected_before_any_write(self, block, column, bad):
        # block 0 is the expert batch, 1 the student's; column 0 the input
        # rows x = [s, a], 1 the next states
        rng = np.random.default_rng(14)
        heads = make_airl_heads(2, 2, (8, 8), lr=1e-3, gamma=0.9, rng=rng)
        student = make_actor_critic(2, 2, (8, 8), rng)
        batches = [(np.hstack([rng.normal(size=(n, 2)), rng.uniform(-1, 1, (n, 2))]),
                    rng.normal(size=(n, 2))) for n in (6, 5)]
        airl_update(heads, student, *batches)  # moments and step counts past their zeros

        def state():
            return [a.tobytes() for a in (heads.reward.flat, heads.potential.flat,
                                          heads.reward_opt.m, heads.reward_opt.v,
                                          heads.potential_opt.m, heads.potential_opt.v)
                    ] + [heads.reward_opt.step, heads.potential_opt.step]

        before = state()
        batches[block][column][2, 1] = bad
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="heads unchanged"):
            airl_update(heads, student, *batches)
        assert state() == before


class TestBcHoldout:
    # One scripted episode: 48 distinct states, so every row passed to a
    # loss can be told apart. (generate_expert(spec, n) repeats one episode.)
    EXPERT = generate_expert(MazeSpec(), 1)
    EPOCHS = 3

    def _run(self, holdout, monkeypatch):
        """Runs BC and returns (diagnostics rows, row indices of each
        gradient batch, row indices of each scored loss)."""
        states = self.EXPERT.s
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
        n = len(self.EXPERT.s)
        # each epoch scores the train rows, then the held-out rows
        assert len(scored) == 2 * self.EPOCHS
        train, held = sorted(scored[0]), sorted(scored[1])
        assert len(held) == round(holdout * n)
        assert sorted(train + held) == list(range(n))
        assert not set(held) & set(sum(trained, []))
        # every train row is in exactly one batch of each epoch
        assert self._epochs(trained) == [train] * self.EPOCHS
        assert all("holdout_loss" in row for row in diag)

    def test_a_holdout_of_every_row_keeps_one_row_to_train_on(self, monkeypatch):
        # 0.995 of the 48 rows rounds to all 48; the holdout is capped at 47
        diag, trained, scored = self._run(0.995, monkeypatch)
        train, held = sorted(scored[0]), sorted(scored[1])
        assert len(train) == 1 and len(held) == len(self.EXPERT.s) - 1
        assert sorted(train + held) == list(range(len(self.EXPERT.s)))
        assert self._epochs(trained) == [train] * self.EPOCHS
        assert all(row["train_loss"] != row["holdout_loss"] for row in diag)

    def test_no_holdout_trains_on_every_row(self, monkeypatch):
        diag, trained, scored = self._run(0.0, monkeypatch)
        every = list(range(len(self.EXPERT.s)))
        assert self._epochs(trained) == [every] * self.EPOCHS
        assert [sorted(s) for s in scored] == [every] * self.EPOCHS
        assert len(diag) == self.EPOCHS
        assert not any("holdout_loss" in row for row in diag)


def test_bc_reaches_the_goal_on_the_default_maze():
    # A learning rung tier-1 can afford: BC regresses the expert's actions
    # well enough to reach the goal. At the default 200 epochs it does not
    # (seed 0).
    artifacts = run_training(RunConfig(algorithm="bc", bc_epochs=1000, seed=0),
                             generate_expert(MazeSpec(), 4))
    assert artifacts.metrics_rows[-1]["goal_rate"] == 1.0


@pytest.mark.parametrize("algorithm, overrides", [
    ("gail", {}),
    ("airl", {}),
    # The trainer freeze fires before its critic has trained (ROADMAP item
    # 1), so these rungs turn freezing off; item 1's fix turns it back on.
    ("rile_off", {"freeze_threshold": 0.0}),
    ("rile_on", {"freeze_threshold": 0.0}),
], ids=["gail", "airl", "rile_off", "rile_on"])
def test_adversarial_baseline_reaches_the_goal_on_the_open_field(algorithm, overrides):
    # A learning rung: on a maze without obstacles, with an expert that
    # walks through the centre, seed 0 first reports goal rate 1 at 3,000
    # steps under gail, 5,000 under airl, 5,000 under rile_off and 2,000
    # under rile_on (3-8k, 5-7k, 3-8k over seeds 0-2, and 1-3k over seeds
    # 0-4 under rile_on: 2k, 3k, 1k, 1k and 2k).
    spec = MazeSpec(obstacles=[])
    expert = ExpertDataset([scripted_expert_episode(spec, [(0.5, 0.5)])] * 4)
    cfg = RunConfig(algorithm=algorithm, env=spec, seed=0, eval_every=1000,
                    early_stop_success=True, total_steps=10_000, **overrides)
    artifacts = run_training(cfg, expert)
    assert artifacts.metrics_rows[-1]["goal_rate"] == 1.0
