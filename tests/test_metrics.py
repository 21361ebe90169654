import itertools

import numpy as np
import pytest

from rile import metrics
from rile.discriminator import make_discriminator
from rile.envs import MazeSpec, WaypointController
from rile.agents import make_student, make_trainer
from rile.metrics import (
    ACTION_FAN,
    LandscapeGrid,
    MetricsWindow,
    cpr,
    evaluate_policy,
    fs_rfdc,
    grid_centers,
    landscape_grid,
    load_grid_csv,
    rfdc,
    save_grid_csv,
    wasserstein1d,
)

from oracles import params_to_flat


def brute_force_w1(xs, ys):
    """Independent transport oracle: permutation search for equal counts,
    LP otherwise."""
    xs, ys = list(xs), list(ys)
    if len(xs) == len(ys):
        n = len(xs)
        return min(
            sum(abs(x - ys[p]) for x, p in zip(xs, perm)) / n
            for perm in itertools.permutations(range(n))
        )
    from scipy.optimize import linprog

    n, m = len(xs), len(ys)
    c = np.abs(np.subtract.outer(xs, ys)).ravel()
    a_eq = []
    b_eq = []
    for i in range(n):
        row = np.zeros(n * m)
        row[i * m:(i + 1) * m] = 1.0
        a_eq.append(row)
        b_eq.append(1.0 / n)
    for j in range(m):
        row = np.zeros(n * m)
        row[j::m] = 1.0
        a_eq.append(row)
        b_eq.append(1.0 / m)
    res = linprog(c, A_eq=np.array(a_eq), b_eq=np.array(b_eq), bounds=(0, None))
    assert res.success
    return res.fun


class TestWasserstein:
    def test_identity(self):
        xs = [3.0, -1.0, 2.0, 2.0]
        assert wasserstein1d(xs, list(reversed(xs))) == 0.0

    def test_constant_shift(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=50)
        for c in (0.3, -1.7, 12.0):
            assert abs(wasserstein1d(xs, xs + c) - abs(c)) <= 1e-12

    def test_two_atoms(self):
        assert wasserstein1d([0.0, 1.0], [0.0, 0.0]) == pytest.approx(0.5, abs=1e-15)

    def test_matches_brute_force_equal_sizes(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            xs = rng.normal(size=n)
            ys = rng.normal(size=n)
            assert wasserstein1d(xs, ys) == pytest.approx(brute_force_w1(xs, ys), abs=1e-9)

    def test_matches_lp_unequal_sizes(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            if n == m:
                m += 1
            xs = rng.normal(size=n)
            ys = rng.normal(size=m)
            assert wasserstein1d(xs, ys) == pytest.approx(brute_force_w1(xs, ys), abs=1e-9)

    def test_matches_scipy(self):
        from scipy.stats import wasserstein_distance

        rng = np.random.default_rng(3)
        for _ in range(20):
            xs = rng.normal(size=int(rng.integers(1, 40)))
            ys = rng.normal(size=int(rng.integers(1, 40)))
            assert wasserstein1d(xs, ys) == pytest.approx(
                wasserstein_distance(xs, ys), abs=1e-9)

    def test_metric_axioms(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            xs = rng.normal(size=int(rng.integers(1, 10)))
            ys = rng.normal(size=int(rng.integers(1, 10)))
            zs = rng.normal(size=int(rng.integers(1, 10)))
            dxy = wasserstein1d(xs, ys)
            assert dxy >= 0.0
            assert dxy == pytest.approx(wasserstein1d(ys, xs), abs=1e-12)
            assert dxy <= wasserstein1d(xs, zs) + wasserstein1d(zs, ys) + 1e-9

    def test_zero_iff_equal_multisets(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            xs = rng.normal(size=6)
            perm = rng.permutation(xs)
            assert wasserstein1d(xs, perm) == 0.0
            ys = xs.copy()
            ys[0] += 0.5
            assert wasserstein1d(xs, ys) > 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            wasserstein1d([], [1.0])


class TestWindows:
    def make(self, idx, learned):
        learned = np.asarray(learned, float)
        return MetricsWindow(idx, learned, np.zeros_like(learned), np.zeros(3))

    def test_rfdc_identity(self):
        a = self.make(0, [1.0, 2.0, 3.0])
        b = self.make(1, [3.0, 1.0, 2.0])
        assert rfdc(a, b) == 0.0

    def test_rfdc_shift(self):
        a = self.make(0, [1.0, 2.0, 3.0])
        b = self.make(1, [1.3, 2.3, 3.3])
        assert rfdc(a, b) == pytest.approx(0.3, abs=1e-12)

    def test_rfdc_drift_matches_brute_force(self):
        rng = np.random.default_rng(6)
        prev = rng.normal(size=5)
        curr = prev + rng.normal(0, 0.4, size=5)
        a, b = self.make(3, prev), self.make(4, curr)
        assert rfdc(a, b) == pytest.approx(brute_force_w1(prev, curr), abs=1e-9)

    def test_rfdc_non_consecutive_rejected(self):
        with pytest.raises(ValueError, match="consecutive"):
            rfdc(self.make(0, [1.0]), self.make(2, [1.0]))

    def test_mismatched_pairing_rejected(self):
        with pytest.raises(ValueError, match="paired"):
            MetricsWindow(0, np.zeros(4), np.zeros(5), np.zeros(2))


class TestFsRfdc:
    def test_identity(self):
        assert fs_rfdc([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_uniform_shift(self):
        assert fs_rfdc([1.0, 2.0, 3.0], [1.2, 2.2, 3.2]) == pytest.approx(0.2, abs=1e-15)

    def test_hand_summed_mad(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=17)
        b = rng.normal(size=17)
        hand = sum(abs(x - y) for x, y in zip(a, b)) / 17
        assert fs_rfdc(a, b) == pytest.approx(hand, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fs_rfdc([1.0], [1.0, 2.0])


class TestCpr:
    def test_perfect_correlation(self):
        x = np.array([1.0, 2.0, 5.0, -1.0])
        assert cpr(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_anticorrelation(self):
        x = np.array([1.0, 2.0, 5.0, -1.0])
        assert cpr(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_pair(self):
        x = np.array([1.0, -1.0, 1.0, -1.0])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        assert cpr(x, y) == pytest.approx(0.0, abs=1e-12)

    def test_constant_input_reported_missing(self):
        assert np.isnan(cpr([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
        assert np.isnan(cpr([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]))

    def test_bounds_and_scale_shift_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            n = int(rng.integers(2, 20))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            r = cpr(x, y)
            if np.isnan(r):
                continue
            assert -1.0 <= r <= 1.0
            a = rng.normal()
            if a == 0 or abs(a) < 1e-12:
                continue
            b = rng.normal()
            assert cpr(a * x + b, y) == pytest.approx(np.sign(a) * r, abs=1e-9)


class TestLandscape:
    def zeroed_trainer(self):
        rng = np.random.default_rng(9)
        t = make_trainer(4, (8,), rng)
        for w in t.actor.weights:
            w[:] = 0.0
        for b in t.actor.biases:
            b[:] = 0.0
        return t

    def test_zero_weight_trainer_uniform_zero(self):
        g = landscape_grid("rile_trainer", self.zeroed_trainer(), 8)
        assert np.all(g.values == 0.0)

    def test_zero_weight_disc_uniform_half(self):
        rng = np.random.default_rng(10)
        net = make_discriminator(2, 2, (8,), lr=1e-3, rng=rng)
        for w in net.params.weights:
            w[:] = 0.0
        for b in net.params.biases:
            b[:] = 0.0
        g = landscape_grid("gail_disc", net, (4, 6))
        assert g.values.shape == (6, 4)
        assert np.all(g.values == 0.5)

    def test_coarse_equals_subsampled_fine_at_shared_centers(self):
        # cell centers coincide exactly when the fine grid is a 3x (odd)
        # multiple of the coarse one: (i+0.5)/n == (3i+1.5)/(3n)
        rng = np.random.default_rng(11)
        t = make_trainer(4, (16,), rng)
        coarse = landscape_grid("rile_trainer", t, 8)
        fine = landscape_grid("rile_trainer", t, 24)
        sub = fine.values[1::3, 1::3]
        np.testing.assert_allclose(coarse.values, sub, rtol=0, atol=1e-12)

    def test_resolution_one_is_grid_center(self):
        rng = np.random.default_rng(12)
        t = make_trainer(4, (8,), rng)
        g = landscape_grid("rile_trainer", t, 1, action_probe="fixed_action")
        cx, cy = grid_centers(1, 1)
        assert cx[0] == 0.5 and cy[0] == 0.5
        assert g.values.shape == (1, 1)

    def test_max_over_actions_dominates_fixed(self):
        rng = np.random.default_rng(13)
        t = make_trainer(4, (8,), rng)
        gmax = landscape_grid("rile_trainer", t, 6, "max_over_actions")
        gfix = landscape_grid("rile_trainer", t, 6, "fixed_action", ACTION_FAN[0])
        assert np.all(gmax.values >= gfix.values - 1e-12)

    def test_grid_evaluation_is_pure(self):
        rng = np.random.default_rng(14)
        t = make_trainer(4, (8,), rng)
        before = params_to_flat(t.actor).copy()
        landscape_grid("rile_trainer", t, 16)
        assert np.array_equal(params_to_flat(t.actor), before)

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError, match="source"):
            landscape_grid("bogus", None, 4)

    def test_csv_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(15)
        t = make_trainer(4, (8,), rng)
        g = landscape_grid("rile_trainer", t, (5, 3))
        path = tmp_path / "grid.csv"
        save_grid_csv(g, path)
        g2 = load_grid_csv(path)
        assert g2.source == g.source and (g2.nx, g2.ny) == (g.nx, g.ny)
        assert np.array_equal(g2.values, g.values)


class _Still:
    def act(self, state):
        return np.zeros(2)


class TestEvaluatePolicy:
    def test_never_moving_policy_pays_living_cost(self):
        spec = MazeSpec()
        mean, stderr, goal_rate = evaluate_policy(spec, _Still(), episodes=3, seed=0)
        assert mean == pytest.approx(-0.001 * spec.max_steps, abs=1e-12)
        assert stderr == 0.0
        assert goal_rate == 0.0

    def test_scripted_expert_reaches_goal(self):
        spec = MazeSpec()
        ctrl = WaypointController(spec)
        mean, _, goal_rate = evaluate_policy(spec, ctrl, episodes=2, seed=1)
        assert mean >= 1.0 - 0.001 * spec.max_steps
        assert goal_rate == 1.0

    def test_deterministic_eval_repeatable(self):
        rng = np.random.default_rng(16)
        agent = make_student(2, 2, (8,), rng)
        spec = MazeSpec()
        r1 = evaluate_policy(spec, agent, episodes=4, deterministic=True, seed=5)
        r2 = evaluate_policy(spec, agent, episodes=4, deterministic=True, seed=5)
        assert r1 == r2

    def test_zero_episodes_rejected(self):
        with pytest.raises(ValueError):
            evaluate_policy(MazeSpec(), _Still(), episodes=0)

    @pytest.mark.parametrize("case", ["deterministic", "noise", "jitter", "stochastic",
                                      "scripted"])
    def test_identical_episodes_are_rolled_once(self, case, monkeypatch):
        # A deterministic student with no action noise from a fixed start
        # draws nothing, so its episodes are one episode, rolled once. Noise,
        # a jittered start, stochastic actions or a policy that is not a
        # student roll every episode. Either way the result equals a full
        # roll reduced as evaluate_policy reduces it.
        spec = MazeSpec(start_jitter=0.05) if case == "jitter" else MazeSpec()
        policy = (WaypointController(spec) if case == "scripted"
                  else make_student(2, 2, (8,), np.random.default_rng(17)))
        deterministic = case != "stochastic"
        noise = 0.1 if case == "noise" else 0.0
        episodes, seed = 10, 3
        original = metrics._run_episode
        calls = []

        def spy(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(metrics, "_run_episode", spy)
        result = evaluate_policy(spec, policy, episodes, deterministic, seed, noise)

        assert len(calls) == (1 if case == "deterministic" else episodes)
        rng = np.random.default_rng(seed)
        returns, reached = zip(*(original(spec, policy, deterministic, rng,
                                          seed * 100_003 + ep, noise)
                                 for ep in range(episodes)))
        returns = np.asarray(returns)
        assert result == (float(returns.mean()),
                          float(returns.std(ddof=1) / np.sqrt(episodes)),
                          sum(reached) / episodes)
