import itertools

import numpy as np
import pytest

from rile import metrics
from rile.envs import MazeSpec
from rile.agents import make_actor_critic
from rile.metrics import (
    MetricsWindow,
    cpr,
    evaluate_policy,
    fs_rfdc,
    rfdc,
    wasserstein1d,
)


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

    @pytest.mark.parametrize("n", [10, 100, 1_000, 10_000])
    def test_constant_living_cost_reported_missing(self, n):
        # a window in which no step reaches the goal pays -0.001 every step;
        # its deviations from the mean are rounding noise, not zeros
        learned = np.random.default_rng(n).normal(size=n)
        assert np.isnan(cpr(learned, np.full(n, -0.001)))

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


def _still():
    """A student whose actor weights are all zero: its policy mean, the
    action it is evaluated by, is zero."""
    student = make_actor_critic(2, 2, (8,), np.random.default_rng(0))
    student.actor.flat[:] = 0.0
    return student


class TestEvaluatePolicy:
    def test_never_moving_policy_pays_living_cost(self):
        spec = MazeSpec()
        mean, goal_rate = evaluate_policy(spec, _still(), episodes=3, seed=0)
        assert mean == pytest.approx(-0.001 * spec.max_steps, abs=1e-12)
        assert goal_rate == 0.0

    def test_deterministic_eval_repeatable(self):
        rng = np.random.default_rng(16)
        agent = make_actor_critic(2, 2, (8,), rng)
        spec = MazeSpec()
        r1 = evaluate_policy(spec, agent, episodes=4, seed=5)
        r2 = evaluate_policy(spec, agent, episodes=4, seed=5)
        assert r1 == r2

    def test_identical_episodes_give_the_one_episode_exactly(self):
        # ten copies of one return, reduced, came out at -0.12000000000000008
        # where one episode returns -0.12000000000000009
        spec = MazeSpec()
        student = make_actor_critic(2, 2, (64, 64), np.random.default_rng(0))
        one = evaluate_policy(spec, student, 1, seed=0)
        ten = evaluate_policy(spec, student, 10, seed=0)
        assert ten[0].hex() == one[0].hex()
        assert ten == one

    def test_zero_episodes_rejected(self):
        with pytest.raises(ValueError):
            evaluate_policy(MazeSpec(), _still(), episodes=0)

    @pytest.mark.parametrize("case", ["deterministic", "noise", "jitter"])
    def test_identical_episodes_are_rolled_once(self, case, monkeypatch):
        # A student with no action noise from a fixed start draws nothing,
        # so its episodes are one episode, rolled once and reported as it
        # is. Noise or a jittered start roll every episode, and the result
        # equals a full roll reduced as evaluate_policy reduces it.
        spec = MazeSpec(start_jitter=0.05) if case == "jitter" else MazeSpec()
        policy = make_actor_critic(2, 2, (8,), np.random.default_rng(17))
        noise = 0.1 if case == "noise" else 0.0
        episodes, seed = 10, 3
        original = metrics._run_episode
        calls = []

        def spy(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(metrics, "_run_episode", spy)
        result = evaluate_policy(spec, policy, episodes, seed, noise)

        assert len(calls) == (1 if case == "deterministic" else episodes)
        rng = np.random.default_rng(seed)
        returns, reached = zip(*(original(spec, policy, rng, seed * 100_003 + ep, noise)
                                 for ep in range(episodes)))
        if case == "deterministic":
            assert len(set(returns)) == 1 and len(set(reached)) == 1
            assert result == (returns[0], float(reached[0]))
            return
        assert result == (float(np.asarray(returns).mean()), sum(reached) / episodes)
