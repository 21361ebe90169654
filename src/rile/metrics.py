"""Reward-dynamics instrumentation and policy evaluation.

Three window metrics quantify how a learned reward function moves during
training: the 1-Wasserstein distance between consecutive windows of
visited-reward samples (RFDC), the mean absolute deviation of rewards on a
fixed probe set of expert pairs (FS-RFDC), and the Pearson correlation
between learned and environment-defined rewards inside a window (CPR).
A student is scored by its return and goal rate in the maze.

All operations here are pure: nothing is trained or mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agents import ActorCritic, student_act
from .envs import MazeSpec, env_reward, maze_reset, maze_step


def wasserstein1d(xs, ys) -> float:
    """1-Wasserstein distance between two empirical distributions.

    Equal sample counts reduce to the mean absolute difference of sorted
    samples; unequal counts integrate |F_x^-1 - F_y^-1| over the merged
    quantile grid.
    """
    xs = np.sort(np.asarray(xs, dtype=np.float64))
    ys = np.sort(np.asarray(ys, dtype=np.float64))
    if xs.size == 0 or ys.size == 0:
        raise ValueError("wasserstein1d needs non-empty samples")
    n, m = xs.size, ys.size
    if n == m:
        return float(np.mean(np.abs(xs - ys)))
    qs = np.union1d(np.arange(1, n) / n, np.arange(1, m) / m)
    edges = np.concatenate([[0.0], qs, [1.0]])
    widths = np.diff(edges)
    mids = (edges[:-1] + edges[1:]) / 2.0
    xq = xs[np.minimum((mids * n).astype(int), n - 1)]
    yq = ys[np.minimum((mids * m).astype(int), m - 1)]
    return float(np.sum(widths * np.abs(xq - yq)))


@dataclass
class MetricsWindow:
    """Reward samples gathered over one metric interval.

    learned and environment are paired per step; fixed_snapshot holds the
    learned reward evaluated on the run's fixed expert probe set at the
    window boundary.
    """

    index: int
    learned: np.ndarray
    environment: np.ndarray
    fixed_snapshot: np.ndarray

    def __post_init__(self):
        self.learned = np.asarray(self.learned, dtype=np.float64)
        self.environment = np.asarray(self.environment, dtype=np.float64)
        self.fixed_snapshot = np.asarray(self.fixed_snapshot, dtype=np.float64)
        if self.learned.shape != self.environment.shape:
            raise ValueError("learned and environment samples must be paired")


def rfdc(prev: MetricsWindow, curr: MetricsWindow) -> float:
    """Wasserstein distance between consecutive windows' learned rewards."""
    if curr.index != prev.index + 1:
        raise ValueError(f"windows must be consecutive, got {prev.index} -> {curr.index}")
    return wasserstein1d(prev.learned, curr.learned)


def fs_rfdc(prev_snapshot, curr_snapshot) -> float:
    """Mean absolute deviation between two probe-set reward snapshots."""
    a = np.asarray(prev_snapshot, dtype=np.float64)
    b = np.asarray(curr_snapshot, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("snapshots must have the same length")
    return float(np.mean(np.abs(b - a)))


def cpr(learned, environment) -> float:
    """Pearson correlation between learned and environment rewards.

    Undefined for constant input; reported as NaN (missing), never as 0.
    Constancy is tested on the values: rounding leaves a constant's deviations nonzero.
    """
    x = np.asarray(learned, dtype=np.float64)
    y = np.asarray(environment, dtype=np.float64)
    if x.shape != y.shape or x.size < 2:
        raise ValueError("cpr needs two equally sized samples of length >= 2")
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        return float("nan")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt(np.sum(xc**2) * np.sum(yc**2))
    return float(np.clip(np.sum(xc * yc) / denom, -1.0, 1.0))


def _run_episode(spec, student, rng, ep_seed, action_noise):
    """(undiscounted environment return, whether the goal was reached) of one
    episode of the student acting by its policy mean."""
    state = maze_reset(spec, ep_seed)
    total = 0.0
    for _ in range(spec.max_steps):
        action = student_act(student, state)
        if action_noise > 0:
            action = action + rng.normal(0.0, action_noise, size=np.shape(action))
        state, at_goal = maze_step(spec, state, action)
        total += env_reward(at_goal)
        if at_goal:
            return total, True
    return total, False


def evaluate_policy(spec: MazeSpec, student: ActorCritic, episodes: int, seed: int = 0,
                    action_noise: float = 0.0):
    """(mean undiscounted environment return, fraction of episodes that
    reach the goal) of the student acting by its policy mean, from one pass
    over the episodes.

    action_noise models a perturbed environment that corrupts executed
    actions. With no action noise from an unjittered start, the student
    draws nothing, so its episodes are all one episode: it is rolled once,
    and its return and goal flag are the result.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    rng = np.random.default_rng(seed)
    identical = action_noise <= 0 and spec.start_jitter <= 0
    rolled = [_run_episode(spec, student, rng, seed * 100_003 + ep, action_noise)
              for ep in range(1 if identical else episodes)]
    if identical:
        return float(rolled[0][0]), float(rolled[0][1])
    returns, reached = zip(*rolled)
    return float(np.mean(returns)), sum(reached) / episodes
