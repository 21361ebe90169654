"""Reward-dynamics instrumentation and policy evaluation.

Three window metrics quantify how a learned reward function moves during
training: the 1-Wasserstein distance between consecutive windows of
visited-reward samples (RFDC), the mean absolute deviation of rewards on a
fixed probe set of expert pairs (FS-RFDC), and the Pearson correlation
between learned and environment-defined rewards inside a window (CPR).
A grid sampler renders any learned reward over the maze state space.

All operations here are pure: nothing is trained or mutated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .agents import StudentAgent, TrainerAgent, student_act, trainer_act_batch
from .discriminator import DiscriminatorNet, disc_output
from .envs import MazeSpec, maze_reset, maze_step
from .nets import mlp_forward


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
    """
    x = np.asarray(learned, dtype=np.float64)
    y = np.asarray(environment, dtype=np.float64)
    if x.shape != y.shape or x.size < 2:
        raise ValueError("cpr needs two equally sized samples of length >= 2")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt(np.sum(xc**2) * np.sum(yc**2))
    if denom == 0.0:
        return float("nan")
    return float(np.clip(np.sum(xc * yc) / denom, -1.0, 1.0))


LANDSCAPE_SOURCES = ("rile_trainer", "gail_disc", "airl_reward")

_FAN_ANGLES = np.arange(8) * (np.pi / 4.0)
ACTION_FAN = np.stack([np.cos(_FAN_ANGLES), np.sin(_FAN_ANGLES)], axis=1)


@dataclass
class LandscapeGrid:
    nx: int
    ny: int
    values: np.ndarray  # [ny, nx]
    source: str
    action_probe: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.ny, self.nx):
            raise ValueError("value matrix shape must match the resolution")
        if not np.isfinite(self.values).all():
            raise ValueError("landscape values must be finite")


def grid_centers(nx: int, ny: int):
    """Cell-center coordinates of an nx-by-ny grid over the unit square."""
    cx = (np.arange(nx) + 0.5) / nx
    cy = (np.arange(ny) + 0.5) / ny
    return cx, cy


def _reward_eval(source: str, nets, pairs: np.ndarray) -> np.ndarray:
    if source == "rile_trainer":
        return trainer_act_batch(nets, pairs)
    if source == "gail_disc":
        return disc_output(nets, pairs[:, :2], pairs[:, 2:])
    if source == "airl_reward":
        return mlp_forward(nets.reward, pairs)[:, 0]
    raise ValueError(f"unknown landscape source {source!r}")


def landscape_grid(source: str, nets, resolution,
                   action_probe: str = "max_over_actions",
                   fixed_action=None) -> LandscapeGrid:
    """Evaluates the designated learned reward at every grid-cell center.

    rile_trainer renders the trainer's deterministic action, gail_disc the
    discriminator output, airl_reward the learned reward head.
    max_over_actions maximizes over an 8-direction unit action fan;
    fixed_action evaluates a single probe action (default zero).
    """
    nx, ny = (resolution, resolution) if np.isscalar(resolution) else resolution
    if nx < 1 or ny < 1:
        raise ValueError("resolution must be at least 1x1")
    if action_probe not in ("max_over_actions", "fixed_action"):
        raise ValueError(f"unknown action probe {action_probe!r}")
    cx, cy = grid_centers(nx, ny)
    gx, gy = np.meshgrid(cx, cy)
    states = np.stack([gx.ravel(), gy.ravel()], axis=1)
    if action_probe == "fixed_action":
        a = np.zeros(2) if fixed_action is None else np.asarray(fixed_action, float)
        pairs = np.concatenate([states, np.tile(a, (len(states), 1))], axis=1)
        values = _reward_eval(source, nets, pairs)
    else:
        per_dir = []
        for a in ACTION_FAN:
            pairs = np.concatenate([states, np.tile(a, (len(states), 1))], axis=1)
            per_dir.append(_reward_eval(source, nets, pairs))
        values = np.max(per_dir, axis=0)
    return LandscapeGrid(nx, ny, values.reshape(ny, nx), source, action_probe)


def save_grid_csv(grid: LandscapeGrid, path) -> None:
    """CSV rows x,y,value at cell centers, preceded by a commented
    metadata header; floats use repr so the matrix round-trips exactly."""
    meta = {"nx": grid.nx, "ny": grid.ny, "source": grid.source,
            "action_probe": grid.action_probe}
    cx, cy = grid_centers(grid.nx, grid.ny)
    with open(path, "w") as f:
        f.write("# " + json.dumps(meta, separators=(",", ":")) + "\n")
        f.write("x,y,value\n")
        for j in range(grid.ny):
            for i in range(grid.nx):
                f.write(f"{float(cx[i])!r},{float(cy[j])!r},{float(grid.values[j, i])!r}\n")


def load_grid_csv(path) -> LandscapeGrid:
    with open(path) as f:
        lines = f.read().splitlines()
    if len(lines) < 2 or not lines[0].startswith("# "):
        raise ValueError("missing grid metadata header")
    meta = json.loads(lines[0][2:])
    nx, ny = meta["nx"], meta["ny"]
    values = np.empty((ny, nx))
    rows = lines[2:]
    if len(rows) != nx * ny:
        raise ValueError(f"expected {nx * ny} rows, found {len(rows)}")
    for k, row in enumerate(rows):
        _, _, v = row.split(",")
        values[k // nx, k % nx] = float(v)
    return LandscapeGrid(nx, ny, values, meta["source"], meta["action_probe"])


def _run_episode(spec, policy, deterministic, rng, ep_seed, action_noise):
    state = maze_reset(spec, rng_seed=ep_seed)
    if hasattr(policy, "reset"):
        policy.reset()
    total = 0.0
    reached = False
    for _ in range(spec.max_steps):
        if isinstance(policy, StudentAgent):
            mode = "deterministic" if deterministic else "stochastic"
            action = student_act(policy, state, mode, rng)
        else:
            action = policy.act(state)
        if action_noise > 0:
            action = action + rng.normal(0.0, action_noise, size=np.shape(action))
        state, done, at_goal = maze_step(spec, state, action)
        total += spec.env_reward(at_goal)
        if at_goal:
            reached = True
        if done:
            break
    return total, reached


def evaluate_policy(spec: MazeSpec, policy, episodes: int,
                    deterministic: bool = True, seed: int = 0,
                    action_noise: float = 0.0):
    """(mean undiscounted environment return, its standard error, fraction
    of episodes that reach the goal), from one pass over the episodes.

    policy is a StudentAgent or any object with act(state) (and optionally
    reset()) such as the scripted expert controller. action_noise models a
    perturbed environment that corrupts executed actions. A deterministic
    student with no action noise from an unjittered start draws nothing, so
    its episodes are all one episode: it is rolled once and counted
    episodes times.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    rng = np.random.default_rng(seed)
    identical = (isinstance(policy, StudentAgent) and deterministic
                 and action_noise <= 0 and spec.start_jitter <= 0)
    distinct = 1 if identical else episodes
    rolled = [_run_episode(spec, policy, deterministic, rng, seed * 100_003 + ep,
                           action_noise)
              for ep in range(distinct)]
    returns, reached = zip(*rolled * (episodes // distinct))
    returns = np.asarray(returns)
    stderr = float(returns.std(ddof=1) / np.sqrt(episodes)) if episodes > 1 else 0.0
    return float(returns.mean()), stderr, sum(reached) / episodes
