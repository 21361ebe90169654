"""Desk-scale environment and expert demonstrations.

A continuous 2-D obstacle maze on [0,1]^2 that rewards GOAL_REWARD at the
goal less LIVING_COST per step (env_reward), a scripted waypoint expert for
it, and the one table of the expert's transitions (s, a, s', episode end)
that every learner reads; an episode's last s' is the goal state it ends in.
MazeSpec holds both covariate shifts: start jitter, drawn by maze_reset, and
action noise, drawn by maze_step from the rng its caller passes.

Environments are value-semantic: reset/step take all state explicitly and
share nothing, so any number of rollouts can run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class MazeSpec:
    """Axis-aligned rectangular obstacles inside the unit square.

    Each obstacle is (xmin, ymin, xmax, ymax). Every maze's reward, used for
    evaluation and reward-correlation metrics, is env_reward: GOAL_REWARD on
    reaching the goal minus LIVING_COST per step. Its two covariate shifts are
    start_jitter, the radius of the start's disc, and action_noise, the
    standard deviation of the Gaussian noise on each executed action.
    """

    obstacles: list = field(default_factory=lambda: list(DEFAULT_OBSTACLES))
    start: tuple = (0.1, 0.9)
    goal: tuple = (0.9, 0.1)
    goal_radius: float = 0.08
    max_steps: int = 120
    step_size: float = 0.06
    start_jitter: float = 0.0
    action_noise: float = 0.0

    def __post_init__(self):
        for name, ok, rule in (("goal_radius", self.goal_radius > 0, "> 0"),
                               ("max_steps", self.max_steps >= 1, ">= 1"),
                               ("step_size", self.step_size > 0, "> 0"),  # < 0 inverts actions
                               ("start_jitter", self.start_jitter >= 0, ">= 0"),
                               ("action_noise", self.action_noise >= 0, ">= 0")):
            if not ok:
                raise ValueError(f"{name} must be {rule}")
        for name, p in (("start", self.start), ("goal", self.goal)):
            if point_in_obstacle(self, np.asarray(p, float)):
                raise ValueError(f"{name} position lies inside an obstacle")


GOAL_REWARD, LIVING_COST = 1.0, 0.001


def env_reward(at_goal: bool) -> float:
    return (GOAL_REWARD if at_goal else 0.0) - LIVING_COST


# Three rectangles forming an S-shaped corridor: one wall hanging from the
# top, one rising from the bottom, and a block closing the bottom of the
# middle passage. Start top-left, goal bottom-right.
DEFAULT_OBSTACLES = (
    (0.28, 0.35, 0.38, 1.00),
    (0.62, 0.00, 0.72, 0.65),
    (0.44, 0.00, 0.56, 0.10),
)


def point_in_obstacle(spec: MazeSpec, p) -> bool:
    """True when p is strictly inside some obstacle (faces count as outside)."""
    x, y = float(p[0]), float(p[1])
    for xmin, ymin, xmax, ymax in spec.obstacles:
        if xmin < x < xmax and ymin < y < ymax:
            return True
    return False


def maze_reset(spec: MazeSpec, rng=0) -> np.ndarray:
    """Fixed start position; optional jitter (disabled by default) resamples
    uniformly in a disc around the start until outside all obstacles,
    drawing from rng, a seed or a Generator (drawn from in place)."""
    start = np.asarray(spec.start, dtype=np.float64)
    if spec.start_jitter <= 0:
        return start.copy()
    rng = np.random.default_rng(rng)
    while True:
        angle = rng.uniform(0, 2 * np.pi)
        radius = spec.start_jitter * np.sqrt(rng.uniform())
        cand = start + radius * np.array([np.cos(angle), np.sin(angle)])
        cand = np.clip(cand, 0.0, 1.0)
        if not point_in_obstacle(spec, cand):
            return cand


def _segment_obstacle_entry(p, q, box):
    """Earliest t in [0,1] at which segment p->q penetrates the open box,
    or None. Touching a face without entering does not count."""
    xmin, ymin, xmax, ymax = box
    t0, t1 = 0.0, 1.0
    for axis, (lo, hi) in enumerate(((xmin, xmax), (ymin, ymax))):
        a, b = p[axis], q[axis]
        d = b - a
        if d == 0.0:
            if not (lo < a < hi):
                # parallel to this slab and outside (or on its face): no entry
                if a <= lo or a >= hi:
                    return None
            continue
        ta, tb = (lo - a) / d, (hi - a) / d
        if ta > tb:
            ta, tb = tb, ta
        t0, t1 = max(t0, ta), min(t1, tb)
        if t0 >= t1:
            return None
    # t0 < t1 means the open interior is actually crossed, not just touched
    return t0


def maze_step(spec: MazeSpec, state, action, rng=None):
    """One kinematic step: candidate = state + step_size * clamp(action),
    clipped to the unit square; motion stops at the first obstacle face hit.
    Given an rng, the executed action is action plus N(0, spec.action_noise)
    noise drawn from it before the clamp; with none, or no noise, nothing
    is drawn or added, as for the scripted expert.

    Returns (next_state, at_goal). Reaching the goal ends an episode; the
    step budget is the caller's, which owns episode time.
    """
    p = np.asarray(state, dtype=np.float64)
    a = np.asarray(action, dtype=np.float64)
    if rng is not None and spec.action_noise > 0:
        a = a + rng.normal(0.0, spec.action_noise, size=a.shape)
    q = np.clip(p + spec.step_size * np.clip(a, -1.0, 1.0), 0.0, 1.0)

    t_hit, box_hit = 1.0, None
    for box in spec.obstacles:
        t = _segment_obstacle_entry(p, q, box)
        if t is not None and t < t_hit:
            t_hit, box_hit = t, box
    if box_hit is None:
        nxt = q
    else:
        nxt = p + t_hit * (q - p)
        # pin the blocked coordinate exactly onto the face to avoid the
        # rounded point drifting into the interior
        xmin, ymin, xmax, ymax = box_hit
        for axis, (lo, hi) in enumerate(((xmin, xmax), (ymin, ymax))):
            for face in (lo, hi):
                if abs(nxt[axis] - face) < 1e-12:
                    nxt[axis] = face
    for box in spec.obstacles:  # rounding safety net: never end up inside
        xmin, ymin, xmax, ymax = box
        if xmin < nxt[0] < xmax and ymin < nxt[1] < ymax:
            gaps = [(nxt[0] - xmin, 0, xmin), (xmax - nxt[0], 0, xmax),
                    (nxt[1] - ymin, 1, ymin), (ymax - nxt[1], 1, ymax)]
            _, axis, face = min(gaps)
            nxt[axis] = face
    at_goal = bool(np.linalg.norm(nxt - np.asarray(spec.goal)) <= spec.goal_radius)
    return nxt, at_goal


class ExpertDataset:
    """The expert's transitions as one table, concatenated over episodes:
    states s, actions a, next states sp and end, which marks each episode's
    last row (its next state is the state the episode ends in).

    Built from (states [n + 1, ds], actions [n, da]) episodes, whose states
    run from the start to the state the last action reaches; episodes of no
    action add no row, and a dataset without a row is rejected.
    """

    def __init__(self, episodes):
        eps = [tuple(np.asarray(x, dtype=np.float64) for x in ep) for ep in episodes]
        for k, (s, a) in enumerate(eps):
            if s.ndim != 2 or a.ndim != 2 or len(s) != len(a) + 1:
                raise ValueError(f"episode {k}: 2-d states/actions aligned as n + 1/n rows")
            if (s.shape[1], a.shape[1]) != (eps[0][0].shape[1], eps[0][1].shape[1]):
                raise ValueError(f"episode {k}: dimension mismatch across episodes")
        eps = [(s, a) for s, a in eps if len(a)]
        if not eps:
            raise ValueError("dataset has no steps")
        self.s = np.concatenate([s[:-1] for s, _ in eps])
        self.a = np.concatenate([a for _, a in eps])
        self.sp = np.concatenate([s[1:] for s, _ in eps])
        self.end = np.zeros(len(self.s), dtype=bool)
        self.end[np.cumsum([len(a) for _, a in eps]) - 1] = True


DEFAULT_WAYPOINTS = (
    (0.10, 0.16),
    (0.50, 0.16),
    (0.50, 0.84),
    (0.86, 0.84),
    (0.90, 0.10),
)
WAYPOINT_SLACK = 0.04  # the scripted expert passes a waypoint once this close to it


def scripted_expert_episode(spec: MazeSpec, waypoints=None, rng=0):
    """One scripted demonstration, (states [n + 1], actions [n]), from
    maze_reset(spec, rng), whose last state is the one in the goal: the
    expert heads at each waypoint in turn, then at the goal, passing a
    waypoint once within WAYPOINT_SLACK of it, with its speed scaled down
    near the target so that it does not overshoot. Raises if the goal is
    not reached within max_steps."""
    targets = [np.asarray(w, float) for w in (waypoints or DEFAULT_WAYPOINTS)]
    targets.append(np.asarray(spec.goal, float))
    wp = 0
    state = maze_reset(spec, rng)
    states, actions = [], []
    for _ in range(spec.max_steps):
        while wp < len(targets) - 1 and np.linalg.norm(state - targets[wp]) <= WAYPOINT_SLACK:
            wp += 1
        delta = targets[wp] - state
        dist = np.linalg.norm(delta)
        speed = min(1.0, dist / spec.step_size)
        action = np.clip(delta / max(dist, 1e-12) * speed, -1.0, 1.0)
        states.append(state.copy())
        actions.append(action)
        state, at_goal = maze_step(spec, state, action)
        if at_goal:
            return np.asarray([*states, state]), np.asarray(actions)
    raise ValueError("scripted expert failed to reach the goal under this maze spec")


def generate_expert(spec: MazeSpec, episodes: int) -> ExpertDataset:
    """episodes scripted demonstrations, whose starts one fixed Generator
    draws in turn; every episode reaches the goal."""
    if episodes <= 0:
        raise ValueError("episode count must be positive")
    rng = np.random.default_rng(0)
    return ExpertDataset([scripted_expert_episode(spec, rng=rng) for _ in range(episodes)])
