"""Desk-scale environment and expert demonstrations.

A continuous 2-D obstacle maze on [0,1]^2, a scripted waypoint expert for
it, and the dataset that holds the expert's (state, action) episodes.

Environments are value-semantic: reset/step take all state explicitly and
share nothing, so any number of rollouts can run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class MazeSpec:
    """Axis-aligned rectangular obstacles inside the unit square.

    Each obstacle is (xmin, ymin, xmax, ymax). The environment-defined
    reward used for evaluation and reward-correlation metrics is
    goal_reward on reaching the goal minus living_cost per step.
    """

    obstacles: list = field(default_factory=lambda: list(DEFAULT_OBSTACLES))
    start: tuple = (0.1, 0.9)
    goal: tuple = (0.9, 0.1)
    goal_radius: float = 0.08
    max_steps: int = 120
    step_size: float = 0.06
    start_jitter: float = 0.0
    goal_reward: float = 1.0
    living_cost: float = 0.001

    def __post_init__(self):
        if self.goal_radius <= 0:
            raise ValueError("goal radius must be positive")
        for name, p in (("start", self.start), ("goal", self.goal)):
            if point_in_obstacle(self, np.asarray(p, float)):
                raise ValueError(f"{name} position lies inside an obstacle")

    def env_reward(self, at_goal: bool) -> float:
        return (self.goal_reward if at_goal else 0.0) - self.living_cost


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


def maze_reset(spec: MazeSpec, rng_seed: int = 0) -> np.ndarray:
    """Fixed start position; optional jitter (disabled by default) resamples
    uniformly in a disc around the start until outside all obstacles."""
    start = np.asarray(spec.start, dtype=np.float64)
    if spec.start_jitter <= 0:
        return start.copy()
    rng = np.random.default_rng(rng_seed)
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


def maze_step(spec: MazeSpec, state, action):
    """One kinematic step: candidate = state + step_size * clamp(action),
    clipped to the unit square; motion stops at the first obstacle face hit.

    Returns (next_state, done, at_goal); done means at_goal here (the step
    budget is tracked by the caller, which owns episode time).
    """
    p = np.asarray(state, dtype=np.float64)
    a = np.clip(np.asarray(action, dtype=np.float64), -1.0, 1.0)
    q = np.clip(p + spec.step_size * a, 0.0, 1.0)

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
    return nxt, at_goal, at_goal


@dataclass
class ExpertDataset:
    """Ordered (state, action) episodes.

    episodes is a list of (states [n, ds], actions [n, da]) array pairs.
    """

    episodes: list

    def __post_init__(self):
        ds, da = None, None
        for k, (s, a) in enumerate(self.episodes):
            s, a = np.asarray(s, float), np.asarray(a, float)
            if s.ndim != 2 or a.ndim != 2 or len(s) != len(a):
                raise ValueError(f"episode {k}: states/actions must be aligned 2-d arrays")
            ds = s.shape[1] if ds is None else ds
            da = a.shape[1] if da is None else da
            if s.shape[1] != ds or a.shape[1] != da:
                raise ValueError(f"episode {k}: dimension mismatch across episodes")
            self.episodes[k] = (s.astype(np.float64), a.astype(np.float64))

    @property
    def n_steps(self) -> int:
        return sum(len(s) for s, _ in self.episodes)

    @property
    def state_dim(self):
        return self.episodes[0][0].shape[1] if self.episodes else None

    @property
    def action_dim(self):
        return self.episodes[0][1].shape[1] if self.episodes else None

    def transitions(self):
        """(s, a, s', done) rows built pairwise within each episode.

        The last step of an episode is marked done; its next state repeats
        the current state (never used by a bootstrapped target).
        """
        ss, aa, nn, dd = [], [], [], []
        for s, a in self.episodes:
            n = len(s)
            if n == 0:
                continue
            nxt = np.vstack([s[1:], s[-1:]])
            done = np.zeros(n, dtype=bool)
            done[-1] = True
            ss.append(s)
            aa.append(a)
            nn.append(nxt)
            dd.append(done)
        if not ss:
            raise ValueError("dataset has no steps")
        return np.concatenate(ss), np.concatenate(aa), np.concatenate(nn), np.concatenate(dd)


DEFAULT_WAYPOINTS = (
    (0.10, 0.16),
    (0.50, 0.16),
    (0.50, 0.84),
    (0.86, 0.84),
    (0.90, 0.10),
)


class WaypointController:
    """Waypoint-following policy: heads at the active waypoint with speed
    scaled down near it so the agent does not overshoot."""

    def __init__(self, spec: MazeSpec, waypoints=None, slack: float = 0.04):
        self.spec = spec
        self.waypoints = [np.asarray(w, float) for w in (waypoints or DEFAULT_WAYPOINTS)]
        self.waypoints.append(np.asarray(spec.goal, float))
        self.slack = slack
        self.wp = 0

    def reset(self):
        self.wp = 0

    def act(self, state) -> np.ndarray:
        state = np.asarray(state, float)
        while (self.wp < len(self.waypoints) - 1
               and np.linalg.norm(state - self.waypoints[self.wp]) <= self.slack):
            self.wp += 1
        delta = self.waypoints[self.wp] - state
        dist = np.linalg.norm(delta)
        direction = delta / max(dist, 1e-12)
        speed = min(1.0, dist / self.spec.step_size)
        return np.clip(direction * speed, -1.0, 1.0)


def scripted_expert_episode(spec: MazeSpec, waypoints=None, slack: float = 0.04):
    """Runs the waypoint controller once and returns (states, actions).
    Raises if the goal is not reached within max_steps."""
    ctrl = WaypointController(spec, waypoints, slack)
    state = maze_reset(spec)
    states, actions = [], []
    for _ in range(spec.max_steps):
        action = ctrl.act(state)
        states.append(state.copy())
        actions.append(action)
        state, done, at_goal = maze_step(spec, state, action)
        if at_goal:
            return np.asarray(states), np.asarray(actions)
    raise ValueError("scripted controller failed to reach the goal under this maze spec")


def generate_expert(spec: MazeSpec, episodes: int) -> ExpertDataset:
    """episodes scripted demonstrations; every episode reaches the goal."""
    if episodes <= 0:
        raise ValueError("episode count must be positive")
    eps = [scripted_expert_episode(spec) for _ in range(episodes)]
    return ExpertDataset(eps)
