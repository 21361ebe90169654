import hashlib

import numpy as np
import pytest

from rile.envs import (
    DEFAULT_WAYPOINTS,
    ExpertDataset,
    MazeSpec,
    generate_expert,
    maze_reset,
    maze_step,
    point_in_obstacle,
    scripted_expert_episode,
)


class TestMazeReset:
    def test_default_start(self):
        assert np.array_equal(maze_reset(MazeSpec(), 0), [0.1, 0.9])

    def test_no_jitter_is_seed_independent(self):
        spec = MazeSpec()
        assert np.array_equal(maze_reset(spec, 1), maze_reset(spec, 999))

    def test_jitter_stays_near_start_and_outside_obstacles(self):
        spec = MazeSpec(start_jitter=0.05)
        start = np.asarray(spec.start)
        for seed in range(1000):
            s = maze_reset(spec, seed)
            assert np.linalg.norm(s - start) <= 0.05 + 1e-12
            assert not point_in_obstacle(spec, s)

    def test_a_generator_is_drawn_from_in_place(self):
        # a Generator draws as its seed would, and each reset draws anew
        spec = MazeSpec(start_jitter=0.05)
        rng = np.random.default_rng(5)
        first = maze_reset(spec, rng)
        assert np.array_equal(first, maze_reset(spec, 5))
        assert not np.array_equal(maze_reset(spec, rng), first)

    def test_start_inside_obstacle_rejected(self):
        with pytest.raises(ValueError, match="start"):
            MazeSpec(start=(0.3, 0.5))


class TestMazeSpec:
    # Each fails at a spec that would run silently: no step, no motion, every
    # action inverted, or a negative radius or noise scale.
    @pytest.mark.parametrize("field,value", [
        ("max_steps", 0), ("step_size", 0.0), ("step_size", -0.06),
        ("start_jitter", -0.1), ("action_noise", -0.1)])
    def test_out_of_range_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            MazeSpec(**{field: value})


class TestActionNoise:
    STATES = [(0.1, 0.9), (0.5, 0.5), (0.33, 0.2), (0.95, 0.05), (0.27, 0.5)]
    ACTIONS = [(0.3, -0.7), (0.99, 0.99), (-1.0, 1.0), (0.0, 0.0), (1.0, 0.2)]

    def test_the_maze_adds_the_noise_before_its_clamp(self):
        # uniform states, some in or at a wall, and actions at most 0.1 from
        # the box, so that the noise pushes many of them past it
        noisy, clean = MazeSpec(action_noise=0.2), MazeSpec()
        rng, same, draw = (np.random.default_rng(seed) for seed in (4, 4, 5))
        past_the_box = 0
        for _ in range(200):
            s, a = draw.uniform(0, 1, 2), draw.uniform(-1.1, 1.1, 2)
            shifted = a + same.normal(0.0, 0.2, size=2)
            got, want = maze_step(noisy, s, a, rng), maze_step(clean, s, shifted)
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]
            past_the_box += np.abs(shifted).max() > 1
        assert past_the_box > 20

    def test_without_an_rng_a_noisy_maze_steps_like_a_clean_one(self):
        noisy, clean = MazeSpec(action_noise=0.2), MazeSpec()
        for s, a in zip(self.STATES, self.ACTIONS):
            got, want = maze_step(noisy, s, a), maze_step(clean, s, a)
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]

    def test_zero_noise_draws_nothing(self):
        rng = np.random.default_rng(4)
        maze_step(MazeSpec(), (0.5, 0.5), (0.3, 0.3), rng)
        assert rng.uniform() == np.random.default_rng(4).uniform()

    def test_the_scripted_expert_is_noise_free(self):
        noisy = generate_expert(MazeSpec(action_noise=0.2), 2)
        clean = generate_expert(MazeSpec(), 2)
        for name in ("s", "a", "sp", "end"):
            assert getattr(noisy, name).tobytes() == getattr(clean, name).tobytes()


class TestMazeStep:
    def test_null_action(self):
        spec = MazeSpec()
        s = maze_reset(spec)
        nxt, at_goal = maze_step(spec, s, [0.0, 0.0])
        assert np.array_equal(nxt, s)
        assert not at_goal

    def test_goal_predicate(self):
        spec = MazeSpec()
        s = np.array([0.9, 0.1 + spec.goal_radius + 0.02])
        nxt, at_goal = maze_step(spec, s, [0.0, -1.0])
        assert at_goal

    def test_straight_path_into_obstacle_face(self):
        # Obstacle face at x=0.28 (left face of the top wall): approach head-on.
        spec = MazeSpec()
        s = np.array([0.25, 0.7])
        nxt, _ = maze_step(spec, s, [1.0, 0.0])
        assert abs(nxt[0] - 0.28) <= 1e-9
        assert nxt[1] == 0.7
        assert not point_in_obstacle(spec, nxt)

    def test_oblique_collision_lands_on_face(self):
        spec = MazeSpec(step_size=0.2)
        s = np.array([0.25, 0.50])
        a = np.array([1.0, 0.5])
        nxt, _ = maze_step(spec, s, a)
        # entry at x=0.28: t = 0.03/0.2, y = 0.5 + t*0.1
        assert abs(nxt[0] - 0.28) <= 1e-9
        assert nxt[1] == pytest.approx(0.5 + (0.03 / 0.2) * 0.1, abs=1e-9)

    def test_actions_clamped_to_unit_box(self):
        spec = MazeSpec()
        s = np.array([0.5, 0.9])
        big, _ = maze_step(spec, s, [0.0, 100.0])
        one, _ = maze_step(spec, s, [0.0, 1.0])
        assert np.array_equal(big, one)

    def test_clipped_to_unit_square(self):
        spec = MazeSpec()
        nxt, _ = maze_step(spec, [0.02, 0.9], [-1.0, 0.0])
        assert nxt[0] == 0.0

    def test_grazing_along_face_allowed(self):
        spec = MazeSpec()
        s = np.array([0.28, 0.5])  # exactly on the left face of the top wall
        nxt, _ = maze_step(spec, s, [0.0, 1.0])
        assert nxt[0] == 0.28
        assert nxt[1] > 0.5
        assert not point_in_obstacle(spec, nxt)

    def test_containment_fuzz(self):
        # 1e5 random steps from random reachable states never end inside.
        spec = MazeSpec()
        rng = np.random.default_rng(12345)
        s = maze_reset(spec)
        for i in range(100_000):
            a = rng.uniform(-1, 1, size=2)
            s, at_goal = maze_step(spec, s, a)
            assert 0.0 <= s[0] <= 1.0 and 0.0 <= s[1] <= 1.0
            assert not point_in_obstacle(spec, s)
            if at_goal or i % 500 == 499:
                s = maze_reset(spec)

    def test_step_determinism(self):
        spec = MazeSpec()
        s = np.array([0.45, 0.33])
        a = np.array([0.3, -0.7])
        n1 = maze_step(spec, s, a)[0]
        n2 = maze_step(spec, s, a)[0]
        assert np.array_equal(n1, n2)


class TestScriptedExpert:
    def test_reaches_goal(self):
        spec = MazeSpec()
        states, actions = scripted_expert_episode(spec)
        assert len(states) == len(actions) + 1
        assert len(actions) < spec.max_steps
        assert np.linalg.norm(states[-1] - np.asarray(spec.goal)) <= spec.goal_radius

    def test_replay_open_loop_reaches_goal(self):
        spec = MazeSpec()
        d = generate_expert(spec, episodes=3)
        episodes = np.split(d.a, np.flatnonzero(d.end)[:-1] + 1)
        assert len(episodes) == 3
        for a_arr in episodes:
            state = maze_reset(spec)
            at_goal = False
            for a in a_arr:
                state, at_goal = maze_step(spec, state, a)
            assert at_goal
            assert np.linalg.norm(state - np.asarray(spec.goal)) <= spec.goal_radius

    def test_zero_episodes_rejected(self):
        with pytest.raises(ValueError):
            generate_expert(MazeSpec(), 0)

    def test_trajectory_stays_legal(self):
        spec = MazeSpec()
        states, actions = scripted_expert_episode(spec)
        for s in states:
            assert not point_in_obstacle(spec, s)
        assert np.abs(actions).max() <= 1.0 + 1e-12

    def test_transitions_pairwise(self):
        d = generate_expert(MazeSpec(), episodes=1)
        assert np.array_equal(d.sp[:-1], d.s[1:])
        assert d.end[-1] and not d.end[:-1].any()

    def test_jittered_demonstrations_start_at_distinct_points(self):
        # one fixed Generator draws every episode's start in turn
        spec = MazeSpec(start_jitter=0.05)
        d = generate_expert(spec, 4)
        starts = d.s[np.r_[0, np.flatnonzero(d.end)[:-1] + 1]]
        assert len({s.tobytes() for s in starts}) == 4
        for s in starts:
            assert np.linalg.norm(s - spec.start) <= 0.05 + 1e-12
        again = generate_expert(spec, 4)
        assert all(np.array_equal(getattr(d, c), getattr(again, c))
                   for c in ("s", "a", "sp", "end"))

    def test_without_jitter_the_table_is_pinned(self):
        # no start is drawn: the table is four copies of the episode from
        # spec.start, whose bytes the digest pins
        d = generate_expert(MazeSpec(), 4)
        digest = hashlib.sha256(b"".join(np.ascontiguousarray(x).tobytes()
                                         for x in (d.s, d.a, d.sp, d.end))).hexdigest()
        assert digest[:16] == "d86703873582536d"

    def test_last_row_steps_into_the_goal(self):
        # each episode's last row is the transition that enters the goal
        spec = MazeSpec()
        d = generate_expert(spec, episodes=2)
        for s, a, sp in zip(d.s[d.end], d.a[d.end], d.sp[d.end]):
            nxt, at_goal = maze_step(spec, s, a)
            assert np.array_equal(sp, nxt) and at_goal


def _episode(n, ds=2, da=2, start=0.0):
    """(states [n + 1], actions [n]) of n steps whose values count up from
    start."""
    s = start + np.arange((n + 1) * ds, dtype=float).reshape(n + 1, ds)
    return s, -1.0 - s[:-1, :1].repeat(da, axis=1)


class TestExpertDataset:
    @pytest.mark.parametrize("episodes,match", [
        ([], "no steps"),
        ([_episode(0), _episode(0)], "no steps"),
        ([(np.zeros(4), np.zeros((3, 2)))], "episode 0: .*2-d"),
        ([_episode(2), (np.zeros((3, 2)), np.zeros((3, 2)))], "episode 1: .*aligned"),
        ([_episode(2), _episode(2, ds=3)], "episode 1: dimension mismatch"),
        ([_episode(2), _episode(0, da=1)], "episode 1: dimension mismatch")])
    def test_rejected(self, episodes, match):
        with pytest.raises(ValueError, match=match):
            ExpertDataset(episodes)

    def test_ragged_episodes_make_one_table(self):
        # episodes of 3, 0 and 2 steps: five rows, the empty episode adds none
        (s0, a0), (s2, a2) = _episode(3), _episode(2, start=100.0)
        d = ExpertDataset([(s0.tolist(), a0.tolist()), _episode(0), (s2, a2)])
        assert np.array_equal(d.s, [[0, 1], [2, 3], [4, 5], [100, 101], [102, 103]])
        assert np.array_equal(d.a, [[-1, -1], [-3, -3], [-5, -5], [-101, -101],
                                    [-103, -103]])
        # the next state, at an episode's end the state the episode ends in
        assert np.array_equal(d.sp, [[2, 3], [4, 5], [6, 7], [102, 103], [104, 105]])
        assert d.end.tolist() == [False, False, True, False, True]
        assert all(x.dtype == np.float64 for x in (d.s, d.a, d.sp))
