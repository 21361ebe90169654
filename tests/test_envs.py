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
