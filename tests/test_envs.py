import numpy as np
import pytest

from rile.envs import (
    DEFAULT_WAYPOINTS,
    ExpertDataset,
    MazeSpec,
    dataset_to_bytes,
    generate_expert,
    inject_noise,
    load_expert,
    maze_reset,
    maze_step,
    point_in_obstacle,
    save_expert,
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

    def test_start_inside_obstacle_rejected(self):
        with pytest.raises(ValueError, match="start"):
            MazeSpec(start=(0.3, 0.5))


class TestMazeStep:
    def test_null_action(self):
        spec = MazeSpec()
        s = maze_reset(spec)
        nxt, done, at_goal = maze_step(spec, s, [0.0, 0.0])
        assert np.array_equal(nxt, s)
        assert not done and not at_goal

    def test_goal_predicate(self):
        spec = MazeSpec()
        s = np.array([0.9, 0.1 + spec.goal_radius + 0.02])
        nxt, done, at_goal = maze_step(spec, s, [0.0, -1.0])
        assert at_goal and done

    def test_straight_path_into_obstacle_face(self):
        # Obstacle face at x=0.28 (left face of the top wall): approach head-on.
        spec = MazeSpec()
        s = np.array([0.25, 0.7])
        nxt, _, _ = maze_step(spec, s, [1.0, 0.0])
        assert abs(nxt[0] - 0.28) <= 1e-9
        assert nxt[1] == 0.7
        assert not point_in_obstacle(spec, nxt)

    def test_oblique_collision_lands_on_face(self):
        spec = MazeSpec(step_size=0.2)
        s = np.array([0.25, 0.50])
        a = np.array([1.0, 0.5])
        nxt, _, _ = maze_step(spec, s, a)
        # entry at x=0.28: t = 0.03/0.2, y = 0.5 + t*0.1
        assert abs(nxt[0] - 0.28) <= 1e-9
        assert nxt[1] == pytest.approx(0.5 + (0.03 / 0.2) * 0.1, abs=1e-9)

    def test_actions_clamped_to_unit_box(self):
        spec = MazeSpec()
        s = np.array([0.5, 0.9])
        big, _, _ = maze_step(spec, s, [0.0, 100.0])
        one, _, _ = maze_step(spec, s, [0.0, 1.0])
        assert np.array_equal(big, one)

    def test_clipped_to_unit_square(self):
        spec = MazeSpec()
        nxt, _, _ = maze_step(spec, [0.02, 0.9], [-1.0, 0.0])
        assert nxt[0] == 0.0

    def test_grazing_along_face_allowed(self):
        spec = MazeSpec()
        s = np.array([0.28, 0.5])  # exactly on the left face of the top wall
        nxt, _, _ = maze_step(spec, s, [0.0, 1.0])
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
            s, done, _ = maze_step(spec, s, a)
            assert 0.0 <= s[0] <= 1.0 and 0.0 <= s[1] <= 1.0
            assert not point_in_obstacle(spec, s)
            if done or i % 500 == 499:
                s = maze_reset(spec)

    def test_step_determinism(self):
        spec = MazeSpec()
        s = np.array([0.45, 0.33])
        a = np.array([0.3, -0.7])
        n1 = maze_step(spec, s, a)[0]
        n2 = maze_step(spec, s, a)[0]
        assert np.array_equal(n1, n2)


class TestExpertIO:
    def test_empty_dataset_round_trips(self, tmp_path):
        d = ExpertDataset([], env_id="maze")
        path = tmp_path / "e.jsonl"
        save_expert(d, path)
        with open(path) as f:
            lines = f.read().splitlines()
        assert len(lines) == 1  # header only
        d2 = load_expert(path)
        assert d2.n_episodes == 0 and d2.env_id == "maze"

    def test_single_episode_format_contract(self, tmp_path):
        import json

        s = np.array([[0.0, 0.1], [0.2, 0.3], [0.4, 0.5]])
        a = np.array([[1.0, -1.0], [0.5, 0.5], [0.0, 0.0]])
        path = tmp_path / "e.jsonl"
        save_expert(ExpertDataset([(s, a)]), path)
        with open(path) as f:
            lines = f.read().splitlines()
        assert len(lines) == 4
        for i, raw in enumerate(lines[1:]):
            rec = json.loads(raw)
            assert rec["ep"] == 0 and rec["t"] == i

    def test_large_round_trip_hash_identical(self, tmp_path):
        rng = np.random.default_rng(77)
        eps = []
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            eps.append((rng.normal(size=(n, 2)), rng.uniform(-1, 1, size=(n, 2))))
        d = ExpertDataset(eps)
        path = tmp_path / "big.jsonl"
        save_expert(d, path)
        d2 = load_expert(path)
        assert d2.content_hash() == d.content_hash()
        assert d2.n_episodes == 1000

    def test_malformed_record_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = dataset_to_bytes(ExpertDataset([(np.zeros((2, 2)), np.zeros((2, 2)))]))
        lines = good.decode().splitlines()
        lines[2] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 3"):
            load_expert(path)

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = dataset_to_bytes(ExpertDataset([(np.zeros((2, 2)), np.zeros((2, 2)))]))
        lines = good.decode().splitlines()
        lines[2] = '{"ep":0,"t":1,"s":[0.0,0.0,0.0],"a":[0.0,0.0]}'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            load_expert(path)


class TestInjectNoise:
    def make(self):
        rng = np.random.default_rng(5)
        return ExpertDataset([(rng.normal(size=(100, 2)), rng.uniform(-1, 1, (100, 2)))
                              for _ in range(60)])

    def test_sigma_zero_unchanged(self):
        d = self.make()
        d2 = inject_noise(d, 0.0, "action", rng_seed=3)
        assert d2.content_hash() == d.content_hash()

    def test_action_noise_variance(self):
        d = self.make()
        d2 = inject_noise(d, 0.5, "action", rng_seed=3)
        diffs = np.concatenate([a2 - a for (_, a), (_, a2) in zip(d.episodes, d2.episodes)])
        assert diffs.size >= 10_000
        var = diffs.ravel().var()
        assert abs(var - 0.25) <= 0.025
        # unbiasedness: mean within 3*sigma/sqrt(N)
        assert abs(diffs.mean()) <= 3 * 0.5 / np.sqrt(diffs.size)

    def test_state_target_leaves_actions_bitwise(self):
        d = self.make()
        d2 = inject_noise(d, 0.3, "state", rng_seed=9)
        for (s, a), (s2, a2) in zip(d.episodes, d2.episodes):
            assert np.array_equal(a, a2)
            assert not np.array_equal(s, s2)

    def test_deterministic_per_seed(self):
        d = self.make()
        h1 = inject_noise(d, 0.2, "action", rng_seed=11).content_hash()
        h2 = inject_noise(d, 0.2, "action", rng_seed=11).content_hash()
        h3 = inject_noise(d, 0.2, "action", rng_seed=12).content_hash()
        assert h1 == h2 and h1 != h3

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            inject_noise(self.make(), -0.1, "action", 0)


class TestScriptedExpert:
    def test_reaches_goal(self):
        spec = MazeSpec()
        states, actions = scripted_expert_episode(spec)
        assert len(states) == len(actions)
        assert len(states) < spec.max_steps

    def test_replay_open_loop_reaches_goal(self):
        spec = MazeSpec()
        d = generate_expert(spec, episodes=3)
        for s_arr, a_arr in d.episodes:
            state = maze_reset(spec)
            at_goal = False
            for a in a_arr:
                state, done, at_goal = maze_step(spec, state, a)
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
        s, a, nxt, done = d.transitions()
        assert np.array_equal(nxt[:-1], s[1:])
        assert done[-1] and not done[:-1].any()
