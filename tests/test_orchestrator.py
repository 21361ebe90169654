import json
import os
import re

import numpy as np
import pytest

from rile import baselines, nets, orchestrator
from rile.agents import make_actor_critic
from rile.baselines import make_airl_heads
from rile.envs import MazeSpec, generate_expert, point_in_obstacle
from rile.metrics import evaluate_policy
from rile.nets import load_mlp, mlp_forward, mlp_to_bytes, save_mlp
from rile.orchestrator import RunAborted, RunConfig, run_training

EXPERT = generate_expert(MazeSpec(), 2)
OBS_DIM = EXPERT.s.shape[1] + EXPERT.a.shape[1]

# Tiny nets, buffers and batches; 12-step episodes so that rile_on collects
# many short rollouts, and 400 steps so that every algorithm writes
# diagnostics rows of its updates (one per 100 steps).
TINY = dict(
    env=MazeSpec(max_steps=12),
    student_hidden=(8, 8), trainer_hidden=(8, 8), disc_hidden=(8, 8),
    student_buffer=512, trainer_buffer=512, disc_buffer=512,
    student_batch=16, trainer_batch=16, disc_batch=8,
    total_steps=400, warmup_steps=50, eval_every=200, eval_episodes=2, bc_epochs=3,
)


def _trained_nets(artifacts):
    nets = [artifacts.student.actor, artifacts.student.critic,
            artifacts.student.critic_target]
    if artifacts.trainer is not None:
        nets += [artifacts.trainer.actor, artifacts.trainer.critic,
                 artifacts.trainer.critic_target]
    if artifacts.disc is not None:
        nets.append(artifacts.disc.params)
    if artifacts.airl is not None:
        nets += [artifacts.airl.reward, artifacts.airl.potential]
    return [mlp_to_bytes(p) for p in nets]


@pytest.mark.parametrize("algorithm", ["rile_off", "rile_on", "gail", "airl", "bc"])
def test_same_seed_runs_are_bit_identical(algorithm):
    cfg = RunConfig(algorithm=algorithm, seed=7, **TINY)
    first = run_training(cfg, EXPERT)
    second = run_training(cfg, EXPERT)

    # Both runs trained: every algorithm logs at least one update row.
    assert any(k in row for row in first.diagnostics_rows
               for k in ("disc_loss", "train_loss"))
    assert _trained_nets(first) == _trained_nets(second)
    assert first.diagnostics_rows == second.diagnostics_rows
    assert first.metrics_rows == second.metrics_rows
    # the last row is the final eval, at the last step
    assert first.metrics_rows[-1]["step"] == first.steps_run


@pytest.mark.parametrize("algorithm,kind", [
    ("rile_off", "trainer"), ("rile_on", "trainer"), ("rile_off", "airl")])
def test_frozen_reward_trains_only_the_student(algorithm, kind, tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    if kind == "trainer":
        net = make_actor_critic(4, 1, TINY["trainer_hidden"], rng).actor
    else:
        net = make_airl_heads(2, 2, TINY["disc_hidden"], 1e-3, 0.99, rng).reward
    path = str(tmp_path / "reward.mlp")
    save_mlp(net, path)
    frozen_bytes = mlp_to_bytes(net)

    # Record the frozen net's bytes every time it scores student rows.
    seen = []
    original = orchestrator._RewardPathway.student_rewards

    def spy(pathway, *args):
        seen.append(mlp_to_bytes(pathway.frozen))
        return original(pathway, *args)

    monkeypatch.setattr(orchestrator._RewardPathway, "student_rewards", spy)
    cfg = RunConfig(algorithm=algorithm, seed=5, frozen_reward=path, **TINY)
    artifacts = run_training(cfg, EXPERT, str(tmp_path / "run"))

    assert artifacts.steps_run == cfg.total_steps
    assert (artifacts.trainer, artifacts.disc, artifacts.airl) == (None, None, None)
    assert os.listdir(tmp_path / "run" / "step-final") == ["student"]
    start = load_mlp(str(tmp_path / "run" / "step-0" / "student" / "actor.mlp"))
    assert mlp_to_bytes(start) != mlp_to_bytes(artifacts.student.actor)
    assert seen and all(b == frozen_bytes for b in seen)


@pytest.mark.parametrize("dims", [
    [2, 8, 1],   # an AIRL potential net: states only
    [2, 8, 4],   # a student actor: states only, two actions
    [4, 8, 3]],  # [s, a] rows, but neither a trainer actor's width nor a reward's
    ids=["potential", "student", "width3"])
def test_frozen_reward_of_the_wrong_shape_rejected_before_the_run(dims, tmp_path):
    path = str(tmp_path / "reward.mlp")
    save_mlp(nets.mlp_init(dims, np.random.default_rng(0)), path)
    cfg = RunConfig(algorithm="rile_off", seed=5, frozen_reward=path, **TINY)
    run_dir = tmp_path / "run"
    with pytest.raises(ValueError, match=r"frozen_reward net maps .* -> 2 \(a trainer "
                                         r"actor\) or 1 \(an AIRL reward net\)"):
        run_training(cfg, EXPERT, str(run_dir))
    assert not run_dir.exists()


def _fail_the_third_student_update(monkeypatch):
    original = orchestrator.student_update
    calls = []

    def failing(*args):
        calls.append(1)
        if len(calls) == 3:
            raise ValueError("forced")
        return original(*args)

    monkeypatch.setattr(orchestrator, "student_update", failing)


@pytest.mark.parametrize("algorithm", ["rile_off", "rile_on"])
def test_error_in_an_update_aborts_with_a_checkpoint(algorithm, tmp_path, monkeypatch):
    _fail_the_third_student_update(monkeypatch)
    cfg = RunConfig(algorithm=algorithm, seed=5, **TINY)
    with pytest.raises(RunAborted, match="forced") as info:
        run_training(cfg, EXPERT, str(tmp_path))

    step = int(re.search(r"at step (\d+)", str(info.value)).group(1))
    aborts = [d for d in os.listdir(tmp_path) if d.endswith("-abort")]
    assert aborts == [f"step-{step}-abort"]
    assert os.path.isfile(tmp_path / aborts[0] / "student" / "actor.mlp")
    if algorithm == "rile_off":
        # updates run at multiples of update_every (4) past the 50-step
        # warm-up: steps 52, 56 and 60
        assert step == 60


@pytest.mark.parametrize("algorithm", ["rile_off", "rile_on"])
def test_early_stop_closes_the_full_metrics_window(algorithm, tmp_path, monkeypatch):
    # Every eval reports success, so the run stops at the first report: it
    # writes the report's row, then the final checkpoint, and no step one.
    # That report is the final one: nothing is evaluated again.
    evals = []

    def success(*args, **kwargs):
        evals.append(1)
        return 1.0, 1.0

    monkeypatch.setattr(orchestrator, "evaluate_policy", success)
    every = TINY["eval_every"]
    cfg = RunConfig(algorithm=algorithm, seed=5, **TINY)
    artifacts = run_training(cfg, EXPERT, str(tmp_path))

    assert len(evals) == 1
    assert every <= artifacts.steps_run < 2 * every
    assert [(row["step"], row["window"]) for row in artifacts.metrics_rows] == [
        (artifacts.steps_run, 0)]
    assert sorted(d for d in os.listdir(tmp_path) if d.startswith("step-")) == [
        "step-0", "step-final"]


@pytest.mark.parametrize("algorithm", ["rile_off", "rile_on", "gail", "airl"])
def test_each_report_closes_the_window_of_the_steps_since_the_last(algorithm, monkeypatch):
    # A report fires once eval_every steps have been collected since the
    # last one: at its multiples off-policy, at the end of the episode that
    # completes them under rile_on. Its row holds the eval and the window.
    # The run's last step ends it with a report of the steps left.
    sizes = []
    original = orchestrator.MetricsWindow

    def spy(index, learned, *args):
        sizes.append(len(learned))
        return original(index, learned, *args)

    monkeypatch.setattr(orchestrator, "MetricsWindow", spy)
    cfg = RunConfig(algorithm=algorithm, seed=5,
                    **{**TINY, "total_steps": 1000, "early_stop_success": False})
    artifacts = run_training(cfg, EXPERT)

    every, rows = cfg.eval_every, artifacts.metrics_rows
    steps = [row["step"] for row in rows]
    assert np.diff([0, *steps]).tolist() == sizes
    assert steps[-1] == cfg.total_steps
    if algorithm == "rile_on":
        assert len(rows) >= 3
        assert all(every <= n < every + cfg.env.max_steps for n in sizes[:-1])
        assert sizes[-1] < every + cfg.env.max_steps
    else:
        assert steps == [200, 400, 600, 800, 1000]
    for k, row in enumerate(rows):
        assert row["window"] == k
        assert set(row) == {"step", "window", "eval_return", "goal_rate", "frozen", "cpr",
                            *(("rfdc", "fs_rfdc") if k else ())}
    assert not any("eval_return" in row for row in artifacts.diagnostics_rows)


def _reported_run(cfg, run_dir, monkeypatch):
    """(artifacts, the number of evaluate_policy calls, the sizes of the
    reward-metrics windows closed, the checkpoint directories) of a run."""
    evals, sizes = [], []
    evaluate, window = orchestrator.evaluate_policy, orchestrator.MetricsWindow

    def counted(*args, **kwargs):
        evals.append(1)
        return evaluate(*args, **kwargs)

    def sized(index, learned, *args):
        sizes.append(len(learned))
        return window(index, learned, *args)

    with monkeypatch.context() as m:
        m.setattr(orchestrator, "evaluate_policy", counted)
        m.setattr(orchestrator, "MetricsWindow", sized)
        artifacts = run_training(cfg, EXPERT, str(run_dir))
    steps = sorted(d for d in os.listdir(run_dir) if d.startswith("step-"))
    return artifacts, len(evals), sizes, steps


@pytest.mark.parametrize("algorithm,reports", [
    ("rile_off", [200, 400, 500]), ("gail", [200, 400, 500]), ("airl", [200, 400, 500]),
    ("rile_on", [204, 408, 500])])
def test_an_unreported_tail_ends_with_a_report(algorithm, reports, tmp_path, monkeypatch):
    # 500 steps at eval_every 200: the loop reports at 200 and 400 (under
    # rile_on, at the episode ends that complete 200 steps: 204 and 408 at
    # seed 5), and the run's end reports the steps left, then saves
    # step-final in place of step-500. One eval per row.
    cfg = RunConfig(algorithm=algorithm, seed=5,
                    **{**TINY, "total_steps": 500, "early_stop_success": False})
    artifacts, evals, sizes, steps = _reported_run(cfg, tmp_path, monkeypatch)

    rows = artifacts.metrics_rows
    assert [row["step"] for row in rows] == reports
    assert [row["window"] for row in rows] == [0, 1, 2]
    assert sizes == np.diff([0, *reports]).tolist()
    assert evals == len(rows)
    assert steps == ["step-0", *(f"step-{step}" for step in reports[:-1]), "step-final"]


def test_a_tail_of_one_step_reports_no_window(tmp_path, monkeypatch):
    # cpr needs two steps, so the report of a one-step tail closes no
    # window: its row holds the eval only.
    cfg = RunConfig(algorithm="rile_off", seed=5,
                    **{**TINY, "total_steps": 401, "early_stop_success": False})
    artifacts, evals, sizes, steps = _reported_run(cfg, tmp_path, monkeypatch)

    rows = artifacts.metrics_rows
    assert [row["step"] for row in rows] == [200, 400, 401]
    assert set(rows[-1]) == {"step", "eval_return", "goal_rate", "frozen"}
    assert sizes == [200, 200]
    assert evals == 3
    assert steps == ["step-0", "step-200", "step-400", "step-final"]


def test_every_student_row_is_non_terminal(monkeypatch):
    # The expert table marks each episode's goal-entering row done for the
    # trainer; the student learns from no terminal, expert rows included.
    batches = []
    original = orchestrator.student_update

    def spy(agent, batch):
        batches.append(batch[4].copy())
        return original(agent, batch)

    monkeypatch.setattr(orchestrator, "student_update", spy)
    cfg = RunConfig(algorithm="rile_off", seed=3, expert_mix_student=1.0, **TINY)
    run_training(cfg, EXPERT)

    assert orchestrator.expert_transition_table(EXPERT)["done"].any()
    assert batches and all(not done.any() for done in batches)


@pytest.mark.parametrize("algorithm", ["rile_on", "bc"])
@pytest.mark.parametrize("field", ["expert_mix_student", "expert_mix_trainer"])
def test_expert_mixing_rejected_without_a_replay_buffer(algorithm, field):
    with pytest.raises(ValueError, match=field):
        RunConfig(algorithm=algorithm, **{field: 0.3}).validate()
    RunConfig(algorithm="rile_off", **{field: 0.3}).validate()


def test_bc_final_eval_uses_the_action_noise():
    cfg = RunConfig(algorithm="bc", seed=7, student_hidden=(16, 16), bc_epochs=30,
                    eval_episodes=4, action_noise=0.5)
    artifacts = run_training(cfg, EXPERT)
    ret, rate = evaluate_policy(cfg.env, artifacts.student, cfg.eval_episodes,
                                seed=cfg.seed, action_noise=0.5)
    clean_ret, _ = evaluate_policy(cfg.env, artifacts.student, cfg.eval_episodes,
                                   seed=cfg.seed)
    final = artifacts.metrics_rows[-1]
    assert (final["eval_return"], final["goal_rate"]) == (ret, rate)
    assert ret != clean_ret  # the noise changes this policy's score


def _agent_files(name):
    return [os.path.join(name, f"{n}.mlp") for n in ("actor", "critic", "critic_target")]


def _files_under(path):
    """Every file under path, relative to it, in sorted order."""
    return sorted(os.path.relpath(os.path.join(root, f), path)
                  for root, _, names in os.walk(path) for f in names)


def test_bc_run_directory_holds_its_logs_and_the_final_checkpoint(tmp_path):
    # bc writes the untrained student to step-0, one diagnostics row per
    # epoch, one metrics row at step 0 (no window: it collects no steps) and
    # the trained student to step-final
    artifacts = run_training(RunConfig(algorithm="bc", seed=7, **TINY), EXPERT, str(tmp_path))
    assert _files_under(tmp_path) == [
        "diagnostics.jsonl", "metrics.jsonl",
        *(os.path.join(d, f) for d in ("step-0", "step-final") for f in _agent_files("student"))]
    rows = [json.loads(line) for line in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert rows == artifacts.metrics_rows
    assert [set(row) for row in rows] == [{"step", "eval_return", "goal_rate", "frozen"}]
    assert rows[0]["step"] == artifacts.steps_run == 0
    assert len((tmp_path / "diagnostics.jsonl").read_text().splitlines()) == TINY["bc_epochs"]
    start = load_mlp(str(tmp_path / "step-0" / "student" / "actor.mlp"))
    final = load_mlp(str(tmp_path / "step-final" / "student" / "actor.mlp"))
    assert mlp_to_bytes(start) != mlp_to_bytes(final) == mlp_to_bytes(artifacts.student.actor)


# The files of each checkpoint directory of a run, per algorithm.
CHECKPOINT_FILES = {
    "rile_off": [*_agent_files("student"), *_agent_files("trainer"),
                 os.path.join("discriminator", "net.mlp")],
    "gail": [*_agent_files("student"), os.path.join("discriminator", "net.mlp")],
    "airl": [*_agent_files("student"), os.path.join("airl", "reward.mlp"),
             os.path.join("airl", "potential.mlp")],
}
CHECKPOINT_FILES["rile_on"] = CHECKPOINT_FILES["rile_off"]


@pytest.mark.parametrize("algorithm", ["rile_off", "rile_on", "gail", "airl"])
def test_every_checkpoint_holds_every_net_of_the_run(algorithm, tmp_path, monkeypatch):
    # A finished run writes step-0, one checkpoint per report but the last,
    # and step-final after the last; a run that aborts writes step-0 and its
    # abort directory. Each holds the same nets.
    cfg = RunConfig(algorithm=algorithm, seed=5, **{**TINY, "early_stop_success": False})
    done = run_training(cfg, EXPERT, str(tmp_path / "done"))
    _fail_the_third_student_update(monkeypatch)
    with pytest.raises(RunAborted, match="forced"):
        run_training(cfg, EXPERT, str(tmp_path / "aborted"))

    aborts = [d for d in os.listdir(tmp_path / "aborted") if d.endswith("-abort")]
    assert len(aborts) == 1
    reports = [f"step-{row['step']}" for row in done.metrics_rows]
    if algorithm != "rile_on":  # rile_on reports at episode ends
        assert reports == ["step-200", "step-400"]
    steps = sorted(d for d in os.listdir(tmp_path / "done") if d.startswith("step-"))
    assert reports[-1] == f"step-{done.steps_run}"
    assert steps == sorted(["step-0", *reports[:-1], "step-final"])
    for ckpt in [tmp_path / "done" / d for d in steps] + [
            tmp_path / "aborted" / "step-0", tmp_path / "aborted" / aborts[0]]:
        assert _files_under(ckpt) == sorted(CHECKPOINT_FILES[algorithm]), ckpt


@pytest.mark.parametrize("algorithm", ["bc", "gail", "airl"])
def test_frozen_reward_rejected_outside_rile(algorithm):
    # a frozen reward replaces the trainer: under gail or airl such a run
    # would be the rile_off run under another name
    cfg = RunConfig(algorithm=algorithm, frozen_reward="/nonexistent.mlp")
    with pytest.raises(ValueError, match="frozen_reward"):
        cfg.validate()
    with pytest.raises(ValueError, match="frozen_reward"):
        run_training(cfg, EXPERT)


@pytest.mark.parametrize("algorithm,field,value", [
    ("rile_off", "update_every", 0), ("rile_off", "eval_every", 0),
    ("rile_off", "eval_every", 1), ("rile_off", "eval_episodes", 0),
    ("rile_off", "freeze_window", 0), ("rile_off", "freeze_window", -1),
    ("rile_off", "student_batch", 0), ("rile_off", "trainer_batch", 0),
    ("rile_off", "disc_batch", 0), ("rile_off", "trainer_buffer", 1024),
    ("rile_off", "disc_buffer", 1024),
    ("bc", "bc_holdout", -0.5), ("bc", "bc_holdout", 1.0), ("bc", "bc_holdout", 1.5)])
def test_bad_schedule_values_rejected_before_the_run_starts(algorithm, field, value,
                                                             tmp_path):
    cfg = RunConfig(algorithm=algorithm, **{**TINY, field: value})
    run_dir = tmp_path / "run"
    with pytest.raises(ValueError, match=field):
        run_training(cfg, EXPERT, str(run_dir))
    assert not run_dir.exists()


def test_frozen_trainer_samples_no_more_trainer_actions(monkeypatch):
    # A loose freeze test (5 updates, threshold 10) so that the trainer
    # freezes early in the run; after that, nothing reads the trainer stream
    # and nothing updates the trainer or D, which only the trainer read.
    calls, updates, disc_updates, student_updates = [], [], [], []

    def counting(record, original):
        def counted(*args, **kwargs):
            record.append(1)
            return original(*args, **kwargs)
        return counted

    monkeypatch.setattr(orchestrator, "trainer_act", counting(calls, orchestrator.trainer_act))
    monkeypatch.setattr(orchestrator, "trainer_update",
                        counting(updates, orchestrator.trainer_update))
    monkeypatch.setattr(orchestrator, "disc_update",
                        counting(disc_updates, orchestrator.disc_update))
    monkeypatch.setattr(orchestrator, "student_update",
                        counting(student_updates, orchestrator.student_update))
    cfg = RunConfig(algorithm="rile_off", seed=3, freeze_window=5, freeze_threshold=10.0,
                    **TINY)
    artifacts = run_training(cfg, EXPERT)

    # updates run every 4 steps past the 50-step warm-up (52, 56, ...): the
    # fifth fills the window of 5 critic losses, and their mean is below 10
    assert artifacts.freeze_step == 68
    # one stochastic trainer action per collected step up to the freeze
    assert len(calls) == artifacts.freeze_step
    # the five updates that filled the window, none after
    assert len(updates) == 5
    # D updated with each of them, and with none of the student's updates
    # that followed the freeze
    assert len(disc_updates) == 5 < len(student_updates)


def test_seed_streams_keep_their_seeds():
    # Each stream is child i of the master seed's SeedSequence, as in a
    # twelve-way spawn whose children 4 and 5 (once noise and eval) nothing
    # read: retiring those moved no other stream.
    names = ("env", "student", "trainer", "disc", None, None, "mix", "init_student",
             "init_trainer", "init_disc", "init_airl", "mix_trainer")
    streams = orchestrator.seed_streams(11)
    assert sorted(streams) == sorted(n for n in names if n)
    for name, child in zip(names, np.random.SeedSequence(11).spawn(len(names))):
        if name is not None:
            expected = np.random.default_rng(child).integers(2**62, size=4)
            assert np.array_equal(streams[name].integers(2**62, size=4), expected), name


def _one_row_trainer_forwards(cfg, monkeypatch):
    """(artifacts, count of one-row forwards of the trainer's actor) of a run."""
    calls = []
    original = nets._forward_cached

    def spy(params, x):
        if params.in_dim == OBS_DIM and params.out_dim == 2 and len(x) == 1:
            calls.append(1)
        return original(params, x)

    with monkeypatch.context() as m:
        m.setattr(nets, "_forward_cached", spy)
        artifacts = run_training(cfg, EXPERT)
    return artifacts, len(calls)


def test_one_trainer_forward_per_collected_step(monkeypatch):
    # A collected step's trainer reward and the stochastic trainer action of
    # its replay row come from one forward of the trainer's actor. Scoring
    # and sampling with a forward each gives the same run.
    cfg = RunConfig(algorithm="rile_off", seed=3, freeze_threshold=0.0,
                    **{**TINY, "early_stop_success": False})
    shared, n_shared = _one_row_trainer_forwards(cfg, monkeypatch)
    act = orchestrator.trainer_act
    monkeypatch.setattr(orchestrator, "trainer_act", lambda agent, obs, rng: (
        orchestrator.trainer_act_batch(agent, obs), act(agent, obs, rng)[1]))
    separate, n_separate = _one_row_trainer_forwards(cfg, monkeypatch)

    assert shared.steps_run == cfg.total_steps and shared.freeze_step is None
    assert n_shared == cfg.total_steps
    assert n_separate == 2 * cfg.total_steps
    assert _trained_nets(shared) == _trained_nets(separate)
    assert shared.diagnostics_rows == separate.diagnostics_rows


def test_rollout_trainer_rows_reuse_the_scored_actions(monkeypatch):
    # rile_on's stochastic trainer actions for a rollout come from the
    # forward its rewards were scored with: the store keeps them, and
    # trainer_rows runs no actor forward.
    inside, forwards, calls = [], [], []
    original_rows = orchestrator._Replay.trainer_rows
    original_forward = nets._forward_cached

    def rows_spy(replay, rng):
        calls.append(1)
        inside.append(1)
        try:
            return original_rows(replay, rng)
        finally:
            inside.pop()

    def forward_spy(params, x):
        if inside and params.in_dim == OBS_DIM and params.out_dim == 2:
            forwards.append(len(x))
        return original_forward(params, x)

    monkeypatch.setattr(orchestrator._Replay, "trainer_rows", rows_spy)
    monkeypatch.setattr(nets, "_forward_cached", forward_spy)
    cfg = RunConfig(algorithm="rile_on", seed=3, freeze_threshold=0.0,
                    **{**TINY, "early_stop_success": False})
    artifacts = run_training(cfg, EXPERT)

    assert artifacts.steps_run == cfg.total_steps
    assert len(calls) >= cfg.total_steps // TINY["env"].max_steps
    assert forwards == []


def _pathway(cfg):
    """The reward pathway of a seed-0 run of cfg, with its student."""
    streams = orchestrator.seed_streams(0)
    student = make_actor_critic(EXPERT.s.shape[1], EXPERT.a.shape[1], cfg.student_hidden,
                                streams["init_student"])
    return orchestrator._RewardPathway(cfg, EXPERT, student, streams)


def test_score_acts_on_the_state_action_rows(monkeypatch):
    # The collector's obs column is [s, a] of each step: the state the
    # student acted in and the action it chose (not the one the noisy
    # environment executed).
    cfg = RunConfig(algorithm="rile_off", action_noise=0.1, **TINY).validate()
    streams = orchestrator.seed_streams(0)
    student = make_actor_critic(EXPERT.s.shape[1], EXPERT.a.shape[1], cfg.student_hidden,
                                streams["init_student"], epsilon_greedy=cfg.epsilon_greedy)
    acted = []
    act = orchestrator.student_act

    def spy(agent, state, *rest):
        action = act(agent, state, *rest)
        acted.append(np.concatenate([state, action]))
        return action

    monkeypatch.setattr(orchestrator, "student_act", spy)
    collector = orchestrator._Collector(cfg, streams)
    rows = [collector.step(student) for _ in range(30)]  # two 12-step episodes and more
    assert np.array_equal([row["obs"] for row in rows], acted)

    # The live trainer observes each collected (state, action) row; the
    # chunk's rewards are its deterministic actions there, and its sampled
    # actions draw their noise from the trainer stream, row after row.
    cfg = RunConfig(algorithm="rile_off").validate()
    pathway = _pathway(cfg)
    rng = np.random.default_rng(0)
    chunk = {"obs": rng.uniform(-1, 1, (5, 4)), "sp": rng.uniform(-1, 1, (5, 2))}
    r, a_t = pathway.score(chunk)

    y = mlp_forward(pathway.trainer.actor, chunk["obs"])
    noise = orchestrator.seed_streams(0)["trainer"].normal(size=5)
    assert np.array_equal(r, np.tanh(y[:, 0]))
    log_std = np.clip(y[:, 1], -5.0, 2.0)
    assert np.array_equal(a_t, np.tanh(y[:, 0] + np.exp(log_std) * noise))
    assert np.array_equal(r, pathway.student_rewards(chunk["obs"], chunk["sp"]))
    pathway.freeze_step = 0
    assert pathway.score(chunk)[1] is None


def test_rollout_and_expert_table_build_the_same_trainer_rows():
    # One scripted episode inserted as a rile_on rollout chunk: the store's
    # trainer rows, in row order (that of their distinct actions), are the
    # expert table's, next observations and done flags included.
    expert = generate_expert(MazeSpec(), 1)
    te = orchestrator.expert_transition_table(expert)
    n = len(te["obs"])
    cfg = RunConfig(algorithm="rile_on", **{**TINY, "trainer_batch": 64}).validate()
    replay = orchestrator._Replay(cfg, _pathway(cfg), orchestrator.seed_streams(0))
    chunk = {"obs": te["obs"], "sp": te["sp"], "episode_end": expert.end,
             "a_t": np.linspace(-1, 1, n)}
    replay.insert(chunk)
    assert replay.ready()
    obs, a_t, obsp, done = replay.trainer_rows(np.random.default_rng(0))
    order = np.argsort(a_t)
    obs, a_t, obsp, done = obs[order], a_t[order], obsp[order], done[order]

    assert np.array_equal(obs, te["obs"]) and np.array_equal(a_t, chunk["a_t"])
    assert np.array_equal(obsp, te["obsp"]) and np.array_equal(done, te["done"])
    # s' with the next expert action; the last row ends the episode
    assert np.array_equal(obsp[:-1], np.hstack([te["sp"][:-1], expert.a[1:]]))
    assert np.array_equal(obsp[-1], np.zeros(4))
    assert done.tolist() == [0.0] * (n - 1) + [1.0]


def test_airl_scoring_keeps_one_cache():
    # Each head keeps one cache in its own scratch: r over the scored rows
    # and V over the stacked rows [s; s']. The reference runs on fresh copies.
    cfg = RunConfig(algorithm="airl", disc_hidden=(16, 12)).validate()
    pathway = _pathway(cfg)
    heads = pathway.airl
    rng = np.random.default_rng(0)
    s, a, sp = (rng.uniform(-1, 1, (256, 2)) for _ in range(3))
    r = pathway.student_rewards(np.concatenate([s, a], axis=1), sp)

    reward = mlp_forward(heads.reward.copy(), np.concatenate([s, a], axis=1))[:, 0]
    v = mlp_forward(heads.potential.copy(), np.concatenate([s, sp]))[:, 0]
    assert np.array_equal(r, reward + heads.gamma * v[256:] - v[:256])
    held = [sum(b.nbytes for b in net.ws._bufs.values())
            for net in (heads.reward, heads.potential)]
    assert held == [256 * (16 + 12) * 8, 512 * (16 + 12) * 8]  # 57,344 and 114,688 bytes


def test_frozen_reward_scores_on_its_own_scratch(tmp_path):
    # The frozen net keeps one cache of the scored rows between calls: a
    # second call of the same size allocates no scratch.
    hidden = (16, 12)
    path = str(tmp_path / "reward.mlp")
    save_mlp(make_airl_heads(2, 2, hidden, 1e-3, 0.99, np.random.default_rng(0)).reward,
             path)
    cfg = RunConfig(algorithm="rile_off", frozen_reward=path).validate()
    pathway = _pathway(cfg)
    rng = np.random.default_rng(1)
    obs, sp = rng.uniform(-1, 1, (256, 4)), rng.uniform(-1, 1, (256, 2))
    first = pathway.student_rewards(obs, sp)
    buffers = list(pathway.frozen.ws._bufs.values())
    assert sum(b.nbytes for b in buffers) == 256 * sum(hidden) * 8
    assert np.array_equal(pathway.student_rewards(obs, sp), first)
    assert list(pathway.frozen.ws._bufs.values()) == buffers  # the same arrays


def test_airl_probe_snapshot_is_f_on_the_expert_transitions():
    # The fixed probe scores every expert transition (s, a, s'), so an AIRL
    # snapshot is f(s, a, s') there, not f(s, a, s).
    cfg = RunConfig(algorithm="airl").validate()
    pathway = _pathway(cfg)
    te = pathway.expert_table
    assert np.array_equal(te["obs"], np.hstack([EXPERT.s, EXPERT.a]))
    assert np.array_equal(te["sp"], EXPERT.sp)
    tracker = orchestrator._WindowTracker(pathway)
    tracker.add(np.array([0.1, 0.2]), np.array([0.0, 1.0]))
    tracker.close()

    f = baselines.airl_f_batch(pathway.airl, te["obs"], te["sp"])[0]
    assert np.array_equal(tracker.prev_window.fixed_snapshot, f)


class TestReplayBuffer:
    def filled(self):
        buf = orchestrator.ReplayBuffer(3)
        for k in range(5):
            buf.insert(x=np.array([k, -k], dtype=float), k=k)
        return buf

    def test_holds_the_newest_rows_and_a_full_sample_returns_each_once(self):
        # five inserts into three slots: rows 0 and 1 were overwritten
        buf = self.filled()
        assert len(buf) == 3
        b = buf.sample(3, np.random.default_rng(1))
        assert sorted(b["k"]) == [2, 3, 4]
        assert np.array_equal(b["x"], np.stack([b["k"], -b["k"]], axis=1))

    def test_sampling_more_rows_than_held_rejected(self):
        with pytest.raises(ValueError, match="cannot sample 4"):
            self.filled().sample(4, np.random.default_rng(0))

    @pytest.mark.parametrize("row", [
        {"x": 5.0, "k": 5}, {"x": np.array([1.5]), "k": 5}, {"x": np.zeros((2, 1)), "k": 5},
        {"x": np.zeros(3), "k": 5}, {"x": np.ones(2), "k": np.array([5, 5])}])
    def test_a_value_of_another_shape_rejected(self, row):
        # each column holds rows of its first insert's shape: (2,) for x and
        # () for k; no column of the slot is written, not even a valid one
        buf = self.filled()
        before = buf.sample(3, np.random.default_rng(0))
        with pytest.raises(ValueError, match="shape"):
            buf.insert(**row)
        assert len(buf) == 3
        after = buf.sample(3, np.random.default_rng(0))
        assert all(np.array_equal(before[k], after[k]) for k in before)

    @pytest.mark.parametrize("row", [{"x": np.zeros(2)}, {"x": np.zeros(2), "k": 0, "y": 1}])
    def test_a_row_with_other_columns_rejected(self, row):
        buf = self.filled()
        with pytest.raises(ValueError, match="schema"):
            buf.insert(**row)
        assert len(buf) == 3


def _fifo_sample(rows, slots, batch_size, rng):
    """batch_size of rows, drawn as a FIFO of slots slots fed rows in order
    draws them: row i overwrites slot i % slots."""
    fifo = {}
    for i, row in enumerate(rows):
        fifo[i % slots] = row
    return [fifo[j] for j in rng.choice(len(fifo), size=batch_size, replace=False)]


@pytest.mark.parametrize("window,newest", [(2, 0), (5, 0), (5, 1), (None, 0)])
def test_a_window_samples_as_a_fifo_of_its_slots(window, newest):
    # A store of 6 slots fed rows 0-19. A sample of its newest window rows
    # (all 6 when None) among all rows but the newest `newest` draws the rows
    # that a FIFO of window slots fed those rows draws with the same rng,
    # before and after the window and the store wrap.
    store = orchestrator.ReplayBuffer(6)
    for rows in range(1, 21):
        store.insert(k=rows - 1)
        end = rows - newest
        if end < 1:
            continue
        size = min(3, end, window or 6)
        got = store.sample(size, np.random.default_rng(rows), window, end)
        fifo = _fifo_sample(range(end), window or 6, size, np.random.default_rng(rows))
        assert got["k"].tolist() == got["row"].tolist() == fifo, rows


def _replay_of(ends, trainer_batch, **overrides):
    """A rile_off _Replay of TINY with overrides, fed one row per episode-end
    flag in ends: row i has obs and sp filled with i, and trainer action i / 10."""
    cfg = RunConfig(algorithm="rile_off", **{**TINY, "trainer_batch": trainer_batch, **overrides})
    replay = orchestrator._Replay(cfg.validate(), _pathway(cfg), orchestrator.seed_streams(0))
    for i, end in enumerate(ends):
        replay.insert({"obs": np.full((1, 4), float(i)), "sp": np.full((1, 2), float(i)),
                       "episode_end": np.array([end]), "a_t": np.array([i / 10])})
    return replay


def _check_trainer_rows(replay, ends, rows):
    """Asserts that a trainer batch of len(rows) rows holds the given rows,
    each with its scored action, the next row's obs as its next observation
    and done 0, or zeros and done 1 where the row ends an episode."""
    replay.cfg.trainer_batch = len(rows)
    obs, a_t, obsp, done = replay.trainer_rows(np.random.default_rng(0))
    got = obs[:, 0].astype(int)
    assert sorted(got) == list(rows)
    assert np.array_equal(a_t, got / 10)
    for i, nxt, d in zip(got, obsp, done):
        if ends[i]:
            assert d == 1.0 and not nxt.any()
        else:
            assert d == 0.0 and np.array_equal(nxt, np.full(4, i + 1.0))


def test_a_trainer_row_observes_the_next_row_or_an_episode_end():
    ends = [False, False, True, False, True, True, False, False]
    _check_trainer_rows(_replay_of(ends, trainer_batch=7), ends, range(7))


def test_a_newest_row_that_ends_no_episode_waits_for_its_successor():
    ends = [False, True, False, False]
    replay = _replay_of(ends, trainer_batch=3)
    _check_trainer_rows(replay, ends, range(3))  # rows 0-2: row 3 waits
    replay.cfg.trainer_batch = 4
    with pytest.raises(ValueError, match="cannot sample 4"):
        replay.trainer_rows(np.random.default_rng(0))
    # an episode-ending successor: row 3 and the successor are both known
    replay.insert({"obs": np.full((1, 4), 4.0), "sp": np.full((1, 2), 4.0),
                   "episode_end": np.array([True]), "a_t": np.array([0.4])})
    _check_trainer_rows(replay, [*ends, True], range(5))


def test_a_trainer_window_as_large_as_the_students_keeps_its_oldest_row():
    # Windows of 4 rows over ten rows, the newest ending no episode: the
    # trainer's window is rows 5-8, whose successors reach row 9, one row
    # past the student's window (rows 6-9).
    ends = [False, False, True] + [False] * 7
    replay = _replay_of(ends, trainer_batch=4, student_buffer=4, trainer_buffer=4,
                        disc_buffer=4, student_batch=4, disc_batch=4)
    _check_trainer_rows(replay, ends, range(5, 9))
    for seed in range(10):
        b = replay.student_batch(np.random.default_rng(seed))
        assert sorted(b["obs"][:, 0]) == [6, 7, 8, 9]


def test_a_cut_rile_on_rollout_makes_no_update():
    # TINY's 12-step episodes never reach the goal, so 396 steps are 33
    # whole rollouts; at 400 steps the last rollout is cut after 4 steps.
    # A rollout whose episode has not ended trains nothing: both runs leave
    # the same nets.
    whole, cut = (run_training(RunConfig(algorithm="rile_on", seed=7,
                                         **{**TINY, "total_steps": steps}), EXPERT)
                  for steps in (396, 400))
    assert (whole.steps_run, cut.steps_run) == (396, 400)
    assert _trained_nets(whole) == _trained_nets(cut)
    assert whole.diagnostics_rows == cut.diagnostics_rows


def _rile_on_batches(monkeypatch):
    """For each update of a seed-3 rile_on TINY run: the obs of the chunk
    inserted last, and those of the student, discriminator and trainer
    batches. Asserts that every whole rollout made one update."""
    inserted, batches = [], []
    replay = orchestrator._Replay
    insert, student_batch = replay.insert, replay.student_batch
    disc_rows, trainer_rows = replay.disc_rows, replay.trainer_rows

    def insert_spy(r, chunk):
        inserted.append((chunk["obs"], chunk["episode_end"][-1]))
        return insert(r, chunk)

    def student_spy(r, rng):
        b = student_batch(r, rng)
        batches.append([inserted[-1][0], b["obs"]])
        return b

    def disc_spy(r, rng):
        b = disc_rows(r, rng)
        batches[-1].append(b["obs"])
        return b

    def trainer_spy(r, rng):
        rows = trainer_rows(r, rng)
        batches[-1].append(rows[0])
        return rows

    with monkeypatch.context() as m:
        for name, spy in (("insert", insert_spy), ("student_batch", student_spy),
                          ("disc_rows", disc_spy), ("trainer_rows", trainer_spy)):
            m.setattr(replay, name, spy)
        run_training(RunConfig(algorithm="rile_on", seed=3, freeze_threshold=0.0,
                               **{**TINY, "early_stop_success": False}), EXPERT)
    assert len(batches) == sum(ended for _, ended in inserted) > 0
    return batches


def _row_set(obs):
    return sorted(row.tobytes() for row in obs)


def test_each_rile_on_update_trains_on_the_whole_rollout_once(monkeypatch):
    # The student's and the trainer's windows are the rollout just
    # collected: each batch holds each of its rows exactly once.
    for rollout, student, _, trainer in _rile_on_batches(monkeypatch):
        assert _row_set(student) == _row_set(trainer) == _row_set(rollout)


def test_each_rile_on_disc_batch_holds_distinct_rows_of_the_rollout(monkeypatch):
    for rollout, _, disc, _ in _rile_on_batches(monkeypatch):
        rows = _row_set(disc)
        assert len(rows) == len(set(rows)) == min(TINY["disc_batch"], len(rollout))
        assert set(rows) <= set(_row_set(rollout))


def test_each_collected_episode_starts_at_its_own_jittered_point():
    # The collector draws each start from the env stream: six 5-step
    # episodes start at six points within the jitter of the start, none
    # inside an obstacle.
    spec = MazeSpec(start_jitter=0.05, max_steps=5)
    streams = orchestrator.seed_streams(0)
    student = make_actor_critic(2, 2, (8, 8), streams["init_student"])
    collector = orchestrator._Collector(RunConfig(env=spec).validate(), streams)
    rows = [collector.step(student) for _ in range(30)]
    assert [row["episode_end"] for row in rows] == ([False] * 4 + [True]) * 6

    starts = np.array([row["obs"][:2] for row in rows[::5]])
    assert len({s.tobytes() for s in starts}) == 6
    for s in starts:
        assert np.linalg.norm(s - spec.start) <= 0.05 + 1e-12
        assert not point_in_obstacle(spec, s)


def _collected_rows(algorithm, seed, monkeypatch):
    """([s, a], s') of every step the collector takes in a TINY run."""
    rows = []
    original = orchestrator._Collector.step

    def spy(collector, student):
        row = original(collector, student)
        rows.append(np.concatenate([row["obs"], row["sp"]]))
        return row

    monkeypatch.setattr(orchestrator._Collector, "step", spy)
    run_training(RunConfig(algorithm=algorithm, seed=seed, **TINY), EXPERT)
    return np.array(rows)


def _first_differing_step(x, y):
    return 1 + int(np.flatnonzero((x != y).any(axis=1))[0])


def test_seed_paired_runs_share_rollouts_until_the_first_update(monkeypatch):
    rows = {alg: _collected_rows(alg, 3, monkeypatch)
            for alg in ("rile_off", "gail", "airl", "rile_on")}
    # Off-policy runs first update at step 52 (a multiple of update_every past
    # the 50-step warm-up); rile_on first updates after its first 12-step
    # episode. Up to then every algorithm has drawn the same actions.
    first_update = 52
    for alg in ("gail", "airl"):
        assert _first_differing_step(rows["rile_off"], rows[alg]) == first_update + 1
    assert _first_differing_step(rows["gail"], rows["airl"]) == first_update + 1
    episode = TINY["env"].max_steps
    assert _first_differing_step(rows["rile_off"], rows["rile_on"]) == episode + 1


def _mixed_batches(cfg, monkeypatch):
    """For each student and each trainer batch of a run, in order: the
    mask of its rows that are expert rows (obs in the expert table) and
    the obs of those rows. Asserts that each trainer batch relabels its
    expert rows with the trainer's current deterministic action, and keeps
    on every other row the action the row was scored with."""
    expert = {row.tobytes() for row in orchestrator.expert_transition_table(EXPERT)["obs"]}
    batches = {"student": [], "trainer": []}
    scored = {}  # a collected row's obs -> its stochastic trainer action
    score, student_batch = orchestrator._RewardPathway.score, orchestrator._Replay.student_batch
    trainer_rows = orchestrator._Replay.trainer_rows

    def record(key, obs):
        mask = np.array([row.tobytes() in expert for row in obs])
        batches[key].append((mask, obs[mask]))
        return mask

    def score_spy(pathway, chunk):
        r, a_t = score(pathway, chunk)
        scored.update((row.tobytes(), a) for row, a in zip(chunk["obs"], a_t))
        return r, a_t

    def student_spy(replay, rng):
        b = student_batch(replay, rng)
        record("student", b["obs"])
        return b

    def trainer_spy(replay, rng):
        obs, a_t, obsp, done = trainer_rows(replay, rng)
        mask = record("trainer", obs)
        if mask.any():
            relabeled = orchestrator.trainer_act_batch(replay.pathway.trainer, obs[mask])
            assert np.array_equal(a_t[mask], relabeled)
        assert [scored[row.tobytes()] for row in obs[~mask]] == a_t[~mask].tolist()
        return obs, a_t, obsp, done

    with monkeypatch.context() as m:
        m.setattr(orchestrator._RewardPathway, "score", score_spy)
        m.setattr(orchestrator._Replay, "student_batch", student_spy)
        m.setattr(orchestrator._Replay, "trainer_rows", trainer_spy)
        run_training(cfg, EXPERT)
    return batches


@pytest.mark.parametrize("mix_student,mix_trainer", [(0.3, 0.6), (0.0, 0.0)])
def test_expert_mix_fractions_are_honoured(mix_student, mix_trainer, monkeypatch):
    # Every batch of B rows holds round(frac * B) expert rows, first; the
    # trainer relabels exactly those (asserted by _mixed_batches).
    cfg = RunConfig(algorithm="rile_off", seed=3, expert_mix_student=mix_student,
                    expert_mix_trainer=mix_trainer, **{**TINY, "early_stop_success": False})
    batches = _mixed_batches(cfg, monkeypatch)
    # updates every 4 steps from step 52 to 400; the trainer does not freeze
    assert len(batches["student"]) == len(batches["trainer"]) == (400 - 52) // 4 + 1
    for key, frac, size in (("student", mix_student, cfg.student_batch),
                            ("trainer", mix_trainer, cfg.trainer_batch)):
        k = round(frac * size)
        for mask, _ in batches[key]:
            assert mask.tolist() == [True] * k + [False] * (size - k)


def test_trainer_mixing_leaves_the_student_mixing_draws_unchanged(monkeypatch):
    # The two batches draw their expert rows from separate streams, so
    # turning trainer mixing on changes no student batch's expert rows.
    runs = [_mixed_batches(RunConfig(algorithm="rile_off", seed=3, expert_mix_student=0.3,
                                     expert_mix_trainer=mix_trainer,
                                     **{**TINY, "early_stop_success": False}), monkeypatch)
            for mix_trainer in (0.0, 0.6)]
    assert len(runs[0]["student"]) == len(runs[1]["student"])
    for (mask0, rows0), (mask1, rows1) in zip(runs[0]["student"], runs[1]["student"]):
        assert 0 < mask0.sum() < len(mask0)
        assert np.array_equal(mask0, mask1) and np.array_equal(rows0, rows1)
    assert not any(mask.any() for mask, _ in runs[0]["trainer"])
    assert all(mask.any() for mask, _ in runs[1]["trainer"])


# The BLAS thread rule of run_training: every OpenBLAS the process loaded,
# as the rule finds them.
BLAS = nets._openblas_thread_calls()
needs_openblas = pytest.mark.skipif(
    not BLAS, reason="no OpenBLAS in this process: the thread rule sets nothing")
WIDE_64 = {**TINY, "student_hidden": (64, 64), "trainer_hidden": (64, 64),
           "disc_hidden": (64, 64)}


def _blas_threads():
    return [get() for get, _ in BLAS]


@pytest.fixture
def two_blas_threads():
    before = _blas_threads()
    for _, set_ in BLAS:
        set_(2)
    yield
    for (_, set_), n in zip(BLAS, before):
        set_(n)


def _threads_seen_by_updates(cfg, monkeypatch, fail_at=None):
    """(artifacts or None, the BLAS thread counts each student_update saw)."""
    original = orchestrator.student_update
    seen = []

    def spy(*args):
        seen.append(_blas_threads())
        if len(seen) == fail_at:
            raise ValueError("forced")
        return original(*args)

    with monkeypatch.context() as m:
        m.setattr(orchestrator, "student_update", spy)
        if fail_at is None:
            return run_training(cfg, EXPERT), seen
        with pytest.raises(RunAborted, match="forced"):
            run_training(cfg, EXPERT)
    return None, seen


@needs_openblas
@pytest.mark.parametrize("algorithm", ["rile_off", "rile_on"])
def test_narrow_run_trains_on_one_blas_thread(algorithm, two_blas_threads, monkeypatch):
    cfg = RunConfig(algorithm=algorithm, seed=5, **WIDE_64)
    _, seen = _threads_seen_by_updates(cfg, monkeypatch)

    assert seen and all(n == [1] * len(BLAS) for n in seen)
    assert _blas_threads() == [2] * len(BLAS)


@needs_openblas
def test_aborted_run_restores_the_blas_threads(two_blas_threads, monkeypatch):
    cfg = RunConfig(algorithm="rile_off", seed=5, **WIDE_64)
    _, seen = _threads_seen_by_updates(cfg, monkeypatch, fail_at=3)

    assert seen == [[1] * len(BLAS)] * 3
    assert _blas_threads() == [2] * len(BLAS)


@needs_openblas
def test_a_wide_run_trains_on_one_blas_thread(two_blas_threads, monkeypatch):
    # the rule does not depend on the widths: 128-wide layers get one thread too
    cfg = RunConfig(algorithm="rile_off", seed=5, **{
        **TINY, "student_hidden": (128, 128), "trainer_hidden": (128, 128),
        "disc_hidden": (128, 8)})
    _, seen = _threads_seen_by_updates(cfg, monkeypatch)

    assert seen and all(n == [1] * len(BLAS) for n in seen)
    assert _blas_threads() == [2] * len(BLAS)


@needs_openblas
def test_a_run_without_openblas_trains_the_same_nets(two_blas_threads, monkeypatch):
    cfg = RunConfig(algorithm="rile_off", seed=5, **WIDE_64)
    one_thread, _ = _threads_seen_by_updates(cfg, monkeypatch)
    monkeypatch.setattr(nets, "_openblas_thread_calls", lambda: [])
    untouched, seen = _threads_seen_by_updates(cfg, monkeypatch)

    assert seen and all(n == [2] * len(BLAS) for n in seen)
    assert untouched.steps_run == one_thread.steps_run
    assert _trained_nets(untouched) == _trained_nets(one_thread)
    assert untouched.diagnostics_rows == one_thread.diagnostics_rows
