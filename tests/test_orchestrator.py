import copy
import dataclasses
import hashlib
import json
import os
import re
from contextlib import contextmanager

import numpy as np
import pytest

from rile import agents, baselines, discriminator, nets, orchestrator
from rile.agents import make_actor_critic, trainer_act
from rile.baselines import make_airl_heads
from rile.discriminator import DiscriminatorNet, disc_output
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


def test_a_noisy_maze_run_is_pinned():
    # The maze draws the action noise from the env stream in the collector
    # and from the eval rng in the report; these are the bits of the same
    # run when RunConfig held the noise and each caller added it.
    cfg = RunConfig(algorithm="rile_off", seed=3,
                    **{**TINY, "env": MazeSpec(max_steps=12, action_noise=0.1)})
    digest = hashlib.sha256(b"".join(_trained_nets(run_training(cfg, EXPERT)))).hexdigest()
    assert digest[:16] == "22d551b6ee5b7506"


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
    # rile_off updates at multiples of UPDATE_EVERY (4) past the 50-step
    # warm-up: steps 52, 56 and 60; rile_on's first rollout, 12 rows ending
    # at step 12, makes 12 // 4 = 3 updates, all at step 12
    assert step == {"rile_off": 60, "rile_on": 12}[algorithm]


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
    # A report fires at each multiple of eval_every, under every
    # algorithm. Its row holds the eval and the window of the steps since
    # the last report. The run's last step ends it with a report.
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
    assert steps == list(range(every, cfg.total_steps + 1, every))
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
    ("rile_on", [200, 400, 500])])
def test_an_unreported_tail_ends_with_a_report(algorithm, reports, tmp_path, monkeypatch):
    # 500 steps at eval_every 200: the loop reports at 200 and 400, and the
    # run's end reports the steps left, then saves step-final in place of
    # step-500. One eval per row.
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
    # The expert marks each episode's goal-entering row as an episode end;
    # the student learns from no terminal, expert rows included.
    batches = []
    original = orchestrator.student_update

    def spy(agent, batch):
        batches.append(batch[4].copy())
        return original(agent, batch)

    monkeypatch.setattr(orchestrator, "student_update", spy)
    cfg = RunConfig(algorithm="rile_off", seed=3, expert_mix_student=1.0, **TINY)
    run_training(cfg, EXPERT)

    assert EXPERT.end.any()
    assert batches and all(not done.any() for done in batches)


@pytest.mark.parametrize("algorithm", ["rile_on", "bc"])
@pytest.mark.parametrize("field", ["expert_mix_student"])
def test_expert_mixing_rejected_without_a_replay_buffer(algorithm, field):
    with pytest.raises(ValueError, match=field):
        RunConfig(algorithm=algorithm, **{field: 0.3}).validate()
    RunConfig(algorithm="rile_off", **{field: 0.3}).validate()


def test_bc_final_eval_uses_the_action_noise():
    cfg = RunConfig(algorithm="bc", seed=7, student_hidden=(16, 16), bc_epochs=30,
                    eval_episodes=4, env=MazeSpec(action_noise=0.5))
    artifacts = run_training(cfg, EXPERT)
    ret, rate = evaluate_policy(cfg.env, artifacts.student, cfg.eval_episodes,
                                seed=cfg.seed)
    clean_ret, _ = evaluate_policy(MazeSpec(), artifacts.student, cfg.eval_episodes,
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
    ("rile_off", "eval_every", 0),
    ("rile_off", "eval_every", 1), ("rile_off", "eval_episodes", 0),
    ("rile_off", "freeze_window", 0), ("rile_off", "freeze_window", -1),
    ("rile_off", "student_batch", 0), ("rile_off", "trainer_batch", 0),
    ("rile_off", "disc_batch", 0), ("rile_off", "trainer_buffer", 1024),
    ("rile_off", "disc_buffer", 1024),
    ("bc", "bc_holdout", -0.5), ("bc", "bc_holdout", 1.0), ("bc", "bc_holdout", 1.5),
    ("rile_off", "epsilon_greedy", 1.5)])
def test_bad_schedule_values_rejected_before_the_run_starts(algorithm, field, value,
                                                             tmp_path):
    cfg = RunConfig(algorithm=algorithm, **{**TINY, field: value})
    run_dir = tmp_path / "run"
    with pytest.raises(ValueError, match=field):
        run_training(cfg, EXPERT, str(run_dir))
    assert not run_dir.exists()


@pytest.mark.parametrize("algorithm", ["rile_off", "airl"])
def test_the_fixed_rates_reach_the_learners(algorithm):
    # No run sets them: the student and the trainer learn at
    # make_actor_critic's defaults, D and AIRL's heads at DISC_LR.
    artifacts = run_training(RunConfig(algorithm=algorithm, **TINY), EXPERT)
    agents = [artifacts.student, *([artifacts.trainer] if algorithm == "rile_off" else [])]
    for agent in agents:
        assert (agent.actor_opt.lr, agent.critic_opt.lr, agent.entropy_coef) == (3e-4, 3e-4, 0.2)
    if algorithm == "rile_off":
        opts = [artifacts.disc.opt]
    else:
        opts = [artifacts.airl.reward_opt, artifacts.airl.potential_opt]
    assert [opt.lr for opt in opts] == [3e-5] * len(opts)
    # every one of these Adam states stepped at its rate
    assert all(opt.step > 0 for opt in opts + [a.actor_opt for a in agents])


def test_airl_shapes_with_the_students_discount():
    # f = r + gamma V(s') - V(s) shapes the student's return, so its gamma
    # is the student's: make_actor_critic's default, the one statement of it.
    artifacts = run_training(RunConfig(algorithm="airl", **TINY), EXPERT)
    assert artifacts.airl.gamma == artifacts.student.gamma == 0.99


def test_frozen_trainer_samples_no_more_trainer_actions(monkeypatch):
    # A loose freeze test (5 updates, threshold 10) so that the trainer
    # freezes early in the run; after that, nothing draws trainer actions
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
    # the five updates that filled the window, none after, each drawing its
    # batch's actions once
    assert len(updates) == len(calls) == 5
    # D updated with each of them, and with none of the student's updates
    # that followed the freeze
    assert len(disc_updates) == 5 < len(student_updates)


def test_trainer_signals_are_logged_with_its_updates(monkeypatch):
    # Each rile_off diagnostics row carries the mean trainer reward and the
    # mean and std of the actions of the trainer batch it updated on; a
    # gail row, which has no trainer, carries none of them.
    keys = {"trainer_reward", "trainer_action_mean", "trainer_action_std"}
    batches = []
    original = orchestrator.trainer_update

    def spy(agent, batch, *rest):
        batches.append(batch)
        return original(agent, batch, *rest)

    monkeypatch.setattr(orchestrator, "trainer_update", spy)
    rows = {alg: run_training(RunConfig(algorithm=alg, seed=3, **TINY), EXPERT).diagnostics_rows
            for alg in ("rile_off", "gail")}
    assert rows["rile_off"] and rows["gail"]
    assert not any(keys & set(row) for row in rows["gail"])
    # updates every 4 steps from step 52; the trainer does not freeze
    for row in rows["rile_off"]:
        _, a_t, r_t, _, _ = batches[(row["step"] - 52) // 4]
        assert (row["trainer_reward"], row["trainer_action_mean"],
                row["trainer_action_std"]) == (np.mean(r_t), np.mean(a_t), np.std(a_t))
        assert 0 < row["trainer_reward"] <= 1 and row["trainer_action_std"] > 0


def test_disc_means_are_logged_with_its_updates(monkeypatch):
    # Each gail and rile_off row that carries disc_loss also carries the
    # mean D over the update's expert rows and over its student rows, at
    # the parameters before its step; airl's reward heads log neither.
    keys = {"disc_expert", "disc_student"}
    batches = []
    original = orchestrator.disc_update

    def spy(net, xe, xs):
        batches.append((DiscriminatorNet(net.params.copy(), net.opt), xe, xs))
        return original(net, xe, xs)

    monkeypatch.setattr(orchestrator, "disc_update", spy)
    for alg in ("gail", "rile_off"):
        batches.clear()
        rows = run_training(RunConfig(algorithm=alg, seed=3, **TINY), EXPERT).diagnostics_rows
        logged = [row for row in rows if "disc_loss" in row]
        assert logged and all(keys <= set(row) for row in logged)
        # updates every 4 steps from step 52; the trainer does not freeze
        for row in logged:
            before, xe, xs = batches[(row["step"] - 52) // 4]
            d = disc_output(before, np.concatenate([xe, xs]))
            assert (row["disc_expert"], row["disc_student"]) == (
                np.mean(d[:len(xe)]), np.mean(d[len(xe):])), alg
    rows = run_training(RunConfig(algorithm="airl", seed=3, **TINY), EXPERT).diagnostics_rows
    assert any("disc_loss" in row for row in rows)
    assert not any(keys & set(row) for row in rows)


def test_seed_streams_keep_their_seeds():
    # Each stream is child i of the master seed's SeedSequence, as in an
    # eleven-way spawn whose children 4 and 5 (once noise and eval) nothing
    # read: retiring those, and child 11 (once trainer mixing), moved no
    # other stream.
    names = ("env", "student", "trainer", "disc", None, None, "mix", "init_student",
             "init_trainer", "init_disc", "init_airl")
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
    # A collected step's trainer reward is one 1-row forward of the
    # trainer's actor; no update forwards a single row.
    cfg = RunConfig(algorithm="rile_off", seed=3, freeze_threshold=0.0,
                    **{**TINY, "early_stop_success": False})
    artifacts, n = _one_row_trainer_forwards(cfg, monkeypatch)

    assert artifacts.steps_run == cfg.total_steps and artifacts.freeze_step is None
    assert n == cfg.total_steps


@pytest.mark.parametrize("algorithm", ["rile_off", "rile_on"])
def test_each_trainer_batch_draws_its_actions_in_one_forward(algorithm, monkeypatch):
    # A trainer batch's actions come from one forward of the trainer's
    # actor over the batch's rows, and the trainer's update learns from that
    # forward: the reward pathway's update forwards the actor no more.
    inside, forwards, sizes = [], [], []
    original_update = orchestrator._RewardPathway.update
    original_rows = orchestrator.ReplayBuffer.trainer_rows
    original_forward = nets._forward_cached

    def update_spy(pathway, *args):
        inside.append(1)
        try:
            return original_update(pathway, *args)
        finally:
            inside.pop()

    def rows_spy(replay, rng):
        obs, *rest = original_rows(replay, rng)
        sizes.append(len(obs))
        return (obs, *rest)

    def forward_spy(params, x):
        if inside and params.in_dim == OBS_DIM and params.out_dim == 2:
            forwards.append(len(x))
        return original_forward(params, x)

    monkeypatch.setattr(orchestrator._RewardPathway, "update", update_spy)
    monkeypatch.setattr(orchestrator.ReplayBuffer, "trainer_rows", rows_spy)
    monkeypatch.setattr(nets, "_forward_cached", forward_spy)
    cfg = RunConfig(algorithm=algorithm, seed=3, freeze_threshold=0.0,
                    **{**TINY, "early_stop_success": False})
    artifacts = run_training(cfg, EXPERT)

    assert artifacts.steps_run == cfg.total_steps
    assert len(sizes) >= cfg.total_steps // TINY["env"].max_steps
    assert forwards == sizes


@pytest.mark.parametrize("algorithm", ["rile_off", "gail", "airl"])
def test_an_update_forwards_each_network_once_per_batch(algorithm, monkeypatch):
    # Each forward is computed once and reused by its backward: within one
    # update (the student's batch and step, then the reward pathway's) no
    # network is forwarded twice over the same rows.
    updates, repeats = [], []  # the forwards of each update, as (net, rows) keys

    def spy_on(original):
        def spy(params, x):
            key = (id(params), x.shape, x.tobytes())
            if updates and updates[-1] is not None:
                if key in updates[-1]:
                    repeats.append((params.in_dim, params.out_dim, len(x)))
                updates[-1].add(key)
            return original(params, x)
        return spy

    original_update = orchestrator._update

    def update_spy(*args):
        updates.append(set())
        try:
            return original_update(*args)
        finally:
            updates.append(None)  # forwards outside an update are not counted

    monkeypatch.setattr(nets, "_forward_cached", spy_on(nets._forward_cached))
    monkeypatch.setattr(discriminator, "_forward_cached",
                        spy_on(discriminator._forward_cached))
    monkeypatch.setattr(orchestrator, "_update", update_spy)
    cfg = RunConfig(algorithm=algorithm, seed=3, freeze_threshold=0.0,
                    **{**TINY, "early_stop_success": False})
    artifacts = run_training(cfg, EXPERT)

    # updates every 4 steps from step 52 to 400, each with forwards
    counted = [keys for keys in updates if keys is not None]
    assert len(counted) == (400 - 52) // 4 + 1 and all(counted)
    assert not repeats, f"forwarded twice in one update: {repeats[:3]}"



@pytest.mark.parametrize("algorithm,steps", [("rile_off", 5), ("gail", 3), ("airl", 4), ("bc", None)])
def test_each_gradient_reaches_adam_before_its_networks_next_backward(algorithm, steps,
                                                                      monkeypatch):
    # A gradient is a row of its network's scratch, valid until that
    # network's next backward: every learner steps with each gradient, bits
    # unchanged, before its network's next backward. One update (step 52,
    # the first after warm-up) makes one backward and step per learner's
    # network; bc runs one epoch of minibatches.
    pending, stepped, faults = {}, [], []  # pending: id(net) -> (gradient, its bits)

    def backward_spy(original):
        def spy(params, *rest):
            if id(params) in pending:
                faults.append("a second backward before the step")
            grad = original(params, *rest)
            pending[id(params)] = (grad, grad.copy())
            return grad
        return spy

    def step_spy(original):
        def spy(params, grad, state):
            held, bits = pending.pop(id(params), (None, None))
            if grad is not held or not np.array_equal(grad, bits):
                faults.append("a step on another gradient, or on changed bits")
            stepped.append(params)
            return original(params, grad, state)
        return spy

    for module in (agents, discriminator, baselines):
        monkeypatch.setattr(module, "mlp_backward", backward_spy(module.mlp_backward))
        monkeypatch.setattr(module, "adam_step", step_spy(module.adam_step))
    cfg = RunConfig(algorithm=algorithm, seed=3,
                    **{**TINY, "total_steps": 52, "bc_epochs": 1, "early_stop_success": False})
    run_training(cfg, EXPERT)
    assert not faults and not pending
    assert stepped and (steps is None or len(stepped) == steps)


def _pathway(cfg):
    """The reward pathway of a seed-0 run of cfg, with its student."""
    streams = orchestrator.seed_streams(0)
    student = make_actor_critic(EXPERT.s.shape[1], EXPERT.a.shape[1], cfg.student_hidden,
                                streams["init_student"])
    return orchestrator._RewardPathway(cfg, EXPERT, student, streams)


def test_the_trainer_rewards_the_state_action_rows(monkeypatch):
    # The collector's obs column is [s, a] of each step: the state the
    # student acted in and the action it chose (not the one the noisy
    # environment executed).
    cfg = RunConfig(algorithm="rile_off", **{**TINY, "env": MazeSpec(max_steps=12,
                                                                    action_noise=0.1)}).validate()
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

    # The trainer observes each such (state, action) row: the student's
    # rewards there are its deterministic actions, live or frozen, and
    # reading them draws nothing from the trainer stream.
    cfg = RunConfig(algorithm="rile_off").validate()
    pathway = _pathway(cfg)
    rng = np.random.default_rng(0)
    obs, sp = rng.uniform(-1, 1, (5, 4)), rng.uniform(-1, 1, (5, 2))
    untouched = copy.deepcopy(pathway.trainer_rng)

    y = mlp_forward(pathway.trainer.actor, obs)
    assert np.array_equal(pathway.student_rewards(obs, sp), np.tanh(y[:, 0]))
    pathway.freeze_step = 0
    assert np.array_equal(pathway.student_rewards(obs, sp), np.tanh(y[:, 0]))
    assert pathway.trainer_rng.random() == untouched.random()


@contextmanager
def _trainer_draws_checked():
    """Within the block, every trainer update asserts that its batch's
    actions are trainer_act on its obs from a copy of the trainer stream
    taken just after the batch's window draw, and that the forward it is
    given is that of the actor over the obs. Yields the list of the checked
    batches' (obs, a_t)."""
    checked, after_draw = [], []
    sample, update = orchestrator.ReplayBuffer.sample, orchestrator.trainer_update

    def sample_spy(store, batch, window, rng, *rest):
        b = sample(store, batch, window, rng, *rest)
        after_draw.append(copy.deepcopy(rng))
        return b

    def update_spy(agent, batch, fwd):
        obs, a_t = batch[:2]
        twin = dataclasses.replace(agent, actor=agent.actor.copy())
        a_twin, (y_twin, _) = trainer_act(twin, obs, after_draw[-1])
        assert np.array_equal(a_t, a_twin) and np.array_equal(fwd[0], y_twin)
        checked.append((obs, a_t))
        return update(agent, batch, fwd)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(orchestrator.ReplayBuffer, "sample", sample_spy)
        m.setattr(orchestrator, "trainer_update", update_spy)
        yield checked


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
    # each head holds its hidden activations and its input rows cast to
    # the heads' dtype: 32,768 and 61,440 bytes in float32
    held = [sum(b.nbytes for b in net.ws._bufs.values())
            for net in (heads.reward, heads.potential)]
    size = heads.reward.flat.itemsize
    assert held == [256 * (16 + 12 + 4) * size, 512 * (16 + 12 + 2) * size]


@pytest.mark.parametrize("algorithm", ["rile_off", "gail", "airl"])
def test_every_trained_network_is_float32(monkeypatch, algorithm):
    # After a run, each network the pathway lists and each Adam state of
    # its learners is float32; what the networks output is fresh float64.
    pathways = []

    class Recorded(orchestrator._RewardPathway):
        def __init__(self, *args):
            super().__init__(*args)
            pathways.append(self)

    monkeypatch.setattr(orchestrator, "_RewardPathway", Recorded)
    run_training(RunConfig(algorithm=algorithm, **TINY), EXPERT)
    (pathway,) = pathways
    assert len(pathway.nets) == {"rile_off": 7, "gail": 4, "airl": 5}[algorithm]
    learners = [pathway.student, pathway.trainer, pathway.disc, pathway.airl]
    opts = [v for learner in learners if learner is not None
            for v in vars(learner).values() if isinstance(v, nets.AdamState)]
    # one Adam state per network but the critic targets
    assert len(opts) == len(pathway.nets) - 1 - (pathway.trainer is not None)
    assert all(opt.step > 0 and opt.m.dtype == opt.v.dtype == np.float32 for opt in opts)
    rng = np.random.default_rng(0)
    obs, sp = rng.uniform(-1, 1, (16, OBS_DIM)), rng.uniform(0, 1, (16, 2))
    for net in pathway.nets.values():
        assert net.flat.dtype == np.float32
        y = mlp_forward(net, obs[:, :net.in_dim])
        assert y.dtype == np.float64
        assert not any(np.shares_memory(y, b) for b in net.ws._bufs.values())
    assert pathway.student_rewards(obs, sp).dtype == np.float64


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


def _row(k):
    """Collected row k: obs filled with k, sp with -k, and an episode end
    on each multiple of 3."""
    return {"obs": np.full(4, float(k)), "sp": np.full(2, -float(k)), "episode_end": k % 3 == 0}


def _store(capacity):
    """A seed-0 rile_off ReplayBuffer of TINY with capacity slots
    (student_buffer + 1) and no rows."""
    cfg = RunConfig(algorithm="rile_off", **{**TINY, "student_buffer": capacity - 1})
    return orchestrator.ReplayBuffer(cfg, _pathway(cfg), orchestrator.seed_streams(0))


def _held(store, rows):
    """(obs, sp, end) of the given rows, read from their slots."""
    slots = np.asarray(rows) % store.capacity
    return store.obs[slots], store.sp[slots], store.end[slots]


class TestReplayBuffer:
    def filled(self):
        # rows 0-4, one at a time; rows 3 and 4 wrap past slot 2
        store = _store(3)
        for k in range(5):
            store.insert(_row(k))
        return store

    def test_holds_the_newest_rows_and_a_full_sample_returns_each_once(self):
        # five rows in three slots: rows 0 and 1 were overwritten
        store = self.filled()
        assert store.rows == 5
        rows = store.sample(3, 3, np.random.default_rng(1))
        assert sorted(rows) == [2, 3, 4]
        obs, sp, end = _held(store, rows)
        assert np.array_equal(obs, np.repeat(rows[:, None], 4, axis=1))
        assert np.array_equal(sp, -obs[:, :2]) and end.tolist() == (rows % 3 == 0).tolist()

    def test_sampling_more_rows_than_held_rejected(self):
        with pytest.raises(ValueError, match="cannot sample 4"):
            self.filled().sample(4, 4, np.random.default_rng(0))


@pytest.mark.parametrize("algorithm", ["rile_off", "rile_on"])
def test_a_run_writes_every_row_into_the_arrays_the_store_was_built_with(algorithm,
                                                                         monkeypatch):
    # The store's obs, sp and end are allocated once, at student_buffer + 1
    # rows, and a TINY run's rows (400, fewer than its slots) land in slots
    # 0-399 of those same arrays.
    stores, collected = [], []
    init, step = orchestrator.ReplayBuffer.__init__, orchestrator._Collector.step

    def init_spy(store, *args):
        init(store, *args)
        stores.append((store, store.obs, store.sp, store.end))

    def step_spy(collector, student):
        collected.append(step(collector, student))
        return collected[-1]

    monkeypatch.setattr(orchestrator.ReplayBuffer, "__init__", init_spy)
    monkeypatch.setattr(orchestrator._Collector, "step", step_spy)
    run_training(RunConfig(algorithm=algorithm, seed=3,
                           **{**TINY, "early_stop_success": False}), EXPERT)
    [(store, *arrays)] = stores
    assert all(a is b for a, b in zip((store.obs, store.sp, store.end), arrays))
    assert [len(a) for a in arrays] == [TINY["student_buffer"] + 1] * 3
    n = store.rows
    assert n == len(collected) == 400
    for name, key in (("obs", "obs"), ("sp", "sp"), ("end", "episode_end")):
        assert np.array_equal(getattr(store, name)[:n], [row[key] for row in collected])


@pytest.mark.parametrize("algorithm,batches", [("rile_off", 3), ("gail", 2), ("airl", 2)])
def test_the_store_carries_every_insert_and_every_batch_draw(algorithm, batches,
                                                            monkeypatch):
    # The bench's orchestrator.buffer_insert and buffer_sample spans wrap
    # ReplayBuffer.insert and .sample: each collected step goes through one
    # insert, and each update draws each of its student, discriminator and
    # trainer batches through one sample.
    calls = {"insert": 0, "sample": 0, "_update": 0}

    def counted(name, original):
        def spy(*args):
            calls[name] += 1
            return original(*args)
        return spy

    for name in ("insert", "sample"):
        monkeypatch.setattr(orchestrator.ReplayBuffer, name,
                            counted(name, getattr(orchestrator.ReplayBuffer, name)))
    monkeypatch.setattr(orchestrator, "_update", counted("_update", orchestrator._update))
    cfg = RunConfig(algorithm=algorithm, seed=3, freeze_threshold=0.0,
                    **{**TINY, "early_stop_success": False})
    artifacts = run_training(cfg, EXPERT)

    # updates every 4 steps from step 52 to 400; the trainer does not freeze
    assert calls["insert"] == artifacts.steps_run == 400
    assert calls["_update"] == (400 - 52) // 4 + 1
    assert calls["sample"] == batches * calls["_update"]


def _fifo_sample(rows, slots, batch_size, rng):
    """batch_size of rows, drawn as a FIFO of slots slots fed rows in order
    draws them: row i overwrites slot i % slots."""
    fifo = {}
    for i, row in enumerate(rows):
        fifo[i % slots] = row
    return [fifo[j] for j in rng.choice(len(fifo), size=batch_size, replace=False)]


@pytest.mark.parametrize("window,newest", [(2, 0), (5, 0), (5, 1), (None, 0)])
def test_a_window_samples_as_a_fifo_of_its_slots(window, newest):
    # A store of 6 slots fed rows 0-19 one at a time. A sample of its
    # newest window rows (all 6 when None) among all rows but the newest
    # `newest` draws the rows that a FIFO of window slots fed those rows
    # draws with the same rng, before and after the window and the store wrap.
    store = _store(6)
    window = window or store.capacity
    for rows in range(1, 21):
        store.insert(_row(rows - 1))
        end = rows - newest
        if end < 1:
            continue
        size = min(3, end, window)
        got = store.sample(size, window, np.random.default_rng(rows), end)
        fifo = _fifo_sample(range(end), window, size, np.random.default_rng(rows))
        assert got.tolist() == _held(store, got)[0][:, 0].tolist() == fifo, rows


def _replay_of(ends, trainer_batch, **overrides):
    """A rile_off ReplayBuffer of TINY with overrides, fed one row per
    episode-end flag in ends: row i has obs and sp filled with i."""
    cfg = RunConfig(algorithm="rile_off", **{**TINY, "trainer_batch": trainer_batch, **overrides})
    replay = orchestrator.ReplayBuffer(cfg.validate(), _pathway(cfg),
                                       orchestrator.seed_streams(0))
    for i, end in enumerate(ends):
        replay.insert({"obs": np.full(4, float(i)), "sp": np.full(2, float(i)),
                       "episode_end": end})
    return replay


def _check_trainer_rows(replay, ends, rows):
    """Asserts that a trainer batch of len(rows) rows holds the given rows,
    each with the next row's obs as its next observation and done 0, or
    zeros and done 1 where the row ends an episode."""
    replay.cfg.trainer_batch = len(rows)
    obs, obsp, done = replay.trainer_rows(np.random.default_rng(0))
    got = obs[:, 0].astype(int)
    assert sorted(got) == list(rows)
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
    replay.insert({"obs": np.full(4, 4.0), "sp": np.full(2, 4.0), "episode_end": True})
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
        obs, _, _ = replay.student_batch(np.random.default_rng(seed))
        assert sorted(obs[:, 0]) == [6, 7, 8, 9]


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
    """For each update of a seed-3 rile_on TINY run: the obs of the rollout
    it trained on, the rows inserted since the last episode end, and those
    of its student, discriminator and trainer batches. Asserts that each
    whole rollout of n rows ending at step s made s//4 - (s-n)//4 updates."""
    rollouts, batches = [], []  # rollouts: [obs rows, step, updates], newest last
    replay = orchestrator.ReplayBuffer
    insert, student_batch = replay.insert, replay.student_batch
    disc_rows, trainer_rows = replay.disc_rows, replay.trainer_rows

    def insert_spy(r, row):
        if not rollouts or rollouts[-1][1] is not None:  # the last one ended
            rollouts.append([[], None, 0])
        rollouts[-1][0].append(row["obs"])
        if row["episode_end"]:
            rollouts[-1][1] = r.rows + 1
        return insert(r, row)

    def student_spy(r, rng):
        b = student_batch(r, rng)
        rollouts[-1][2] += 1
        batches.append([np.array(rollouts[-1][0]), b[0]])
        return b

    def disc_spy(r, rng):
        b = disc_rows(r, rng)
        batches[-1].append(b[0])
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
    whole = [(len(obs), s, updates) for obs, s, updates in rollouts if s is not None]
    assert whole and all(updates == s // 4 - (s - n) // 4 for n, s, updates in whole)
    assert len(batches) == sum(updates for _, _, updates in whole)
    return batches


def _row_set(obs):
    return sorted(row.tobytes() for row in obs)


def test_each_rile_on_update_trains_on_the_whole_rollout_once(monkeypatch):
    # Each update of a rollout trains on the whole rollout: each of its
    # student and trainer batches holds each row of the rollout exactly once.
    for rollout, student, _, trainer in _rile_on_batches(monkeypatch):
        assert _row_set(student) == _row_set(trainer) == _row_set(rollout)


def test_each_rile_on_disc_batch_holds_distinct_rows_of_the_rollout(monkeypatch):
    # every discriminator batch of every update of a rollout
    for rollout, _, disc, _ in _rile_on_batches(monkeypatch):
        rows = _row_set(disc)
        assert len(rows) == len(set(rows)) == min(TINY["disc_batch"], len(rollout))
        assert set(rows) <= set(_row_set(rollout))


@pytest.mark.parametrize("algorithm", ["rile_off", "rile_on"])
def test_each_step_updates_once_per_multiple_of_update_every_since_the_last_chance(
        algorithm, monkeypatch):
    # One rule sets every update count: at step s, one update per multiple
    # of UPDATE_EVERY (4) in (s - n, s], where n is the rows since the
    # learners' last chance to update. Off policy n is 1, so rile_off
    # updates once on every 4th step past the 50-step warm-up. rile_on's
    # learners wait for the episode to end, so a whole rollout of n rows
    # ending at step s makes s//4 - (s-n)//4 updates, all at step s, and
    # no other step (the cut rollout at the run's end included) makes any.
    ends, updates = [], []
    step, update = orchestrator._Collector.step, orchestrator._update

    def step_spy(collector, student):
        row = step(collector, student)
        ends.append(row["episode_end"])
        return row

    def update_spy(pathway, source, s, rng):
        updates.append(s)
        return update(pathway, source, s, rng)

    monkeypatch.setattr(orchestrator._Collector, "step", step_spy)
    monkeypatch.setattr(orchestrator, "_update", update_spy)
    cfg = RunConfig(algorithm=algorithm, seed=3, **{**TINY, "early_stop_success": False})
    assert run_training(cfg, EXPERT).steps_run == len(ends) == 400

    if algorithm == "rile_off":
        assert updates == list(range(52, 401, 4))
        return
    end_steps = [s for s, end in enumerate(ends, 1) if end]
    assert end_steps[-1] < 400  # the run's last rollout is cut
    want = [s for start, s in zip([0, *end_steps], end_steps)
            for _ in range(s // 4 - start // 4)]
    assert updates == want and len(updates) > len(end_steps)


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
    # Off-policy runs first update at step 52 (a multiple of UPDATE_EVERY past
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
    the obs of those rows. Asserts that each trainer batch draws the
    actions of all its rows from the trainer stream after its window draw."""
    expert = {row.tobytes() for row in orchestrator.expert_transition_table(EXPERT)["obs"]}
    batches = {"student": [], "trainer": []}
    student_batch = orchestrator.ReplayBuffer.student_batch

    def record(key, obs):
        mask = np.array([row.tobytes() in expert for row in obs])
        batches[key].append((mask, obs[mask]))

    def student_spy(replay, rng):
        b = student_batch(replay, rng)
        record("student", b[0])
        return b

    with monkeypatch.context() as m, _trainer_draws_checked() as checked:
        m.setattr(orchestrator.ReplayBuffer, "student_batch", student_spy)
        run_training(cfg, EXPERT)
    for obs, _ in checked:
        record("trainer", obs)
    return batches


@pytest.mark.parametrize("mix_student", [0.3, 0.0])
def test_expert_mix_fractions_are_honoured(mix_student, monkeypatch):
    # Every student batch of B rows holds round(frac * B) expert rows,
    # first; every trainer batch holds collected rows only.
    cfg = RunConfig(algorithm="rile_off", seed=3, expert_mix_student=mix_student,
                    **{**TINY, "early_stop_success": False})
    batches = _mixed_batches(cfg, monkeypatch)
    # updates every 4 steps from step 52 to 400; the trainer does not freeze
    assert len(batches["student"]) == len(batches["trainer"]) == (400 - 52) // 4 + 1
    k = round(mix_student * cfg.student_batch)
    for mask, _ in batches["student"]:
        assert mask.tolist() == [True] * k + [False] * (cfg.student_batch - k)
    assert not any(mask.any() for mask, _ in batches["trainer"])


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
