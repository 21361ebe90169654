"""Training loop and run lifecycle.

Every algorithm shares one run lifecycle: the set-up, the logs, the step-0
checkpoint, the training and a report at its last step. bc trains by
baselines.train_bc's epochs; one loop serves rile_off, rile_on, gail and
airl. Each pass collects one environment step with the student, scores
it with the learned reward and, once the store is ready, makes one update
(the student, then the discriminator or AIRL heads, then the trainer) per
multiple of UPDATE_EVERY in (s - n, s] at step s: n is the rows since the
learners' last chance to update, one off policy and rile_on's whole
rollout once its episode ends. A report at each multiple of eval_every
evaluates the student, closes the reward-metrics window, writes one
metrics.jsonl row and checkpoints the nets; the last report's checkpoint
is step-final. Every adversarial run keeps one FIFO store of the
collected rows, of which the student, discriminator and trainer batches
sample windows (the student's relabeled and mixed with expert rows at
sample time); under rile_on each window is the rollout, the rows since
the last episode end.
Every adversarial algorithm collects through the same path, so seed-paired
runs differ only in the reward pathway: _RewardPathway is the one place
that knows which learners a run has, and it scores, updates, freezes and
lists them for checkpoints. Every random draw comes from named streams
derived from one master seed, which makes whole runs bit-reproducible.

Every learner reads the expert from one table, ExpertDataset's arrays.
Every reward net reads one input row per transition, obs = [s, a]. Only
_Collector.step and expert_transition_table build it, and the store
holds it in place of s and a: a row is obs, sp and end. The student is
paid the trainer's deterministic action; the trainer acts when it
updates, by policy samples, and learns from the forward it drew them
from. Its next observation, built only by ReplayBuffer.trainer_rows, is
the next row's obs, and zeros past an episode end, where done = 1 cancels
its value.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import baselines
from .agents import (
    ActorCritic,
    make_actor_critic,
    student_act,
    student_update,
    trainer_act,
    trainer_act_batch,
    trainer_reward,
    trainer_update,
)
from .discriminator import DiscriminatorNet, disc_output, disc_update, make_discriminator
from .envs import ExpertDataset, MazeSpec, env_reward, maze_reset, maze_step
from .metrics import MetricsWindow, cpr, evaluate_policy, fs_rfdc, rfdc
from .nets import load_mlp, mlp_forward, one_blas_thread, save_mlp

ALGORITHMS = ("rile_on", "rile_off", "gail", "airl", "bc")
DISC_LR = 3e-5  # the Adam rate of the discriminator and of AIRL's heads
UPDATE_EVERY = 4  # the env steps per update; diagnostics rows come 25 times rarer


class RunAborted(RuntimeError):
    """Raised when a run hits non-finite diagnostics; the last healthy
    state has already been checkpointed."""


@dataclass
class RunConfig:
    """Everything a run needs; defaults follow the tuned desk-scale setup.

    No run varies the rates: the student and the trainer learn at
    make_actor_critic's default lr and entropy bonus, D and AIRL's heads at DISC_LR.
    Nor these: the discount, make_actor_critic's gamma, which AIRL's shaping
    reads from the student; the critic targets' rate, agents.TAU; the update
    cadence, UPDATE_EVERY. The covariate shifts are env's, a MazeSpec."""

    algorithm: str = "rile_off"
    env: MazeSpec = field(default_factory=MazeSpec)
    # buffers and batches
    student_buffer: int = 1_000_000
    trainer_buffer: int = 16_384
    disc_buffer: int = 16_384
    student_batch: int = 256
    trainer_batch: int = 256
    disc_batch: int = 32
    epsilon_greedy: float = 0.2  # the student's chance of a uniform action
    # networks (desk-scale defaults; override per run)
    student_hidden: tuple = (64, 64)
    trainer_hidden: tuple = (64, 64)
    disc_hidden: tuple = (64, 64)
    # trainer freezing
    freeze_threshold: float = 0.1
    freeze_window: int = 100
    # expert mixing (share of each student batch sourced from expert data, as
    # in SQIL; the trainer's batch is collected rows only); off-policy runs
    # only: rile_on's batches are its rollout, and bc fits the expert alone
    expert_mix_student: float = 0.0
    # schedule
    total_steps: int = 200_000
    warmup_steps: int = 2_000
    eval_every: int = 10_000  # the report cadence: eval, metrics window, checkpoint
    eval_episodes: int = 10
    early_stop_success: bool = True
    frozen_reward: str | None = None  # path of a trainer actor or an AIRL reward net
    # bc only
    bc_epochs: int = 200
    bc_holdout: float = 0.1
    seed: int = 0

    def validate(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        for cap, batch, name in (
            (self.student_buffer, self.student_batch, "student"),
            (self.trainer_buffer, self.trainer_batch, "trainer"),
            (self.disc_buffer, self.disc_batch, "disc"),
        ):
            if cap < batch:
                raise ValueError(f"{name} buffer capacity {cap} < batch size {batch}")
            if cap > self.student_buffer:  # a window of the student's store
                raise ValueError(f"{name}_buffer {cap} > student_buffer {self.student_buffer}")
        for name in ("student_batch", "trainer_batch", "disc_batch", "eval_episodes",
                     "freeze_window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.eval_every < 2:
            raise ValueError("eval_every must be >= 2: cpr needs two samples")
        if not 0.0 <= self.bc_holdout < 1.0:
            raise ValueError("bc_holdout must be in [0, 1)")
        for name in ("epsilon_greedy", "expert_mix_student"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.expert_mix_student > 0 and self.algorithm in ("rile_on", "bc"):
            raise ValueError(f"expert_mix_student mixes expert rows into off-policy batches, "
                             f"which {self.algorithm} does not sample")
        if self.frozen_reward is not None and self.algorithm not in ("rile_off", "rile_on"):
            raise ValueError(f"frozen_reward runs under rile_off or rile_on: "
                             f"{self.algorithm} trains its own reward or none")
        return self


# Each stream is seeded by child i of the master seed's SeedSequence, so its
# seed depends on its own i only; a new stream takes a new i (4, 5, 11 unused).
# The trainer stream is read only by trainer batches: their windows, then their actions.
STREAMS = {"env": 0, "student": 1, "trainer": 2, "disc": 3, "mix": 6, "init_student": 7,
           "init_trainer": 8, "init_disc": 9, "init_airl": 10}


def seed_streams(master_seed: int) -> dict:
    """One master seed split deterministically into named substreams."""
    return {n: np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(i,)))
            for n, i in STREAMS.items()}


def expert_transition_table(expert: ExpertDataset) -> dict:
    """Expert rows in the shapes batches use: the input rows obs = [s, a]
    and their next states sp."""
    return {"obs": np.concatenate([expert.s, expert.a], axis=1), "sp": expert.sp}


@dataclass
class RunArtifacts:
    student: ActorCritic
    trainer: ActorCritic | None
    disc: DiscriminatorNet | None
    airl: baselines.AirlHeads | None
    metrics_rows: list
    diagnostics_rows: list
    steps_run: int
    freeze_step: int | None


class _Logger:
    """Append-only line-delimited records, mirrored in memory."""

    def __init__(self, run_dir, name):
        self.rows = []
        self.path = None
        if run_dir is not None:
            self.path = os.path.join(run_dir, name)
            open(self.path, "w").close()

    def write(self, row: dict):
        self.rows.append(row)
        if self.path:
            with open(self.path, "a") as f:
                f.write(json.dumps(row, separators=(",", ":")) + "\n")


def _checkpoint(run_dir, tag, nets):
    """Saves each of nets ({"dir/file": params}) under run_dir/step-tag/."""
    if run_dir is None:
        return
    for name, params in nets.items():
        path = os.path.join(run_dir, f"step-{tag}", name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        save_mlp(params, path)


def _agent_nets(name, agent: ActorCritic) -> dict:
    return {f"{name}/{n}.mlp": getattr(agent, n)
            for n in ("actor", "critic", "critic_target")}


class _RewardPathway:
    """The one owner of the learners behind the student's reward: the
    trainer with its discriminator, GAIL's discriminator, AIRL's heads, or
    a frozen net. It scores the student's rows, updates the learners,
    freezes the trainer, and lists every network of the run, the student's
    included, in nets by its checkpoint file."""

    def __init__(self, cfg: RunConfig, expert: ExpertDataset, student: ActorCritic,
                 streams):
        self.cfg = cfg
        self.student = student
        self.state_dim = expert.s.shape[1]
        self.expert_table = expert_transition_table(expert)
        self.disc_rng, self.trainer_rng = streams["disc"], streams["trainer"]
        self.nets = _agent_nets("student", student)
        self.trainer = self.disc = self.airl = None
        # the trainer's absolute critic losses over the freeze window
        self.critic_losses = deque(maxlen=cfg.freeze_window)
        self.freeze_step = None
        self.frozen = None
        obs_dim = self.state_dim + expert.a.shape[1]
        if cfg.frozen_reward is not None:
            self.frozen = load_mlp(cfg.frozen_reward)
            if self.frozen.in_dim != obs_dim or self.frozen.out_dim not in (1, 2):
                raise ValueError(
                    f"frozen_reward net maps {self.frozen.in_dim} -> {self.frozen.out_dim}; "
                    f"it must map {obs_dim} -> 2 (a trainer actor) or 1 (an AIRL reward net)")
            return
        if cfg.algorithm in ("rile_on", "rile_off"):
            self.trainer = make_actor_critic(obs_dim, 1, cfg.trainer_hidden,
                                             streams["init_trainer"])
            self.nets.update(_agent_nets("trainer", self.trainer))
        if cfg.algorithm in ("rile_on", "rile_off", "gail"):
            self.disc = make_discriminator(obs_dim, cfg.disc_hidden, DISC_LR,
                                           streams["init_disc"])
            self.nets["discriminator/net.mlp"] = self.disc.params
        if cfg.algorithm == "airl":
            self.airl = baselines.make_airl_heads(
                self.state_dim, expert.a.shape[1], cfg.disc_hidden, DISC_LR, student.gamma,
                streams["init_airl"])
            self.nets.update({"airl/reward.mlp": self.airl.reward,
                              "airl/potential.mlp": self.airl.potential})

    @property
    def trainer_frozen(self) -> bool:
        return self.freeze_step is not None

    def student_rewards(self, obs, sp) -> np.ndarray:
        """Learned reward for student transitions, input rows obs = [s, a]
        with next states sp (read by AIRL's potential only), under the
        current nets. A frozen trainer actor (mean, log_std) rewards by the
        tanh of its mean, a frozen AIRL reward net by its output."""
        if self.frozen is not None:
            r = mlp_forward(self.frozen, obs)[:, 0]
            return np.tanh(r) if self.frozen.out_dim == 2 else r
        if self.trainer is not None:
            return trainer_act_batch(self.trainer, obs)
        if self.disc is not None:
            return baselines.gail_student_reward(disc_output(self.disc, obs))
        return baselines.airl_f_batch(self.airl, obs, sp)[0]

    def expert_rows(self, k: int, rng):
        """(obs, sp) of k expert rows drawn with rng."""
        idx = rng.integers(0, len(self.expert_table["obs"]), size=k)
        return self.expert_table["obs"][idx], self.expert_table["sp"][idx]

    def update(self, source, step) -> dict:
        """Updates the discriminator or AIRL heads (student rows against as
        many expert rows), then the trainer rewarded by the updated
        discriminator, on batches from source. Freezes the trainer once the
        mean of its absolute critic losses over a full window falls below
        the threshold; a frozen trainer reads D no more, so D stops with it.
        Returns their diagnostics."""
        diag = {}
        if self.airl is not None or (self.disc is not None and not self.trainer_frozen):
            obs, sp = source.disc_rows(self.disc_rng)
            expert = self.expert_rows(len(obs), self.disc_rng)
            if self.disc is not None:
                diag.update(disc_update(self.disc, expert[0], obs))
            else:
                diag["disc_loss"] = baselines.airl_update(self.airl, self.student, expert,
                                                          (obs, sp))
        if self.trainer is not None and not self.trainer_frozen:
            obs, obsp, done = source.trainer_rows(self.trainer_rng)
            a_t, fwd = trainer_act(self.trainer, obs, self.trainer_rng)
            r_t = trainer_reward(disc_output(self.disc, obs), a_t)
            loss = trainer_update(self.trainer, (obs, a_t, r_t, obsp, done), fwd)["critic_loss"]
            diag.update(trainer_critic_loss=loss, trainer_reward=np.mean(r_t),
                        trainer_action_mean=np.mean(a_t), trainer_action_std=np.std(a_t))
            self.critic_losses.append(abs(loss))
            if (len(self.critic_losses) == self.critic_losses.maxlen
                    and np.mean(self.critic_losses) < self.cfg.freeze_threshold):
                self.freeze_step = step
        diag["frozen"] = self.trainer_frozen
        return diag


class _Collector:
    """Steps the environment with the current student policy. The same
    code path serves every algorithm, so seed-paired runs produce
    identical rollout streams until rewards first differ."""

    def __init__(self, cfg: RunConfig, streams):
        self.cfg = cfg
        self.env_rng = streams["env"]
        self.student_rng = streams["student"]
        self.state = maze_reset(cfg.env, self.env_rng)
        self.episode_step = 0

    def step(self, student: ActorCritic):
        cfg = self.cfg
        action = student_act(student, self.state, self.student_rng)
        nxt, at_goal = maze_step(cfg.env, self.state, action, self.env_rng)
        self.episode_step += 1
        truncated = self.episode_step >= cfg.env.max_steps
        row = {
            "obs": np.concatenate([self.state, action]), "sp": nxt,
            "episode_end": at_goal or truncated,
            "env_r": env_reward(at_goal),
        }
        if at_goal or truncated:
            self.state = maze_reset(cfg.env, self.env_rng)
            self.episode_step = 0
        else:
            self.state = nxt
        return row


class _WindowTracker:
    """Accumulates paired (learned, environment) reward samples and cuts a
    MetricsWindow with a fixed-probe snapshot at each report."""

    def __init__(self, pathway):
        self.pathway = pathway
        self.learned, self.env = [], []
        self.index = 0
        self.prev_window = None

    def add(self, learned, env_r):
        """Adds a collected step's learned and environment rewards."""
        self.learned.append(learned)
        self.env.append(env_r)

    def close(self) -> dict:
        """Closes the open window and returns its metrics."""
        te = self.pathway.expert_table  # the fixed probe: every expert transition
        snapshot = self.pathway.student_rewards(te["obs"], te["sp"])
        win = MetricsWindow(self.index, np.array(self.learned), np.array(self.env), snapshot)
        row = {"window": self.index}
        if self.prev_window is not None:
            row["rfdc"] = rfdc(self.prev_window, win)
            row["fs_rfdc"] = fs_rfdc(self.prev_window.fixed_snapshot, win.fixed_snapshot)
        c = cpr(win.learned, win.environment)
        row["cpr"] = None if np.isnan(c) else c
        self.prev_window = win
        self.learned, self.env = [], []
        self.index += 1
        return row


class ReplayBuffer:
    """The one batch source of every adversarial run: one FIFO store of the
    collected rows, held in three arrays obs, sp and end, one insert per
    collected step; row i lives in slot i % capacity. The student samples
    its newest student_buffer rows, the discriminator the newest
    disc_buffer, the trainer the newest trainer_buffer of those whose next
    row is known (all but a newest one that ends no episode), with the next
    row's obs. Under rile_on each window is the rollout, the rows since the
    last episode end: the store is ready only when its newest row ends an
    episode. One row more than the student's window is held: the
    trainer's oldest row needs its successor. The first
    round(expert_mix_student * B) rows of a student batch of B rows are then
    expert rows, drawn from the mix stream."""

    def __init__(self, cfg: RunConfig, pathway: _RewardPathway, streams):
        self.cfg = cfg
        self.pathway = pathway
        self.capacity = cfg.student_buffer + 1
        te = pathway.expert_table
        # zeroed pages stay untouched until a row is written to them
        self.obs = np.zeros((self.capacity, te["obs"].shape[1]))
        self.sp = np.zeros((self.capacity, te["sp"].shape[1]))
        self.end = np.zeros(self.capacity, bool)
        self.rows = 0  # the rows inserted
        self.known = 0  # the rows whose next row is known
        self.rollout = 0  # rile_on's window: the rows since the last episode end
        self.mix_rng = streams["mix"]

    def insert(self, row):
        """Writes a collected row's obs, sp and episode end to slot
        rows % capacity. Under rile_on it counts the rows of the rollout:
        a row whose predecessor ended an episode starts a new one."""
        i = self.rows % self.capacity
        self.obs[i], self.sp[i], self.end[i] = row["obs"], row["sp"], row["episode_end"]
        if self.cfg.algorithm == "rile_on":
            self.rollout = 1 if self.known == self.rows else self.rollout + 1
        self.rows += 1
        self.known = self.rows - (not row["episode_end"])

    def ready(self) -> bool:
        cfg = self.cfg
        if self.rollout:
            return self.known == self.rows
        return (self.rows >= max(cfg.student_batch, cfg.warmup_steps, cfg.disc_batch)
                and (self.pathway.trainer is None or self.known >= cfg.trainer_batch))

    def sample(self, batch, window, rng, end=None) -> np.ndarray:
        """Row indices of min(batch, window) of the newest window rows among
        rows 0..end-1 (every row inserted by default); rile_on's window is
        its rollout. The draws are those of a FIFO of window slots fed the
        same rows, which holds row i in slot i % window."""
        window = self.rollout or window
        batch = min(batch, window)
        end = self.rows if end is None else end
        n = min(end, self.capacity, window)
        if batch > n:
            raise ValueError(f"cannot sample {batch} from buffer of size {n}")
        slot = rng.choice(n, size=batch, replace=False)
        return end - n + (slot - end) % n

    def student_batch(self, rng):
        """(obs, sp, r) of a student batch drawn with rng, its first rows
        expert rows, rewarded by the pathway's current nets."""
        cfg = self.cfg
        i = self.sample(cfg.student_batch, cfg.student_buffer, rng) % self.capacity
        obs, sp = self.obs[i], self.sp[i]
        k = round(cfg.expert_mix_student * len(i))
        obs[:k], sp[:k] = self.pathway.expert_rows(k, self.mix_rng)
        return obs, sp, self.pathway.student_rewards(obs, sp)

    def disc_rows(self, rng):
        """(obs, sp) of a discriminator batch drawn with rng."""
        i = self.sample(self.cfg.disc_batch, self.cfg.disc_buffer, rng) % self.capacity
        return self.obs[i], self.sp[i]

    def trainer_rows(self, rng):
        """(obs, obsp, done) of a trainer batch drawn with rng: each row's
        next observation obsp is the next row's obs, or zeros with done = 1
        where the row ends an episode."""
        cfg = self.cfg
        i = self.sample(cfg.trainer_batch, cfg.trainer_buffer, rng, self.known)
        end = self.end[i % self.capacity]
        obsp = np.where(end[:, None], 0.0, self.obs[(i + 1) % self.capacity])
        return self.obs[i % self.capacity], obsp, end.astype(np.float64)


def _update(pathway, source, step, rng) -> dict:
    """Updates the student on a batch drawn from source with rng, then the
    reward pathway's learners. Returns the diagnostics row."""
    obs, sp, r = source.student_batch(rng)
    s, a = np.hsplit(obs, [pathway.state_dim])
    # done = 0: a goal terminal under always-positive rewards teaches dawdling
    sdiag = student_update(pathway.student, (s, a, r, sp, np.zeros(len(s))))
    return {"step": step, **sdiag, **pathway.update(source, step)}


def _report(cfg, pathway, tracker, step, metrics_log) -> float:
    """Evaluates the student, closes the reward-metrics window if it holds
    the two steps cpr needs, and writes both as one metrics.jsonl row at
    step. Returns the goal rate."""
    ret, rate = evaluate_policy(cfg.env, pathway.student, cfg.eval_episodes, seed=cfg.seed)
    window = tracker.close() if len(tracker.learned) >= 2 else {}
    metrics_log.write({"step": step, **window, "eval_return": ret, "goal_rate": rate,
                       "frozen": pathway.trainer_frozen})
    return rate


def _crossings(step: int, n: int, every: int) -> int:
    """The multiples of every that the n steps ending at step passed: the
    one cadence rule of the updates and of their diagnostics rows."""
    return step // every - (step - n) // every


def run_training(config: RunConfig, expert: ExpertDataset,
                 run_dir: str | None = None) -> RunArtifacts:
    """Executes one run per the configured algorithm and returns artifacts.

    rile_off, rile_on, gail and airl share one loop. Each pass collects
    one step into the one store and updates the learners on windows of it
    once per multiple of UPDATE_EVERY that the rows since their last
    chance to update passed (under rile_on, the rollout once its episode
    ends). bc is supervised. Each run ends with a report at its last step,
    whose metrics.jsonl row is the final eval. Every run trains on one
    OpenBLAS thread, whatever its widths: on two, airl with 128x128 nets
    used twice the CPU time per env step at the same speed, and two such
    runs at once each fell from 948-1,147 to 234-272 env steps/s on a
    2-core host (nets.one_blas_thread).
    """
    cfg = config.validate()
    with one_blas_thread():
        return _train(cfg, expert, run_dir)


def _train(cfg: RunConfig, expert: ExpertDataset, run_dir) -> RunArtifacts:
    streams = seed_streams(cfg.seed)
    student = make_actor_critic(expert.s.shape[1], expert.a.shape[1], cfg.student_hidden,
                                streams["init_student"], epsilon_greedy=cfg.epsilon_greedy)
    pathway = _RewardPathway(cfg, expert, student, streams)
    if run_dir is not None:
        os.makedirs(run_dir, exist_ok=True)
    diag_log = _Logger(run_dir, "diagnostics.jsonl")
    metrics_log = _Logger(run_dir, "metrics.jsonl")
    tracker = _WindowTracker(pathway)
    _checkpoint(run_dir, 0, pathway.nets)
    steps_run = 0
    if cfg.algorithm == "bc":
        baselines.train_bc(cfg, expert.s, expert.a, student, streams["student"], diag_log)
    else:
        steps_run = _run_loop(cfg, pathway, tracker, streams, run_dir, diag_log, metrics_log)
    if not metrics_log.rows or metrics_log.rows[-1]["step"] < steps_run:
        _report(cfg, pathway, tracker, steps_run, metrics_log)
    _checkpoint(run_dir, "final", pathway.nets)
    # the learners by name, for callers that read the trained nets
    return RunArtifacts(student, pathway.trainer, pathway.disc, pathway.airl,
                        metrics_log.rows, diag_log.rows, steps_run, pathway.freeze_step)


def _run_loop(cfg, pathway, tracker, streams, run_dir, diag_log, metrics_log) -> int:
    """The adversarial algorithms' loop, from the first step to the last,
    or to the report that stops it early; returns the number of steps run."""
    student = pathway.student
    collector = _Collector(cfg, streams)
    replay = ReplayBuffer(cfg, pathway, streams)

    step = 0
    try:
        while step < cfg.total_steps:
            row = collector.step(student)
            step += 1
            learned = pathway.student_rewards(row["obs"][None], row["sp"][None])[0]
            tracker.add(learned, row["env_r"])

            replay.insert(row)
            n = replay.rollout or 1
            updates = _crossings(step, n, UPDATE_EVERY) if replay.ready() else 0
            for _ in range(updates):
                diag = _update(pathway, replay, step, streams["student"])
            if updates and _crossings(step, n, UPDATE_EVERY * 25):
                diag_log.write(diag)

            if step % cfg.eval_every == 0:
                rate = _report(cfg, pathway, tracker, step, metrics_log)
                if step >= cfg.total_steps or (cfg.early_stop_success and rate == 1.0):
                    break
                _checkpoint(run_dir, step, pathway.nets)
    except ValueError as e:
        _checkpoint(run_dir, f"{step}-abort", pathway.nets)
        raise RunAborted(f"run aborted at step {step}: {e}") from e
    return step
