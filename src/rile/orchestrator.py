"""Training loop and run lifecycle.

Every algorithm shares one run lifecycle: the set-up, the logs, the final
eval and the final checkpoint. bc trains by baselines.train_bc's epochs;
one loop serves rile_off, rile_on, gail and airl. Each pass collects a
chunk of environment steps with the student, scores it with the learned
reward and, when due, updates the student, then the discriminator or AIRL
heads, then the trainer. Off-policy runs draw each batch from a FIFO
replay buffer (expert-mixed at insert time, rewards relabeled at sample
time); rile_on collects the rest of an episode per chunk and updates on
that rollout. Every adversarial algorithm collects through the same
path, so seed-paired runs differ only in the reward pathway. Every random draw
comes from named streams derived from one master seed, which makes whole
runs bit-reproducible.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import baselines
from .agents import (
    REWARD_VARIANTS,
    ActorCritic,
    make_actor_critic,
    student_act,
    student_update,
    trainer_act,
    trainer_act_batch,
    trainer_heads,
    trainer_observation,
    trainer_reward,
    trainer_update,
)
from .discriminator import DiscriminatorNet, disc_output, disc_update, make_discriminator
from .envs import ExpertDataset, MazeSpec, maze_reset, maze_step
from .metrics import MetricsWindow, cpr, evaluate_policy, fs_rfdc, rfdc
from .nets import Workspace, blas_threads_for, mlp_forward, save_mlp

ALGORITHMS = ("rile_on", "rile_off", "gail", "airl", "bc")


class RunAborted(RuntimeError):
    """Raised when a run hits non-finite diagnostics; the last healthy
    state has already been checkpointed."""


@dataclass
class ReplayBuffer:
    """Fixed-capacity FIFO store of homogeneous rows.

    Columns are allocated on first insert. Sampling is uniform without
    replacement within a batch.
    """

    capacity: int
    _cols: dict = field(default_factory=dict)
    _ptr: int = 0
    _size: int = 0

    def __len__(self) -> int:
        return self._size

    def insert(self, **row):
        if not self._cols:
            for k, v in row.items():
                v = np.asarray(v)
                self._cols[k] = np.zeros((self.capacity, *v.shape), dtype=v.dtype)
        if set(row) != set(self._cols):
            raise ValueError("row columns do not match the buffer schema")
        for k, v in row.items():
            self._cols[k][self._ptr] = v
        self._ptr = (self._ptr + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng) -> dict:
        if batch_size > self._size:
            raise ValueError(f"cannot sample {batch_size} from buffer of size {self._size}")
        idx = rng.choice(self._size, size=batch_size, replace=False)
        return {k: v[idx] for k, v in self._cols.items()}


@dataclass
class FreezeMonitor:
    """One-shot detector: fires when the rolling mean absolute critic loss
    over a full window drops below the threshold."""

    window: int = 100
    threshold: float = 0.1
    fired: bool = False
    history: list = field(default_factory=list)

    def check(self, new_loss: float) -> bool:
        if not np.isfinite(new_loss):
            raise ValueError("freeze monitor fed a non-finite loss")
        if self.fired:
            return True
        self.history.append(abs(float(new_loss)))
        if len(self.history) > self.window:
            self.history.pop(0)
        if len(self.history) == self.window and np.mean(self.history) < self.threshold:
            self.fired = True
        return self.fired


@dataclass
class RunConfig:
    """Everything a run needs; defaults follow the tuned desk-scale setup."""

    algorithm: str = "rile_off"
    env: MazeSpec = field(default_factory=MazeSpec)
    trainer_reward_variant: str = "exponential_difference"
    # buffers and batches
    student_buffer: int = 1_000_000
    trainer_buffer: int = 16_384
    disc_buffer: int = 16_384
    student_batch: int = 256
    trainer_batch: int = 256
    disc_batch: int = 32
    # optimization
    student_lr: float = 3e-4
    trainer_lr: float = 3e-4
    disc_lr: float = 3e-5
    gamma: float = 0.99
    tau: float = 0.01
    epsilon_greedy: float = 0.2
    student_entropy: float = 0.2
    trainer_entropy: float = 0.2
    gp_weight: float = 1.0
    advantage_norm: bool = True
    # networks (desk-scale defaults; override per run)
    student_hidden: tuple = (64, 64)
    trainer_hidden: tuple = (64, 64)
    disc_hidden: tuple = (64, 64)
    # trainer freezing
    freeze_threshold: float = 0.1
    freeze_window: int = 100
    # expert mixing (share of replay-buffer insertions sourced from expert
    # data); off-policy algorithms only: rile_on and bc fill no replay buffer
    expert_mix_student: float = 0.0
    expert_mix_trainer: float = 0.0
    # schedule
    total_steps: int = 200_000
    update_every: int = 4
    warmup_steps: int = 2_000
    eval_every: int = 10_000
    eval_episodes: int = 10
    checkpoint_every: int = 10_000
    metric_window: int = 10_000
    early_stop_success: bool = True
    # Treat goal termination as a time limit for the student's value
    # bootstrap (absorbing-state handling). Always-positive learned rewards
    # otherwise make episode termination value-catastrophic, so policies
    # learn to dawdle near the demonstration instead of finishing it.
    bootstrap_through_goal: bool = True
    # environment perturbation (covariate shift) and frozen-reward transfer
    action_noise: float = 0.0
    frozen_reward: dict | None = None  # {"kind": "trainer"|"airl", "path": ...}
    # bc only
    bc_epochs: int = 200
    bc_holdout: float = 0.1
    seed: int = 0

    def validate(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.trainer_reward_variant not in REWARD_VARIANTS:
            raise ValueError(f"unknown trainer reward variant {self.trainer_reward_variant!r}")
        for cap, batch, name in (
            (self.student_buffer, self.student_batch, "student"),
            (self.trainer_buffer, self.trainer_batch, "trainer"),
            (self.disc_buffer, self.disc_batch, "disc"),
        ):
            if cap < batch:
                raise ValueError(f"{name} buffer capacity {cap} < batch size {batch}")
        for name, frac in (("expert_mix_student", self.expert_mix_student),
                           ("expert_mix_trainer", self.expert_mix_trainer)):
            if not 0.0 <= frac <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
            if frac > 0 and self.algorithm in ("rile_on", "bc"):
                raise ValueError(f"{name} needs a replay buffer, which "
                                 f"{self.algorithm} does not fill")
        if self.frozen_reward is not None:
            if self.frozen_reward.get("kind") not in ("trainer", "airl"):
                raise ValueError("frozen_reward.kind must be 'trainer' or 'airl'")
            if self.algorithm == "bc":
                raise ValueError("frozen_reward needs a learned-reward algorithm; "
                                 "bc trains on expert actions only")
        return self


# New streams go at the end: a stream's seed depends on its position only.
STREAM_NAMES = ("env", "student", "trainer", "disc", "noise", "eval", "mix",
                "init_student", "init_trainer", "init_disc", "init_airl", "mix_trainer")


def seed_streams(master_seed: int) -> dict:
    """One master seed split deterministically into named substreams."""
    children = np.random.SeedSequence(master_seed).spawn(len(STREAM_NAMES))
    return {n: np.random.default_rng(c) for n, c in zip(STREAM_NAMES, children)}


def expert_transition_table(expert: ExpertDataset) -> dict:
    """Expert rows in the shapes the buffers use, including the trainer's
    observation stream (next observation pairs the next expert action)."""
    s, a, sp, done = expert.transitions()
    obs = np.concatenate([s, a], axis=1)
    ap = np.vstack([a[1:], a[-1:]])
    ap[done] = 0.0  # next action unused past a terminal
    obsp = np.concatenate([sp, ap], axis=1)
    return {"s": s, "a": a, "sp": sp, "done": done.astype(np.float64),
            "obs": obs, "obsp": obsp}


@dataclass
class RunArtifacts:
    config: RunConfig
    run_dir: str | None
    student: ActorCritic
    trainer: ActorCritic | None
    disc: DiscriminatorNet | None
    airl: object = None
    windows: list = field(default_factory=list)
    metrics_rows: list = field(default_factory=list)
    diagnostics_rows: list = field(default_factory=list)
    final_goal_rate: float = 0.0
    final_return: float = 0.0
    steps_run: int = 0
    freeze_step: int | None = None
    aborted: bool = False


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


def _checkpoint(run_dir, tag, student, trainer, disc, airl):
    if run_dir is None:
        return
    base = os.path.join(run_dir, f"step-{tag}")
    os.makedirs(os.path.join(base, "student"), exist_ok=True)
    save_mlp(student.actor, os.path.join(base, "student", "actor.mlp"))
    save_mlp(student.critic, os.path.join(base, "student", "critic.mlp"))
    save_mlp(student.critic_target, os.path.join(base, "student", "critic_target.mlp"))
    if trainer is not None:
        os.makedirs(os.path.join(base, "trainer"), exist_ok=True)
        save_mlp(trainer.actor, os.path.join(base, "trainer", "actor.mlp"))
        save_mlp(trainer.critic, os.path.join(base, "trainer", "critic.mlp"))
        save_mlp(trainer.critic_target, os.path.join(base, "trainer", "critic_target.mlp"))
    if disc is not None:
        os.makedirs(os.path.join(base, "discriminator"), exist_ok=True)
        save_mlp(disc.params, os.path.join(base, "discriminator", "net.mlp"))
    if airl is not None:
        os.makedirs(os.path.join(base, "airl"), exist_ok=True)
        save_mlp(airl.reward, os.path.join(base, "airl", "reward.mlp"))
        save_mlp(airl.potential, os.path.join(base, "airl", "potential.mlp"))


class _RewardPathway:
    """Per-algorithm learners and the student's learned reward."""

    def __init__(self, cfg: RunConfig, expert: ExpertDataset, streams, state_dim, action_dim):
        self.cfg = cfg
        self.state_dim = state_dim
        self.expert_table = expert_transition_table(expert)
        self.trainer = None
        self.disc = None
        self.airl = None
        self.frozen_trainer = None
        self.frozen_airl_reward = None
        self.frozen_airl_ws = Workspace()  # batch scratch of the frozen reward's forwards
        obs_dim = state_dim + action_dim
        if cfg.frozen_reward is not None:
            kind = cfg.frozen_reward["kind"]
            from .nets import load_mlp

            if kind == "trainer":
                net = load_mlp(cfg.frozen_reward["path"])
                t = make_actor_critic(obs_dim, 1, cfg.trainer_hidden,
                                      streams["init_trainer"])
                t.actor = net
                t.frozen = True
                self.frozen_trainer = t
            else:
                self.frozen_airl_reward = load_mlp(cfg.frozen_reward["path"])
            return
        if cfg.algorithm in ("rile_on", "rile_off"):
            self.trainer = make_actor_critic(
                obs_dim, 1, cfg.trainer_hidden, streams["init_trainer"],
                actor_lr=cfg.trainer_lr, critic_lr=cfg.trainer_lr,
                entropy_coef=cfg.trainer_entropy, gamma=cfg.gamma, tau=cfg.tau,
                advantage_norm=cfg.advantage_norm)
        if cfg.algorithm in ("rile_on", "rile_off", "gail"):
            self.disc = make_discriminator(state_dim, action_dim, cfg.disc_hidden,
                                           cfg.disc_lr, streams["init_disc"])
        if cfg.algorithm == "airl":
            self.airl = baselines.make_airl_heads(state_dim, action_dim, cfg.disc_hidden,
                                                  cfg.disc_lr, cfg.gamma,
                                                  streams["init_airl"])

    def step_heads(self, chunk):
        """The live trainer's heads at a collected chunk's rows, read by
        their rewards and by the trainer's rows or replay row built from
        them; None when the trainer has no more rows to act on."""
        if self.trainer is None or self.trainer.frozen:
            return None
        return trainer_heads(self.trainer, np.concatenate([chunk["s"], chunk["a"]], axis=1))

    def student_rewards(self, student, s, a, sp, heads=None) -> np.ndarray:
        """Learned reward for student transitions under the current nets.
        heads, the live trainer's trainer_heads at (s, a) when a forward
        already made them, spares its forward."""
        if self.frozen_trainer is not None:
            return trainer_act_batch(self.frozen_trainer, np.concatenate([s, a], axis=1))
        if self.frozen_airl_reward is not None:
            return mlp_forward(self.frozen_airl_reward, np.concatenate([s, a], axis=1),
                               self.frozen_airl_ws)[:, 0]
        if self.trainer is not None:
            return trainer_act_batch(self.trainer, np.concatenate([s, a], axis=1), heads)
        if self.cfg.algorithm == "gail":
            d = disc_output(self.disc, s, a)
            return baselines.gail_student_reward(d)
        return baselines.airl_f_batch(self.airl, s, a, sp)[0]


class _Collector:
    """Steps the environment with the current student policy. The same
    code path serves every algorithm, so seed-paired runs produce
    identical rollout streams until rewards first differ."""

    def __init__(self, cfg: RunConfig, streams):
        self.cfg = cfg
        self.env_rng = streams["env"]
        self.student_rng = streams["student"]
        self.state = maze_reset(cfg.env)
        self.episode_step = 0
        self.episodes = 0

    def step(self, student: ActorCritic):
        cfg = self.cfg
        action = student_act(student, self.state, "epsilon_greedy", self.student_rng)
        env_action = action
        if cfg.action_noise > 0:
            env_action = action + self.env_rng.normal(0.0, cfg.action_noise, size=2)
        nxt, _, at_goal = maze_step(cfg.env, self.state, env_action)
        self.episode_step += 1
        truncated = self.episode_step >= cfg.env.max_steps
        done = 0.0 if cfg.bootstrap_through_goal else float(at_goal)
        row = {
            "s": self.state.copy(), "a": np.asarray(action), "sp": nxt.copy(),
            "done": done, "episode_end": at_goal or truncated,
            "env_r": cfg.env.env_reward(at_goal),
        }
        if at_goal or truncated:
            self.state = maze_reset(cfg.env)
            self.episode_step = 0
            self.episodes += 1
        else:
            self.state = nxt
        return row


class _WindowTracker:
    """Accumulates paired (learned, environment) reward samples and cuts a
    MetricsWindow with a fixed-probe snapshot every metric_window steps."""

    def __init__(self, cfg, pathway, probe_s, probe_a):
        self.cfg = cfg
        self.pathway = pathway
        self.probe_s, self.probe_a = probe_s, probe_a
        self.learned, self.env = [], []
        self.index = 0
        self.prev_window = None
        self.windows = []

    def snapshot(self, student):
        return self.pathway.student_rewards(student, self.probe_s, self.probe_a,
                                            self.probe_s)

    def add(self, learned, env_r):
        self.learned.append(float(learned))
        self.env.append(float(env_r))

    def maybe_close(self, student, metrics_log, eval_result):
        if len(self.learned) < self.cfg.metric_window:
            return None
        win = MetricsWindow(self.index, np.array(self.learned), np.array(self.env),
                            self.snapshot(student))
        row = {"window": self.index}
        if self.prev_window is not None:
            row["rfdc"] = rfdc(self.prev_window, win)
            row["fs_rfdc"] = fs_rfdc(self.prev_window.fixed_snapshot, win.fixed_snapshot)
        c = cpr(win.learned, win.environment)
        row["cpr"] = None if np.isnan(c) else c
        row["eval_return"] = eval_result
        metrics_log.write(row)
        self.prev_window = win
        self.windows.append(win)
        self.learned, self.env = [], []
        self.index += 1
        return win


class _Replay:
    """Off-policy batch source: three FIFO buffers (student, trainer,
    discriminator) filled one step at a time, with expert mixing at insert
    time, each buffer's mixing drawn from a stream of its own. A trainer
    row waits one step for its next observation."""

    def __init__(self, cfg: RunConfig, pathway: _RewardPathway, streams):
        self.cfg = cfg
        self.pathway = pathway
        self.student = ReplayBuffer(cfg.student_buffer)
        self.trainer = ReplayBuffer(cfg.trainer_buffer)
        self.disc = ReplayBuffer(cfg.disc_buffer)
        self.mix_student_rng = streams["mix"]
        self.mix_trainer_rng = streams["mix_trainer"]
        self.trainer_rng = streams["trainer"]
        self.pending = None

    def _expert_row(self, frac, rng):
        """Index of the expert row that replaces this insert, or None."""
        if frac > 0 and rng.uniform() < frac:
            return rng.integers(0, len(self.pathway.expert_table["s"]))
        return None

    def insert(self, row, heads):
        te = self.pathway.expert_table
        k = self._expert_row(self.cfg.expert_mix_student, self.mix_student_rng)
        if k is None:
            self.student.insert(s=row["s"], a=row["a"], sp=row["sp"], done=row["done"])
        else:
            self.student.insert(s=te["s"][k], a=te["a"][k], sp=te["sp"][k],
                                done=te["done"][k])
        self.disc.insert(s=row["s"], a=row["a"], sp=row["sp"])
        trainer = self.pathway.trainer
        if trainer is None or trainer.frozen:  # nothing samples trainer rows after the freeze
            return
        obs = trainer_observation(row["s"], row["a"])
        a_t = trainer_act(trainer, obs, "stochastic", self.trainer_rng, heads)
        if self.pending is not None:
            self._insert_trainer(obsp=obs, **self.pending)
            self.pending = None
        if row["episode_end"]:
            self._insert_trainer(obs, a_t, np.zeros_like(obs), 1.0)
        else:
            self.pending = {"obs": obs, "a_t": a_t, "done": 0.0}

    def _insert_trainer(self, obs, a_t, obsp, done):
        k = self._expert_row(self.cfg.expert_mix_trainer, self.mix_trainer_rng)
        if k is None:
            self.trainer.insert(obs=obs, a_t=a_t, obsp=obsp, done=done, expert=0.0)
        else:
            te = self.pathway.expert_table
            self.trainer.insert(obs=te["obs"][k], a_t=0.0, obsp=te["obsp"][k],
                                done=te["done"][k], expert=1.0)

    def ready(self) -> bool:
        cfg = self.cfg
        return (len(self.student) >= max(cfg.student_batch, cfg.warmup_steps)
                and len(self.disc) >= cfg.disc_batch
                and (self.pathway.trainer is None
                     or len(self.trainer) >= cfg.trainer_batch))

    def student_batch(self, student, rng) -> dict:
        b = self.student.sample(self.cfg.student_batch, rng)
        b["r"] = self.pathway.student_rewards(student, b["s"], b["a"], b["sp"])
        return b

    def disc_rows(self, rng) -> dict:
        return self.disc.sample(self.cfg.disc_batch, rng)

    def trainer_rows(self, rng):
        b = self.trainer.sample(self.cfg.trainer_batch, rng)
        a_t = b["a_t"]
        mask = b["expert"] > 0.5
        if mask.any():
            # expert-sourced rows carry no recorded action; relabel with the
            # trainer's current deterministic action at that observation
            a_t[mask] = trainer_act_batch(self.pathway.trainer, b["obs"][mask])
        return b["obs"], a_t, b["obsp"], b["done"]


@dataclass
class _Rollout:
    """On-policy batch source: every learner updates on the chunk just
    collected, whose "r" column holds the student's learned rewards. heads
    are the live trainer's step_heads at the chunk's rows."""

    cfg: RunConfig
    pathway: _RewardPathway
    chunk: dict
    heads: tuple | None

    def student_batch(self, student, rng) -> dict:
        return self.chunk

    def disc_rows(self, rng) -> dict:
        n = len(self.chunk["s"])
        idx = rng.choice(n, size=min(self.cfg.disc_batch, n), replace=False)
        return {k: self.chunk[k][idx] for k in ("s", "a", "sp")}

    def trainer_rows(self, rng):
        s, a = self.chunk["s"], self.chunk["a"]
        obs = np.concatenate([s, a], axis=1)
        # the trainer has not updated since step_heads, so its heads serve
        a_t = trainer_act(self.pathway.trainer, obs, "stochastic", rng, self.heads)
        obsp = np.concatenate([self.chunk["sp"],
                               np.vstack([a[1:], np.zeros((1, a.shape[1]))])], axis=1)
        done = self.chunk["done"].copy()
        done[-1] = 1.0  # trainer episode ends with the rollout
        return obs, a_t, obsp, done


def _update(cfg, student, pathway, streams, monitor, artifacts, step, source) -> dict:
    """Updates the student, then the discriminator or AIRL heads (student
    rows against as many expert rows), then the trainer rewarded by the
    updated discriminator, on batches from source. Freezes the trainer once
    its critic loss has settled. Returns the diagnostics row."""
    b = source.student_batch(student, streams["student"])
    sdiag = student_update(student, (b["s"], b["a"], b["r"], b["sp"], b["done"]))
    diag = {"step": step, **sdiag}
    if pathway.disc is not None or pathway.airl is not None:
        rng = streams["disc"]
        b = source.disc_rows(rng)
        te = pathway.expert_table
        idx = rng.integers(0, len(te["s"]), size=len(b["s"]))
        if pathway.disc is not None:
            diag["disc_loss"] = disc_update(pathway.disc, (te["s"][idx], te["a"][idx]),
                                            (b["s"], b["a"]), cfg.gp_weight, rng)
        else:
            diag["disc_loss"] = baselines.airl_update(
                pathway.airl, student, (te["s"][idx], te["a"][idx], te["sp"][idx]),
                (b["s"], b["a"], b["sp"]))
    trainer = pathway.trainer
    if trainer is not None and not trainer.frozen:
        obs, a_t, obsp, done = source.trainer_rows(streams["trainer"])
        ds = pathway.state_dim
        d = disc_output(pathway.disc, obs[:, :ds], obs[:, ds:])
        r_t = trainer_reward(cfg.trainer_reward_variant, d, a_t)
        tdiag = trainer_update(trainer, (obs, a_t, r_t, obsp, done))
        diag["trainer_critic_loss"] = tdiag["critic_loss"]
        if monitor.check(tdiag["critic_loss"]):
            trainer.frozen = True
            artifacts.freeze_step = step
    diag["frozen"] = bool(trainer.frozen) if trainer else False
    return diag


def _crossed(step: int, n: int, every: int) -> bool:
    """Whether the chunk of n steps ending at step passed a multiple of every."""
    return step // every > (step - n) // every


def run_training(config: RunConfig, expert: ExpertDataset | None,
                 run_dir: str | None = None) -> RunArtifacts:
    """Executes one run per the configured algorithm and returns artifacts.

    rile_off, rile_on, gail and airl share one loop. Each pass collects a
    chunk (one step; for rile_on, the rest of the episode), scores it with
    the learned reward and updates the learners: rile_on on the chunk
    itself, the others on replay samples every update_every steps once the
    buffers are warm. bc is supervised. A run whose hidden layers are all
    at most nets.ONE_THREAD_MAX_WIDTH wide runs on one BLAS thread.
    """
    cfg = config.validate()
    with blas_threads_for((*cfg.student_hidden, *cfg.trainer_hidden, *cfg.disc_hidden)):
        return _train(cfg, expert, run_dir)


def _train(cfg: RunConfig, expert: ExpertDataset | None, run_dir) -> RunArtifacts:
    if expert is None or expert.n_steps == 0:
        raise ValueError(f"{cfg.algorithm} needs a non-empty expert dataset")
    if run_dir is not None:
        os.makedirs(run_dir, exist_ok=True)
    streams = seed_streams(cfg.seed)
    state_dim, action_dim = expert.state_dim, expert.action_dim
    student = make_actor_critic(state_dim, action_dim, cfg.student_hidden,
                                streams["init_student"], actor_lr=cfg.student_lr,
                                critic_lr=cfg.student_lr, entropy_coef=cfg.student_entropy,
                                epsilon_greedy=cfg.epsilon_greedy, gamma=cfg.gamma,
                                tau=cfg.tau, advantage_norm=cfg.advantage_norm)
    pathway = _RewardPathway(cfg, expert, streams, state_dim, action_dim)
    artifacts = RunArtifacts(cfg, run_dir, student, pathway.trainer, pathway.disc,
                             pathway.airl)
    diag_log = _Logger(run_dir, "diagnostics.jsonl")
    metrics_log = _Logger(run_dir, "metrics.jsonl")
    if cfg.algorithm == "bc":
        baselines.train_bc(cfg, expert, student, streams["student"], diag_log)
    else:
        _run_loop(cfg, expert, student, pathway, streams, artifacts, diag_log, metrics_log)

    artifacts.metrics_rows = metrics_log.rows
    artifacts.diagnostics_rows = diag_log.rows
    artifacts.final_return, _, artifacts.final_goal_rate = evaluate_policy(
        cfg.env, student, cfg.eval_episodes, deterministic=True, seed=cfg.seed,
        action_noise=cfg.action_noise)
    _checkpoint(run_dir, "final", student, pathway.trainer, pathway.disc, pathway.airl)
    return artifacts


def _run_loop(cfg, expert, student, pathway, streams, artifacts, diag_log, metrics_log):
    """The adversarial algorithms' loop, from the step-0 checkpoint to the
    last step; records the steps run, the windows and the freeze step in
    artifacts."""
    run_dir = artifacts.run_dir
    probe_s, probe_a = expert.all_pairs()
    tracker = _WindowTracker(cfg, pathway, probe_s, probe_a)
    monitor = FreezeMonitor(cfg.freeze_window, cfg.freeze_threshold)
    collector = _Collector(cfg, streams)
    on_policy = cfg.algorithm == "rile_on"
    replay = None if on_policy else _Replay(cfg, pathway, streams)

    _checkpoint(run_dir, 0, student, pathway.trainer, pathway.disc, pathway.airl)
    last_eval = None
    step = 0
    try:
        while step < cfg.total_steps:
            rows = []
            while True:
                rows.append(collector.step(student))
                step += 1
                if not on_policy or rows[-1]["episode_end"] or step >= cfg.total_steps:
                    break
            n = len(rows)
            chunk = {k: np.array([r[k] for r in rows]) for k in ("s", "a", "sp", "done")}
            heads = pathway.step_heads(chunk)
            chunk["r"] = pathway.student_rewards(student, chunk["s"], chunk["a"],
                                                 chunk["sp"], heads)
            for r, row in zip(chunk["r"], rows):
                tracker.add(r, row["env_r"])

            diag = None
            if on_policy:
                diag = _update(cfg, student, pathway, streams, monitor, artifacts, step,
                               _Rollout(cfg, pathway, chunk, heads))
            else:
                replay.insert(rows[0], heads)
                if replay.ready() and step % cfg.update_every == 0:
                    diag = _update(cfg, student, pathway, streams, monitor, artifacts,
                                   step, replay)
            if diag is not None and _crossed(step, n, cfg.update_every * 25):
                diag_log.write(diag)

            if _crossed(step, n, cfg.eval_every):
                ret, _, rate = evaluate_policy(cfg.env, student, cfg.eval_episodes,
                                               deterministic=True, seed=cfg.seed,
                                               action_noise=cfg.action_noise)
                last_eval = ret
                diag_log.write({"step": step, "eval_return": ret, "goal_rate": rate,
                                "frozen": bool(pathway.trainer.frozen)
                                if pathway.trainer else False})
                if cfg.early_stop_success and rate == 1.0:
                    tracker.maybe_close(student, metrics_log, last_eval)
                    break
            if _crossed(step, n, cfg.checkpoint_every):
                _checkpoint(run_dir, step, student, pathway.trainer, pathway.disc,
                            pathway.airl)
            tracker.maybe_close(student, metrics_log, last_eval)
    except ValueError as e:
        _checkpoint(run_dir, f"{step}-abort", student, pathway.trainer, pathway.disc,
                    pathway.airl)
        artifacts.aborted = True
        raise RunAborted(f"run aborted at step {step}: {e}") from e

    artifacts.steps_run = step
    artifacts.windows = tracker.windows
