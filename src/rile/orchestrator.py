"""Training loop and run lifecycle.

Every algorithm shares one run lifecycle: the set-up, the logs, the step-0
checkpoint, the training and a report at its last step. bc trains by
baselines.train_bc's epochs; one loop serves rile_off, rile_on, gail and
airl. Each pass collects a chunk of environment steps with the student,
scores it with the learned reward and, when due, updates the student, then
the discriminator or AIRL heads, then the trainer. A report evaluates the
student, closes the reward-metrics window and writes one metrics.jsonl
row. The loop reports once a chunk completes eval_every steps since the
last report, then checkpoints the nets; the last report's checkpoint is
step-final. Every adversarial run keeps one FIFO store of the collected
rows, of which the student, discriminator and trainer batches sample
windows (rewards relabeled and expert rows mixed in at sample time).
rile_on collects the rest of an episode per chunk and updates once it
ends: its rollout, the store's newest rows, is every learner's window.
Every adversarial algorithm collects through the same path, so seed-paired
runs differ only in the reward pathway: _RewardPathway is the one place
that knows which learners a run has, and it scores, updates, freezes and
lists them for checkpoints. Every random draw comes from named streams
derived from one master seed, which makes whole runs bit-reproducible.

Every learner reads the expert from one table, ExpertDataset's arrays.
Every reward net reads one input row per transition, obs = [s, a]. Only
_Collector.step and expert_transition_table build it, and the store
holds it in place of s and a. The trainer's next observation is the next
row's obs; past an episode end, where done = 1 cancels its value, it is
zeros.
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
from .envs import ExpertDataset, MazeSpec, maze_reset, maze_step
from .metrics import MetricsWindow, cpr, evaluate_policy, fs_rfdc, rfdc
from .nets import load_mlp, mlp_forward, one_blas_thread, save_mlp

ALGORITHMS = ("rile_on", "rile_off", "gail", "airl", "bc")


class RunAborted(RuntimeError):
    """Raised when a run hits non-finite diagnostics; the last healthy
    state has already been checkpointed."""


@dataclass
class ReplayBuffer:
    """Fixed-capacity FIFO store of homogeneous rows, which counts the rows
    inserted: row i lives in slot i % capacity.

    Columns are allocated on first insert. Sampling is uniform without
    replacement within a batch.
    """

    capacity: int
    _cols: dict = field(default_factory=dict)
    rows: int = 0

    def __len__(self) -> int:
        return min(self.rows, self.capacity)

    def insert(self, **row):
        if not self._cols:
            for k, v in row.items():
                v = np.asarray(v)
                self._cols[k] = np.zeros((self.capacity, *v.shape), dtype=v.dtype)
        if set(row) != set(self._cols):
            raise ValueError("row columns do not match the buffer schema")
        for k, v in row.items():
            if np.shape(v) != self._cols[k].shape[1:]:
                raise ValueError(f"column {k!r} holds rows of shape "
                                 f"{self._cols[k].shape[1:]}, not {np.shape(v)}")
        for k, v in row.items():
            self._cols[k][self.rows % self.capacity] = v
        self.rows += 1

    def sample(self, batch_size: int, rng, window=None, end=None) -> dict:
        """batch_size rows of the newest window ones (every one held by
        default) among rows 0..end-1 (every row inserted by default), with
        their indices under "row". The draws are those of a FIFO of window
        slots fed the same rows, which holds row i in slot i % window."""
        end = self.rows if end is None else end
        n = min(end, self.capacity, window or self.capacity)
        if batch_size > n:
            raise ValueError(f"cannot sample {batch_size} from buffer of size {n}")
        slot = rng.choice(n, size=batch_size, replace=False)
        return self.get(end - n + (slot - end) % n)

    def get(self, rows) -> dict:
        """The held rows of the given indices, with the indices under "row"."""
        return {"row": rows, **{k: v[rows % self.capacity] for k, v in self._cols.items()}}


@dataclass
class RunConfig:
    """Everything a run needs; defaults follow the tuned desk-scale setup."""

    algorithm: str = "rile_off"
    env: MazeSpec = field(default_factory=MazeSpec)
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
    # networks (desk-scale defaults; override per run)
    student_hidden: tuple = (64, 64)
    trainer_hidden: tuple = (64, 64)
    disc_hidden: tuple = (64, 64)
    # trainer freezing
    freeze_threshold: float = 0.1
    freeze_window: int = 100
    # expert mixing (share of each student/trainer batch sourced from expert
    # data); off-policy algorithms only: rile_on's batches are its rollout,
    # and bc fits the expert alone
    expert_mix_student: float = 0.0
    expert_mix_trainer: float = 0.0
    # schedule
    total_steps: int = 200_000
    update_every: int = 4
    warmup_steps: int = 2_000
    eval_every: int = 10_000  # the report cadence: eval, metrics window, checkpoint
    eval_episodes: int = 10
    early_stop_success: bool = True
    # environment perturbation (covariate shift) and frozen-reward transfer
    action_noise: float = 0.0
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
        for name in ("student_batch", "trainer_batch", "disc_batch", "update_every",
                     "eval_episodes", "freeze_window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.eval_every < 2:
            raise ValueError("eval_every must be >= 2: cpr needs two samples")
        if not 0.0 <= self.bc_holdout < 1.0:
            raise ValueError("bc_holdout must be in [0, 1)")
        for name, frac in (("expert_mix_student", self.expert_mix_student),
                           ("expert_mix_trainer", self.expert_mix_trainer)):
            if not 0.0 <= frac <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
            if frac > 0 and self.algorithm in ("rile_on", "bc"):
                raise ValueError(f"{name} mixes expert rows into off-policy batches, "
                                 f"which {self.algorithm} does not sample")
        if self.frozen_reward is not None and self.algorithm not in ("rile_off", "rile_on"):
            raise ValueError(f"frozen_reward runs under rile_off or rile_on: "
                             f"{self.algorithm} trains its own reward or none")
        return self


# Each stream is seeded by child i of the master seed's SeedSequence, so its
# seed depends on its own i only; a new stream takes a new i (4 and 5 unused).
STREAMS = {"env": 0, "student": 1, "trainer": 2, "disc": 3, "mix": 6, "init_student": 7,
           "init_trainer": 8, "init_disc": 9, "init_airl": 10, "mix_trainer": 11}


def seed_streams(master_seed: int) -> dict:
    """One master seed split deterministically into named substreams."""
    return {n: np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(i,)))
            for n, i in STREAMS.items()}


def expert_transition_table(expert: ExpertDataset) -> dict:
    """Expert rows in the shapes batches use: the input rows obs and
    the trainer's next observations, the next row's obs, and zeros past an
    episode end (unused there)."""
    obs = np.concatenate([expert.s, expert.a], axis=1)
    obsp = np.where(expert.end[:, None], 0.0, np.roll(obs, -1, axis=0))
    return {"obs": obs, "sp": expert.sp, "done": expert.end.astype(np.float64), "obsp": obsp}


@dataclass
class RunArtifacts:
    config: RunConfig
    run_dir: str | None
    student: ActorCritic
    trainer: ActorCritic | None
    disc: DiscriminatorNet | None
    airl: object = None
    metrics_rows: list = field(default_factory=list)
    diagnostics_rows: list = field(default_factory=list)
    steps_run: int = 0
    freeze_step: int | None = None


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
            self.trainer = make_actor_critic(
                obs_dim, 1, cfg.trainer_hidden, streams["init_trainer"], lr=cfg.trainer_lr,
                entropy_coef=cfg.trainer_entropy, gamma=cfg.gamma, tau=cfg.tau)
            self.nets.update(_agent_nets("trainer", self.trainer))
        if cfg.algorithm in ("rile_on", "rile_off", "gail"):
            self.disc = make_discriminator(obs_dim, cfg.disc_hidden, cfg.disc_lr,
                                           streams["init_disc"])
            self.nets["discriminator/net.mlp"] = self.disc.params
        if cfg.algorithm == "airl":
            self.airl = baselines.make_airl_heads(
                self.state_dim, expert.a.shape[1], cfg.disc_hidden, cfg.disc_lr, cfg.gamma,
                streams["init_airl"])
            self.nets.update({"airl/reward.mlp": self.airl.reward,
                              "airl/potential.mlp": self.airl.potential})

    @property
    def trainer_frozen(self) -> bool:
        return self.freeze_step is not None

    def score(self, chunk):
        """(student rewards, stochastic trainer actions) for a collected
        chunk. While the trainer is live, both come from one forward of its
        actor, with the actions' noise drawn from the trainer stream;
        otherwise the actions are None."""
        if self.trainer is None or self.trainer_frozen:
            return self.student_rewards(chunk["obs"], chunk["sp"]), None
        return trainer_act(self.trainer, chunk["obs"], self.trainer_rng)

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

    def update(self, source, step) -> dict:
        """Updates the discriminator or AIRL heads (student rows against as
        many expert rows), then the trainer rewarded by the updated
        discriminator, on batches from source. Freezes the trainer once the
        mean of its absolute critic losses over a full window falls below
        the threshold; a frozen trainer reads D no more, so D stops with it.
        Returns their diagnostics."""
        diag = {}
        if self.airl is not None or (self.disc is not None and not self.trainer_frozen):
            rng = self.disc_rng
            b = source.disc_rows(rng)
            te = self.expert_table
            idx = rng.integers(0, len(te["obs"]), size=len(b["obs"]))
            if self.disc is not None:
                diag["disc_loss"] = disc_update(self.disc, te["obs"][idx], b["obs"],
                                                self.cfg.gp_weight, rng)
            else:
                diag["disc_loss"] = baselines.airl_update(
                    self.airl, self.student, (te["obs"][idx], te["sp"][idx]),
                    (b["obs"], b["sp"]))
        if self.trainer is not None and not self.trainer_frozen:
            obs, a_t, obsp, done = source.trainer_rows(self.trainer_rng)
            r_t = trainer_reward(disc_output(self.disc, obs), a_t)
            loss = trainer_update(self.trainer, (obs, a_t, r_t, obsp, done))["critic_loss"]
            diag["trainer_critic_loss"] = loss
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
        env_action = action
        if cfg.action_noise > 0:
            env_action = action + self.env_rng.normal(0.0, cfg.action_noise, size=2)
        nxt, at_goal = maze_step(cfg.env, self.state, env_action)
        self.episode_step += 1
        truncated = self.episode_step >= cfg.env.max_steps
        row = {
            "obs": np.concatenate([self.state, action]), "sp": nxt.copy(),
            "episode_end": at_goal or truncated,
            "env_r": cfg.env.env_reward(at_goal),
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
        """Adds a chunk's learned and environment reward columns."""
        self.learned.extend(learned)
        self.env.extend(env_r)

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


class _Replay:
    """The one batch source of every adversarial run: one FIFO store of the
    collected rows, one insert per collected row. The student samples its
    newest student_buffer rows, the discriminator the newest disc_buffer,
    the trainer the newest trainer_buffer of those whose next row is known
    (all but a newest one that ends no episode), with the action each was
    scored with and the next row's obs. Under rile_on each window is the
    newest chunk, the rollout of the episode that just ended: the store is
    ready only when its newest row ends an episode. One row more than the
    student's window is held: the trainer's oldest row needs its successor.
    The first round(frac * B) rows of a student or trainer batch of B rows
    are then expert rows, drawn from the learner's own mixing stream."""

    def __init__(self, cfg: RunConfig, pathway: _RewardPathway, streams):
        self.cfg = cfg
        self.pathway = pathway
        self.store = ReplayBuffer(cfg.student_buffer + 1)
        self.known = 0  # the rows whose next row is known
        self.rollout = 0  # rile_on's window: the row count of the newest chunk
        self.mix_student_rng = streams["mix"]
        self.mix_trainer_rng = streams["mix_trainer"]

    def insert(self, chunk):
        """Inserts each row of a chunk; a_t is 0.0 with no live trainer."""
        a_t = np.zeros(len(chunk["obs"])) if chunk["a_t"] is None else chunk["a_t"]
        for obs, sp, a, end in zip(chunk["obs"], chunk["sp"], a_t, chunk["episode_end"]):
            self.store.insert(obs=obs, sp=sp, a_t=a, end=end)
        self.known = self.store.rows - (not chunk["episode_end"][-1])
        if self.cfg.algorithm == "rile_on":
            self.rollout = len(a_t)

    def _mix(self, b, cols, frac, rng) -> int:
        """Overwrites the first round(frac * B) rows of batch b's columns
        cols with expert rows drawn from rng; returns their count."""
        k = round(frac * len(b["obs"]))
        te = self.pathway.expert_table
        idx = rng.integers(0, len(te["obs"]), size=k)
        for c in cols:
            b[c][:k] = te[c][idx]
        return k

    def ready(self) -> bool:
        cfg = self.cfg
        if self.rollout:
            return self.known == self.store.rows
        return (self.store.rows >= max(cfg.student_batch, cfg.warmup_steps, cfg.disc_batch)
                and (self.pathway.trainer is None or self.known >= cfg.trainer_batch))

    def _sample(self, batch, window, rng, end=None) -> dict:
        """min(batch, window) of the newest window rows among rows 0..end-1
        (all rows by default); rile_on's window is its rollout."""
        window = self.rollout or window
        return self.store.sample(min(batch, window), rng, window, end)

    def student_batch(self, rng) -> dict:
        cfg = self.cfg
        b = self._sample(cfg.student_batch, cfg.student_buffer, rng)
        self._mix(b, ("obs", "sp"), cfg.expert_mix_student, self.mix_student_rng)
        b["r"] = self.pathway.student_rewards(b["obs"], b["sp"])
        return b

    def disc_rows(self, rng) -> dict:
        return self._sample(self.cfg.disc_batch, self.cfg.disc_buffer, rng)

    def trainer_rows(self, rng):
        cfg = self.cfg
        b = self._sample(cfg.trainer_batch, cfg.trainer_buffer, rng, self.known)
        end = b["end"]
        b["obsp"] = np.where(end[:, None], 0.0, self.store.get(b["row"] + 1)["obs"])
        b["done"] = end.astype(np.float64)
        k = self._mix(b, ("obs", "obsp", "done"), cfg.expert_mix_trainer,
                      self.mix_trainer_rng)
        if k:
            # expert rows carry no recorded action; relabel with the
            # trainer's current deterministic action at that observation
            b["a_t"][:k] = trainer_act_batch(self.pathway.trainer, b["obs"][:k])
        return b["obs"], b["a_t"], b["obsp"], b["done"]


def _update(pathway, source, step, rng) -> dict:
    """Updates the student on a batch drawn from source with rng, then the
    reward pathway's learners. Returns the diagnostics row."""
    b = source.student_batch(rng)
    s, a = np.hsplit(b["obs"], [pathway.state_dim])
    # done = 0: a goal terminal under always-positive rewards teaches dawdling
    sdiag = student_update(pathway.student, (s, a, b["r"], b["sp"], np.zeros(len(s))))
    return {"step": step, **sdiag, **pathway.update(source, step)}


def _report(cfg, pathway, tracker, step, metrics_log) -> float:
    """Evaluates the student, closes the reward-metrics window if it holds
    the two steps cpr needs, and writes both as one metrics.jsonl row at
    step. Returns the goal rate."""
    ret, rate = evaluate_policy(cfg.env, pathway.student, cfg.eval_episodes,
                                seed=cfg.seed, action_noise=cfg.action_noise)
    window = tracker.close() if len(tracker.learned) >= 2 else {}
    metrics_log.write({"step": step, **window, "eval_return": ret, "goal_rate": rate,
                       "frozen": pathway.trainer_frozen})
    return rate


def _crossed(step: int, n: int, every: int) -> bool:
    """Whether the chunk of n steps ending at step passed a multiple of every."""
    return step // every > (step - n) // every


def run_training(config: RunConfig, expert: ExpertDataset,
                 run_dir: str | None = None) -> RunArtifacts:
    """Executes one run per the configured algorithm and returns artifacts.

    rile_off, rile_on, gail and airl share one loop. Each pass collects a
    chunk (one step; for rile_on, the rest of the episode), scores it with
    the learned reward, inserts it into the one store and updates the
    learners on windows of it: rile_on on its rollout once the episode
    ends, the others every update_every steps once the store is warm. bc
    is supervised. Each run ends with a report at its last step, whose
    metrics.jsonl row is the final eval. Every run trains on one OpenBLAS
    thread, whatever its widths: on two, airl with 128x128 nets used twice
    the CPU time per env step at the same speed, and two such runs at once
    each fell from 948-1,147 to 234-272 env steps/s on a 2-core host
    (nets.one_blas_thread).
    """
    cfg = config.validate()
    with one_blas_thread():
        return _train(cfg, expert, run_dir)


def _train(cfg: RunConfig, expert: ExpertDataset, run_dir) -> RunArtifacts:
    streams = seed_streams(cfg.seed)
    student = make_actor_critic(expert.s.shape[1], expert.a.shape[1], cfg.student_hidden,
                                streams["init_student"], lr=cfg.student_lr,
                                entropy_coef=cfg.student_entropy,
                                epsilon_greedy=cfg.epsilon_greedy, gamma=cfg.gamma,
                                tau=cfg.tau)
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
    return RunArtifacts(cfg, run_dir, student, pathway.trainer, pathway.disc, pathway.airl,
                        metrics_rows=metrics_log.rows, diagnostics_rows=diag_log.rows,
                        steps_run=steps_run, freeze_step=pathway.freeze_step)


def _run_loop(cfg, pathway, tracker, streams, run_dir, diag_log, metrics_log) -> int:
    """The adversarial algorithms' loop, from the first step to the last,
    or to the report that stops it early; returns the number of steps run."""
    student = pathway.student
    collector = _Collector(cfg, streams)
    on_policy = cfg.algorithm == "rile_on"
    replay = _Replay(cfg, pathway, streams)

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
            chunk = {k: np.array([r[k] for r in rows]) for k in rows[0]}
            chunk["r"], chunk["a_t"] = pathway.score(chunk)
            tracker.add(chunk["r"], chunk["env_r"])

            diag = None
            replay.insert(chunk)
            if replay.ready() and (on_policy or step % cfg.update_every == 0):
                diag = _update(pathway, replay, step, streams["student"])
            if diag is not None and _crossed(step, n, cfg.update_every * 25):
                diag_log.write(diag)

            if len(tracker.learned) >= cfg.eval_every:
                rate = _report(cfg, pathway, tracker, step, metrics_log)
                if step >= cfg.total_steps or (cfg.early_stop_success and rate == 1.0):
                    break
                _checkpoint(run_dir, step, pathway.nets)
    except ValueError as e:
        _checkpoint(run_dir, f"{step}-abort", pathway.nets)
        raise RunAborted(f"run aborted at step {step}: {e}") from e
    return step
