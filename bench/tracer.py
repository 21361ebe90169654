"""Per-module spans for a traced benchmark run, installed from outside `src/rile/`.

Each wrapper replaces a function in the namespace of the module that calls
it (the orchestrator imports `student_update` by name, so the wrapper goes on
`rile.orchestrator.student_update`). A span is `[name, start, end, parent]`
and stays in memory until the run ends; a span's self time is its duration
minus the durations of its direct children. Work counters (rows, flops,
episodes) are updated outside the timed interval of the span they describe.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

ROOT_SPAN = "orchestrator"


def _forward_work(counts, params, x, *_rest):
    rows = len(x)
    counts["nets.forward.rows"] += rows
    counts["nets.forward.flops"] += 2 * rows * sum(w.size for w in params.weights)


def _rows(metric, arg):
    def count(counts, *args):
        x = args[arg]
        counts[metric] += x.shape[0] if getattr(x, "ndim", 1) == 2 else 1
    return count


def _one(metric):
    def count(counts, *_args, **_kwargs):
        counts[metric] += 1
    return count


# (module, attribute, span name or None for a counter only, work counter).
# An attribute path with a dot patches a class attribute (a method).
TARGETS = (
    ("rile.nets", "_forward_cached", "nets.forward", _forward_work),
    ("rile.discriminator", "_forward_cached", "nets.forward", _forward_work),
    ("rile.agents", "mlp_backward", "nets.backward", None),
    ("rile.baselines", "mlp_backward", "nets.backward", None),
    ("rile.agents", "adam_step", "nets.adam_step", None),
    ("rile.discriminator", "adam_step", "nets.adam_step", None),
    ("rile.baselines", "adam_step", "nets.adam_step", None),
    ("rile.orchestrator", "student_update", "agents.student_update", None),
    ("rile.orchestrator", "trainer_update", "agents.trainer_update", None),
    ("rile.orchestrator", "student_act", "agents.student_act", None),
    ("rile.metrics", "student_act", "agents.student_act", None),
    ("rile.orchestrator", "trainer_act", "agents.trainer_act", None),
    ("rile.orchestrator", "trainer_act_batch", "agents.trainer_act_batch",
     _rows("agents.trainer_act_batch.rows", 1)),
    ("rile.orchestrator", "disc_update", "discriminator.disc_update", None),
    ("rile.orchestrator", "disc_output", "discriminator.disc_output", None),
    ("rile.baselines", "airl_update", "baselines.airl_update", None),
    ("rile.baselines", "airl_f_batch", "baselines.airl_f_batch",
     _rows("baselines.airl_f_batch.rows", 1)),
    ("rile.orchestrator", "maze_step", "envs.maze_step.collect", None),
    ("rile.metrics", "maze_step", "envs.maze_step.eval", None),
    ("rile.orchestrator", "evaluate_policy", "metrics.evaluate_policy", None),
    ("rile.orchestrator", "goal_reached", "metrics.goal_reached", None),
    ("rile.metrics", "_run_episode", None, _one("metrics.eval_episodes")),
    ("rile.orchestrator", "MetricsWindow", "metrics.window", None),
    ("rile.orchestrator", "rfdc", "metrics.window", None),
    ("rile.orchestrator", "fs_rfdc", "metrics.window", None),
    ("rile.orchestrator", "cpr", "metrics.window", None),
    ("rile.orchestrator", "ReplayBuffer.insert", "orchestrator.buffer_insert", None),
    ("rile.orchestrator", "ReplayBuffer.sample", "orchestrator.buffer_sample", None),
    ("rile.orchestrator", "_checkpoint", "orchestrator.checkpoint", None),
)

# (metric, unit) in report order. The last dotted part says how a metric is
# derived: calls, self_s and the percentiles come from the spans of the name
# before it; anything else is a work counter. trace.* is filled in by run.py.
LAYER_METRICS = (
    ("nets.forward.calls", "count"),
    ("nets.forward.rows", "rows"),
    ("nets.forward.self_s", "s"),
    ("nets.forward.flops", "flop"),
    ("nets.backward.calls", "count"),
    ("nets.backward.self_s", "s"),
    ("nets.adam_step.calls", "count"),
    ("nets.adam_step.self_s", "s"),
    ("agents.student_update.calls", "count"),
    ("agents.student_update.self_s", "s"),
    ("agents.student_update.ms_p50", "ms"),
    ("agents.student_update.ms_p99", "ms"),
    ("agents.trainer_update.calls", "count"),
    ("agents.trainer_update.self_s", "s"),
    ("agents.trainer_update.ms_p50", "ms"),
    ("agents.trainer_update.ms_p99", "ms"),
    ("agents.student_act.calls", "count"),
    ("agents.student_act.self_s", "s"),
    ("agents.trainer_act.calls", "count"),
    ("agents.trainer_act.self_s", "s"),
    ("agents.trainer_act_batch.calls", "count"),
    ("agents.trainer_act_batch.rows", "rows"),
    ("agents.trainer_act_batch.self_s", "s"),
    ("discriminator.disc_update.calls", "count"),
    ("discriminator.disc_update.self_s", "s"),
    ("discriminator.disc_update.ms_p50", "ms"),
    ("discriminator.disc_update.ms_p99", "ms"),
    ("discriminator.disc_output.calls", "count"),
    ("discriminator.disc_output.self_s", "s"),
    ("baselines.airl_update.calls", "count"),
    ("baselines.airl_update.self_s", "s"),
    ("baselines.airl_update.ms_p50", "ms"),
    ("baselines.airl_update.ms_p99", "ms"),
    ("baselines.airl_f_batch.calls", "count"),
    ("baselines.airl_f_batch.rows", "rows"),
    ("baselines.airl_f_batch.self_s", "s"),
    ("envs.maze_step.collect.calls", "count"),
    ("envs.maze_step.collect.self_s", "s"),
    ("envs.maze_step.collect.us_p50", "us"),
    ("envs.maze_step.eval.calls", "count"),
    ("envs.maze_step.eval.self_s", "s"),
    ("metrics.evaluate_policy.self_s", "s"),
    ("metrics.goal_reached.self_s", "s"),
    ("metrics.eval_episodes", "count"),
    ("metrics.window.self_s", "s"),
    ("orchestrator.self_s", "s"),
    ("orchestrator.buffer_insert.calls", "count"),
    ("orchestrator.buffer_insert.self_s", "s"),
    ("orchestrator.buffer_sample.calls", "count"),
    ("orchestrator.buffer_sample.self_s", "s"),
    ("orchestrator.checkpoint.calls", "count"),
    ("orchestrator.checkpoint.self_s", "s"),
    ("orchestrator.checkpoint.bytes", "B"),
    ("orchestrator.log.bytes", "B"),
    ("trace.traced_steps_per_s", "steps/s"),
    ("trace.untraced_steps_per_s", "steps/s"),
    ("trace.overhead_pct", "%"),
    ("trace.unaccounted_s", "s"),
    ("trace.spans", "count"),
)

_PERCENTILES = {"ms_p50": (0.50, 1e3), "ms_p99": (0.99, 1e3), "us_p50": (0.50, 1e6)}


def _percentile(values, q):
    """Nearest-rank percentile; 0.0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tracer:
    """Records spans around wrapped calls; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.missing = []
        self._stack = []

    def wrap(self, name, fn, count=None):
        """`fn` with a span named `name` around each call (a counter only
        when `name` is None); `count(counts, *args)` records its work."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        if name is None:
            def counted(*args, **kwargs):
                count(counts, *args, **kwargs)
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            if count is not None:
                count(counts, *args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    @contextmanager
    def installed(self):
        """Installs every wrapper in TARGETS for the duration of the block and
        restores the originals afterwards. A target that no longer exists is
        listed in `missing` and left out."""
        undo = []
        try:
            for module, attr, name, count in TARGETS:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                if not hasattr(owner, leaf):
                    self.missing.append(f"{module}.{attr}")
                    continue
                original = getattr(owner, leaf)
                undo.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(name, original, count))
            yield self
        finally:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)

    def layer_metrics(self) -> dict:
        """Per-layer values for every non-trace entry of LAYER_METRICS, plus
        the total self time of all spans under `total_self_s`."""
        durations = [end - start for _, start, end, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += durations[i]
        calls, self_s, per_call = Counter(), defaultdict(float), defaultdict(list)
        for i, (name, _, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += durations[i] - child_time[i]
            per_call[name].append(durations[i])

        out = {}
        for metric, _unit in LAYER_METRICS:
            if metric.startswith("trace."):
                continue
            span, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = calls[span]
            elif stat == "self_s":
                out[metric] = self_s[span]
            elif stat in _PERCENTILES:
                q, scale = _PERCENTILES[stat]
                out[metric] = _percentile(per_call[span], q) * scale
            else:
                out[metric] = self.counts[metric]
        out["total_self_s"] = sum(self_s.values())
        return out
