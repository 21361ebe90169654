"""One benchmark repetition in a process of its own.

    python3 bench/child.py --workload NAME --seed N --trace 0|1 [--steps N] [--setup-only]

Imports `rile` from the checkout's `src/`, builds the workload's inputs,
reports `time.monotonic()` just before `run_training` is entered (the parent
subtracts its own spawn time from it to get the set-up time), runs the
training, applies the correctness gate and prints one JSON object as its
last line of output. With `--setup-only` it stops before `run_training`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

from tracer import ROOT_SPAN, Tracer
from workloads import COMMON, EXPERT_EPISODES, TOTAL_STEPS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / ".runs"


def _networks(artifacts):
    """Every network the run trained."""
    nets = [artifacts.student.actor, artifacts.student.critic,
            artifacts.student.critic_target]
    if artifacts.trainer is not None:
        nets += [artifacts.trainer.actor, artifacts.trainer.critic,
                 artifacts.trainer.critic_target]
    if artifacts.disc is not None:
        nets.append(artifacts.disc.params)
    if artifacts.airl is not None:
        nets += [artifacts.airl.reward, artifacts.airl.potential]
    return nets


def _bytes_under(run_dir: Path):
    """(checkpoint bytes, log bytes) written into a run directory."""
    ckpt = log = 0
    for path in run_dir.rglob("*"):
        if not path.is_file():
            continue
        if path.relative_to(run_dir).parts[0].startswith("step-"):
            ckpt += path.stat().st_size
        else:
            log += path.stat().st_size
    return ckpt, log


def run_rep(workload: str, seed: int, trace: bool, steps: int, setup_only: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from rile.envs import MazeSpec, generate_expert
    from rile.nets import mlp_to_bytes
    from rile.orchestrator import RunAborted, RunConfig, run_training

    expert = generate_expert(MazeSpec(), EXPERT_EPISODES)
    cfg = RunConfig(**WORKLOADS[workload], **COMMON, total_steps=steps, seed=seed)
    if setup_only:
        return {"entered": time.monotonic()}

    RUNS.mkdir(exist_ok=True)
    out = {}
    with tempfile.TemporaryDirectory(dir=RUNS) as tmp:
        run_dir = Path(tmp)
        tracer = None
        train = run_training
        if trace:
            tracer = Tracer()
            train = tracer.wrap(ROOT_SPAN, run_training)
        artifacts, error = None, None
        with tracer.installed() if tracer else nullcontext():
            out["entered"] = time.monotonic()
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                artifacts = train(cfg, expert, str(run_dir))
            except RunAborted as e:
                error = str(e)
            t1, cpu1 = time.perf_counter(), time.process_time()
        out["wall_s"] = t1 - t0
        out["cpu_s"] = cpu1 - cpu0
        if tracer is not None:
            layers = tracer.layer_metrics()
            total_self = layers.pop("total_self_s")
            layers["orchestrator.checkpoint.bytes"], layers["orchestrator.log.bytes"] = (
                _bytes_under(run_dir))
            out.update(layers=layers, unaccounted_s=out["wall_s"] - total_self,
                       spans=len(tracer.spans), missing=tracer.missing)

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["error"] = error
    if artifacts is not None:
        out["steps"] = artifacts.steps_run
        out["finite"] = all(np.isfinite(a).all() for net in _networks(artifacts)
                            for a in (*net.weights, *net.biases))
        out["digest"] = hashlib.sha256(mlp_to_bytes(artifacts.student.actor)).hexdigest()
        if out["steps"] != steps:
            out["error"] = f"ran {out['steps']} of {steps} steps"
        elif not out["finite"]:
            out["error"] = "non-finite parameters"
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steps", type=int, default=TOTAL_STEPS)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    result = run_rep(args.workload, args.seed, bool(args.trace), args.steps,
                     args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
