"""Training benchmark for `rile.orchestrator.run_training`.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs repetitions of one workload (see workloads.py and README.md), each in a
child process, one at a time, until the next one would end after `--seconds`;
at least one untraced repetition, or with `--trace 1` at least two traced and
one untraced. Prints the host, each metric with its unit and the correctness
gate, and as its last line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`. `--workload all` runs every workload
in turn and prefixes each metric with the workload's name.

The correctness gate fails a repetition that raised `RunAborted`, ran short
of its steps, ended with a non-finite parameter, or whose student actor
digest differs from the other repetitions of the same seed. A traced
repetition also fails when its spans do not add up to its wall time or its
work counts differ from the first traced repetition's.

Exits with 2, printing no result, when the benchmark itself cannot run, for
example in a directory without `src/rile/`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracer import LAYER_METRICS
from workloads import TOTAL_STEPS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

END_TO_END = (
    ("env_steps_per_s", "steps/s"),
    ("cpu_s_per_kstep", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
MIN_SETUPS = 5
CHILD_TIMEOUT_S = 150
# Spans are timed with the same clock as the run; what is left over is the
# cost of entering and leaving the root span, a few microseconds.
ACCOUNTING_TOLERANCE_S = 1e-3
EXACT_UNITS = ("count", "rows", "flop", "B")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _spawn(workload, seed, trace, steps, setup_only=False) -> dict:
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--steps", str(steps)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: a repetition ran past {CHILD_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise BenchError(f"{workload}: a repetition exited with {proc.returncode}\n"
                         f"{proc.stderr[-4000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep["entered"] - spawned
    rep["traced"] = bool(trace)
    return rep


def _apply_gate(reps):
    """Sets `error` on every repetition that fails the correctness gate."""
    digests = Counter(r["digest"] for r in reps if r["error"] is None)
    if digests:
        expected = digests.most_common(1)[0][0]
        for r in reps:
            if r["error"] is None and r["digest"] != expected:
                r["error"] = "student actor digest differs between repetitions"
    exact = [m for m, unit in LAYER_METRICS
             if unit in EXACT_UNITS and not m.startswith("trace.")]
    first = None
    for r in reps:
        if "layers" not in r or r["error"] is not None:
            continue
        if abs(r["unaccounted_s"]) > ACCOUNTING_TOLERANCE_S:
            r["error"] = f"spans leave {r['unaccounted_s']:.6f} s of the run unaccounted"
        elif first is None:
            first = r
        elif any(r["layers"][m] != first["layers"][m] for m in exact):
            r["error"] = "work counts differ between traced repetitions"


def measure(workload: str, seed: int, seconds: float, trace: bool,
            steps: int = TOTAL_STEPS) -> dict:
    """Runs one workload and returns the result object, plus `info`."""
    if not (ROOT / "src" / "rile" / "orchestrator.py").is_file():
        raise BenchError(f"no src/rile/ under {ROOT}")
    setups = [] if trace else [
        _spawn(workload, seed, False, steps, setup_only=True)["setup_s"]
        for _ in range(MIN_SETUPS)]

    kinds = itertools.cycle((True, False)) if trace else itertools.repeat(False)
    reps = []
    start = time.monotonic()
    for traced in kinds:
        reps.append(_spawn(workload, seed, traced, steps))
        n_traced = sum(r["traced"] for r in reps)
        if trace and (n_traced < 2 or n_traced == len(reps)):
            continue
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(reps) > seconds:
            break
    _apply_gate(reps)

    timed = [r for r in reps if "steps" in r]
    if not timed:
        raise BenchError(f"{workload}: every repetition aborted: {reps[0]['error']}")
    failed = sum(r["error"] is not None for r in reps)
    med = statistics.median
    if trace:
        traced = [r for r in timed if r["traced"]]
        untraced = [r for r in timed if not r["traced"]]
        traced_sps = med(r["steps"] / r["wall_s"] for r in traced)
        untraced_sps = med(r["steps"] / r["wall_s"] for r in untraced)
        values = {m: med(r["layers"][m] for r in traced) for m, _ in LAYER_METRICS
                  if not m.startswith("trace.")}
        values.update({
            "trace.traced_steps_per_s": traced_sps,
            "trace.untraced_steps_per_s": untraced_sps,
            "trace.overhead_pct": (untraced_sps / traced_sps - 1.0) * 100.0,
            "trace.unaccounted_s": max(abs(r["unaccounted_s"]) for r in traced),
            "trace.spans": med(r["spans"] for r in traced),
        })
        units = dict(LAYER_METRICS)
    else:
        values = {
            "env_steps_per_s": med(r["steps"] / r["wall_s"] for r in timed),
            "cpu_s_per_kstep": med(r["cpu_s"] / r["steps"] * 1000.0 for r in timed),
            "setup_s": med(setups + [r["setup_s"] for r in reps]),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in timed),
        }
        units = dict(END_TO_END)
    return {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
        "info": {
            "digests": sorted({r["digest"] for r in timed}),
            "errors": [r["error"] for r in reps if r["error"] is not None],
            "not_traced": sorted({m for r in reps for m in r.get("missing", ())}),
        },
    }


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    """Host and source facts recorded with every result; not gated."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = " ".join(str(blas.get(k, "")) for k in
                        ("name", "version", "openblas configuration")).strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v, "unset") for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": _git_commit(),
        "src_rile_lines": sum(p.read_bytes().count(b"\n")
                              for p in (ROOT / "src" / "rile").glob("*.py")),
    }


def _report(workload, seed, trace, result):
    info = result["info"]
    gate = "pass" if result["correct"] else "FAIL " + "; ".join(info["errors"])
    print(f"{workload} seed={seed} trace={int(trace)} "
          f"failed={result['failed']}/{result['attempted']} "
          f"({result['failed'] / result['attempted']:.0%}) gate={gate} "
          f"digest={','.join(d[:16] for d in info['digests'])}")
    if info["not_traced"]:
        print(f"  not traced (target missing): {', '.join(info['not_traced'])}")
    for name, m in result["metrics"].items():
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {w: measure(w, args.seed, args.seconds, bool(args.trace)) for w in names}
        print("host " + json.dumps(provenance(), sort_keys=True))
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    for w, result in results.items():
        _report(w, args.seed, args.trace, result)
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    else:
        final = {k: v for k, v in results[args.workload].items() if k != "info"}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
