"""The benchmark builds each workload's RunConfig from bench/workloads.py; a
removed or renamed RunConfig field must fail here, not in a benchmark run."""

import types
from pathlib import Path

import pytest

from rile.orchestrator import RunConfig

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _workloads_module():
    """bench/workloads.py, executed from its source text so that nothing is
    written under bench/."""
    module = types.ModuleType("bench_workloads")
    module.__file__ = str(WORKLOADS)
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    return module


MODULE = _workloads_module()


@pytest.mark.parametrize("name", sorted(MODULE.WORKLOADS))
def test_workload_config_is_valid(name):
    # as bench/child.py builds it
    cfg = RunConfig(**MODULE.WORKLOADS[name], **MODULE.COMMON,
                    total_steps=MODULE.TOTAL_STEPS, seed=0).validate()
    assert cfg.algorithm == MODULE.WORKLOADS[name]["algorithm"]
    # one report, and so one eval, one metrics window and one step checkpoint,
    # per repetition, as bench/README.md describes the work
    assert cfg.eval_every == MODULE.TOTAL_STEPS
