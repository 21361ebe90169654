"""The benchmark's tracer patches functions by module and name; each of its
targets must still name something in the program, or its spans silently
vanish from a traced run."""

import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# Left stale when the forward-once change deleted it (ROADMAP item 6).
KNOWN_STALE = {"rile.orchestrator.goal_reached"}


def _tracer_targets():
    """bench/tracer.py's TARGETS, executed from its source text so that
    nothing is written under bench/."""
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module.TARGETS


def _resolves(module: str, attr: str) -> bool:
    owner = importlib.import_module(module)
    for part in attr.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_every_tracer_target_resolves():
    targets = _tracer_targets()
    assert targets
    unresolved = {f"{m}.{a}" for m, a, *_ in targets if not _resolves(m, a)}
    assert unresolved == KNOWN_STALE
