"""No import cycle among the modules of src/rile/. Imports inside function
bodies count too: they run later than the module's own, but they tie the
two modules together all the same."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rile"


def _imported(source: str, modules: set) -> set:
    """The modules of the package that source imports anywhere."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level <= 1:
            base = node.module or ""
            if node.level == 0:
                if base != "rile" and not base.startswith("rile."):
                    continue
                base = base[len("rile."):]
            names = [base] if base else [a.name for a in node.names]
        else:
            continue
        for name in names:
            if name.startswith("rile."):
                name = name[len("rile."):]
            found.add(name.split(".")[0])
    return found & modules


def _graph() -> dict:
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    return {m: _imported((PACKAGE / f"{m}.py").read_text(), modules)
            for m in sorted(modules)}


def _cycle(graph: dict):
    """One import cycle as a list of modules, first repeated last, or None."""
    state = {}  # module -> "open" while on the search path, "done" after

    def visit(m, path):
        state[m] = "open"
        for n in sorted(graph[m]):
            if state.get(n) == "open":
                return path[path.index(n):] + [m, n]
            if n not in state:
                found = visit(n, path + [m])
                if found:
                    return found
        state[m] = "done"
        return None

    for m in graph:
        if m not in state:
            found = visit(m, [])
            if found:
                return found
    return None


def test_the_graph_sees_module_and_function_level_imports():
    source = ("from .nets import mlp_init\nimport numpy as np\n"
              "def f():\n    from . import orchestrator\n    import rile.envs\n")
    assert _imported(source, {"agents", "envs", "nets", "orchestrator"}) == {
        "envs", "nets", "orchestrator"}
    assert "nets" in _graph()["agents"]
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b"}, "b": set()}) is None


def test_no_import_cycle():
    cycle = _cycle(_graph())
    assert cycle is None, "import cycle: " + " -> ".join(cycle)
