"""No import cycle among the modules of src/rile/. Imports inside function
bodies count too: they run later than the module's own, but they tie the
two modules together all the same.

And no top-level name, method or property of src/rile/ without a caller
in src/rile/ or bench/, no class field that nothing there reads, no
function parameter that its body never reads, no batch scratch outside
nets: each network owns its own, so no other module names it, no learner
of the reward pathway read from outside it in orchestrator, float32
named only in nets and the three learner factories, no seed
stream that nothing reads, no call of evaluate_policy outside the one
report routine, one ReplayBuffer construction, the one store of
collected rows, one call of _update, in the one training loop, a loop
whose body names no algorithm, and one call of trainer_act, in the
trainer's update. An allowlist entry that no longer names an exception
fails too."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rile"
BENCH = ROOT / "bench"

# Names that may stay in src/rile/ although only tests use them, and why.
UNCALLED_ALLOWED = {
    "gaussian_tanh_logprob": "the exact tanh-Gaussian density: the tests' "
                             "reference for the clamped losses",
}

# Parameters that may go unread, and why.
UNREAD_ALLOWED = {}

# Class fields that may go unread in src/rile/ and bench/, and why.
UNREAD_FIELDS_ALLOWED = {
    "RunArtifacts.metrics_rows": "a run's output, read by run_training's callers",
    "RunArtifacts.diagnostics_rows": "a run's output, read by run_training's callers",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


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


def _defined(tree: ast.Module):
    """(name, statement) for each top-level function, class and constant."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name) and not node.id.startswith("__"):
                        yield node.id, stmt


def _referenced(node: ast.AST) -> set:
    """Identifiers that node reads: loaded names, attributes, the parts of
    imported names, and the parts of string constants that are dotted
    identifiers (such as "ReplayBuffer.insert")."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.update(n.name.split("."))
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and _DOTTED.fullmatch(n.value)):
            found.update(n.value.split("."))
    return found


def _members(tree: ast.Module):
    """(Class.name, name, statement) for each method and property of each
    top-level class, other than the dunder methods Python calls itself."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for stmt in cls.body:
                if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (stmt.name.startswith("__") and stmt.name.endswith("__"))):
                    yield f"{cls.name}.{stmt.name}", stmt.name, stmt


def _uncalled(package: Path, others) -> list:
    """'module.name' for each top-level name of package's modules that no
    top-level statement of package or of the files others reads, other than
    the statement that defines it, and 'module.Class.name' for each method
    or property that nothing reads outside its own body. Names are matched
    by identifier alone, so a name that shares an identifier with a used
    one counts as used."""
    trees = {p: ast.parse(p.read_text()) for p in [*sorted(package.glob("*.py")), *others]}
    # (top-level statement, the part of it read from, identifiers it reads):
    # a class is read from member by member, and from its header
    reads = [(stmt, part, _referenced(part)) for tree in trees.values() for stmt in tree.body
             for part in ([*stmt.bases, *stmt.keywords, *stmt.decorator_list, *stmt.body]
                          if isinstance(stmt, ast.ClassDef) else [stmt])]
    found = []
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for name, defining in _defined(tree):
            if not any(name in names for stmt, _, names in reads if stmt is not defining):
                found.append(f"{path.stem}.{name}")
        for qualified, name, defining in _members(tree):
            if not any(name in names for _, part, names in reads if part is not defining):
                found.append(f"{path.stem}.{qualified}")
    return sorted(found)


def test_the_caller_scan_sees_names_attributes_imports_and_strings(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        "X = 1\nY, Z = 2, 3\n"
        "def f():\n    return f()\n"  # only its own body calls f
        "def g():\n    pass\n"
        "class C:\n    def m(self):\n        return X\n")
    (pkg / "b.py").write_text("from .a import g\nT = ('pkg.a', 'C.m')\n")
    other = tmp_path / "other.py"
    other.write_text("import pkg.a\nprint(pkg.a.Y)\n")
    assert _uncalled(pkg, [other]) == ["a.Z", "a.f", "b.T"]


def test_the_caller_scan_sees_methods_and_properties(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        "class C:\n"
        "    def __init__(self):\n        self.n = self.used()\n"
        "    def used(self):\n        return self.shape\n"
        "    @property\n    def shape(self):\n        return 1\n"
        "    @property\n    def size(self):\n        return self.size\n"  # reads only itself
        "    def spare(self):\n        return 0\n"
        "    def called_outside(self):\n        return 0\n"
        "    def named_in_a_string(self):\n        return 0\n"
        "X = C()\nT = 'C.named_in_a_string'\n")
    other = tmp_path / "other.py"
    other.write_text("import pkg.a\nprint(pkg.a.X.called_outside(), pkg.a.T)\n")
    assert _uncalled(pkg, [other]) == ["a.C.size", "a.C.spare"]


def test_every_src_name_has_a_caller():
    found = {n: n.split(".", 1)[1] for n in _uncalled(PACKAGE, sorted(BENCH.glob("*.py")))}
    uncalled = [n for n, name in found.items() if name not in UNCALLED_ALLOWED]
    assert not uncalled, "no caller in src/rile/ or bench/: " + ", ".join(uncalled)
    stale = sorted(set(UNCALLED_ALLOWED) - set(found.values()))
    assert not stale, "allowed as uncalled, but called: " + ", ".join(stale)


def _unread_parameters(tree: ast.Module) -> list:
    """'Qualified.name(param)' for each parameter of each function or
    method in tree that the function's body never loads by name. A read in
    a nested function counts for the function that encloses it."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                args = child.args
                params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                          args.vararg, args.kwarg) if a is not None]
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                found.extend(f"{name}({p})" for p in params if p not in read)
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def test_the_parameter_scan_sees_methods_nesting_and_every_kind_of_parameter():
    source = ("def f(a, b, *args, c, **kw):\n    return a + args[0] + kw['x']\n"
              "def g(x):\n    def h(y):\n        return x\n    return h\n"
              "class C:\n    def m(self, z):\n        z = 1\n        return self\n")
    assert _unread_parameters(ast.parse(source)) == ["f(b)", "f(c)", "g.h(y)", "C.m(z)"]


def test_every_parameter_is_read():
    found = {f"{path.stem}.{p}": p for path in sorted(PACKAGE.glob("*.py"))
             for p in _unread_parameters(ast.parse(path.read_text()))}
    unread = [n for n, p in found.items() if p not in UNREAD_ALLOWED]
    assert not unread, "parameters never read: " + ", ".join(unread)
    stale = sorted(set(UNREAD_ALLOWED) - set(found.values()))
    assert not stale, "allowed as unread, but read or gone: " + ", ".join(stale)


def _unread_fields(package: Path, others) -> list:
    """'module.Class.field' for each annotated field of each top-level class
    of package's modules that no attribute load x.field in package or in
    the files others reads. Fields are matched by name alone, so a field
    that shares its name with an attribute read elsewhere counts as read."""
    paths = sorted(package.glob("*.py"))
    trees = {p: ast.parse(p.read_text()) for p in [*paths, *others]}
    loaded = {n.attr for tree in trees.values() for n in ast.walk(tree)
              if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    found = []
    for path in paths:
        for cls in trees[path].body:
            if isinstance(cls, ast.ClassDef):
                found += [f"{path.stem}.{cls.name}.{stmt.target.id}" for stmt in cls.body
                          if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                          and stmt.target.id not in loaded]
    return sorted(found)


def test_the_field_scan_sees_attribute_loads_only(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\nclass C:\n    read: int\n    written: int = 0\n"
        "    named_in_a_string: int = 0\n    read_outside: int = 0\n    plain = 1\n"
        "def f(c, written):\n    c.written = c.read + written\n"
        "    return 'C.named_in_a_string', getattr(c, 'named_in_a_string')\n")
    other = tmp_path / "other.py"
    other.write_text("import pkg.a\nprint(pkg.a.C(1).read_outside)\n")
    assert _unread_fields(pkg, [other]) == ["a.C.named_in_a_string", "a.C.written"]


def test_every_field_is_read():
    found = {n: n.split(".", 1)[1] for n in _unread_fields(PACKAGE, sorted(BENCH.glob("*.py")))}
    unread = [n for n, field in found.items() if field not in UNREAD_FIELDS_ALLOWED]
    assert not unread, "fields nothing in src/rile/ or bench/ reads: " + ", ".join(unread)
    stale = sorted(set(UNREAD_FIELDS_ALLOWED) - set(found.values()))
    assert not stale, "allowed as unread, but read or gone: " + ", ".join(stale)


def _is_scratch(name: str) -> bool:
    return name == "ws" or name.endswith("_ws")


def _scratch_names(source: str) -> list:
    """'kind name' for each mention in source of nets' scratch: the name
    Workspace anywhere, and each parameter, class field or attribute named
    ws or ending in _ws."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "Workspace":
            found.add("name Workspace")
        elif isinstance(node, ast.alias) and node.name.split(".")[-1] == "Workspace":
            found.add("import Workspace")
        elif isinstance(node, ast.Attribute) and (node.attr == "Workspace"
                                                  or _is_scratch(node.attr)):
            found.add(f"attribute {node.attr}")
        elif isinstance(node, ast.arg) and _is_scratch(node.arg):
            found.add(f"parameter {node.arg}")
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                targets = ([stmt.target] if isinstance(stmt, ast.AnnAssign)
                           else stmt.targets if isinstance(stmt, ast.Assign) else [])
                found.update(f"field {t.id}" for t in targets
                             if isinstance(t, ast.Name) and _is_scratch(t.id))
    return sorted(found)


def test_the_scratch_scan_sees_imports_parameters_fields_and_attributes():
    source = ("from .nets import Workspace as W\nimport rile.nets\n"
              "def f(x, ws=None, *, reward_ws):\n    return rile.nets.Workspace(), x.ws\n"
              "class C:\n    potential_ws: object = None\n    news = 1\n"
              "def g(wsx, cws):\n    return wsx.answer, lambda disc_ws: 0\n")
    assert _scratch_names(source) == [
        "attribute Workspace", "attribute ws", "field potential_ws", "import Workspace",
        "parameter disc_ws", "parameter reward_ws", "parameter ws"]
    assert _scratch_names("def f(w, s):\n    return w.wsx\n") == []


def test_only_nets_knows_the_scratch():
    found = {path.stem: _scratch_names(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.stem != "nets"}
    found = {module: names for module, names in found.items() if names}
    assert not found, "batch scratch named outside nets: " + "; ".join(
        f"{module} ({', '.join(names)})" for module, names in found.items())


# The only places outside nets that may name float32: the learner factories,
# which build every network a run trains in it.
FLOAT32_ALLOWED = {"agents.make_actor_critic", "discriminator.make_discriminator",
                   "baselines.make_airl_heads"}
_FLOAT32 = {"float32", "single", "f4", "<f4", "=f4"}


def _float32_users(source: str, module: str) -> list:
    """'module.Qualified.function' (or 'module.<module>') for each mention of
    float32 in source: a name or attribute float32 or single, or a string
    that is one of the dtype's names."""
    found = set()

    def visit(node, prefix, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                visit(child, name + ".",
                      function or (None if isinstance(child, ast.ClassDef) else name))
                continue
            if ((isinstance(child, ast.Name) and child.id in _FLOAT32)
                    or (isinstance(child, ast.Attribute) and child.attr in _FLOAT32)
                    or (isinstance(child, ast.Constant) and child.value in _FLOAT32)):
                found.add(f"{module}.{function or '<module>'}")
            visit(child, prefix, function)

    visit(ast.parse(source), "", None)
    return sorted(found)


def test_the_float32_scan_sees_names_attributes_strings_and_nesting():
    source = ("import numpy as np\nX = np.float32\n"
              "def f():\n    return np.zeros(1, dtype='f4')\n"
              "class C:\n    def g(self):\n        def h():\n            return single\n"
              "        return h\n"
              "def k():\n    \"float32 in a docstring is prose\"\n    return np.float64\n")
    assert _float32_users(source, "m") == ["m.<module>", "m.C.g", "m.f"]


def test_float32_is_named_only_in_nets_and_the_learner_factories():
    found = {user for path in sorted(PACKAGE.glob("*.py")) if path.stem != "nets"
             for user in _float32_users(path.read_text(), path.stem)}
    assert not found - FLOAT32_ALLOWED, "float32 named outside nets and the factories"
    assert not FLOAT32_ALLOWED - found, "allowed to name float32, but names none"


# Functions of orchestrator that may read the reward pathway's learners, and why.
PATHWAY_READERS_ALLOWED = {
    "_train": "fills RunArtifacts' trainer, disc and airl, which bench/child.py reads",
    "ReplayBuffer.ready": "the trainer batch is needed only while there is a trainer",
}
LEARNERS = {"trainer", "disc", "airl"}


def _pathway_readers(source: str) -> list:
    """'Qualified.function learner' for each read of a learner (trainer,
    disc or airl) through a name or attribute called pathway, outside the
    class _RewardPathway."""
    found = set()

    def visit(node, prefix, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if child.name != "_RewardPathway":
                    visit(child, prefix + child.name + ".", function)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix + child.name + ".", function or prefix + child.name)
            else:
                if (isinstance(child, ast.Attribute) and child.attr in LEARNERS
                        and "pathway" in (getattr(child.value, "id", None),
                                          getattr(child.value, "attr", None))):
                    found.add(f"{function or '<module>'} {child.attr}")
                visit(child, prefix, function)

    visit(ast.parse(source), "", None)
    return sorted(found)


def test_the_pathway_scan_sees_names_attributes_and_nesting():
    source = ("def f(pathway):\n    return pathway.trainer, pathway.frozen\n"
              "class R:\n    def g(self):\n        def h():\n"
              "            return self.pathway.disc\n        return h\n"
              "class _RewardPathway:\n    def update(self, pathway):\n"
              "        return pathway.airl, self.trainer\n"
              "x = other.pathway.airl\ny = pathway_like.trainer\n")
    assert _pathway_readers(source) == ["<module> airl", "R.g disc", "f trainer"]


def test_only_the_reward_pathway_reads_its_learners():
    found = [r for r in _pathway_readers((PACKAGE / "orchestrator.py").read_text())
             if r.split()[0] not in PATHWAY_READERS_ALLOWED]
    assert not found, "learners read outside _RewardPathway: " + ", ".join(found)


def _stream_reads(source: str) -> set:
    """The names that source reads as streams["name"]."""
    return {n.slice.value for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Subscript) and isinstance(n.value, ast.Name)
            and n.value.id == "streams" and isinstance(n.slice, ast.Constant)
            and isinstance(n.slice.value, str)}


def test_the_stream_scan_sees_string_subscripts_of_streams_only():
    source = ("def f(streams, other, k):\n"
              "    return streams['env'], other['mix'], streams[k], streams.get('disc')\n"
              "def g(self):\n    return self.streams['noise'], {'eval': 1}['eval']\n")
    assert _stream_reads(source) == {"env"}


def test_every_seed_stream_is_read():
    from rile.orchestrator import seed_streams

    read = set().union(*(_stream_reads(p.read_text()) for p in PACKAGE.glob("*.py")))
    unread = sorted(set(seed_streams(0)) - read)
    assert not unread, "seed streams nothing reads: " + ", ".join(unread)


def _call_sites(source: str, name: str) -> list:
    """The qualified name of the function around each call of name, called
    by name or as an attribute, in source; '<module>' outside every
    function. Sorted."""
    found = []

    def visit(node, prefix, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", function)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix + child.name + ".", prefix + child.name)
            else:
                if isinstance(child, ast.Call) and name in (
                        getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                    found.append(function or "<module>")
                visit(child, prefix, function)

    visit(ast.parse(source), "", None)
    return sorted(found)


def test_the_call_scan_sees_names_attributes_and_nesting():
    source = ("def f():\n    return evaluate_policy(1)\n"
              "class C:\n    def m(self):\n        def h():\n"
              "            return metrics.evaluate_policy()\n        return h\n"
              "x = evaluate_policy\ny = evaluate_policy(2)\nz = evaluate(3)\n")
    assert _call_sites(source, "evaluate_policy") == ["<module>", "C.m.h", "f"]


def test_the_student_is_evaluated_only_by_the_report():
    # One routine reports, during the run and at its end: a second call
    # site would be a second eval path (a final eval rolled twice, or a
    # result that reaches no metrics.jsonl row).
    sites = [f"{path.stem}.{site}" for path in sorted(PACKAGE.glob("*.py"))
             for site in _call_sites(path.read_text(), "evaluate_policy")]
    assert sites == ["orchestrator._report"], "evaluate_policy called at: " + ", ".join(sites)


def test_one_store_holds_the_collected_rows():
    # The student, discriminator and trainer batches are windows of one
    # store: a second ReplayBuffer would be a second copy of the rows.
    sites = [f"{path.stem}.{site}" for path in sorted(PACKAGE.glob("*.py"))
             for site in _call_sites(path.read_text(), "ReplayBuffer")]
    assert len(sites) == 1, "ReplayBuffer constructed at: " + ", ".join(sites)


def test_one_training_loop_updates_the_learners():
    # Every adversarial run updates through the one loop's one call: a
    # second call site would be a second batch source or a second loop.
    sites = [f"{path.stem}.{site}" for path in sorted(PACKAGE.glob("*.py"))
             for site in _call_sites(path.read_text(), "_update")]
    assert sites == ["orchestrator._run_loop"], "_update called at: " + ", ".join(sites)


def _algorithm_names(source: str, function: str) -> list:
    """'line name' for each place in the body of source's top-level
    function that names an algorithm: an attribute called algorithm, or a
    string constant that is an algorithm's name. Sorted by line."""
    from rile.orchestrator import ALGORITHMS

    [body] = [n for n in ast.parse(source).body
              if isinstance(n, ast.FunctionDef) and n.name == function]
    found = [(n.lineno, n.attr) for n in ast.walk(body)
             if isinstance(n, ast.Attribute) and n.attr == "algorithm"]
    found += [(n.lineno, n.value) for n in ast.walk(body)
              if isinstance(n, ast.Constant) and n.value in ALGORITHMS]
    return [f"{line} {name}" for line, name in sorted(found)]


def test_the_algorithm_scan_sees_attributes_and_names_in_the_function_only():
    source = ("def loop(cfg):\n    if cfg.algorithm == 'gail':\n        return 'rile_on'\n"
              "    return cfg.env, 'rile'\n"
              "def other(cfg):\n    return cfg.algorithm == 'bc'\n")
    assert _algorithm_names(source, "loop") == ["2 algorithm", "2 gail", "3 rile_on"]


def test_the_training_loop_names_no_algorithm():
    # One loop serves every adversarial run: the store knows rile_on's
    # window and the reward pathway its learners, so the loop's body
    # branches on no algorithm.
    found = _algorithm_names((PACKAGE / "orchestrator.py").read_text(), "_run_loop")
    assert not found, "_run_loop names an algorithm at: " + ", ".join(found)


def test_the_trainer_draws_its_actions_only_for_its_batches():
    # The trainer's actions are drawn when it updates, for every row of its
    # batch, from the forward its update reuses: a second call site would be
    # a collection-time draw that the store would have to keep.
    sites = [f"{path.stem}.{site}" for path in sorted(PACKAGE.glob("*.py"))
             for site in _call_sites(path.read_text(), "trainer_act")]
    assert sites == ["orchestrator._RewardPathway.update"], (
        "trainer_act called at: " + ", ".join(sites))
