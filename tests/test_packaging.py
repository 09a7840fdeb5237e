"""Packaging metadata and module layering: every console script declared in
pyproject.toml resolves to a callable, and the modules of the package import
one another in one order."""

import ast
import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_script_targets_import():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


# Each module may import only modules before it: the engine in `freeconstr`
# looks up everything it needs itself and never takes a callback from `bv`.
LAYERS = ("errors", "rng", "trees", "exactgeom", "sampling", "algebra", "freeconstr", "bv")
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "operadic"


def _package_imports(path: Path) -> set:
    """Modules of the package imported anywhere in the file, function bodies
    included."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                out |= {node.module} if node.module else {a.name for a in node.names}
            elif node.level == 0 and (node.module or "").startswith("operadic."):
                out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names if a.name.startswith("operadic.")}
    return out


def test_modules_import_only_earlier_layers():
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    assert sorted(LAYERS) == modules
    for pos, name in enumerate(LAYERS):
        imported = _package_imports(PACKAGE / (name + ".py"))
        assert imported <= set(LAYERS[:pos]), (name, sorted(imported - set(LAYERS[:pos])))


ROOT = PACKAGE.parents[1]


def _top_level(tree):
    """The defs, classes and assigned names at the top level of a module, as
    (name, node)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        yield n.id, node


def _definitions(tree):
    """The top-level names of a module and the methods of its classes,
    dunders left out, as (qualified name, node)."""
    for name, node in _top_level(tree):
        if not (name.startswith("__") and name.endswith("__")):
            yield name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not (
                        member.name.startswith("__") and member.name.endswith("__")):
                    yield "%s.%s" % (node.name, member.name), member


# Public names that nothing in src/ or perfbench/ uses: the paper's
# constructions that only the tests call, and UsageError, which the error
# contract reserves for malformed invocations.  A name leaves this list once
# the package or the benchmark uses it.
TEST_ONLY_API = (
    "algebra.aug_circ", "algebra.aug_mu_s", "algebra.collapse_family",
    "algebra.convert_onefold", "algebra.gamma_compose", "algebra.gamma_glue",
    "algebra.gamma_identity", "algebra.gamma_to_semb", "algebra.induced_infinitesimal",
    "algebra.ovec_mu", "algebra.ovec_unit", "algebra.prod_circ",
    "bv.intermediate_act", "errors.UsageError", "exactgeom.fm_coords",
    "exactgeom.identity_embedding", "exactgeom.semb_compose", "freeconstr.b_point",
    "freeconstr.base_point", "freeconstr.has_univalent_vertex", "freeconstr.ib_point",
    "trees.contract_edge", "trees.emit_dot", "trees.psi_closure",
)


def _words(directory: Path) -> dict:
    """word -> [(file, line number)] of its whole-word occurrences."""
    seen = {}
    for path in directory.rglob("*.py"):
        for n, line in enumerate(path.read_text().splitlines(), 1):
            for word in set(re.findall(r"\w+", line)):
                seen.setdefault(word, []).append((path, n))
    return seen


def _package_references() -> dict:
    """name -> [(file, line number)] of every name, attribute and imported
    name in the code of the package; docstrings and comments do not count."""
    refs = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias)):
                name = node.id if isinstance(node, ast.Name) else (
                    node.attr if isinstance(node, ast.Attribute) else node.name)
                refs.setdefault(name, []).append((path, node.lineno))
    return refs


def test_every_top_level_name_is_used():
    # a public name is API when code in src/ or perfbench/ uses it, or when
    # TEST_ONLY_API lists it; a use in the tests alone makes it scaffolding.
    # A private name or a method that nothing names outside its own
    # definition is dead.
    refs = _package_references()
    words = {d: _words(ROOT / d) for d in ("src", "tests", "perfbench")}
    unused, test_only = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, node in _definitions(ast.parse(path.read_text())):
            name = qualified.rpartition(".")[2]
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])

            def outside(places):
                return any(p != path or not first <= n <= node.end_lineno for p, n in places)

            if "." in qualified or name.startswith("_"):
                used = any(outside(w.get(name, ())) for w in words.values())
            elif outside(refs.get(name, ())) or name in words["perfbench"]:
                continue
            else:
                used = "%s.%s" % (path.stem, name) in TEST_ONLY_API
                test_only.add("%s.%s" % (path.stem, name))
            if not used:
                unused.append("%s.%s" % (path.stem, qualified))
    assert not unused
    assert sorted(set(TEST_ONLY_API) - test_only) == []  # used now, or gone


def test_every_imported_package_name_is_used():
    # a name imported from the package and never read in the module is a
    # leftover
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                unused += ["%s: %s" % (path.stem, a.asname or a.name) for a in node.names
                           if (a.asname or a.name) not in read]
    assert not unused


def test_each_name_defined_once():
    # a helper two modules need lives in the earlier layer and is imported
    owners = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name in {name for name, _ in _top_level(ast.parse(path.read_text()))}:
            owners.setdefault(name, []).append(path.stem)
    assert {name: where for name, where in owners.items() if len(where) > 1} == {}


def test_percent_format_operands_are_tuple_literals():
    # "%r" % x unpacks x when x is a tuple: KFoldTree((), ()) raised TypeError
    # ("not enough arguments for format string") in place of its own error
    loose = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                    and isinstance(node.left, ast.Constant) and isinstance(node.left.value, str)
                    and re.search(r"%[rs]", node.left.value) and not isinstance(node.right, ast.Tuple)):
                loose.append("%s:%d" % (path.stem, node.lineno))
    assert not loose


def _bench_module(node):
    """The package module that a `mods.<module>` expression of the benchmark
    names, or None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "mods":
        return node.attr
    return None


def test_benchmark_names_exist():
    # the benchmark looks the package's names up by attribute; a rename there
    # would turn a benchmark run into run_failed
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    targets = next(ast.literal_eval(node.value) for node in tracer.body if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"])
    wanted = {(module, name) for module, names in targets.items() for name in names}
    workloads = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    aliases = {}  # A = mods.algebra and the like
    for node in ast.walk(workloads):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            pairs = (zip(target.elts, value.elts) if isinstance(target, ast.Tuple)
                     and isinstance(value, ast.Tuple) else [(target, value)])
            for name, module in pairs:
                if isinstance(name, ast.Name) and _bench_module(module):
                    aliases.setdefault(name.id, set()).add(_bench_module(module))
    assert set("AFBTR") <= set(aliases) and all(len(m) == 1 for m in aliases.values()), aliases
    for node in ast.walk(workloads):
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                wanted.add((*aliases[node.value.id], node.attr))
            elif _bench_module(node.value):
                wanted.add((_bench_module(node.value), node.attr))
    # the oracles take the trees module as T, the name main imports it under
    oracles = ast.parse((ROOT / "perfbench" / "oracles.py").read_text())
    assert any(isinstance(node, ast.ImportFrom) and node.module == "operadic"
               and [(a.name, a.asname) for a in node.names] == [("trees", "T")]
               for node in ast.walk(oracles))
    wanted |= {("trees", node.attr) for node in ast.walk(oracles) if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name) and node.value.id == "T"}
    missing = sorted("%s.%s" % (module, name) for module, name in wanted
                     if not hasattr(importlib.import_module("operadic." + module), name))
    assert len(wanted) > 30 and not missing
