"""src/igkit keeps only what a command runs.

An AST pass over src/igkit/*.py starts from every top-level definition of
cli.py and follows names to top-level definitions (functions, classes and
assigned names) in any module: a bare name to the definition of that name in
its own module or to the one it imports under that name, and `module.name`
to a definition of an igkit module imported as `module`. A stand-in that
cli.py makes with `_lazy("module", "name", …)` is read as an import of
`module.name` under the name it is assigned to. Any other string in cli.py
that spells a name of its scope is read as that name, because `main` looks
up the reader of a command's input by the name the command's row gives. A
method or property of a class is a definition of its own: it is reached
when its class is, and reached code uses an attribute of that name
(`x.name`, any x). Dunders count as used.

The definitions it leaves unreached must be exactly ALLOWED: names that code
outside the package uses. The test fails when src/igkit gains a definition
no command reaches, and when an allowed name is reached or disappears, so
the list cannot go stale.
"""

import ast
import importlib
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "igkit"

# the benchmark's tracer (perfbench/tracing.py) wraps these among the
# module's names; they leave when the tracer stops counting from outside
TRACER = "wrapped by perfbench/tracing.py"

ALLOWED = {
    "__init__.__all__": "package metadata",
    "__init__.__version__": "package metadata",
    "__init__.fixture_text": "perfbench/oracles.py imports it",
    "grammar.replay": "perfbench/oracles.py imports it",
    "semilinear.diophantine_member": "perfbench/oracles.py imports it",
    "kernel.IMPLEMENTATION": "perfbench/worker.py reads it",
    "engine.CompiledGrammar.decode_form":
        "perfbench/tracing.py wraps it; tests/test_kernel.py checks the kernel's encoding with it",
    "vector_automata.equation_automaton": TRACER,
    "vector_automata.product": TRACER,
    "vector_automata.project_tracks": TRACER,
    "vector_automata.saturate": TRACER,
    "vector_automata.determinize": TRACER,
    "vector_automata.complement": TRACER,
    "grammar.SententialForm.yield_word": "perfbench/oracles.py calls it",
    "grammar.SententialForm.is_terminal": "perfbench/oracles.py calls it",
    "search.Verdict.configs_seen": "perfbench/tracing.py reads it",
    "search.Verdict.words_seen": "perfbench/tracing.py reads it",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(trees):
    defs = {}
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                defs[mod, node.name] = node
                if isinstance(node, ast.ClassDef):
                    defs.update(((mod, f"{node.name}.{m.name}"), m)
                                for m in node.body if isinstance(m, FUNCTIONS))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name):
                        defs[mod, t.id] = node
    return defs


def _walk(node):
    """`ast.walk`, leaving out the methods of a class: each is a definition
    of its own."""
    if not isinstance(node, ast.ClassDef):
        yield from ast.walk(node)
        return
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, FUNCTIONS):
            yield from ast.walk(child)


def stand_ins(tree):
    """{local name: (module, name)} for every `a, b = _lazy("module", "a", "b")`
    at the top level of a module."""
    found = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", None) == "_lazy"):
            module, *names = (arg.value for arg in node.value.args)
            local = (t.id for t in node.targets[0].elts)
            found.update(zip(local, ((module, name) for name in names)))
    return found


def _scope(mod, tree, defs, modules):
    """What a bare name and a module alias mean in `mod`."""
    names = {name: (m, name) for m, name in defs if m == mod}
    names.update(stand_ins(tree))
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                local = a.asname or a.name
                if node.module is None and a.name in modules:
                    aliases[local] = a.name
                else:
                    names[local] = (node.module or "__init__", a.name)
    return names, aliases


def unreached(src=SRC):
    """The "module.name" of every top-level definition under `src`, and the
    "module.Class.name" of every method, that no definition of cli.py
    reaches."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
    defs = _definitions(trees)
    scopes = {mod: _scope(mod, tree, defs, trees) for mod, tree in trees.items()}

    attrs = set()  # the attribute names that reached code uses
    lazy = stand_ins(trees["cli"])

    def uses(key):
        names, aliases = scopes[key[0]]
        by_name = key[0] == "cli" and key[1] not in lazy
        for node in _walk(defs[key]):
            if isinstance(node, ast.Name) and node.id in names:
                yield names[node.id]
            elif by_name and isinstance(node, ast.Constant) and node.value in names:
                yield names[node.value]
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    yield aliases[node.value.id], node.attr

    def used(mod, name):
        cls, _, method = name.partition(".")
        return ((mod, cls) in seen and (method in attrs
                                        or method.startswith("__") and method.endswith("__")))

    methods = [key for key in defs if "." in key[1]]
    todo = [key for key in defs if key[0] == "cli" and "." not in key[1]]
    seen = set(todo)
    while todo:
        for key in uses(todo.pop()):
            if key in defs and key not in seen:
                seen.add(key)
                todo.append(key)
        if not todo:
            todo = [key for key in methods if key not in seen and used(*key)]
            seen.update(todo)
    return {f"{mod}.{name}" for mod, name in defs.keys() - seen}


def test_every_definition_is_reached_from_the_cli_or_allowed():
    left = unreached()
    assert sorted(left - ALLOWED.keys()) == [], "reached by no command: move it to the tests"
    assert sorted(ALLOWED.keys() - left) == [], "reached by a command, or gone: drop it from ALLOWED"


def test_every_allowed_user_in_the_benchmark_spells_the_name():
    # a pin whose reason names a benchmark file lasts only while that file uses the name
    for name, reason in ALLOWED.items():
        for user in re.findall(r"perfbench/\w+\.py", reason):
            text = (SRC.parent.parent / user).read_text(encoding="utf-8")
            assert re.search(rf"\b{name.rpartition('.')[2]}\b", text), f"{user} does not use {name}"


def test_the_pass_follows_imports_and_module_aliases(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from . import lib as L\nfrom .util import helper as h\n"
        "def main():\n    return L.used() + h()\n", encoding="utf-8")
    (tmp_path / "lib.py").write_text(
        "def used():\n    return inner()\n\ndef inner():\n    return 1\n\n"
        "def dead():\n    return used()\n", encoding="utf-8")
    (tmp_path / "util.py").write_text(
        "def helper():\n    return 2\n\ndef used():\n    return 3\n", encoding="utf-8")
    assert unreached(tmp_path) == {"lib.dead", "util.used"}


def test_a_method_is_reached_through_an_attribute_of_its_name(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from .lib import Box\n"
        "def main():\n    return Box().size\n", encoding="utf-8")
    (tmp_path / "lib.py").write_text(
        "class Box:\n"
        "    def __init__(self):\n        self.n = 1\n\n"
        "    @property\n    def size(self):\n        return self.grow()\n\n"
        "    def grow(self):\n        return self.n\n\n"
        "    def shrink(self):\n        return 0\n\n"
        "class Unused:\n    def size(self):\n        return 0\n", encoding="utf-8")
    assert unreached(tmp_path) == {"lib.Box.shrink", "lib.Unused", "lib.Unused.size"}


def test_the_pass_follows_stand_ins(tmp_path):
    (tmp_path / "cli.py").write_text(
        "def _lazy(module, *names):\n    return names\n\n"
        "used, = _lazy(\"lib\", \"used\")\n"
        "other, = _lazy(\"util\", \"helper\")\n\n"
        "def main():\n    return used() + other()\n", encoding="utf-8")
    (tmp_path / "lib.py").write_text(
        "def used():\n    return inner()\n\ndef inner():\n    return 1\n\n"
        "def dead():\n    return used()\n", encoding="utf-8")
    (tmp_path / "util.py").write_text(
        "def helper():\n    return 2\n\ndef used():\n    return 3\n", encoding="utf-8")
    assert unreached(tmp_path) == {"lib.dead", "util.used"}


def test_every_stand_in_is_a_callable_of_its_module():
    from igkit import cli

    found = stand_ins(ast.parse((SRC / "cli.py").read_text(encoding="utf-8")))
    made = {local for local, value in vars(cli).items()
            if getattr(value, "__qualname__", "").startswith("_lazy.")}
    assert sorted(found) == sorted(made)
    assert {module for module, _ in found.values()} == {
        "automata", "closure", "counters", "etol", "semilinear"}
    for local, (module, name) in found.items():
        assert local == name  # no renames, so a stand-in cannot sit under another's name
        assert callable(getattr(importlib.import_module(f"igkit.{module}"), name))


def test_no_module_imports_argparse():
    # the command rows read argv and print their own help; argparse parses
    # command lines only in tests/util.py, as the oracle of that reader
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert "argparse" not in [a.name.partition(".")[0] for a in node.names], path.name
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").partition(".")[0] != "argparse", path.name
