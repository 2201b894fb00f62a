"""Source hygiene: no module of the package imports a name it never uses,
imports inside a function or imports another module's private name, no
public function, class or method is defined that the package never uses,
and every name the benchmark's tracer wraps still resolves."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tropgen"
TRACER = SRC.parent.parent / "perfbench" / "tracer.py"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that nothing else references.

    A name counts as used when it appears as an identifier anywhere in the
    module or as the root of an attribute chain.  `from __future__`
    imports are ignored.
    """
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Try):
            # optional-dependency fallbacks bind the same name in each branch
            for sub in ast.walk(node):
                if isinstance(sub, ast.ImportFrom):
                    for alias in sub.names:
                        imported[alias.asname or alias.name] = sub.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_unused_and_accepts_used():
    source = ("import os\n"
              "import json\n"
              "from math import gcd, lcm\n"
              "print(json.dumps(gcd(4, 6)))\n")
    assert unused_imports(source) == ["lcm (line 3)", "os (line 1)"]


def function_imports(source: str) -> list:
    """Import statements inside function bodies, as "function (line n)"."""
    return sorted(f"{fn.name} (line {node.lineno})"
                  for fn in ast.walk(ast.parse(source))
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(fn)
                  if isinstance(node, (ast.Import, ast.ImportFrom)))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_imports(path):
    assert function_imports(path.read_text()) == []


def test_function_import_detector():
    source = ("import os\n"
              "def f():\n    from math import gcd\n    return gcd\n"
              "class C:\n    def m(self):\n        import json\n")
    assert function_imports(source) == ["f (line 3)", "m (line 7)"]


def private_imports(source: str) -> list:
    """Underscored names, dunders aside, that a module imports from another
    module of its package, as "name (line n)"."""
    return sorted(f"{alias.name} (line {node.lineno})"
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.level
                  for alias in node.names
                  if alias.name.startswith("_")
                  and not alias.name.endswith("__"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports(path):
    # a helper another module needs gets a public name in its owner
    assert private_imports(path.read_text()) == []


def test_private_import_detector():
    source = ("from . import __version__\n"
              "from .a import public, _helper\n"
              "from os import _exit\n"
              "def f():\n    from .b import _other\n")
    assert private_imports(source) == ["_helper (line 2)", "_other (line 5)"]


# console-script entry points (pyproject.toml), called from outside
ENTRY_POINTS = {"cli.main"}


def public_definitions(mod: str, tree):
    """(label, node) for each public top-level function and class of a
    module, and each public non-dunder method of its top-level classes,
    labelled module.name and module.Class.name."""
    for top in tree.body:
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not top.name.startswith("_"):
            yield f"{mod}.{top.name}", top
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_")):
                    yield f"{mod}.{top.name}.{node.name}", node


def uses_outside_definitions(sources: dict) -> dict:
    """{label: referenced} for each public definition (public_definitions)
    of the {module: source} map.

    A name is referenced when it appears as an identifier, an attribute
    or an imported name anywhere in the sources other than inside the
    definition itself.
    """
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    refs = {}  # name -> ids of the nodes referencing it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append(id(node))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append(id(node))
            elif isinstance(node, ast.alias):
                refs.setdefault(node.asname or node.name, []).append(id(node))
    out = {}
    for mod, tree in trees.items():
        for label, definition in public_definitions(mod, tree):
            inside = {id(node) for node in ast.walk(definition)}
            out[label] = any(i not in inside
                             for i in refs.get(definition.name, ()))
    return out


def test_every_public_definition_is_used_in_the_package():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    unused = [name for name, used in uses_outside_definitions(sources).items()
              if not used and name not in ENTRY_POINTS]
    assert unused == []


def test_usage_detector():
    sources = {"a": ("def used():\n    return used()\n"
                     "def recursive_only():\n    return recursive_only()\n"
                     "class _Private:\n    pass\n"),
               "b": "from .a import used\nprint(used)\n"}
    assert uses_outside_definitions(sources) == {
        "a.used": True, "a.recursive_only": False}


def test_method_usage_detector():
    sources = {"a": ("class Shape:\n"
                     "    def area(self):\n        return self.area()\n"
                     "    def scaled(self):\n        return self\n"
                     "    def named(self):\n        return 'shape'\n"
                     "    def _private(self):\n        return 1\n"
                     "    def __repr__(self):\n        return self.named()\n"),
               "b": "from .a import Shape\nprint(Shape().scaled)\n"}
    assert uses_outside_definitions(sources) == {
        "a.Shape": True, "a.Shape.area": False, "a.Shape.scaled": True,
        "a.Shape.named": True}


def traced_names() -> tuple:
    """The TRACED names of the benchmark's tracer, read from its source
    without importing the benchmark."""
    for node in ast.parse(TRACER.read_text()).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACER}")


def test_every_traced_name_resolves():
    # the tracer looks each "<module>.<name>" or "<module>.<Class>.<name>"
    # up in vars() of its owner; a deleted binding would break only the
    # traced benchmark run
    missing = []
    for name in traced_names():
        module, *path, attr = name.split(".")
        owner = importlib.import_module("tropgen." + module)
        for part in path:
            owner = getattr(owner, part)
        if attr not in vars(owner):
            missing.append(name)
    assert missing == []
