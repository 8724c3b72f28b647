"""Every name a module of the package imports is used in that module or
listed in its __all__, and every module-level private function or class,
every public one a module lists in its __all__, and every public method
of a module-level class is referenced somewhere in the package outside
its own definition.  Standard-library
scans of the source, so they run with the rest of the suite and need no
linter."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kirchlab"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_unused_and_accepts_exported_names():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from dataclasses import dataclass, field\n"
        "from .spectral import pair_norm as pn\n"
        "__all__ = ['pn']\n"
        "@dataclass\n"
        "class C:\n"
        "    x: int\n"
        "def f():\n"
        "    return os.path.join('a')\n"
    )
    assert unused_imports(source) == ["field (line 4)", "json (line 2)"]


def _exported(tree) -> set[str]:
    """The names a module lists in its __all__."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _referenced_names(tree) -> list[str]:
    """Every name the tree reads, as a bare name, an attribute or an import."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.alias):
            out.append(node.name)
    return out


def _unreferenced_definitions(sources: dict, definitions) -> list[str]:
    """The definitions that definitions(tree) lists for a module's tree and
    that no module names outside the definition itself; `sources` maps a
    module name to its text."""
    defined, counts = [], Counter()
    for module, source in sources.items():
        tree = ast.parse(source)
        counts.update(_referenced_names(tree))
        defined += [(module, node) for node in definitions(tree)]
    # a definition that names only itself (recursion) is still dead
    return sorted(
        f"{module}: {node.name} (line {node.lineno})"
        for module, node in defined
        if counts[node.name] == _referenced_names(node).count(node.name)
    )


def _module_definitions(tree, chosen):
    """Module-level functions and classes whose name chosen(name) accepts."""
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and chosen(node.name)
    ]


def unreferenced_private_definitions(sources: dict) -> list[str]:
    """Module-level private functions and classes (one leading underscore)
    that no module names outside the definition itself."""
    return _unreferenced_definitions(
        sources,
        lambda tree: _module_definitions(
            tree, lambda name: name.startswith("_") and not name.startswith("__")
        ),
    )


def unreferenced_public_definitions(sources: dict, exempt=()) -> list[str]:
    """Module-level functions and classes that a module lists in its
    __all__ and that no module names outside the definition itself,
    leaving out the names in `exempt`."""
    return _unreferenced_definitions(
        sources,
        lambda tree: _module_definitions(
            tree, lambda name: name in _exported(tree) and name not in exempt
        ),
    )


def unreferenced_public_methods(sources: dict) -> list[str]:
    """Public methods, classmethods, staticmethods and properties of
    module-level classes that no module names outside the method itself."""
    return _unreferenced_definitions(
        sources,
        lambda tree: [
            node
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        ],
    )


# The paper-estimate harness that the tests call and no scenario does:
# quintic_ratio_series measures the quintic ratio R(t) of the paper's
# estimate (tests/test_analysis.py).
HARNESSES = ("quintic_ratio_series",)


def test_no_unreferenced_public_definitions():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_public_definitions(sources, HARNESSES) == []


def test_scan_finds_unreferenced_public_definitions():
    sources = {
        "a.py": (
            "__all__ = ['used', 'Unused', 'only_recursive', 'harness']\n"
            "from .b import helper\n"
            "def used():\n"
            "    return helper()\n"
            "class Unused:\n"
            "    pass\n"
            "def only_recursive(n):\n"
            "    return only_recursive(n - 1)\n"
            "def harness():\n"
            "    pass\n"
            "def not_exported():\n"
            "    pass\n"
        ),
        "b.py": (
            "__all__ = ['helper']\n"
            "from . import a\n"
            "def helper():\n"
            "    return a.used\n"
        ),
    }
    assert unreferenced_public_definitions(sources, ("harness",)) == [
        "a.py: Unused (line 5)",
        "a.py: only_recursive (line 7)",
    ]


def test_no_unreferenced_private_definitions():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_definitions(sources) == []


def test_scan_finds_unreferenced_private_definitions():
    sources = {
        "a.py": (
            "from .b import _imported\n"
            "def _called():\n"
            "    return _imported()\n"
            "def _recursive_only(n):\n"
            "    return _recursive_only(n - 1)\n"
            "class _Unused:\n"
            "    pass\n"
            "def public():\n"
            "    return _called()\n"
        ),
        "b.py": (
            "from . import c\n"
            "def _imported():\n"
            "    return c._by_attribute()\n"
            "def __dunder__():\n"
            "    pass\n"
        ),
        "c.py": "def _by_attribute():\n    pass\n",
    }
    assert unreferenced_private_definitions(sources) == [
        "a.py: _Unused (line 6)",
        "a.py: _recursive_only (line 4)",
    ]


def test_no_unreferenced_public_methods():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_public_methods(sources) == []


def test_scan_finds_unreferenced_public_methods():
    sources = {
        "a.py": (
            "class Grid:\n"
            "    def used(self):\n"
            "        return self.size\n"
            "    @property\n"
            "    def size(self):\n"
            "        return 1\n"
            "    @classmethod\n"
            "    def unused_builder(cls):\n"
            "        return cls()\n"
            "    def only_recursive(self, n):\n"
            "        return self.only_recursive(n - 1)\n"
            "    def __len__(self):\n"
            "        return 1\n"
            "    def _private(self):\n"
            "        pass\n"
        ),
        "b.py": "from .a import Grid\ndef f(g):\n    return g.used()\n",
    }
    assert unreferenced_public_methods(sources) == [
        "a.py: only_recursive (line 10)",
        "a.py: unused_builder (line 8)",
    ]
