"""Every name a ``yaxl`` module imports at top level is used in it,
every private top-level function or class is read by some module, and
the row-placement engine has only its two callers."""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "yaxl").glob("*.py"))


def unused_imports(source: str) -> list:
    """Top-level imported names that the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append((alias.asname or alias.name).split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_gate_flags_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(d)\n") == ["os", "b"]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_private_definitions(sources: list) -> list:
    """Private top-level functions and classes that no module reads by
    name or as an attribute."""
    trees = [ast.parse(source) for source in sources]
    defined = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    ]
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [name for name in defined if name not in used]


def test_the_gate_flags_an_unused_private_definition():
    first = "def _a(): pass\ndef _c(): pass\nclass _D: pass\ndef e(): _a()\n"
    second = "import m\nm._D\n"
    assert unused_private_definitions([first, second]) == ["_c"]
    assert unused_private_definitions(["def _f(): pass\n", "from m import _f\n"]) == ["_f"]


def test_no_unused_private_definitions():
    assert unused_private_definitions([path.read_text() for path in SRC]) == []


def placement_callers(sources: list) -> list:
    """The top-level definition (or ``<module>``) around each reference
    to ``_place``, by name or as an attribute, in source order."""
    callers = []
    for source in sources:
        for node in ast.parse(source).body:
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Name) and sub.id == "_place") or (
                    isinstance(sub, ast.Attribute) and sub.attr == "_place"
                ):
                    callers.append(getattr(node, "name", "<module>"))
    return callers


def test_the_gate_finds_every_placement_caller():
    source = "def _place(): pass\ndef a():\n    _place()\n    def b(): _place()\nf = m._place\n"
    assert placement_callers([source, "class C:\n    g = _place\n"]) == ["a", "a", "<module>", "C"]


def test_place_has_two_callers():
    # the labeled search (which also yields the lambda families) and
    # Q2's rho tables; a third placement entry point fails here
    callers = placement_callers([path.read_text() for path in SRC])
    assert callers == ["_search_labeled", "search_question2"]
