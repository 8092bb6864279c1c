"""Every name src/s2a defines is used: each top-level function, class and
constant, and each method of a top-level class, is used in src/s2a, tests/
or perfbench/ outside its own definition. Dunders are exempt.

A use is code, read from the syntax tree: a name, an attribute, an import,
or a string literal that is exactly the name (getattr, monkeypatch and
perfbench's traced-function table name functions so). A mention in a
comment, a docstring or a longer string is not a use."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree: ast.Module):
    """(name, node) of each top-level function, class and assigned name, and
    of each method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node.name, node
            yield from ((item.name, item) for item in node.body if isinstance(item, FUNCTIONS))
        elif isinstance(node, FUNCTIONS):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((name.id, node) for target in targets for name in ast.walk(target)
                        if isinstance(name, ast.Name))


def uses(tree: ast.Module):
    """(name, line) of each name the code uses."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def unreferenced(modules: dict[str, str], others: list[str]) -> list[str]:
    """Names defined in the modules' sources ({path: text}) that neither
    another source nor a module outside their definitions uses."""
    spans = defaultdict(list)  # name -> [(path, first line, last line)]
    for path, text in modules.items():
        for name, node in definitions(ast.parse(text)):
            if not (name.startswith("__") and name.endswith("__")):
                spans[name].append((path, node.lineno, node.end_lineno))
    used = {name for text in others for name, _ in uses(ast.parse(text))}
    for path, text in modules.items():
        used.update(name for name, line in uses(ast.parse(text)) if name in spans and not any(
            p == path and first <= line <= last for p, first, last in spans[name]))
    return sorted(set(spans) - used)


def test_every_defined_name_is_used():
    modules = {str(path): path.read_text() for path in sorted((ROOT / "src/s2a").glob("*.py"))}
    assert modules
    others = [path.read_text() for folder in ("tests", "perfbench")
              for path in sorted((ROOT / folder).rglob("*.py"))]
    assert unreferenced(modules, others) == []


def test_guard_sees_an_unused_name():
    source = ("LIMIT = 3\n\n\ndef orphan(n):\n    return orphan(n - 1) if n else LIMIT\n\n\n"
              "class Kept:\n    def __repr__(self):\n        return 'Kept'\n\n"
              "    def spare(self):\n        return Kept()\n\n\n"
              "def mentioned():\n    pass  # only prose names orphan, spare and mentioned\n")
    others = ['"""Kept() is built as orphan(2) and mentioned."""\nKept()\n']
    assert unreferenced({"m.py": source}, others) == ["mentioned", "orphan", "spare"]
