"""numpy and the standard library are the only runtime dependencies of s2a,
and s2a.parallel is the only module that starts a thread or a process."""

import ast
import sys
from pathlib import Path

SOURCE_DIR = Path(__file__).resolve().parents[1] / "src" / "s2a"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "s2a"}
CONCURRENCY = {"threading", "_thread", "concurrent", "multiprocessing"}


def imported_roots(source: str) -> set[str]:
    """Top-level module names an absolute import in source brings in."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_imports_are_stdlib_numpy_or_s2a():
    sources = sorted(SOURCE_DIR.glob("*.py"))
    assert sources
    foreign = {path.name: sorted(imported_roots(path.read_text()) - ALLOWED)
               for path in sources}
    assert not any(foreign.values()), foreign


def test_guard_sees_a_third_party_import():
    source = "import numpy as np\nfrom . import model\ndef f():\n    import scipy.signal\n"
    assert imported_roots(source) - ALLOWED == {"scipy"}


def test_only_parallel_imports_threads_or_processes():
    """Every second thread goes through parallel.split_work, whose fixed split
    keeps the bytes the same at any core count."""
    users = sorted(path.name for path in SOURCE_DIR.glob("*.py")
                   if imported_roots(path.read_text()) & CONCURRENCY)
    assert users == ["parallel.py"]


def test_guard_sees_a_thread_import():
    source = "import numpy as np\ndef f():\n    from threading import Thread\n"
    assert imported_roots(source) & CONCURRENCY == {"threading"}
