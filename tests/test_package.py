"""The package's own surface: no public name without a caller, and numpy as its one dependency."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import qetsim

SRC = Path(qetsim.__file__).resolve().parent


def test_every_public_name_has_a_caller_or_is_exported():
    # a name defined at the top of a module counts as used when some code in
    # the package loads it (an import alone does not), or when __all__ exports
    # it; anything else is dead code, and test-only code belongs under tests/
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.extend((module, t.id) for t in targets if isinstance(t, ast.Name))
    loaded = Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded[node.id] += 1
            elif isinstance(node, ast.Attribute):
                loaded[node.attr] += 1
    dead = [f"{module}.{name}" for module, name in defined
            if not name.startswith("_") and not loaded[name] and name not in qetsim.__all__]
    assert dead == []


def test_frozen_dataclasses_are_set_only_in_post_init():
    # specs and operators are frozen so that workers may share them; a field
    # written through object.__setattr__ anywhere else is a hidden cache
    misplaced = []

    def visit(node, function, name):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name) and node.value.id == "object"
                and function != "__post_init__"):
            misplaced.append(f"{name}:{node.lineno} in {function}")
        for child in ast.iter_child_nodes(node):
            visit(child, function, name)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), None, path.name)
    assert misplaced == []


def test_importing_the_cli_loads_no_scipy():
    # numpy is the only runtime dependency; a fresh interpreter shows what the
    # package itself imports, whatever the test session has loaded already
    code = "import sys, qetsim.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)}, check=True)
    assert proc.stdout.strip() == "[]"
