"""Every module-level private helper of the package is used by the package itself.

A private function, class or assignment that only tests still reach is dead
code: the check reads ``src/firpriv/*.py`` with ``ast`` and requires each such
name to be loaded, by name or as an attribute, somewhere in the package other
than in its own definition or an import statement.
"""
import ast
from pathlib import Path

import firpriv

SOURCES = sorted(Path(firpriv.__file__).parent.glob("*.py"))


def _private_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def _loaded_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_private_helper_is_used_by_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    loaded = {name for tree in trees.values() for name in _loaded_names(tree)}
    defined = [(module, name) for module, tree in trees.items()
               for name in _private_definitions(tree)]
    assert len(defined) >= 50  # the parse found the package's helpers
    unused = [f"{module}:{name}" for module, name in defined if name not in loaded]
    assert not unused, f"private helpers no package code uses: {unused}"
