"""Every definition in the package has a caller in the package.

A function, class or non-dunder method whose name no module of
``src/tvermat`` mentions (as a name, an attribute or an import) is dead code
or a test-only helper, and test-only helpers live under ``tests/``.  An
import in ``__init__`` counts, so the public API stays.
"""

import ast
from pathlib import Path

import tvermat

# hooks that a framework calls by name
FRAMEWORK_HOOKS = {"_Parser.error"}  # argparse reports argument errors through it


def _definitions(tree):
    """(qualified name, name) of every function, class and method in ``tree``."""
    stack = [("", node) for node in tree.body]
    while stack:
        prefix, node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qual = prefix + node.name
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield qual, node.name
            stack.extend((qual + ".", child) for child in node.body)
        else:
            stack.extend((prefix, child) for child in ast.iter_child_nodes(node))


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_definition_is_referenced_in_the_package():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(tvermat.__file__).parent.glob("*.py"))}
    used = {name for tree in trees.values() for name in _references(tree)}
    dead = sorted(f"{module}:{qual}" for module, tree in trees.items()
                  for qual, name in _definitions(tree)
                  if name not in used and qual not in FRAMEWORK_HOOKS)
    assert not dead, dead
