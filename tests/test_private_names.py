"""No dead code: every private function or method of the package (one
leading underscore) is referenced somewhere in it, by name or attribute."""

import ast
from pathlib import Path

import menger_surf

PACKAGE = Path(menger_surf.__file__).parent


def _private_definitions_and_references():
    defined, used = [], set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append((node.name, f"{path.name}:{node.lineno}"))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined, used


def test_every_private_function_is_referenced():
    defined, used = _private_definitions_and_references()
    assert len(defined) > 100  # the walk found the package
    assert [(name, where) for name, where in defined if name not in used] == []
