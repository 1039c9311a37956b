"""Every top-level function and class of the package has a caller.

A definition counts as used when some code in ``src/`` or ``bench/`` other
than the definition itself names it: as a name, as an attribute, or as a
string constant, since the benchmark's tracer wraps functions by name.
Tests do not count: library code that only tests call should not exist.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fiberdist"


def _names(node: ast.AST) -> set[str]:
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def test_every_top_level_definition_is_referenced():
    definitions = []  # (module, name, the defining statement)
    references = []  # (statement, the names it mentions)
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            references.append((stmt, _names(stmt)))
            if path.parent == PACKAGE and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((path.stem, stmt.name, stmt))
    unused = [
        f"{module}.{name}"
        for module, name, own in definitions
        if not any(name in names for stmt, names in references if stmt is not own)
    ]
    assert not unused, f"defined but never referenced from src/ or bench/: {unused}"
