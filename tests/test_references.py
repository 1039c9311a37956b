"""Every top-level function and class of the package has a caller.

A definition counts as used when some code in ``src/`` or ``bench/`` other
than the definition itself names it: as a name, as an attribute, or as a
string constant, since the benchmark's tracer wraps functions by name.
Tests do not count: library code that only tests call should not exist.

Every module-level cache of the package is bounded by the one rule that
empties it, ``_clear_at_limit``, at its own ``_LIMIT``.
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


def _is_new_container(value: ast.AST, dict_classes: set[str]) -> bool:
    """Whether ``value`` builds an empty dict, list or set, or an instance of
    a dict subclass its module defines: what a module-level cache starts as."""
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, ast.List):
        return not value.elts
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in {"dict", "list", "set"} | dict_classes
        and not value.args
        and not value.keywords
    )


def test_every_module_level_cache_is_bounded():
    """A module-level cache lives as long as the process, so each one has a
    ``<NAME>_LIMIT`` constant and is emptied through
    ``_clear_at_limit(<NAME>, size, <NAME>_LIMIT)``; no ``functools`` cache,
    which this rule would not see, is used."""
    caches = []
    unbounded = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        dict_classes = {
            stmt.name
            for stmt in tree.body
            if isinstance(stmt, ast.ClassDef) and any(isinstance(base, ast.Name) and base.id == "dict" for base in stmt.bases)
        }
        constants = set()
        found = []
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
            else:
                continue
            names = [target.id for target in targets if isinstance(target, ast.Name)]
            constants.update(names)
            if _is_new_container(stmt.value, dict_classes):
                found += names
        clears = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_clear_at_limit":
                cache, _size, limit = node.args
                if isinstance(cache, ast.Name) and isinstance(limit, ast.Name):
                    clears.add((cache.id, limit.id))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for decorator in node.decorator_list:
                    func = decorator.func if isinstance(decorator, ast.Call) else decorator
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in ("cache", "lru_cache"):
                        unbounded.append(f"{path.stem}.{node.name} (functools {name})")
        for name in found:
            caches.append(f"{path.stem}.{name}")
            if f"{name}_LIMIT" not in constants or (name, f"{name}_LIMIT") not in clears:
                unbounded.append(f"{path.stem}.{name}")
    assert {"words._SHARED", "words._TABLES", "words._FORESTS"} <= set(caches)
    assert not unbounded, f"module-level caches without a _LIMIT emptied through _clear_at_limit: {unbounded}"
