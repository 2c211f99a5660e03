"""The library holds what the command line runs, and the references kept beside it."""

import ast
from pathlib import Path

import spflag

SRC = Path(spflag.__file__).parent

# Reached from no command, kept as the second route the tests check against.
REFERENCES = {
    "ab_pair": "per-collection reference for the fixed-point tower",
    "abl_numerator_weight": "per-collection reference for the localization numerator",
    "denominator_deltas": "per-collection reference for the tower's Deltas",
    "is_admissible": "direct check of the fixed-point conditions",
    "solve_b": "triangular solve, the second route for discrepancy_b",
    "is_exceptional": "the exceptional-divisor test as a function of one pair",
}


def _definitions() -> dict[str, list[ast.AST]]:
    """Every module-level function and class of the package, by name."""
    defs: dict[str, list[ast.AST]] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
    return defs


def _reached(defs: dict[str, list[ast.AST]], root: str) -> set[str]:
    """The definitions whose name occurs, as a name or an attribute, in the
    body of `root` or of a definition reached from it."""
    reached: set[str] = set()
    todo = [root]
    while todo:
        name = todo.pop()
        if name in reached or name not in defs:
            continue
        reached.add(name)
        for node in defs[name]:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    todo.append(sub.id)
                elif isinstance(sub, ast.Attribute):
                    todo.append(sub.attr)
    return reached


def test_every_definition_is_run_by_the_cli_or_kept_as_a_reference():
    """Walk the package's source from `cli.main` by names.

    A name is matched wherever it occurs, whatever it refers to, so this
    over-approximates reachability: a definition it calls reached may still
    be dead, but one it calls unreached is used by no command.
    """
    defs = _definitions()
    unreached = set(defs) - _reached(defs, "main")
    assert unreached == set(REFERENCES)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_uses_a_private_name_of_another():
    """No module of the package imports a `_private` name from another, or
    reads one from another module it imported."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.module == "spflag" or node.level and node.module is None:
                modules.update(alias.asname or alias.name for alias in node.names)
            elif node.level or node.module.startswith("spflag."):
                found += [f"{path.stem}: {node.module}.{a.name}" for a in node.names if _private(a.name)]
        found += [
            f"{path.stem}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ]
    assert found == []
