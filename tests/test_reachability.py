"""The library holds what the command line runs, and the references kept beside it."""

import ast
from collections.abc import Iterator
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


# Members reached with their class, because the interpreter calls or reads
# them itself.  Operator dunders are not among them: the name walk cannot see
# `a + b`, so a class that needs one adds it here, with the reason.
WITH_CLASS = {"__init__", "__post_init__", "__eq__", "__hash__", "__repr__", "__slots__"}


def _members(cls: ast.ClassDef) -> Iterator[tuple[str, ast.AST]]:
    """Each method or property of a class body, and each attribute it
    assigns, with the node its body is."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                yield target.id, node.value


def _definitions() -> dict[str, list[ast.AST]]:
    """Every module-level function and class of the package by name, and
    every member of a class as `Class.name`.  A class's own body is its
    bases, decorators and field annotations, without its members."""
    defs: dict[str, list[ast.AST]] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append(node)
            elif isinstance(node, ast.ClassDef):
                for name, body in _members(node):
                    defs.setdefault(f"{node.name}.{name}", []).append(body)
                own = [s for s in node.body if not isinstance(s, (ast.FunctionDef, ast.Assign))]
                defs.setdefault(node.name, []).extend([*node.bases, *node.decorator_list, *own])
    return defs


def _names(nodes: list[ast.AST]) -> set[str]:
    """Every name and attribute that occurs in the nodes."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _reached(defs: dict[str, list[ast.AST]], root: str) -> set[str]:
    """The definitions reached from `root`: a module-level one whose name
    occurs in a reached body, and a member `Class.name` whose class is
    reached and whose name occurs in a reached body or is reached with its
    class."""
    reached: set[str] = set()
    seen = {root}

    def reachable(name: str) -> bool:
        cls, _, member = name.rpartition(".")
        if not cls:
            return name in seen
        return cls in reached and (member in seen or member in WITH_CLASS)

    while new := {name for name in defs if name not in reached and reachable(name)}:
        reached |= new
        for name in new:
            seen |= _names(defs[name])
    return reached


def test_every_definition_is_run_by_the_cli_or_kept_as_a_reference():
    """Walk the package's source from `cli.main` by names.

    A name is matched wherever it occurs, whatever it refers to, so this
    over-approximates reachability: a definition it calls reached may still
    be dead, but one it calls unreached is used by no command.  Methods count
    too: `Subspace.fraction_rows` is reached because `Subspace` is and
    `fraction_rows` occurs in a reached body.
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
