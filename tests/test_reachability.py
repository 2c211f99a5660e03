"""The library holds what the command line runs, and the references kept beside it.

One fresh process runs a fixed argv corpus through `cli.run` under
`sys.settrace` and reports the lines of the package that had a line event.
It must be a fresh process: `build_parser`, `_tower`, `_packed_tower`,
`_line_reader`, `radical_pairs` and `boundary_pairs` are cached, so in this
one an earlier test would already have run their bodies.
"""

import ast
import json
import os
import subprocess
import sys
from collections.abc import Iterator
from pathlib import Path

import spflag

from test_golden import FLAGS, GOLDEN

SRC = Path(spflag.__file__).parent

# Run by no command, kept as the second route the tests check against.
REFERENCES = {
    "fixedpoints.ab_pair": "per-collection reference for the fixed-point tower",
    "fixedpoints.abl_numerator_weight": "per-collection reference for the localization numerator",
    "fixedpoints.denominator_deltas": "per-collection reference for the tower's Deltas",
    "fixedpoints.is_admissible": "direct check of the fixed-point conditions",
    "bundles.solve_b": "triangular solve, the second route for discrepancy_b",
    "bundles.is_exceptional": "the exceptional-divisor test as a function of one pair",
}

# Statements no command runs, by qualified function name and the first line
# of the statement.  `raise` statements are exempt as a kind, as safety code;
# so is `cli.main`, which runs only as a process (tested so in test_cli.py).
EXEMPT = {
    ("geometry.in_resolution", "return False"):
        "lift's post-condition: every lift the commands build passes it",
    ("geometry.Subspace.__eq__", "return ("):
        "tests compare subspaces, and FlagPoint's generated __eq__ compares "
        "its spaces in the acceptance suite",
    # bench/test_bench_helpers.py passes Fraction rows to Subspace.span; once
    # it clears them through `geometry.cleared`, this path goes.
    ("geometry._integral", "if not types <= {int, Q}:"):
        "the Fraction path of rref, for Fraction rows the benchmark's tests pass",
    ("geometry._integral", "bad = (types - {int, Q}).pop()"):
        "names the type of a foreign entry in that path's TypeError",
    ("geometry._integral", "return cleared([(x.numerator, x.denominator) for x in row])"):
        "clears the Fraction rows the benchmark's tests pass",
}
# Among the exempt raises is lift's `no valid component at (i,j)`: no known
# input reaches it, in 2,387 coordinate flags at n <= 3 or 20,000 random
# flags at n = 2, 3 with entries in {0, +-1, 2}.

# Flag files for the branches the golden inputs leave: JSON-integer row
# entries on a space that fails isotropy, and a space with no rows, whose
# span is rref([]).
EXTRA_FLAGS = {
    "ints_not_isotropic": {"n": 2, "d": [2], "spaces": [[[1, 0, 0, 0], [0, 0, 0, 1]]]},
    "no_rows": {"n": 1, "d": [1], "spaces": [[]]},
}

# Argv beyond the golden set, with the exit status each must give.
EXTRA = {
    "abl-verify --n 1 --lambda 1 --trials x": 2,  # `_positive_int`'s fallback
    "abl-verify --n 1 --lambda 1 --trials 1": 0,  # the seed from SPFLAG_SEED
    "check-geometry --input {ints_not_isotropic}": 1,
    "lift --input {no_rows}": 2,
    "dim --n 3 --lambda 1,0,1 --output {out.txt}": 0,
    "dim --n 1 --lambda 1 --output {no/such}": 2,
    "--help": 0,
}

TRACE = """
import contextlib, io, json, os, sys
import spflag
from spflag import cli

src = os.path.dirname(spflag.__file__) + os.sep
ran = set()

def lines(frame, event, arg):
    if event == "line":
        ran.add((os.path.basename(frame.f_code.co_filename), frame.f_lineno))
    return lines

def calls(frame, event, arg):
    return lines if frame.f_code.co_filename.startswith(src) else None

codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    sys.settrace(calls)
    for argv in json.load(sys.stdin):
        codes.append(cli.run(argv))
    sys.settrace(None)
json.dump({"codes": codes, "lines": sorted(ran)}, sys.stdout)
"""


def _corpus(tmp_path: Path) -> dict[str, tuple[list[str], int]]:
    """Each command of the corpus as its argv and exit status: the golden
    ones at n <= 3, and `EXTRA`.  A `{name}` word is the path of a flag file
    of `FLAGS` or `EXTRA_FLAGS`, or else of a file under `tmp_path`."""
    flags = {**FLAGS, **EXTRA_FLAGS}
    for name, doc in flags.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))

    def argv(command: str) -> list[str]:
        words = command.split()
        for k, word in enumerate(words):
            if word.startswith("{"):
                name = word.strip("{}")
                words[k] = str(tmp_path / (f"{name}.json" if name in flags else name))
        return words

    def n(command: str) -> int:
        words = command.split()
        if "--n" in words:
            return int(words[words.index("--n") + 1])
        return FLAGS[words[-1].strip("{}")]["n"]

    golden = {c: code for c, (code, _) in GOLDEN.items() if n(c) <= 3}
    return {c: (argv(c), code) for c, code in {**golden, **EXTRA}.items()}


def _traced(corpus: dict[str, tuple[list[str], int]]) -> set[tuple[str, int]]:
    """The (file name, line) pairs of the package run by the corpus in one
    fresh process, after checking each command's exit status."""
    env = {k: v for k, v in os.environ.items() if k != "SPFLAG_SEED"}
    env["PYTHONPATH"] = str(SRC.parent)
    proc = subprocess.run(
        [sys.executable, "-c", TRACE],
        input=json.dumps([argv for argv, _ in corpus.values()]),
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    report = json.loads(proc.stdout)
    assert dict(zip(corpus, report["codes"])) == {c: code for c, (_, code) in corpus.items()}
    return {tuple(line) for line in report["lines"]}


def _functions(node: ast.AST, prefix: str) -> Iterator[tuple[str, ast.FunctionDef]]:
    """Every function under `node` with its qualified name, nested ones and
    methods included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if isinstance(child, ast.FunctionDef):
                yield name, child
            yield from _functions(child, name)
        else:
            yield from _functions(child, prefix)


def _children(stmt: ast.stmt) -> list[ast.stmt]:
    """The statements directly inside a compound statement; a nested
    function's are its own."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return []
    out = [*getattr(stmt, "body", []), *getattr(stmt, "orelse", []), *getattr(stmt, "finalbody", [])]
    for part in [*getattr(stmt, "handlers", []), *getattr(stmt, "cases", [])]:
        out += part.body
    return out


def _lines(stmt: ast.stmt) -> range:
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    return range(first, stmt.end_lineno + 1)


def _statements(body: list[ast.stmt], ran: set[int]) -> Iterator[tuple[ast.stmt, bool]]:
    """Each statement of `body`, nested ones included, and whether it ran.

    A statement ran if one of its own lines, those not inside a statement it
    holds, had a line event, or if a statement it holds ran.  Python may
    report a multi-line condition on a later line of it, and `try:` on no
    line at all."""
    for stmt in body:
        children = _children(stmt)
        nested = list(_statements(children, ran))
        inner = {line for child in children for line in _lines(child)}
        own = set(_lines(stmt)) - inner
        yield stmt, bool(own & ran) or any(r for _, r in nested)
        yield from nested


def test_every_statement_is_run_by_the_cli_or_exempt(tmp_path):
    """Every statement of every function in the package runs under a command
    of the corpus, unless it is a reference's, `cli.main`'s, a `raise` or in
    `EXEMPT`; no statement of a reference runs, and every exemption names a
    statement that exists and does not run."""
    ran = _traced(_corpus(tmp_path))
    unreached, in_references, exempt = [], [], set()
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        ran_here = {line for name, line in ran if name == path.name}
        for qualname, func in _functions(ast.parse(source), path.stem):
            body = func.body[1:] if ast.get_docstring(func) is not None else func.body
            for stmt, was_run in _statements(body, ran_here):
                key = (qualname, lines[stmt.lineno - 1].strip())
                where = f"{qualname}:{stmt.lineno}: {key[1]}"
                if qualname in REFERENCES:
                    if was_run:
                        in_references.append(where)
                elif was_run:
                    assert key not in EXEMPT, f"{where} is exempt, yet a command runs it"
                elif key in EXEMPT:
                    exempt.add(key)
                elif not (qualname == "cli.main" or isinstance(stmt, ast.Raise)):
                    unreached.append(where)
    assert unreached == [], "run by no command:\n" + "\n".join(unreached)
    assert in_references == [], "a command runs a reference:\n" + "\n".join(in_references)
    assert exempt == set(EXEMPT)


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


def test_no_module_imports_a_name_it_does_not_use():
    """Every name a module of the package imports is read in it; `__init__`
    is skipped, as its names are re-exports, and so is `annotations`, which
    `from __future__` imports to change how annotations are compiled."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.stem}: {name}" for name in sorted(imported - read - {"annotations"})]
    assert found == []
