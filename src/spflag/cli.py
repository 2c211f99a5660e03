"""Command-line surface: characters, fixed points, discrepancies, geometry.

`COMMANDS` declares each subcommand once and `OPTIONS` each option, and
`build_parser` builds the argparse front end from them.  Each `cmd_*`
returns its exit code and its output as text chunks; `run` alone checks the
soft limit on n and writes the chunks, to stdout or to `--output`.  `_text`
writes every JSON value, and `_document` frames every streamed array: the
element writers `_terms`, `_collections` and `_rows` only yield each
element's text.  Exit codes: 0 success / verified, 1 verification failure,
2 usage error.  JSON and CSV schemas are documented in docs/formats.md.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import sys
from collections.abc import Callable, Iterable, Iterator
from json.encoder import encode_basestring_ascii

from . import bundles, charring, fixedpoints, geometry, polytope
from .rootsys import RootSystem, TypeA, TypeC, check_d, index_pairs, rank

SOFT_LIMIT = 4
# An integer in argv: an optionally signed run of ASCII digits.
_INTEGER = re.compile(r"[+-]?[0-9]+")
# Row entries of a flag-point file: an integer, or p/q.
_RATIONAL = re.compile(_INTEGER.pattern + r"(/[0-9]+)?")
# Collections (~180 KB at n = 4) or points per chunk of the document text.
_BATCH = 256


class UsageError(Exception):
    pass


def _int(text: str) -> int:
    # int() alone would also read "1_0", " 1" and non-ASCII digits such as "２".
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(map(_int, text.split(",")))
    except ValueError:
        raise UsageError(f"malformed {what} {text!r}: expected comma-separated integers")


def _valid_d(d: tuple[int, ...], n: int) -> tuple[int, ...]:
    try:
        check_d(d, n)
    except ValueError as exc:
        raise UsageError(str(exc))
    return d


def _integer(text: str) -> int:
    try:
        return _int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


def _positive_int(text: str) -> int:
    try:
        value = _int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _emit(chunks: Iterable[str], output: str | None) -> None:
    """Write the text `chunks` as they come, to stdout with a final newline
    unless the text ends in one, or to the `output` file as they are."""

    def write(fh) -> str:
        last = ""
        for chunk in chunks:
            fh.write(chunk)
            last = chunk or last
        return last

    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                write(fh)
        except OSError as exc:
            raise UsageError(f"cannot write {output}: {exc}")
    elif not write(sys.stdout).endswith("\n"):
        sys.stdout.write("\n")


def _weight(args) -> tuple[RootSystem, tuple[int, ...]]:
    """The root system of `--n` and `--system` (C where the command has no
    `--system`), and its weight `--lambda`."""
    if getattr(args, "system", "C") == "A":
        if args.n < 2:
            raise UsageError(f"--system A needs n >= 2, got {args.n}")
        system = TypeA(args.n)
    else:
        system = TypeC(args.n)
    lam, r = _parse_ints(args.lam, "lambda"), rank(system)
    if len(lam) != r or any(m < 0 for m in lam):
        raise UsageError(
            f"lambda must be {r} nonnegative integers m_1,...,m_{r}, got {lam}"
        )
    return system, lam


# ---------------------------------------------------------------------------
# commands: each returns (exit code, output text chunks)

Output = tuple[int, Iterable[str]]


def _document(head: dict, key: str, elements: Iterable[list[str]],
              tail: Callable[[int], dict | None] | None = None) -> Iterator[str]:
    """The indented JSON of `head` with one more member, the array `key`,
    and then the members of the dict `tail(count)` returns, if it returns one.

    Each element is a list of text pieces at depth 2, the first piece
    starting with the separator ","; there must be at least one element.
    Every `_BATCH` elements are one chunk, the join of their pieces, and the
    first chunk is written without its comma."""
    yield f'{_text(head)[:-2]},\n  "{key}": ['
    count, batch, comma = 0, [], 1
    for element in elements:
        batch += element
        count += 1
        if count % _BATCH == 0:
            yield "".join(batch)[comma:]
            batch, comma = [], 0
    if batch:
        yield "".join(batch)[comma:]
    members = tail(count) if tail else None
    yield "\n  ]" + ("," + _text(members)[1:-2] if members else "") + "\n}"


def _text(value, depth: int = 0) -> str:
    """`value` at `depth` in the layout of `json.dumps(value, indent=2)`,
    the layout of every JSON document (docs/formats.md): nonempty dicts with
    str keys, nonempty lists, str, int and bool, as one string."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    pad = "\n" + "  " * (depth + 1)
    if isinstance(value, list):
        items = [_text(x, depth + 1) for x in value]
        return f"[{pad}" + f",{pad}".join(items) + f"{pad[:-2]}]"
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_text(v, depth + 1)}" for k, v in value.items()]
        return f"{{{pad}" + f",{pad}".join(items) + f"{pad[:-2]}}}"
    raise TypeError(f"cannot write {type(value).__name__} as JSON")


def _ints(values: Iterable[int], depth: int) -> str:
    """A nonempty int array at `depth`, as `_text` writes it."""
    pad = "\n" + "  " * depth
    return f"[{pad}  " + f",{pad}  ".join(map(str, values)) + f"{pad}]"


def _terms(poly: charring.Terms, basis: str) -> Iterator[list[str]]:
    """The `terms` of a character, one {"q", "weight", "mult"} element per
    term in exponent order, written as `_text` would write them."""
    for (q, *ze), c in sorted(poly.items()):
        weight = _ints(ze if basis == "eps" else charring.eps_to_omega(ze), 3)
        yield [f',\n    {{\n      "q": {q},\n      "weight": {weight},\n      "mult": {c}\n    }}']


def _writable(value: int, what: str) -> int:
    """`value`, checked against the interpreter's limit on the digits of an
    int it writes (4300 by default): past it, str() raises ValueError."""
    try:
        str(value)
    except ValueError as exc:
        raise UsageError(f"cannot write {what}: {exc}")
    return value


def cmd_dim(args) -> Output:
    system, lam = _weight(args)
    return 0, [_text(_writable(polytope.dimension(lam, system), "the dimension"))]


def cmd_qchar(args) -> Output:
    system, lam = _weight(args)
    gc = polytope.graded_character(lam, system)
    head = {"command": "qchar", "n": args.n, "lambda": list(lam), "weight_basis": args.weight_basis}
    return 0, _document(head, "terms", _terms(gc, args.weight_basis))


def cmd_weyl(args) -> Output:
    _, lam = _weight(args)
    ch = charring.weyl_character(lam, args.n)
    head = {
        "command": "weyl",
        "n": args.n,
        "lambda": list(lam),
        "dimension": charring.weyl_dimension(lam, args.n),
        "weight_basis": args.weight_basis,
    }
    return 0, _document(head, "terms", _terms(ch, args.weight_basis))


def cmd_polytope(args) -> Output:
    system, lam = _weight(args)
    spec = polytope.polytope_spec(lam, system)
    head = {
        "command": "polytope",
        "n": args.n,
        "lambda": list(lam),
        "roots": [list(ij) for ij in spec.roots],
        "inequalities": [
            {"support": sorted(idx), "bound": bound}
            for idx, bound in spec.inequalities
        ],
    }
    points = ([f",\n    {_ints(p, 2)}"] for p in polytope.lattice_points(spec))
    return 0, _document(head, "points", points, lambda count: {"count": count})


def _collections(n: int) -> Iterator[list[str]]:
    """The `collections` of the `fixed-points` document, one element each.

    The tower walk builds each component's label once per tower branch and
    carries it down: the component's text with its separator in front, the
    first key's also opening its collection and the last key's closing it.
    A collection is then the list of its labels.
    """
    keys = sorted(index_pairs(TypeC(n)))

    def component(key: tuple[int, int], s: frozenset[int]) -> str:
        opening = "    {\n" if key == keys[0] else ""
        closing = "\n    }" if key == keys[-1] else ""
        return f',\n{opening}      "{key[0]},{key[1]}": {_ints(sorted(s), 3)}{closing}'

    return fixedpoints.iter_fixed_points(n, component)


def cmd_fixed_points(args) -> Output:
    # Refused unbuilt: 2^k has over D digits iff k >= bit_length(10^D) (no D before 3.10.7).
    k = args.n * args.n
    if (digits := getattr(sys, "get_int_max_str_digits", int)()) and k >= (10**digits).bit_length():
        raise UsageError(f"cannot write the count: 2^{k} has more than {digits} digits")
    count = 2**k
    head = {"command": "fixed-points", "n": args.n, "count": count}
    if args.count:
        # Every step of the tower has two branches (`_pool` raises otherwise),
        # so the count is 2^(n^2) without a walk; the dump's tail checks it.
        return 0, [_text(count)]

    def tail(written: int) -> None:
        if written != count:
            raise RuntimeError(f"the tower walk gave {written} collections, not {count}")

    return 0, _document(head, "collections", _collections(args.n), tail)


def cmd_abl_verify(args) -> Output:
    _, lam = _weight(args)
    seed = args.seed
    if seed is None:
        text = os.environ.get("SPFLAG_SEED", "0")
        try:
            seed = _int(text)
        except ValueError:
            raise UsageError(f"SPFLAG_SEED must be an integer, got {text!r}")
    report = fixedpoints.abl_verify(lam, args.n, args.trials, seed)
    return 0 if report["matched"] else 1, [_text(report)]


def cmd_discrepancy(args) -> Output:
    d = _valid_d(_parse_ints(args.d, "d"), args.n)
    rows = bundles.discrepancy_table(d, args.n)
    b = {(r["i"], r["j"]): r["b"] for r in rows}
    identity_ok, _ = bundles.verify_canonical_identity(d, args.n, b)
    code = 0 if identity_ok else 1
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=["i", "j", "b", "exceptional"])
        writer.writeheader()
        writer.writerows(rows)
        return code, [buf.getvalue()]
    head = {"command": "discrepancy", "n": args.n, "d": list(d)}
    identity = {"canonical_identity": identity_ok}
    return code, _document(head, "rows", _rows(rows), lambda count: identity)


def _rows(rows: list[dict]) -> Iterator[list[str]]:
    """The `rows` of the `discrepancy` document, each row written as `_text`
    would write it.  `rows` is never empty: (d_1, d_1) lies in P_d."""
    for r in rows:
        yield [f',\n    {{\n      "i": {r["i"]},\n      "j": {r["j"]},\n      "b": {r["b"]},\n'
               f'      "exceptional": {"true" if r["exceptional"] else "false"}\n    }}']


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a JSON array")
    return value


def _json_int(value, what: str) -> int:
    # bool is an int subclass; a float such as 2.7 would be truncated by int().
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be a JSON integer, got {json.dumps(value)}")
    return value


def _json_rational(value) -> tuple[int, int]:
    """A row entry as (numerator, denominator), the denominator positive."""
    # A JSON float such as 0.1 has already lost its exact value.
    if not isinstance(value, str):
        return _json_int(value, "a non-string row entry"), 1
    # The grammar keeps out "0.5", " 1", "1_0" and "1e5000", which has 5001 digits.
    if not _RATIONAL.fullmatch(value):
        raise ValueError(f"row entry {json.dumps(value)} is not an integer or p/q")
    num, _, den = value.partition("/")
    q = int(den) if den else 1
    if not q:
        raise ZeroDivisionError(f"row entry {json.dumps(value)} has denominator 0")
    return int(num), q


def _matrix_from_json(rows, two_n: int) -> geometry.Subspace:
    vecs = [
        geometry.cleared([_json_rational(x) for x in _json_list(row, "a row")])
        for row in _json_list(rows, "a space")
    ]
    for v in vecs:
        if len(v) != two_n:
            raise UsageError(f"matrix rows must have length {two_n}")
    return geometry.Subspace.span(vecs, two_n)


def _load_flag(path: str) -> tuple[geometry.FlagPoint, int]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise TypeError("the top level must be a JSON object")
        for key in ("n", "d", "spaces"):
            if key not in doc:
                raise ValueError(f"missing key {key!r}")
        n = _json_int(doc["n"], "n")
        d = tuple(_json_int(x, "an entry of d") for x in _json_list(doc["d"], "d"))
        spaces = tuple(
            _matrix_from_json(m, 2 * n) for m in _json_list(doc["spaces"], "spaces")
        )
    except (OSError, ValueError, TypeError, ArithmeticError, RecursionError) as exc:
        raise UsageError(f"cannot read flag point from {path}: {exc}")
    _valid_d(d, n)
    try:
        return geometry.FlagPoint(d, spaces), n
    except ValueError as exc:
        raise UsageError(str(exc))


def cmd_check_geometry(args) -> Output:
    flag, n = _load_flag(args.input)
    member = geometry.in_sp_flag_a(flag, n)
    doc = {
        "command": "check-geometry",
        "n": n,
        "d": list(flag.d),
        "member": member,
        "dims": [v.dim for v in flag.spaces],
    }
    return 0 if member else 1, [_text(doc)]


def cmd_lift(args) -> Output:
    flag, n = _load_flag(args.input)
    try:
        point = geometry.lift(flag, n)
    except geometry.LiftError as exc:
        return 1, [_text({"command": "lift", "error": str(exc)})]
    try:
        spaces = {f"{i},{j}": v.text_rows() for (i, j), v in sorted(point.spaces.items())}
    except ValueError as exc:
        # A lifted entry can outgrow the interpreter's 4300-digit limit on str().
        raise UsageError(f"cannot write the lift of {args.input}: {exc}")
    doc = {"command": "lift", "n": n, "d": list(flag.d), "spaces": spaces}
    return 0, [_text(doc)]


# ---------------------------------------------------------------------------
# parser


# Each option once, with its argparse keywords.
OPTIONS = {
    "--n": dict(type=_positive_int, required=True, help="rank n (sp_2n)"),
    "--lambda": dict(dest="lam", required=True, help="m_1,...,m_n fundamental coefficients"),
    "--d": dict(required=True, help="strictly increasing indices d_1,...,d_k"),
    "--system": dict(
        choices=["C", "A"], default="C",
        help="root system: C (sp_2n, default) or A (sl_n; lambda has n-1 entries)",
    ),
    "--threads": dict(type=_positive_int, default=1, help="accepted; has no effect"),
    "--input": dict(required=True),
    "--force": dict(action="store_true", help="override soft size limits"),
    "--output": dict(help="write output to a file instead of stdout"),
    "--weight-basis": dict(choices=["eps", "omega"], default="eps"),
    "--count": dict(action="store_true", help="print only the count"),
    "--trials": dict(type=_positive_int, default=20),
    "--seed": dict(type=_integer, default=None, help="defaults to $SPFLAG_SEED or 0"),
    "--format": dict(choices=["json", "csv"], default="json"),
}

# Each subcommand once: its function, its help, what its soft limit on n
# guards (None: no limit) and its options in --help order.
COMMANDS = {
    "dim": (cmd_dim, "dimension by lattice-point count", "lattice enumeration",
            "--n --lambda --system --force --output"),
    "qchar": (cmd_qchar, "PBW-graded character as JSON", "lattice enumeration",
              "--n --lambda --system --force --output --weight-basis"),
    "weyl": (cmd_weyl, "Weyl character oracle as JSON", "the Weyl character",
             "--n --lambda --force --output --weight-basis"),
    "polytope": (cmd_polytope, "dump inequalities and lattice points", "lattice enumeration",
                 "--n --lambda --system --force --output"),
    "fixed-points": (cmd_fixed_points, "enumerate admissible collections",
                     "fixed-point enumeration", "--n --threads --force --output --count"),
    "abl-verify": (cmd_abl_verify, "verify the localization character identity",
                   "localization verification",
                   "--n --lambda --threads --force --output --trials --seed"),
    "discrepancy": (cmd_discrepancy, "discrepancy coefficients table", "discrepancy tables",
                    "--n --d --force --output --format"),
    "check-geometry": (cmd_check_geometry, "flag membership test from a JSON file", None,
                       "--input --output"),
    "lift": (cmd_lift, "lift a flag point to the resolution", None, "--input --output"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="spflag",
        description="Exact characters and geometry checks for degenerate symplectic flags",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (func, summary, limit, options) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for option in options.split():
            p.add_argument(option, **OPTIONS[option])
        p.set_defaults(func=func, limit=limit)
    return top


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # The count is 2^(n^2), written without a walk at any n.
        if args.limit and args.n > SOFT_LIMIT and not (args.force or getattr(args, "count", False)):
            raise UsageError(
                f"n = {args.n} exceeds the soft limit {SOFT_LIMIT} for {args.limit}; "
                f"rerun with --force to proceed anyway"
            )
        code, chunks = args.func(args)
        _emit(chunks, args.output)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except OSError as exc:
        # The reader closed stdout, or its disk is full: a usage error, like an
        # unwritable --output (every other file turns its OSError into one).
        # stderr may be that closed pipe too (`2>&1 | head`), so the error line
        # is best effort; devnull keeps the interpreter's last flush quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        try:
            print(f"error: cannot write stdout: {exc}", file=sys.stderr, flush=True)
        except OSError:
            os.dup2(devnull, sys.stderr.fileno())
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
