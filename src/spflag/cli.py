"""Command-line surface: characters, fixed points, discrepancies, geometry.

Exit codes: 0 success / verified, 1 verification failure, 2 usage error.
JSON and CSV schemas are documented in docs/formats.md.
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
from collections.abc import Iterable, Iterator
from fractions import Fraction

from . import bundles, charring, fixedpoints, geometry, polytope
from .rootsys import TypeA, TypeC, check_d

SOFT_LIMIT = 4
# Row entries of a flag-point file: an optionally signed integer, or p/q.
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
# Every JSON document goes out in this layout; docs/formats.md specifies it.
_JSON = json.JSONEncoder(indent=2)


class UsageError(Exception):
    pass


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        vals = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"malformed {what} {text!r}: expected comma-separated integers")
    return vals


def _check_lambda(lam: tuple[int, ...], r: int) -> tuple[int, ...]:
    if len(lam) != r or any(m < 0 for m in lam):
        raise UsageError(
            f"lambda must be {r} nonnegative integers m_1,...,m_{r}, got {lam}"
        )
    return lam


def _valid_d(d: tuple[int, ...], n: int) -> tuple[int, ...]:
    try:
        check_d(d, n)
    except ValueError as exc:
        raise UsageError(str(exc))
    return d


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _soft_limit(n: int, force: bool, what: str) -> None:
    if n > SOFT_LIMIT and not force:
        raise UsageError(
            f"n = {n} exceeds the soft limit {SOFT_LIMIT} for {what}; "
            f"rerun with --force to proceed anyway"
        )


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


def _system(args):
    if getattr(args, "system", "C") == "A":
        if args.n < 2:
            raise UsageError(f"--system A needs n >= 2, got {args.n}")
        return TypeA(args.n), args.n - 1
    return TypeC(args.n), args.n


# ---------------------------------------------------------------------------
# commands


def cmd_dim(args) -> int:
    system, r = _system(args)
    _soft_limit(args.n, args.force, "lattice enumeration")
    lam = _check_lambda(_parse_ints(args.lam, "lambda"), r)
    _emit(_JSON.iterencode(polytope.dimension(lam, system)), args.output)
    return 0


def cmd_qchar(args) -> int:
    system, r = _system(args)
    _soft_limit(args.n, args.force, "lattice enumeration")
    lam = _check_lambda(_parse_ints(args.lam, "lambda"), r)
    gc = polytope.graded_character(lam, system)
    doc = {
        "command": "qchar",
        "n": args.n,
        "lambda": list(lam),
        "weight_basis": args.weight_basis,
        "terms": charring.to_json_terms(gc, args.weight_basis),
    }
    _emit(_JSON.iterencode(doc), args.output)
    return 0


def cmd_weyl(args) -> int:
    _soft_limit(args.n, args.force, "the Weyl group sum")
    lam = _check_lambda(_parse_ints(args.lam, "lambda"), args.n)
    ch = charring.weyl_character(lam, args.n)
    doc = {
        "command": "weyl",
        "n": args.n,
        "lambda": list(lam),
        "dimension": charring.weyl_dimension(lam, args.n),
        "weight_basis": args.weight_basis,
        "terms": charring.to_json_terms(ch, args.weight_basis),
    }
    _emit(_JSON.iterencode(doc), args.output)
    return 0


def cmd_polytope(args) -> int:
    system, r = _system(args)
    _soft_limit(args.n, args.force, "lattice enumeration")
    lam = _check_lambda(_parse_ints(args.lam, "lambda"), r)
    spec = polytope.polytope_spec(lam, system)
    points = polytope.lattice_points(spec)
    doc = {
        "command": "polytope",
        "n": args.n,
        "lambda": list(lam),
        "roots": [[root.i, root.j] for root in spec.roots],
        "inequalities": [
            {"support": sorted(idx), "bound": bound}
            for idx, bound in spec.inequalities
        ],
        "points": [list(p) for p in points],
        "count": len(points),
    }
    _emit(_JSON.iterencode(doc), args.output)
    return 0


def _fixed_points_text(n: int) -> Iterator[str]:
    """The `fixed-points` document as indented JSON, two chunks per collection.

    The tower walk builds the text of a component once per tower branch and
    carries it down; a collection is the join of its components' text, cut
    after its middle component.  The second chunk is the same str object
    while its components are unchanged: at n = 4 the walk's three deepest
    steps are in the first half, so it changes every 8 collections.

    At n = 4 each chunk is a str of at most 512 bytes, which Python's
    small-object allocator serves.  A consumer that keeps every chunk, as
    io.StringIO does, then holds them in arenas freed whole; 65,536 whole
    collections took ~48 MB of the C heap instead, and whether a later 44 MB
    allocation could reuse that space depended on what else had landed in it,
    so the peak RSS of such a process moved by 43 MB from run to run.
    """

    def component(key: tuple[int, int], s: frozenset[int]) -> str:
        values = json.dumps(sorted(s), indent=2).replace("\n", "\n      ")
        return f'      "{key[0]},{key[1]}": {values}'

    count = 2 ** (n * n)
    half = n * n // 2  # of the n^2 components; none at n = 1
    joint = ",\n" if half else ""
    yield (f'{{\n  "command": "fixed-points",\n  "n": {n},\n'
           f'  "count": {count},\n  "collections": [')
    written = 0
    tail: list[str] | None = None
    for parts in fixedpoints.iter_fixed_points(n, component):
        yield (",\n" if written else "\n") + "    {\n" + ",\n".join(parts[:half])
        if parts[half:] != tail:
            tail = parts[half:]
            closing = joint + ",\n".join(tail) + "\n    }"
        yield closing
        written += 1
    if written != count:
        raise RuntimeError(f"the tower walk gave {written} collections, not {count}")
    yield "\n  ]\n}"


def cmd_fixed_points(args) -> int:
    _soft_limit(args.n, args.force, "fixed-point enumeration")
    if args.count:
        count = sum(1 for _ in fixedpoints.iter_fixed_points(args.n, lambda key, s: None))
        _emit(_JSON.iterencode(count), args.output)
    else:
        _emit(_fixed_points_text(args.n), args.output)
    return 0


def cmd_abl_verify(args) -> int:
    _soft_limit(args.n, args.force, "localization verification")
    lam = _check_lambda(_parse_ints(args.lam, "lambda"), args.n)
    seed = args.seed
    if seed is None:
        text = os.environ.get("SPFLAG_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise UsageError(f"SPFLAG_SEED must be an integer, got {text!r}")
    report = fixedpoints.abl_verify(lam, args.n, args.trials, seed)
    _emit(_JSON.iterencode(report), args.output)
    return 0 if report["matched"] else 1


def cmd_discrepancy(args) -> int:
    _soft_limit(args.n, args.force, "discrepancy tables")
    d = _valid_d(_parse_ints(args.d, "d"), args.n)
    rows = bundles.discrepancy_table(d, args.n)
    identity_ok, _ = bundles.verify_canonical_identity(d, args.n)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=["i", "j", "b", "exceptional"])
        writer.writeheader()
        writer.writerows(rows)
        _emit([buf.getvalue()], args.output)
    else:
        doc = {
            "command": "discrepancy",
            "n": args.n,
            "d": list(d),
            "rows": rows,
            "canonical_identity": identity_ok,
        }
        _emit(_JSON.iterencode(doc), args.output)
    return 0 if identity_ok else 1


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a JSON array")
    return value


def _json_int(value, what: str) -> int:
    # bool is an int subclass; a float such as 2.7 would be truncated by int().
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be a JSON integer, got {json.dumps(value)}")
    return value


def _json_rational(value) -> Fraction:
    # A JSON float such as 0.1 has already lost its exact value.
    if not isinstance(value, str):
        return Fraction(_json_int(value, "a non-string row entry"))
    # Fraction alone would also read "0.5" and "1e5000", which has 5001 digits.
    if not _RATIONAL.fullmatch(value):
        raise ValueError(f"row entry {json.dumps(value)} is not an integer or p/q")
    return Fraction(value)


def _matrix_from_json(rows, two_n: int) -> geometry.Subspace:
    vecs = [
        [_json_rational(x) for x in _json_list(row, "a row")]
        for row in _json_list(rows, "a space")
    ]
    for v in vecs:
        if len(v) != two_n:
            raise UsageError(f"matrix rows must have length {two_n}")
    return geometry.Subspace.span(vecs, two_n)


def _matrix_to_json(u: geometry.Subspace) -> list[list[str]]:
    return [[str(x) for x in row] for row in u.rows]


def _load_flag(path: str) -> tuple[geometry.FlagPoint, int]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        n = _json_int(doc["n"], "n")
        d = tuple(_json_int(x, "an entry of d") for x in _json_list(doc["d"], "d"))
        spaces = tuple(
            _matrix_from_json(m, 2 * n) for m in _json_list(doc["spaces"], "spaces")
        )
    except (OSError, KeyError, ValueError, TypeError, ArithmeticError, RecursionError) as exc:
        raise UsageError(f"cannot read flag point from {path}: {exc}")
    _valid_d(d, n)
    if len(spaces) != len(d):
        raise UsageError("number of spaces does not match d")
    for dl, v in zip(d, spaces):
        if v.dim != dl:
            raise UsageError(f"V_{dl} has dimension {v.dim}, not {dl}")
    return geometry.FlagPoint(d, spaces), n


def cmd_check_geometry(args) -> int:
    flag, n = _load_flag(args.input)
    if args.n is not None and args.n != n:
        raise UsageError(f"--n {args.n} disagrees with input file n = {n}")
    if args.d is not None and tuple(_parse_ints(args.d, "d")) != flag.d:
        raise UsageError(f"--d {args.d} disagrees with input file d = {list(flag.d)}")
    member = geometry.in_sp_flag_a(flag, n)
    doc = {
        "command": "check-geometry",
        "n": n,
        "d": list(flag.d),
        "member": member,
        "dims": [v.dim for v in flag.spaces],
    }
    _emit(_JSON.iterencode(doc), args.output)
    return 0 if member else 1


def cmd_lift(args) -> int:
    flag, n = _load_flag(args.input)
    try:
        point = geometry.lift(flag, n)
    except geometry.LiftError as exc:
        _emit(_JSON.iterencode({"command": "lift", "error": str(exc)}), args.output)
        return 1
    try:
        spaces = {f"{i},{j}": _matrix_to_json(v) for (i, j), v in sorted(point.spaces.items())}
    except ValueError as exc:
        # A lifted entry can outgrow the interpreter's 4300-digit limit on str().
        raise UsageError(f"cannot write the lift of {args.input}: {exc}")
    doc = {"command": "lift", "n": n, "d": list(flag.d), "spaces": spaces}
    _emit(_JSON.iterencode(doc), args.output)
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="spflag",
        description="Exact characters and geometry checks for degenerate symplectic flags",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, lam=False, d=False, system=False, threads=False):
        p.add_argument("--n", type=_positive_int, required=True, help="rank n (sp_2n)")
        if lam:
            p.add_argument(
                "--lambda", dest="lam", required=True, help="m_1,...,m_n fundamental coefficients"
            )
        if d:
            p.add_argument("--d", required=True, help="strictly increasing indices d_1,...,d_k")
        if system:
            p.add_argument(
                "--system", choices=["C", "A"], default="C",
                help="root system: C (sp_2n, default) or A (sl_n; lambda has n-1 entries)",
            )
        if threads:
            p.add_argument(
                "--threads", type=_positive_int, default=1, help="accepted; has no effect"
            )
        p.add_argument("--force", action="store_true", help="override soft size limits")
        p.add_argument("--output", help="write output to a file instead of stdout")

    p = sub.add_parser("dim", help="dimension by lattice-point count")
    common(p, lam=True, system=True)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("qchar", help="PBW-graded character as JSON")
    common(p, lam=True, system=True)
    p.add_argument("--weight-basis", choices=["eps", "omega"], default="eps")
    p.set_defaults(func=cmd_qchar)

    p = sub.add_parser("weyl", help="Weyl character oracle as JSON")
    common(p, lam=True)
    p.add_argument("--weight-basis", choices=["eps", "omega"], default="eps")
    p.set_defaults(func=cmd_weyl)

    p = sub.add_parser("polytope", help="dump inequalities and lattice points")
    common(p, lam=True, system=True)
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("fixed-points", help="enumerate admissible collections")
    common(p, threads=True)
    p.add_argument("--count", action="store_true", help="print only the count")
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("abl-verify", help="verify the localization character identity")
    common(p, lam=True, threads=True)
    p.add_argument("--trials", type=_positive_int, default=20)
    p.add_argument("--seed", type=int, default=None, help="defaults to $SPFLAG_SEED or 0")
    p.set_defaults(func=cmd_abl_verify)

    p = sub.add_parser("discrepancy", help="discrepancy coefficients table")
    common(p, d=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_discrepancy)

    p = sub.add_parser("check-geometry", help="flag membership test from a JSON file")
    p.add_argument("--n", type=_positive_int, default=None)
    p.add_argument("--d", default=None)
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_check_geometry)

    p = sub.add_parser("lift", help="lift a flag point to the resolution")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_lift)

    return top


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except OSError as exc:
        # The reader closed stdout, or its disk is full: a usage error, like an
        # unwritable --output (every other file turns its OSError into one).
        # Pointing stdout at devnull keeps the interpreter's last flush quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
