"""Fuzz the CLI with argv drawn from the documented grammar and with
malformed flag-point files.

Whatever the input, a run exits 0, 1 or 2, prints no traceback, writes nothing
to stdout when it refuses the input, and no report claims `matched: true`
without a checked point.  Draws are derandomized and n stays at most 3, so the
tests are deterministic and quick.
"""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from spflag.cli import run

from support import all_d

fuzz = settings(derandomize=True, database=None, deadline=None, max_examples=150)

# Values for --n, --trials and --threads: mostly valid, some not.
small = st.sampled_from(["1", "2", "3", "0", "-1", "x", ""])
int_list = st.lists(st.integers(-1, 3), max_size=4).map(lambda v: ",".join(map(str, v)))
lists = st.one_of(int_list, st.sampled_from(["", ",", "1,,0", "a,b", "1.5"]))

option = st.one_of(
    st.tuples(st.just("--n"), small),
    st.tuples(st.just("--lambda"), lists),
    st.tuples(st.just("--d"), lists),
    st.tuples(st.just("--trials"), small),
    st.tuples(st.just("--threads"), small),
    st.tuples(st.just("--seed"), st.sampled_from(["0", "5", "-3", "z"])),
    st.tuples(st.just("--system"), st.sampled_from(["A", "C", "B"])),
    st.tuples(st.just("--weight-basis"), st.sampled_from(["eps", "omega", "x"])),
    st.tuples(st.just("--format"), st.sampled_from(["json", "csv", "xml"])),
    st.tuples(st.sampled_from(["--count", "--force", "--bogus"])),
)

# Two 4000-digit entries: a row holding both lifts to an entry of 8000 digits.
HUGE = ["1" * 4000 + "/" + "7" * 3999 + "3", "3" * 3999 + "1/2" + "9" * 3999]
entry = st.one_of(
    st.sampled_from(["0", "1", "-1", "1/2", "1/0", "x", "12", "", "nan", "1e5000", *HUGE]),
    st.integers(-2, 2), st.none(), st.booleans(), st.just([]),
)
row = st.one_of(st.lists(entry, max_size=5), entry)
matrix = st.one_of(st.lists(row, max_size=3), entry)
flag_doc = st.fixed_dictionaries({
    "n": st.one_of(st.integers(-1, 3), st.sampled_from(["2", 1.5, None, True])),
    "d": st.one_of(st.lists(st.integers(-1, 4), max_size=3), entry),
    "spaces": st.one_of(st.lists(matrix, max_size=3), entry),
})
# Well-formed flag points (a member, a non-member, a rational line) and texts
# that are not flag points at all.
fixed_texts = [json.dumps(doc) for doc in (
    {"n": 2, "d": [1, 2], "spaces": [[["1", "0", "0", "0"]],
                                     [["1", "0", "0", "0"], ["0", "1", "0", "0"]]]},
    {"n": 2, "d": [1, 2], "spaces": [[["0", "1", "0", "0"]],
                                     [["0", "1", "0", "0"], ["0", "0", "1", "0"]]]},
    {"n": 1, "d": [1], "spaces": [[["1/2", "3/7"]]]},
)] + ["", "{", "{}", "not json", "[" * 100_000, '{"n": 1e999}']
flag_text = st.one_of(
    st.sampled_from(fixed_texts),
    flag_doc.map(json.dumps),
    st.recursive(entry, lambda kids: st.lists(kids, max_size=3), max_leaves=8).map(json.dumps),
)
output = st.sampled_from([None, "out.json", "no/such/dir/out.json"])


def _run_and_check(command: str, args: list[str], out_name, env_seed=None, flag=None):
    env = {} if env_seed is None else {"SPFLAG_SEED": env_seed}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, env):
        if env_seed is None:
            os.environ.pop("SPFLAG_SEED", None)
        argv = [command] + args
        if flag is not None:
            path = os.path.join(tmp, "flag.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(flag)
            argv += ["--input", path]
        if out_name:
            argv += ["--output", os.path.join(tmp, out_name)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run(argv)
        text = out.getvalue()
        if out_name and rc != 2:
            with open(argv[-1], encoding="utf-8") as fh:
                text = fh.read()
    assert rc in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if rc == 2:
        assert out.getvalue() == "" and "error:" in err.getvalue(), argv
    elif command == "abl-verify":
        report = json.loads(text)
        assert report["points"] or not report["matched"], argv
        assert (rc == 0) == report["matched"], argv


@fuzz
@given(
    command=st.sampled_from(
        ["dim", "qchar", "weyl", "polytope", "fixed-points", "abl-verify", "discrepancy"]
    ),
    n=st.integers(1, 3),
    lam=st.lists(st.integers(0, 1), min_size=3, max_size=3),
    # Half the draws are well-formed calls; the rest are perturbed.
    extra=st.one_of(st.just([]), st.lists(option, min_size=1, max_size=2)),
    out_name=output,
    env_seed=st.sampled_from([None, "4", "abc"]),
)
def test_cli_exit_codes_and_reports(command, n, lam, extra, out_name, env_seed):
    args = ["--n", str(n)]
    if command == "discrepancy":
        args += ["--d", str(n)]
    elif command != "fixed-points":
        args += ["--lambda", ",".join(map(str, lam[:n]))]
    if command == "abl-verify":
        args += ["--trials", "2"]
    for opt in extra:
        args += list(opt)
    _run_and_check(command, args, out_name, env_seed=env_seed)


@fuzz
@given(
    command=st.sampled_from(["check-geometry", "lift"]),
    flag=flag_text,
    out_name=output,
)
def test_flag_files_exit_cleanly(command, flag, out_name):
    _run_and_check(command, [], out_name, flag=flag)


@st.composite
def coordinate_flag(draw):
    """A well-formed flag-point file whose spaces are coordinate subspaces."""
    n = draw(st.integers(1, 3))
    d = draw(st.sampled_from(all_d(n)))
    spaces = []
    for k in d:
        s = draw(st.lists(st.integers(1, 2 * n), min_size=k, max_size=k, unique=True))
        spaces.append([[str(int(c == l)) for c in range(1, 2 * n + 1)] for l in s])
    return json.dumps({"n": n, "d": list(d), "spaces": spaces})


@fuzz
@given(flag=coordinate_flag())
def test_lift_exits_as_check_geometry(flag):
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "flag.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(flag)
        for command in ("check-geometry", "lift"):
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(run([command, "--input", path]))
    assert codes[0] == codes[1] and codes[0] in (0, 1), flag
