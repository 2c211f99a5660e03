import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spflag
from spflag import bundles, cli, fixedpoints, polytope
from spflag.cli import run
from spflag.geometry import Subspace
from spflag.rootsys import TypeA, TypeC

from support import all_d, fixed_points
from test_golden import GOLDEN


@pytest.fixture
def capture(capsys):
    def go(argv):
        rc = run(argv)
        return rc, capsys.readouterr().out

    return go


def test_dim(capture):
    rc, out = capture(["dim", "--n", "2", "--lambda", "1,0"])
    assert rc == 0 and out.strip() == "4"


def test_dim_zero(capture):
    rc, out = capture(["dim", "--n", "2", "--lambda", "0,0"])
    assert rc == 0 and out.strip() == "1"


def test_dim_type_a(capture):
    rc, out = capture(["dim", "--n", "3", "--lambda", "1,0", "--system", "A"])
    assert rc == 0 and out.strip() == "3"


def test_fixed_points_count(capture):
    rc, out = capture(["fixed-points", "--n", "2", "--count"])
    assert rc == 0 and out.strip() == "16"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fixed_points_count_equals_the_walk_and_the_document(n, capture):
    # --count prints 2^(n^2) without walking the tower.
    rc, out = capture(["fixed-points", "--n", str(n), "--count"])
    walked = sum(1 for _ in fixedpoints.iter_fixed_points(n, lambda key, s: None))
    assert rc == 0 and json.loads(out) == walked
    if n <= 3:
        rc, out = capture(["fixed-points", "--n", str(n)])
        assert rc == 0 and len(json.loads(out)["collections"]) == walked


def test_fixed_points_count_has_no_soft_limit(capture):
    # The count is 2^(n^2), not walked, so only its digit limit refuses it.
    rc, out = capture(["fixed-points", "--n", "5", "--count"])
    assert rc == 0 and out == "33554432\n"
    rc, out = capture(["fixed-points", "--n", "119", "--count"])
    assert rc == 0 and int(out) == 2**(119 * 119) and len(out.strip()) == 4263


def test_fixed_points_dump_schema(capture):
    rc, out = capture(["fixed-points", "--n", "1"])
    doc = json.loads(out)
    assert rc == 0 and doc["count"] == 2
    assert doc["collections"] == [{"1,1": [1]}, {"1,1": [2]}]


def test_threads_do_not_change_output(capture):
    rc1, out1 = capture(["fixed-points", "--n", "2", "--threads", "1"])
    rc2, out2 = capture(["fixed-points", "--n", "2", "--threads", "3"])
    assert rc1 == rc2 == 0 and out1 == out2


def test_qchar_schema(capture):
    rc, out = capture(["qchar", "--n", "2", "--lambda", "1,0"])
    doc = json.loads(out)
    assert rc == 0
    assert doc["terms"][0] == {"q": 0, "weight": [1, 0], "mult": 1}
    assert sum(t["mult"] for t in doc["terms"]) == 4
    keys = [(t["q"], t["weight"]) for t in doc["terms"]]
    assert keys == sorted(keys)


def test_qchar_omega_basis(capture):
    rc, out = capture(["qchar", "--n", "2", "--lambda", "0,1", "--weight-basis", "omega"])
    doc = json.loads(out)
    assert {"q": 0, "weight": [0, 1], "mult": 1} in doc["terms"]


def test_weyl_matches_qchar_at_q1(capture):
    rc, wout = capture(["weyl", "--n", "2", "--lambda", "1,1"])
    doc = json.loads(wout)
    assert rc == 0 and doc["dimension"] == 16
    assert sum(t["mult"] for t in doc["terms"]) == 16


def test_polytope_dump(capture):
    rc, out = capture(["polytope", "--n", "2", "--lambda", "1,0"])
    doc = json.loads(out)
    assert rc == 0 and doc["count"] == 4
    assert len(doc["inequalities"]) == 4
    assert [0, 0, 0, 0] in doc["points"]


@pytest.mark.parametrize(
    "argv, system, lam",
    [
        (["--n", "1", "--lambda", "0"], TypeC(1), (0,)),
        (["--n", "1", "--lambda", "254"], TypeC(1), (254,)),
        (["--n", "1", "--lambda", "255"], TypeC(1), (255,)),
        (["--n", "1", "--lambda", "256"], TypeC(1), (256,)),
        (["--n", "2", "--lambda", "2,3"], TypeC(2), (2, 3)),
        (["--n", "3", "--lambda", "1,1", "--system", "A"], TypeA(3), (1, 1)),
    ],
    ids=["one-point", "255-points", "256-points", "257-points", "C2", "A3"],
)
def test_polytope_stream_equals_the_encoded_document(argv, system, lam, tmp_path, capture):
    # With `cli._BATCH` = 256 points a chunk: less than, exactly and one more
    # than one batch, and several batches in type C and A.
    spec = polytope.polytope_spec(lam, system)
    points = list(polytope.lattice_points(spec))
    doc = {
        "command": "polytope",
        "n": int(argv[1]),
        "lambda": list(lam),
        "roots": [list(ij) for ij in spec.roots],
        "inequalities": [{"support": sorted(idx), "bound": b} for idx, b in spec.inequalities],
        "points": [list(p) for p in points],
        "count": len(points),
    }
    expected = json.dumps(doc, indent=2)
    target = tmp_path / "out.json"
    assert capture(["polytope", *argv]) == (0, expected + "\n")
    assert capture(["polytope", *argv, "--output", str(target)]) == (0, "")
    assert target.read_bytes() == expected.encode()


def test_polytope_memory_stays_small(tmp_path, capsys):
    # 200,001 points, a 5 MB file: streaming keeps no list of them, nor
    # their text, alive.
    target = tmp_path / "out.json"
    tracemalloc.start()
    try:
        rc = run(["polytope", "--n", "1", "--lambda", "200000", "--output", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert rc == 0 and peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert target.read_bytes().endswith(b'\n  ],\n  "count": 200001\n}')


def test_abl_verify_cli(capture):
    rc, out = capture(
        ["abl-verify", "--n", "1", "--lambda", "2", "--trials", "5", "--seed", "3"]
    )
    doc = json.loads(out)
    assert rc == 0 and doc["matched"] and doc["convention"] == "direct"
    assert len(doc["points"]) == 5


def test_abl_verify_seed_env(capture, monkeypatch):
    monkeypatch.setenv("SPFLAG_SEED", "9")
    rc, out1 = capture(["abl-verify", "--n", "1", "--lambda", "1", "--trials", "3"])
    doc = json.loads(out1)
    assert doc["seed"] == 9
    rc, out2 = capture(
        ["abl-verify", "--n", "1", "--lambda", "1", "--trials", "3", "--seed", "9"]
    )
    assert out1 == out2


@pytest.mark.parametrize("n", [2, 3])
def test_abl_verify_threads_do_not_change_output(capture, n):
    args = ["abl-verify", "--n", str(n), "--lambda", ",".join("1" * n), "--trials", "3"]
    rc1, out1 = capture(args + ["--seed", "4", "--threads", "1"])
    rc2, out2 = capture(args + ["--seed", "4", "--threads", "2"])
    assert rc1 == rc2 == 0 and out1 == out2


def test_abl_verify_deterministic(capture):
    args = ["abl-verify", "--n", "2", "--lambda", "1,0", "--trials", "4", "--seed", "1"]
    rc1, out1 = capture(args)
    rc2, out2 = capture(args)
    assert out1 == out2


def test_discrepancy_json(capture):
    rc, out = capture(["discrepancy", "--n", "2", "--d", "1,2"])
    doc = json.loads(out)
    assert rc == 0 and doc["canonical_identity"]
    by_pair = {(r["i"], r["j"]): r for r in doc["rows"]}
    assert by_pair[(1, 2)]["b"] == 2 and by_pair[(1, 2)]["exceptional"]


def test_discrepancy_csv(capture):
    rc, out = capture(["discrepancy", "--n", "2", "--d", "2", "--format", "csv"])
    lines = out.strip().splitlines()
    assert lines[0] == "i,j,b,exceptional"
    assert "1,2,3,True" in lines


@pytest.mark.parametrize("ok", [True, False])
def test_rows_writer_equals_the_encoder(ok):
    # No command prints `"canonical_identity": false`, so no digest covers it.
    for n in range(1, 7):
        for d in all_d(n):
            rows = bundles.discrepancy_table(d, n)
            head = {"command": "discrepancy", "n": n, "d": list(d)}
            tail = {"canonical_identity": ok}
            text = "".join(cli._document(head, "rows", cli._rows(rows), lambda count: tail))
            doc = {**head, "rows": rows, "canonical_identity": ok}
            assert text == json.dumps(doc, indent=2), (n, d, ok)


# A fenced block of docs/formats.md that follows "The whole output of `argv`:".
WHOLE_OUTPUT = re.compile(r"whole\s+output\s+of\s+`([^`]+)`:\n\n```json\n(.*?)```", re.S)


FLAG_FILE = re.compile(r"## Flag-point files[^\n]*\n\n```json\n(.*?)```", re.S)


def test_whole_outputs_in_the_formats_page_are_the_commands_stdout(
    capture, monkeypatch, tmp_path
):
    # The page's `abl-verify` output is drawn with the default seed 0, and its
    # `check-geometry` and `lift` outputs read the page's flag-point file.
    monkeypatch.delenv("SPFLAG_SEED", raising=False)
    page = (Path(__file__).parents[1] / "docs" / "formats.md").read_text(encoding="utf-8")
    (tmp_path / "flag.json").write_text(FLAG_FILE.search(page).group(1))
    monkeypatch.chdir(tmp_path)
    blocks = WHOLE_OUTPUT.findall(page)
    assert {argv.split()[0] for argv, _ in blocks} >= {
        "qchar", "discrepancy", "polytope", "fixed-points", "abl-verify", "check-geometry",
        "lift"}
    for argv, block in blocks:
        rc, out = capture(argv.split())
        assert rc == 0 and out == block, argv


README_CLI = re.compile(r"\n## CLI\n.*?```sh\n(.*?)```", re.S)


def test_readme_cli_examples_run(capture, monkeypatch, tmp_path):
    # `check-geometry` and `lift` read the flag-point file of the formats page.
    root = Path(__file__).parents[1]
    page = (root / "docs" / "formats.md").read_text(encoding="utf-8")
    (tmp_path / "flag.json").write_text(FLAG_FILE.search(page).group(1))
    monkeypatch.chdir(tmp_path)
    readme = (root / "README.md").read_text(encoding="utf-8")
    lines = README_CLI.search(readme).group(1).splitlines()
    assert len(lines) >= 9 and all(line.startswith("spflag ") for line in lines)
    for line in lines:
        argv, _, comment = line.partition("#")
        rc, out = capture(argv.split()[1:])
        assert rc == 0, line
        # A comment that is an integer is the line's whole stdout.
        if comment.strip().isdigit():
            assert out == comment.strip() + "\n", line


def test_usage_errors(capsys, monkeypatch, tmp_path):
    def fails(argv):
        rc = run(argv)
        out, err = capsys.readouterr()
        assert rc == 2 and out == "", argv
        assert "error:" in err and "Traceback" not in err, argv

    fails(["dim", "--n", "2", "--lambda", "1,0,0"])
    fails(["dim", "--n", "2", "--lambda", "1,x"])
    fails(["discrepancy", "--n", "2", "--d", "2,1"])
    fails(["dim", "--n", "0", "--lambda", ""])
    fails(["fixed-points", "--n", "0"])
    fails(["dim", "--system", "A", "--n", "1", "--lambda", ""])
    fails(["abl-verify", "--n", "1", "--lambda", "1", "--trials", "0"])
    fails(["abl-verify", "--n", "1", "--lambda", "1", "--trials", "-1"])
    fails(["abl-verify", "--n", "1", "--lambda", "1", "--threads", "0"])
    fails(["fixed-points", "--n", "1", "--threads", "-3"])
    fails(["dim", "--n", "1", "--lambda", "1", "--output", str(tmp_path / "no" / "such")])
    fails(["dim", "--n", "2", "--lambda", "1,0", "--output", ""])

    # Every argv integer, and $SPFLAG_SEED, is [+-]?[0-9]+: int() alone would
    # read "1_0" as 10, accept " 1" and read full-width digits.
    abl = ["abl-verify", "--n", "1", "--lambda", "1", "--trials", "1"]
    for bad in ("1_0", "0_1", " 1", "０", "１"):
        fails(["dim", "--n", "2", "--lambda", f"{bad},0"])
        fails(["dim", "--n", bad, "--lambda", "1"])
        fails(["discrepancy", "--n", "2", "--d", bad])
        fails(["abl-verify", "--n", "1", "--lambda", "1", "--trials", bad])
        fails(abl + ["--threads", bad])
        fails(abl + ["--seed", bad])
        monkeypatch.setenv("SPFLAG_SEED", bad)
        fails(abl)

    monkeypatch.setenv("SPFLAG_SEED", "abc")
    fails(abl)

    zero_denominator = {"n": 1, "d": [1], "spaces": [[["1/0", "1"]]]}
    # V_1 is given a 2-dimensional basis.
    wrong_dim = {"n": 2, "d": [1], "spaces": [[["1", "0", "0", "0"], ["0", "1", "0", "0"]]]}
    # A row of length 2 where 2n = 4.
    short_row = {"n": 2, "d": [1], "spaces": [[["1", "0"]]]}
    # Strings where arrays belong would be read character by character.
    row_as_text = {"n": 1, "d": [1], "spaces": [["12"]]}
    d_as_text = {"n": 2, "d": "12", "spaces": [[["1", "0", "0", "0"]], [["0", "1", "0", "0"]]]}
    # Floats would be truncated (n = 2, d = (1, 2)) or read as binary fractions.
    float_n_d = {
        "n": 2.7,
        "d": [1.9, 2],
        "spaces": [[["1", "0", "0", "0"]], [["1", "0", "0", "0"], ["0", "1", "0", "0"]]],
    }
    float_entry = {"n": 1, "d": [1], "spaces": [[[0.1, "1"]]]}
    bool_entry = {"n": 1, "d": [True], "spaces": [[[True, "1"]]]}
    # Exponent notation would build a 5001-digit entry, or run for minutes.
    exponent_entries = [{"n": 1, "d": [1], "spaces": [[[e, "1"]]]} for e in ("1e5000", "1e30000000")]
    docs = (zero_denominator, wrong_dim, short_row, row_as_text, d_as_text, float_n_d, float_entry, bool_entry,
            *exponent_entries)
    texts = [json.dumps(doc) for doc in docs]
    texts.append("[" * 100_000)  # nested deeper than the parser's recursion limit
    for k, text in enumerate(texts):
        path = tmp_path / f"bad{k}.json"
        path.write_text(text)
        fails(["lift", "--input", str(path)])
        fails(["check-geometry", "--input", str(path)])

    # The message names the fault, not the Python error it would raise.
    for text, message in (
        ("[1, 2]", "the top level must be a JSON object"),
        ('{"n": 1, "d": [1]}', "missing key 'spaces'"),
    ):
        path = tmp_path / "named.json"
        path.write_text(text)
        fails(["lift", "--input", str(path)])
        assert run(["check-geometry", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: cannot read flag point from {path}: {message}\n"

    # A member whose entries have 4000 digits, within the input limit: the
    # lift's entry (C/D)/(A/B) has 8000, too many to write as a string.
    a_b, c_d = "1" * 4000 + "/" + "7" * 3999 + "3", "3" * 3999 + "1/2" + "9" * 3999
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 2, "d": [1], "spaces": [[[a_b, c_d, "0", "0"]]]}))
    assert run(["check-geometry", "--input", str(path)]) == 0
    capsys.readouterr()
    fails(["lift", "--input", str(path)])

    # Answers past the 4300 digits Python writes as a string: the dimension
    # 10^4300 has 4301, the count 2^14400 at n = 120 has 4335, and a value
    # of the character at lambda = 1600 outgrows the limit at seed 0 (seeds
    # 1, 4 and 5 stay under it, hence the explicit --seed).
    fails(["dim", "--n", "1", "--lambda", "9" * 4300])
    fails(["abl-verify", "--n", "1", "--lambda", "1600", "--trials", "1", "--seed", "0"])
    fails(["fixed-points", "--n", "120", "--count"])
    fails(["fixed-points", "--n", "120", "--force", "--count"])
    fails(["fixed-points", "--n", "120", "--force"])
    # At the limit: 10^4299 has 4300 digits.
    assert run(["dim", "--n", "1", "--lambda", "9" * 4299]) == 0
    assert capsys.readouterr().out == "1" + "0" * 4299 + "\n"


def test_fixed_points_refuses_a_long_count_before_building_it(capsys):
    # 2^(3000^2) has 9,000,001 bits, about 1.1 MB as an int: the refusal
    # comes from the bit count, and the power is never built.
    tracemalloc.start()
    try:
        rc = run(["fixed-points", "--n", "3000", "--force", "--count"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "") and err.startswith("error: cannot write the count")
    assert peak < 512 * 2**10, f"peak {peak / 2**10:.0f} KB"


def _fixed_points_stderr(n, stdout, stderr=subprocess.PIPE):
    """Exit status and stderr lines of `fixed-points --n n` writing to
    `stdout`; a pipe is closed after its first line is read.  With
    `stderr=subprocess.STDOUT` the error line goes to that pipe too, and no
    lines are returned."""
    src = os.path.dirname(os.path.dirname(spflag.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "spflag.cli", "fixed-points", "--n", str(n)],
        stdout=stdout,
        stderr=stderr,
        env=dict(os.environ, PYTHONPATH=src),
    )
    if stdout == subprocess.PIPE:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    return proc.returncode, (err or b"").decode().splitlines()


def test_closed_stdout_is_a_usage_error():
    # fixed-points --n 3 prints 191 kB, more than a pipe holds, so the command
    # is still writing when the reader closes the pipe after one line.
    rc, lines = _fixed_points_stderr(3, subprocess.PIPE)
    assert rc == 2
    assert len(lines) == 1 and lines[0].startswith("error: cannot write stdout"), lines


def test_closed_stdout_at_n4_is_a_usage_error():
    # The 46.5 MB document is streamed, so the closed pipe is seen within a
    # pipe buffer of the first line, not after the whole text is built.
    rc, lines = _fixed_points_stderr(4, subprocess.PIPE)
    assert rc == 2
    assert len(lines) == 1 and lines[0].startswith("error: cannot write stdout"), lines


def test_closed_stdout_shared_with_stderr_is_a_usage_error():
    # `fixed-points --n 3 2>&1 | head -1`: the error line cannot be written to
    # the closed pipe either, and the exit status is still the usage error's.
    rc, lines = _fixed_points_stderr(3, subprocess.PIPE, subprocess.STDOUT)
    assert rc == 2 and lines == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_is_a_usage_error():
    with open("/dev/full", "w") as full:
        rc, lines = _fixed_points_stderr(3, full)
    assert rc == 2
    assert len(lines) == 1 and lines[0].startswith("error: cannot write stdout"), lines


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_unwritable_usage_error_line_still_exits_2():
    # The soft-limit error cannot be written to stderr; the exit status is
    # still the usage error's, not an uncaught OSError's 1.
    src = os.path.dirname(os.path.dirname(spflag.__file__))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "spflag.cli", "dim", "--n", "5", *OMEGA_1],
            stdout=subprocess.PIPE, stderr=full, env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
    assert (proc.returncode, proc.stdout) == (2, b"")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fixed_points_stream_equals_the_encoded_document(n, tmp_path, capture):
    # With `cli._BATCH` = 256 collections a chunk, n = 1 and 2 write one
    # partial batch, and n = 1 has one key, whose text both opens and closes
    # its collection; n = 3 (and n = 4 in the golden digests) write only
    # whole batches.
    doc = {
        "command": "fixed-points",
        "n": n,
        "count": 2 ** (n * n),
        "collections": [
            {f"{i},{j}": sorted(s) for (i, j), s in sorted(coll.items())}
            for coll in fixed_points(n)
        ],
    }
    expected = json.dumps(doc, indent=2)
    target = tmp_path / "out.json"
    assert capture(["fixed-points", "--n", str(n)]) == (0, expected + "\n")
    assert capture(["fixed-points", "--n", str(n), "--output", str(target)]) == (0, "")
    assert target.read_bytes() == expected.encode()


def test_fixed_points_n4_chunks_are_whole_batches_of_collections():
    # Between its head and its close, `_document` writes one chunk per batch
    # of collections; each chunk after the first opens a collection after the
    # separator, and the first opens the array.
    head = {"command": "fixed-points", "n": 4, "count": 2**16}
    chunks = list(cli._document(head, "collections", cli._collections(4)))
    body = chunks[1:-1]
    assert len(body) == 2**16 // cli._BATCH == 256
    assert body[0].startswith("\n    {\n")
    assert all(c.startswith(",\n    {\n") for c in body[1:])
    text = "".join(chunks)
    assert hashlib.sha256((text + "\n").encode()).hexdigest() == GOLDEN["fixed-points --n 4"][1]


def test_a_tower_walk_that_loses_a_collection_raises(capsys, monkeypatch):
    walk = fixedpoints.iter_fixed_points

    def lossy(n, label):
        collections = walk(n, label)
        next(collections)
        return collections

    monkeypatch.setattr(fixedpoints, "iter_fixed_points", lossy)
    with pytest.raises(RuntimeError, match="the tower walk gave 15 collections, not 16"):
        run(["fixed-points", "--n", "2"])
    capsys.readouterr()


@pytest.mark.parametrize("count", [False, True], ids=["output", "count"])
def test_fixed_points_n4_memory_stays_small(count, tmp_path, capsys, monkeypatch):
    # Streaming keeps no collection alive after it is written; the count
    # does not walk the tower at all.
    target = tmp_path / "out.json"
    out = ["--count"] if count else ["--output", str(target)]

    def no_walk(*args):
        raise AssertionError("--count walked the tower")

    if count:
        monkeypatch.setattr(fixedpoints, "iter_fixed_points", no_walk)
    tracemalloc.start()
    try:
        rc = run(["fixed-points", "--n", "4"] + out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert rc == 0 and peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
    if not count:
        # The file is stdout without its final newline.
        digest = hashlib.sha256(target.read_bytes() + b"\n").hexdigest()
        assert digest == GOLDEN["fixed-points --n 4"][1]


OMEGA_1 = ["--lambda", "1,0,0,0,0"]
# Each command with a soft limit: the rest of its argv at n = 5, and whether
# it is cheap enough there to run with --force.
LIMITED = {
    "dim": (OMEGA_1, True),
    "qchar": (OMEGA_1, True),
    "weyl": (OMEGA_1, True),
    "polytope": (OMEGA_1, True),
    "discrepancy": (["--d", "1"], True),
    "fixed-points": ([], False),
    "abl-verify": (OMEGA_1, False),
}


@pytest.mark.parametrize("command", LIMITED)
def test_force_overrides_soft_limit(command, capsys):
    rest, cheap = LIMITED[command]
    argv = [command, "--n", "5"] + rest
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("error:") == 1 and "--force" in err, err
    if cheap:
        assert run(argv + ["--force"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc == 10) if command == "dim" else (doc["n"] == 5)


# Every subcommand's options, besides --help.  check-geometry and lift read
# n and d from their input file only.
OPTIONS = {
    "dim": {"--n", "--lambda", "--system", "--force", "--output"},
    "qchar": {"--n", "--lambda", "--system", "--weight-basis", "--force", "--output"},
    "weyl": {"--n", "--lambda", "--weight-basis", "--force", "--output"},
    "polytope": {"--n", "--lambda", "--system", "--force", "--output"},
    "fixed-points": {"--n", "--threads", "--count", "--force", "--output"},
    "abl-verify": {"--n", "--lambda", "--threads", "--trials", "--seed", "--force", "--output"},
    "discrepancy": {"--n", "--d", "--format", "--force", "--output"},
    "check-geometry": {"--input", "--output"},
    "lift": {"--input", "--output"},
}


def test_option_surface(tmp_path, capsys):
    (commands,) = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in commands.choices.items()
    }
    assert surface == OPTIONS

    path = tmp_path / "line.json"
    path.write_text(json.dumps({"n": 1, "d": [1], "spaces": [[["1", "0"]]]}))
    assert run(["check-geometry", "--input", str(path)]) == 0
    capsys.readouterr()
    for command in ("check-geometry", "lift"):
        assert run([command, "--n", "1", "--input", str(path)]) == 2
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", OPTIONS)
def test_every_subcommand_has_help(command, capsys):
    # Only the options are checked: argparse words its help differently
    # across Python versions.
    assert run([command, "--help"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    for option in OPTIONS[command]:
        assert re.search(rf"^\s+{option}\b", out, re.M), option


def test_unknown_command_exits_2():
    assert run(["frobnicate"]) == 2


def test_check_geometry_roundtrip(tmp_path, capture):
    doc = {
        "n": 2,
        "d": [1, 2],
        "spaces": [
            [["1", "0", "0", "0"]],
            [["1", "0", "0", "0"], ["0", "1", "0", "0"]],
        ],
    }
    path = tmp_path / "flag.json"
    path.write_text(json.dumps(doc))
    rc, out = capture(["check-geometry", "--input", str(path)])
    assert rc == 0 and json.loads(out)["member"]

    rc, out = capture(["lift", "--input", str(path)])
    lifted = json.loads(out)
    assert rc == 0 and sorted(lifted["spaces"]) == ["1,1", "1,2", "1,3", "2,2"]


def test_check_geometry_nonmember(tmp_path, capture):
    doc = {
        "n": 2,
        "d": [1, 2],
        "spaces": [
            [["0", "1", "0", "0"]],
            [["0", "1", "0", "0"], ["0", "0", "1", "0"]],
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc, out = capture(["check-geometry", "--input", str(path)])
    assert rc == 1 and not json.loads(out)["member"]
    rc, out = capture(["lift", "--input", str(path)])
    assert rc == 1 and "error" in json.loads(out)


def test_check_geometry_rational_entries(tmp_path, capture):
    doc = {"n": 1, "d": [1], "spaces": [[["1/2", "3/7"]]]}
    path = tmp_path / "line.json"
    path.write_text(json.dumps(doc))
    rc, out = capture(["check-geometry", "--input", str(path)])
    assert rc == 0 and json.loads(out)["member"]


# Row entries as a flag file holds them: JSON ints, and integer or p/q strings
# with signs, leading zeros, zero numerators and parts of up to 41 digits.
_entries = st.one_of(
    st.integers(-(10**40), 10**40),
    st.sampled_from(["0", "+7", "007", "-0/5", "0/3", "-12/8", "+006/004"]),
    st.builds(
        lambda sign, zeros, p, q: f"{sign}{'0' * zeros}{p}" + ("" if q is None else f"/{q}"),
        st.sampled_from(["", "+", "-"]),
        st.integers(0, 2),
        st.integers(0, 10**40),
        st.one_of(st.none(), st.integers(1, 10**40)),
    ),
)


@st.composite
def _spaces(draw):
    two_n = 2 * draw(st.integers(1, 3))
    row = st.lists(st.one_of(st.just(0), _entries), min_size=two_n, max_size=two_n)
    return two_n, draw(st.lists(row, max_size=two_n + 1))


@given(_spaces())
@settings(max_examples=300, deadline=None)
def test_flag_io_equals_the_fraction_path(space):
    two_n, rows = space
    u = cli._matrix_from_json(rows, two_n)
    assert u == Subspace.span([[Fraction(x) for x in row] for row in rows], two_n)
    assert u.text_rows() == [[str(x) for x in row] for row in u.fraction_rows()]


# Strings weighted toward control characters and non-ASCII text.
_strings = st.text(st.one_of(st.characters(max_codepoint=0x1F), st.characters(min_codepoint=0x80),
                             st.characters()))
# No document holds null or an empty container, so `_text` writes neither.
_json_values = st.recursive(
    st.one_of(st.booleans(), st.integers(), st.integers(-(10**400), 10**400), _strings),
    lambda kids: st.one_of(st.lists(kids, min_size=1, max_size=4),
                           st.dictionaries(_strings, kids, min_size=1, max_size=4)),
    max_leaves=24,
)


@given(_json_values)
@settings(max_examples=500, deadline=None)
def test_text_equals_the_stdlib_layout(value):
    assert cli._text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [0.5, (1, 2), {1: "a"}, {"a": [Fraction(1, 2)]}, b"x", None])
def test_text_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._text(value)


def test_output_file(tmp_path, capture):
    target = tmp_path / "out.txt"
    rc, out = capture(["dim", "--n", "1", "--lambda", "4", "--output", str(target)])
    assert rc == 0 and target.read_text() == "5"


def test_output_file_holds_stdout_without_the_final_newline(tmp_path, capture):
    argv = ["fixed-points", "--n", "1"]
    rc, out = capture(argv)
    target = tmp_path / "out.json"
    assert capture(argv + ["--output", str(target)]) == (0, "")
    expected = {"command": "fixed-points", "n": 1, "count": 2,
                "collections": [{"1,1": [1]}, {"1,1": [2]}]}
    assert rc == 0 and out == target.read_text() + "\n"
    assert target.read_text() == json.dumps(expected, indent=2)
