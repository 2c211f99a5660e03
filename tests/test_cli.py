import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import spflag
from spflag import cli
from spflag.cli import run
from spflag.fixedpoints import enumerate_fixed_points


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


def test_usage_errors(capsys, monkeypatch, tmp_path):
    def fails(argv):
        rc = run(argv)
        out, err = capsys.readouterr()
        assert rc == 2 and out == "", argv
        assert "error:" in err and "Traceback" not in err, argv

    fails(["dim", "--n", "2", "--lambda", "1,0,0"])
    fails(["dim", "--n", "2", "--lambda", "1,x"])
    fails(["discrepancy", "--n", "2", "--d", "2,1"])
    fails(["fixed-points", "--n", "9", "--count"])
    fails(["dim", "--n", "0", "--lambda", ""])
    fails(["fixed-points", "--n", "0"])
    fails(["dim", "--system", "A", "--n", "1", "--lambda", ""])
    fails(["abl-verify", "--n", "1", "--lambda", "1", "--trials", "0"])
    fails(["abl-verify", "--n", "1", "--lambda", "1", "--trials", "-1"])
    fails(["abl-verify", "--n", "1", "--lambda", "1", "--threads", "0"])
    fails(["fixed-points", "--n", "1", "--threads", "-3"])
    fails(["dim", "--n", "1", "--lambda", "1", "--output", str(tmp_path / "no" / "such")])

    monkeypatch.setenv("SPFLAG_SEED", "abc")
    fails(["abl-verify", "--n", "1", "--lambda", "1", "--trials", "1"])

    zero_denominator = {"n": 1, "d": [1], "spaces": [[["1/0", "1"]]]}
    # V_1 is given a 2-dimensional basis.
    wrong_dim = {"n": 2, "d": [1], "spaces": [[["1", "0", "0", "0"], ["0", "1", "0", "0"]]]}
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
    docs = (zero_denominator, wrong_dim, row_as_text, d_as_text, float_n_d, float_entry, bool_entry,
            *exponent_entries)
    texts = [json.dumps(doc) for doc in docs]
    texts.append("[" * 100_000)  # nested deeper than the parser's recursion limit
    for k, text in enumerate(texts):
        path = tmp_path / f"bad{k}.json"
        path.write_text(text)
        fails(["lift", "--input", str(path)])
        fails(["check-geometry", "--input", str(path)])

    # A member whose entries have 4000 digits, within the input limit: the
    # lift's entry (C/D)/(A/B) has 8000, too many to write as a string.
    a_b, c_d = "1" * 4000 + "/" + "7" * 3999 + "3", "3" * 3999 + "1/2" + "9" * 3999
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 2, "d": [1], "spaces": [[[a_b, c_d, "0", "0"]]]}))
    assert run(["check-geometry", "--input", str(path)]) == 0
    capsys.readouterr()
    fails(["lift", "--input", str(path)])


def _fixed_points_stderr(n, stdout):
    """Exit status and stderr lines of `fixed-points --n n` writing to
    `stdout`; a pipe is closed after its first line is read."""
    src = os.path.dirname(os.path.dirname(spflag.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "spflag.cli", "fixed-points", "--n", str(n)],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    if stdout == subprocess.PIPE:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    return proc.returncode, err.decode().splitlines()


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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_is_a_usage_error():
    with open("/dev/full", "w") as full:
        rc, lines = _fixed_points_stderr(3, full)
    assert rc == 2
    assert len(lines) == 1 and lines[0].startswith("error: cannot write stdout"), lines


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fixed_points_stream_equals_the_encoded_document(n, tmp_path, capture):
    doc = {
        "command": "fixed-points",
        "n": n,
        "count": 2 ** (n * n),
        "collections": [
            {f"{i},{j}": sorted(s) for (i, j), s in sorted(coll.items())}
            for coll in enumerate_fixed_points(n)
        ],
    }
    expected = json.dumps(doc, indent=2)
    target = tmp_path / "out.json"
    assert capture(["fixed-points", "--n", str(n)]) == (0, expected + "\n")
    assert capture(["fixed-points", "--n", str(n), "--output", str(target)]) == (0, "")
    assert target.read_bytes() == expected.encode()


def test_fixed_points_n4_chunks_are_small_objects():
    # Each chunk between the document's head and tail is at most 512 bytes,
    # the largest object Python's small-object allocator serves, and the
    # closing half of a collection is the same object while it is unchanged.
    chunks = list(cli._fixed_points_text(4))[1:-1]
    assert len(chunks) == 2 * 2**16
    assert max(map(sys.getsizeof, chunks)) <= 512
    assert len({id(c) for c in chunks[1::2]}) == 2**16 // 8


@pytest.mark.parametrize("count", [False, True], ids=["output", "count"])
def test_fixed_points_n4_memory_stays_small(count, tmp_path, capsys):
    # Streaming keeps no collection alive after it is written or counted.
    out = ["--count"] if count else ["--output", str(tmp_path / "out.json")]
    tracemalloc.start()
    try:
        rc = run(["fixed-points", "--n", "4"] + out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert rc == 0 and peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_force_overrides_soft_limit(capture):
    rc, out = capture(["dim", "--n", "5", "--lambda", "0,0,0,0,0", "--force"])
    assert rc == 0 and out.strip() == "1"


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
