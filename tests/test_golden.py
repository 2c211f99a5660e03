"""Golden stdout digests of the CLI at n <= 3, of `qchar`, `weyl`, `lift` and
`fixed-points` at n = 4, and of `discrepancy` for every d at n = 4, 5 and 6.

Each entry is the exit status and the sha256 of the exact bytes a command
writes to stdout.  The contract in docs/formats.md promises byte-identical
output across refactors and for every --threads value, so a changed digest is
a changed contract.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import spflag
from spflag.cli import run

from support import all_d

# An open-cell point of SpF_(1,2,3,4) at n = 4 (random_sp_flag, seed 4):
# OPEN4[k] is a basis of V_{k+1}.
OPEN4 = [
    [["1", "-7/5", "-4/3", "-1/2", "-4", "-7", "-3/2", "-2/3"]],
    [
        ["1", "0", "-4/3", "-1/2", "-4", "-7", "-3/2", "-2/3"],
        ["0", "1", "0", "-3", "7/5", "-9/4", "3", "-3/2"],
    ],
    [
        ["1", "0", "0", "-1/2", "-4", "-7", "-3/2", "-2/3"],
        ["0", "1", "0", "-3", "7/5", "-9/4", "3", "-3/2"],
        ["0", "0", "1", "-1/2", "2/3", "8/3", "-9/4", "-7"],
    ],
    [
        ["1", "0", "0", "0", "-4", "-7", "-3/2", "-2/3"],
        ["0", "1", "0", "0", "7/5", "-9/4", "3", "-3/2"],
        ["0", "0", "1", "0", "2/3", "8/3", "-9/4", "-7"],
        ["0", "0", "0", "1", "-4", "2/3", "7/5", "-4"],
    ],
]

FLAGS = {
    "flag_123": {
        "n": 3,
        "d": [1, 2, 3],
        "spaces": [
            [["1", "8", "5/3", "-3/2", "5/4", "1"]],
            [["1", "0", "5/3", "-3/2", "5/4", "1"], ["0", "1", "-5", "7/4", "7/5", "5/4"]],
            [
                ["1", "0", "0", "-3/2", "5/4", "1"],
                ["0", "1", "0", "7/4", "7/5", "5/4"],
                ["0", "0", "1", "-4", "7/4", "-3/2"],
            ],
        ],
    },
    # d = (1,3) and d = (2,) leave components free, so lift takes the
    # deterministic extension path rather than only forced steps.
    "flag_13": {
        "n": 3,
        "d": [1, 3],
        "spaces": [
            [["1", "8", "5/3", "-3/2", "5/4", "1"]],
            [
                ["1", "0", "0", "-3/2", "5/4", "1"],
                ["0", "1", "0", "7/4", "7/5", "5/4"],
                ["0", "0", "1", "-4", "7/4", "-3/2"],
            ],
        ],
    },
    "flag_2": {
        "n": 3,
        "d": [2],
        "spaces": [
            [["1", "0", "5/3", "-3/2", "5/4", "1"], ["0", "1", "-5", "7/4", "7/5", "5/4"]],
        ],
    },
    "flag4_1234": {"n": 4, "d": [1, 2, 3, 4], "spaces": OPEN4},
    "flag4_24": {"n": 4, "d": [2, 4], "spaces": [OPEN4[1], OPEN4[3]]},
    # One entry of V_2 changed: not a member, since pr_{3,4} V_2 does not lie
    # in V_4.  The anchor V_2 is then outside the preimage of V_4 that bounds
    # V_{2,2} from above, so lift reports incompatible constraints at (2,2).
    "flag4_24_bad": {
        "n": 4,
        "d": [2, 4],
        "spaces": [[["1", "0", "-4/3", "-1/2", "1", "-7", "-3/2", "-2/3"], OPEN4[1][1]], OPEN4[3]],
    },
    # V_2 = span(w_1, w_3) and V_3 = span(w_2, w_3, w_6): not a member, since
    # pr_3 V_2 = span(w_1) does not lie in V_3.  The anchor V_2 is then outside
    # the preimage of V_3 that bounds V_{2,2} from above, so lift reports
    # incompatible constraints at (2,2).
    "flag_23_incompatible": {
        "n": 3,
        "d": [2, 3],
        "spaces": [
            [["1", "0", "0", "0", "0", "0"], ["0", "0", "1", "0", "0", "0"]],
            [
                ["0", "1", "0", "0", "0", "0"],
                ["0", "0", "1", "0", "0", "0"],
                ["0", "0", "0", "0", "0", "1"],
            ],
        ],
    },
    # V_1 = span(w_3) and V_4 = span(w_1, w_2, w_5, w_6): a member.  V_{1,3}
    # is free and must lie in the preimage of V_4 under pr_4; a choice blind
    # to V_4 leaves no valid V_{1,4}.
    "flag4_14_coordinate": {
        "n": 4,
        "d": [1, 4],
        "spaces": [
            [["0", "0", "1", "0", "0", "0", "0", "0"]],
            [
                ["1", "0", "0", "0", "0", "0", "0", "0"],
                ["0", "1", "0", "0", "0", "0", "0", "0"],
                ["0", "0", "0", "0", "1", "0", "0", "0"],
                ["0", "0", "0", "0", "0", "1", "0", "0"],
            ],
        ],
    },
}

GOLDEN = {
    "qchar --n 3 --lambda 1,0,1":
        (0, "d6bf94f4c0a5feb4058ab3207caf30ba3e8c327a619a65ce5bf2ac20243f754b"),
    "qchar --n 3 --lambda 0,1,1 --weight-basis omega":
        (0, "9aa886f2eeea74ce4a8fb5c0d9a34fb598c76b8f2502cfd906fd3e8c3b60204f"),
    "qchar --n 3 --lambda 1,1 --system A --weight-basis omega":
        (0, "b148fb2b08a75809c01cb1922850933bb999f37152924d64f6cf903866a17a58"),
    "qchar --n 4 --lambda 0,1,0,1":
        (0, "9c8b03d8fdfd666276dfa3287aff7869eb16ea11de6d0f37a58e58e0c3bf449a"),
    "qchar --n 4 --lambda 0,1,0,1 --weight-basis omega":
        (0, "9017b03b81f18c06821d110e3a1e3b209871f5d87c38f400f6dc47c798ed7b1d"),
    # Edge layouts: one term with a one-entry weight, the zero weight of A_1
    # in the omega basis, and the one-component collections at n = 1.
    "weyl --n 1 --lambda 0":
        (0, "412a4e9328d604580b4ee45d0ca74f1badfcc8661c775a4e8895c2b0a0a2c7f7"),
    "qchar --n 2 --lambda 0 --system A --weight-basis omega":
        (0, "a8805942d10ce4c1e6c30ed9a204dfde677dff1af575a72941e4941f4ac91f94"),
    "fixed-points --n 1":
        (0, "caff8949729140b95304dfe695f45b5a4993a3f1500ccad29f78abe922d2863a"),
    "weyl --n 3 --lambda 0,1,0":
        (0, "0d91c455b7f6f2f5aad9ed9e85e50c2d90c2f84159bdb62fb0f686f0d97bf709"),
    "weyl --n 2 --lambda 2,1 --weight-basis omega":
        (0, "47eed2426ebc0c44b9106b4bf36287c4dc67b1d4312d5f015caaf2c4a734bac6"),
    "weyl --n 4 --lambda 0,1,0,1":
        (0, "f2b20f01c35d131d3e577c190d5bb12ceddf93c665154eb5d079b0e519da6cf9"),
    "weyl --n 4 --lambda 1,1,1,1":
        (0, "84e943c076ebffac8fae760d183455c62e0d39f939032c7597ee3f0efa251a3b"),
    "weyl --n 4 --lambda 0,0,1,1 --weight-basis omega":
        (0, "4f42867e3e40d919dbe115e6e86f71acc133dd5e76a28969dccf39300697f4e3"),
    "polytope --n 3 --lambda 1,0,1":
        (0, "e30b56ed25ac480a082da4c4d196b2e4e6316c13e620a0cf14c1b61418a51887"),
    "polytope --n 3 --lambda 1,1 --system A":
        (0, "a803cfedbf9d30f352c94e81b429e6a642bc0753600920ae7bf6f8897df3c6b4"),
    # Weights where inequalities of bound 0 hold roots at 0: every root
    # (i, j) with j < 4 at (0,0,0,2); all but (i, j) with i <= 2 <= j at
    # A(0,1,0); every root at lambda = 0.
    "dim --n 4 --lambda 0,0,0,2":
        (0, "56c2799e32bf4b8c4d4c9bbaf7fe6b6122e4b1280373bd9b2ff0d194a08999d0"),
    "qchar --n 4 --lambda 0,0,0,2":
        (0, "4cbb3b0d5fc006168050f1c8cb6cacf8e76c6a08afb691a90ec7a69333786818"),
    "polytope --n 4 --lambda 0,0,0,2":
        (0, "cee9d1de1457125f3204461b1d8a6f754630577470b05ad1c8c178159a92773a"),
    "dim --n 4 --lambda 0,1,0 --system A":
        (0, "06e9d52c1720fca412803e3b07c4b228ff113e303f4c7ab94665319d832bbfb7"),
    "qchar --n 4 --lambda 0,1,0 --system A":
        (0, "dcca9c64eecb45b80f83694bb2752039ec1e77f009e43f1cf105935b76c40e83"),
    "polytope --n 4 --lambda 0,1,0 --system A":
        (0, "c014fcd0a4644eba8adb660eff181a35f89196b65ae8f8737379f066ebe9f6cb"),
    "polytope --n 3 --lambda 0,0,0":
        (0, "9f1ccaf99d3e5239bfcdd4ab3b83c98dde782bc262d05bba1f64e7744d549f1e"),
    "fixed-points --n 3":
        (0, "d21b7f85caafa9f28e4d390b428aa6b408c3fecc3fdfdacc289bd279b11102b8"),
    "fixed-points --n 3 --count":
        (0, "240269e94afb4bbc4c643851e366bf4f0d870ff0753d250b854f748cf3516285"),
    "fixed-points --n 3 --threads 4":
        (0, "d21b7f85caafa9f28e4d390b428aa6b408c3fecc3fdfdacc289bd279b11102b8"),
    # All 65,536 collections: 46,530,643 bytes.
    "fixed-points --n 4":
        (0, "15ca082532d9ffe39a2f781a8bce34d9189ce9b4e779a3efac4cd30fcc6a9e7b"),
    "fixed-points --n 4 --count":
        (0, "0f3633c0ecb81f7639c3fe70873b438e74fb8960c68f7c39e6a8eac795e70a32"),
    "discrepancy --n 3 --d 1,3":
        (0, "143ab449ea27abf8659a10f321043168bf568fe64483c037a4e3f8fd38a44b51"),
    "discrepancy --n 3 --d 1,3 --format csv":
        (0, "edf3ecfddc3baa7a670b936f3bec53cf0e2265886dced65a99329198ecaf1f55"),
    "discrepancy --n 3 --d 1,2,3 --format csv":
        (0, "0f1db071ad98249fbe2861c9cb28986075cb79587a0283ffd2909e8a7a593236"),
    "lift --input {flag_123}":
        (0, "e21938831d62be354e964d4e655022bd49760d9a98e62a291c018a90f8942ac0"),
    "lift --input {flag_13}":
        (0, "0b9900001b7789088092839bdbedcfbf68cbf429e1ce15b959d8db250e6d8c93"),
    "lift --input {flag_2}":
        (0, "ebcfad957dd10c1be230278508c2075bce0b9dd7b7f01a79fd4bdc67bbfc14d5"),
    "lift --input {flag4_1234}":
        (0, "d613546c844a1e4cae74909a8c4a27e327db956ee294ecb9184f2dc768ca18ec"),
    "lift --input {flag4_24}":
        (0, "9843a199db8c6f66eb34c4f907d519c8005733d962d690e75d4de0caa719c74b"),
    "lift --input {flag4_24_bad}":
        (1, "3197e94addc12fa6093fd61f548e8f2988c8a7d47fd722e082dfb89a779b03d2"),
    "check-geometry --input {flag4_24_bad}":
        (1, "cbc324be47eb08fbf5b2aab16c2ba576c44c123e5bac5ecb4f66a1652044b4d7"),
    "lift --input {flag_23_incompatible}":
        (1, "3197e94addc12fa6093fd61f548e8f2988c8a7d47fd722e082dfb89a779b03d2"),
    "check-geometry --input {flag_23_incompatible}":
        (1, "0614cd3bb21245246d31803c9534d48d55446ae1564caeb7a36f280eccdebba6"),
    "lift --input {flag4_14_coordinate}":
        (0, "e769cfca542dad9d3b3e756793ecbb2e0e6d02640049079351ea71af511da810"),
    "check-geometry --input {flag4_14_coordinate}":
        (0, "2984a9e52bb744ec622d973bde6344dbc58ad8489e993633c678ab9664594f90"),
    "check-geometry --input {flag_13}":
        (0, "07f9693de52a46481cf6c029ef7fcea08100a336af6336e3ed352d0a11d88813"),
    "abl-verify --n 2 --lambda 1,1 --trials 5 --seed 7 --threads 1":
        (0, "19e560653cc048a95093055f755fe26330f01f2f04f5f75c8f559ed978182c18"),
    "abl-verify --n 2 --lambda 1,1 --trials 5 --seed 7 --threads 2":
        (0, "19e560653cc048a95093055f755fe26330f01f2f04f5f75c8f559ed978182c18"),
    "abl-verify --n 3 --lambda 1,0,1 --trials 2 --seed 3 --threads 1":
        (0, "5e35b32fd11224e20430eac2b324dc92979ae5578a05cb22af77a8ec18f71300"),
    "abl-verify --n 3 --lambda 1,0,1 --trials 2 --seed 3 --threads 2":
        (0, "5e35b32fd11224e20430eac2b324dc92979ae5578a05cb22af77a8ec18f71300"),
    "abl-verify --n 4 --lambda 0,1,0,1 --trials 3 --seed 3":
        (0, "fbece62d0f9d0c04a9252ccf23f68bbb61480bc67e7c9befa42c5a9450a0da3f"),
    # At n >= 3 sample_point draws with replacement: 19 of the 39 points
    # sampled here hit a vanishing denominator and are skipped.
    "abl-verify --n 3 --lambda 1,1,1 --trials 20 --seed 3":
        (0, "1c16ef57059e42972526faae0f75b695c5890dc5d2e9ab8a01915fb4ca95ba80"),
    # The largest push-down of the tests (5,415 terms), and exponents up to 27.
    "abl-verify --n 4 --lambda 1,1,1,1 --trials 3 --seed 3":
        (0, "d47f323467da0371fb953a96085eda9038326fc86f69bb9221fc8e50c0281b32"),
    "abl-verify --n 2 --lambda 9,9 --trials 3 --seed 1":
        (0, "0fc59c0a3f05e3ad7464a88db35785878ef60b84a01e2f8c44a4755732acc373"),
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_stdout_digest(command, tmp_path, capsys):
    argv = []
    for word in command.split():
        if word.startswith("{"):
            path = tmp_path / f"{word.strip('{}')}.json"
            path.write_text(json.dumps(FLAGS[word.strip("{}")]))
            word = str(path)
        argv.append(word)
    rc = run(argv)
    out = capsys.readouterr().out
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[command]


@pytest.mark.parametrize(
    "command",
    ["fixed-points --n 3", "polytope --n 3 --lambda 1,0,1", "qchar --n 4 --lambda 0,1,0,1"],
)
def test_stdout_digest_through_a_pipe(command):
    # The streamed chunks and `main`'s flush, as a process writes them.
    src = os.path.dirname(os.path.dirname(spflag.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "spflag.cli", *command.split()],
        stdout=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()) == GOLDEN[command]


@pytest.mark.parametrize("name", ["flag4_24_bad", "flag_23_incompatible"])
def test_nonmember_lift_error_text(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(FLAGS[name]))
    assert run(["lift", "--input", str(path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"command": "lift", "error": "incompatible constraints at (2,2)"}


# Exit status and stdout of `discrepancy` for every d at n = 4, 5 and 6, in
# JSON and CSV, in the order of `all_d`: 218 commands, `--force` above n = 4.
DISCREPANCY_4_TO_6 = "0599e2aa7b04bfcbeef2de62049460db98d022a17b7a3fedb84f4452c20fa1dd"


def test_discrepancy_digest_every_d_at_n_4_to_6(capsys):
    h = hashlib.sha256()
    for n in (4, 5, 6):
        for d in all_d(n):
            for fmt in ("json", "csv"):
                argv = ["discrepancy", "--n", str(n), "--d", ",".join(map(str, d)), "--format", fmt]
                rc = run(argv + (["--force"] if n > 4 else []))
                h.update(f"{rc}\n".encode() + capsys.readouterr().out.encode())
    assert h.hexdigest() == DISCREPANCY_4_TO_6
