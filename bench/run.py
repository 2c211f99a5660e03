#!/usr/bin/env python3
"""Benchmark of the spflag command line, run from the root of a source tree.

    python3 bench/run.py --workload characters --seed 1 --seconds 35 --trace 0

Each run starts a fresh worker process that imports spflag from ./src,
writes the workload's input files and then runs whole rounds of CLI
operations, each one call to `spflag.cli.run(argv)` with stdout captured,
until the time is up.  Every output is checked after its timing ends, and
times are scaled to a reference host speed (hostspeed.py).  With `--trace 0`
the last line of stdout is a JSON object with the end-to-end metrics; with
`--trace 1` the worker alternates untraced and traced rounds and reports the
per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_SAMPLES = 7  # setups per run, including the measuring worker's own
RUN_TIMEOUT_S = 170

sys.path.insert(0, HERE)

from hostspeed import PROBE_REFERENCE_S, HostSpeed, probe_median  # noqa: E402
from oracles import CheckFailed, terms_by_weight  # noqa: E402
from spans import Target, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

COMMANDS = [
    "weyl", "qchar", "dim",
    "abl_verify", "abl_verify_threads", "fixed_points",
    "lift", "check_geometry", "discrepancy",
]

# Library functions wrapped in traced rounds.  Besides the spans named by the
# per-layer metrics, the other entry points the CLI calls are wrapped so that
# `cli.run` self time is left with argument parsing and serialization.
TRACED = [
    Target("cli.run"),
    Target("cli._abl_verify_parallel"),
    Target("charring.exact_div", lambda q: len(q.terms)),
    Target("charring.weyl_character"),
    Target("charring.weyl_dimension"),
    Target("charring.LaurentPoly.evaluate"),
    Target("charring.to_json_terms"),
    Target("polytope.dimension"),
    Target("polytope.polytope_spec"),
    Target("polytope.lattice_points", len),
    Target("polytope.graded_character"),
    Target("fixedpoints.abl_verify"),
    Target("fixedpoints.abl_terms"),
    Target("fixedpoints.abl_evaluate"),
    Target("fixedpoints.sample_point"),
    Target("fixedpoints.enumerate_fixed_points", len),
    Target("geometry.rref"),
    Target("geometry.lift"),
    Target("geometry.in_resolution"),
    Target("geometry.in_sp_flag_a"),
    Target("bundles.discrepancy_table"),
    Target("bundles.verify_canonical_identity"),
]

# name -> (span, field) for times and calls, or (span, "count") for counts
# read from return values.
LAYER_METRICS = {
    "cli.run.self_s": ("cli.run", "self_s"),
    "charring.exact_div.s": ("charring.exact_div", "s"),
    "charring.exact_div.calls": ("charring.exact_div", "calls"),
    "charring.exact_div.quotient_terms": ("charring.exact_div", "count"),
    "charring.weyl_character.self_s": ("charring.weyl_character", "self_s"),
    "charring.LaurentPoly.evaluate.s": ("charring.LaurentPoly.evaluate", "s"),
    "charring.to_json_terms.s": ("charring.to_json_terms", "s"),
    "polytope.lattice_points.s": ("polytope.lattice_points", "s"),
    "polytope.lattice_points.points": ("polytope.lattice_points", "count"),
    "polytope.polytope_spec.s": ("polytope.polytope_spec", "s"),
    "polytope.graded_character.self_s": ("polytope.graded_character", "self_s"),
    "fixedpoints.abl_terms.s": ("fixedpoints.abl_terms", "s"),
    "fixedpoints.abl_evaluate.s": ("fixedpoints.abl_evaluate", "s"),
    "fixedpoints.abl_evaluate.calls": ("fixedpoints.abl_evaluate", "calls"),
    "fixedpoints.sample_point.calls": ("fixedpoints.sample_point", "calls"),
    "fixedpoints.enumerate_fixed_points.s": ("fixedpoints.enumerate_fixed_points", "s"),
    "fixedpoints.enumerate_fixed_points.collections": ("fixedpoints.enumerate_fixed_points", "count"),
    "geometry.rref.s": ("geometry.rref", "s"),
    "geometry.rref.calls": ("geometry.rref", "calls"),
    "geometry.lift.self_s": ("geometry.lift", "self_s"),
    "geometry.in_resolution.s": ("geometry.in_resolution", "s"),
    "geometry.in_sp_flag_a.s": ("geometry.in_sp_flag_a", "s"),
    "bundles.discrepancy_table.s": ("bundles.discrepancy_table", "s"),
    "bundles.verify_canonical_identity.s": ("bundles.verify_canonical_identity", "s"),
}

# Per-layer metrics computed from the round rather than read off one span.
DERIVED_LAYER_METRICS = [
    "cli.stdout_bytes",
    "fixedpoints.sample_point.kept",
    "fixedpoints.sample_accept_ratio",
]

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name == "cli.stdout_bytes":
        return "bytes"
    if name == "fixedpoints.sample_accept_ratio":
        return "ratio"
    return "s" if name.endswith(("_s", ".s")) else "count"


# ---------------------------------------------------------------------------
# worker: one fresh process that sets up and measures


class Runner:
    """Runs rounds of operations in this process and records their outcomes."""

    def __init__(self, cli, ops, host: HostSpeed):
        self.cli = cli
        self.ops = ops
        self.host = host
        self.digests: list[bytes | None] = [None] * len(ops)
        self.attempted = 0
        self.errors = 0
        self.wrong = 0
        self.reports: list[str] = []
        self._qchar: dict = {}
        # Checks may leave values here for later checks: the weyl terms for
        # qchar, the --threads 1 report for its --threads 2 twin.
        self.ctx = {"qchar": self.qchar_terms}

    def qchar_terms(self, lam):
        """Graded character terms for the localization check, fetched untimed."""
        if lam not in self._qchar:
            out = io.StringIO()
            with redirect_stdout(out):
                rc = self.cli.run(["qchar", "--n", str(len(lam)), "--lambda", ",".join(map(str, lam))])
            if rc != 0:
                raise CheckFailed(f"qchar for the localization check exited {rc}")
            self._qchar[lam] = terms_by_weight(json.loads(out.getvalue())["terms"])
        return self._qchar[lam]

    def round(self, tracer: Tracer | None) -> dict:
        latency = []
        stdout_bytes = 0
        kept = 0
        if tracer is not None:
            tracer.spans.clear()
            tracer.counts.clear()
            tracer.install()
        start = time.perf_counter()
        try:
            for k, op in enumerate(self.ops):
                out, err = io.StringIO(), io.StringIO()
                exc = None
                with redirect_stdout(out), redirect_stderr(err):
                    if tracer is not None:
                        tracer.active = True
                    probing = self.host.spent
                    t0 = time.perf_counter()
                    try:
                        rc = self.cli.run(list(op.argv))
                    except Exception as e:  # an operation that raises is a failed operation
                        exc = e
                    dt = time.perf_counter() - t0 - (self.host.spent - probing)
                    if tracer is not None:
                        tracer.active = False
                latency.append(dt)
                self.attempted += 1
                text = out.getvalue()
                stdout_bytes += len(text.encode())
                kept += op.points
                self._judge(k, op, text, err.getvalue(), rc if exc is None else exc)
        finally:
            if tracer is not None:
                tracer.uninstall()
        scale = self.host.scale(start, time.perf_counter())
        result = {"traced": tracer is not None, "latency": [dt * scale for dt in latency]}
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, stdout_bytes, kept, scale)
            result["spans"] = [list(s) for s in tracer.spans]
        return result

    def _judge(self, k, op, text, err, rc) -> None:
        if isinstance(rc, Exception):
            self._fail("error", op, "".join(traceback.format_exception(rc)).strip())
            return
        if rc != op.rc or err:
            # Exit 0 or 1 is the program's verdict (1 is a failed verification
            # or a non-member), so the wrong one is a wrong answer.
            kind = "wrong" if rc in (0, 1) and not err else "error"
            self._fail(kind, op, f"exit {rc} (expected {op.rc}); stderr {err.strip()!r}")
            return
        # An output is checked in full the first time; later rounds must
        # reproduce it byte for byte, which also keeps their checks cheap.
        digest = hashlib.blake2b(text.encode(), digest_size=16).digest()
        if self.digests[k] is not None:
            if digest != self.digests[k]:
                self._fail("wrong", op, "output differs from the first round")
            return
        try:
            op.check(text, self.ctx)
        except Exception as e:  # a malformed output fails its check, whatever the parser raised
            why = str(e) if isinstance(e, CheckFailed) else f"malformed output: {e!r}"
            self._fail("wrong", op, why)
            return
        self.digests[k] = digest

    def _fail(self, kind: str, op, why: str) -> None:
        if kind == "error":
            self.errors += 1
        else:
            self.wrong += 1
        if len(self.reports) < 5:
            self.reports.append(f"{kind}: {' '.join(op.argv)}: {why}")


def layer_metrics(tracer: Tracer, stdout_bytes: int, kept: int, scale: float) -> dict:
    """Per-layer metrics of one traced round; times in reference seconds."""
    summary = summarize(tracer.spans)
    out = {}
    for name, (span, field) in LAYER_METRICS.items():
        if field == "count":
            out[name] = tracer.counts.get(span, 0)
        else:
            out[name] = summary.get(span, {}).get(field, 0)
            if field != "calls":
                out[name] *= scale
    out["cli.stdout_bytes"] = stdout_bytes
    sampled = out["fixedpoints.sample_point.calls"]
    out["fixedpoints.sample_point.kept"] = kept
    out["fixedpoints.sample_accept_ratio"] = kept / sampled if sampled else 0.0
    return out


def measure(runner: Runner, seconds: float, trace: bool) -> list[dict]:
    """Whole rounds until `seconds` would be exceeded by one more; with tracing,
    each step is an untraced round followed by a traced one."""
    tracer = Tracer(TRACED) if trace else None
    rounds: list[dict] = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        rounds.append(runner.round(None))
        if tracer is not None:
            rounds.append(runner.round(tracer))
        now = time.monotonic()
        if now - start + (now - t) > seconds:
            break
    if tracer is not None and tracer.missing:
        print(f"note: not in this spflag, so not traced: {', '.join(tracer.missing)}", file=sys.stderr)
    return rounds


def worker(args) -> int:
    sys.path.insert(0, SRC)
    import spflag
    from spflag import cli

    if os.path.dirname(os.path.abspath(spflag.__file__)) != os.path.join(SRC, "spflag"):
        print(f"error: imported spflag from {spflag.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        ops = build(args.workload, args.seed, workdir)
        ready = time.monotonic()
        speed = probe_median()
        if args.role == "setup":
            print(json.dumps({"ready": ready, "probe": speed}))
            return 0
        with HostSpeed() as host:
            runner = Runner(cli, ops, host)
            rounds = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in runner.reports:
        print(line, file=sys.stderr)
    traced = [r for r in rounds if r["traced"]]
    if traced:
        spans_path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "rounds": [r["spans"] for r in traced]}, fh)
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}", file=sys.stderr)
    print(json.dumps({
        "ready": ready,
        "probe": speed,
        "attempted": runner.attempted,
        "failed": runner.errors + runner.wrong,
        "correct": runner.wrong == 0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "classes": [op.cls for op in runner.ops],
        "rounds": [{k: v for k, v in r.items() if k != "spans"} for r in rounds],
    }))
    return 0


# ---------------------------------------------------------------------------
# launcher


def spawn(args, role: str, timeout: float) -> tuple[float, dict]:
    """Start a fresh worker; return its launch time and its JSON result."""
    cmd = [sys.executable, os.path.abspath(__file__), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = {k: v for k, v in os.environ.items() if k != "SPFLAG_SEED"}
    launched = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} process exited {proc.returncode}")
    return launched, json.loads(lines[-1])


def round_sums(rounds: list[dict], classes: list[str]) -> tuple[float, dict[str, float]]:
    """Medians over the rounds of the round's total latency and of each
    command class's share of it."""
    wall = statistics.median(sum(r["latency"]) for r in rounds)
    commands = {}
    for c in COMMANDS:
        picks = [k for k, cls in enumerate(classes) if cls == c]
        commands[f"{c}_s"] = statistics.median(sum(r["latency"][k] for k in picks) for r in rounds)
    return wall, commands


def launch(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "spflag", "cli.py")):
        print(f"error: no spflag sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = []

    def setup_time(launched: float, res: dict) -> float:
        return (res["ready"] - launched) * PROBE_REFERENCE_S / res["probe"]

    def setup_once() -> None:
        setups.append(setup_time(*spawn(args, "setup", deadline - time.monotonic())))

    # Set-up samples are taken before and after the measuring worker, so that
    # they span the run rather than one moment of it.
    try:
        for _ in range(SETUP_SAMPLES // 2):
            setup_once()
        launched, res = spawn(args, "worker", deadline - time.monotonic())
        setups.append(setup_time(launched, res))
        while len(setups) < SETUP_SAMPLES:
            setup_once()
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    plain = [r for r in res["rounds"] if not r["traced"]]
    wall, commands = round_sums(plain, res["classes"])
    if args.trace:
        traced = [r for r in res["rounds"] if r["traced"]]
        metrics = {name: statistics.median_low(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        metrics.update(commands)
        metrics["trace.overhead_s"] = round_sums(traced, res["classes"])[0] - wall
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        for name, value in commands.items():
            if value:
                print(f"{name} {value:.6f} s")
    print(f"rounds {len(plain)} untraced, {len(res['rounds']) - len(plain)} traced; "
          f"setup samples {len(setups)}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0 if res["correct"] else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("launch", "setup", "worker"), default="launch",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.role == "launch":
        return launch(args)
    return worker(args)


if __name__ == "__main__":
    sys.exit(main())
