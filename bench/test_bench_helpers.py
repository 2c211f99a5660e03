"""Tests of the benchmark's own helpers: span self time, the Weyl dimension
oracles, tracer patching, host-speed scaling, the generated flag points, and
agreement of BENCHMARK.json with the metrics run.py reports.

    PYTHONPATH=src python3 -m pytest bench/test_bench_helpers.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

from hostspeed import PROBE_REFERENCE_S, HostSpeed  # noqa: E402
from oracles import CheckFailed, check_weyl_invariant, signed_orbit_size, weyl_dim_a, weyl_dim_c  # noqa: E402
from spans import Span, Target, Tracer, self_times, summarize  # noqa: E402


def test_self_time_on_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a: the union 1..6 is covered once
        Span("leaf", 1.5, 2.0, 1),
        Span("late", 9.0, 12.0, 0),  # runs past its parent: clipped at 10
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 0.5, 3, 0.5, 3])


def test_summarize_counts_nested_same_name_once():
    spans = [
        Span("f", 0.0, 4.0, -1),
        Span("f", 1.0, 2.0, 0),
        Span("g", 5.0, 6.0, -1),
    ]
    summary = summarize(spans)
    assert summary["f"] == {"s": 4.0, "self_s": pytest.approx(4.0), "calls": 2}
    assert summary["g"]["s"] == 1.0


def test_weyl_dimension_type_c():
    assert weyl_dim_c((1, 0)) == 4
    assert weyl_dim_c((0, 1)) == 5
    assert weyl_dim_c((1, 1)) == 16
    assert weyl_dim_c((0, 1, 0)) == 14


def test_weyl_dimension_type_a():
    assert weyl_dim_a((3,)) == 4
    assert weyl_dim_a((1, 1)) == 8
    assert weyl_dim_a((0, 1, 0)) == 6


def test_weyl_invariance_check():
    assert signed_orbit_size((1, 0)) == 4
    assert signed_orbit_size((2, 1)) == 8
    check_weyl_invariant({(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1})
    with pytest.raises(CheckFailed):
        check_weyl_invariant({(1, 0): 1, (-1, 0): 1, (0, 1): 1})


def test_host_speed_scale_uses_the_samples_of_the_window():
    host = HostSpeed()
    host.samples = [(1.0, 2 * PROBE_REFERENCE_S), (2.0, 2 * PROBE_REFERENCE_S), (5.0, PROBE_REFERENCE_S)]
    assert host.scale(0.5, 2.5) == pytest.approx(0.5)
    assert host.scale(4.0, 6.0) == pytest.approx(1.0)


def test_host_speed_samples_while_active_and_stops():
    import time

    with HostSpeed() as host:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    count = len(host.samples)
    assert count >= 3 and host.spent > 0
    time.sleep(0.12)
    assert len(host.samples) == count


def test_tracer_patches_every_namespace_and_restores():
    pytest.importorskip("spflag")
    from spflag import fixedpoints, polytope
    from spflag.rootsys import TypeC

    original = polytope.graded_character
    tracer = Tracer([Target("polytope.graded_character"), Target("polytope.no_such_function")])
    tracer.install()
    try:
        assert polytope.graded_character is fixedpoints.graded_character is not original
        polytope.graded_character((1, 0), TypeC(2))  # inactive: no span
        tracer.active = True
        fixedpoints.graded_character((1, 0), TypeC(2))
        tracer.active = False
    finally:
        tracer.uninstall()
    assert polytope.graded_character is fixedpoints.graded_character is original
    assert [s.name for s in tracer.spans] == ["polytope.graded_character"]
    assert tracer.missing == ["polytope.no_such_function"]


def test_benchmark_json_lists_the_reported_metrics():
    import run

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = [*run.LAYER_METRICS, *run.DERIVED_LAYER_METRICS,
                *(f"{c}_s" for c in run.COMMANDS), "trace.overhead_s"]
    assert sorted(layers) == sorted(reported)
    assert all(layers[name] == run.unit_of(name) for name in layers)


def test_generated_flags_are_members_and_non_members_are_not():
    pytest.importorskip("spflag")
    import random

    from spflag import geometry

    from workloads import all_d, non_member, open_cell_flag

    rng = random.Random(0)
    for n in (2, 3):
        for d in all_d(n):
            spaces = open_cell_flag(n, d, rng)
            flag = geometry.FlagPoint(d, tuple(geometry.Subspace.span(m, 2 * n) for m in spaces))
            assert geometry.in_sp_flag_a(flag, n)
            if max(d) >= 2:
                bad = non_member(spaces, n, d, rng)
                flag = geometry.FlagPoint(d, tuple(geometry.Subspace.span(m, 2 * n) for m in bad))
                assert not geometry.in_sp_flag_a(flag, n)
