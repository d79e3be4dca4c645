"""Shows that every output check passes real outputs and rejects a
deliberately wrong answer.

    python3 perfbench/selftest.py

Also runs under pytest when named explicitly:
``python3 -m pytest perfbench/selftest.py``.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import families  # noqa: E402
import tables  # noqa: E402
from harness import NULL  # noqa: E402
from qcnet import (  # noqa: E402
    ClassificationReport,
    TrafficPattern,
    build_conflict_graph,
    build_frame_schedule,
    build_system,
    decompose_rate,
    enumerate_stable_sets,
    flow_incidence,
    is_claw_free,
    is_perfect,
    is_quasi_line,
)

_CELLS = None


def ex6_cells():
    """The 14 ex6 cells (example, row, coded, region), built once."""
    global _CELLS
    if _CELLS is None:
        _CELLS = [c for c in tables.build_cells(NULL, 1) if c[0] == "ex6"]
    return _CELLS


def table_results(cells, volume_of=lambda ex, row, coded, region: region.volume()):
    return [(ex, row, coded, (volume_of(ex, row, coded, region), region)) for ex, row, coded, region in cells]


# --- region-tables -----------------------------------------------------------


def test_region_tables_accepts_real_outputs():
    assert checks.check_region_tables(table_results(ex6_cells())) == []


def test_region_tables_rejects_a_wrong_volume():
    def doubled(ex, row, coded, region):
        v = region.volume()
        return 2 * v if (row, coded) == ("multicast_mpr", True) else v

    errors = checks.check_region_tables(table_results(ex6_cells(), doubled))
    assert any("Qhull" in e for e in errors) and any("published" in e for e in errors)


def test_region_tables_rejects_coded_below_uncoded():
    def swapped(ex, row, coded, region):
        if row != "multiple_unicast":
            return region.volume()
        other = next(r for e, w, c, r in ex6_cells() if w == row and c != coded)
        return other.volume()

    errors = checks.check_region_tables(table_results(ex6_cells(), swapped))
    assert any("coded volume below uncoded" in e for e in errors)


def test_region_tables_rejects_volume_on_a_degenerate_region():
    def nonzero(ex, row, coded, region):
        return Fraction(1, 7) if row == "broadcast" else region.volume()

    errors = checks.check_region_tables(table_results(ex6_cells(), nonzero))
    assert any("degenerate region" in e for e in errors)


# --- rate-queries ------------------------------------------------------------


def _query_fixture():
    cells = ex6_cells()
    regions = {(r, c): reg for _e, r, c, reg in cells}
    upper = regions[("multicast_mpr", True)]
    lower = regions[("multicast_mpr", False)]
    far = max(lower.hull.vertices, key=sum)
    out = tuple(tables.HIGH * x for x in far)
    t = tables.symmetric_boundary(upper)
    target = (t,) * upper.dimension
    queries = [
        ("contains", "upper", upper, far, True),
        ("contains", "out", lower, out, False),
        ("decompose", "frame", upper, target, None),
    ]
    decomp = decompose_rate(upper, target)
    answers = [(True, None), (False, None), (None, (decomp, build_frame_schedule(decomp)))]
    return cells, queries, answers


def test_rate_queries_accepts_real_outputs():
    cells, queries, answers = _query_fixture()
    assert checks.check_rate_queries(cells, queries, answers) == []


def test_rate_queries_rejects_a_flipped_verdict():
    cells, queries, answers = _query_fixture()
    answers[1] = (True, None)
    errors = checks.check_rate_queries(cells, queries, answers)
    assert any("H-representation disagrees" in e for e in errors)


def test_rate_queries_rejects_an_uncoded_vertex_outside_the_coded_region():
    cells, queries, answers = _query_fixture()
    small = next(reg for _e, r, c, reg in cells if (r, c) == ("single_unicast", True))
    cells = [(e, r, c, small if (r, c) == ("multicast_mpr", True) else reg) for e, r, c, reg in cells]
    errors = checks.check_rate_queries(cells, queries[1:2], answers[1:2])
    assert any("outside the coded region" in e for e in errors)


def test_rate_queries_rejects_wrong_weights_and_frames():
    cells, queries, answers = _query_fixture()
    decomp, frame = answers[2][1]
    phis = list(decomp.phis)
    first = next(i for i, p in enumerate(phis) if p > 0)
    moved = replace(decomp, phis=tuple(phis[:first] + [phis[first] / 2] + phis[first + 1 :]))
    negative = replace(decomp, phis=tuple([-p if i == first else p for i, p in enumerate(phis)]))
    short = replace(frame, slots=frame.slots[:-1] + (0,))
    for bad, message in ((moved, "miss the target"), (negative, "negative weight")):
        errors = checks.check_rate_queries(cells, queries[2:], [(None, (bad, frame))])
        assert any(message in e for e in errors), message
    errors = checks.check_rate_queries(cells, queries[2:], [(None, (decomp, short))])
    assert any("slots != phi*F" in e for e in errors)


# --- queue-sim ---------------------------------------------------------------


def _sim_fixture():
    rates = (Fraction(19, 40), Fraction(19, 40))
    arrived = [int(a) for a in checks.drawn_arrivals(rates, 5, 1000)]
    spec = ("case", "frame", Fraction(19, 20), rates, 5)
    return [spec], [((True, 3, tuple(a - 1 for a in arrived), (1, 1)), None)]


def test_queue_sim_accepts_consistent_outputs():
    specs, answers = _sim_fixture()
    assert checks.check_queue_sim(specs, answers, 1000) == []


def test_queue_sim_rejects_wrong_verdict_and_lost_requests():
    specs, answers = _sim_fixture()
    (stable, backlog, served, final), _ = answers[0]
    errors = checks.check_queue_sim(specs, [((False, backlog, served, final), None)], 1000)
    assert any("judged unstable" in e for e in errors)
    errors = checks.check_queue_sim(specs, [((stable, backlog, served, (0, 1)), None)], 1000)
    assert any("served + queued != arrivals" in e for e in errors)


# --- graph-families ----------------------------------------------------------


def _family_fixture(pattern=TrafficPattern.MULTICAST):
    system = build_system(3, 3, [(1, {1}), (1, {2}), (1, {3})], rx=(1, 1, 1))
    graph = build_conflict_graph(system, pattern)
    claw_free, claw = is_claw_free(graph)
    quasi_line, ql = is_quasi_line(graph)
    perfect, hole = is_perfect(graph)
    report = ClassificationReport(claw_free, claw, quasi_line, ql, perfect, hole, None)
    family = enumerate_stable_sets(graph)
    return system, pattern, graph, report, family, flow_incidence(family)


def test_graph_families_accepts_real_outputs():
    system, pattern, graph, report, family, incidence = _family_fixture()
    assert checks.check_classification(graph, report, 24) == []
    assert checks.check_family(graph, family, incidence) == []
    assert checks.check_modes(system, pattern, graph, family) == []


def test_graph_families_rejects_wrong_families():
    system, pattern, graph, _report, family, incidence = _family_fixture()
    fewer = replace(family, sets=family.sets[:-1])
    assert any("recount gives" in e for e in checks.check_family(graph, fewer, incidence))
    assert any("valid modes" in e for e in checks.check_modes(system, pattern, graph, fewer))
    a, b = next(iter(graph.edges()))
    joined = replace(family, sets=family.sets[:-1] + ((a, b),))
    assert any("not independent" in e for e in checks.check_family(graph, joined, incidence))
    flow = incidence.flows[0]
    vec = incidence.per_flow[flow]
    per_flow = dict(incidence.per_flow, **{}) | {flow: (vec[0] + 1,) + vec[1:]}
    bumped = replace(incidence, per_flow=per_flow)
    assert any("incidence differs" in e for e in checks.check_family(graph, family, bumped))


def test_graph_families_rejects_wrong_classification():
    _s, _p, graph, report, _f, _i = _family_fixture()
    assert report.claw_free is False and report.perfect is False
    c, a, b, d = report.claw_witness
    bad_claw = replace(report, claw_witness=(a, c, b, d))
    assert any("not a claw" in e for e in checks.check_classification(graph, bad_claw, 24))
    no_claw = replace(report, claw_free=True, claw_witness=None)
    assert any("recount finds claw" in e for e in checks.check_classification(graph, no_claw, 24))
    ql_flip = replace(report, quasi_line=not report.quasi_line, quasi_line_witness=None)
    assert any("quasi_line=" in e for e in checks.check_classification(graph, ql_flip, 24))
    kind, cycle = report.perfect_witness
    bad_hole = replace(report, perfect_witness=(kind, cycle[:-1]))
    assert any("odd (anti)hole" in e for e in checks.check_classification(graph, bad_hole, 24))


def test_pairwise_reception_marks_the_mode_gap():
    """rx = T below the drive count: stable sets outnumber valid modes."""
    pattern = TrafficPattern.MULTICAST
    system = build_system(2, 3, [(1, {1, 2}), (1, {1}), (1, {2})], rx=(2, 2, 2))
    graph = build_conflict_graph(system, pattern)
    family = enumerate_stable_sets(graph)
    assert not families.pairwise_reception(system)
    assert checks.check_modes(system, pattern, graph, family) != []


def main() -> int:
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_") and callable(f)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} of {len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
