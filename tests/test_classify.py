from __future__ import annotations

import itertools
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_classify
from qcnet import (
    TrafficPattern,
    build_conflict_graph,
    build_system,
    find_net,
    is_claw_free,
    is_perfect,
    is_quasi_line,
)
from qcnet.classify import classify
from qcnet.conflict import ConflictGraph, Vertex


def graph_from_edges(n: int, edges) -> ConflictGraph:
    masks = [0] * n
    for a, b in edges:
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return ConflictGraph(
        vertices=tuple(Vertex(i + 1, 1, 1) for i in range(n)),
        masks=tuple(masks),
        pattern=TrafficPattern.MULTICAST,
        io_regime="finite",
        system_hash="synthetic",
    )


def test_k13_is_the_claw():
    g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    ok, witness = is_claw_free(g)
    assert not ok
    assert witness == (0, 1, 2, 3)


def test_two_triangles_are_claw_free():
    g = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    ok, witness = is_claw_free(g)
    assert ok and witness is None


def test_multicast_three_by_three_has_claw():
    sys_ = build_system(3, 3, [(1, {1}), (1, {2}), (1, {3})], rx=(1, 1, 1))
    g = build_conflict_graph(sys_, TrafficPattern.MULTICAST)
    ok, witness = is_claw_free(g)
    assert not ok
    center, a, b, c = witness
    assert g.are_adjacent(center, a) and g.are_adjacent(center, b) and g.are_adjacent(center, c)
    assert not g.are_adjacent(a, b) and not g.are_adjacent(a, c) and not g.are_adjacent(b, c)


def test_quasi_line_accepts_disjoint_cliques():
    g = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    ok, witness = is_quasi_line(g)
    assert ok and witness is None


def test_quasi_line_rejects_claw():
    g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    ok, witness = is_quasi_line(g)
    assert not ok
    assert witness == 0


def test_multiple_unicast_graph_is_quasi_line(ex7_system):
    g = build_conflict_graph(ex7_system, TrafficPattern.MULTIPLE_UNICAST)
    ok, _ = is_quasi_line(g)
    assert ok


def test_mpr_graph_is_quasi_line():
    sys_ = build_system(3, 2, [(1, {1, 2}), (1, {2, 3})], rx=(3, 3))
    g = build_conflict_graph(sys_, TrafficPattern.MULTICAST)
    ok, _ = is_quasi_line(g)
    assert ok


def test_c5_is_imperfect():
    g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    verdict, witness = is_perfect(g)
    assert verdict is False
    kind, cycle = witness
    assert kind == "odd_hole" and len(cycle) == 5


def test_two_triangles_are_perfect():
    g = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    verdict, witness = is_perfect(g)
    assert verdict is True and witness is None


def test_single_unicast_clique_is_perfect(ex6_system):
    g = build_conflict_graph(ex6_system, TrafficPattern.SINGLE_UNICAST)
    verdict, _ = is_perfect(g)
    assert verdict is True
    assert g.num_edges == g.num_vertices * (g.num_vertices - 1) // 2


def test_perfect_cap_reports_unknown(monkeypatch):
    g = graph_from_edges(6, [(0, 1)])
    monkeypatch.setattr("qcnet.classify.PERFECT_CAP", 5)
    verdict, witness = is_perfect(g)
    assert verdict is None and witness is None


def test_antihole_detection():
    # complement of C7 contains no odd hole but is an odd antihole itself
    c7 = [(i, (i + 1) % 7) for i in range(7)]
    holes = {frozenset(e) for e in c7}
    comp = [(a, b) for a in range(7) for b in range(a + 1, 7) if frozenset((a, b)) not in holes]
    g = graph_from_edges(7, comp)
    verdict, witness = is_perfect(g)
    assert verdict is False
    assert witness[0] == "odd_antihole"


def test_net_found_with_dnt_vertices():
    sys_ = build_system(3, 1, [(1, {1, 2, 3})], rx=(1,))
    g = build_conflict_graph(sys_, TrafficPattern.BROADCAST, io="infinite", include_dnt=True)
    witness = find_net(g)
    assert witness is not None
    a, b, c, pa, pb, pc = witness
    assert g.are_adjacent(a, b) and g.are_adjacent(b, c) and g.are_adjacent(a, c)
    for pend, owner, others in ((pa, a, (b, c)), (pb, b, (a, c)), (pc, c, (a, b))):
        assert g.are_adjacent(pend, owner)
        assert not any(g.are_adjacent(pend, o) for o in others)
    assert not g.are_adjacent(pa, pb) and not g.are_adjacent(pa, pc) and not g.are_adjacent(pb, pc)


def test_no_net_without_dnt_vertices():
    sys_ = build_system(3, 1, [(1, {1, 2, 3})], rx=(1,))
    g = build_conflict_graph(sys_, TrafficPattern.BROADCAST, io="infinite")
    assert find_net(g) is None


def test_bare_triangle_has_no_net():
    g = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert find_net(g) is None


def test_classify_report_consistency(ex6_system):
    g = build_conflict_graph(ex6_system, TrafficPattern.MULTIPLE_UNICAST)
    report = classify(g)
    assert report.quasi_line and report.claw_free
    assert report.perfect is True
    assert report.net_witness is None
    text = report.as_text(g)
    assert "quasi_line\ttrue" in text


def test_import_leaves_networkx_and_scipy_unloaded():
    # the classifiers and the stable-set search use neither; scipy is
    # imported where it is used, by the exact hull
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import qcnet; "
        "from qcnet.classify import classify; "
        "g = qcnet.build_conflict_graph(qcnet.build_system(2, 2, [(1, {1}), (1, {2})], rx=(1, 1)), "
        "qcnet.TrafficPattern.MULTICAST); "
        "assert classify(g).perfect is not None; qcnet.enumerate_stable_sets(g); "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'networkx', 'scipy'}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@st.composite
def random_graphs(draw, max_vertices=24):
    """Graphs of mixed density.  Half carry a planted induced ring, an odd
    hole when its length is odd, on a sparse rest; half are complemented,
    so that odd antiholes without odd holes turn up as well."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    rnd = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    plant = n >= 5 and draw(st.booleans())
    density = 0.05 if plant else draw(st.sampled_from((0.15, 0.3, 0.5, 0.7, 0.85)))
    edges = {e for e in itertools.combinations(range(n), 2) if rnd.random() < density}
    if plant:
        ring = rnd.sample(range(n), rnd.randint(5, n))
        edges = {e for e in edges if not set(e) <= set(ring)}
        edges |= {tuple(sorted((ring[i - 1], ring[i]))) for i in range(len(ring))}
    if draw(st.booleans()):
        edges = set(itertools.combinations(range(n), 2)) - edges
    return graph_from_edges(n, edges)


def _is_canonical_odd_hole(graph, kind, cycle) -> bool:
    """An induced odd cycle of length >= 5 in the graph (odd_hole) or its
    complement (odd_antihole), from its lowest vertex toward the smaller
    of that vertex's two neighbours."""
    n = len(cycle)
    if n < 5 or n % 2 == 0 or len(set(cycle)) != n:
        return False
    if cycle[0] != min(cycle) or cycle[1] > cycle[-1]:
        return False
    for i, j in itertools.combinations(range(n), 2):
        joined = graph.are_adjacent(cycle[i], cycle[j]) == (kind == "odd_hole")
        if joined != (j - i in (1, n - 1)):
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(random_graphs())
def test_classifiers_match_pairwise_reference(graph):
    assert is_claw_free(graph) == reference_classify.is_claw_free(graph)
    assert is_quasi_line(graph) == reference_classify.is_quasi_line(graph)
    assert find_net(graph) == reference_classify.find_net(graph)
    verdict, witness = is_perfect(graph)
    assert verdict == reference_classify.is_perfect(graph)
    assert (witness is None) == verdict
    if witness is not None:
        assert _is_canonical_odd_hole(graph, *witness), witness


@pytest.mark.parametrize(
    "order, complemented, expected",
    [
        ((3, 0, 4, 1, 2), False, ("odd_hole", (0, 3, 2, 1, 4))),
        ((5, 2, 6, 0, 3, 1, 4), True, ("odd_antihole", (0, 3, 1, 4, 5, 2, 6))),
    ],
)
def test_perfection_witness_starts_low_toward_smaller_neighbour(order, complemented, expected):
    n = len(order)
    ring = {frozenset((order[i], order[(i + 1) % n])) for i in range(n)}
    edges = [e for e in itertools.combinations(range(n), 2) if (frozenset(e) in ring) != complemented]
    assert is_perfect(graph_from_edges(n, edges)) == (False, expected)


def test_multicast_graph_of_2016_vertices_builds_and_classifies_in_budget():
    # four 2-unit drives storing all 4 chunks, 6 users: 1.76M edges
    sys_ = build_system(4, 6, [(2, {1, 2, 3, 4})] * 4, rx=(1,) * 6)
    start = time.perf_counter()
    g = build_conflict_graph(sys_, TrafficPattern.MULTICAST)
    report = classify(g)
    net = find_net(g)
    assert time.perf_counter() - start < 10
    assert g.num_vertices == 2016
    assert report.claw_witness == (2, 3, 63, 127)
    assert report.quasi_line_witness == 2
    assert report.perfect is None
    assert net == (0, 1, 3, 63, 127, 192)
