from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from qcnet import (
    TrafficPattern,
    build_conflict_graph,
    build_system,
    classify,
    find_net,
    is_claw_free,
    is_perfect,
    is_quasi_line,
)
from qcnet.conflict import ConflictGraph, Vertex


def graph_from_edges(n: int, edges) -> ConflictGraph:
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return ConflictGraph(
        vertices=tuple(Vertex(i + 1, 1, 1) for i in range(n)),
        adjacency=tuple(frozenset(s) for s in adj),
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


def test_perfect_cap_reports_unknown():
    g = graph_from_edges(6, [(0, 1)])
    verdict, witness = is_perfect(g, cap=5)
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
    # both are imported where they are used: is_perfect, the exact hull
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import qcnet; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'networkx', 'scipy'}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
