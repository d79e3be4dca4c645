from __future__ import annotations

import pytest

import qcnet.stableset as stableset
from qcnet import (
    SizeGuardError,
    TrafficPattern,
    build_conflict_graph,
    build_system,
    coded_transform,
    enumerate_stable_sets,
    flow_incidence,
    striped_layout,
)
from qcnet.conflict import ConflictGraph, Vertex

from test_classify import graph_from_edges


def link_vector(family, chunk, drive, user) -> tuple[int, ...]:
    """Per stable set, 1 when it holds the vertex serving the (chunk, drive,
    user) link, recounted from ``family.sets``."""
    vertices = family.graph.vertices
    return tuple(
        int(any((v.chunk, v.drive) == (chunk, drive) and not v.dnt and v.users >> (user - 1) & 1
                for v in (vertices[i] for i in members)))
        for members in family.sets
    )


def independent(graph, members) -> bool:
    return not any(graph.are_adjacent(a, b) for x, a in enumerate(members) for b in members[x + 1:])


def coded_mpr_pair(ex4_system):
    layout = striped_layout(ex4_system)
    coded, _ = coded_transform(ex4_system, layout)
    return coded


def test_triangle_has_three_stable_sets(ex1_multicast_region):
    assert ex1_multicast_region.family.size == 3


def test_edgeless_counts():
    g = graph_from_edges(10, [])
    fam = enumerate_stable_sets(g)
    assert fam.size == 2**10 - 1


def test_enumeration_guard(monkeypatch):
    g = graph_from_edges(20, [])
    monkeypatch.setattr(stableset, "STABLE_SET_FAMILY_GUARD", 1000)
    with pytest.raises(SizeGuardError):
        enumerate_stable_sets(g)


def test_canonical_order_matches_worked_coded_example(ex4_system):
    coded = coded_mpr_pair(ex4_system)
    g = build_conflict_graph(coded, TrafficPattern.MULTICAST)
    fam = enumerate_stable_sets(g)
    assert fam.size == 8
    assert fam.sets == ((0,), (1,), (2,), (3,), (0, 1), (0, 3), (1, 2), (2, 3))


def test_every_listed_set_is_independent(ex6_system):
    g = build_conflict_graph(ex6_system, TrafficPattern.MULTICAST)
    fam = enumerate_stable_sets(g)
    assert all(independent(g, s) for s in fam.sets)
    assert len(set(fam.sets)) == fam.size


def test_incidence_vectors_ex1(ex1_multicast_region):
    fam = ex1_multicast_region.family
    inc = flow_incidence(fam)
    assert inc.flows == ((1, 1), (1, 2))
    assert inc.per_flow[(1, 1)] == (1, 0, 1)
    assert inc.per_flow[(1, 2)] == (0, 1, 1)
    assert link_vector(fam, 1, 1, 1) == (1, 0, 1)
    assert link_vector(fam, 1, 1, 2) == (0, 1, 1)


def test_incidence_vectors_ex5(ex4_system):
    coded = coded_mpr_pair(ex4_system)
    g = build_conflict_graph(coded, TrafficPattern.MULTICAST)
    fam = enumerate_stable_sets(g)
    inc = flow_incidence(fam)
    assert inc.per_flow[(1, 1)] == (1, 1, 0, 0, 2, 1, 1, 0)
    assert inc.per_flow[(2, 1)] == (0, 0, 1, 1, 0, 1, 1, 2)
    assert link_vector(fam, 1, 1, 1) == (1, 0, 0, 0, 1, 1, 0, 0)
    assert link_vector(fam, 1, 2, 1) == (0, 1, 0, 0, 1, 0, 1, 0)
    assert link_vector(fam, 2, 1, 1) == (0, 0, 1, 0, 0, 0, 1, 1)
    assert link_vector(fam, 2, 2, 1) == (0, 0, 0, 1, 0, 1, 0, 1)


def test_broadcast_single_vertex_serves_both_flows(ex1_system):
    g = build_conflict_graph(ex1_system, TrafficPattern.BROADCAST)
    inc = flow_incidence(enumerate_stable_sets(g))
    assert inc.per_flow[(1, 1)] == (1,)
    assert inc.per_flow[(1, 2)] == (1,)
