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
    assert fam.incidence_vector(5) == (1, 1, 0, 0)


def test_every_listed_set_is_independent(ex6_system):
    g = build_conflict_graph(ex6_system, TrafficPattern.MULTICAST)
    fam = enumerate_stable_sets(g)
    assert all(g.is_independent(s) for s in fam.sets)
    assert len(set(fam.sets)) == fam.size


def test_incidence_vectors_ex1(ex1_multicast_region):
    inc = ex1_multicast_region.incidence
    assert inc.flows == ((1, 1), (1, 2))
    assert inc.per_flow[(1, 1)] == (1, 0, 1)
    assert inc.per_flow[(1, 2)] == (0, 1, 1)
    assert inc.per_link[(1, 1, 1)] == (1, 0, 1)
    assert inc.per_link[(1, 1, 2)] == (0, 1, 1)


def test_incidence_vectors_ex5(ex4_system):
    coded = coded_mpr_pair(ex4_system)
    g = build_conflict_graph(coded, TrafficPattern.MULTICAST)
    inc = flow_incidence(enumerate_stable_sets(g))
    assert inc.per_flow[(1, 1)] == (1, 1, 0, 0, 2, 1, 1, 0)
    assert inc.per_flow[(2, 1)] == (0, 0, 1, 1, 0, 1, 1, 2)
    assert inc.per_link[(1, 1, 1)] == (1, 0, 0, 0, 1, 1, 0, 0)
    assert inc.per_link[(1, 2, 1)] == (0, 1, 0, 0, 1, 0, 1, 0)
    assert inc.per_link[(2, 1, 1)] == (0, 0, 1, 0, 0, 0, 1, 1)
    assert inc.per_link[(2, 2, 1)] == (0, 0, 0, 1, 0, 1, 0, 1)


def test_broadcast_single_vertex_serves_both_flows(ex1_system):
    g = build_conflict_graph(ex1_system, TrafficPattern.BROADCAST)
    inc = flow_incidence(enumerate_stable_sets(g))
    assert inc.per_flow[(1, 1)] == (1,)
    assert inc.per_flow[(1, 2)] == (1,)


def test_aggregation_linearity(ex7_system):
    g = build_conflict_graph(ex7_system, TrafficPattern.MULTICAST)
    inc = flow_incidence(enumerate_stable_sets(g))
    for (i, j), vec in inc.per_flow.items():
        summed = [0] * inc.family.size
        for (ii, k, jj), link_vec in inc.per_link.items():
            if ii == i and jj == j:
                summed = [a + b for a, b in zip(summed, link_vec)]
        assert tuple(summed) == vec
