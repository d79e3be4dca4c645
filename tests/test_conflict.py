from __future__ import annotations

import pytest

from qcnet import (
    SizeGuardError,
    TrafficPattern,
    build_conflict_graph,
    build_system,
    users_mask,
)


def find(graph, chunk, drive, users):
    mask = users_mask(users)
    for idx, v in enumerate(graph.vertices):
        if (v.chunk, v.drive, v.users, v.dnt) == (chunk, drive, mask, False):
            return idx
    raise AssertionError(f"vertex ({chunk},{drive},{users}) missing")


def test_ex1_multicast_triangle(ex1_system):
    g = build_conflict_graph(ex1_system, TrafficPattern.MULTICAST)
    assert g.num_vertices == 3
    assert g.num_edges == 3


def test_two_drive_multicast_matches_known_edges(ex6_system):
    g = build_conflict_graph(ex6_system, TrafficPattern.MULTICAST)
    assert g.num_vertices == 6
    assert g.num_edges == 13
    # the only compatible pairs serve distinct users from distinct drives
    a = find(g, 1, 1, {1})
    b = find(g, 2, 2, {2})
    c = find(g, 1, 1, {2})
    d = find(g, 2, 2, {1})
    assert not g.are_adjacent(a, b)
    assert not g.are_adjacent(c, d)


def test_mpr_yields_disjoint_per_drive_triangles():
    sys_ = build_system(2, 2, [(1, {1}), (1, {2})], rx=(2, 2))
    g = build_conflict_graph(sys_, TrafficPattern.MULTICAST)
    assert g.num_edges == 6
    for a, b in g.edges():
        assert g.vertices[a].drive == g.vertices[b].drive


def test_broadcast_graph_is_single_clique(ex7_system):
    g = build_conflict_graph(ex7_system, TrafficPattern.BROADCAST)
    n = g.num_vertices
    assert n == 3
    assert g.num_edges == n * (n - 1) // 2


def test_same_drive_same_chunk_vertices_conflict(ex1_system):
    # two fan-out states of one read never coexist
    g = build_conflict_graph(ex1_system, TrafficPattern.MULTICAST)
    a = find(g, 1, 1, {1})
    b = find(g, 1, 1, {2})
    assert g.are_adjacent(a, b)


def test_infinite_io_drops_drives_and_dedupes():
    sys_ = build_system(2, 2, [(1, {1, 2}), (1, {1, 2})], rx=(1, 1))
    fin = build_conflict_graph(sys_, TrafficPattern.MULTIPLE_UNICAST)
    inf = build_conflict_graph(sys_, TrafficPattern.MULTIPLE_UNICAST, io="infinite")
    assert fin.num_vertices == 8
    assert inf.num_vertices == 4
    assert all(v.drive is None for v in inf.vertices)


def test_infinite_io_same_chunk_conflicts():
    sys_ = build_system(2, 2, [(1, {1, 2})], rx=(2, 2))
    g = build_conflict_graph(sys_, TrafficPattern.MULTIPLE_UNICAST, io="infinite")
    for a, b in g.edges():
        assert g.vertices[a].chunk == g.vertices[b].chunk


def test_vertex_cap():
    sys_ = build_system(2, 2, [(1, {1}), (1, {2})], rx=(1, 1))
    with pytest.raises(SizeGuardError):
        build_conflict_graph(sys_, TrafficPattern.MULTICAST, vertex_cap=5)


def test_vertex_cap_trips_before_any_allocation():
    # 10**6 units x 2 stored chunks x 3 multicast subsets = 6,000,000 vertices
    sys_ = build_system(2, 2, [(1_000_000, {1, 2})], rx=(1, 1))
    with pytest.raises(SizeGuardError, match="6000000 vertices"):
        build_conflict_graph(sys_, TrafficPattern.MULTICAST)
    assert "stored_pairs" not in sys_.__dict__
    assert "virtual_drives" not in sys_.__dict__


@pytest.mark.parametrize("io", ["finite", "infinite"])
@pytest.mark.parametrize("include_dnt", [False, True])
def test_vertex_cap_counts_exactly(io, include_dnt):
    sys_ = build_system(3, 2, [(2, {1, 2}), (1, {3}), (1, {1, 3})], rx=(1, 1))
    n = build_conflict_graph(sys_, TrafficPattern.MULTICAST, io=io, include_dnt=include_dnt).num_vertices
    build_conflict_graph(sys_, TrafficPattern.MULTICAST, io=io, include_dnt=include_dnt, vertex_cap=n)
    with pytest.raises(SizeGuardError, match=f"{n} vertices"):
        build_conflict_graph(sys_, TrafficPattern.MULTICAST, io=io, include_dnt=include_dnt, vertex_cap=n - 1)


def test_composite_vertex_union(ex6_system):
    g = build_conflict_graph(ex6_system, TrafficPattern.BROADCAST_OR_SINGLE_UNICAST)
    masks = {v.users for v in g.vertices}
    assert masks == {0b01, 0b10, 0b11}
    # the composite graph is one clique: no two states coexist
    n = g.num_vertices
    assert g.num_edges == n * (n - 1) // 2


def test_determinism(ex6_system):
    g1 = build_conflict_graph(ex6_system, TrafficPattern.MULTICAST)
    g2 = build_conflict_graph(ex6_system, TrafficPattern.MULTICAST)
    assert g1.vertices == g2.vertices
    assert g1.adjacency == g2.adjacency
    assert g1.system_hash == g2.system_hash


def test_dnt_companions_are_pendant(ex1_system):
    g = build_conflict_graph(ex1_system, TrafficPattern.BROADCAST, include_dnt=True)
    companions = [i for i, v in enumerate(g.vertices) if v.dnt]
    assert len(companions) == 1
    (c,) = companions
    assert len(g.adjacency[c]) == 1


def test_export_formats(ex1_system):
    g = build_conflict_graph(ex1_system, TrafficPattern.MULTICAST)
    adj = g.adjacency_text()
    assert adj.startswith("v_1_1_1:")
    edges = g.edge_list_text()
    assert "v_1_1_1 v_1_1_2" in edges
