from __future__ import annotations

import functools
import itertools

import pytest

import qcnet.conflict as conflict
from qcnet import (
    SizeGuardError,
    TrafficPattern,
    build_conflict_graph,
    build_system,
    users_mask,
)

from reference_conflict import reference_graph


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


def test_vertex_cap(monkeypatch):
    sys_ = build_system(2, 2, [(1, {1}), (1, {2})], rx=(1, 1))
    monkeypatch.setattr(conflict, "VERTEX_CAP", 5)
    with pytest.raises(SizeGuardError):
        build_conflict_graph(sys_, TrafficPattern.MULTICAST)


def test_vertex_cap_trips_before_any_allocation():
    # 10**6 units x 2 stored chunks x 3 multicast subsets = 6,000,000 vertices
    sys_ = build_system(2, 2, [(1_000_000, {1, 2})], rx=(1, 1))
    with pytest.raises(SizeGuardError, match="6000000 vertices"):
        build_conflict_graph(sys_, TrafficPattern.MULTICAST)
    assert "stored_pairs" not in sys_.__dict__
    assert "virtual_drives" not in sys_.__dict__


@pytest.mark.parametrize("io", ["finite", "infinite"])
@pytest.mark.parametrize("include_dnt", [False, True])
def test_vertex_cap_counts_exactly(io, include_dnt, monkeypatch):
    sys_ = build_system(3, 2, [(2, {1, 2}), (1, {3}), (1, {1, 3})], rx=(1, 1))
    n = build_conflict_graph(sys_, TrafficPattern.MULTICAST, io=io, include_dnt=include_dnt).num_vertices
    monkeypatch.setattr(conflict, "VERTEX_CAP", n)
    build_conflict_graph(sys_, TrafficPattern.MULTICAST, io=io, include_dnt=include_dnt)
    monkeypatch.setattr(conflict, "VERTEX_CAP", n - 1)
    with pytest.raises(SizeGuardError, match=f"{n} vertices"):
        build_conflict_graph(sys_, TrafficPattern.MULTICAST, io=io, include_dnt=include_dnt)


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


def _layouts(num_chunks: int):
    """Every layout of 1-3 physical drives of 1-2 units with at most three
    virtual drives in total, covering all chunks, one per chunk relabelling."""
    chunks = range(1, num_chunks + 1)
    stores = [frozenset(c) for r in chunks for c in itertools.combinations(chunks, r)]
    seen = set()
    for count in (1, 2, 3):
        for layout in itertools.combinations_with_replacement(itertools.product((1, 2), stores), count):
            if sum(u for u, _ in layout) > 3 or frozenset().union(*(s for _, s in layout)) != set(chunks):
                continue
            key = min(
                tuple(sorted((u, tuple(sorted(perm[i - 1] for i in s))) for u, s in layout))
                for perm in itertools.permutations(chunks)
            )
            if key not in seen:
                seen.add(key)
                yield [(u, set(s)) for u, s in layout]


def _rx_vectors(num_chunks: int, vdrives: int, num_users: int):
    """All-ones, plus every rotation of the accepted budgets among
    {1, T, V, V+1} across the users, so each user meets each budget."""
    budgets = sorted({r for r in (1, num_chunks, vdrives, vdrives + 1) if r == 1 or r >= num_chunks})
    rotations = {tuple(budgets[(j + o) % len(budgets)] for j in range(num_users)) for o in range(len(budgets))}
    return sorted(rotations | {(1,) * num_users})


def _transmit_part(vertices, adjacency):
    # the DNT-off reference is the DNT-on reference without the companions
    keep = [a for a, v in enumerate(vertices) if not v.dnt]
    pos = {a: x for x, a in enumerate(keep)}
    return (
        tuple(vertices[a] for a in keep),
        tuple(frozenset(pos[b] for b in adjacency[a] if b in pos) for a in keep),
    )


def _first_difference(graph, vertices, adjacency) -> str:
    if graph.vertices != vertices:
        return "vertices differ"
    a, b = next(
        (a, b)
        for a in range(len(vertices))
        for b in range(a + 1, len(vertices))
        if graph.are_adjacent(a, b) != (b in adjacency[a])
    )
    return f"{vertices[a].label()} ~ {vertices[b].label()}: oracle says {b in adjacency[a]}"


@functools.lru_cache(maxsize=None)
def _infinite_reference(num_chunks, num_users, rx, pattern):
    # the infinite regime's oracle sees only T, N and rx (its surrogate system)
    sys_ = build_system(num_chunks, num_users, [(1, set(range(1, num_chunks + 1)))], rx=rx)
    return reference_graph(sys_, pattern, "infinite", include_dnt=True)


@pytest.mark.parametrize("num_chunks", [1, 2, 3])
def test_edges_match_mode_oracle_exhaustively(num_chunks):
    # every vertex pair of every small system against the per-pair
    # validate_mode rule: up to 3 users on up to two virtual drives, one
    # user on three; all patterns, both I/O regimes, DNT on and off
    checked = 0
    for drives in _layouts(num_chunks):
        vdrives = sum(u for u, _ in drives)
        for num_users in range(1, (3 if vdrives <= 2 else 1) + 1):
            for rx in _rx_vectors(num_chunks, vdrives, num_users):
                sys_ = build_system(num_chunks, num_users, drives, rx=rx)
                for pattern in TrafficPattern:
                    for io in ("finite", "infinite"):
                        if io == "finite":
                            ref = reference_graph(sys_, pattern, io, include_dnt=True)
                        else:
                            ref = _infinite_reference(num_chunks, num_users, rx, pattern)
                        for dnt, (verts, adj) in ((True, ref), (False, _transmit_part(*ref))):
                            graph = build_conflict_graph(sys_, pattern, io=io, include_dnt=dnt)
                            assert (graph.vertices, graph.adjacency) == (verts, adj), (
                                drives, rx, pattern, io, dnt, _first_difference(graph, verts, adj)
                            )
                            checked += 1
    assert checked > 100
