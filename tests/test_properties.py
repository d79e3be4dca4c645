from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qcnet import (
    KnowledgeState,
    Mode,
    TrafficPattern,
    build_conflict_graph,
    build_system,
    enumerate_stable_sets,
    enumerate_valid_modes,
    flow_incidence,
    is_claw_free,
    is_perfect,
    is_quasi_line,
    rate_region,
    validate_mode,
)
from qcnet.conflict import ConflictGraph, Vertex

ALL_ONES = KnowledgeState.all_innovative()


@st.composite
def small_graphs(draw, max_vertices=9):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    masks = [0] * n
    for (a, b), on in zip(pairs, flags):
        if on:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
    return ConflictGraph(
        vertices=tuple(Vertex(i + 1, 1, 1) for i in range(n)),
        masks=tuple(masks),
        pattern=TrafficPattern.MULTICAST,
        io_regime="finite",
        system_hash="hypothesis",
    )


@st.composite
def small_systems(draw):
    num_chunks = draw(st.integers(min_value=1, max_value=3))
    num_users = draw(st.integers(min_value=1, max_value=3))
    num_drives = draw(st.integers(min_value=1, max_value=2))
    chunk_ids = list(range(1, num_chunks + 1))
    drives = []
    for _ in range(num_drives):
        units = draw(st.integers(min_value=1, max_value=2))
        stores = set(
            draw(
                st.lists(
                    st.sampled_from(chunk_ids), min_size=1, max_size=num_chunks, unique=True
                )
            )
        )
        drives.append((units, stores))
    covered = set().union(*(d[1] for d in drives))
    drives[0] = (drives[0][0], drives[0][1] | (set(chunk_ids) - covered))
    total_units = sum(d[0] for d in drives)
    rx = draw(st.sampled_from([1, max(num_chunks, total_units)]))
    return build_system(num_chunks, num_users, drives, rx=(rx,) * num_users)


def brute_force_perfect(graph: ConflictGraph) -> bool:
    """Subset-enumeration oracle for the odd hole / antihole search."""

    def has_odd_hole(adjacent) -> bool:
        n = graph.num_vertices
        for size in range(5, n + 1, 2):
            for subset in itertools.combinations(range(n), size):
                degs = {
                    v: sum(1 for w in subset if w != v and adjacent(v, w)) for v in subset
                }
                if any(d != 2 for d in degs.values()):
                    continue
                # connected 2-regular induced subgraph = induced cycle
                seen = {subset[0]}
                frontier = [subset[0]]
                while frontier:
                    v = frontier.pop()
                    for w in subset:
                        if w not in seen and adjacent(v, w):
                            seen.add(w)
                            frontier.append(w)
                if len(seen) == size:
                    return True
        return False

    in_g = graph.are_adjacent
    return not has_odd_hole(in_g) and not has_odd_hole(lambda a, b: a != b and not in_g(a, b))


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_perfect_matches_brute_force(graph):
    verdict, witness = is_perfect(graph)
    assert verdict is not None
    assert verdict == brute_force_perfect(graph)
    if witness is not None:
        kind, cycle = witness
        adj = graph.are_adjacent if kind == "odd_hole" else (
            lambda a, b: a != b and not graph.are_adjacent(a, b)
        )
        assert len(cycle) >= 5 and len(cycle) % 2 == 1
        for idx, v in enumerate(cycle):
            assert adj(v, cycle[(idx + 1) % len(cycle)])


@settings(max_examples=80, deadline=None)
@given(small_graphs())
def test_quasi_line_implies_claw_free(graph):
    ql, _ = is_quasi_line(graph)
    cf, _ = is_claw_free(graph)
    if ql:
        assert cf


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_vertices=7))
def test_claw_witness_is_induced(graph):
    ok, witness = is_claw_free(graph)
    if not ok:
        center, a, b, c = witness
        assert all(graph.are_adjacent(center, x) for x in (a, b, c))
        assert not graph.are_adjacent(a, b)
        assert not graph.are_adjacent(a, c)
        assert not graph.are_adjacent(b, c)


def _mode_of(graph, members) -> Mode:
    deliveries = frozenset().union(*(graph.vertices[v].deliveries() for v in members))
    return Mode(deliveries)


@settings(max_examples=40, deadline=None)
@given(small_systems(), st.sampled_from(list(TrafficPattern)))
def test_stable_sets_biject_with_modes(sys_, pattern):
    if len(sys_.stored_pairs) * (2**sys_.num_users - 1) > 32:
        return
    if sys_.num_users * sum(len(f) for f in sys_.virtual_drives) > 24:
        return
    graph = build_conflict_graph(sys_, pattern)
    family = enumerate_stable_sets(graph)
    modes = enumerate_valid_modes(sys_, ALL_ONES, pattern)
    mapped = {_mode_of(graph, s).deliveries for s in family.sets}
    assert len(mapped) == family.size
    assert mapped == {m.deliveries for m in modes}


@settings(max_examples=40, deadline=None)
@given(small_systems())
def test_pattern_monotonicity(sys_):
    if sys_.num_users * sum(len(f) for f in sys_.virtual_drives) > 24:
        return
    sets = {}
    for pattern in (
        TrafficPattern.SINGLE_UNICAST,
        TrafficPattern.MULTIPLE_UNICAST,
        TrafficPattern.MULTICAST,
    ):
        sets[pattern] = {
            m.deliveries for m in enumerate_valid_modes(sys_, ALL_ONES, pattern)
        }
    assert sets[TrafficPattern.SINGLE_UNICAST] <= sets[TrafficPattern.MULTIPLE_UNICAST]
    assert sets[TrafficPattern.MULTIPLE_UNICAST] <= sets[TrafficPattern.MULTICAST]


@settings(max_examples=25, deadline=None)
@given(small_systems(), st.randoms(use_true_random=False))
def test_membership_agrees_with_h_representation(sys_, rnd):
    if len(sys_.stored_pairs) * sys_.num_users > 12:
        return
    graph = build_conflict_graph(sys_, TrafficPattern.MULTIPLE_UNICAST)
    region = rate_region(graph)
    if region.dimension > 6:
        return
    hull = region.hull
    for _ in range(10):
        point = tuple(Fraction(rnd.randint(0, 6), 4) for _ in range(region.dimension))
        by_lp = region.contains(point)
        on_hull = all(
            sum(Fraction(a) * x for a, x in zip(normal, point)) <= b
            for normal, b in hull.facets
        ) and all(
            sum(Fraction(a) * x for a, x in zip(normal, point)) == b
            for normal, b in hull.equalities
        )
        assert by_lp == on_hull


@settings(max_examples=30, deadline=None)
@given(small_systems(), st.randoms(use_true_random=False))
def test_multicast_regions_are_down_closed(sys_, rnd):
    if len(sys_.stored_pairs) * (2**sys_.num_users - 1) > 18:
        return
    region = rate_region(build_conflict_graph(sys_, TrafficPattern.MULTICAST))
    verts = region.vertices()
    for _ in range(8):
        v = verts[rnd.randrange(len(verts))]
        rho = tuple(x * Fraction(rnd.randint(0, 4), 4) for x in v)
        assert region.contains(rho)


@settings(max_examples=40, deadline=None)
@given(small_systems(), st.sampled_from(list(TrafficPattern)))
def test_every_stable_set_is_a_valid_mode(sys_, pattern):
    if len(sys_.stored_pairs) * (2**sys_.num_users - 1) > 32:
        return
    graph = build_conflict_graph(sys_, pattern)
    family = enumerate_stable_sets(graph)
    for members in family.sets:
        verdict = validate_mode(sys_, ALL_ONES, _mode_of(graph, members), pattern)
        assert verdict.valid
