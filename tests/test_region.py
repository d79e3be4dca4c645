from __future__ import annotations

import hashlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import monte_carlo_volume, table_regions
from qcnet import (
    TrafficPattern,
    build_conflict_graph,
    build_system,
    coded_transform,
    rate_region,
    striped_layout,
)
from reference_geometry import reference_lp_feasible


def region_for(sys_, pattern, coded=False):
    base = sys_
    if coded:
        base, _ = coded_transform(sys_, striped_layout(sys_))
    return rate_region(build_conflict_graph(base, pattern))


def test_ex1_region_is_unit_square(ex1_multicast_region):
    r = ex1_multicast_region
    assert r.volume() == 1
    assert set(r.vertices()) == {
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1)),
    }


def test_ex2_region_is_simplex(ex1_unicast_region):
    assert ex1_unicast_region.volume() == Fraction(1, 2)
    assert set(ex1_unicast_region.vertices()) == {
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    }


def test_ex3_broadcast_region_degenerate(ex1_system):
    region = region_for(ex1_system, TrafficPattern.BROADCAST)
    assert region.volume() == 0
    assert set(region.vertices()) == {
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(1)),
    }


def test_ex5_region_is_scaled_simplex(ex4_system):
    region = region_for(ex4_system, TrafficPattern.MULTICAST, coded=True)
    assert region.volume() == 2
    assert (Fraction(2), Fraction(0)) in region.vertices()


def test_single_unicast_simplex_scaling():
    # d flows give the standard simplex of volume 1/d!
    for T, N, expected in ((1, 2, Fraction(1, 2)), (2, 2, Fraction(1, 24)), (3, 2, Fraction(1, 720))):
        sys_ = build_system(T, N, [(1, {i}) for i in range(1, T + 1)], rx=(1,) * N)
        region = region_for(sys_, TrafficPattern.SINGLE_UNICAST)
        assert region.dimension == T * N
        assert region.volume() == expected


def test_contains_boundary_and_outside(ex1_multicast_region, ex1_unicast_region):
    assert ex1_multicast_region.contains((1, 1))
    assert not ex1_unicast_region.contains((1, 1))
    assert ex1_unicast_region.contains((0, 0))
    assert ex1_unicast_region.contains((Fraction(1, 3), Fraction(2, 3)))
    assert not ex1_unicast_region.contains((Fraction(1, 3), Fraction(2, 3) + Fraction(1, 10**9)))


def test_contains_rejects_negative(ex1_multicast_region):
    assert not ex1_multicast_region.contains((-Fraction(1, 2), Fraction(1, 2)))


def test_contains_dimension_mismatch(ex1_multicast_region):
    with pytest.raises(ValueError):
        ex1_multicast_region.contains((1,))


def test_volume_dimension_cap(ex7_system):
    region = region_for(ex7_system, TrafficPattern.MULTICAST)
    fake = replace(region, flows=tuple((i, 1) for i in range(9)))
    with pytest.raises(ValueError, match="refused"):
        fake.volume()


def test_down_closure_on_subset_closed_patterns(ex6_system):
    import random

    rng = random.Random(11)
    for pattern in (TrafficPattern.MULTICAST, TrafficPattern.MULTIPLE_UNICAST):
        region = region_for(ex6_system, pattern)
        verts = region.vertices()
        for _ in range(100):
            v = verts[rng.randrange(len(verts))]
            lam = Fraction(rng.randint(0, 8), 8)
            rho = tuple(lam * x for x in v)
            assert region.contains(rho)
            shrunk = tuple(x * Fraction(rng.randint(0, 4), 4) for x in rho)
            assert region.contains(shrunk)


def test_volume_against_monte_carlo(ex6_system):
    for pattern, coded in (
        (TrafficPattern.MULTICAST, False),
        (TrafficPattern.MULTIPLE_UNICAST, False),
        (TrafficPattern.MULTICAST, True),
    ):
        region = region_for(ex6_system, pattern, coded=coded)
        exact = float(region.volume())
        est, stderr = monte_carlo_volume(region, samples=200_000, seed=5)
        assert abs(est - exact) <= max(3 * stderr, 1e-9), (pattern, coded, est, exact)


def test_representation_exports(ex1_unicast_region):
    v_text = ex1_unicast_region.v_representation_text()
    assert "1\t0" in v_text and "0\t1" in v_text
    h_text = ex1_unicast_region.h_representation_text()
    assert "<=" in h_text


def test_generator_duplicates_preserved(ex1_multicast_region):
    # one generator per stable set, even when rate points repeat
    assert len(ex1_multicast_region.generators) == ex1_multicast_region.family.size


def test_contains_matches_fraction_oracle_on_table_rows():
    # The oracle solves over the hull's nonzero vertices, the region's
    # V-representation, in sorted order: another column set and order than
    # the family-ordered generators contains uses, and the Fraction kernel
    # instead of the integer one.
    rng = random.Random(5)
    for label, region in table_regions():
        vertices = region.vertices()
        columns = [v for v in vertices if any(v)]
        far = max(vertices, key=lambda v: (sum(v), v))
        queries = [(far, True), (tuple(Fraction(21, 20) * x for x in far), False)]
        for _ in range(3):
            weights = [Fraction(rng.randint(0, 4), 4 * len(vertices)) for _ in vertices]
            inside = tuple(sum(w * v[r] for w, v in zip(weights, vertices)) for r in range(region.dimension))
            queries.append((inside, True))
        for rho, expected in queries:
            oracle = reference_lp_feasible(columns, rho) is not None
            assert region.contains(rho) == oracle == expected, (label, rho)


def test_table_hulls_match_pinned_digest():
    # sha256 over the HullResult reprs of the 28 ex6/ex7 table regions,
    # coded and uncoded, in table order: a change to any vertex, facet,
    # equality or volume of the benchmark's rows moves it
    h = hashlib.sha256()
    for _label, region in table_regions():
        h.update(repr(region.hull).encode())
    assert h.hexdigest() == "c3e36c75504323a2da57b5944113e9da6af0d3dd784daff65dd87d2186e90611"
