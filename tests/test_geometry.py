from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcnet.geometry import GeometryError, _dets, exact_hull, exact_lp_feasible
from reference_geometry import _det, reference_hull, reference_lp_feasible


def F(*args) -> Fraction:
    return Fraction(*args)


def test_unit_square_hull():
    hull = exact_hull([(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(1, 2))])
    assert hull.dim == 2
    assert hull.volume == 1
    assert len(hull.vertices) == 4
    assert len(hull.facets) == 4
    assert hull.equalities == ()


def test_simplex_volume_matches_factorial():
    for d in (2, 3, 4, 6):
        points = [tuple(0 for _ in range(d))]
        for i in range(d):
            points.append(tuple(1 if c == i else 0 for c in range(d)))
        hull = exact_hull(points)
        expected = Fraction(1)
        for k in range(1, d + 1):
            expected /= k
        assert hull.volume == expected


def test_hypercube_volume():
    # the unit 6-cube is the ex7 uncoded multicast+MPR region
    for d in (4, 6, 7):
        hull = exact_hull(list(itertools.product((0, 1), repeat=d)))
        assert hull.volume == 1
        assert len(hull.vertices) == 2**d
        assert len(hull.facets) == 2 * d


def test_vertex_certificate_with_more_tight_facets_than_dim():
    # octahedron x [0, 1] and the midpoint of a vertical edge: four facets
    # are tight at the midpoint, but their normals (1, +-1, +-1, 0) have
    # rank 3 in dimension 4, so it is not a vertex
    octahedron = [tuple(s * int(r == c) for c in range(3)) for r in range(3) for s in (1, -1)]
    midpoint = (1, 0, 0, F(1, 2))
    points = [(*p, t) for p in octahedron for t in (0, 1)] + [midpoint]
    hull = exact_hull(points)
    assert len(hull.vertices) == 12
    assert len(hull.facets) == 10
    assert hull.volume == F(4, 3)
    assert midpoint not in hull.vertices
    tight = [a for a, b in hull.facets if sum(x * y for x, y in zip(a, midpoint)) == b]
    assert len(tight) == 4
    assert repr(hull) == repr(reference_hull(points))


def test_degenerate_segment():
    hull = exact_hull([(0, 0), (1, 1), (F(1, 2), F(1, 2))])
    assert hull.dim == 1
    assert hull.volume == 0
    assert hull.vertices == ((F(0), F(0)), (F(1), F(1)))
    # the affine-hull equality pins x2 == x1
    ((normal, b),) = hull.equalities
    assert b == 0
    assert sorted(normal) == [-1, 1]


def test_single_point_hull():
    hull = exact_hull([(2, 3), (2, 3)])
    assert hull.dim == 0
    assert hull.volume == 0
    assert hull.vertices == ((F(2), F(3)),)


def test_rational_coordinates():
    hull = exact_hull([(0,), (F(5, 3),)])
    assert hull.volume == F(5, 3)
    for bad in (0.5, "1"):  # rational coordinates only, as in exact_lp_feasible
        with pytest.raises(GeometryError, match="ints or Fractions"):
            exact_hull([(0, 0), (1, bad), (1, 1)])


def test_facets_supported_by_points():
    pts = [(0, 0), (2, 0), (0, 2), (1, 1)]
    hull = exact_hull(pts)
    for normal, b in hull.facets:
        tight = [p for p in pts if sum(F(n) * F(x) for n, x in zip(normal, p)) == b]
        assert len(tight) >= 2


def _scaled_facets_match(points, k) -> bool:
    """Facets of k * points are the facets (a, k * b) of points, in the same order."""
    facets = exact_hull(points).facets
    return exact_hull([tuple(k * x for x in p) for p in points]).facets == tuple((a, k * b) for a, b in facets)


def test_facet_order_survives_scaling():
    # Qhull triangulates these points differently at scale 11; the facets
    # must still come back in one canonical order
    points = [(4, 0, 2), (2, 4, 3), (3, 1, 1), (0, 2, 1), (3, 3, 3), (3, 2, 4),
              (2, 2, 2), (0, 4, 4), (2, 4, 0), (1, 4, 2), (4, 3, 1)]
    assert _scaled_facets_match(points, 11)


def test_facet_order_survives_scaling_sweep():
    rng = random.Random(7)
    for _ in range(200):
        d = rng.randint(2, 4)
        points = [tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(rng.randint(d + 2, d + 8))]
        assert _scaled_facets_match(points, rng.randint(2, 12)), points


def test_lp_feasible_simple():
    cols = [(F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
    phi = exact_lp_feasible(cols, (F(1), F(1)))
    assert phi is not None
    achieved = tuple(sum(phi[c] * cols[c][r] for c in range(3)) for r in range(2))
    assert achieved == (1, 1)
    assert sum(phi) <= 1


def test_lp_infeasible_outside_hull():
    cols = [(F(1), F(0)), (F(0), F(1))]
    assert exact_lp_feasible(cols, (F(1), F(1))) is None


def test_lp_boundary_is_feasible():
    cols = [(F(1), F(0)), (F(0), F(1))]
    assert exact_lp_feasible(cols, (F(1, 2), F(1, 2))) is not None


def test_lp_origin_feasible():
    cols = [(F(1), F(2))]
    phi = exact_lp_feasible(cols, (F(0), F(0)))
    assert phi == [0]


def test_lp_exactness_near_boundary():
    # 1/3 + 2/3 sums to exactly 1; floats would wobble here
    cols = [(F(1), F(0)), (F(0), F(1))]
    assert exact_lp_feasible(cols, (F(1, 3), F(2, 3))) is not None
    assert exact_lp_feasible(cols, (F(1, 3), F(2, 3) + F(1, 10**12))) is None


# --- the integer kernels against their Fraction reference oracles -------------

_coord = st.one_of(
    st.sampled_from([F(0), F(1), F(2), F(-1)]),  # repeats: ties and degenerate pivots
    st.builds(F, st.integers(-4, 4), st.integers(1, 4)),
)


def _lp_target(draw, columns, d):
    if columns and draw(st.booleans()):
        # a convex combination of some columns: feasible, often on the boundary
        weights = draw(st.lists(st.sampled_from([F(0), F(1, 4), F(1, 3), F(1, 2)]),
                                min_size=len(columns), max_size=len(columns)))
        if sum(weights) > 1:
            weights = [w / sum(weights) for w in weights]
        return tuple(sum(w * col[r] for w, col in zip(weights, columns)) for r in range(d))
    return draw(st.tuples(*[_coord] * d))  # negative components included


@st.composite
def lp_instances(draw):
    d = draw(st.integers(1, 4))
    columns = draw(st.lists(st.tuples(*[_coord] * d), max_size=7))
    if columns and draw(st.booleans()):
        columns.append(draw(st.sampled_from(columns)))  # a repeated column
    return columns, _lp_target(draw, columns, d)


@settings(max_examples=300, deadline=None)
@given(lp_instances())
# a degenerate start: breaking the ratio tie by row instead of by basic
# variable leaves the rational simplex at another vertex
@example(([(F(2), F(1)), (F(2), F(2)), (F(-1), F(0)), (F(1), F(2)), (F(0), F(-1))], (F(0), F(0))))
def test_lp_matches_fraction_oracle(instance):
    columns, target = instance
    phi = exact_lp_feasible(columns, target)
    assert phi == reference_lp_feasible(columns, target)
    if phi is not None:
        assert all(isinstance(x, Fraction) and x >= 0 for x in phi) and sum(phi) <= 1
        assert tuple(sum(w * col[r] for w, col in zip(phi, columns)) for r in range(len(target))) == target


@st.composite
def point_sets(draw):
    """Rational points in dimensions 1-6: affine images of small lattice
    sets, so lower-dimensional sets and repeated points are common."""
    ambient = draw(st.integers(1, 6))
    k = draw(st.integers(0, ambient))
    base = draw(st.lists(st.tuples(*[st.integers(-1, 2)] * k), min_size=1, max_size=ambient + 6))
    if k == ambient and draw(st.booleans()):
        embed = [[int(r == c) for c in range(k)] for r in range(ambient)]
    else:
        embed = draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                              min_size=ambient, max_size=ambient))
    offset = draw(st.tuples(*[_coord] * ambient))
    den = draw(st.integers(1, 3))
    points = [
        tuple(offset[r] + F(sum(e * x for e, x in zip(embed[r], p)), den) for r in range(ambient))
        for p in base
    ]
    return points + draw(st.lists(st.sampled_from(points), max_size=2))


def _outcome(fn, points):
    try:
        return fn(points)
    except Exception as exc:  # both sides must fail alike
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(point_sets())
# lattice points lifted onto x4 = 1/6: their reduced coordinates reach Qhull
# at the whole set's scale 6, where Qhull triangulates them differently than
# at their own scale 1; the sorted facets must still match the oracle exactly
@example([(F(a), F(b), F(c), F(1, 6)) for a, b, c in [
    (-2, -2, 3), (-2, -1, 3), (-1, -1, 1), (-1, 0, 1), (0, -1, 2),
    (0, -1, 3), (1, 0, -2), (3, -2, -1), (3, 0, 0)]])
def test_hull_matches_fraction_oracle(points):
    hull = _outcome(exact_hull, points)
    expected = _outcome(reference_hull, points)
    assert hull == expected
    assert repr(hull) == repr(expected)  # same field types, facet order included
    # the same points as lists, with integral coordinates given as ints
    mixed = [[int(x) if x.denominator == 1 and (i + r) % 2 else x for r, x in enumerate(p)]
             for i, p in enumerate(points)]
    assert repr(_outcome(exact_hull, mixed)) == repr(hull)


# --- the batched determinant kernel on both sides of its int64 bound ----------

# the largest B with (3 * B**2) ** 3 < 2**62: a 3 x 3 stack with entries up
# to B is eliminated in int64, one with an entry B + 1 in Python ints
INT64_B3 = 744


def test_int64_bound_of_3x3_stacks():
    assert (3 * INT64_B3**2) ** 3 < 2**62 <= (3 * (INT64_B3 + 1) ** 2) ** 3


@pytest.mark.parametrize("b", [INT64_B3, INT64_B3 + 1, 5_000, 10**30])
def test_dets_match_fraction_determinants(b):
    rng = random.Random(b)
    mats = [[[rng.randint(-b, b) for _ in range(3)] for _ in range(3)] for _ in range(40)]
    mats[0][0][0] = b  # the largest entry decides the dtype
    mats[1] = [[b, b, 0], [0, b, b], [b, 0, b]]  # |det| = 2 * B**3
    mats[2][2] = [0, 0, 0]  # singular: a zero row
    mats[3][0][0] = 0  # a zero pivot: a row swap
    mats[4] = [[b, 1, 0], [0, 0, 1], [0, 0, 2]]  # a zero column after the first step
    stack = np.array(mats, dtype=object)
    assert _dets(stack).tolist() == [_det(m) for m in mats]
    assert stack.tolist() == mats  # the input stack is left as it was


def test_dets_match_fraction_determinants_by_size():
    # mostly zeros: zero pivots, row swaps and zero columns at every step
    rng = random.Random(1968)
    for n in range(1, 8):
        mats = [[[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(n)] for _ in range(300)]
        assert _dets(np.array(mats, dtype=np.int64)).tolist() == [_det(m) for m in mats], n


def test_dets_of_empty_and_1x1_stacks():
    assert _dets(np.zeros((0, 3, 3), dtype=np.int64)).tolist() == []
    assert _dets(np.array([[[-7]], [[2**70]]], dtype=object)).tolist() == [-7, 2**70]


def _hull_cases():
    rng = random.Random(1406)
    # 3-D points near +-5,000: cones and Gram matrices beyond int64
    yield [tuple(rng.randint(-5_000, 5_000) for _ in range(3)) for _ in range(12)]
    # Fractions whose lcm scale is 19 * 23 * 29 * 31 * 37
    dens = (19, 23, 29, 31, 37)
    yield [tuple(F(rng.randint(-40, 40), rng.choice(dens)) for _ in range(3)) for _ in range(10)]
    # cones from the least point just inside the int64 bound of 3 x 3 stacks
    yield [(0, 0, 0), (INT64_B3, 0, 0), (0, INT64_B3, 0), (0, 0, INT64_B3), (INT64_B3, INT64_B3, 1),
           (300, 200, 100)]
    # and one step past it
    yield [(0, 0, 0), (INT64_B3 + 1, 0, 0), (0, INT64_B3, 0), (0, 0, INT64_B3), (INT64_B3, INT64_B3, 1),
           (300, 200, 100)]


@pytest.mark.parametrize("points", list(_hull_cases()), ids=["pm5000", "large-lcm", "below-bound", "past-bound"])
def test_hull_beyond_int64_matches_fraction_oracle(points):
    hull = exact_hull(points)
    assert hull.dim == 3
    assert repr(hull) == repr(reference_hull(points))


@st.composite
def lp_instances_with_repeats(draw):
    """Columns drawn from a small pool, so repeats (of zero columns too) are
    common, and targets that are feasible, infeasible or negative."""
    d = draw(st.integers(1, 3))
    pool = draw(st.lists(st.tuples(*[_coord] * d), min_size=1, max_size=4)) + [(F(0),) * d]
    columns = draw(st.lists(st.sampled_from(pool), max_size=9))
    return columns, _lp_target(draw, columns, d)


@settings(max_examples=300, deadline=None)
@given(lp_instances_with_repeats())
# the zero column duplicates the slack's column and sits ahead of it, and
# the second zero column duplicates the first
@example(([(F(1), F(0)), (F(0), F(0)), (F(0), F(1)), (F(0), F(0)), (F(1), F(0))], (F(1, 4), F(1, 4))))
def test_lp_over_first_occurrences_matches_repeats(instance):
    # Bland's rule never lets a repeated column enter ahead of its first
    # occurrence, so solving over the distinct columns and mapping back
    # gives the same phi as solving over all of them
    columns, target = instance
    first: dict[tuple, int] = {}
    for c, col in enumerate(columns):
        first.setdefault(col, c)
    distinct = exact_lp_feasible(list(first), target)
    phi = exact_lp_feasible(columns, target)
    if distinct is None:
        assert phi is None
        return
    mapped = [F(0)] * len(columns)
    for c, val in zip(first.values(), distinct):
        mapped[c] = val
    assert phi == mapped
