"""Exact rational polytope machinery.

Points and LP columns come in as ints or ``fractions.Fraction``s (rate
points are int tuples); only results leave as Fractions: hull vertices,
offsets, volumes and LP weights.  In between, both kernels compute on
Python ints: each input is scaled once by the lcm of its denominators and
eliminated fraction-free (Edmonds 1967, Bareiss 1968), every division
exact.  Convex-hull combinatorics come from Qhull (scipy) on the scaled
points; facets, vertices and volumes are rebuilt in integer arithmetic and
every input point is verified against every facet, so a numerically wrong
hull raises instead of propagating.  LPs never touch floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import numpy as np

__all__ = [
    "GeometryError",
    "HullResult",
    "exact_hull",
    "exact_lp_feasible",
    "frac_vector",
]

Vec = tuple[Fraction, ...]
Point = tuple[int | Fraction, ...]


class GeometryError(RuntimeError):
    """Raised when exact verification of a geometric computation fails."""


def frac_vector(values) -> Vec:
    return tuple(Fraction(x) for x in values)


# --- exact integer linear algebra --------------------------------------------


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


def _scaled(rows) -> tuple[list[list[int]], int]:
    """Integer rows and the lcm of every denominator: rows == ints / scale.
    GeometryError for a coordinate that is not an int or a Fraction."""
    try:
        scale = lcm(*{x.denominator for row in rows for x in row})
    except AttributeError:
        raise GeometryError("coordinates must be ints or Fractions") from None
    return [[x.numerator * (scale // x.denominator) for x in row] for row in rows], scale


def _int_gauss_jordan(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination; returns (matrix, pivot columns).

    Pivots are chosen as in the rational reduced row echelon form, and the
    result is D times that form, where D is the last pivot
    (``matrix[t][pivots[t]] == D`` for every t).  Each division by the
    previous pivot is exact (Edmonds' rule).
    """
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    prev = 1
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        if r == len(mat):
            break
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        prow = mat[r]
        p = prow[c]
        for i in range(len(mat)):
            if i != r:
                f = mat[i][c]
                mat[i] = [(a * p - f * b) // prev for a, b in zip(mat[i], prow)]
        prev = p
        pivots.append(c)
        r += 1
    return mat, pivots


def _int_det(rows: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant of a square integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _kernel_vector(mat: list[list[int]], pivots: list[int], free: int, n: int) -> tuple[int, ...]:
    """Primitive integer x in Z^n with mat @ x == 0, x[free] > 0, and zero
    on the other non-pivot columns, for ``(mat, pivots)`` from
    _int_gauss_jordan."""
    det = mat[0][pivots[0]] if pivots else 1
    sign = 1 if det > 0 else -1
    x = [0] * n
    x[free] = abs(det)
    for t, pc in enumerate(pivots):
        x[pc] = -sign * mat[t][free]
    g = gcd(*x)
    return tuple(v // g for v in x) if g > 1 else tuple(x)


# --- exact simplex (phase-1 feasibility) -------------------------------------


def exact_lp_feasible(columns: list[Point], target: Point) -> list[Fraction] | None:
    """Find phi >= 0 with sum_c phi_c * columns[c] == target and
    sum(phi) <= 1, exactly, for int or Fraction columns and target.

    The remainder 1 - sum(phi) is a slack variable: the weight on the
    origin.  Returns the phi vector or None when infeasible.

    Solved by a phase-1 simplex with Bland's rule on an integer tableau.
    The rows [columns | slack | target] and the convexity row [1 .. 1 | 1 | 1]
    are all scaled once by the lcm of every denominator, so the tableau is
    T / D with one common denominator D, initially 1; the identity basis of
    artificial variables is never stored.  A pivot on p = T[r][e] > 0
    replaces every other row, the objective included, by
    (T * p - T[.][e] * T[r]) // D, an exact division (Edmonds' rule), and
    then sets D = p.  One positive scale changes no sign, ratio order or
    basis, so the pivots and phi are those of the rational tableau.
    """
    m = len(columns)
    d = len(target)
    (*cols, rhs), scale = _scaled([*columns, target])
    tableau = [[col[r] for col in cols] + [0, rhs[r]] for r in range(d)]
    tableau.append([scale] * (m + 2))
    tableau = [[-x for x in row] if row[-1] < 0 else row for row in tableau]
    nvars = m + 1  # the columns and the slack; artificial columns are not stored
    nrows = d + 1
    basis = [nvars + r for r in range(nrows)]
    # phase-1 objective, priced out over the artificial basis
    obj = [-sum(col) for col in zip(*tableau)]
    den = 1

    while True:
        entering = next((c for c in range(nvars) if obj[c] < 0), None)
        if entering is None:
            break
        leave = None
        for r, row in enumerate(tableau):
            coeff = row[entering]
            if coeff <= 0:
                continue
            if leave is not None:
                # smallest ratio row[-1] / coeff, ties to the smallest basic variable
                here, best = row[-1] * best_coeff, best_rhs * coeff
                if here > best or (here == best and basis[r] > basis[leave]):
                    continue
            leave, best_rhs, best_coeff = r, row[-1], coeff
        if leave is None:
            raise GeometryError("phase-1 simplex found an unbounded ray")
        prow = tableau[leave]
        p = prow[entering]
        for r in range(nrows):
            if r != leave:
                f = tableau[r][entering]
                tableau[r] = [(a * p - f * b) // den for a, b in zip(tableau[r], prow)]
        f = obj[entering]
        obj = [(a * p - f * b) // den for a, b in zip(obj, prow)]
        den = p
        basis[leave] = entering

    if obj[-1] != 0:  # residual artificial mass
        return None
    phi = [Fraction(0)] * m
    for r, bvar in enumerate(basis):
        if bvar < m:
            phi[bvar] = Fraction(tableau[r][-1], den)
        elif bvar < nvars:
            continue  # slack
        elif tableau[r][-1] != 0:
            raise GeometryError("artificial variable left in the basis at a nonzero level")
    return phi


# --- convex hulls ------------------------------------------------------------


@dataclass(frozen=True)
class HullResult:
    """Exact hull of a point set.

    ``facets`` are irredundant inequalities a.x <= b valid on the affine
    hull; ``equalities`` pin the affine hull itself (empty when the hull is
    full-dimensional).  ``volume`` is the ambient-dimensional Lebesgue
    volume: zero whenever dim < ambient.  Facets are sorted by (normal,
    offset), so their order does not follow Qhull's triangulation.
    """

    ambient: int
    dim: int
    vertices: tuple[Vec, ...]
    facets: tuple[tuple[tuple[int, ...], Fraction], ...]
    equalities: tuple[tuple[tuple[int, ...], Fraction], ...]
    volume: Fraction


def _full_dim_hull(ints: list[tuple[int, ...]], scale: int, dim: int) -> tuple[list[int], list[tuple[tuple[int, ...], Fraction]], Fraction]:
    """Vertex indices, facets, and exact volume for the full-dimensional
    distinct points ``ints / scale``."""
    from scipy.spatial import ConvexHull  # deferred: keeps import cost off the LP path

    if dim == 1:
        vals = [p[0] for p in ints]
        lo, hi = min(vals), max(vals)
        facets = [((1,), Fraction(hi, scale)), ((-1,), Fraction(-lo, scale))]
        verts = [vals.index(lo), vals.index(hi)]
        return verts, facets, Fraction(hi - lo, scale)

    hull = ConvexHull(np.array(ints, dtype=float), qhull_options="Qt")

    npts = len(ints)
    csum = [sum(col) for col in zip(*ints)]  # npts * centroid

    facets: list[tuple[tuple[int, ...], int]] = []  # in order of first simplex
    on_facets: list[set[int]] = [set() for _ in ints]  # facet indices tight at each point
    cone_dets = 0  # sum of |det| over the centroid cones, each scaled by npts**dim
    for simplex in hull.simplices.tolist():
        if not set.intersection(*(on_facets[i] for i in simplex)):
            # a new plane; a simplex on a known facet lies in its plane
            pts = [ints[i] for i in simplex]
            mat, pivots = _int_gauss_jordan([[x - y for x, y in zip(p, pts[0])] for p in pts[1:]])
            if len(pivots) != dim - 1:
                continue  # zero-measure sliver from facet triangulation
            free = next(c for c in range(dim) if c not in pivots)
            a = _kernel_vector(mat, pivots, free, dim)
            b = _dot(a, pts[0])
            side = _dot(a, csum) - b * npts
            if side > 0:
                a = tuple(-x for x in a)
                b = -b
            elif side == 0:
                raise GeometryError("claimed facet plane passes through the centroid")
            k = len(facets)
            facets.append((a, b))
            for i, p in enumerate(ints):
                v = _dot(a, p)
                if v > b:
                    raise GeometryError("hull facet violated by an input point")
                if v == b:
                    on_facets[i].add(k)
        # cone from the centroid over this facet simplex
        cone = [[ints[i][c] * npts - csum[c] for c in range(dim)] for i in simplex]
        cone_dets += abs(_int_det(cone))

    volume = Fraction(cone_dets, npts**dim * math.factorial(dim) * scale**dim)

    vertices: list[int] = []
    for idx, tight in enumerate(on_facets):
        if len(tight) >= dim:
            _, pivots = _int_gauss_jordan([facets[k][0] for k in tight])
            if len(pivots) == dim:
                vertices.append(idx)

    return vertices, [(a, Fraction(b, scale)) for a, b in facets], volume


def exact_hull(raw_points: list[Point]) -> HullResult:
    """Exact convex hull of int or Fraction points (any sequences; other
    coordinates raise GeometryError) in any ambient dimension.

    The points are scaled to ints once, then deduplicated and sorted as int
    tuples.  Degenerate inputs are reduced to pivot coordinates of their
    affine hull first; facets and vertices are mapped back to ambient space
    and the ambient volume of a lower-dimensional hull is zero.
    """
    ints, scale = _scaled(raw_points)
    ints = sorted(set(map(tuple, ints)))
    if not ints:
        raise GeometryError("no points")
    ambient = len(ints[0])
    if any(len(p) != ambient for p in ints):
        raise GeometryError("mixed point dimensions")

    p0 = ints[0]
    mat, pivots = _int_gauss_jordan([[x - y for x, y in zip(p, p0)] for p in ints[1:]])
    dim = len(pivots)

    equalities: list[tuple[tuple[int, ...], Fraction]] = []
    for free in range(ambient):
        if free not in pivots:
            normal = _kernel_vector(mat, pivots, free, ambient)
            equalities.append((normal, Fraction(_dot(normal, p0), scale)))

    facets: list[tuple[tuple[int, ...], Fraction]] = []
    if dim == 0:
        vert_idx, volume = [0], Fraction(0)
    else:
        reduced = [tuple(p[c] for c in pivots) for p in ints]
        # scale by the reduced points' own lcm, so Qhull sees what they alone would give
        common = gcd(scale, *(x for p in reduced for x in p))
        if common > 1:
            reduced = [tuple(x // common for x in p) for p in reduced]
        vert_idx, red_facets, red_volume = _full_dim_hull(reduced, scale // common, dim)
        for a, b in red_facets:
            full = [0] * ambient
            for t, pc in enumerate(pivots):
                full[pc] = a[t]  # already primitive; embedding adds only zeros
            facets.append((tuple(full), b))
        volume = red_volume if dim == ambient else Fraction(0)

    return HullResult(
        ambient=ambient,
        dim=dim,
        vertices=tuple(tuple(Fraction(x, scale) for x in ints[i]) for i in sorted(vert_idx)),
        facets=tuple(sorted(facets)),
        equalities=tuple(equalities),
        volume=volume,
    )
