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

The hull's determinants run in batches: ``_dets`` eliminates a stack of
square int matrices at once in numpy, ``_SLICE`` matrices per call.  With
B the largest |entry| of an n x n stack, every Bareiss intermediate is at
most twice the square of Hadamard's bound, so the stack runs in int64 when
(n * B**2) ** n < 2**62 and in Python ints (dtype object) otherwise.  The
volume sums the cones from the least point, a hull vertex, over the
triangulated facets that miss it; a point is a vertex exactly when the
Gram matrix of its tight facet normals is nonsingular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from functools import reduce
from operator import and_, mul

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


_SLICE = 256  # matrices per kernel call: bounds the temporaries of a large stack


def _int_array(values, bound: int) -> np.ndarray:
    """``values`` (Python ints, nested) as an int64 array when ``bound``, a
    bound on every integer the caller computes from them, is below 2**62;
    as Python ints (dtype object) otherwise."""
    return np.array(values, dtype=np.int64 if bound < 2**62 else object)


def _dets(mats: np.ndarray) -> np.ndarray:
    """Exact determinants of a stack of square integer matrices, shape
    (k, n, n), int64 or Python ints, by fraction-free Bareiss elimination
    with a row swap per matrix and exact ``//`` divisions.

    With B the largest |entry|, every intermediate is at most 2 * H**2,
    where H = (n * B**2) ** (n / 2) is Hadamard's bound, so the stack is
    eliminated in int64 when (n * B**2) ** n < 2**62 and in Python ints
    otherwise.
    """
    k, n, _ = mats.shape
    if k == 0:
        return np.zeros(0, dtype=np.int64)
    b = int(abs(mats).max())
    m = _int_array(mats, (n * b * b) ** n)
    sign = np.ones(k, dtype=np.int64)
    prev = np.ones(k, dtype=m.dtype)
    for c in range(n - 1):
        p = m[:, c, c]  # a view: it sees the swaps below
        if not p.all():  # swap up the first row with a nonzero entry in column c
            row = c + (m[:, c:, c] != 0).argmax(axis=1)
            swap = np.flatnonzero(row != c)
            m[swap, c], m[swap, row[swap]] = m[swap, row[swap]], m[swap, c]
            sign[swap] = -sign[swap]
        m[:, c + 1:, c + 1:] = (
            m[:, c + 1:, c + 1:] * p[:, None, None] - m[:, c + 1:, c, None] * m[:, c, None, c + 1:]
        ) // prev[:, None, None]
        # a zero pivot means a zero column: the determinant is 0 and the
        # update above zeroed the rest, which stays 0 when divided by 1
        prev = np.where(p != 0, p, 1)
    return sign * m[:, n - 1, n - 1]


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


def _full_dim_hull(ints: list[tuple[int, ...]], dim: int) -> tuple[list[int], list[tuple[tuple[int, ...], int]], list[list[int]]]:
    """Vertex indices and facets (a, b), a.p <= b for every point p, of the
    full-dimensional distinct int points ``ints``, and the boundary
    simplices to cone over from ``ints[0]`` for the volume: a triangulation
    of the facets, less the simplices on facets through ``ints[0]``, whose
    cones are flat."""
    from scipy.spatial import ConvexHull  # deferred: keeps import cost off the LP path

    if dim == 1:
        vals = [p[0] for p in ints]
        lo, hi = vals.index(min(vals)), vals.index(max(vals))
        return [lo, hi], [((1,), vals[hi]), ((-1,), -vals[lo])], [[i] for i in (lo, hi) if vals[i] != vals[0]]

    simplices = ConvexHull(np.array(ints, dtype=float), qhull_options="Qt").simplices.tolist()
    npts = len(ints)
    csum = [sum(col) for col in zip(*ints)]  # npts * centroid, inside every facet

    facets: list[tuple[tuple[int, ...], int]] = []
    on_facets = [0] * npts  # per point: bit k set when the point is on facet k
    cones: list[list[int]] = []
    for simplex in simplices:
        common = reduce(and_, [on_facets[i] for i in simplex])
        if not common:
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
            common = 1 << len(facets)
            facets.append((a, b))
            for i, p in enumerate(ints):
                v = _dot(a, p)
                if v > b:
                    raise GeometryError("hull facet violated by an input point")
                if v == b:
                    on_facets[i] |= common
        if not common & on_facets[0]:
            cones.append(simplex)

    # a point is a vertex exactly when its tight normals have rank dim, that
    # is when their Gram matrix sum_k a_k a_k^T is nonsingular
    cand = [i for i, mask in enumerate(on_facets) if mask.bit_count() >= dim]
    nf = len(facets)
    amax = max(abs(x) for a, _ in facets for x in a)
    normals = _int_array([a for a, _ in facets], max(m.bit_count() for m in on_facets) * amax * amax)
    outer = (normals[:, :, None] * normals[:, None, :]).reshape(nf, dim * dim)
    vertices: list[int] = []
    for s in range(0, len(cand), _SLICE):
        part = cand[s:s + _SLICE]
        tight = np.array([[on_facets[i] >> k & 1 for k in range(nf)] for i in part], dtype=outer.dtype)
        grams = (tight @ outer).reshape(-1, dim, dim)
        vertices.extend(i for i, det in zip(part, _dets(grams).tolist()) if det)

    return vertices, facets, cones


def _cone_dets(ints: list[tuple[int, ...]], cones: list[list[int]]) -> int:
    """Sum of |det| over the cones from ``ints[0]`` over the ``cones``
    simplices: dim! times the volume of the int points' hull."""
    p0 = ints[0]
    diffs = [[x - y for x, y in zip(p, p0)] for p in ints]
    rows = _int_array(diffs, max(abs(x) for row in diffs for x in row))
    simplices = np.array(cones, dtype=np.intp)
    return sum(int(abs(_dets(rows[simplices[s:s + _SLICE]])).sum()) for s in range(0, len(cones), _SLICE))


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
    volume = Fraction(0)
    if dim == 0:
        vert_idx = [0]
    else:
        reduced = [tuple(p[c] for c in pivots) for p in ints]
        vert_idx, red_facets, cones = _full_dim_hull(reduced, dim)
        for a, b in red_facets:
            full = [0] * ambient
            for t, pc in enumerate(pivots):
                full[pc] = a[t]  # already primitive; embedding adds only zeros
            facets.append((tuple(full), Fraction(b, scale)))
        if dim == ambient:
            volume = Fraction(_cone_dets(ints, cones), math.factorial(dim) * scale**dim)

    return HullResult(
        ambient=ambient,
        dim=dim,
        vertices=tuple(tuple(Fraction(x, scale) for x in ints[i]) for i in sorted(vert_idx)),
        facets=tuple(sorted(facets)),
        equalities=tuple(equalities),
        volume=volume,
    )
