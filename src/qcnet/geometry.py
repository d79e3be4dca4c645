"""Exact rational polytope machinery.

Everything here is computed over ``fractions.Fraction``.  Convex-hull
combinatorics come from Qhull (scipy) applied to integer-scaled points;
facet hyperplanes, the vertex set, and volumes are then rebuilt in exact
arithmetic and every input point is verified against every facet, so a
numerically wrong hull raises instead of propagating.  Linear-program
feasibility (membership, rate decomposition) never touches floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

__all__ = [
    "GeometryError",
    "HullResult",
    "exact_hull",
    "exact_lp_feasible",
    "frac_vector",
]

Vec = tuple[Fraction, ...]


class GeometryError(RuntimeError):
    """Raised when exact verification of a geometric computation fails."""


def frac_vector(values) -> Vec:
    return tuple(Fraction(x) for x in values)


# --- exact linear algebra ---------------------------------------------------


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
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


def _primitive_normal(vec: list[Fraction]) -> tuple[int, ...]:
    denom = lcm(*(f.denominator for f in vec)) if vec else 1
    ints = [int(f * denom) for f in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


# --- exact simplex (phase-1 feasibility) -------------------------------------


def exact_lp_feasible(columns: list[Vec], target: Vec) -> list[Fraction] | None:
    """Find phi >= 0 with sum_c phi_c * columns[c] == target and
    sum(phi) <= 1, exactly.

    The remainder 1 - sum(phi) is a slack variable: the weight on the
    origin.  Returns the phi vector or None when infeasible.  Solved by a
    phase-1 tableau simplex over Fractions with Bland's rule.
    """
    m = len(columns)
    d = len(target)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for r in range(d):
        row = [Fraction(columns[c][r]) for c in range(m)]
        b = Fraction(target[r])
        rows.append(row)
        rhs.append(b)
    rows.append([Fraction(1)] * m)
    rhs.append(Fraction(1))
    for r, row in enumerate(rows):
        row.append(Fraction(1) if r == d else Fraction(0))
    nvars = m + 1
    for r in range(len(rows)):
        if rhs[r] < 0:
            rows[r] = [-x for x in rows[r]]
            rhs[r] = -rhs[r]

    nrows = len(rows)
    # artificial variable per row; objective: minimize their sum
    tableau = [rows[r] + [Fraction(0)] * nrows + [rhs[r]] for r in range(nrows)]
    for r in range(nrows):
        tableau[r][nvars + r] = Fraction(1)
    basis = [nvars + r for r in range(nrows)]
    ncols = nvars + nrows
    obj = [Fraction(0)] * (ncols + 1)
    for r in range(nrows):  # price out the artificial basis
        for c in range(ncols + 1):
            obj[c] -= tableau[r][c]

    while True:
        entering = next((c for c in range(nvars) if obj[c] < 0), None)
        if entering is None:
            break
        best: tuple[Fraction, int, int] | None = None
        for r in range(nrows):
            coeff = tableau[r][entering]
            if coeff > 0:
                ratio = tableau[r][ncols] / coeff
                key = (ratio, basis[r], r)
                if best is None or key < best:
                    best = key
        if best is None:
            return None  # unbounded cannot occur in phase 1; defensive
        _, _, leave = best
        pivot = tableau[leave][entering]
        tableau[leave] = [x / pivot for x in tableau[leave]]
        for r in range(nrows):
            if r != leave and tableau[r][entering] != 0:
                f = tableau[r][entering]
                tableau[r] = [a - f * b for a, b in zip(tableau[r], tableau[leave])]
        if obj[entering] != 0:
            f = obj[entering]
            obj = [a - f * b for a, b in zip(obj, tableau[leave])]
        basis[leave] = entering

    if -obj[ncols] != 0:  # residual artificial mass
        return None
    phi = [Fraction(0)] * m
    for r, bvar in enumerate(basis):
        if bvar < m:
            phi[bvar] = tableau[r][ncols]
        elif bvar < nvars:
            continue  # slack
        elif tableau[r][ncols] != 0:
            return None  # artificial stuck in basis at nonzero level
    return phi


# --- convex hulls ------------------------------------------------------------


@dataclass(frozen=True)
class HullResult:
    """Exact hull of a point set.

    ``facets`` are irredundant inequalities a.x <= b valid on the affine
    hull; ``equalities`` pin the affine hull itself (empty when the hull is
    full-dimensional).  ``volume`` is the ambient-dimensional Lebesgue
    volume: zero whenever dim < ambient.
    """

    ambient: int
    dim: int
    vertices: tuple[Vec, ...]
    facets: tuple[tuple[tuple[int, ...], Fraction], ...]
    equalities: tuple[tuple[tuple[int, ...], Fraction], ...]
    volume: Fraction


def _affine_basis(points: list[Vec]) -> tuple[Vec, list[int], list[list[Fraction]]]:
    """Origin point, pivot columns spanning the difference space, and the
    RREF rows of that space."""
    p0 = points[0]
    diffs = [[x - y for x, y in zip(p, p0)] for p in points[1:]]
    if not diffs:
        return p0, [], []
    rref, pivots = _rref(diffs)
    return p0, pivots, rref[: len(pivots)]


def _hyperplane_through(simplex: list[Vec]) -> tuple[tuple[int, ...], Fraction] | None:
    """Primitive integer (a, b) with a.x == b through d affinely independent
    points in R^d, or None when the points are degenerate."""
    d = len(simplex[0])
    diffs = [[x - y for x, y in zip(p, simplex[0])] for p in simplex[1:]]
    rref, pivots = _rref(diffs)
    if len(pivots) != d - 1:
        return None
    free = next(c for c in range(d) if c not in pivots)
    a = [Fraction(0)] * d
    a[free] = Fraction(1)
    for row_idx, pc in enumerate(pivots):
        a[pc] = -rref[row_idx][free]
    normal = _primitive_normal(a)
    b = sum(Fraction(n) * x for n, x in zip(normal, simplex[0]))
    return normal, b


def _full_dim_hull(points: list[Vec], dim: int) -> tuple[list[int], list[tuple[tuple[int, ...], Fraction]], Fraction]:
    """Vertex indices, facets, and exact volume for a full-dimensional set."""
    from scipy.spatial import ConvexHull  # deferred: keeps import cost off the LP path

    if dim == 1:
        vals = [p[0] for p in points]
        lo, hi = min(vals), max(vals)
        facets = [((1,), Fraction(hi)), ((-1,), Fraction(-lo))]
        verts = [vals.index(lo), vals.index(hi)]
        return verts, facets, hi - lo

    scale = lcm(*(x.denominator for p in points for x in p))
    ints = [[int(x * scale) for x in p] for p in points]
    arr = np.array(ints, dtype=float)
    hull = ConvexHull(arr, qhull_options="Qt")

    npts = len(points)
    centroid = [Fraction(sum(p[c] for p in ints), npts) for c in range(dim)]
    cden = npts

    facet_map: dict[tuple[tuple[int, ...], Fraction], None] = {}
    vol_num = Fraction(0)
    for simplex in hull.simplices:
        pts = [frac_vector(ints[i]) for i in simplex]
        plane = _hyperplane_through(pts)
        if plane is None:
            continue  # zero-measure sliver from facet triangulation
        a, b = plane
        side = sum(Fraction(x) * y for x, y in zip(a, centroid)) - b
        if side > 0:
            a = tuple(-x for x in a)
            b = -b
        elif side == 0:
            raise GeometryError("claimed facet plane passes through the centroid")
        facet_map.setdefault((a, b), None)
        # cone from the centroid over this facet simplex
        mat = [[int((Fraction(ints[i][c]) - centroid[c]) * cden) for c in range(dim)] for i in simplex]
        vol_num += Fraction(abs(_int_det(mat)), cden**dim)

    facets_scaled = list(facet_map)
    for a, b in facets_scaled:
        for p in ints:
            if sum(x * y for x, y in zip(a, p)) > b:
                raise GeometryError("hull facet violated by an input point")

    volume = vol_num / math.factorial(dim) / Fraction(scale) ** dim

    vertices: list[int] = []
    for idx, p in enumerate(ints):
        tight = [a for a, b in facets_scaled if sum(x * y for x, y in zip(a, p)) == b]
        if len(tight) >= dim:
            _, pivots = _rref([[Fraction(x) for x in a] for a in tight])
            if len(pivots) == dim:
                vertices.append(idx)

    facets = [
        (a, Fraction(b, scale))
        for a, b in facets_scaled
    ]
    return vertices, facets, volume


def exact_hull(raw_points: list) -> HullResult:
    """Exact convex hull of rational points in any ambient dimension.

    Degenerate inputs are reduced to pivot coordinates of their affine
    hull first; facets and vertices are mapped back to ambient space and
    the ambient volume of a lower-dimensional hull is zero.
    """
    points = sorted(set(frac_vector(p) for p in raw_points))
    if not points:
        raise GeometryError("no points")
    ambient = len(points[0])
    if any(len(p) != ambient for p in points):
        raise GeometryError("mixed point dimensions")

    p0, pivots, rref_rows = _affine_basis(points)
    dim = len(pivots)

    equalities: list[tuple[tuple[int, ...], Fraction]] = []
    if dim < ambient:
        # affine-hull equations: x_free - p0_free == sum_t R[t][free] (x_piv - p0_piv)
        for free in range(ambient):
            if free in pivots:
                continue
            a = [Fraction(0)] * ambient
            a[free] = Fraction(1)
            for t, pc in enumerate(pivots):
                a[pc] = -rref_rows[t][free] if rref_rows else Fraction(0)
            normal = _primitive_normal(a)
            b = sum(Fraction(n) * x for n, x in zip(normal, p0))
            equalities.append((normal, b))

    if dim == 0:
        return HullResult(
            ambient=ambient,
            dim=0,
            vertices=(points[0],),
            facets=(),
            equalities=tuple(equalities),
            volume=Fraction(0),
        )

    reduced = [tuple(p[c] for c in pivots) for p in points]
    vert_idx, red_facets, red_volume = _full_dim_hull(reduced, dim)

    facets: list[tuple[tuple[int, ...], Fraction]] = []
    for a, b in red_facets:
        full = [0] * ambient
        for t, pc in enumerate(pivots):
            full[pc] = a[t]  # already primitive; embedding adds only zeros
        facets.append((tuple(full), b))

    volume = red_volume if dim == ambient else Fraction(0)
    return HullResult(
        ambient=ambient,
        dim=dim,
        vertices=tuple(points[i] for i in sorted(vert_idx)),
        facets=tuple(facets),
        equalities=tuple(equalities),
        volume=volume,
    )
