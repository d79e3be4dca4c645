"""Fraction-arithmetic reference oracles for the exact geometry kernels.

These are the straightforward ``fractions.Fraction`` versions of
``qcnet.geometry.exact_lp_feasible`` and ``qcnet.geometry.exact_hull``:
a phase-1 tableau simplex that rewrites the whole Fraction tableau on every
pivot, and a hull that solves one RREF per Qhull simplex.  The library runs
integer (fraction-free) versions of the same algorithms with the same pivot
rules; the property tests require their answers to be identical.  Only the
result type, the error class and ``frac_vector`` come from the library, so
a fault in an integer kernel cannot hide in its oracle too.  Test code
only: nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from qcnet.geometry import GeometryError, HullResult, Vec, frac_vector


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


def _det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Fraction Gaussian elimination with row swaps."""
    mat = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(mat)):
        pivot_row = next((i for i in range(c, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            mat[c], mat[pivot_row] = mat[pivot_row], mat[c]
            det = -det
        det *= mat[c][c]
        for i in range(c + 1, len(mat)):
            f = mat[i][c] / mat[c][c]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return det


def _primitive_normal(vec: list[Fraction]) -> tuple[int, ...]:
    denom = lcm(*(f.denominator for f in vec)) if vec else 1
    ints = [int(f * denom) for f in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def reference_lp_feasible(columns: list[Vec], target: Vec) -> list[Fraction] | None:
    """Find phi >= 0 with sum_c phi_c * columns[c] == target and
    sum(phi) <= 1 by a phase-1 Fraction tableau simplex with Bland's rule;
    None when infeasible."""
    m = len(columns)
    d = len(target)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for r in range(d):
        rows.append([Fraction(columns[c][r]) for c in range(m)])
        rhs.append(Fraction(target[r]))
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
            raise GeometryError("phase-1 simplex is unbounded")
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
            raise GeometryError("artificial variable left in the basis at a nonzero level")
    return phi


def _hyperplane_through(simplex: list[Vec]) -> tuple[tuple[int, ...], Fraction] | None:
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


def _full_dim_hull(points: list[Vec], dim: int):
    from scipy.spatial import ConvexHull

    if dim == 1:
        vals = [p[0] for p in points]
        lo, hi = min(vals), max(vals)
        facets = [((1,), Fraction(hi)), ((-1,), Fraction(-lo))]
        verts = [vals.index(lo), vals.index(hi)]
        return verts, facets, hi - lo

    scale = lcm(*(x.denominator for p in points for x in p))
    ints = [[int(x * scale) for x in p] for p in points]
    hull = ConvexHull(np.array(ints, dtype=float), qhull_options="Qt")

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
        mat = [[int((Fraction(ints[i][c]) - centroid[c]) * cden) for c in range(dim)] for i in simplex]
        vol_num += abs(_det(mat)) / cden**dim

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

    return vertices, [(a, Fraction(b, scale)) for a, b in facets_scaled], volume


def reference_hull(raw_points: list) -> HullResult:
    """Exact hull of rational points, every step in Fractions."""
    points = sorted(set(frac_vector(p) for p in raw_points))
    if not points:
        raise GeometryError("no points")
    ambient = len(points[0])
    if any(len(p) != ambient for p in points):
        raise GeometryError("mixed point dimensions")

    p0 = points[0]
    diffs = [[x - y for x, y in zip(p, p0)] for p in points[1:]]
    rref, pivots = _rref(diffs) if diffs else ([], [])
    dim = len(pivots)

    equalities: list[tuple[tuple[int, ...], Fraction]] = []
    if dim < ambient:
        for free in range(ambient):
            if free in pivots:
                continue
            a = [Fraction(0)] * ambient
            a[free] = Fraction(1)
            for t, pc in enumerate(pivots):
                a[pc] = -rref[t][free]
            normal = _primitive_normal(a)
            equalities.append((normal, sum(Fraction(n) * x for n, x in zip(normal, p0))))

    if dim == 0:
        return HullResult(ambient, 0, (points[0],), (), tuple(equalities), Fraction(0))

    reduced = [tuple(p[c] for c in pivots) for p in points]
    vert_idx, red_facets, red_volume = _full_dim_hull(reduced, dim)
    facets = []
    for a, b in red_facets:
        full = [0] * ambient
        for t, pc in enumerate(pivots):
            full[pc] = a[t]
        facets.append((tuple(full), b))
    return HullResult(
        ambient=ambient,
        dim=dim,
        vertices=tuple(points[i] for i in sorted(vert_idx)),
        facets=tuple(facets),
        equalities=tuple(equalities),
        volume=red_volume if dim == ambient else Fraction(0),
    )
