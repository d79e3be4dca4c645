"""Rate regions from stable-set families.

Each stable set achieves the rate point counting how many of its reads
serve each flow; timesharing over the family (with idling allowed) makes
every convex combination of those points, and nothing else, servable.
The region is therefore the convex hull of the generator points together
with the origin.  The points stay int tuples; the exact kernels return
Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .conflict import ConflictGraph
from .geometry import HullResult, Vec, exact_hull, exact_lp_feasible, frac_vector
from .stableset import FlowIncidence, StableSetFamily, enumerate_stable_sets, flow_incidence

__all__ = ["RateRegion", "rate_region", "VOLUME_DIMENSION_CAP"]

VOLUME_DIMENSION_CAP = 8


@dataclass(frozen=True)
class RateRegion:
    """Convex, exact rate region over the served flows.

    ``generators[ell-1]`` is the rate point of stable set ell.  Regions of
    broadcast-style patterns are lower-dimensional (their flows are
    coupled) and report volume 0.
    """

    flows: tuple[tuple[int, int], ...]
    family: StableSetFamily
    generators: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.flows)

    @cached_property
    def lp_columns(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """Columns of the membership and decomposition LPs: the distinct
        generators in family order, a zero generator included, and for
        each the 0-based family index where it first occurs."""
        first: dict[tuple[int, ...], int] = {}
        for ell, point in enumerate(self.generators):
            first.setdefault(point, ell)
        return tuple(first), tuple(first.values())

    @cached_property
    def service_rows(self) -> np.ndarray:
        """Read-only int64 table of per-set deliveries: row 0 is the idle
        set (all zeros), row ell the generator of stable set ell."""
        rows = np.array([(0,) * self.dimension, *self.generators], dtype=np.int64)
        rows.flags.writeable = False
        return rows

    @cached_property
    def hull(self) -> HullResult:
        return exact_hull(list({*self.generators, (0,) * self.dimension}))

    def volume(self) -> Fraction:
        """Exact Lebesgue volume; 0 for degenerate regions."""
        if self.dimension > VOLUME_DIMENSION_CAP:
            raise ValueError(
                f"exact volume refused in dimension {self.dimension} > {VOLUME_DIMENSION_CAP}"
            )
        return self.hull.volume

    def contains(self, rho) -> bool:
        """Exact membership: rho is inside when it equals a convex
        combination of the generator points and the origin (the idle set).

        Boundary points count as inside; any negative component is outside.
        The LP runs over ``lp_columns``, the distinct generators in family
        order: the verdict does not depend on the column order, but the
        pivot count does.  On the ex7 coded multicast+MPR region a point
        just outside takes 6 pivots in family order, 362 over the same
        points sorted.
        """
        vec = frac_vector(rho)
        if len(vec) != self.dimension:
            raise ValueError(f"rate vector has {len(vec)} components, region has {self.dimension}")
        if any(x < 0 for x in vec):
            return False
        return exact_lp_feasible(self.lp_columns[0], vec) is not None

    def vertices(self) -> tuple[Vec, ...]:
        return self.hull.vertices

    def v_representation_text(self) -> str:
        lines = ["\t".join(str(x) for x in v) for v in self.vertices()]
        return "\n".join(lines) + "\n"

    def h_representation_text(self) -> str:
        lines = []
        flow_names = [f"r({i},{j})" for (i, j) in self.flows]

        def render(normal, b, op) -> str:
            terms = []
            for coeff, name in zip(normal, flow_names):
                if coeff == 0:
                    continue
                terms.append(f"{coeff}*{name}" if coeff not in (1,) else name)
            lhs = " + ".join(terms).replace("+ -", "- ") if terms else "0"
            return f"{lhs} {op} {b}"

        for normal, b in self.hull.equalities:
            lines.append(render(normal, b, "=="))
        for normal, b in self.hull.facets:
            lines.append(render(normal, b, "<="))
        return "\n".join(lines) + "\n"


def rate_region(
    graph: ConflictGraph,
    family: StableSetFamily | None = None,
    incidence: FlowIncidence | None = None,
) -> RateRegion:
    """Build the exact rate region of a conflict graph."""
    if family is None:
        family = enumerate_stable_sets(graph)
    if incidence is None:
        incidence = flow_incidence(family)
    # one row per stable set: the transpose of the per-flow incidence vectors
    generators = tuple(zip(*(incidence.per_flow[f] for f in incidence.flows)))
    return RateRegion(flows=incidence.flows, family=family, generators=generators)
