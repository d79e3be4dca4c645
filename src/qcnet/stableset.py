"""Stable-set enumeration and flow incidence vectors.

The family lists every nonempty independent set of a conflict graph in
canonical order (size first, then lexicographic vertex indices), matching
how the worked examples index their sets.  An incidence vector counts, per
stable set, how often a (chunk, user) flow is served; per-link vectors
keep the serving drive distinct.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .conflict import ConflictGraph, mask_users
from .system import SizeGuardError

__all__ = ["StableSetFamily", "FlowIncidence", "enumerate_stable_sets", "flow_incidence"]

STABLE_SET_VERTEX_GUARD = 32
STABLE_SET_FAMILY_GUARD = 250_000


@dataclass(frozen=True)
class StableSetFamily:
    """All nonempty stable sets of a graph, canonically ordered."""

    graph: ConflictGraph
    sets: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.sets)

    def incidence_vector(self, ell: int) -> tuple[int, ...]:
        """0/1 vertex-incidence vector of the ``ell``-th (1-based) set."""
        member = set(self.sets[ell - 1])
        return tuple(1 if v in member else 0 for v in range(self.graph.num_vertices))


def enumerate_stable_sets(graph: ConflictGraph) -> StableSetFamily:
    """Exhaustively enumerate every nonempty independent set.

    Depth-first over vertex-indexed bitmasks; guarded both on vertex count
    and on family size so edgeless blowups fail fast.
    """
    n = graph.num_vertices
    if n > STABLE_SET_VERTEX_GUARD:
        raise SizeGuardError(f"{n} vertices exceed the stable-set guard {STABLE_SET_VERTEX_GUARD}")
    nonadj_above: list[int] = []
    for v in range(n):
        mask = 0
        for w in range(v + 1, n):
            if not graph.are_adjacent(v, w):
                mask |= 1 << w
        nonadj_above.append(mask)

    family_guard = STABLE_SET_FAMILY_GUARD
    out: list[tuple[int, ...]] = []
    stack: list[tuple[tuple[int, ...], int]] = [((), (1 << n) - 1)]
    while stack:
        current, candidates = stack.pop()
        m = candidates
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            chosen = current + (v,)
            out.append(chosen)
            if len(out) > family_guard:
                raise SizeGuardError(f"stable-set family exceeds guard {family_guard}")
            stack.append((chosen, candidates & nonadj_above[v] & ~((low << 1) - 1)))
    out.sort(key=lambda s: (len(s), s))
    return StableSetFamily(graph=graph, sets=tuple(out))


@dataclass(frozen=True)
class FlowIncidence:
    """Per-link and aggregated per-flow incidence vectors over a family."""

    family: StableSetFamily
    flows: tuple[tuple[int, int], ...]
    per_link: dict[tuple[int, int | None, int], tuple[int, ...]]
    per_flow: dict[tuple[int, int], tuple[int, ...]]


def flow_incidence(family: StableSetFamily) -> FlowIncidence:
    """Build all link-level vectors and their per-flow sums.

    A stable set's link vector entry is 1 when the set contains the vertex
    serving that (chunk, drive, user) link; summing over drives counts how
    many reads serve the flow in that set.
    """
    graph = family.graph
    m = family.size
    # one length-m vector per key, built when the key is first seen, keeps this linear in m
    per_link: dict[tuple[int, int | None, int], list[int]] = defaultdict(lambda: [0] * m)
    per_flow: dict[tuple[int, int], list[int]] = defaultdict(lambda: [0] * m)

    for ell, members in enumerate(family.sets):
        for v_idx in members:
            v = graph.vertices[v_idx]
            if v.dnt:
                continue
            for j in mask_users(v.users):
                per_link[(v.chunk, v.drive, j)][ell] = 1
                per_flow[(v.chunk, j)][ell] += 1

    flows = tuple(sorted(per_flow))
    return FlowIncidence(
        family=family,
        flows=flows,
        per_link={k: tuple(v) for k, v in sorted(per_link.items(), key=lambda kv: (kv[0][0], kv[0][1] or 0, kv[0][2]))},
        per_flow={k: tuple(v) for k, v in sorted(per_flow.items())},
    )
