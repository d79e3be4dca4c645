"""Stable-set enumeration and flow incidence vectors.

The family lists every nonempty independent set of a conflict graph in
canonical order (size first, then lexicographic vertex indices), matching
how the worked examples index their sets.  An incidence vector counts, per
stable set, how often a (chunk, user) flow is served.
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


def enumerate_stable_sets(graph: ConflictGraph) -> StableSetFamily:
    """Exhaustively enumerate every nonempty independent set.

    Depth-first over vertex-indexed bitmasks; guarded both on vertex count
    and on family size so edgeless blowups fail fast.
    """
    n = graph.num_vertices
    if n > STABLE_SET_VERTEX_GUARD:
        raise SizeGuardError(f"{n} vertices exceed the stable-set guard {STABLE_SET_VERTEX_GUARD}")
    full = (1 << n) - 1
    nonadj_above = [full & ~mask & ~((2 << v) - 1) for v, mask in enumerate(graph.masks)]

    family_guard = STABLE_SET_FAMILY_GUARD
    out: list[tuple[int, ...]] = []
    stack: list[tuple[tuple[int, ...], int]] = [((), full)]
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
    """Per-flow incidence vectors over a family, flows in sorted order."""

    flows: tuple[tuple[int, int], ...]
    per_flow: dict[tuple[int, int], tuple[int, ...]]


def flow_incidence(family: StableSetFamily) -> FlowIncidence:
    """Count, per stable set, the reads that serve each (chunk, user) flow."""
    graph = family.graph
    m = family.size
    # one length-m vector per flow, built when the flow is first seen, keeps this linear in m
    per_flow: dict[tuple[int, int], list[int]] = defaultdict(lambda: [0] * m)

    for ell, members in enumerate(family.sets):
        for v_idx in members:
            v = graph.vertices[v_idx]
            if v.dnt:
                continue
            for j in mask_users(v.users):
                per_flow[(v.chunk, j)][ell] += 1

    flows = tuple(sorted(per_flow))
    return FlowIncidence(flows=flows, per_flow={k: tuple(per_flow[k]) for k in flows})
