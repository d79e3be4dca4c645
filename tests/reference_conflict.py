"""Mode-oracle reference for the conflict graph's vertices and edges.

This is the conflict rule as ``validate_mode`` states it: two transmit
vertices conflict when they are two states of one read hyperedge, or when
the two-delivery mode made of their deliveries, with every chunk
innovative, is not a valid mode.  In the infinite-I/O regime the check
runs on a surrogate system with one single-unit drive per chunk, so drive
constraints never couple distinct chunks.  ``qcnet.conflict`` states the
same constraints as three closed-form pairwise rules; the equivalence
tests require both to give the same vertices and the same edges.  Test
code only: nothing in ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import replace

from qcnet.conflict import Vertex
from qcnet.system import (
    KnowledgeState,
    Mode,
    StorageSystem,
    TrafficPattern,
    build_system,
    validate_mode,
)


def _masks(pattern: TrafficPattern, num_users: int) -> tuple[int, ...]:
    """User-subset bitmasks a single vertex may carry under a pattern."""
    full = (1 << num_users) - 1
    masks: set[int] = set()
    for member in pattern.members:
        if member is TrafficPattern.MULTICAST:
            masks.update(range(1, full + 1))
        elif member is TrafficPattern.BROADCAST:
            masks.add(full)
        else:  # unicast variants: singleton receivers
            masks.update(1 << (j - 1) for j in range(1, num_users + 1))
    return tuple(sorted(masks))


def _vertices(
    sys: StorageSystem, pattern: TrafficPattern, io: str, include_dnt: bool
) -> tuple[Vertex, ...]:
    """Candidate deliveries in canonical order, companions included on request."""
    masks = _masks(pattern, sys.num_users)
    if io == "finite":
        verts = [Vertex(i, k, m) for (i, k) in sys.stored_pairs for m in masks]
    else:
        verts = [Vertex(i, None, m) for i in range(1, sys.num_chunks + 1) for m in masks]
    if include_dnt:
        verts += [replace(v, dnt=True) for v in verts]
    return tuple(sorted(verts, key=Vertex.sort_key))


def _surrogate_infinite(sys: StorageSystem) -> StorageSystem:
    """One single-unit drive per chunk: drive constraints never couple
    distinct chunks, which is exactly the infinite-I/O regime."""
    return build_system(
        num_chunks=sys.num_chunks,
        num_users=sys.num_users,
        drives=[(1, {i}) for i in range(1, sys.num_chunks + 1)],
        rx=sys.rx,
        always_innovative=sys.always_innovative,
    )


def _deliveries(v: Vertex) -> frozenset[tuple[int, int, int]]:
    """The vertex's deliveries; an infinite-regime read goes through the
    surrogate drive numbered after its chunk."""
    k = v.drive if v.drive is not None else v.chunk
    return frozenset((v.chunk, j, k) for j in range(1, v.users.bit_length() + 1) if v.users >> (j - 1) & 1)


def reference_graph(
    sys: StorageSystem, pattern: TrafficPattern, io: str = "finite", include_dnt: bool = False
) -> tuple[tuple[Vertex, ...], tuple[frozenset[int], ...]]:
    """Vertices and adjacency, one ``validate_mode`` call per vertex pair."""
    verts = _vertices(sys, pattern, io, include_dnt)
    check_sys = sys if io == "finite" else _surrogate_infinite(sys)
    knowledge = KnowledgeState.all_innovative()

    def hyperedge(v: Vertex) -> int:
        return v.drive if io == "finite" else v.chunk

    adj: list[set[int]] = [set() for _ in verts]
    for a, va in enumerate(verts):
        for b in range(a + 1, len(verts)):
            vb = verts[b]
            if va.dnt or vb.dnt:
                # companion is adjacent only to its own transmit vertex
                conflict = (va.chunk, va.drive, va.users) == (vb.chunk, vb.drive, vb.users)
            elif hyperedge(va) == hyperedge(vb):
                conflict = True
            else:
                joint = Mode(_deliveries(va) | _deliveries(vb))
                conflict = not validate_mode(check_sys, knowledge, joint, pattern).valid
            if conflict:
                adj[a].add(b)
                adj[b].add(a)
    return verts, tuple(frozenset(s) for s in adj)
