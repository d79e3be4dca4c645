"""Structural classification of conflict graphs.

Every search reads the adjacency bitmasks ``ConflictGraph.masks`` and
scans vertices in ascending order, returning the first witness in that
order.  Claw-freeness and quasi-line membership are decided by exhaustive
neighbourhood checks; perfection by growing induced paths into chordless
odd cycles of length at least five in the graph and its complement (none
exist in either exactly for perfect graphs).  Every verdict carries a
witness that can be re-checked against the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conflict import ConflictGraph, mask_users

__all__ = [
    "ClassificationReport",
    "classify",
    "is_claw_free",
    "is_quasi_line",
    "is_perfect",
    "find_net",
    "PERFECT_CAP",
]

PERFECT_CAP = 24


def _above(v: int) -> int:
    """Mask of every vertex index greater than ``v``."""
    return ~((2 << v) - 1)


def is_claw_free(graph: ConflictGraph) -> tuple[bool, tuple[int, int, int, int] | None]:
    """Exhaustive induced-K13 search; witness is (center, leaf, leaf, leaf),
    the first by center and then by leaves in ascending order."""
    masks = graph.masks
    for center, nbrs in enumerate(masks):
        for a in mask_users(nbrs, 0):
            after_a = nbrs & ~masks[a] & _above(a)
            for b in mask_users(after_a, 0):
                after_b = after_a & ~masks[b] & _above(b)
                if after_b:
                    return False, (center, a, b, mask_users(after_b, 0)[0])
    return True, None


def is_quasi_line(graph: ConflictGraph) -> tuple[bool, int | None]:
    """Check each vertex's neighborhood for a two-clique cover.

    The neighborhood of v splits into two cliques exactly when the
    complement of the subgraph it induces is bipartite, that is, when a
    breadth-first search of that complement finds no edge inside one of
    its layers.  The witness is the first vertex whose neighborhood fails.
    """
    masks = graph.masks
    for v, nbrs in enumerate(masks):
        unseen = nbrs
        while unseen:
            layer = unseen & -unseen
            while layer:
                unseen &= ~layer
                reach = 0
                for u in mask_users(layer, 0):
                    reach |= nbrs & ~masks[u] & ~(1 << u)  # complement edges only
                if reach & layer:
                    return False, v
                layer = reach & unseen
    return True, None


def _odd_hole(masks) -> tuple[int, ...] | None:
    """First chordless odd cycle of length at least five, or None.

    Start vertices s are tried in ascending order, each with the cycles on
    vertices above it: an induced path s, v1, ... grows one neighbour at a
    time, in ascending order, and closes at a neighbour of s above v1.
    """

    def grow(path, inner, ends):
        # ``inner``: vertices that may extend the path; ``ends``: those that may close it at s
        last = path[-1]
        if len(path) % 2 == 0 and len(path) >= 4 and masks[last] & ends:
            return path + (mask_users(masks[last] & ends, 0)[0],)
        seen = masks[last] | 1 << last
        ends &= ~seen
        if not ends:
            return None
        for w in mask_users(masks[last] & inner, 0):
            cycle = grow(path + (w,), inner & ~seen, ends)
            if cycle:
                return cycle
        return None

    for s, ns in enumerate(masks):
        for v1 in mask_users(ns & _above(s), 0):
            cycle = grow((s, v1), _above(s) & ~ns, ns & _above(v1))
            if cycle:
                return cycle
    return None


def is_perfect(
    graph: ConflictGraph,
) -> tuple[bool | None, tuple[str, tuple[int, ...]] | None]:
    """Odd-hole / odd-antihole search; exact up to ``PERFECT_CAP`` vertices.

    Returns (True, None), (False, (kind, cycle)), or (None, None) when the
    graph exceeds the cap and the verdict is unknown.  The graph is
    searched before its complement.  The witness cycle starts at its
    lowest vertex and runs toward the smaller of that vertex's two cycle
    neighbours.
    """
    n = graph.num_vertices
    if n > PERFECT_CAP:
        return None, None
    complement = tuple(((1 << n) - 1) & ~m & ~(1 << v) for v, m in enumerate(graph.masks))
    for kind, masks in (("odd_hole", graph.masks), ("odd_antihole", complement)):
        cycle = _odd_hole(masks)
        if cycle:
            return False, (kind, cycle)
    return True, None


def find_net(graph: ConflictGraph) -> tuple[int, ...] | None:
    """First induced net in canonical order: a triangle (a, b, c) with
    pendant vertices (pa, pb, pc), each adjacent to its triangle vertex
    only.  Returns the 6 vertex indices or None."""
    masks = graph.masks
    for a, na in enumerate(masks):
        for b in mask_users(na & _above(a), 0):
            nb = masks[b]
            for c in mask_users(na & nb & _above(b), 0):
                nc = masks[c]
                triangle = 1 << a | 1 << b | 1 << c
                for pa in mask_users(na & ~nb & ~nc & ~triangle, 0):
                    for pb in mask_users(nb & ~na & ~nc & ~triangle & ~masks[pa], 0):
                        pcs = nc & ~na & ~nb & ~triangle & ~masks[pa] & ~masks[pb]
                        if pcs:
                            return (a, b, c, pa, pb, mask_users(pcs, 0)[0])
    return None


@dataclass(frozen=True)
class ClassificationReport:
    claw_free: bool
    claw_witness: tuple[int, int, int, int] | None
    quasi_line: bool
    quasi_line_witness: int | None
    perfect: bool | None
    perfect_witness: tuple[str, tuple[int, ...]] | None
    net_witness: tuple[int, ...] | None

    def as_text(self, graph: ConflictGraph) -> str:
        def names(idx) -> str:
            return ",".join(graph.vertices[i].label() for i in idx)

        lines = [
            f"vertices\t{graph.num_vertices}",
            f"edges\t{graph.num_edges}",
            f"claw_free\t{str(self.claw_free).lower()}"
            + (f"\twitness={names(self.claw_witness)}" if self.claw_witness else ""),
            f"quasi_line\t{str(self.quasi_line).lower()}"
            + (
                f"\twitness={graph.vertices[self.quasi_line_witness].label()}"
                if self.quasi_line_witness is not None
                else ""
            ),
            "perfect\t"
            + ("unknown" if self.perfect is None else str(self.perfect).lower())
            + (
                f"\twitness={self.perfect_witness[0]}:{names(self.perfect_witness[1])}"
                if self.perfect_witness
                else ""
            ),
            "net\t"
            + ("none" if self.net_witness is None else names(self.net_witness)),
        ]
        return "\n".join(lines) + "\n"


def classify(graph: ConflictGraph) -> ClassificationReport:
    """Full structural report; the net search runs only on graphs built
    with do-not-transmit companions."""
    claw_ok, claw_wit = is_claw_free(graph)
    ql_ok, ql_wit = is_quasi_line(graph)
    perf, perf_wit = is_perfect(graph)
    net_wit = find_net(graph) if graph.has_dnt else None
    return ClassificationReport(
        claw_free=claw_ok,
        claw_witness=claw_wit,
        quasi_line=ql_ok,
        quasi_line_witness=ql_wit,
        perfect=perf,
        perfect_witness=perf_wit,
        net_witness=net_wit,
    )
