"""Structural classification of conflict graphs.

Claw-freeness and quasi-line membership are decided by exhaustive
neighborhood checks; perfection by searching chordless odd cycles of
length at least five in the graph and its complement (none exist in
either exactly for perfect graphs).  Every verdict carries a witness that
can be re-checked against the graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .conflict import ConflictGraph

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


def is_claw_free(graph: ConflictGraph) -> tuple[bool, tuple[int, int, int, int] | None]:
    """Exhaustive induced-K13 search; witness is (center, leaf, leaf, leaf)."""
    for center in range(graph.num_vertices):
        nbrs = sorted(graph.adjacency[center])
        for a, b, c in itertools.combinations(nbrs, 3):
            if (
                not graph.are_adjacent(a, b)
                and not graph.are_adjacent(a, c)
                and not graph.are_adjacent(b, c)
            ):
                return False, (center, a, b, c)
    return True, None


def is_quasi_line(graph: ConflictGraph) -> tuple[bool, int | None]:
    """Check each vertex's neighborhood for a two-clique cover.

    The neighborhood of v splits into two cliques exactly when the
    complement of the subgraph it induces is bipartite; the witness is the
    first vertex whose neighborhood fails.
    """
    for v in range(graph.num_vertices):
        nbrs = sorted(graph.adjacency[v])
        color: dict[int, int] = {}
        ok = True
        for start in nbrs:
            if start in color:
                continue
            color[start] = 0
            queue = [start]
            while queue and ok:
                u = queue.pop()
                for w in nbrs:
                    if w == u or graph.are_adjacent(u, w):
                        continue  # complement edges only
                    if w not in color:
                        color[w] = 1 - color[u]
                        queue.append(w)
                    elif color[w] == color[u]:
                        ok = False
                        break
            if not ok:
                break
        if not ok:
            return False, v
    return True, None


def is_perfect(
    graph: ConflictGraph, cap: int = PERFECT_CAP
) -> tuple[bool | None, tuple[str, tuple[int, ...]] | None]:
    """Odd-hole / odd-antihole search; exact up to ``cap`` vertices.

    Returns (True, None), (False, (kind, cycle)), or (None, None) when the
    graph exceeds the cap and the verdict is unknown.
    """
    import networkx as nx  # deferred: keeps import cost off `import qcnet`

    if graph.num_vertices > cap:
        return None, None
    for kind, g in (("odd_hole", graph.to_networkx()), ("odd_antihole", graph.to_networkx(complement=True))):
        for cycle in nx.chordless_cycles(g):
            if len(cycle) >= 5 and len(cycle) % 2 == 1:
                return False, (kind, tuple(cycle))
    return True, None


def find_net(graph: ConflictGraph) -> tuple[int, ...] | None:
    """First induced net in canonical order: a triangle (a, b, c) with
    pendant vertices (pa, pb, pc), each adjacent to its triangle vertex
    only.  Returns the 6 vertex indices or None."""
    n = graph.num_vertices
    for a, b, c in itertools.combinations(range(n), 3):
        if not (
            graph.are_adjacent(a, b) and graph.are_adjacent(a, c) and graph.are_adjacent(b, c)
        ):
            continue
        triangle = (a, b, c)

        def pendants(x: int) -> list[int]:
            others = [t for t in triangle if t != x]
            return [
                p
                for p in sorted(graph.adjacency[x])
                if p not in triangle and not any(graph.are_adjacent(p, o) for o in others)
            ]

        for pa in pendants(a):
            for pb in pendants(b):
                if pb == pa or graph.are_adjacent(pa, pb):
                    continue
                for pc in pendants(c):
                    if pc in (pa, pb) or graph.are_adjacent(pa, pc) or graph.are_adjacent(pb, pc):
                        continue
                    return (a, b, c, pa, pb, pc)
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


def classify(graph: ConflictGraph, perfect_cap: int = PERFECT_CAP) -> ClassificationReport:
    """Full structural report; the net search runs only on graphs built
    with do-not-transmit companions."""
    claw_ok, claw_wit = is_claw_free(graph)
    ql_ok, ql_wit = is_quasi_line(graph)
    perf, perf_wit = is_perfect(graph, cap=perfect_cap)
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
