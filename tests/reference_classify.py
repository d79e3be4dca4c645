"""Reference classifiers for ``qcnet.classify``, one pair of vertices at a time.

These are the claw, quasi-line and net searches as they ran on neighbour
sets before the graph stored bitmasks, and the perfection verdict from
networkx's chordless-cycle enumeration on the graph and its complement.
The equivalence tests require ``qcnet.classify`` to return the same claw,
quasi-line and net witnesses and the same perfection verdicts.  Test code
only: nothing in ``src/`` imports this module or networkx.
"""

from __future__ import annotations

import itertools

import networkx as nx

from qcnet.conflict import ConflictGraph


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
    """First vertex whose neighborhood's complement is not 2-colourable."""
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


def is_perfect(graph: ConflictGraph) -> bool:
    """No chordless odd cycle of length at least five in the graph or its complement."""
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    g.add_edges_from(graph.edges())
    return not any(
        len(cycle) >= 5 and len(cycle) % 2 == 1
        for h in (g, nx.complement(g))
        for cycle in nx.chordless_cycles(h)
    )


def find_net(graph: ConflictGraph) -> tuple[int, ...] | None:
    """First induced net: triangles in combinations order, then pendants."""
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
