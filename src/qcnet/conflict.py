"""Traffic-pattern conflict graphs.

Vertices are candidate deliveries: a chunk read by one virtual drive and
fanned out to one nonempty user subset (the drive is dropped in the
infinite-I/O regime, where per-drive blocking never binds).  Two vertices
conflict when they are two states of the same read hyperedge (same drive,
or same chunk in the infinite regime) or when activating both at once
violates a reception, drive, or traffic-pattern constraint.  Stable sets
of the graph are exactly the valid modes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .system import (
    KnowledgeState,
    Mode,
    SizeGuardError,
    StorageSystem,
    TrafficPattern,
    build_system,
    validate_mode,
)

__all__ = ["Vertex", "ConflictGraph", "build_conflict_graph", "mask_users", "users_mask"]

VERTEX_CAP = 4096


def users_mask(users) -> int:
    mask = 0
    for j in users:
        mask |= 1 << (j - 1)
    return mask


def mask_users(mask: int) -> tuple[int, ...]:
    out = []
    j = 1
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return tuple(out)


@dataclass(frozen=True)
class Vertex:
    """One candidate delivery: chunk via drive to a user subset (bitmask).

    ``drive`` is None in the infinite-I/O regime.  A ``dnt`` vertex is a
    do-not-transmit companion, pendant to its transmit vertex.
    """

    chunk: int
    drive: int | None
    users: int
    dnt: bool = False

    def sort_key(self) -> tuple[int, int, int, int]:
        return (self.chunk, self.drive if self.drive is not None else 0, self.users, self.dnt)

    def label(self) -> str:
        k = str(self.drive) if self.drive is not None else "x"
        base = f"v_{self.chunk}_{k}_{self.users}"
        return base + "_dnt" if self.dnt else base

    def deliveries(self, surrogate_drive: int | None = None) -> frozenset[tuple[int, int, int]]:
        if self.dnt:
            return frozenset()
        k = self.drive if self.drive is not None else surrogate_drive
        return frozenset((self.chunk, j, k) for j in mask_users(self.users))


@dataclass(frozen=True)
class ConflictGraph:
    """Vertices in canonical order plus an index-based adjacency structure."""

    vertices: tuple[Vertex, ...]
    adjacency: tuple[frozenset[int], ...]
    pattern: TrafficPattern
    io_regime: str
    system_hash: str

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[tuple[int, int]]:
        return [(a, b) for a in range(self.num_vertices) for b in self.adjacency[a] if a < b]

    @property
    def num_edges(self) -> int:
        return len(self.edges())

    def are_adjacent(self, a: int, b: int) -> bool:
        return b in self.adjacency[a]

    def is_independent(self, indices) -> bool:
        idx = list(indices)
        return all(not self.are_adjacent(a, b) for x, a in enumerate(idx) for b in idx[x + 1 :])

    @cached_property
    def has_dnt(self) -> bool:
        return any(v.dnt for v in self.vertices)

    def to_networkx(self, complement: bool = False):
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.num_vertices))
        g.add_edges_from(self.edges())
        return nx.complement(g) if complement else g

    def adjacency_text(self) -> str:
        lines = []
        for a, v in enumerate(self.vertices):
            nbrs = " ".join(self.vertices[b].label() for b in sorted(self.adjacency[a]))
            lines.append(f"{v.label()}: {nbrs}")
        return "\n".join(lines) + "\n"

    def edge_list_text(self) -> str:
        lines = [f"{self.vertices[a].label()} {self.vertices[b].label()}" for a, b in self.edges()]
        return "\n".join(lines) + ("\n" if lines else "")


def _pattern_masks(pattern: TrafficPattern, num_users: int) -> tuple[int, ...]:
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


def build_conflict_graph(
    sys: StorageSystem,
    pattern: TrafficPattern,
    io: str = "finite",
    include_dnt: bool = False,
    vertex_cap: int = VERTEX_CAP,
) -> ConflictGraph:
    """Build the conflict graph for a traffic pattern and I/O regime.

    Edges delegate to validate_mode on the union of the two vertices'
    deliveries with an all-ones knowledge state, except that two distinct
    states of one read hyperedge (same virtual drive, or same chunk when
    ``io="infinite"``) always conflict.  Do-not-transmit companions are
    added only on request and are pendant to their transmit vertex.
    """
    if io not in ("finite", "infinite"):
        raise ValueError(f"unknown io regime {io!r}")
    masks = _pattern_masks(pattern, sys.num_users)
    reads = sum(d.units * len(d.stores) for d in sys.drives) if io == "finite" else sys.num_chunks
    count = reads * len(masks) * (2 if include_dnt else 1)
    if count > vertex_cap:  # before any vertex or virtual drive is built
        raise SizeGuardError(f"{count} vertices exceed the cap {vertex_cap}")

    verts: list[Vertex] = []
    if io == "finite":
        check_sys = sys
        for (i, k) in sys.stored_pairs:
            verts.extend(Vertex(i, k, m) for m in masks)
    else:
        check_sys = _surrogate_infinite(sys)
        for i in range(1, sys.num_chunks + 1):
            verts.extend(Vertex(i, None, m) for m in masks)
    verts.sort(key=Vertex.sort_key)

    if include_dnt:
        verts.extend([replace(v, dnt=True) for v in list(verts)])
        verts.sort(key=Vertex.sort_key)

    knowledge = KnowledgeState.all_innovative()
    n = len(verts)
    adj: list[set[int]] = [set() for _ in range(n)]

    def hyperedge(v: Vertex):
        return v.drive if io == "finite" else v.chunk

    for a in range(n):
        va = verts[a]
        for b in range(a + 1, n):
            vb = verts[b]
            if va.dnt or vb.dnt:
                # companion is adjacent only to its own transmit vertex
                conflict = (va.chunk, va.drive, va.users) == (vb.chunk, vb.drive, vb.users)
            elif hyperedge(va) == hyperedge(vb):
                conflict = True
            else:
                joint = Mode(
                    va.deliveries(surrogate_drive=va.chunk)
                    | vb.deliveries(surrogate_drive=vb.chunk)
                )
                conflict = not validate_mode(check_sys, knowledge, joint, pattern).valid
            if conflict:
                adj[a].add(b)
                adj[b].add(a)

    return ConflictGraph(
        vertices=tuple(verts),
        adjacency=tuple(frozenset(s) for s in adj),
        pattern=pattern,
        io_regime=io,
        system_hash=sys.content_hash(),
    )
