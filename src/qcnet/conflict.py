"""Traffic-pattern conflict graphs.

Vertices are candidate deliveries: a chunk read by one virtual drive and
fanned out to one nonempty user subset (the drive is dropped in the
infinite-I/O regime, where per-drive blocking never binds).  Two vertices
conflict when activating both at once breaks a timeslot constraint; see
``build_conflict_graph`` for the three pairwise rules.  A budget rx > 1
binds only sets of rx + 1 vertices, so stable sets are exactly the valid
modes only when every rx is 1 or at least the most deliveries one user can
get in a slot: the virtual-drive count, or T in the infinite regime.
Otherwise they can outnumber the modes: ``build_system(2, 3, [(1, {1, 2}),
(1, {1}), (1, {2})], rx=(2, 2, 2))`` under multicast has 959 stable sets
and 621 valid modes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .system import SizeGuardError, StorageSystem, TrafficPattern

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

    def deliveries(self) -> frozenset[tuple[int, int, int | None]]:
        if self.dnt:
            return frozenset()
        return frozenset((self.chunk, j, self.drive) for j in mask_users(self.users))


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


def _admitted_masks(member: TrafficPattern, num_users: int) -> frozenset[int]:
    """User-subset bitmasks one read may carry under a non-composite pattern."""
    full = (1 << num_users) - 1
    if member is TrafficPattern.MULTICAST:
        return frozenset(range(1, full + 1))
    if member is TrafficPattern.BROADCAST:
        return frozenset((full,))
    return frozenset(1 << j for j in range(num_users))  # unicast: one receiver per read


def build_conflict_graph(
    sys: StorageSystem,
    pattern: TrafficPattern,
    io: str = "finite",
    include_dnt: bool = False,
) -> ConflictGraph:
    """Build the conflict graph for a traffic pattern and I/O regime.

    A vertex carries any user mask some member pattern admits.  Two
    transmit vertices conflict when (1) they are two states of one read
    hyperedge: the same virtual drive, or the same chunk when
    ``io="infinite"``; (2) they share a user whose reception budget is 1;
    or (3) no member pattern admits both masks in one slot: single unicast
    admits no second read, multiple unicast singleton masks, broadcast the
    full mask and multicast any mask.  These are ``validate_mode``'s
    constraints on the two vertices' deliveries, every chunk innovative.
    Do-not-transmit companions are added only on request and are pendant
    to their transmit vertex.
    """
    if io not in ("finite", "infinite"):
        raise ValueError(f"unknown io regime {io!r}")
    admitted = {member: _admitted_masks(member, sys.num_users) for member in pattern.members}
    masks = sorted(frozenset().union(*admitted.values()))
    reads = sum(d.units * len(d.stores) for d in sys.drives) if io == "finite" else sys.num_chunks
    count = reads * len(masks) * (2 if include_dnt else 1)
    if count > VERTEX_CAP:  # before any vertex or virtual drive is built
        raise SizeGuardError(f"{count} vertices exceed the cap {VERTEX_CAP}")

    if io == "finite":
        verts = [Vertex(i, k, m) for (i, k) in sys.stored_pairs for m in masks]
    else:
        verts = [Vertex(i, None, m) for i in range(1, sys.num_chunks + 1) for m in masks]
    if include_dnt:
        verts += [replace(v, dnt=True) for v in verts]
    verts.sort(key=Vertex.sort_key)

    single_rx = users_mask(j for j, r in enumerate(sys.rx, start=1) if r == 1)
    pair_masks = [s for member, s in admitted.items() if member is not TrafficPattern.SINGLE_UNICAST]

    def hyperedge(v: Vertex) -> int:
        return v.drive if io == "finite" else v.chunk

    def conflict(va: Vertex, vb: Vertex) -> bool:
        if va.dnt or vb.dnt:
            # companion is adjacent only to its own transmit vertex
            return (va.chunk, va.drive, va.users) == (vb.chunk, vb.drive, vb.users)
        return (
            hyperedge(va) == hyperedge(vb)
            or bool(va.users & vb.users & single_rx)
            or not any(va.users in s and vb.users in s for s in pair_masks)
        )

    n = len(verts)
    adj: list[set[int]] = [set() for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if conflict(verts[a], verts[b]):
                adj[a].add(b)
                adj[b].add(a)

    return ConflictGraph(
        vertices=tuple(verts),
        adjacency=tuple(frozenset(s) for s in adj),
        pattern=pattern,
        io_regime=io,
        system_hash=sys.content_hash(),
    )
