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

The graph stores one int bitmask per vertex, bit b set when the vertex
conflicts with vertex b; every graph algorithm reads these masks.  The
build never visits a vertex pair: the first rule depends only on the read
hyperedge and the other two only on the two user masks, so it tabulates
one vertex bitmask per hyperedge and one per user mask and ORs the two
for each vertex.
"""

from __future__ import annotations

from collections import defaultdict
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


def mask_users(mask: int, first: int = 1) -> tuple[int, ...]:
    """Positions of the set bits of ``mask`` in ascending order, the lowest
    bit counted as ``first``: user numbers by default, vertex indices with
    ``first=0``."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1 + first)
        mask ^= low
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
    """Vertices in canonical order and one adjacency bitmask per vertex:
    bit b of ``masks[a]`` is set when vertices a and b conflict."""

    vertices: tuple[Vertex, ...]
    masks: tuple[int, ...]
    pattern: TrafficPattern
    io_regime: str
    system_hash: str

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        """Neighbour index sets, read from the masks."""
        return tuple(frozenset(mask_users(m, 0)) for m in self.masks)

    def edges(self) -> list[tuple[int, int]]:
        return [(a, b) for a, m in enumerate(self.masks) for b in mask_users(m >> (a + 1), a + 1)]

    @property
    def num_edges(self) -> int:
        return sum(m.bit_count() for m in self.masks) // 2

    def are_adjacent(self, a: int, b: int) -> bool:
        return bool(self.masks[a] >> b & 1)

    @cached_property
    def has_dnt(self) -> bool:
        return any(v.dnt for v in self.vertices)

    def adjacency_text(self) -> str:
        lines = []
        for v, m in zip(self.vertices, self.masks):
            nbrs = " ".join(self.vertices[b].label() for b in mask_users(m, 0))
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

    transmit = {(v.chunk, v.drive, v.users): a for a, v in enumerate(verts) if not v.dnt}
    by_hyperedge: dict[int, int] = defaultdict(int)
    by_users: dict[int, int] = defaultdict(int)
    for (chunk, drive, users), a in transmit.items():
        by_hyperedge[drive if io == "finite" else chunk] |= 1 << a
        by_users[users] |= 1 << a

    # the vertices reaching each user (rule 2) and those each member pattern
    # admits (rule 3); a vertex has one user mask, so summing by_users is a union
    single_rx = users_mask(j for j, r in enumerate(sys.rx, start=1) if r == 1)
    reaching = [sum(vs for users, vs in by_users.items() if users >> j & 1) for j in range(sys.num_users)]
    jointly = [(s, sum(by_users[m] for m in s)) for member, s in admitted.items() if member is not TrafficPattern.SINGLE_UNICAST]
    clash = dict.fromkeys(masks, sum(by_users.values()))
    for users in masks:
        for s, vs in jointly:
            if users in s:
                clash[users] &= ~vs
        for j in mask_users(users & single_rx, 0):
            clash[users] |= reaching[j]

    adj = [0] * len(verts)
    for (chunk, drive, users), a in transmit.items():
        adj[a] = (by_hyperedge[drive if io == "finite" else chunk] | clash[users]) & ~(1 << a)
    for a, v in enumerate(verts):
        if v.dnt:  # a companion is adjacent only to its own transmit vertex
            t = transmit[(v.chunk, v.drive, v.users)]
            adj[a] = 1 << t
            adj[t] |= 1 << a

    return ConflictGraph(
        vertices=tuple(verts),
        masks=tuple(adj),
        pattern=pattern,
        io_regime=io,
        system_hash=sys.content_hash(),
    )
