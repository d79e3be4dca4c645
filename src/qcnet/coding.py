"""MDS coded-storage layouts, the rate-region upper-bound transform, and
degrees-of-freedom tracking.

A generation groups uncoded chunks that are mixed into its coded chunks;
any s distinct coded chunks of a generation decode the whole generation.
The upper-bound transform rewires the network so every flow whose chunk
belongs to a generation is servable by every drive holding a coded chunk
of that generation, with all deliveries counted innovative.  The
transformed system carries the layout it was built from, so a
``DofTracker`` for exact coded bookkeeping needs only the system.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .system import PhysicalDrive, StorageSystem, SystemBuildError

__all__ = [
    "Generation",
    "CodedLayout",
    "DofTracker",
    "coded_transform",
    "check_achievable_unicast",
    "check_achievable_any",
    "striped_layout",
]


@dataclass(frozen=True)
class Generation:
    """An (alpha, s) MDS generation over the uncoded chunk ids ``members``."""

    gen_id: str
    members: frozenset[int]
    s: int

    def __post_init__(self):
        if self.s < 1:
            raise SystemBuildError(f"generation {self.gen_id}: s must be positive")
        if not self.members:
            raise SystemBuildError(f"generation {self.gen_id}: empty member set")


@dataclass(frozen=True)
class CodedLayout:
    """Coded chunk placement: per (physical drive, generation) counts.

    ``generations`` and ``counts`` are read-only copies of the mappings
    given.  Coded chunk ids are synthesized as ``<gen>.<n>`` (see
    ``DofTracker``), so they are unique system-wide.
    """

    generations: Mapping[str, Generation]
    counts: Mapping[tuple[int, str], int]
    coefficient_cycling: bool = False

    def __post_init__(self):
        object.__setattr__(self, "generations", MappingProxyType(dict(self.generations)))
        object.__setattr__(self, "counts", MappingProxyType(dict(self.counts)))

    def validate(self, sys: StorageSystem) -> None:
        seen_member: dict[int, str] = {}
        for gen in self.generations.values():
            for i in gen.members:
                if not 1 <= i <= sys.num_chunks:
                    raise SystemBuildError(f"generation {gen.gen_id}: chunk f{i} out of range")
                if i in seen_member:
                    raise SystemBuildError(
                        f"chunk f{i} appears in generations {seen_member[i]} and {gen.gen_id}"
                    )
                seen_member[i] = gen.gen_id

        for (n, gen_id), count in self.counts.items():
            if gen_id not in self.generations:
                raise SystemBuildError(f"drive {n} stores unknown generation {gen_id}")
            if not 1 <= n <= len(sys.drives):
                raise SystemBuildError(f"[coding] references unknown drive {n}")
            if count < 1:
                raise SystemBuildError(f"drive {n}: coded count for {gen_id} must be positive")

        for gen_id, gen in self.generations.items():
            alpha = self.alpha(gen_id)
            if alpha and alpha < gen.s:
                raise SystemBuildError(
                    f"generation {gen_id}: only {alpha} coded chunks exist but s={gen.s}"
                )

        # every replica of a coded chunk must itself be coded: a drive holding
        # a generation member must hold coded chunks of that generation,
        # which replace its uncoded copies
        for n, drive in enumerate(sys.drives, start=1):
            for i in sorted(drive.stores):
                gen_id = seen_member.get(i)
                if gen_id is not None and self.counts.get((n, gen_id), 0) == 0:
                    raise SystemBuildError(
                        f"mixed replicas: drive {n} would keep f{i} uncoded while "
                        f"other replicas are coded in {gen_id}"
                    )

    def alpha(self, gen_id: str) -> int:
        """Total coded chunks produced for a generation across all drives."""
        return sum(c for (_n, g), c in self.counts.items() if g == gen_id)


def striped_layout(sys: StorageSystem) -> CodedLayout:
    """One generation spanning all chunks with s = T, one coded chunk per drive.

    The layout used for the numerical studies; every drive's uncoded
    contents are replaced by coded content.
    """
    members = frozenset(range(1, sys.num_chunks + 1))
    gen = Generation(gen_id="g1", members=members, s=sys.num_chunks)
    counts = {(n, "g1"): 1 for n in range(1, len(sys.drives) + 1)}
    return CodedLayout(generations={"g1": gen}, counts=counts)


def coded_transform(
    sys: StorageSystem, layout: CodedLayout
) -> tuple[StorageSystem, dict[tuple[int, int], int]]:
    """Upper-bound transform: returns the rewired system and the link multiset.

    Each coded chunk of generation g on drive n lets every virtual drive of
    n serve every member chunk of g, and the knowledge matrix is pinned to
    all-ones; the rewired system's ``coding`` is ``layout``.  The link
    multiset maps (chunk, physical drive) to the number of parallel serving
    links: one per coded chunk of the covering generation on that drive,
    one for an untouched uncoded chunk.
    """
    layout.validate(sys)
    coded_members: frozenset[int] = (
        frozenset().union(*(g.members for g in layout.generations.values()))
        if layout.generations
        else frozenset()
    )

    links: dict[tuple[int, int], int] = {}
    new_drives: list[PhysicalDrive] = []
    for n, drive in enumerate(sys.drives, start=1):
        effective = set(drive.stores) - set(coded_members)  # untouched uncoded chunks
        for l in effective:
            links[(l, n)] = links.get((l, n), 0) + 1
        for (m, gen_id), count in layout.counts.items():
            if m != n:
                continue
            gen = layout.generations[gen_id]
            effective |= set(gen.members)
            for l in gen.members:
                links[(l, n)] = links.get((l, n), 0) + count
        if not effective:
            raise SystemBuildError(f"drive {n} stores nothing after the coded transform")
        new_drives.append(PhysicalDrive(units=drive.units, stores=frozenset(effective)))

    transformed = StorageSystem(
        num_chunks=sys.num_chunks,
        num_users=sys.num_users,
        drives=tuple(new_drives),
        rx=sys.rx,
        coding=layout,
    )
    return transformed, links


def _count_violations(layout: CodedLayout, extra: int) -> tuple[bool, list[tuple[int, str, int, int]]]:
    """Every touched (drive, generation) must hold at least s + extra coded
    chunks; violations list (drive, generation, stored, required)."""
    violations = []
    for (n, gen_id), count in sorted(layout.counts.items()):
        required = layout.generations[gen_id].s + extra
        if count < required:
            violations.append((n, gen_id, count, required))
    return (not violations, violations)


def check_achievable_unicast(layout: CodedLayout) -> tuple[bool, list[tuple[int, str, int, int]]]:
    """Unicast achievability: every touched (drive, generation) must hold at
    least s coded chunks of that generation (s-1 additional ones)."""
    return _count_violations(layout, 0)


def check_achievable_any(
    layout: CodedLayout, num_users: int
) -> tuple[bool, list[tuple[int, str, int, int]]]:
    """General-pattern achievability: every touched (drive, generation) must
    hold at least s + N + 1 coded chunks (s + N additional ones)."""
    return _count_violations(layout, num_users + 1)


class DofTracker:
    """Per (user, generation) receipt sets for exact coded bookkeeping, and
    the rule for which coded chunk a read carries.

    A user accumulates distinct coded chunk ids; at s receipts the
    generation is decoded and every chunk of it stops being innovative for
    that user.  Replica receipts before decoding are rejected.  With
    coefficient cycling every undecoded delivery counts as a fresh id.

    Coded chunk ids are ``<gen>.<n>``, numbered 1..alpha per generation in
    physical drive order; the (physical drive, generation) -> ids table is
    built once here from the coded system's layout, and ``read`` serves one
    read from it.
    """

    def __init__(self, sys: StorageSystem):
        layout = sys.coding
        if layout is None:
            raise ValueError("DofTracker needs a coded system (one returned by coded_transform)")
        self.sys = sys
        self.layout = layout
        self.received: dict[tuple[int, str], set[str]] = {}
        self._cycle_serial = 0
        self._generation_of = {i: g for g in layout.generations.values() for i in g.members}
        # key (None, gen) holds every id of the generation, in drive order
        self._ids: dict[tuple[int | None, str], tuple[str, ...]] = {}
        for (n, gen_id), count in sorted(layout.counts.items()):
            issued = self._ids.get((None, gen_id), ())
            ids = tuple(f"{gen_id}.{len(issued) + c}" for c in range(1, count + 1))
            self._ids[(n, gen_id)] = ids
            self._ids[(None, gen_id)] = issued + ids

    def remaining(self, user: int, gen_id: str) -> int:
        got = len(self.received.get((user, gen_id), ()))
        return max(0, self.layout.generations[gen_id].s - got)

    def decoded(self, user: int, gen_id: str) -> bool:
        return self.remaining(user, gen_id) == 0

    def would_accept(self, user: int, gen_id: str, chunk_id: str) -> bool:
        if self.decoded(user, gen_id):
            return False
        if self.layout.coefficient_cycling:
            return True
        return chunk_id not in self.received.get((user, gen_id), set())

    def record(self, user: int, gen_id: str, chunk_id: str) -> bool:
        """Record one receipt; False means the delivery was rejected."""
        if not self.would_accept(user, gen_id, chunk_id):
            return False
        if self.layout.coefficient_cycling:
            self._cycle_serial += 1
            chunk_id = f"cycle.{self._cycle_serial}"
        self.received.setdefault((user, gen_id), set()).add(chunk_id)
        return True

    def read(
        self, chunk: int, drive: int | None, users: tuple[int, ...], pending: set[int]
    ) -> tuple[list[int], int]:
        """Serve one read of ``chunk`` by virtual drive ``drive`` to ``users``.

        ``pending`` holds the users with a queued request for the chunk;
        returns (the pending users served, the pending users who rejected
        the read).  An uncoded chunk serves every pending user.  A coded
        read carries the stored coded id the most pending users would
        accept, the first on ties; ``drive=None`` (infinite I/O) may carry
        any coded id of the generation, in drive order.  Every user who
        accepts the read records it, pending or not.
        """
        gen = self._generation_of.get(chunk)
        if gen is None:
            return [j for j in users if j in pending], 0
        n = None if drive is None else self.sys.physical_index[drive - 1]
        ids = self._ids.get((n, gen.gen_id))
        if not ids:
            return [], 0
        chosen = max(ids, key=lambda cid: sum(self.would_accept(j, gen.gen_id, cid) for j in pending))
        served: list[int] = []
        rejected = 0
        for j in users:
            if self.record(j, gen.gen_id, chosen):
                if j in pending:
                    served.append(j)
            elif j in pending:
                rejected += 1
        return served, rejected
