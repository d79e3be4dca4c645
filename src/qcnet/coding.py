"""MDS coded-storage layouts, the rate-region upper-bound transform, and
degrees-of-freedom tracking.

A generation groups uncoded chunks that are mixed into its coded chunks;
any s distinct coded chunks of a generation decode the whole generation.
The upper-bound transform rewires the network so every flow whose chunk
belongs to a generation is servable by every drive holding a coded chunk
of that generation, with all deliveries counted innovative.
"""

from __future__ import annotations

from dataclasses import dataclass

from .system import PhysicalDrive, StorageSystem, SystemBuildError

__all__ = [
    "Generation",
    "CodedLayout",
    "DofTracker",
    "coded_transform",
    "check_achievable_unicast",
    "check_achievable_any",
    "update_knowledge",
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


@dataclass
class CodedLayout:
    """Coded chunk placement: per (physical drive, generation) counts.

    Coded chunk ids are synthesized as ``<gen>.<n>`` so they are unique
    system-wide; an explicit id assignment may be supplied instead via
    ``explicit_ids``, in which case uniqueness is validated.
    """

    generations: dict[str, Generation]
    counts: dict[tuple[int, str], int]
    coefficient_cycling: bool = False
    explicit_ids: dict[tuple[int, str], tuple[str, ...]] | None = None

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

        if self.explicit_ids is not None:
            flat: list[str] = []
            for key, ids in self.explicit_ids.items():
                if key not in self.counts or len(ids) != self.counts[key]:
                    raise SystemBuildError(f"explicit ids for {key} disagree with counts")
                flat.extend(ids)
            if len(flat) != len(set(flat)):
                raise SystemBuildError("replicated coded chunk id across drives")

    def alpha(self, gen_id: str) -> int:
        """Total coded chunks produced for a generation across all drives."""
        return sum(c for (_n, g), c in self.counts.items() if g == gen_id)

    def chunk_ids(self, n: int, gen_id: str) -> tuple[str, ...]:
        """Unique coded chunk ids stored by physical drive n for a generation."""
        if self.explicit_ids is not None and (n, gen_id) in self.explicit_ids:
            return self.explicit_ids[(n, gen_id)]
        count = self.counts.get((n, gen_id), 0)
        start = sum(c for (m, g), c in sorted(self.counts.items()) if g == gen_id and m < n)
        return tuple(f"{gen_id}.{start + idx + 1}" for idx in range(count))

    def generation_of(self, chunk: int) -> Generation | None:
        for gen in self.generations.values():
            if chunk in gen.members:
                return gen
        return None


def striped_layout(sys: StorageSystem, gen_id: str = "g1") -> CodedLayout:
    """One generation spanning all chunks with s = T, one coded chunk per drive.

    The layout used for the numerical studies; every drive's uncoded
    contents are replaced by coded content.
    """
    members = frozenset(range(1, sys.num_chunks + 1))
    gen = Generation(gen_id=gen_id, members=members, s=sys.num_chunks)
    counts = {(n, gen_id): 1 for n in range(1, len(sys.drives) + 1)}
    return CodedLayout(generations={gen_id: gen}, counts=counts)


def coded_transform(
    sys: StorageSystem, layout: CodedLayout
) -> tuple[StorageSystem, dict[tuple[int, int], int]]:
    """Upper-bound transform: returns the rewired system and the link multiset.

    Each coded chunk of generation g on drive n lets every virtual drive of
    n serve every member chunk of g, and the knowledge matrix is pinned to
    all-ones.  The link multiset maps (chunk, physical drive) to the number
    of parallel serving links: one per coded chunk of the covering
    generation on that drive, one for an untouched uncoded chunk.
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
        always_innovative=True,
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
    """Per (user, generation) receipt sets for exact coded bookkeeping.

    A user accumulates distinct coded chunk ids; at s receipts the
    generation is decoded and every chunk of it stops being innovative for
    that user.  Replica receipts before decoding are rejected.  With
    coefficient cycling every undecoded delivery counts as a fresh id.
    """

    def __init__(self, sys: StorageSystem, layout: CodedLayout):
        self.sys = sys
        self.layout = layout
        self.received: dict[tuple[int, str], set[str]] = {}
        self._cycle_serial = 0

    def received_ids(self, user: int, gen_id: str) -> frozenset[str]:
        return frozenset(self.received.get((user, gen_id), ()))

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

    def innovative_pairs(self, user: int) -> set[tuple[int, int]]:
        """(chunk, virtual drive) pairs currently innovative for ``user``."""
        out: set[tuple[int, int]] = set()
        k = 0
        for n, drive in enumerate(self.sys.drives, start=1):
            for _unit in range(drive.units):
                k += 1
                for i in sorted(drive.stores):
                    gen = self.layout.generation_of(i)
                    if gen is None:
                        out.add((i, k))  # plain uncoded chunk
                        continue
                    if self.decoded(user, gen.gen_id):
                        continue
                    held = self.received.get((user, gen.gen_id), set())
                    ids = self.layout.chunk_ids(n, gen.gen_id)
                    if self.layout.coefficient_cycling and ids:
                        out.add((i, k))
                    elif any(c not in held for c in ids):
                        out.add((i, k))
        return out


def update_knowledge(
    tracker: DofTracker,
    delivery: tuple[int, int, str],
    mode_flag: str = "exact",
) -> set[tuple[int, int]]:
    """Apply one coded receipt and return the user's innovation view.

    ``delivery`` is (user, chunk, coded chunk id); the chunk selects the
    generation.  In ``upper_bound`` mode nothing is tracked and every
    stored pair stays innovative.  In ``exact`` mode a replica receipt
    before decode raises SystemBuildError (rejected delivery); decoding at
    s receipts zeroes the generation's entries.  Returns the (chunk,
    virtual drive) pairs innovative for the user afterwards.
    """
    user, chunk, chunk_id = delivery
    gen = tracker.layout.generation_of(chunk)
    if gen is None:
        raise SystemBuildError(f"chunk f{chunk} belongs to no generation")
    if mode_flag == "upper_bound":
        return set(tracker.sys.stored_pairs)
    if mode_flag != "exact":
        raise ValueError(f"unknown mode flag {mode_flag!r}")
    if not tracker.record(user, gen.gen_id, chunk_id):
        raise SystemBuildError(
            f"rejected delivery: {chunk_id} is not innovative for user u{user}"
        )
    return tracker.innovative_pairs(user)
