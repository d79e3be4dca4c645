"""Storage-network model: drives, chunks, users, and timeslot modes.

A physical storage network is a set of physical drives, each holding a
subset of the T file chunks and offering one or more service units.  Every
service unit becomes a *virtual drive* that can read one stored chunk per
timeslot and transmit it to a subset of the N users, subject to the active
traffic pattern.  A simultaneous set of deliveries is a *mode*; this module
decides mode validity and enumerates all valid modes by brute force.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .coding import CodedLayout

__all__ = [
    "TrafficPattern",
    "PhysicalDrive",
    "StorageSystem",
    "KnowledgeState",
    "Mode",
    "ModeVerdict",
    "SystemBuildError",
    "SizeGuardError",
    "build_system",
    "validate_mode",
    "enumerate_valid_modes",
    "parse_system_description",
    "SystemDescription",
]

MAX_USERS = 16
MODE_ENUM_TRIPLE_GUARD = 24
MISSING_NAMED = 5  # uncovered chunks named in the error; the rest are counted


class SystemBuildError(ValueError):
    """Raised when a system description violates a build-time invariant."""


class SizeGuardError(RuntimeError):
    """Raised when an exhaustive operation would exceed its size guard."""


class TrafficPattern(enum.Enum):
    SINGLE_UNICAST = "single_unicast"
    MULTIPLE_UNICAST = "multiple_unicast"
    BROADCAST = "broadcast"
    MULTICAST = "multicast"
    BROADCAST_OR_SINGLE_UNICAST = "broadcast_or_single_unicast"
    BROADCAST_OR_MULTIPLE_UNICAST = "broadcast_or_multiple_unicast"

    @property
    def members(self) -> tuple["TrafficPattern", ...]:
        """Member patterns of a composite pattern; ``(self,)`` otherwise."""
        if self is TrafficPattern.BROADCAST_OR_SINGLE_UNICAST:
            return (TrafficPattern.BROADCAST, TrafficPattern.SINGLE_UNICAST)
        if self is TrafficPattern.BROADCAST_OR_MULTIPLE_UNICAST:
            return (TrafficPattern.BROADCAST, TrafficPattern.MULTIPLE_UNICAST)
        return (self,)

    @property
    def is_composite(self) -> bool:
        return len(self.members) > 1


@dataclass(frozen=True)
class PhysicalDrive:
    """One physical drive: ``units`` service units, all sharing ``stores``."""

    units: int
    stores: frozenset[int]


@dataclass(frozen=True)
class StorageSystem:
    """Immutable storage network with expanded virtual drives.

    ``rx[j-1]`` is user j's multipacket-reception budget: the number of
    chunk deliveries that user may absorb in one timeslot.  ``coding`` is
    the layout a coded upper-bound system was transformed with (set only by
    ``coded_transform``); on such a system every stored chunk counts as
    innovative for every user regardless of history.
    """

    num_chunks: int
    num_users: int
    drives: tuple[PhysicalDrive, ...]
    rx: tuple[int, ...]
    coding: CodedLayout | None = field(default=None, hash=False)  # a layout holds dicts: unhashable

    @cached_property
    def virtual_drives(self) -> tuple[frozenset[int], ...]:
        """Chunk set per virtual drive, ordered by (physical drive, unit)."""
        out: list[frozenset[int]] = []
        for drive in self.drives:
            out.extend([drive.stores] * drive.units)
        return tuple(out)

    @property
    def num_virtual_drives(self) -> int:
        return len(self.virtual_drives)

    @cached_property
    def physical_index(self) -> tuple[int, ...]:
        """Physical drive number (1-based) behind each virtual drive."""
        out: list[int] = []
        for n, drive in enumerate(self.drives, start=1):
            out.extend([n] * drive.units)
        return tuple(out)

    def stores(self, chunk: int, vdrive: int) -> bool:
        """Connectivity matrix entry: is ``chunk`` on virtual drive ``vdrive``."""
        return chunk in self.virtual_drives[vdrive - 1]

    @cached_property
    def stored_pairs(self) -> tuple[tuple[int, int], ...]:
        """All (chunk, virtual drive) pairs with connectivity 1, chunk-major."""
        return tuple(
            (i, k)
            for i in range(1, self.num_chunks + 1)
            for k in range(1, self.num_virtual_drives + 1)
            if self.stores(i, k)
        )

    def content_hash(self) -> str:
        """Hash of the topology and, on a coded system, of its layout."""
        parts = [
            f"T={self.num_chunks}",
            f"N={self.num_users}",
            f"rx={','.join(map(str, self.rx))}",
            f"inn={int(self.coding is not None)}",
        ] + [
            f"d{n}:u{d.units}:{','.join(map(str, sorted(d.stores)))}"
            for n, d in enumerate(self.drives, start=1)
        ]
        layout = self.coding
        if layout is not None:
            parts += [
                f"{gen_id}:s{g.s}:{','.join(map(str, sorted(g.members)))}"
                for gen_id, g in sorted(layout.generations.items())
            ]
            parts += [f"n{n}:{gen_id}:{count}" for (n, gen_id), count in sorted(layout.counts.items())]
            parts.append(f"cyc={int(layout.coefficient_cycling)}")
        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class KnowledgeState:
    """Per-(chunk, user, virtual drive) innovation indicator.

    Stored sparsely as the set of *non-innovative* triples; entries for
    unstored (chunk, drive) pairs are always 0.
    """

    zeros: frozenset[tuple[int, int, int]] = frozenset()

    @classmethod
    def all_innovative(cls) -> "KnowledgeState":
        return cls(frozenset())

    def innovative(self, sys: StorageSystem, i: int, j: int, k: int) -> bool:
        if not sys.stores(i, k):
            return False
        if sys.coding is not None:
            return True
        return (i, j, k) not in self.zeros


@dataclass(frozen=True)
class Mode:
    """A set of simultaneous deliveries (chunk i, user j, virtual drive k)."""

    deliveries: frozenset[tuple[int, int, int]]

    @property
    def delivery_count(self) -> int:
        return len(self.deliveries)

    def usage_pairs(self) -> set[tuple[int, int]]:
        """Chunk-drive usage indicator support: pairs (i, k) with a delivery."""
        return {(i, k) for (i, _j, k) in self.deliveries}

    def users_of(self, i: int, k: int) -> set[int]:
        return {j for (ii, j, kk) in self.deliveries if ii == i and kk == k}

    def sort_key(self) -> tuple:
        return (len(self.deliveries), tuple(sorted(self.deliveries)))


@dataclass(frozen=True)
class ModeVerdict:
    valid: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.valid


@dataclass(frozen=True)
class SystemDescription:
    """Parsed system description file: topology plus optional run sections."""

    system: StorageSystem
    pattern: TrafficPattern | None = None
    coding: CodedLayout | None = None


def build_system(
    num_chunks: int,
    num_users: int,
    drives: list[tuple[int, set[int]]],
    rx: tuple[int, ...] | None = None,
) -> StorageSystem:
    """Build and validate a StorageSystem.

    ``drives`` lists (service units, stored chunk ids) per physical drive,
    in drive order.  Raises SystemBuildError for uncovered chunks, empty or
    out-of-range stored sets, or a reception budget outside {1} | {T, T+1,
    ...}.  Not every accepted budget is pairwise: conflict-graph stable sets
    are exactly the valid modes only if every rx is 1 or at least the most
    deliveries one user can get in a slot, the virtual-drive count (T when
    ``io="infinite"``); see ``qcnet.conflict``.
    """
    if num_chunks < 1 or num_users < 1:
        raise SystemBuildError("need at least one chunk and one user")
    if num_users > MAX_USERS:
        raise SystemBuildError(f"user count {num_users} exceeds cap {MAX_USERS}")
    if not drives:
        raise SystemBuildError("need at least one drive")
    if rx is None:
        rx = (1,) * num_users
    if len(rx) != num_users:
        raise SystemBuildError("rx must list one budget per user")
    for j, r in enumerate(rx, start=1):
        if r < 1:
            raise SystemBuildError(f"rx({j})={r} must be positive")
        if 1 < r < num_chunks:
            raise SystemBuildError(
                f"rx({j})={r} is not edge-based: need 1 or at least T={num_chunks}"
            )

    built: list[PhysicalDrive] = []
    covered: set[int] = set()
    for n, (units, stored) in enumerate(drives, start=1):
        if units < 1:
            raise SystemBuildError(f"drive {n}: units must be positive")
        stored_list = list(stored)
        if len(stored_list) != len(set(stored_list)):
            raise SystemBuildError(f"drive {n}: duplicate chunk replica on one drive")
        if not stored_list:
            raise SystemBuildError(f"drive {n}: stores no chunks")
        for i in stored_list:
            if not 1 <= i <= num_chunks:
                raise SystemBuildError(f"drive {n}: chunk f{i} out of range 1..{num_chunks}")
        covered.update(stored_list)
        built.append(PhysicalDrive(units=units, stores=frozenset(stored_list)))

    if len(covered) < num_chunks:  # every stored id is in range 1..num_chunks
        first = list(itertools.islice((i for i in itertools.count(1) if i not in covered), MISSING_NAMED))
        more = num_chunks - len(covered) - len(first)
        names = " ".join(f"f{i}" for i in first) + (f" ... and {more} more" if more else "")
        raise SystemBuildError(f"uncovered chunk: {names} stored on no drive")

    return StorageSystem(
        num_chunks=num_chunks,
        num_users=num_users,
        drives=tuple(built),
        rx=tuple(rx),
    )


def _pattern_violations(sys: StorageSystem, mode: Mode, pattern: TrafficPattern) -> list[str]:
    """Violated pattern constraints, treating a composite as satisfied when
    any one member pattern accepts the whole mode."""
    if pattern.is_composite:
        member_fails = [_pattern_violations(sys, mode, p) for p in pattern.members]
        if any(not f for f in member_fails):
            return []
        return [f"pattern:{pattern.value}"]

    out: list[str] = []
    if pattern is TrafficPattern.SINGLE_UNICAST:
        if mode.delivery_count > 1:
            out.append("pattern:single_unicast")
    elif pattern is TrafficPattern.MULTIPLE_UNICAST:
        for (i, k) in mode.usage_pairs():
            if len(mode.users_of(i, k)) > 1:
                out.append("pattern:multiple_unicast")
                break
    elif pattern is TrafficPattern.BROADCAST:
        for (i, k) in mode.usage_pairs():
            if len(mode.users_of(i, k)) != sys.num_users:
                out.append("pattern:broadcast")
                break
    elif pattern is TrafficPattern.MULTICAST:
        pass  # any fan-out up to N is allowed, which holds by construction
    return out


def validate_mode(
    sys: StorageSystem,
    knowledge: KnowledgeState,
    mode: Mode,
    pattern: TrafficPattern,
) -> ModeVerdict:
    """Check every timeslot constraint; constraint failure is a verdict.

    Raises ValueError only on shape mismatch (indices out of range).
    """
    for (i, j, k) in mode.deliveries:
        if not (1 <= i <= sys.num_chunks and 1 <= j <= sys.num_users and 1 <= k <= sys.num_virtual_drives):
            raise ValueError(f"delivery ({i},{j},{k}) out of range for system shape")

    violations: list[str] = []

    if any(not sys.stores(i, k) for (i, _j, k) in mode.deliveries):
        violations.append("unstored_delivery")
    if any(not knowledge.innovative(sys, i, j, k) for (i, j, k) in mode.deliveries):
        violations.append("innovation")

    for j in range(1, sys.num_users + 1):
        received = sum(1 for (i, jj, k) in mode.deliveries if jj == j and sys.stores(i, k))
        if received > sys.rx[j - 1]:
            violations.append(f"reception:u{j}")

    for k in range(1, sys.num_virtual_drives + 1):
        read = {i for (i, _j, kk) in mode.deliveries if kk == k}
        if len(read) > 1:
            violations.append(f"drive_read:D{k}")

    violations.extend(_pattern_violations(sys, mode, pattern))
    return ModeVerdict(valid=not violations, violations=tuple(violations))


def _drive_states(sys: StorageSystem, k: int) -> list[frozenset[tuple[int, int, int]]]:
    """All local states of virtual drive k: idle, or one stored chunk
    fanned out to one nonempty user subset."""
    states: list[frozenset[tuple[int, int, int]]] = [frozenset()]
    users = range(1, sys.num_users + 1)
    for i in sorted(sys.virtual_drives[k - 1]):
        for size in range(1, sys.num_users + 1):
            for subset in itertools.combinations(users, size):
                states.append(frozenset((i, j, k) for j in subset))
    return states


def enumerate_valid_modes(
    sys: StorageSystem,
    knowledge: KnowledgeState,
    pattern: TrafficPattern,
) -> tuple[Mode, ...]:
    """All nonempty valid modes, in canonical (size, delivery-tuple) order.

    Brute force over the product of per-drive local states, each candidate
    re-checked by validate_mode.  Guarded by the delivery-triple count.
    """
    triples = sys.num_users * sum(len(f) for f in sys.virtual_drives)
    if triples > MODE_ENUM_TRIPLE_GUARD:
        raise SizeGuardError(
            f"{triples} delivery triples exceed the exhaustive guard {MODE_ENUM_TRIPLE_GUARD}"
        )
    per_drive = [_drive_states(sys, k) for k in range(1, sys.num_virtual_drives + 1)]
    modes: list[Mode] = []
    for combo in itertools.product(*per_drive):
        deliveries = frozenset().union(*combo)
        if not deliveries:
            continue
        mode = Mode(deliveries)
        if validate_mode(sys, knowledge, mode, pattern).valid:
            modes.append(mode)
    modes.sort(key=Mode.sort_key)
    return tuple(modes)


# --- system description text format ---------------------------------------

_PATTERNS_BY_NAME = {p.value: p for p in TrafficPattern}


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise SystemBuildError(f"{where}: expected an integer, got {raw!r}") from None


def _parse_chunk_list(raw: str, where: str) -> list[int]:
    chunks: dict[int, None] = {}  # insertion-ordered set
    for tok in raw.split():
        if not tok.startswith("f") or not tok[1:].isdecimal():
            raise SystemBuildError(f"{where}: expected chunk tokens like f1, got {tok!r}")
        i = _parse_int(tok[1:], where)
        if i in chunks:
            raise SystemBuildError(f"{where}: repeated chunk f{i}")
        chunks[i] = None
    if not chunks:
        raise SystemBuildError(f"{where}: empty chunk list")
    return list(chunks)


def parse_system_description(text: str) -> SystemDescription:
    """Parse the line-oriented system description format.

    Sections: [system] (users/chunks), repeated [drive <n>] (units/stores),
    optional [traffic] (pattern/rx) and [coding] (generations, per-drive
    coded-chunk counts, coefficient_cycling).  '#' starts a comment.
    """
    from .coding import CodedLayout, Generation  # deferred: coding depends on system

    section: str | None = None
    sys_kv: dict[str, int] = {}
    drive_kv: dict[int, dict] = {}
    traffic_kv: dict = {}
    generations: dict[str, Generation] = {}
    coded_counts: dict[tuple[int, str], int] = {}
    coefficient_cycling: bool | None = None
    seen_sections: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        if line.startswith("[") and line.endswith("]"):
            header = line[1:-1].strip()
            if header in ("system", "traffic", "coding"):
                section = header
            elif header.startswith("drive "):
                parts = header.split()
                if len(parts) != 2:
                    raise SystemBuildError(f"{where}: bad drive section {line!r}")
                n = _parse_int(parts[1], where)
                section = f"drive:{n}"
                drive_kv[n] = {}
            else:
                raise SystemBuildError(f"{where}: unknown section {line!r}")
            if section in seen_sections:
                raise SystemBuildError(f"{where}: repeated section {line!r}")
            seen_sections.add(section)
            continue
        if section is None:
            raise SystemBuildError(f"{where}: content before any section")

        if section == "coding":
            if line.startswith("generation "):
                head, _, tail = line.partition("=")
                gen_id = head[len("generation "):].strip()
                if not gen_id:
                    raise SystemBuildError(f"{where}: generation line needs an id")
                chunk_part, _, s_part = tail.partition(";")
                members = _parse_chunk_list(chunk_part.strip(), where)
                s_key, _, s_val = s_part.partition("=")
                if s_key.strip() != "s":
                    raise SystemBuildError(f"{where}: generation line needs '; s = <int>'")
                if gen_id in generations:
                    raise SystemBuildError(f"{where}: repeated generation {gen_id!r}")
                generations[gen_id] = Generation(
                    gen_id=gen_id, members=frozenset(members), s=_parse_int(s_val.strip(), where)
                )
            elif line.startswith("drive "):
                toks = line.split()
                if len(toks) != 6 or toks[2] != "stores" or toks[4] != "of":
                    raise SystemBuildError(
                        f"{where}: expected 'drive <n> stores <count> of <gen-id>'"
                    )
                entry = (_parse_int(toks[1], where), toks[5])
                if entry in coded_counts:
                    raise SystemBuildError(f"{where}: repeated entry for drive {toks[1]} and {toks[5]!r}")
                coded_counts[entry] = _parse_int(toks[3], where)
            elif line.partition("=")[0].strip() == "coefficient_cycling":
                val = line.partition("=")[2].strip().lower()
                if val not in ("true", "false"):
                    raise SystemBuildError(f"{where}: coefficient_cycling must be true or false")
                if coefficient_cycling is not None:
                    raise SystemBuildError(f"{where}: repeated key 'coefficient_cycling' in [coding]")
                coefficient_cycling = val == "true"
            else:
                raise SystemBuildError(f"{where}: unknown [coding] entry {line!r}")
            continue

        key, eq, val = (part.strip() for part in line.partition("="))
        if eq != "=":
            raise SystemBuildError(f"{where}: expected 'key = value', got {line!r}")
        target = {
            "system": sys_kv,
            "traffic": traffic_kv,
        }.get(section)
        if target is None:
            n = int(section.split(":")[1])
            target = drive_kv[n]
        allowed = {
            "system": {"users", "chunks"},
            "traffic": {"pattern", "rx"},
        }.get(section, {"units", "stores"})
        if key not in allowed:
            raise SystemBuildError(f"{where}: unknown key {key!r} in [{section.split(':')[0]}]")
        if key in target:
            raise SystemBuildError(f"{where}: repeated key {key!r} in [{section.split(':')[0]}]")
        if key in ("users", "chunks", "units"):
            val = _parse_int(val, where)
        elif key == "rx":
            val = tuple(_parse_int(tok, where) for tok in val.split())
        elif key == "stores":
            val = _parse_chunk_list(val, where)
        elif key == "pattern":
            if val not in _PATTERNS_BY_NAME:
                raise SystemBuildError(f"{where}: unknown traffic pattern {val!r}")
            val = _PATTERNS_BY_NAME[val]
        target[key] = val

    if "users" not in sys_kv or "chunks" not in sys_kv:
        raise SystemBuildError("[system] must define users and chunks")

    if not drive_kv:
        raise SystemBuildError("no [drive <n>] sections")
    expected = list(range(1, len(drive_kv) + 1))
    if sorted(drive_kv) != expected:
        raise SystemBuildError("drive sections must be numbered 1..D consecutively")
    drives: list[tuple[int, set[int]]] = []
    for n in expected:
        kv = drive_kv[n]
        if "stores" not in kv:
            raise SystemBuildError(f"[drive {n}] missing stores")
        drives.append((kv.get("units", 1), set(kv["stores"])))

    system = build_system(sys_kv["chunks"], sys_kv["users"], drives, rx=traffic_kv.get("rx"))

    coding = None
    if "coding" in seen_sections:
        coding = CodedLayout(
            generations=dict(sorted(generations.items())),
            counts=dict(sorted(coded_counts.items())),
            coefficient_cycling=bool(coefficient_cycling),
        )
        coding.validate(system)

    return SystemDescription(system=system, pattern=traffic_kv.get("pattern"), coding=coding)
