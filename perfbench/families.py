"""Seeded storage systems for the graph-families workload.

Each shape fixes the chunk and user counts, the drives (service units
and how many chunks each stores), the reception budget (1 or T) and the
traffic pattern.  Which chunks each drive stores is drawn once per
layout from a fixed stream, not from the seed: two layouts of one shape
can differ in cost by half (a 3-chunk broadcast-or-single-unicast shape
took 11 or 17 ms), and with seeded layouts the jobs near the workload's
median moved from one run to the next.  The seed orders the drives of
each system, and so the vertex order of its graph, and orders the jobs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from qcnet import (
    ClassificationReport,
    TrafficPattern,
    build_conflict_graph,
    build_system,
    enumerate_stable_sets,
    flow_incidence,
    is_claw_free,
    is_perfect,
    is_quasi_line,
)
from qcnet.classify import PERFECT_CAP

import checks
from harness import Job


@dataclass(frozen=True)
class Shape:
    chunks: int
    users: int
    drives: tuple[tuple[int, int], ...]  # (service units, chunks stored) per drive
    mpr: bool  # rx = T for every user; rx = 1 otherwise
    pattern: str
    layouts: int = 3  # layouts of this shape per pass


# criterion-6 check: only systems whose brute-force mode search is this small
MODE_CHECK_LIMIT = 20_000


def brute_force_modes(system) -> int:
    """Candidate modes ``enumerate_valid_modes`` tries: the product over
    virtual drives of (1 + stored chunks * nonempty user subsets)."""
    subsets = 2**system.num_users - 1
    total = 1
    for stored in system.virtual_drives:
        total *= 1 + len(stored) * subsets
    return total


def pairwise_reception(system) -> bool:
    """Whether every reception budget is a pairwise constraint: rx = 1, or
    no fewer than the virtual drives.  With 1 < rx < drives, a user could
    be sent more deliveries than rx by a set that no pair of them
    violates; stable sets then outnumber valid modes (CHANGES.md, FOUND)."""
    drives = system.num_virtual_drives
    return all(r == 1 or r >= drives for r in system.rx)


def _single(n: int) -> tuple[tuple[int, int], ...]:
    return ((1, 1),) * n


SHAPES = (
    # the incidence-heavy family: 4**5 * 10 - 1 = 10,239 stable sets
    Shape(5, 3, _single(5) + ((1, 3),), True, "multiple_unicast", layouts=1),
    Shape(6, 3, _single(6), True, "multiple_unicast", layouts=1),
    Shape(4, 4, _single(4), True, "multiple_unicast"),
    Shape(3, 3, ((1, 2), (1, 2), (1, 1)), False, "multiple_unicast"),
    Shape(4, 2, ((2, 2), (1, 2), (1, 1)), True, "multiple_unicast"),
    Shape(6, 4, _single(6), False, "single_unicast"),
    Shape(3, 5, ((1, 2), (1, 2), (1, 1)), False, "single_unicast"),
    Shape(4, 3, ((2, 3), (1, 2)), True, "single_unicast"),
    Shape(4, 3, _single(4), True, "multicast", layouts=1),
    Shape(3, 3, _single(3), False, "multicast"),
    Shape(2, 3, ((1, 2), (1, 1), (1, 1)), True, "multicast"),
    Shape(3, 2, ((1, 2), (2, 1), (1, 2)), True, "multicast"),
    Shape(5, 2, _single(5), True, "multicast"),
    Shape(6, 4, _single(6), False, "broadcast"),
    Shape(6, 4, _single(6), True, "broadcast"),
    Shape(4, 3, ((2, 2), (1, 3), (1, 2)), True, "broadcast"),
    Shape(3, 2, ((1, 2), (1, 2)), True, "broadcast"),
    Shape(6, 3, _single(6), True, "broadcast_or_single_unicast"),
    Shape(3, 3, ((1, 2), (1, 2), (1, 1)), False, "broadcast_or_single_unicast"),
    Shape(4, 4, _single(4), True, "broadcast_or_multiple_unicast"),
    Shape(3, 3, ((1, 2), (1, 1), (1, 2)), False, "broadcast_or_multiple_unicast"),
    Shape(2, 2, ((1, 1), (1, 1)), False, "multicast"),
    Shape(2, 2, ((1, 2),), True, "multiple_unicast"),
)


def draw_layout(shape: Shape, rng: random.Random) -> list[tuple[int, set[int]]]:
    """(units, stored chunks) per drive, drawn from ``rng``; every chunk is stored."""
    chunks = list(range(1, shape.chunks + 1))
    while True:
        drives = [(units, set(rng.sample(chunks, count))) for units, count in shape.drives]
        if set().union(*(d[1] for d in drives)) == set(chunks):
            rng.shuffle(drives)
            return drives


def generated_systems(seed: int) -> list[tuple[Shape, list[tuple[int, set[int]]]]]:
    """``layouts`` fixed layouts per shape, drives and jobs in seeded order."""
    rng = random.Random(seed)
    out = []
    for index, shape in enumerate(SHAPES):
        fixed = random.Random(index)
        for _ in range(shape.layouts):
            drives = draw_layout(shape, fixed)
            rng.shuffle(drives)
            out.append((shape, drives))
    rng.shuffle(out)
    return out


def graph_families(seed: int):
    systems = []
    for shape, drives in generated_systems(seed):
        rx = (shape.chunks if shape.mpr else 1,) * shape.users
        system = build_system(shape.chunks, shape.users, drives, rx=rx)
        systems.append((system, TrafficPattern(shape.pattern)))

    def make(system, pattern):
        def fn(tr):
            with tr.span("conflict.build") as c:
                graph = build_conflict_graph(system, pattern)
            if tr.enabled:
                c.update(vertices=graph.num_vertices, edges=graph.num_edges)
            with tr.span("classify.claw"):
                claw_free, claw = is_claw_free(graph)
            with tr.span("classify.quasi_line"):
                quasi_line, ql_witness = is_quasi_line(graph)
            with tr.span("classify.perfect"):
                perfect, hole = is_perfect(graph)
            with tr.span("stableset.enumerate") as c:
                family = enumerate_stable_sets(graph)
            if tr.enabled:
                c["sets"] = family.size
            with tr.span("stableset.incidence"):
                incidence = flow_incidence(family)
            report = ClassificationReport(
                claw_free, claw, quasi_line, ql_witness, perfect, hole, net_witness=None
            )
            answer = (graph.num_vertices, family.size, claw_free, claw, quasi_line,
                      ql_witness, perfect, hole)
            return answer, (graph, report, family, incidence)

        return fn

    jobs = [Job(f"{pattern.value}:{system.content_hash()}", make(system, pattern))
            for system, pattern in systems]

    def check(answers):
        errors = []
        for (system, pattern), out in zip(systems, answers):
            if out is None:
                continue
            graph, report, family, incidence = out[1]
            found = checks.check_classification(graph, report, PERFECT_CAP)
            found += checks.check_family(graph, family, incidence)
            if pairwise_reception(system) and brute_force_modes(system) <= MODE_CHECK_LIMIT:
                found += checks.check_modes(system, pattern, graph, family)
            errors += [f"{pattern.value} {system.content_hash()}: {e}" for e in found]
        return errors

    return jobs, check
