"""Workloads over the paper's ex6/ex7 tables: region-tables, rate-queries
and queue-sim.

Every layer call a job makes is wrapped in a tracer span named after the
module it enters; with tracing off the spans are no-ops.
"""

from __future__ import annotations

import random
from fractions import Fraction

from qcnet import (
    ArrivalProcess,
    MaxWeightPolicy,
    build_conflict_graph,
    build_frame_schedule,
    build_system,
    coded_transform,
    decompose_rate,
    enumerate_stable_sets,
    flow_incidence,
    parse_system_description,
    rate_region,
    simulate,
    stability_verdict,
    TrafficPattern,
)

import checks
from examples import table_cells
from harness import NULL, Job

# Slots per simulation.  At the program's 10,000-slot verdict minimum,
# 0.95x frame-policy runs on the ex7 unicast regions were judged unstable
# in 14 of 1,204 runs; at 30,000 slots no run was misjudged.
HORIZON = 30_000
CRITERION_7_STREAMS = 3  # arrival streams per criterion-7 case, as in its test
LOW, HIGH = Fraction(19, 20), Fraction(21, 20)


# --- shared: one exact region from a description text ------------------------


def build_region(tr, text: str, coded: bool):
    """parse -> coded transform -> conflict graph -> stable sets -> incidence
    -> region; returns the region (its hull is not built here)."""
    with tr.span("system.parse"):
        desc = parse_system_description(text)
    system = desc.system
    if coded:
        with tr.span("coding.transform"):
            system, _links = coded_transform(system, desc.coding)
    with tr.span("conflict.build") as c:
        graph = build_conflict_graph(system, desc.pattern)
    if tr.enabled:
        c.update(vertices=graph.num_vertices, edges=graph.num_edges)
    with tr.span("stableset.enumerate") as c:
        family = enumerate_stable_sets(graph)
    if tr.enabled:
        c["sets"] = family.size
    with tr.span("stableset.incidence"):
        incidence = flow_incidence(family)
    return rate_region(graph, family, incidence)


def hull_volume(tr, region) -> Fraction:
    with tr.span("geometry.hull") as c:
        volume = region.volume()
    if tr.enabled:
        hull = region.hull
        c.update(
            points=len(checks.region_points(region)),
            vertices=len(hull.vertices),
            facets=len(hull.facets),
        )
    return volume


def build_cells(tr, seed: int) -> list[tuple[str, str, bool, object]]:
    """All 28 (example, row, coded, region) cells with hulls built."""
    out = []
    for ex, row, coded, text in table_cells(seed):
        region = build_region(tr, text, coded)
        hull_volume(tr, region)
        out.append((ex, row, coded, region))
    return out


def symmetric_boundary(region) -> Fraction:
    """Largest t with t*(1,...,1) in the region, from its H-representation."""
    return min(Fraction(b) / sum(a) for a, b in region.hull.facets if sum(a) > 0)


# --- region-tables -----------------------------------------------------------


def region_tables(seed: int):
    cells = table_cells(seed)

    def make(text, coded):
        def fn(tr):
            region = build_region(tr, text, coded)
            return hull_volume(tr, region), region

        return fn

    jobs = [Job(f"{ex}:{row}:{'coded' if coded else 'uncoded'}", make(text, coded))
            for ex, row, coded, text in cells]

    def check(answers):
        results = [(ex, row, coded, a) for (ex, row, coded, _t), a in zip(cells, answers)]
        return checks.check_region_tables(results)

    return jobs, check


# --- rate-queries ------------------------------------------------------------


def _far_vertex(region):
    """Hull vertex with the largest coordinate sum (last in sorted order on ties)."""
    return max(region.hull.vertices, key=lambda v: (sum(v), v))


def rate_queries(seed: int):
    cells = build_cells(NULL, seed)
    by_key = {(ex, row, coded): region for ex, row, coded, region in cells}
    queries = []  # (kind, label, region, vector, expected verdict or None)
    for ex, row, coded, region in cells:
        name = f"{ex}:{row}:{'coded' if coded else 'uncoded'}"
        far = _far_vertex(region)
        if not coded:
            queries.append(("contains", f"{name}:upper", by_key[(ex, row, True)], far, True))
        queries.append(("contains", f"{name}:out", region, tuple(HIGH * x for x in far), False))
        t = symmetric_boundary(region)
        queries.append(("decompose", f"{name}:frame", region, (t,) * region.dimension, None))
    random.Random(seed).shuffle(queries)

    def contains_job(region, vector):
        columns = sum(1 for p in checks.region_points(region) if any(p))
        hull_vertices = sum(1 for v in region.hull.vertices if any(v))

        def fn(tr):
            with tr.span("region.contains", columns=columns, vertices=hull_vertices):
                verdict = region.contains(vector)
            return verdict, None

        return fn

    def decompose_job(region, vector):
        def fn(tr):
            with tr.span("schedule.decompose") as c:
                decomp = decompose_rate(region, vector)
            with tr.span("schedule.frame") as cf:
                frame = build_frame_schedule(decomp)
            if tr.enabled:
                c["support"] = len(decomp.support())
                cf["slots"] = frame.frame_size
            return (decomp.phis, frame.slots), (decomp, frame)

        return fn

    jobs = []
    for kind, label, region, vector, _expected in queries:
        make = contains_job if kind == "contains" else decompose_job
        jobs.append(Job(f"{kind}:{label}", make(region, vector)))

    def check(answers):
        return checks.check_rate_queries(cells, queries, answers)

    return jobs, check


# --- queue-sim ---------------------------------------------------------------

# criterion-7 cases: (label, chunks, users, drives, pattern, boundary point)
CRITERION_7 = (
    ("ex1-multicast", 1, 2, [(1, {1})], "multicast", (Fraction(1),) * 2),
    ("ex1-multiple-unicast", 1, 2, [(1, {1})], "multiple_unicast", (Fraction(1, 2),) * 2),
    ("ex2-single-unicast", 1, 2, [(1, {1})], "single_unicast", (Fraction(1, 2),) * 2),
    ("ex6-multicast", 2, 2, [(1, {1}), (1, {2})], "multicast", (Fraction(1, 2),) * 4),
)


def queue_sim(seed: int):
    rng = random.Random(seed)
    cases = []  # (label, region, boundary point, arrival streams)
    for label, chunks, users, drives, pattern, boundary in CRITERION_7:
        system = build_system(chunks, users, drives, rx=(1,) * users)
        graph = build_conflict_graph(system, TrafficPattern(pattern))
        cases.append((label, rate_region(graph), boundary, CRITERION_7_STREAMS))
    for ex, row, coded, region in build_cells(NULL, seed):
        if region.hull.dim == region.dimension:
            t = symmetric_boundary(region)
            label = f"{ex}:{row}:{'coded' if coded else 'uncoded'}"
            cases.append((label, region, (t,) * region.dimension, 1))

    sims = []  # (label, scale, rates, arrival seed, frame, max-weight policy)
    for label, region, boundary, streams in cases:
        frame = build_frame_schedule(decompose_rate(region, boundary))
        online = MaxWeightPolicy(region)
        for scale in (LOW, HIGH):
            rates = tuple(scale * x for x in boundary)
            if max(rates) > 1:
                continue  # a Bernoulli stream carries at most one request per slot
            for stream in range(streams):
                sims.append((f"{label}#{stream}", scale, rates, rng.getrandbits(63), frame, online))
    rng.shuffle(sims)

    def make(policy, kind, rates, arrival_seed):
        sets = policy.region.family.size

        def fn(tr):
            arrivals = ArrivalProcess(rates=rates, seed=arrival_seed)
            with tr.span(f"sim.{kind}", slots=HORIZON, sets=sets):
                trace = simulate(policy, arrivals, HORIZON)
            with tr.span("sim.verdict"):
                verdict = stability_verdict(trace)
            answer = (verdict.stable, verdict.max_backlog,
                      tuple(int(x) for x in trace.served), tuple(int(x) for x in trace.final_queues))
            return answer, None

        return fn

    jobs = []
    specs = []
    for label, scale, rates, arrival_seed, frame, online in sims:
        for kind, policy in (("frame", frame), ("maxweight", online)):
            jobs.append(Job(f"{label}:{scale}:{kind}", make(policy, kind, rates, arrival_seed)))
            specs.append((label, kind, scale, rates, arrival_seed))

    def check(answers):
        return checks.check_queue_sim(specs, answers, HORIZON)

    return jobs, check
