"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from qcnet import (
    KnowledgeState,
    Mode,
    TrafficPattern,
    build_conflict_graph,
    build_frame_schedule,
    build_system,
    coded_transform,
    decompose_rate,
    enumerate_stable_sets,
    enumerate_valid_modes,
    find_net,
    flow_incidence,
    is_claw_free,
    is_perfect,
    is_quasi_line,
    parse_system_description,
    rate_region,
    striped_layout,
)
from qcnet.cli import TABLE_ROWS, compare_table, compute_compare_rows
from qcnet.schedule import MaxWeightPolicy
from qcnet.sim import ArrivalProcess, simulate, stability_verdict

DATA = Path(__file__).parent / "data"
ALL_ONES = KnowledgeState.all_innovative()


def sig3(value: float) -> float:
    return 0.0 if value == 0 else float(f"{value:.3g}")


def region_of(sys_, pattern, io="finite"):
    return rate_region(build_conflict_graph(sys_, pattern, io=io))


def parse_compare(table: str):
    lines = table.strip().splitlines()
    rows = {}
    for line in lines[1:-1]:
        name, uncoded, coded, delta = line.split("\t")
        rows[name] = (float(uncoded), float(coded), float(delta))
    average = float(lines[-1].split("\t")[-1])
    return rows, average


def test_criterion_1_worked_example_areas(ex1_system, ex4_system):
    start = time.perf_counter()
    areas = {
        "multicast": region_of(ex1_system, TrafficPattern.MULTICAST).volume(),
        "unicast": region_of(ex1_system, TrafficPattern.SINGLE_UNICAST).volume(),
        "broadcast": region_of(ex1_system, TrafficPattern.BROADCAST).volume(),
    }
    assert areas["multicast"] == Fraction(1)
    assert areas["unicast"] == Fraction(1, 2)
    assert areas["broadcast"] == Fraction(0)

    uncoded_mpr = region_of(ex4_system, TrafficPattern.MULTICAST).volume()
    assert uncoded_mpr == Fraction(1)
    coded_sys, _ = coded_transform(ex4_system, striped_layout(ex4_system))
    coded_mpr = region_of(coded_sys, TrafficPattern.MULTICAST).volume()
    assert coded_mpr == Fraction(2)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: areas 1, 1/2, 0, 1, 2 exact ({elapsed:.2f}s)")


def test_criterion_2_two_chunk_table():
    start = time.perf_counter()
    desc = parse_system_description((DATA / "ex6.txt").read_text())
    rows, average = parse_compare(compare_table(desc))
    expected = {
        "single_unicast": (0.0417, 0.0417, 0),
        "multiple_unicast": (0.1667, 0.25, 50),
        "multiple_unicast_mpr": (0.25, 0.6667, 167),
        "broadcast": (0, 0, 0),
        "broadcast_mpr": (0, 0, 0),
        "multicast": (0.25, 0.25, 0),
        "multicast_mpr": (1, 2.6667, 167),
    }
    for name, (u, c, delta) in expected.items():
        got_u, got_c, got_delta = rows[name]
        assert got_u == pytest.approx(u, abs=5e-5), name
        assert got_c == pytest.approx(c, abs=5e-5), name
        assert sig3(got_delta) == delta, name
    assert abs(average - 54.8) <= 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nPASS criterion 2: two-chunk table, average {average} ({elapsed:.2f}s)")


def test_criterion_3_three_chunk_table():
    start = time.perf_counter()
    desc = parse_system_description((DATA / "ex7.txt").read_text())
    rows, average = parse_compare(compare_table(desc))
    expected = {
        "single_unicast": (0.0014, 0.0014, 0),
        "multiple_unicast": (0.0236, 0.0278, 17.8),
        "multiple_unicast_mpr": (0.1250, 1.0125, 710),
        "broadcast": (0, 0, 0),
        "broadcast_mpr": (0, 0, 0),
        "multicast": (0.0278, 0.0278, 0),
        "multicast_mpr": (1, 8.1, 710),
    }
    for name, (u, c, delta) in expected.items():
        got_u, got_c, got_delta = rows[name]
        assert got_u == pytest.approx(u, abs=5e-5), name
        assert got_c == pytest.approx(c, abs=5e-5), name
        assert sig3(got_delta) == delta, name
    assert abs(average - 205.4) <= 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"\nPASS criterion 3: three-chunk table, average {average} ({elapsed:.2f}s)")


def test_criterion_4_incidence_goldens(ex1_system, ex4_system):
    counts = {}
    g = build_conflict_graph(ex1_system, TrafficPattern.MULTICAST)
    fam = enumerate_stable_sets(g)
    counts["ex1"] = fam.size
    inc = flow_incidence(fam)
    assert inc.per_flow[(1, 1)] == (1, 0, 1)
    assert inc.per_flow[(1, 2)] == (0, 1, 1)

    counts["ex2"] = enumerate_stable_sets(
        build_conflict_graph(ex1_system, TrafficPattern.SINGLE_UNICAST)
    ).size
    counts["ex3"] = enumerate_stable_sets(
        build_conflict_graph(ex1_system, TrafficPattern.BROADCAST)
    ).size

    coded_sys, _ = coded_transform(ex4_system, striped_layout(ex4_system))
    fam5 = enumerate_stable_sets(build_conflict_graph(coded_sys, TrafficPattern.MULTICAST))
    counts["ex5"] = fam5.size
    inc5 = flow_incidence(fam5)
    assert inc5.per_flow[(1, 1)] == (1, 1, 0, 0, 2, 1, 1, 0)
    assert inc5.per_flow[(2, 1)] == (0, 0, 1, 1, 0, 1, 1, 2)

    assert counts == {"ex1": 3, "ex2": 2, "ex3": 1, "ex5": 8}
    print(f"\nPASS criterion 4: incidence vectors and set counts {counts}")


def _covering_layouts(num_chunks: int):
    chunks = frozenset(range(1, num_chunks + 1))
    subsets = [
        frozenset(c)
        for r in range(1, num_chunks + 1)
        for c in itertools.combinations(sorted(chunks), r)
    ]
    yield [(1, set(chunks))]
    for d1 in subsets:
        for d2 in subsets:
            if d1 | d2 == chunks:
                yield [(1, set(d1)), (1, set(d2))]


def test_criterion_5_classification_suite():
    start = time.perf_counter()
    checked = 0
    for num_chunks in (2, 3):
        for num_users in (2, 3):
            for drives in _covering_layouts(num_chunks):
                base = build_system(num_chunks, num_users, drives, rx=(1,) * num_users)
                for pattern in (
                    TrafficPattern.SINGLE_UNICAST,
                    TrafficPattern.BROADCAST,
                    TrafficPattern.BROADCAST_OR_SINGLE_UNICAST,
                ):
                    g = build_conflict_graph(base, pattern)
                    verdict, _ = is_perfect(g)
                    assert verdict is True, (num_chunks, num_users, drives, pattern)
                g = build_conflict_graph(base, TrafficPattern.MULTIPLE_UNICAST)
                assert is_quasi_line(g)[0]
                mpr = build_system(
                    num_chunks, num_users, drives, rx=(num_chunks,) * num_users
                )
                g = build_conflict_graph(mpr, TrafficPattern.MULTICAST)
                assert is_quasi_line(g)[0]
                checked += 1

    claw_sys = build_system(3, 3, [(1, {1}), (1, {2}), (1, {3})], rx=(1, 1, 1))
    claw_graph = build_conflict_graph(claw_sys, TrafficPattern.MULTICAST)
    claw_free, witness = is_claw_free(claw_graph)
    assert not claw_free and witness is not None
    center, a, b, c = witness
    assert all(claw_graph.are_adjacent(center, x) for x in (a, b, c))
    assert not any(
        claw_graph.are_adjacent(x, y) for x, y in ((a, b), (a, c), (b, c))
    )

    net_sys = build_system(3, 1, [(1, {1, 2, 3})], rx=(1,))
    net_graph = build_conflict_graph(
        net_sys, TrafficPattern.BROADCAST, io="infinite", include_dnt=True
    )
    assert find_net(net_graph) is not None

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"\nPASS criterion 5: Table-I verdicts over {checked} systems, claw and net "
        f"witnesses found ({elapsed:.1f}s)"
    )


def _random_system(rng: random.Random):
    num_chunks = rng.randint(1, 3)
    num_users = rng.randint(1, 3)
    drives = []
    for _ in range(rng.randint(1, 3)):
        units = rng.randint(1, 2)
        stores = set(rng.sample(range(1, num_chunks + 1), rng.randint(1, num_chunks)))
        drives.append((units, stores))
    covered = set().union(*(d[1] for d in drives))
    drives[0] = (drives[0][0], drives[0][1] | (set(range(1, num_chunks + 1)) - covered))
    total_units = sum(d[0] for d in drives)
    rx = 1 if rng.random() < 0.5 else max(num_chunks, total_units) + rng.randint(0, 1)
    return build_system(num_chunks, num_users, drives, rx=(rx,) * num_users)


def test_criterion_6_oracle_equivalence():
    rng = random.Random(20240817)
    patterns = list(TrafficPattern)
    checked = 0
    while checked < 200:
        sys_ = _random_system(rng)
        pattern = rng.choice(patterns)
        if sys_.num_users * sum(len(f) for f in sys_.virtual_drives) > 24:
            continue
        if len(sys_.stored_pairs) * (2**sys_.num_users - 1) > 32:
            continue
        graph = build_conflict_graph(sys_, pattern)
        family = enumerate_stable_sets(graph)
        modes = enumerate_valid_modes(sys_, ALL_ONES, pattern)
        mapped = set()
        for members in family.sets:
            deliveries = frozenset().union(
                *(graph.vertices[v].deliveries() for v in members)
            )
            mapped.add(deliveries)
        assert len(mapped) == family.size, "stable-set to mode map must be injective"
        assert mapped == {m.deliveries for m in modes}
        checked += 1
    print(f"\nPASS criterion 6: stable sets biject with valid modes on {checked} systems")


BRACKET_CASES = (
    # (label, system builder, pattern, boundary point, test 1.05 side)
    ("ex1-multicast", lambda: build_system(1, 2, [(1, {1})], rx=(1, 1)),
     TrafficPattern.MULTICAST, (Fraction(1), Fraction(1)), False),
    ("ex1-multiple-unicast", lambda: build_system(1, 2, [(1, {1})], rx=(1, 1)),
     TrafficPattern.MULTIPLE_UNICAST, (Fraction(1, 2), Fraction(1, 2)), True),
    ("ex2-single-unicast", lambda: build_system(1, 2, [(1, {1})], rx=(1, 1)),
     TrafficPattern.SINGLE_UNICAST, (Fraction(1, 2), Fraction(1, 2)), True),
    ("ex6-multicast", lambda: build_system(2, 2, [(1, {1}), (1, {2})], rx=(1, 1)),
     TrafficPattern.MULTICAST, (Fraction(1, 2),) * 4, True),
)


def test_criterion_7_stability_bracketing():
    start = time.perf_counter()
    horizon = 100_000
    for label, builder, pattern, boundary, test_unstable in BRACKET_CASES:
        region = region_of(builder(), pattern)
        assert region.contains(boundary)
        frame = build_frame_schedule(decompose_rate(region, boundary))
        online = MaxWeightPolicy(region)
        scales = [Fraction(19, 20)] + ([Fraction(21, 20)] if test_unstable else [])
        for scale in scales:
            rates = tuple(scale * r for r in boundary)
            expect_stable = scale < 1
            assert region.contains(rates) is expect_stable
            for policy_name, policy in (("frame", frame), ("online", online)):
                for seed in (1, 2, 3):
                    trace = simulate(policy, ArrivalProcess(rates=rates, seed=seed), horizon)
                    verdict = stability_verdict(trace)
                    assert verdict.stable is expect_stable, (
                        label, policy_name, str(scale), seed, verdict,
                    )
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nPASS criterion 7: 0.95x stable / 1.05x unstable across policies and seeds ({elapsed:.1f}s)")


def test_criterion_8_coded_dominance(ex6_system, ex7_system):
    from dataclasses import replace

    for label, base in (("ex6", ex6_system), ("ex7", ex7_system)):
        layout = striped_layout(base)
        for name, pattern, mpr in TABLE_ROWS:
            uncoded_sys = (
                replace(base, rx=(base.num_chunks,) * base.num_users) if mpr else base
            )
            coded_sys, _ = coded_transform(uncoded_sys, layout)
            uncoded = region_of(uncoded_sys, pattern)
            coded = region_of(coded_sys, pattern)
            assert coded.volume() >= uncoded.volume(), (label, name)
            for vertex in uncoded.vertices():
                assert coded.contains(vertex), (label, name, vertex)
    print("\nPASS criterion 8: coded regions dominate uncoded on every pattern")
