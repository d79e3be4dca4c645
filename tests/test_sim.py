from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from qcnet import (
    ArrivalProcess,
    TrafficPattern,
    build_conflict_graph,
    build_frame_schedule,
    build_system,
    decompose_rate,
    rate_region,
    simulate,
    stability_verdict,
    striped_layout,
)
from qcnet.coding import CodedLayout, Generation, coded_transform
from qcnet.schedule import IDLE, FrameSchedule, MaxWeightPolicy
from qcnet.sim import StabilityVerdict
from reference_coded import reference_simulate
from test_acceptance import BRACKET_CASES


def test_arrivals_reject_rates_above_one():
    with pytest.raises(ValueError):
        ArrivalProcess(rates=(Fraction(11, 10),), seed=0)


def test_zero_arrivals_stay_empty(ex1_multicast_region):
    arrivals = ArrivalProcess(rates=(Fraction(0), Fraction(0)), seed=1)
    trace = simulate(MaxWeightPolicy(ex1_multicast_region), arrivals, 20_000)
    assert trace.backlog.max() == 0
    verdict = stability_verdict(trace)
    assert verdict.stable and verdict.slope == 0


def test_reproducible_traces(ex1_multicast_region):
    arrivals = ArrivalProcess(rates=(Fraction(1, 2), Fraction(1, 2)), seed=33)
    policy = MaxWeightPolicy(ex1_multicast_region)
    t1 = simulate(policy, arrivals, 15_000)
    t2 = simulate(policy, arrivals, 15_000)
    assert np.array_equal(t1.backlog, t2.backlog)
    assert np.array_equal(t1.served, t2.served)


def test_seed_changes_trace(ex1_unicast_region):
    policy = MaxWeightPolicy(ex1_unicast_region)
    a = simulate(policy, ArrivalProcess(rates=(Fraction(2, 5),) * 2, seed=1), 15_000)
    b = simulate(policy, ArrivalProcess(rates=(Fraction(2, 5),) * 2, seed=2), 15_000)
    assert not np.array_equal(a.backlog, b.backlog)


def test_backlog_conservation(ex1_unicast_region):
    arrivals = ArrivalProcess(rates=(Fraction(2, 5), Fraction(2, 5)), seed=9)
    trace = simulate(MaxWeightPolicy(ex1_unicast_region), arrivals, 12_000)
    drawn = arrivals.draw(12_000).sum()
    assert trace.backlog[-1] == drawn - trace.served.sum()
    assert (trace.backlog >= 0).all()


def test_services_bounded_by_active_set(ex1_unicast_region):
    # single-unicast sets serve at most one request per slot
    arrivals = ArrivalProcess(rates=(Fraction(9, 10), Fraction(9, 10)), seed=2)
    trace = simulate(MaxWeightPolicy(ex1_unicast_region), arrivals, 10_000)
    assert trace.served.sum() <= 10_000


def test_frame_policy_stabilizes_admissible_point(ex1_multicast_region):
    # frame realizes the dominating boundary point; arrivals run below it
    rho = (Fraction(9, 10), Fraction(9, 10))
    frame = build_frame_schedule(decompose_rate(ex1_multicast_region, (1, 1)))
    trace = simulate(frame, ArrivalProcess(rates=rho, seed=4), 100_000)
    verdict = stability_verdict(trace)
    assert verdict.stable
    assert trace.backlog.max() <= 50


def test_online_policy_goes_unstable_outside(ex1_unicast_region):
    rho = (Fraction(11, 20), Fraction(11, 20))  # sum 1.1 > capacity 1
    trace = simulate(MaxWeightPolicy(ex1_unicast_region), ArrivalProcess(rates=rho, seed=4), 100_000)
    verdict = stability_verdict(trace)
    assert not verdict.stable
    # drift matches the 0.1/slot oversubscription
    assert 0.05 <= verdict.slope <= 0.2


def test_verdict_requires_long_horizon(ex1_multicast_region):
    arrivals = ArrivalProcess(rates=(Fraction(0), Fraction(0)), seed=0)
    trace = simulate(MaxWeightPolicy(ex1_multicast_region), arrivals, 100)
    with pytest.raises(ValueError, match="too short"):
        stability_verdict(trace)


def test_exact_coded_mode_consults_tracker(ex4_system):
    layout = striped_layout(ex4_system)
    coded, _ = coded_transform(ex4_system, layout)
    region = rate_region(build_conflict_graph(coded, TrafficPattern.MULTICAST))
    arrivals = ArrivalProcess(rates=(Fraction(1, 2), Fraction(1, 2)), seed=7)
    exact = simulate(MaxWeightPolicy(region), arrivals, 20_000, exact_coding=coded)
    unbounded = simulate(MaxWeightPolicy(region), arrivals, 20_000)
    # with s=2 and only two coded chunks, each user decodes once and then
    # stops accepting; the exact trace serves strictly less
    assert exact.served.sum() < unbounded.served.sum()
    assert exact.served.sum() <= 4


def test_trace_export_format(ex1_multicast_region):
    arrivals = ArrivalProcess(rates=(Fraction(0), Fraction(0)), seed=0)
    trace = simulate(MaxWeightPolicy(ex1_multicast_region), arrivals, 3)
    assert trace.export_text() == "0\t0\n1\t0\n2\t0\n"
    verdict = StabilityVerdict(stable=True, slope=0.0, max_backlog=0)
    assert verdict.summary_line() == "stable\t0.000000\t0"


def random_coded_case(rng: random.Random):
    """A random finite-regime coded layout with a policy and arrivals:
    T <= 4 chunks, 1-2 users, 1-3 drives of 1-2 units, 1-3 generations.
    Layouts are drawn again until the conflict graph has at most 24
    vertices, so its stable sets stay within the enumeration guards."""
    while True:
        num_chunks, num_users = rng.randint(2, 4), rng.randint(1, 2)
        drives = [
            (rng.randint(1, 2), set(rng.sample(range(1, num_chunks + 1), rng.randint(1, num_chunks))))
            for _ in range(rng.randint(1, 3))
        ]
        drives[0][1].update(set(range(1, num_chunks + 1)) - set().union(*(s for _u, s in drives)))
        rx = rng.choice([1, max(num_chunks, sum(u for u, _s in drives))])
        sys_ = build_system(num_chunks, num_users, drives, rx=(rx,) * num_users)

        coded_chunks = rng.sample(range(1, num_chunks + 1), rng.randint(1, num_chunks))
        cuts = sorted(rng.sample(range(1, len(coded_chunks)), min(rng.randint(0, 2), len(coded_chunks) - 1)))
        bounds = [0, *cuts, len(coded_chunks)]
        generations, counts = {}, {}
        for g, (lo, hi) in enumerate(zip(bounds, bounds[1:]), start=1):
            gen_id, members = f"g{g}", set(coded_chunks[lo:hi])
            for n, (_units, stores) in enumerate(drives, start=1):
                if stores & members or rng.random() < 0.3:
                    counts[(n, gen_id)] = rng.randint(1, 3)
            alpha = sum(c for (_n, h), c in counts.items() if h == gen_id)
            generations[gen_id] = Generation(gen_id, frozenset(members), rng.randint(1, min(alpha, 3)))
        layout = CodedLayout(generations, counts, coefficient_cycling=rng.random() < 0.5)
        coded, _ = coded_transform(sys_, layout)

        pattern = rng.choice([TrafficPattern.MULTICAST, TrafficPattern.MULTIPLE_UNICAST, TrafficPattern.BROADCAST])
        graph = build_conflict_graph(coded, pattern)
        if graph.num_vertices <= 24:
            break
    region = rate_region(graph)
    m = len(region.generators)
    if rng.random() < 0.5:
        policy = MaxWeightPolicy(region)
    else:
        order = rng.sample(range(1, m + 1), m)
        policy = FrameSchedule(region, m + 1, tuple(order) + (IDLE,))
    rates = tuple(Fraction(rng.randint(0, 6), 8) for _ in region.flows)
    return policy, ArrivalProcess(rates=rates, seed=rng.randrange(2**32)), coded


def test_exact_coded_trace_matches_serving_loop_reference():
    rng = random.Random(2024)
    for _ in range(64):
        policy, arrivals, exact = random_coded_case(rng)
        got = simulate(policy, arrivals, 400, exact_coding=exact)
        want = reference_simulate(policy, arrivals, 400, exact)
        assert np.array_equal(got.backlog, want.backlog)
        assert np.array_equal(got.served, want.served)
        assert np.array_equal(got.final_queues, want.final_queues)
        assert got.rejected_deliveries == want.rejected_deliveries


@pytest.mark.parametrize("io", ["finite", "infinite"])
def test_exact_coded_reads_any_drive_of_the_generation(ex4_system, io):
    # f1 is coded in a (drive 1) and f2 in b (drive 2); an infinite-regime
    # read of f2 must carry b's coded chunk, which drive 1 does not hold
    gens = {g: Generation(g, frozenset({i}), 1) for g, i in (("a", 1), ("b", 2))}
    layout = CodedLayout(gens, {(1, "a"): 1, (2, "b"): 1})
    coded, _ = coded_transform(ex4_system, layout)
    region = rate_region(build_conflict_graph(coded, TrafficPattern.MULTICAST, io=io))
    arrivals = ArrivalProcess(rates=(Fraction(1, 4), Fraction(1, 4)), seed=3)
    trace = simulate(MaxWeightPolicy(region), arrivals, 2_000, exact_coding=coded)
    assert tuple(trace.served) == (1, 1)


def single_chunk_coded(sys_, chunk, drive):
    """``sys_`` coded with one generation: ``chunk`` alone, s = 1, one coded
    chunk on ``drive``."""
    gen = Generation("g", frozenset({chunk}), 1)
    return coded_transform(sys_, CodedLayout({"g": gen}, {(drive, "g"): 1}))[0]


def test_exact_coding_must_be_the_regions_system():
    sys_ = build_system(2, 1, [(1, {1}), (1, {2})], rx=(2,))
    coded_f1, coded_f2 = single_chunk_coded(sys_, 1, 1), single_chunk_coded(sys_, 2, 2)
    region = rate_region(build_conflict_graph(coded_f1, TrafficPattern.MULTICAST))
    arrivals = ArrivalProcess(rates=(Fraction(1, 4), Fraction(1, 4)), seed=3)
    # f1 decodes from its single coded chunk, after which no read of it is
    # innovative; f2 stays uncoded
    trace = simulate(MaxWeightPolicy(region), arrivals, 2_000, exact_coding=coded_f1)
    assert tuple(trace.served) == (1, 482)
    # the same drives under another layout: running it against this region
    # would treat f1 as uncoded
    with pytest.raises(ValueError, match="region was built from"):
        simulate(MaxWeightPolicy(region), arrivals, 2_000, exact_coding=coded_f2)


def test_content_hash_tells_layouts_apart():
    sys_ = build_system(2, 1, [(1, {1}), (1, {2})], rx=(2,))
    coded_f1, coded_f2 = single_chunk_coded(sys_, 1, 1), single_chunk_coded(sys_, 2, 2)
    assert coded_f1.drives == coded_f2.drives == sys_.drives
    assert len({sys_.content_hash(), coded_f1.content_hash(), coded_f2.content_hash()}) == 3
    assert sys_.content_hash() == "d4f4bc1970f3009a"


def pinned_traces():
    """Criterion 7's cases at 0.95x, and at 1.05x where every rate stays
    within 1, under both policies and seeds 1-3 for 20,000 slots; then 16
    exact-coded random cases for 2,000 slots."""
    for _label, builder, pattern, boundary, _unstable in BRACKET_CASES:
        region = rate_region(build_conflict_graph(builder(), pattern))
        policies = (build_frame_schedule(decompose_rate(region, boundary)), MaxWeightPolicy(region))
        for scale in (Fraction(19, 20), Fraction(21, 20)):
            rates = tuple(scale * r for r in boundary)
            if max(rates) > 1:
                continue
            for policy in policies:
                for seed in (1, 2, 3):
                    yield simulate(policy, ArrivalProcess(rates=rates, seed=seed), 20_000)
    rng = random.Random(1406)
    for _ in range(16):
        policy, arrivals, exact = random_coded_case(rng)
        yield simulate(policy, arrivals, 2_000, exact_coding=exact)


def test_traces_match_pinned_digest():
    # sha256 over every trace's int64 backlog, served and final queues and
    # its rejected count: a change to what any slot serves, or to the
    # arrival stream, moves it
    h = hashlib.sha256()
    for trace in pinned_traces():
        for values in (trace.backlog, trace.served, trace.final_queues):
            assert values.dtype == np.int64
            h.update(values.tobytes())
        h.update(str(trace.rejected_deliveries).encode())
    assert h.hexdigest() == "4946921d0bef0b2bc7dc994e043cfea9e54ec3961e07e653cff45068dd586f87"
