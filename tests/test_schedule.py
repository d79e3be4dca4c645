from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import table_regions
from qcnet import (
    TrafficPattern,
    build_conflict_graph,
    build_frame_schedule,
    build_system,
    decompose_rate,
    exact_lp_feasible,
    rate_region,
)
import qcnet.schedule as schedule
from qcnet.schedule import IDLE, MaxWeightPolicy, ScheduleError


def test_decompose_multicast_corner(ex1_multicast_region):
    decomp = decompose_rate(ex1_multicast_region, (1, 1))
    assert decomp.phis == (0, 0, 1)
    assert decomp.achieved == (1, 1)


def test_decompose_unicast_axis(ex1_unicast_region):
    decomp = decompose_rate(ex1_unicast_region, (1, 0))
    assert decomp.phis == (1, 0)


def test_decompose_unicast_split(ex1_unicast_region):
    decomp = decompose_rate(ex1_unicast_region, (Fraction(1, 2), Fraction(1, 2)))
    assert decomp.phis == (Fraction(1, 2), Fraction(1, 2))


def test_decompose_rejects_outside(ex1_unicast_region):
    with pytest.raises(ScheduleError, match="outside"):
        decompose_rate(ex1_unicast_region, (1, 1))


def test_decompose_rejects_negative_component(ex1_multicast_region):
    with pytest.raises(ScheduleError, match="outside"):
        decompose_rate(ex1_multicast_region, (-Fraction(1, 2), Fraction(1, 2)))


def test_decompose_checks_its_reconstruction(ex1_multicast_region, monkeypatch):
    # a solver answer that does not reach rho must fail even under python -O
    monkeypatch.setattr(
        "qcnet.schedule.exact_lp_feasible", lambda columns, target: [Fraction(0)] * len(columns)
    )
    with pytest.raises(ScheduleError, match="does not reproduce"):
        decompose_rate(ex1_multicast_region, (1, 1))


def _whole_family_phis(region, rho):
    """decompose_rate's LP and pruning loop over every generator, repeats
    included."""
    columns = region.generators
    phi = exact_lp_feasible(columns, rho)
    allowed = [ell for ell in range(len(columns)) if phi[ell] > 0]
    for ell in sorted(allowed, reverse=True):
        trial = exact_lp_feasible([columns[c] for c in allowed if c != ell], rho)
        if trial is not None:
            allowed.remove(ell)
            phi = [Fraction(0)] * len(columns)
            for c, val in zip(allowed, trial):
                phi[c] = val
    return tuple(phi)


def test_decompose_matches_whole_family_lp():
    # the LPs over distinct generators put every weight on the set where
    # its generator first occurs, as the LP over the whole family does
    for label, region in table_regions():
        t = min(b / sum(a) for a, b in region.hull.facets if sum(a) > 0)
        for rho in ((t,) * region.dimension, tuple(x / 2 for x in max(region.vertices()))):
            assert decompose_rate(region, rho).phis == _whole_family_phis(region, rho), label


def test_decompose_interior_leaves_idle_slack(ex1_unicast_region):
    decomp = decompose_rate(ex1_unicast_region, (Fraction(1, 4), Fraction(1, 4)))
    assert decomp.achieved == (Fraction(1, 4), Fraction(1, 4))
    assert sum(decomp.phis) == Fraction(1, 2)
    idle = decompose_rate(ex1_unicast_region, (0, 0))
    assert idle.achieved == (0, 0) and all(type(x) is Fraction for x in idle.achieved)


def test_frame_sizes(ex1_multicast_region, ex1_unicast_region):
    whole = build_frame_schedule(decompose_rate(ex1_multicast_region, (1, 1)))
    assert whole.frame_size == 1
    assert whole.slots == (3,)

    halves = build_frame_schedule(
        decompose_rate(ex1_unicast_region, (Fraction(1, 2), Fraction(1, 2)))
    )
    assert halves.frame_size == 2
    assert halves.slots == (1, 2)


def test_frame_lcm_of_mixed_denominators(ex1_unicast_region):
    decomp = decompose_rate(ex1_unicast_region, (Fraction(1, 3), Fraction(1, 2)))
    frame = build_frame_schedule(decomp)
    assert frame.frame_size == 6
    assert frame.slots.count(1) == 2
    assert frame.slots.count(2) == 3
    assert frame.slots.count(IDLE) == 1


def test_frame_cap(ex1_unicast_region, monkeypatch):
    decomp = decompose_rate(ex1_unicast_region, (Fraction(1, 999931), 0))
    monkeypatch.setattr(schedule, "FRAME_CAP", 1000)
    with pytest.raises(ScheduleError, match="cap"):
        build_frame_schedule(decomp)


def test_frame_slot_counts_match_weights(ex1_multicast_region):
    rho = (Fraction(19, 40), Fraction(19, 40))
    decomp = decompose_rate(ex1_multicast_region, rho)
    frame = build_frame_schedule(decomp)
    for ell, phi in enumerate(decomp.phis, start=1):
        assert frame.slots.count(ell) == phi * frame.frame_size
    # every scheduled set is independent
    graph = ex1_multicast_region.family.graph
    for ell in set(frame.slots) - {IDLE}:
        members = ex1_multicast_region.family.sets[ell - 1]
        assert not any(graph.are_adjacent(a, b) for a in members for b in members if a < b)


def test_frame_deliveries_export(ex1_multicast_region):
    frame = build_frame_schedule(decompose_rate(ex1_multicast_region, (1, 1)))
    assert frame.deliveries(0) == ((1, 1, 1), (1, 2, 1))
    text = frame.export_text()
    assert text == "0\t3\t1:1:1,1:2:1\n"


def test_maxweight_prefers_joint_service(ex1_multicast_region):
    assert MaxWeightPolicy(ex1_multicast_region).step((3, 4)) == 3


def test_maxweight_tie_breaks_to_earlier_set(ex1_multicast_region):
    assert MaxWeightPolicy(ex1_multicast_region).step((5, 0)) == 1


def test_maxweight_idles_on_empty_queues(ex1_multicast_region):
    assert MaxWeightPolicy(ex1_multicast_region).step((0, 0)) == IDLE


def test_maxweight_dominates_singletons(ex6_system):
    region = rate_region(build_conflict_graph(ex6_system, TrafficPattern.MULTICAST))
    queues = (4, 1, 2, 7)
    best = MaxWeightPolicy(region).step(queues)
    best_weight = sum(g * q for g, q in zip(region.generators[best - 1], queues))
    for gen in region.generators:
        if sum(gen) == 1:
            assert best_weight >= sum(g * q for g, q in zip(gen, queues))


def test_maxweight_matches_loop_reference(ex6_system):
    region = rate_region(build_conflict_graph(ex6_system, TrafficPattern.MULTICAST))
    policy = MaxWeightPolicy(region)
    rng = random.Random(5)
    for _ in range(200):
        queues = [rng.choice((0, 0, 1, 2, 3, 7)) for _ in range(region.dimension)]
        best, best_weight = IDLE, 0
        for ell, gen in enumerate(region.generators, start=1):
            weight = sum(g * q for g, q in zip(gen, queues))
            if weight > best_weight:
                best, best_weight = ell, weight
        assert policy.step(queues) == best


def test_maxweight_deterministic(ex1_multicast_region):
    policy = MaxWeightPolicy(ex1_multicast_region)
    assert policy.step((2, 2)) == policy.step((2, 2))


def test_maxweight_rejects_negative(ex1_multicast_region):
    with pytest.raises(ValueError):
        MaxWeightPolicy(ex1_multicast_region).step((-1, 0))
