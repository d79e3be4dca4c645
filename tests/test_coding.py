from __future__ import annotations

from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest

from qcnet import (
    CodedLayout,
    DofTracker,
    Generation,
    SystemBuildError,
    TrafficPattern,
    build_conflict_graph,
    build_system,
    check_achievable_any,
    check_achievable_unicast,
    coded_transform,
    enumerate_stable_sets,
    rate_region,
    striped_layout,
)


def two_chunk_layout(s=2, count=1):
    gen = Generation(gen_id="g1", members=frozenset({1, 2}), s=s)
    return CodedLayout(generations={"g1": gen}, counts={(1, "g1"): count, (2, "g1"): count})


def striped_tracker(sys_, coefficient_cycling=False) -> DofTracker:
    layout = replace(striped_layout(sys_), coefficient_cycling=coefficient_cycling)
    return DofTracker(coded_transform(sys_, layout)[0])


def test_striped_transform_adds_links(ex4_system):
    layout = striped_layout(ex4_system)
    coded, links = coded_transform(ex4_system, layout)
    assert coded.coding is layout
    assert all(coded.stores(i, k) for i in (1, 2) for k in (1, 2))
    # two links existed uncoded; the transform has four: two were added
    assert sum(links.values()) == 4


def test_layout_cannot_change_after_the_transform():
    sys_ = build_system(2, 1, [(1, {1}), (1, {2})], rx=(2,))
    counts = {(1, "g"): 1}
    layout = CodedLayout({"g": Generation("g", frozenset({1}), 1)}, counts)
    coded, _ = coded_transform(sys_, layout)
    assert coded.content_hash() == "56f9d0a736d253b3"
    with pytest.raises(TypeError):
        layout.counts[(2, "g")] = 1
    with pytest.raises(FrozenInstanceError):
        layout.coefficient_cycling = True
    counts[(2, "g")] = 1  # the layout holds a copy of the caller's dict
    assert dict(coded.coding.counts) == {(1, "g"): 1}
    assert coded.content_hash() == "56f9d0a736d253b3"


def test_identity_on_singleton_generations(ex6_system):
    gens = {
        f"g{i}": Generation(gen_id=f"g{i}", members=frozenset({i}), s=1) for i in (1, 2)
    }
    layout = CodedLayout(generations=gens, counts={(1, "g1"): 1, (2, "g2"): 1})
    coded, links = coded_transform(ex6_system, layout)
    assert coded.virtual_drives == ex6_system.virtual_drives
    g_u = build_conflict_graph(ex6_system, TrafficPattern.MULTICAST)
    g_c = build_conflict_graph(coded, TrafficPattern.MULTICAST)
    assert g_u.vertices == g_c.vertices
    assert g_u.adjacency == g_c.adjacency
    fam_u, fam_c = enumerate_stable_sets(g_u), enumerate_stable_sets(g_c)
    assert fam_u.sets == fam_c.sets
    assert rate_region(g_u).volume() == rate_region(g_c).volume()


def test_mixed_replica_rejected():
    # drive 2 keeps f1 uncoded while drive 1 codes it
    sys_ = build_system(2, 1, [(1, {1, 2}), (1, {1})], rx=(2,))
    gen = Generation(gen_id="g1", members=frozenset({1, 2}), s=2)
    layout = CodedLayout(generations={"g1": gen}, counts={(1, "g1"): 2})
    with pytest.raises(SystemBuildError, match="mixed replicas"):
        coded_transform(sys_, layout)


def test_chunk_in_two_generations_rejected(ex6_system):
    gens = {
        "g1": Generation(gen_id="g1", members=frozenset({1, 2}), s=2),
        "g2": Generation(gen_id="g2", members=frozenset({2}), s=1),
    }
    layout = CodedLayout(generations=gens, counts={(1, "g1"): 2, (2, "g2"): 1})
    with pytest.raises(SystemBuildError, match="appears in generations"):
        layout.validate(ex6_system)


def test_unicast_achievability_threshold():
    assert check_achievable_unicast(two_chunk_layout(s=2, count=2))[0]
    ok, violations = check_achievable_unicast(two_chunk_layout(s=2, count=1))
    assert not ok
    assert violations[0] == (1, "g1", 1, 2)


def test_any_pattern_achievability_threshold():
    assert check_achievable_any(two_chunk_layout(s=2, count=5), num_users=2)[0]
    ok, violations = check_achievable_any(two_chunk_layout(s=2, count=4), num_users=2)
    assert not ok
    assert violations[0][3] == 5  # s + N + 1


def test_any_pattern_with_no_users_still_needs_one_extra():
    ok, violations = check_achievable_any(two_chunk_layout(s=2, count=2), num_users=0)
    assert not ok and violations[0][3] == 3


def test_striped_storage_fails_unicast_lemma(ex4_system):
    ok, violations = check_achievable_unicast(striped_layout(ex4_system))
    assert not ok
    assert len(violations) == 2


def test_tracker_needs_a_coded_system(ex4_system):
    with pytest.raises(ValueError, match="coded system"):
        DofTracker(ex4_system)


def test_dof_decode_at_threshold(ex4_system):
    tracker = striped_tracker(ex4_system)  # s = 2
    assert tracker.remaining(1, "g1") == 2
    assert tracker.record(1, "g1", "g1.1")
    assert tracker.remaining(1, "g1") == 1
    assert tracker.record(1, "g1", "g1.2")
    assert tracker.decoded(1, "g1")
    assert not tracker.would_accept(1, "g1", "g1.1")  # nothing of the generation is innovative


def test_duplicate_receipt_rejected(ex4_system):
    tracker = striped_tracker(ex4_system)
    assert tracker.record(1, "g1", "g1.1")
    assert not tracker.record(1, "g1", "g1.1")
    assert tracker.remaining(1, "g1") == 1


def test_coefficient_cycling_accepts_replicas(ex4_system):
    tracker = striped_tracker(ex4_system, coefficient_cycling=True)
    assert tracker.record(1, "g1", "g1.1")
    assert tracker.record(1, "g1", "g1.1")  # same id, fresh coefficients
    assert tracker.decoded(1, "g1")


def test_received_never_exceeds_s(ex4_system):
    tracker = striped_tracker(ex4_system)
    assert tracker.record(1, "g1", "g1.1")
    assert tracker.record(1, "g1", "g1.2")
    assert not tracker.record(1, "g1", "g1.3")  # decoded; nothing further accepted
    assert len(tracker.received[(1, "g1")]) == 2
