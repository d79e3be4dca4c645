from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qcnet import (
    StorageSystem,
    TrafficPattern,
    build_conflict_graph,
    build_system,
    parse_system_description,
    rate_region,
)
from qcnet.cli import TABLE_ROWS, _region_for

DATA = Path(__file__).parent / "data"


@pytest.fixture
def ex1_system() -> StorageSystem:
    """One chunk on one single-unit drive, two users."""
    return build_system(1, 2, [(1, {1})], rx=(1, 1))


@pytest.fixture
def ex4_system() -> StorageSystem:
    """Two chunks on two drives, one user with two-chunk reception."""
    return build_system(2, 1, [(1, {1}), (1, {2})], rx=(2,))


@pytest.fixture
def ex6_system() -> StorageSystem:
    """Two chunks on two drives, two users."""
    return build_system(2, 2, [(1, {1}), (1, {2})], rx=(1, 1))


@pytest.fixture
def ex7_system() -> StorageSystem:
    """Three chunks on three drives, two users."""
    return build_system(3, 2, [(1, {1}), (1, {2}), (1, {3})], rx=(1, 1))


@pytest.fixture
def ex1_multicast_region(ex1_system):
    return rate_region(build_conflict_graph(ex1_system, TrafficPattern.MULTICAST))


@pytest.fixture
def ex1_unicast_region(ex1_system):
    return rate_region(build_conflict_graph(ex1_system, TrafficPattern.SINGLE_UNICAST))


def table_regions():
    """(label, region) for the 28 cells of the ex6/ex7 compare tables."""
    for name in ("ex6", "ex7"):
        desc = parse_system_description((DATA / f"{name}.txt").read_text())
        for row, pattern, mpr in TABLE_ROWS:
            for coded in (False, True):
                label = f"{name}:{row}:{'coded' if coded else 'uncoded'}"
                yield label, _region_for(desc, pattern, mpr, coded, "finite")


def monte_carlo_volume(region, samples: int, seed: int) -> tuple[float, float]:
    """Hit-rate estimate of the region volume inside its bounding box.

    Membership is evaluated against the exact H-representation in floats;
    returns (estimate, standard error).
    """
    hull = region.hull
    if hull.dim < hull.ambient:
        return 0.0, 0.0
    d = hull.ambient
    upper = np.array(
        [max(float(v[c]) for v in hull.vertices) for c in range(d)]
    )
    if not upper.all():
        return 0.0, 0.0
    rng = np.random.default_rng(seed)
    pts = rng.random((samples, d)) * upper
    inside = np.ones(samples, dtype=bool)
    for normal, b in hull.facets:
        a = np.array([float(x) for x in normal])
        inside &= pts @ a <= float(b) + 1e-12
    p = inside.mean()
    box = float(np.prod(upper))
    est = box * p
    stderr = box * float(np.sqrt(max(p * (1 - p), 1e-12) / samples))
    return est, stderr
