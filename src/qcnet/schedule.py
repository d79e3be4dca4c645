"""Offline frame schedules and the online max-weight policy.

A rate vector inside the region decomposes exactly into convex weights
over the stable-set family; scheduling set ell for its weight's share of
a frame serves every flow at its requested rate.  The online policy needs
no rate knowledge: each slot it activates the family member maximizing
total backlog weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .conflict import mask_users
from .region import RateRegion
from .geometry import exact_lp_feasible, frac_vector

__all__ = [
    "RateDecomposition",
    "FrameSchedule",
    "ScheduleError",
    "decompose_rate",
    "build_frame_schedule",
    "MaxWeightPolicy",
]

FRAME_CAP = 10**6
IDLE = 0  # schedule entry for slots covered by no stable set


class ScheduleError(RuntimeError):
    pass


@dataclass(frozen=True)
class RateDecomposition:
    """Convex weights phi over the stable-set family (1-based via index-1).

    sum(phis) <= 1; any remainder is idle time.  ``achieved`` equals the
    requested vector exactly.
    """

    region: RateRegion
    phis: tuple[Fraction, ...]
    achieved: tuple[Fraction, ...]

    def support(self) -> tuple[int, ...]:
        return tuple(ell for ell, phi in enumerate(self.phis, start=1) if phi > 0)


@dataclass(frozen=True)
class FrameSchedule:
    """Periodic schedule: ``slots[t]`` is the stable-set index (1-based)
    active in slot t, or IDLE."""

    region: RateRegion
    frame_size: int
    slots: tuple[int, ...]

    def deliveries(self, slot: int) -> tuple[tuple[int, int, int | None], ...]:
        """(chunk, user, drive) triples scheduled in slot (modulo frames)."""
        ell = self.slots[slot % self.frame_size]
        if ell == IDLE:
            return ()
        graph = self.region.family.graph
        out = []
        for v_idx in self.region.family.sets[ell - 1]:
            v = graph.vertices[v_idx]
            out.extend((v.chunk, j, v.drive) for j in mask_users(v.users))
        return tuple(sorted(out))

    def export_text(self) -> str:
        lines = []
        for t in range(self.frame_size):
            parts = ",".join(f"{i}:{j}:{k if k is not None else 'x'}" for (i, j, k) in self.deliveries(t))
            lines.append(f"{t}\t{self.slots[t]}\t{parts}")
        return "\n".join(lines) + "\n"


def decompose_rate(region: RateRegion, rho) -> RateDecomposition:
    """Exact convex decomposition of a rate vector over the family.

    Raises ScheduleError when rho lies outside the region: the
    decomposition LP is then infeasible, so it decides membership itself
    (boundary included).  Among feasible decompositions the support is
    pruned deterministically: later sets are dropped first whenever the
    remaining family still reaches rho, which biases the support toward
    the earliest (canonical) sets.

    The LPs run over ``region.lp_columns``, the distinct generators in
    family order, and each weight goes to the set where its generator
    first occurs.  Under Bland's rule a repeated column has the same
    tableau column as its first occurrence and never enters ahead of it
    (a zero generator repeats the slack, which comes last), so the pivots
    and weights are those of the LP over the whole family, which on the
    ex7 coded multicast+MPR region has 999 columns instead of 189.
    """
    target = frac_vector(rho)
    if len(target) != region.dimension:
        raise ScheduleError(
            f"rate vector has {len(target)} components, region has {region.dimension}"
        )
    columns, family_index = region.lp_columns
    phi = exact_lp_feasible(columns, target)
    if phi is None:
        raise ScheduleError(f"rate vector {tuple(map(str, target))} is outside the region")

    allowed = [ell for ell in range(len(columns)) if phi[ell] > 0]
    for ell in sorted(allowed, reverse=True):
        trial_cols = [columns[c] for c in allowed if c != ell]
        trial = exact_lp_feasible(trial_cols, target)
        if trial is not None:
            allowed.remove(ell)
            phi = [Fraction(0)] * len(columns)
            for c, val in zip(allowed, trial):
                phi[c] = val
    achieved = tuple(
        sum((phi[c] * columns[c][r] for c in allowed), Fraction(0))
        for r in range(region.dimension)
    )
    if achieved != target:
        raise ScheduleError("decomposition does not reproduce the rate vector")
    phis = [Fraction(0)] * len(region.generators)
    for c in allowed:
        phis[family_index[c]] = phi[c]
    return RateDecomposition(region=region, phis=tuple(phis), achieved=achieved)


def build_frame_schedule(decomp: RateDecomposition) -> FrameSchedule:
    """Smallest frame realizing the decomposition with integer slot counts.

    F is the lcm of the denominators of every weight and every achieved
    rate (all in lowest terms); blocks run in canonical set order and any
    slack becomes trailing idle slots.  Zero weights add no slots and have
    denominator 1, so only the support is visited.
    """
    support = [(ell, phi) for ell, phi in enumerate(decomp.phis, start=1) if phi]
    denoms = [phi.denominator for _ell, phi in support] + [r.denominator for r in decomp.achieved]
    frame = lcm(*denoms) if denoms else 1
    if frame > FRAME_CAP:
        raise ScheduleError(f"frame size {frame} exceeds the cap {FRAME_CAP}")
    slots: list[int] = []
    for ell, phi in support:
        slots.extend([ell] * int(phi * frame))
    slots.extend([IDLE] * (frame - len(slots)))
    return FrameSchedule(region=decomp.region, frame_size=frame, slots=tuple(slots))


def _max_weight_set(gens: np.ndarray, queues: np.ndarray) -> int:
    """Index (1-based) of the row of ``gens`` with the largest weight
    ``gens @ queues``, or IDLE when no weight is positive.  Ties go to the
    earliest set in canonical order."""
    weights = gens @ queues
    if weights.size == 0 or weights.max() <= 0:
        return IDLE
    return int(weights.argmax()) + 1


class MaxWeightPolicy:
    """Immutable online scheduler over an enumerated stable-set family."""

    def __init__(self, region: RateRegion):
        self.region = region
        self._gens = np.array(region.generators, dtype=np.int64)

    def step(self, queues) -> int:
        """Index (1-based) of the max-weight stable set, or IDLE when all
        queues are empty.  A set's weight sums queue lengths over every
        (chunk, user) delivery it makes, counting repeat reads per flow.
        Ties break toward the earliest set in canonical order."""
        q = list(queues)
        if len(q) != self.region.dimension:
            raise ValueError("queue vector length mismatch")
        if any(x < 0 for x in q):
            raise ValueError("negative queue length")
        return _max_weight_set(self._gens, np.asarray(q))
