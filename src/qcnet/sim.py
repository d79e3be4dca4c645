"""Discrete-time queueing simulation of storage schedules.

Requests arrive per flow as independent Bernoulli trials each slot; the
active policy picks one stable set per slot and each of its deliveries
serves one queued request (a delivery aimed at an empty queue is a no-op).
The arrival stream comes from the counter-based Philox generator keyed by
the seed, so traces are reproducible byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coding import DofTracker
from .conflict import mask_users
from .schedule import IDLE, FrameSchedule, MaxWeightPolicy, _max_weight_set
from .system import StorageSystem

__all__ = ["ArrivalProcess", "SimulationTrace", "StabilityVerdict", "simulate", "stability_verdict"]

MIN_VERDICT_HORIZON = 10_000
SLOPE_THRESHOLD = 0.01
BACKLOG_FRACTION = 0.01


@dataclass(frozen=True)
class ArrivalProcess:
    """Independent Bernoulli arrivals: ``rates[f]`` requests/slot for flow f."""

    rates: tuple[Fraction, ...]
    seed: int

    def __post_init__(self):
        for r in self.rates:
            if not 0 <= r <= 1:
                raise ValueError(f"arrival rate {r} outside [0, 1]")

    def draw(self, horizon: int) -> np.ndarray:
        """(horizon, flows) 0/1 arrival matrix from Philox(key=seed)."""
        rng = np.random.Generator(np.random.Philox(key=self.seed))
        u = rng.random((horizon, len(self.rates)))
        thresholds = np.array([float(r) for r in self.rates])
        return (u < thresholds).astype(np.int64)


@dataclass(frozen=True)
class SimulationTrace:
    horizon: int
    backlog: np.ndarray  # total queued requests after each slot
    served: np.ndarray  # per-flow service totals
    final_queues: np.ndarray
    rejected_deliveries: int = 0  # exact-coded mode only

    def export_text(self) -> str:
        lines = [f"{t}\t{int(b)}" for t, b in enumerate(self.backlog)]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    slope: float
    max_backlog: int

    @property
    def verdict(self) -> str:
        return "stable" if self.stable else "unstable"

    def summary_line(self) -> str:
        return f"{self.verdict}\t{self.slope:.6f}\t{self.max_backlog}"


def simulate(
    policy: FrameSchedule | MaxWeightPolicy,
    arrivals: ArrivalProcess,
    horizon: int,
    exact_coding: StorageSystem | None = None,
) -> SimulationTrace:
    """Run the slotted simulation; deterministic given the arrival seed.

    Without ``exact_coding`` an active stable set serves up to its
    generator's count on every flow; on a coded system that is the upper
    bound, every delivery innovative.  ``exact_coding`` is the coded
    system the region was built from (ValueError when its content hash
    differs from the region's); with it a ``DofTracker`` serves each read
    under the system's layout: a read carries one stored coded chunk, a
    user accepts it only while it is innovative, and each pending user who
    rejects it adds to ``rejected_deliveries``.  In the finite I/O regime a
    read by virtual drive k carries a coded chunk stored on k's physical
    drive; in the infinite regime it may carry any coded chunk of the
    generation.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    region = policy.region
    if exact_coding is not None and exact_coding.content_hash() != region.family.graph.system_hash:
        raise ValueError("exact_coding is not the coded system the region was built from")
    d = region.dimension
    if len(arrivals.rates) != d:
        raise ValueError("arrival process must give one rate per region flow")

    gens = np.array(region.generators, dtype=np.int64)  # (m, d) service counts
    arrival_matrix = arrivals.draw(horizon)
    queues = np.zeros(d, dtype=np.int64)
    backlog = np.zeros(horizon, dtype=np.int64)
    served_total = np.zeros(d, dtype=np.int64)
    rejected = 0

    frame_slots = policy.slots if isinstance(policy, FrameSchedule) else None
    frame_size = policy.frame_size if isinstance(policy, FrameSchedule) else 0

    tracker = None if exact_coding is None else DofTracker(exact_coding)
    vertices = region.family.graph.vertices
    flow_index = {flow: f for f, flow in enumerate(region.flows)}

    for t in range(horizon):
        queues += arrival_matrix[t]
        if frame_slots is not None:
            ell = frame_slots[t % frame_size]
        else:
            ell = _max_weight_set(gens, queues)
        if ell != IDLE:
            if tracker is None:
                served = np.minimum(queues, gens[ell - 1])
            else:
                served = np.zeros_like(queues)
                for v in (vertices[i] for i in region.family.sets[ell - 1]):
                    flows = {j: flow_index[(v.chunk, j)] for j in mask_users(v.users)}
                    pending = {j for j, f in flows.items() if queues[f] > served[f]}
                    got, r = tracker.read(v.chunk, v.drive, tuple(flows), pending)
                    for j in got:
                        served[flows[j]] += 1
                    rejected += r
            queues -= served
            served_total += served
        backlog[t] = queues.sum()

    return SimulationTrace(
        horizon=horizon,
        backlog=backlog,
        served=served_total,
        final_queues=queues.copy(),
        rejected_deliveries=rejected,
    )


def stability_verdict(trace: SimulationTrace) -> StabilityVerdict:
    """Least-squares backlog drift over the second half of the horizon.

    Stable means drift below SLOPE_THRESHOLD requests/slot and peak
    backlog below BACKLOG_FRACTION of the horizon.  Thresholds are
    desk-scale heuristics, not theory.
    """
    if trace.horizon < MIN_VERDICT_HORIZON:
        raise ValueError(f"horizon {trace.horizon} too short for a verdict")
    half = trace.horizon // 2
    tail = trace.backlog[half:]
    t = np.arange(half, trace.horizon, dtype=float)
    slope = float(np.polyfit(t, tail.astype(float), 1)[0])
    max_backlog = int(trace.backlog.max())
    stable = slope < SLOPE_THRESHOLD and max_backlog < BACKLOG_FRACTION * trace.horizon
    return StabilityVerdict(stable=stable, slope=slope, max_backlog=max_backlog)
