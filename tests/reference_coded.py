"""Serving-loop reference for exact-coded simulation.

This is the slotted simulation with the coded-read rule written out per
stable set, as ``simulate`` once did it: each vertex of the active set
reads one coded chunk stored on its physical drive, chosen as the id the
most pending users would accept (first on ties); every accepting user
records it, and each pending user who rejects it counts as rejected.
Coded ids are synthesized per call as ``<gen>.<n>``, numbered in drive
order.  ``qcnet.coding.DofTracker.read`` states the same rule once, with
its id table built at construction; the equivalence test requires both to
give the same trace in the finite I/O regime.  Test code only: nothing in
``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from qcnet.coding import CodedLayout, DofTracker, Generation
from qcnet.conflict import mask_users
from qcnet.schedule import IDLE, FrameSchedule, MaxWeightPolicy
from qcnet.sim import ArrivalProcess, SimulationTrace
from qcnet.system import StorageSystem


def _generation_of(layout: CodedLayout, chunk: int) -> Generation | None:
    for gen in layout.generations.values():
        if chunk in gen.members:
            return gen
    return None


def _chunk_ids(layout: CodedLayout, n: int, gen_id: str) -> tuple[str, ...]:
    """Coded chunk ids stored by physical drive n for a generation."""
    count = layout.counts.get((n, gen_id), 0)
    start = sum(c for (m, g), c in sorted(layout.counts.items()) if g == gen_id and m < n)
    return tuple(f"{gen_id}.{start + idx + 1}" for idx in range(count))


def _serve(graph_vertices, members, queues, flow_index, sys, layout, tracker):
    served = np.zeros_like(queues)
    rejected = 0
    for v_idx in members:
        v = graph_vertices[v_idx]
        users = mask_users(v.users)
        gen = _generation_of(layout, v.chunk)
        if gen is None:
            for j in users:
                f = flow_index[(v.chunk, j)]
                if queues[f] - served[f] > 0:
                    served[f] += 1
            continue
        candidates = _chunk_ids(layout, sys.physical_index[v.drive - 1], gen.gen_id)
        if not candidates:
            continue

        def acceptance(cid: str) -> int:
            return sum(
                1
                for j in users
                if tracker.would_accept(j, gen.gen_id, cid)
                and queues[flow_index[(v.chunk, j)]] - served[flow_index[(v.chunk, j)]] > 0
            )

        chosen = max(candidates, key=acceptance)
        for j in users:
            f = flow_index[(v.chunk, j)]
            pending = queues[f] - served[f] > 0
            if tracker.would_accept(j, gen.gen_id, chosen):
                tracker.record(j, gen.gen_id, chosen)
                if pending:
                    served[f] += 1
            elif pending:
                rejected += 1
    return served, rejected


def reference_simulate(
    policy: FrameSchedule | MaxWeightPolicy,
    arrivals: ArrivalProcess,
    horizon: int,
    exact_coding: StorageSystem,
) -> SimulationTrace:
    """Finite-regime exact-coded trace, one serving loop per active set."""
    region = policy.region
    sys, layout = exact_coding, exact_coding.coding
    gens = np.array(region.generators, dtype=np.int64)
    arrival_matrix = arrivals.draw(horizon)
    queues = np.zeros(region.dimension, dtype=np.int64)
    backlog = np.zeros(horizon, dtype=np.int64)
    served_total = np.zeros(region.dimension, dtype=np.int64)
    rejected = 0
    tracker = DofTracker(sys)
    flow_index = {flow: f for f, flow in enumerate(region.flows)}
    for t in range(horizon):
        queues += arrival_matrix[t]
        if isinstance(policy, FrameSchedule):
            ell = policy.slots[t % policy.frame_size]
        else:
            # the earliest max-weight set, or IDLE when no weight is positive
            weights = gens @ queues
            ell = int(weights.argmax()) + 1 if weights.size and weights.max() > 0 else IDLE
        if ell != IDLE:
            served, r = _serve(
                region.family.graph.vertices,
                region.family.sets[ell - 1],
                queues,
                flow_index,
                sys,
                layout,
                tracker,
            )
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
