"""Output checks, made apart from the program or from properties the
method must have.  Each returns a list of error messages (empty when
the outputs pass) and runs after timing ends.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from examples import PUBLISHED, table_summary

VOLUME_RTOL = 1e-9


def region_points(region) -> set[tuple[int, ...]]:
    """Distinct generator points of a region plus the origin."""
    pts = {tuple(g) for g in region.generators}
    pts.add((0,) * region.dimension)
    return pts


def _dot(a, x) -> Fraction:
    return sum(Fraction(ai) * xi for ai, xi in zip(a, x))


def in_h_representation(hull, x) -> bool:
    """Membership by the exact equalities and facet inequalities."""
    return all(_dot(a, x) == b for a, b in hull.equalities) and all(
        _dot(a, x) <= b for a, b in hull.facets
    )


def recount_generators(family) -> list[tuple[int, ...]]:
    """Per stable set, how many of its reads serve each (chunk, user) flow,
    in sorted flow order; recounted from the sets and the graph."""
    graph = family.graph
    served = []
    flows = set()
    for members in family.sets:
        count: dict[tuple[int, int], int] = {}
        for v in members:
            vert = graph.vertices[v]
            if vert.dnt:
                continue
            for j in range(vert.users.bit_length()):
                if vert.users >> j & 1:
                    flow = (vert.chunk, j + 1)
                    count[flow] = count.get(flow, 0) + 1
                    flows.add(flow)
        served.append(count)
    order = sorted(flows)
    return [tuple(c.get(f, 0) for f in order) for c in served]


# --- region-tables -----------------------------------------------------------


def check_region_tables(results) -> list[str]:
    """``results``: (example, row, coded, (volume, region) or None) per cell."""
    from scipy.spatial import ConvexHull

    errors = []
    volumes: dict[str, dict[tuple[str, bool], Fraction]] = {}
    for ex, row, coded, out in results:
        if out is None:
            continue
        volume, region = out
        volumes.setdefault(ex, {})[(row, coded)] = volume
        pts = np.array(sorted(region_points(region)), dtype=float)
        rank = np.linalg.matrix_rank(pts[1:] - pts[0]) if len(pts) > 1 else 0
        if rank < region.dimension:
            if volume != 0:
                errors.append(f"{ex} {row} coded={coded}: degenerate region has volume {volume}")
            continue
        ref = ConvexHull(pts).volume
        if abs(float(volume) - ref) > VOLUME_RTOL * ref:
            errors.append(f"{ex} {row} coded={coded}: volume {float(volume)} != Qhull {ref}")
    for ex, vols in volumes.items():
        if len(vols) != 14:
            continue  # a failed cell is counted as failed, not as wrong
        for row, _c in vols:
            if vols[(row, True)] < vols[(row, False)]:
                errors.append(f"{ex} {row}: coded volume below uncoded")
        rows, average = table_summary(vols)
        want_rows, want_average = PUBLISHED[ex]
        for row, want in want_rows.items():
            if rows[row] != want:
                errors.append(f"{ex} {row}: table row {rows[row]} != published {want}")
        if average != want_average:
            errors.append(f"{ex}: average {average} != published {want_average}")
    return errors


# --- rate-queries ------------------------------------------------------------


def check_decomposition(region, target, decomp, frame) -> list[str]:
    errors = []
    phis = decomp.phis
    if any(p < 0 for p in phis):
        errors.append("negative weight")
    if sum(phis) > 1:
        errors.append(f"weights sum to {sum(phis)} > 1")
    gens = recount_generators(region.family)
    achieved = tuple(
        sum((phi * g[r] for phi, g in zip(phis, gens) if phi), Fraction(0))
        for r in range(len(target))
    )
    if achieved != tuple(target):
        errors.append("weighted generators miss the target")
    size = frame.frame_size
    if len(frame.slots) != size:
        errors.append("frame length differs from its size")
    counts: dict[int, int] = {}
    for ell in frame.slots:
        counts[ell] = counts.get(ell, 0) + 1
    for ell, phi in enumerate(phis, start=1):
        if phi * size != counts.get(ell, 0):
            errors.append(f"set {ell}: {counts.get(ell, 0)} slots != phi*F = {phi * size}")
            break
    return errors


def check_rate_queries(cells, queries, answers) -> list[str]:
    errors = []
    regions = {(ex, row, coded): region for ex, row, coded, region in cells}
    for (ex, row, coded), region in regions.items():
        if coded:
            continue
        upper = regions[(ex, row, True)].hull
        for v in region.hull.vertices:
            if not in_h_representation(upper, v):
                errors.append(f"{ex} {row}: uncoded vertex {v} outside the coded region")
    for (kind, label, region, vector, expected), out in zip(queries, answers):
        if out is None:
            continue
        if kind == "contains":
            verdict = out[0]
            if verdict != in_h_representation(region.hull, vector):
                errors.append(f"{label}: contains says {verdict}, H-representation disagrees")
            if verdict != expected:
                errors.append(f"{label}: contains says {verdict}, expected {expected}")
        else:
            decomp, frame = out[1]
            errors += [f"{label}: {e}" for e in check_decomposition(region, vector, decomp, frame)]
    return errors


# --- queue-sim ---------------------------------------------------------------


def drawn_arrivals(rates, seed: int, horizon: int) -> np.ndarray:
    """Per-flow arrival totals from Philox(key=seed): uniforms below each rate."""
    uniforms = np.random.Generator(np.random.Philox(key=seed)).random((horizon, len(rates)))
    return (uniforms < np.array([float(r) for r in rates])).sum(axis=0)


def check_queue_sim(specs, answers, horizon: int) -> list[str]:
    errors = []
    for (label, kind, scale, rates, seed), out in zip(specs, answers):
        if out is None:
            continue
        stable, _backlog, served, final = out[0]
        if stable != (scale < 1):
            errors.append(f"{label} {kind} at {scale}x: judged {'stable' if stable else 'unstable'}")
        arrived = drawn_arrivals(rates, seed, horizon)
        if [s + q for s, q in zip(served, final)] != [int(a) for a in arrived]:
            errors.append(f"{label} {kind} at {scale}x: served + queued != arrivals")
    return errors


# --- graph-families ----------------------------------------------------------


def adjacency_masks(graph) -> list[int]:
    masks = []
    for nbrs in graph.adjacency:
        m = 0
        for w in nbrs:
            m |= 1 << w
        masks.append(m)
    return masks


def count_stable_sets(adj: list[int]) -> int:
    """Nonempty independent sets, by the branch on the lowest vertex."""
    memo: dict[int, int] = {0: 1}

    def count(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        low = mask & -mask
        rest = mask ^ low
        total = count(rest) + count(rest & ~adj[low.bit_length() - 1])
        memo[mask] = total
        return total

    return count((1 << len(adj)) - 1) - 1


def _claw_in(adj: list[int]) -> tuple[int, int, int, int] | None:
    for center, nbrs in enumerate(adj):
        m = nbrs
        while m:
            a = (m & -m).bit_length() - 1
            m &= m - 1
            rest = m & ~adj[a]
            while rest:
                b = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                third = rest & ~adj[b]
                if third:
                    return center, a, b, (third & -third).bit_length() - 1
    return None


def _two_clique_cover(adj: list[int], v: int) -> bool:
    """Whether N(v) splits into two cliques: its complement is 2-colourable."""
    nbrs = [w for w in range(len(adj)) if adj[v] >> w & 1]
    colour: dict[int, int] = {}
    for start in nbrs:
        if start in colour:
            continue
        colour[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in nbrs:
                if w != u and not adj[u] >> w & 1:
                    if w not in colour:
                        colour[w] = 1 - colour[u]
                        stack.append(w)
                    elif colour[w] == colour[u]:
                        return False
    return True


def _odd_hole_witness_ok(adj: list[int], kind: str, cycle) -> bool:
    n = len(cycle)
    if n < 5 or n % 2 == 0 or len(set(cycle)) != n:
        return False

    def edge(a, b):
        joined = bool(adj[a] >> b & 1)
        return joined if kind == "odd_hole" else not joined

    for i in range(n):
        for j in range(i + 1, n):
            consecutive = j == i + 1 or (i == 0 and j == n - 1)
            if edge(cycle[i], cycle[j]) != consecutive:
                return False
    return True


def check_classification(graph, report, perfect_cap: int) -> list[str]:
    adj = adjacency_masks(graph)
    errors = []
    claw = _claw_in(adj)
    if report.claw_free != (claw is None):
        errors.append(f"claw_free={report.claw_free}, recount finds claw {claw}")
    if report.claw_witness is not None:
        c, a, b, d = report.claw_witness
        if not all(adj[c] >> x & 1 for x in (a, b, d)) or any(
            adj[x] >> y & 1 for x, y in ((a, b), (a, d), (b, d))
        ):
            errors.append(f"claw witness {report.claw_witness} is not a claw")
    covered = [_two_clique_cover(adj, v) for v in range(len(adj))]
    if report.quasi_line != all(covered):
        errors.append(f"quasi_line={report.quasi_line}, recount disagrees")
    if report.quasi_line_witness is not None and covered[report.quasi_line_witness]:
        errors.append(f"quasi-line witness {report.quasi_line_witness} has a two-clique cover")
    if report.perfect is None and len(adj) <= perfect_cap:
        errors.append("perfection unknown below the cap")
    if report.perfect is False and not _odd_hole_witness_ok(adj, *report.perfect_witness):
        errors.append(f"perfect witness {report.perfect_witness} is not an odd (anti)hole")
    return errors


def check_family(graph, family, incidence) -> list[str]:
    adj = adjacency_masks(graph)
    errors = []
    expected = count_stable_sets(adj)
    if family.size != expected:
        errors.append(f"family has {family.size} sets, recount gives {expected}")
    for members in family.sets:
        mask = 0
        for v in members:
            mask |= 1 << v
        if any(adj[v] & mask for v in members):
            errors.append(f"set {members} is not independent")
            break
    gens = recount_generators(family)
    flows = incidence.flows
    for f, flow in enumerate(flows):
        want = tuple(g[f] for g in gens)
        if incidence.per_flow[flow] != want:
            errors.append(f"flow {flow}: incidence differs from the recount")
            break
    return errors


def check_modes(system, pattern, graph, family) -> list[str]:
    """Criterion 6: stable sets map one-to-one onto the valid modes."""
    from qcnet import KnowledgeState, enumerate_valid_modes

    mapped = set()
    for members in family.sets:
        deliveries = set()
        for v in members:
            vert = graph.vertices[v]
            for j in range(vert.users.bit_length()):
                if vert.users >> j & 1:
                    deliveries.add((vert.chunk, j + 1, vert.drive))
        mapped.add(frozenset(deliveries))
    modes = {m.deliveries for m in enumerate_valid_modes(system, KnowledgeState.all_innovative(), pattern)}
    errors = []
    if len(mapped) != family.size:
        errors.append("two stable sets give the same mode")
    if mapped != modes:
        errors.append(f"{len(mapped)} stable-set modes != {len(modes)} valid modes")
    return errors
