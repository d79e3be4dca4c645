"""Per-layer metrics from traced passes.

Every per-layer metric has one home workload, the one whose jobs
exercise that layer (README: "Per-layer metrics").  A traced run traces
its own workload for the whole run and one pass of every other
workload, so each metric is always measured on its home workload.
Times are self time per pass; counts are per-pass totals.
"""

from __future__ import annotations


def _per_pass_ms(span: str):
    return lambda t, c, p: 1000.0 * t.get(span, 0.0) / p


def _per_pass_count(span: str, key: str):
    return lambda t, c, p: c.get(span, {}).get(key, 0) / p


def _ratio(span: str, num: str, den: str):
    return lambda t, c, p: c[span][num] / c[span][den]


def _rate(span: str, key: str):
    return lambda t, c, p: c[span][key] / t[span]


# (name, unit, better, home workload, value from (self times, counts, passes))
METRICS = (
    ("system.parse_ms", "ms", "lower", "region-tables", _per_pass_ms("system.parse")),
    ("coding.transform_ms", "ms", "lower", "region-tables", _per_pass_ms("coding.transform")),
    ("geometry.hull_ms", "ms", "lower", "region-tables", _per_pass_ms("geometry.hull")),
    ("geometry.hull_points", "count", "lower", "region-tables", _per_pass_count("geometry.hull", "points")),
    ("geometry.hull_vertices", "count", "lower", "region-tables", _per_pass_count("geometry.hull", "vertices")),
    ("geometry.hull_facets", "count", "lower", "region-tables", _per_pass_count("geometry.hull", "facets")),
    ("conflict.build_ms", "ms", "lower", "graph-families", _per_pass_ms("conflict.build")),
    ("conflict.vertices", "count", "lower", "graph-families", _per_pass_count("conflict.build", "vertices")),
    ("conflict.edges", "count", "lower", "graph-families", _per_pass_count("conflict.build", "edges")),
    ("classify.claw_ms", "ms", "lower", "graph-families", _per_pass_ms("classify.claw")),
    ("classify.quasi_line_ms", "ms", "lower", "graph-families", _per_pass_ms("classify.quasi_line")),
    ("classify.perfect_ms", "ms", "lower", "graph-families", _per_pass_ms("classify.perfect")),
    ("stableset.enumerate_ms", "ms", "lower", "graph-families", _per_pass_ms("stableset.enumerate")),
    ("stableset.sets", "count", "lower", "graph-families", _per_pass_count("stableset.enumerate", "sets")),
    ("stableset.incidence_ms", "ms", "lower", "graph-families", _per_pass_ms("stableset.incidence")),
    ("region.contains_ms", "ms", "lower", "rate-queries", _per_pass_ms("region.contains")),
    ("region.lp_columns", "count", "lower", "rate-queries", _per_pass_count("region.contains", "columns")),
    ("region.vertex_ratio", "ratio", "higher", "rate-queries", _ratio("region.contains", "vertices", "columns")),
    ("schedule.decompose_ms", "ms", "lower", "rate-queries", _per_pass_ms("schedule.decompose")),
    ("schedule.support_sets", "count", "lower", "rate-queries", _per_pass_count("schedule.decompose", "support")),
    ("schedule.frame_slots", "count", "lower", "rate-queries", _per_pass_count("schedule.frame", "slots")),
    ("schedule.frame_ms", "ms", "lower", "rate-queries", _per_pass_ms("schedule.frame")),
    ("schedule.maxweight_sets", "count", "lower", "queue-sim", _per_pass_count("sim.maxweight", "sets")),
    ("sim.frame_slots_per_s", "1/s", "higher", "queue-sim", _rate("sim.frame", "slots")),
    ("sim.maxweight_slots_per_s", "1/s", "higher", "queue-sim", _rate("sim.maxweight", "slots")),
    ("sim.verdict_ms", "ms", "lower", "queue-sim", _per_pass_ms("sim.verdict")),
)

def per_layer(traced: dict[str, tuple]) -> dict[str, dict]:
    """``traced``: workload -> (tracer, passes traced)."""
    totals = {w: (tr.layer_totals(), passes) for w, (tr, passes) in traced.items()}
    out = {}
    for name, unit, _better, home, value in METRICS:
        (self_time, counts, _residue), passes = totals[home]
        out[name] = {"value": value(self_time, counts, passes), "unit": unit}
    for workload, ((_t, _c, residue), passes) in totals.items():
        # job time outside every named call, per pass
        out[f"{workload}.residue_ms"] = {"value": 1000.0 * residue / passes, "unit": "ms"}
    return out
