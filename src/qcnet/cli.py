"""Command-line front end.

Subcommands: graph, props, region, schedule, simulate, compare.  Every
command reads a system description file, applies flag overrides, and
writes a deterministic plain-text or TSV report to stdout or --out.
Parse failures and guard violations exit nonzero with one diagnostic line.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from .classify import classify
from .coding import coded_transform
from .conflict import build_conflict_graph
from .region import RateRegion, rate_region
from .schedule import MaxWeightPolicy, build_frame_schedule, decompose_rate
from .sim import ArrivalProcess, simulate, stability_verdict
from .system import StorageSystem, SystemBuildError, SystemDescription, TrafficPattern, parse_system_description

__all__ = ["main", "compare_table", "compute_compare_rows"]

TABLE_ROWS = (
    ("single_unicast", TrafficPattern.SINGLE_UNICAST, False),
    ("multiple_unicast", TrafficPattern.MULTIPLE_UNICAST, False),
    ("multiple_unicast_mpr", TrafficPattern.MULTIPLE_UNICAST, True),
    ("broadcast", TrafficPattern.BROADCAST, False),
    ("broadcast_mpr", TrafficPattern.BROADCAST, True),
    ("multicast", TrafficPattern.MULTICAST, False),
    ("multicast_mpr", TrafficPattern.MULTICAST, True),
)


def format_volume(value: Fraction) -> str:
    rounded = round(value, 4)  # Fraction rounding is half to even
    text = f"{float(rounded):.4f}".rstrip("0").rstrip(".")
    return text if text else "0"


def format_delta(value: float) -> str:
    if value == 0:
        return "0"
    return f"{float(f'{value:.3g}'):g}"


def _system_for(desc: SystemDescription, mpr: bool, coded: bool) -> StorageSystem:
    """The description's system, with multipacket reception (rx = T for
    every user) and then the coded transform applied on request."""
    sys_ = desc.system
    if mpr:
        sys_ = replace(sys_, rx=(sys_.num_chunks,) * sys_.num_users)
    if coded:
        if desc.coding is None:
            raise SystemBuildError("--coded requires a [coding] section")
        sys_, _links = coded_transform(sys_, desc.coding)
    return sys_


def _region_for(desc: SystemDescription, pattern: TrafficPattern, mpr: bool, coded: bool, io: str) -> RateRegion:
    graph = build_conflict_graph(_system_for(desc, mpr, coded), pattern, io=io)
    return rate_region(graph)


def compute_compare_rows(
    desc: SystemDescription, io: str = "finite"
) -> tuple[list[tuple[str, Fraction, Fraction, float]], float]:
    """Volume comparison data: (row name, uncoded, coded, pct delta) per
    traffic pattern, plus the average delta.

    Deltas are percentages of the 4-decimal displayed volumes (matching
    the published tables); a row with both volumes zero reports 0.  The
    average is taken over the unrounded deltas.
    """
    rows = []
    for name, pattern, mpr in TABLE_ROWS:
        uncoded = _region_for(desc, pattern, mpr, coded=False, io=io).volume()
        coded = _region_for(desc, pattern, mpr, coded=True, io=io).volume()
        u = round(uncoded, 4)
        c = round(coded, 4)
        delta = 0.0 if u == 0 else float(100 * (c - u) / u)
        rows.append((name, uncoded, coded, delta))
    average = sum(r[3] for r in rows) / len(rows)
    return rows, average


def compare_table(desc: SystemDescription, io: str = "finite") -> str:
    """Uncoded vs coded rate-region volume table; deltas shown to three
    significant figures, the average to one decimal."""
    rows, average = compute_compare_rows(desc, io=io)
    lines = ["pattern\tuncoded\tcoded\tpct_delta"]
    for name, uncoded, coded, delta in rows:
        lines.append(
            f"{name}\t{format_volume(uncoded)}\t{format_volume(coded)}\t{format_delta(delta)}"
        )
    lines.append(f"average\t\t\t{average:.1f}")
    return "\n".join(lines) + "\n"


def _load(path: str) -> SystemDescription:
    return parse_system_description(Path(path).read_text(encoding="utf-8"))


def _resolve_pattern(desc: SystemDescription, args) -> TrafficPattern:
    if args.pattern:
        return TrafficPattern(args.pattern)
    if desc.pattern is not None:
        return desc.pattern
    raise SystemBuildError("no traffic pattern: set [traffic] pattern or pass --pattern")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_graph(args) -> None:
    desc = _load(args.config)
    base = _system_for(desc, mpr=False, coded=args.coded)
    graph = build_conflict_graph(base, _resolve_pattern(desc, args), io=args.io)
    text = graph.adjacency_text() + "# edges\n" + graph.edge_list_text()
    _emit(text, args.out)


def _cmd_props(args) -> None:
    desc = _load(args.config)
    base = _system_for(desc, mpr=False, coded=args.coded)
    graph = build_conflict_graph(base, _resolve_pattern(desc, args), io=args.io)
    _emit(classify(graph).as_text(graph), args.out)


def _cmd_region(args) -> None:
    desc = _load(args.config)
    pattern = _resolve_pattern(desc, args)
    region = _region_for(desc, pattern, mpr=False, coded=args.coded, io=args.io)
    parts = [
        "# vertices\n",
        region.v_representation_text(),
        "# inequalities\n",
        region.h_representation_text(),
        f"volume\t{region.volume()}\t{format_volume(region.volume())}\n",
    ]
    _emit("".join(parts), args.out)


def _parse_rates(raw: str, dimension: int) -> tuple[Fraction, ...]:
    rates = tuple(Fraction(tok) for tok in raw.split(","))
    if len(rates) != dimension:
        raise SystemBuildError(f"--rates needs {dimension} comma-separated values")
    return rates


def _cmd_schedule(args) -> None:
    desc = _load(args.config)
    pattern = _resolve_pattern(desc, args)
    region = _region_for(desc, pattern, mpr=False, coded=args.coded, io=args.io)
    rates = _parse_rates(args.rates, region.dimension)
    frame = build_frame_schedule(decompose_rate(region, rates))
    _emit(frame.export_text(), args.out)


def _cmd_simulate(args) -> None:
    desc = _load(args.config)
    pattern = _resolve_pattern(desc, args)
    region = _region_for(desc, pattern, mpr=False, coded=args.coded, io=args.io)
    rates = _parse_rates(args.rates, region.dimension)
    arrivals = ArrivalProcess(rates=rates, seed=args.seed)
    if args.policy == "frame":
        policy = build_frame_schedule(decompose_rate(region, rates))
    else:
        policy = MaxWeightPolicy(region)
    trace = simulate(policy, arrivals, args.horizon)
    verdict = stability_verdict(trace)
    _emit(trace.export_text() + "# summary\n" + verdict.summary_line() + "\n", args.out)


def _cmd_compare(args) -> None:
    desc = _load(args.config)
    if desc.coding is None:
        raise SystemBuildError("compare requires a [coding] section")
    _emit(compare_table(desc, io=args.io), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcnet",
        description="Conflict-graph rate regions and schedules for storage networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "graph": (_cmd_graph, "export the conflict graph"),
        "props": (_cmd_props, "classify the conflict graph structure"),
        "region": (_cmd_region, "exact rate region with volume"),
        "schedule": (_cmd_schedule, "frame schedule for given rates"),
        "simulate": (_cmd_simulate, "queueing simulation with verdict"),
        "compare": (_cmd_compare, "uncoded vs coded volume table"),
    }
    pattern_names = [p.value for p in TrafficPattern]
    for name, (func, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="system description file")
        p.add_argument("--pattern", choices=pattern_names)
        p.add_argument("--io", choices=["finite", "infinite"], default="finite")
        p.add_argument("--coded", action="store_true")
        p.add_argument("--out")
        if name in ("schedule", "simulate"):
            p.add_argument("--rates", required=True, help="comma-separated per-flow rates")
        if name == "simulate":
            p.add_argument("--horizon", type=int, default=100_000)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--policy", choices=["frame", "online"], default="online")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (SystemBuildError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
