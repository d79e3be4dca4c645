"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload region-tables --seed 1 --seconds 10 --trace 0

Run from the root of a source tree: the program is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("region-tables", "rate-queries", "queue-sim", "graph-families")
TRACE_DIR = ".perfbench-traces"
# One queue-sim pass of 114 simulations already lasts about 26 s.
MIN_PASSES = {"queue-sim": 1}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program() -> None:
    """Import qcnet from this tree's src/ and pay its one-time costs."""
    src = ROOT / "src"
    if not (src / "qcnet" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {src / 'qcnet'}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # one BLAS thread: read when numpy loads
    sys.path.insert(0, str(src))
    import qcnet

    if Path(qcnet.__file__).resolve().parent != (src / "qcnet").resolve():
        raise SystemExit(f"error: imported qcnet from {qcnet.__file__}, not from {src}")
    # warm-up: the first hull imports scipy.spatial
    qcnet.exact_hull([(0, 0), (1, 0), (0, 1)])


def workload_factories():
    import families
    import tables

    return {
        "region-tables": tables.region_tables,
        "rate-queries": tables.rate_queries,
        "queue-sim": tables.queue_sim,
        "graph-families": families.graph_families,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    import harness
    import layers

    import_s = time.perf_counter() - T0
    build = workload_factories()[args.workload]
    build_s = []
    for _ in range(1 if args.trace else harness.SETUP_REPEATS):
        start = time.perf_counter()
        jobs, check = build(args.seed)
        build_s.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(build_s)

    tracer = harness.Tracer() if args.trace else harness.NULL
    result = harness.run_passes(jobs, tracer, args.seconds,
                                min_passes=MIN_PASSES.get(args.workload, harness.MIN_PASSES))
    errors = check(result.answers)
    if not result.consistent:
        errors.append("a later pass gave other answers than the first")
    attempted, failed = result.attempted, result.failed

    if args.trace:
        traced = {args.workload: (tracer, result.passes)}
        for other in WORKLOADS:
            if other == args.workload:
                continue
            other_jobs, other_check = workload_factories()[other](args.seed)
            other_tracer = harness.Tracer()
            other_result = harness.run_passes(other_jobs, other_tracer, 0, min_jobs=0,
                                              min_passes=1, max_passes=1)
            errors += [f"{other}: {e}" for e in other_check(other_result.answers)]
            attempted += other_result.attempted
            failed += other_result.failed
            traced[other] = (other_tracer, 1)
        metrics = layers.per_layer(traced)
        out_dir = Path.cwd() / TRACE_DIR
        out_dir.mkdir(exist_ok=True)
        for name, (tr, _passes) in traced.items():
            tr.dump(out_dir / f"{args.workload}-seed{args.seed}-{name}.jsonl")
        scaled = harness.end_to_end(result, 0.0)["jobs_per_s"]["value"]
        unscaled = harness.end_to_end(result, 0.0, scaled=False)["jobs_per_s"]["value"]
        print(f"traced {args.workload}: jobs_per_s {scaled:.4f} (unscaled {unscaled:.4f}) "
              f"over {result.passes} passes")
    else:
        metrics = harness.end_to_end(result, setup_s)
        print(f"{args.workload}: set-up {import_s:.3f} s imports + builds "
              f"{', '.join(f'{b:.3f}' for b in build_s)} s; {result.passes} passes; "
              f"probe median {1000 * statistics.median(result.probe_times):.3f} ms, "
              f"nominal {1000 * harness.PROBE_NOMINAL_S:.3f} ms")
        unscaled = harness.end_to_end(result, setup_s, scaled=False)
        print("  unscaled: " + ", ".join(f"{name} = {m['value']:.6g} {m['unit']}"
                                         for name, m in unscaled.items()))

    for e in errors[:20]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  attempted = {attempted}, failed = {failed}, correct = {not errors}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
