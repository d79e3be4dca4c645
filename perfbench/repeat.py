"""Repeat benchmark workloads in fresh processes and summarise the spread.

    python3 perfbench/repeat.py                        # BENCHMARK.json's workloads once
    python3 perfbench/repeat.py --runs 10 --workloads queue-sim --first-seed 100

Each run is ``perfbench/run.py`` in a new process with seed
``first-seed + i``.  For every metric the summary gives the median, the
quartiles (``statistics.quantiles(n=4)``) and their distance as a share
of the median, plus jobs attempted and failed per run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list[dict]) -> list[str]:
    lines = []
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        median = statistics.median(values)
        if len(values) > 1:
            q1, _q2, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        spread = (q3 - q1) / median if median else 0.0
        lines.append(f"  {name:28s} median {median:12.6g} {unit:6s} q1 {q1:12.6g}  q3 {q3:12.6g}"
                     f"  iqr/median {spread:7.2%}")
    attempted = [r["attempted"] for r in results]
    failed = [r["failed"] for r in results]
    correct = all(r["correct"] for r in results)
    lines.append(f"  attempted {attempted}  failed {failed}  correct {correct}")
    return lines


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    args = parser.parse_args(argv)

    for workload in args.workloads.split(","):
        results = [run_once(workload, args.first_seed + i, args.seconds) for i in range(args.runs)]
        print(f"{workload}: {args.runs} run(s), seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        print("\n".join(summarise(results)), flush=True)
        for name in results[0]["metrics"]:
            print(f"    {name}: " + " ".join(f"{r['metrics'][name]['value']:.6g}" for r in results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
