"""Run loop, tracing and metrics shared by every workload.

A workload is a closed loop: one caller submits the next job when the
previous one returns.  A run repeats the workload's seeded job list in
whole passes until the requested seconds are spent, at least MIN_JOBS
jobs have completed and the workload's minimum number of passes is
made.  Outputs are checked after timing ends.

The build host's vCPUs share their cores with other machines' work:
the same job ran up to 1.8x slower in phases lasting from seconds to
whole 30 s runs.  So the end-to-end times are reported at a nominal
host speed.  A fixed probe (``probe``) runs, untimed, before every job;
each job time is scaled by PROBE_NOMINAL_S over the median probe time
of its pass, and set-up by the same ratio over the whole run.  A job's
time is then its median over the passes, and p50 and p90 are taken over
the job list, so they do not move with the number of passes.  The
unscaled figures are printed beside the scaled ones.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable

MIN_JOBS = 100
MIN_PASSES = 3  # so each job's median is taken over three or more
PROBE_NOMINAL_S = 0.003  # reported times are at this probe time
SETUP_REPEATS = 3


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing job span; None for a job span
    counts: dict = field(default_factory=dict)


class NullTracer:
    """Tracing off: every span is the same no-op context."""

    enabled = False

    @contextmanager
    def span(self, name: str, **counts):
        yield counts

    def job(self, name: str):
        return self.span(name)


NULL = NullTracer()


class Tracer:
    """Records one span per public call, parented to its job span.

    Spans stay in memory; ``dump`` writes them once the run is over.
    A span's ``counts`` dict may be filled in by the caller after the
    timed call returns (``with tr.span(...) as c: ...; c["sets"] = n``).
    """

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._job: int | None = None

    @contextmanager
    def span(self, name: str, **counts):
        rec = Span(name, 0.0, 0.0, self._job, dict(counts))
        self.spans.append(rec)
        rec.start = time.perf_counter()
        try:
            yield rec.counts
        finally:
            rec.end = time.perf_counter()

    @contextmanager
    def job(self, name: str):
        rec = Span(name, 0.0, 0.0, None)
        self.spans.append(rec)
        self._job = len(self.spans) - 1
        rec.start = time.perf_counter()
        try:
            yield rec.counts
        finally:
            rec.end = time.perf_counter()
            self._job = None

    def layer_totals(self) -> tuple[dict[str, float], dict[str, dict[str, float]], float]:
        """Per-layer self time (s), per-layer summed counts, and the job
        time outside every layer span (s).

        Layer spans never nest inside one another here, so a layer's self
        time is its duration; a job's residue is its duration minus the
        durations of its child spans.
        """
        self_time: dict[str, float] = {}
        counts: dict[str, dict[str, float]] = {}
        child_time: dict[int, float] = {}
        for rec in self.spans:
            if rec.parent is None:
                continue
            dur = rec.end - rec.start
            self_time[rec.name] = self_time.get(rec.name, 0.0) + dur
            child_time[rec.parent] = child_time.get(rec.parent, 0.0) + dur
            bucket = counts.setdefault(rec.name, {})
            for key, value in rec.counts.items():
                bucket[key] = bucket.get(key, 0) + value
        residue = sum(
            (rec.end - rec.start) - child_time.get(idx, 0.0)
            for idx, rec in enumerate(self.spans)
            if rec.parent is None
        )
        return self_time, counts, residue

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(asdict(rec)) + "\n")


@dataclass
class Job:
    """One unit of work: ``fn(tracer)`` returns ``(answer, detail)``.

    ``answer`` is small and compared across passes; ``detail`` holds the
    objects the output checks need and is kept for the first pass only.
    """

    name: str
    fn: Callable


def probe() -> float:
    """Time one fixed piece of pure-Python work (Fraction arithmetic,
    dict, set and sort operations, like the program's own) and return
    its seconds."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i * 7919 % 1000 + 1, i + 3)
        if acc > 100:
            acc *= Fraction(3, 4)
    counts: dict[int, int] = {}
    seen = set()
    for i in range(2000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        seen.add(i * 31 % 503)
    sorted(i * 7919 % 1009 for i in range(1000))
    return time.perf_counter() - start


@dataclass
class RunResult:
    job_times: list[float]  # pass after pass, in job-list order
    probe_times: list[float]  # the probe run just before each job
    jobs_per_pass: int
    passes: int
    attempted: int
    failed: int
    answers: list  # first pass, per job: (answer, detail) or None when it failed
    consistent: bool  # every later pass gave the first pass's answers
    peak_rss_mb: float


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(jobs: list[Job], tracer, seconds: float, min_jobs: int = MIN_JOBS,
               min_passes: int = MIN_PASSES, max_passes: int | None = None) -> RunResult:
    """Repeat the job list in whole passes until ``seconds`` of timed work,
    ``min_jobs`` jobs and ``min_passes`` passes are done (or
    ``max_passes`` passes).  A probe runs before each job, untimed."""
    job_times: list[float] = []
    probe_times: list[float] = []
    first: list = []  # first pass: (answer, detail) per job, None when it failed
    reference: list = []
    consistent = True
    failed = 0
    passes = 0
    while True:
        answers: list = []
        for job in jobs:
            probe_times.append(probe())
            t0 = time.perf_counter()
            try:
                with tracer.job(job.name):
                    out = job.fn(tracer)
            except Exception:  # a failing job is counted, and the run goes on
                failed += 1
                out = None
                if passes == 0:
                    print(f"job {job.name} failed:", file=sys.stderr)
                    traceback.print_exc(file=sys.stderr)
            job_times.append(time.perf_counter() - t0)
            if passes == 0:
                first.append(out)
            answers.append(None if out is None else out[0])
        if passes == 0:
            reference = answers
        else:
            consistent = consistent and answers == reference
        passes += 1
        if max_passes is not None and passes >= max_passes:
            break
        if sum(job_times) >= seconds and len(job_times) >= min_jobs and passes >= min_passes:
            break
    return RunResult(
        job_times=job_times,
        probe_times=probe_times,
        jobs_per_pass=len(jobs),
        passes=passes,
        attempted=len(job_times),
        failed=failed,
        answers=first,
        consistent=consistent,
        peak_rss_mb=peak_rss_mb(),
    )


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile by ``statistics.quantiles(n=100)``, inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def host_factors(result: RunResult) -> list[float]:
    """Per job sample: PROBE_NOMINAL_S over the median probe time of its
    pass.  A time multiplied by its factor is a time at nominal speed."""
    n = result.jobs_per_pass
    out: list[float] = []
    for start in range(0, len(result.probe_times), n):
        out += [PROBE_NOMINAL_S / statistics.median(result.probe_times[start:start + n])] * n
    return out


def end_to_end(result: RunResult, setup_s: float, scaled: bool = True) -> dict[str, dict]:
    """The five end-to-end metrics, at nominal host speed unless
    ``scaled`` is false."""
    times = result.job_times
    if scaled:
        times = [t * f for t, f in zip(times, host_factors(result))]
        setup_s *= PROBE_NOMINAL_S / statistics.median(result.probe_times)
    n = result.jobs_per_pass
    per_job_ms = [1000.0 * statistics.median(times[k::n]) for k in range(n)]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "jobs_per_s": {"value": 1000.0 * len(per_job_ms) / sum(per_job_ms), "unit": "1/s"},
        "job_p50_ms": {"value": statistics.median(per_job_ms), "unit": "ms"},
        "job_p90_ms": {"value": percentile(per_job_ms, 90), "unit": "ms"},
        "peak_rss_mb": {"value": result.peak_rss_mb, "unit": "MB"},
    }
