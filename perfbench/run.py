"""Benchmark for diadeform: seeded workloads, checked outputs, one command.

Run from the repository root::

    python3 perfbench/run.py --workload cohomology --seed 1 --seconds 40

Workloads (see ``workloads.py``):

* ``cohomology``: CLI ``cohomology`` / ``mor-cohomology`` on seeded
  isomorphic copies of the bundled objects; bound by elimination.
* ``cocycle_sweep``: delta(delta c) = 0 on seeded random cochains, over QQ
  and GF(32003); the elementwise coboundary, no elimination at all.
* ``deformation``: the CLI deformation commands on seeded valid
  deformations; many ``solve`` calls and the truncated-series loops.

The process is single-threaded and runs a closed loop with one client:
each job starts when the previous one has finished.  After set-up, which
also fills the tree calculus' lru_caches, jobs run in a seeded shuffled
order, pass after pass, until ``--seconds`` have passed (at least one
whole pass).  Every
job's output is checked against ``oracle.json`` or an exact identity; a
mismatch or exception counts as failed and is never raised.

End-to-end metrics (``--trace 0``):

* ``setup_s``: imports, input generation and model-file writing; the
  median of several set-ups, the others made in child processes, one after
  each of the first passes, so that they sample the whole run.
* ``batch_s``: one pass over the job set, as the sum of the job times.
  A job's time is the median of its runs over the whole passes (see
  ``job_times``); a partly finished last pass is not used.
* ``job_ms_p50`` and ``job_ms_tail``: percentiles of the job times; the
  tail is the highest percentile of a fixed ladder with at least 10 jobs
  above it.
* ``peak_rss_mb``: peak resident memory of this process.
* ``failed_ratio``: failed over attempted jobs; printed here and carried by
  the ``failed`` and ``attempted`` fields of the result.

Every time above is given at a reference speed of the host: a fixed probe
loop is timed just before and just after each job and each set-up, and the
measured time is multiplied by ``REFERENCE_PROBE_S`` over the mean of the
two probe times (see ``pick_cpu``).  The wall-clock figures are printed
after the metrics.

With ``--trace 1`` every job runs twice in a row, untraced and traced (see
``tracing.py``), and the result holds the per-layer metrics: raw span
statistics per pass, ``fields.{qq,gf}.job_ms_p50`` from the untraced runs,
and ``trace.overhead_ratio``, traced over untraced ``batch_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
program's sources (``src/diadeform``) the command exits with status 2 and
prints no result.
"""

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("cohomology", "cocycle_sweep", "deformation")
SETUP_SAMPLES = 7
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
CHILD_TIMEOUT_S = 120
# The CPUs this process may use, as started; pick_cpu chooses among them.
CPUS = sorted(os.sched_getaffinity(0))[:4]
# A round figure near the probe's time on a 2-vCPU Intel Xeon virtual
# machine with CPython 3.11; times are reported as if the host ran at that
# speed.  A constant, so that figures from different runs and commits
# compare.
REFERENCE_PROBE_S = 1e-3


def probe():
    """The probe's time on the current CPU: the faster of two runs."""
    best = None
    for _ in range(2):
        t0 = time.perf_counter()
        sum(i * i % 7 for i in range(16000))
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def at_reference_speed(seconds, probe_before, probe_after):
    return seconds * REFERENCE_PROBE_S / ((probe_before + probe_after) / 2)


def setup(workload, seed, workdir):
    """Imports, input generation and model-file writing; timed."""
    probe_s = pick_cpu()
    t0 = time.perf_counter()
    sys.path[:0] = [SRC, HERE]
    import workloads
    workloads.warm_caches()
    jobs = workloads.WORKLOADS[workload](seed, workloads.Workdir(workdir))
    dt = time.perf_counter() - t0
    return jobs, at_reference_speed(dt, probe_s, probe())


def child_setup(args):
    """Set-up time measured in a fresh interpreter."""
    # the child inherits the affinity; let it probe all CPUs again
    os.sched_setaffinity(0, CPUS)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def pick_cpu():
    """Move to the allowed CPU where the probe runs fastest; its time there.

    On a shared host each virtual CPU is slowed by up to 1.9x, for seconds
    at a time and largely independently of the other: the per-second
    median of a fixed loop read 8.5 ms or 15 to 17 ms on either of two
    CPUs.  Probing before each job keeps most jobs off a CPU that is
    slowed at that moment.  Whole runs of 40 s were also slowed by up to
    30% on both CPUs at once, which the probe times taken just before and
    just after a job measure: scaled by them, the interquartile spread of
    one job's repeated times fell from 0.24-0.46 to 0.09-0.12 of its
    median.  Only this process's affinity is changed.
    """
    best = None
    for cpu in CPUS:
        if len(CPUS) > 1:
            os.sched_setaffinity(0, {cpu})
        dt = probe()
        if best is None or dt < best[0]:
            best = (dt, cpu)
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {best[1]})
    return best[0]


def run_job(job):
    """(wall-clock time, time at reference speed, problem or None)."""
    probe_before = pick_cpu()
    gc.collect()
    t0 = time.perf_counter()
    try:
        problem = job.fn()
    except Exception as exc:  # a failing job is counted, never raised
        problem = "%s: %s" % (type(exc).__name__, exc)
    dt = time.perf_counter() - t0
    return dt, at_reference_speed(dt, probe_before, probe()), problem


class Run:
    """Job executions of one run: times, traced statistics, failures."""

    def __init__(self, jobs, tracer=None):
        self.jobs = jobs
        self.tracer = tracer
        self.times = defaultdict(list)
        self.traced_times = defaultdict(list)
        self.traced_stats = defaultdict(list)
        self.attempted = 0
        self.problems = []
        self.passes = 0

    def _count(self, idx, problem):
        self.attempted += 1
        if problem is not None:
            self.problems.append("%s: %s" % (self.jobs[idx].name, problem))

    def execute(self, idx):
        *dt, problem = run_job(self.jobs[idx])
        self._count(idx, problem)
        self.times[idx].append(dt)
        if self.tracer is None:
            return
        self.tracer.install()
        self.tracer.reset()
        try:
            *dt, problem = run_job(self.jobs[idx])
        finally:
            self.tracer.uninstall()
        self._count(idx, problem)
        self.traced_times[idx].append(dt)
        self.traced_stats[idx].append(self.tracer.snapshot())

    def loop(self, seconds, rng, after_pass=lambda: None):
        """Whole shuffled passes until the deadline; after_pass after each."""
        order = list(range(len(self.jobs)))
        deadline = time.perf_counter() + seconds
        while self.passes == 0 or time.perf_counter() < deadline:
            rng.shuffle(order)
            for idx in order:
                if self.passes and time.perf_counter() >= deadline:
                    break
                self.execute(idx)
            else:
                self.passes += 1
                after_pass()


def job_times(samples, passes, wall=False):
    """Each job's median time among its first ``passes`` runs.

    Every job then has the same number of runs, from whole passes only.
    The times are at reference speed, or wall-clock with ``wall``.
    """
    k = 0 if wall else 1
    return {idx: statistics.median(t[k] for t in ts[:passes])
            for idx, ts in samples.items()}


def tail(values):
    """(percentile, value): the highest ladder percentile with >= 10 above."""
    ordered = sorted(values)
    n = len(ordered)
    p = next((p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10),
             50.0)
    pos = (n - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return p, ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(run, setups, out):
    values = list(job_times(run.times, run.passes).values())
    wall = list(job_times(run.times, run.passes, wall=True).values())
    p, tail_s = tail(values)
    attempted = max(run.attempted, 1)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "batch_s": (sum(values), "s"),
        "job_ms_p50": (1000.0 * statistics.median(values), "ms"),
        "job_ms_tail": (1000.0 * tail_s, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    notes = {
        "setup_s": "median of %d set-ups" % len(setups),
        "batch_s": "sum over %d jobs" % len(values),
        "job_ms_p50": "median of %d jobs" % len(values),
        "job_ms_tail": "p%g of %d jobs" % (p, len(values)),
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    for name, (value, unit) in metrics.items():
        out.append("%-14s %12.4f %-5s %s" % (name, value, unit, notes[name]))
    out.append("%-14s %12.4f %-5s %d failed of %d attempted"
               % ("failed_ratio", len(run.problems) / attempted, "ratio",
                  len(run.problems), run.attempted))
    out.append("wall-clock: batch %.4f s, job p50 %.4f ms, job p%g %.4f ms"
               % (sum(wall), 1000.0 * statistics.median(wall), p,
                  1000.0 * tail(wall)[1]))
    return metrics


def per_layer(run, out):
    import tracing
    per_pass = defaultdict(float)
    for snaps in run.traced_stats.values():
        snaps = snaps[:run.passes]
        for key in set().union(*snaps):
            per_pass[key] += sum(s.get(key, 0) for s in snaps) / len(snaps)
    metrics = tracing.layer_metrics(per_pass)
    plain = job_times(run.times, run.passes)
    traced = job_times(run.traced_times, run.passes)
    for fkey in ("qq", "gf"):
        vals = [t for idx, t in plain.items()
                if run.jobs[idx].field == fkey]
        metrics["fields.%s.job_ms_p50" % fkey] = (
            1000.0 * statistics.median(vals) if vals else 0.0, "ms")
    base = sum(plain[idx] for idx in traced)
    metrics["trace.overhead_ratio"] = (sum(traced.values()) / base, "ratio")
    out.append("traced batch_s %.4f s wall-clock (base of the self_ms shares"
               " below)" % sum(job_times(run.traced_times, run.passes,
                                         wall=True).values()))
    for name, (value, unit) in sorted(metrics.items()):
        out.append("%-44s %14.4f %s" % (name, value, unit))
    for name in sorted(run.tracer.absent):
        out.append("absent %s" % name)
    return metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print it (used internally)")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "diadeform")):
        print("error: diadeform sources not found under %s" % SRC,
              file=sys.stderr)
        return 2
    workroot = os.path.join(HERE, "_work")
    os.makedirs(workroot, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=workroot)
    try:
        jobs, first_setup = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": first_setup}))
            return 0
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
        # The collection before each job then skips set-up's objects.
        gc.freeze()
        run = Run(jobs, tracer)
        setups = [first_setup]

        def sample_setup():
            if not args.trace and len(setups) < SETUP_SAMPLES:
                setups.append(child_setup(args))

        run.loop(args.seconds, random.Random(args.seed), sample_setup)
        out = ["workload=%s seed=%d jobs=%d passes=%d executions=%d"
               "  (job time: median of %d runs)"
               % (args.workload, args.seed, len(jobs), run.passes,
                  run.attempted, run.passes)]
        if args.trace:
            metrics = per_layer(run, out)
        else:
            while len(setups) < SETUP_SAMPLES:
                sample_setup()
            metrics = end_to_end(run, setups, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(workroot)
        except OSError:
            pass
    for line in out:
        print(line)
    for problem in run.problems[:20]:
        print("FAILED %s" % problem, file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": len(run.problems),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
