"""Alternating parent/change runs of the benchmark, and their summary.

The parent ref is exported with ``git archive`` into a temporary
directory, and the change, the working tree's files that are tracked or
not ignored, is copied into another, so that neither side finds compiled
files left by an earlier run.  For each seed (one pair of runs per seed)
and each workload, it runs ``perfbench/run.py`` on both sides for
BENCHMARK.json's ``run_seconds``, the parent first on even pairs and the
change first on odd ones, so that a drift of the host's speed does not
favour one side.  Each child runs
with PYTHONDONTWRITEBYTECODE=1, so both sides compile their sources at
every set-up.

It prints each pair's end-to-end metrics (the ``end_to_end`` names of
BENCHMARK.json), then the summary as JSON, laid out like a
``BENCH_<pr>.json`` summary: per workload and metric the quartiles of
each side, the ratio of the medians (change over parent), how many pairs
the change had lower, and failed / attempted operations per side.

Run from the repository root:

    python3 tools/ab_bench.py --workloads cocycle_sweep --seeds 240-249
    python3 tools/ab_bench.py --parent HEAD~1 --seeds 1,2 \\
        --workloads cohomology,deformation --out runs.json

``--out`` also writes every run and the summary to a JSON file.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def parse_seeds(text):
    """The seeds of "230-239", "1,4,7" or a mix such as "1-3,7"."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_order(pair):
    """The order of the two runs of a pair: the parent first on even
    pairs."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def result_line(stdout):
    """The JSON result that ends the output of ``perfbench/run.py``."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_record(seed, pair, result, metrics):
    """One run as a flat record: seed, pair, attempted, failed and the
    value of each named metric."""
    record = {"seed": seed, "pair": pair, "attempted": result["attempted"],
              "failed": result["failed"]}
    record.update((m, result["metrics"][m]["value"]) for m in metrics)
    return record


def quartiles(values):
    """[q1, median, q3] (inclusive method), rounded to 5 digits."""
    values = list(values)
    qs = (statistics.quantiles(values, n=4, method="inclusive")
          if len(values) > 1 else values * 3)
    return [round(q, 5) for q in qs]


def summarize(runs, metrics):
    """The summary of ``runs`` ({workload: {"parent": [...], "change":
    [...]}}, records as ``run_record`` makes them), pairs matched by their
    pair index."""
    summary = {}
    for workload, sides in runs.items():
        parent = sorted(sides["parent"], key=lambda r: r["pair"])
        change = sorted(sides["change"], key=lambda r: r["pair"])
        if [r["pair"] for r in parent] != [r["pair"] for r in change]:
            raise ValueError("%s: the two sides ran different pairs"
                             % workload)
        out = {}
        for m in metrics:
            a, b = [r[m] for r in parent], [r[m] for r in change]
            out[m] = {
                "parent_q1_median_q3": quartiles(a),
                "change_q1_median_q3": quartiles(b),
                "change_over_parent_median": round(
                    statistics.median(b) / statistics.median(a), 4),
                "change_lower_pairs": sum(y < x for x, y in zip(a, b)),
                "pairs": len(a)}
        out["failed"] = {
            "parent": sum(r["failed"] for r in parent),
            "change": sum(r["failed"] for r in change),
            "attempted_parent": sum(r["attempted"] for r in parent),
            "attempted_change": sum(r["attempted"] for r in change)}
        summary[workload] = {"seeds": [r["seed"] for r in parent],
                             "metrics": out}
    return summary


def _git(*args):
    return subprocess.run(("git", "-C", str(ROOT)) + args, check=True,
                          capture_output=True).stdout


def export(ref, dest):
    """The committed files of ``ref`` in ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(_git("archive", ref))) as tar:
        tar.extractall(dest, filter="data")
    return dest


def copy_worktree(dest):
    """The working tree's files that are tracked or not ignored in
    ``dest``."""
    for name in _git("ls-files", "-z", "-co", "--exclude-standard"
                     ).decode().split("\0"):
        if name and (ROOT / name).is_file():  # not a deleted file
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)
    return dest


def bench(side_dir, workload, seed, seconds):
    """One end-to-end run of ``perfbench/run.py`` in ``side_dir``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=side_dir, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("%s %s seed %d failed:\n%s"
                         % (side_dir, workload, seed, proc.stderr))
    return result_line(proc.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="git ref of the parent")
    ap.add_argument("--seeds", required=True, help='e.g. "240-249"')
    ap.add_argument("--workloads", required=True,
                    help="comma-separated workload names")
    ap.add_argument("--out", default=None, help="write runs and summary here")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [m["name"] for m in spec["end_to_end"]]
    seconds = spec["run_seconds"]
    workloads = args.workloads.split(",")
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="ab_bench_") as tmp:
        dirs = {"parent": export(args.parent, Path(tmp) / "parent"),
                "change": copy_worktree(Path(tmp) / "change")}
        for pair, seed in enumerate(parse_seeds(args.seeds)):
            for w in workloads:
                for side in run_order(pair):
                    record = run_record(
                        seed, pair, bench(dirs[side], w, seed, seconds),
                        metrics)
                    runs[w][side].append(record)
                    print("pair %d seed %d %s %s: %s" % (
                        pair, seed, w, side,
                        " ".join("%s=%.5g" % (m, record[m])
                                 for m in ("failed",) + tuple(metrics))),
                        flush=True)
    summary = summarize(runs, metrics)
    print(json.dumps(summary, indent=1))
    if args.out:
        Path(args.out).write_text(
            json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n",
            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
