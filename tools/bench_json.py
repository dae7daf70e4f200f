"""Write BENCH_<short-rev>.json: perfbench's end-to-end metrics for one
or more git revisions, as medians and quartiles over several runs.

    python3 tools/bench_json.py [--rev REV] [--rev REV2 ...]

Each REV (default HEAD) is exported with ``git archive`` into its own
temporary directory, as tools/bench_pairs.py does, so the file describes
committed code only.  Run j (seed j, 1 to RUNS) of every workload of
BENCHMARK.json is

    python3 perfbench/run.py --workload W --seed j --seconds S --trace 0

in that tree, S being BENCHMARK.json's run_seconds, so that every BENCH
file measures the same runs; the workloads take turns, and so do the
revisions within each workload's turn, in the given order at odd seeds
and reversed at even ones, so that a slow spell of the machine spreads
over all of them and the files of one invocation can be compared.  One
file per revision, written to the repository root, holds the full and
short rev, the digest perfbench gives the exported ``src/magsurf``, the
Python, numpy and scipy versions, nproc, a note on how far the
machine's speed can be trusted, and per workload and end-to-end metric
of BENCHMARK.json the first quartile, median and third quartile over
the runs, with every run's value.  A run that exits non-zero or prints
no result is listed under ``failed_runs`` and counts for no metric.
Only the standard library is used; perfbench/ is run, never changed.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import ROOT, _export, _quartiles, _run  # noqa: E402

RUNS = 5
NOTE = ("measured on a shared {nproc}-core box whose speed changes between "
        "sessions and within one (perfbench reports times in reference "
        "seconds to take some of that out); compare BENCH files measured "
        "in one session, and read each metric's quartiles as its spread")


def summarize(results, end_to_end):
    """Per end-to-end metric: its unit, better direction, first quartile,
    median, third quartile and the value of every run, over the results
    of one workload's runs."""
    metrics = {}
    for m in end_to_end:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, median, q3 = _quartiles(values) if values else (None,) * 3
        metrics[m["name"]] = {"unit": m["unit"], "better": m["better"],
                              "q1": q1, "median": median, "q3": q3,
                              "values": values}
    return metrics


def bench_record(rev, short, results, failed_runs, bench):
    """The BENCH file's content from each workload's run results (in seed
    order) and the runs that failed, with BENCHMARK.json's content bench."""
    reports = [r["report"] for runs in results.values() for r in runs
               if "report" in r]
    meta = reports[0] if reports else {}
    nproc = meta.get("nproc", os.cpu_count())
    return {
        "rev": rev, "short_rev": short,
        "src_digest": meta.get("source_digest"),
        "python": meta.get("python"), "numpy": meta.get("numpy"),
        "scipy": meta.get("scipy"), "nproc": nproc,
        "note": NOTE.format(nproc=nproc),
        "command": ("python3 perfbench/run.py --workload W --seed j "
                    f"--seconds {bench['run_seconds']:g} --trace 0"),
        "workloads": {
            name: {"runs": len(runs),
                   "attempted_jobs": sum(r["attempted"] for r in runs),
                   "failed_jobs": sum(r["failed"] for r in runs),
                   "metrics": summarize(runs, bench["end_to_end"])}
            for name, runs in results.items()},
        "failed_runs": failed_runs,
    }


def _git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_order(revs, workloads, runs=RUNS):
    """The (seed, workload, rev) of every run in the order they run: the
    seeds in turn, within a seed the workloads, within a workload the
    revisions, reversed at even seeds."""
    return [(seed, name, rev) for seed in range(1, runs + 1)
            for name in workloads
            for rev in (revs if seed % 2 else revs[::-1])]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rev", action="append",
                    help="a revision to measure (repeatable; default HEAD)")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    revs = list(dict.fromkeys(_git("rev-parse", r)
                              for r in args.rev or ["HEAD"]))
    results = {rev: {name: [] for name in workloads} for rev in revs}
    failed_runs = {rev: [] for rev in revs}
    with tempfile.TemporaryDirectory(prefix="bench-json-") as tmp:
        trees = {rev: os.path.join(tmp, rev) for rev in revs}
        for rev, tree in trees.items():
            _export(rev, tree)
        for seed, name, rev in run_order(revs, workloads):
            label = f"{rev[:9]} {name} seed {seed}"
            try:
                res = _run(trees[rev], name, seed, bench["run_seconds"])
            except (RuntimeError, ValueError,
                    subprocess.TimeoutExpired) as exc:
                failed_runs[rev].append({"workload": name, "seed": seed,
                                         "error": str(exc)[-500:]})
                print(f"{label}: failed: {exc}", flush=True)
                continue
            results[rev][name].append(res)
            print(f"{label}: jobs_per_s "
                  f"{res['metrics']['jobs_per_s']['value']:.4g}, "
                  f"failed {res['failed']} of {res['attempted']}",
                  flush=True)
    for rev in revs:
        short = _git("rev-parse", "--short", rev)
        record = bench_record(rev, short, results[rev], failed_runs[rev],
                              bench)
        path = os.path.join(ROOT, f"BENCH_{short}.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
        print(path)
    return 1 if any(failed_runs.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
