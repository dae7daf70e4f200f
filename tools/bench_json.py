"""Write BENCH_<short-rev>.json: perfbench's end-to-end metrics for one
git revision, as medians and quartiles over several runs.

    python3 tools/bench_json.py [--rev REV]

REV (default HEAD) is exported with ``git archive`` into a temporary
directory, as tools/bench_pairs.py does, so the file describes committed
code only.  Run j (seed j, 1 to RUNS) of every workload of BENCHMARK.json
is

    python3 perfbench/run.py --workload W --seed j --seconds S --trace 0

in that tree, S being BENCHMARK.json's run_seconds, so that every BENCH
file measures the same runs; the workloads take turns, so that a slow
spell of the machine spreads over all of them.  The file, written to
the repository root, holds the full and short rev, the digest perfbench
gives the exported ``src/magsurf``, the Python, numpy and scipy
versions, nproc, a note on how far the machine's speed can be trusted,
and per workload and end-to-end metric of BENCHMARK.json the first
quartile, median and third quartile over the runs, with every run's
value.  A run that exits
non-zero or prints no result is listed under ``failed_runs`` and counts
for no metric.  Only the standard library is used; perfbench/ is run,
never changed.
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rev", default="HEAD")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    rev = _git("rev-parse", args.rev)
    short = _git("rev-parse", "--short", rev)
    results = {name: [] for name in workloads}
    failed_runs = []
    with tempfile.TemporaryDirectory(prefix="bench-json-") as tmp:
        _export(rev, tmp)
        for seed in range(1, RUNS + 1):
            for name in workloads:
                try:
                    res = _run(tmp, name, seed, bench["run_seconds"])
                except (RuntimeError, ValueError,
                        subprocess.TimeoutExpired) as exc:
                    failed_runs.append({"workload": name, "seed": seed,
                                        "error": str(exc)[-500:]})
                    print(f"{name} seed {seed}: failed: {exc}", flush=True)
                    continue
                results[name].append(res)
                print(f"{name} seed {seed}: jobs_per_s "
                      f"{res['metrics']['jobs_per_s']['value']:.4g}, "
                      f"failed {res['failed']} of {res['attempted']}",
                      flush=True)
    record = bench_record(rev, short, results, failed_runs, bench)
    path = os.path.join(ROOT, f"BENCH_{short}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(path)
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
