"""The perfbench harness: BENCH_<short-rev>.json for each git revision and,
given two or more, a paired comparison of each later one with the first.

    python3 tools/bench_json.py [--rev REV] [--rev REV2 ...]

Each REV (default HEAD) is run only from its own ``git archive`` export in
a temporary directory, never from the working tree: run j (seed j, 1 to
RUNS) of every workload W of BENCHMARK.json is ``python3 perfbench/run.py
--workload W --seed j --seconds S --trace 0`` there, S being run_seconds.
The workloads take turns, and so do the revisions within each workload's
turn, in the given order at odd seeds and reversed at even ones, so that
a slow spell of the machine spreads over all of them.  A revision's BENCH
file, at the repository root, holds its rev, perfbench's digest of its
``src/magsurf``, the Python, numpy and scipy versions, nproc, a note on the
machine, and per workload and end-to-end metric the quartiles over runs.

With two or more revisions the first is the base, and its run and a later
revision's run of one workload and seed make a pair.  Per workload and
metric, each side's quartiles over the pairs are printed, the pairs each
side won by the metric's ``better`` direction (ties count for neither),
and a verdict: ``gain`` when the change won at least 9 in 10 pairs and
its median beats the base median by more than the base's interquartile
spread, else ``unresolved`` when that spread is wider than the metric's
``bound`` (a fraction of the base median) and not every change run beats
every base run, else ``worse beyond bound`` when the change median is
worse by more than the bound, else ``within bound``.  Then, per slot of
the workload's cycle, each side's median over its runs of the slot's
median raw wall seconds, from the run's report file, and their ratio.
A run that exits non-zero, prints no result or report line, or whose
report file cannot be read is listed under ``failed_runs`` and drops its
pair.  Only the standard library is used; perfbench/ is run, never changed.
"""
import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10
NOTE = ("measured on a shared {nproc}-core box whose speed changes between "
        "sessions and within one (perfbench reports times in reference "
        "seconds to take some of that out); compare BENCH files measured "
        "in one session, and read each metric's quartiles as its spread")


def parse_result(stdout):
    """The result dict of a perfbench run: its last stdout line, with the
    run's metadata, from the report line before it, under "report"."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if "metrics" not in result:
        raise ValueError("no perfbench result line")
    if len(lines) < 2 or not lines[-2].startswith('{"report"'):
        raise ValueError("no perfbench report line")
    result["report"] = json.loads(lines[-2])["report"]
    return result


def read_slots(root, result):
    """Median raw wall seconds of each slot of the run's cycle, keyed
    'slot label', from the report file the run's report line names."""
    with open(os.path.join(root, result["report"]["metrics_file"])) as fh:
        records = json.load(fh)["report"]["records"]
    walls = {}
    for r in records:
        walls.setdefault(f"{r['slot']} {r['label']}", []).append(r["wall_s"])
    return {key: statistics.median(v) for key, v in walls.items()}


def summarize(results, end_to_end):
    """Per end-to-end metric: its unit, better direction, first quartile,
    median, third quartile and the value of every run, over results."""
    metrics = {}
    for m in end_to_end:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else (values or [None]) * 3)
        metrics[m["name"]] = {"unit": m["unit"], "better": m["better"],
                              "q1": q1, "median": median, "q3": q3,
                              "values": values}
    return metrics


def compare(pairs, end_to_end):
    """Per end-to-end metric over pairs (base result, change result): each
    side's summary, the pairs each side won and the verdict."""
    sides = [summarize([pair[i] for pair in pairs], end_to_end)
             for i in (0, 1)]
    rows = {}
    for m in end_to_end:
        base, change = (side[m["name"]] for side in sides)
        sign = 1.0 if m["better"] == "higher" else -1.0
        gains = [sign * (c - b)
                 for b, c in zip(base["values"], change["values"])]
        wins = sum(g > 0 for g in gains)
        rows[m["name"]] = {
            "base": base, "change": change, "change_wins": wins,
            "base_wins": sum(g < 0 for g in gains),
            "verdict": verdict(base, change, sign, m["bound"],
                               10 * wins >= 9 * len(pairs))}
    return rows


def verdict(base, change, sign, bound, won_nine_tenths):
    """'gain', 'unresolved', 'worse beyond bound' or 'within bound' (see
    the module docstring) for one metric's base and change summaries."""
    spread = base["q3"] - base["q1"]
    allowed = bound * abs(base["median"])
    better_by = sign * (change["median"] - base["median"])
    if won_nine_tenths and better_by > spread:
        return "gain"
    beats_all = (min(sign * c for c in change["values"])
                 > max(sign * b for b in base["values"]))
    if spread > allowed and not beats_all:
        return "unresolved"
    if better_by < -allowed:
        return "worse beyond bound"
    return "within bound"


def format_summary(rows, n_pairs):
    def side(s):
        return f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"
    out = [f"{n_pairs} pairs; median [q1, q3], and pairs won"]
    for name, row in rows.items():
        out.append(f"{name:12s} base {side(row['base'])}  change "
                   f"{side(row['change'])}  won base {row['base_wins']} / "
                   f"change {row['change_wins']}  {row['verdict']}")
    return "\n".join(out)


def format_slots(pairs):
    """Per slot that every run of both sides has: the base's and the
    change's median of the runs' slot medians, and their ratio."""
    runs = [run for pair in pairs for run in pair]
    out = ["per slot, median raw wall s: base -> change (change / base)"]
    for key in runs[0]["slots"]:
        if all(key in r["slots"] for r in runs):
            base, change = (statistics.median(p[i]["slots"][key]
                                              for p in pairs) for i in (0, 1))
            out.append(f"{key:28s} {base:.6g} -> {change:.6g}  "
                       f"({change / base:.3f})")
    return "\n".join(out)


def bench_record(rev, short, results, failed_runs, bench):
    """The BENCH file's content from each workload's run results (in seed
    order) and the runs that failed, with BENCHMARK.json's content bench."""
    meta = next((r["report"] for runs in results.values() for r in runs), {})
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


def _export(rev, dest):
    """The files of rev, from git archive, under dest."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")


def _run(root, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=4 * seconds + 600)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr[-500:]}")
    result = parse_result(proc.stdout)
    result["slots"] = read_slots(root, result)
    result["seed"] = seed
    return result


def run_order(revs, workloads, runs=RUNS):
    """The (seed, workload, rev) of every run in the order they run: the
    seeds in turn, within a seed the workloads, within a workload the
    revisions, reversed at even seeds."""
    return [(seed, name, rev) for seed in range(1, runs + 1)
            for name in workloads
            for rev in (revs if seed % 2 else revs[::-1])]


def measure(trees, workloads, seconds):
    """Every run of run_order, each in its revision's tree of trees: per
    revision, each workload's results in seed order, and the failed runs."""
    results = {rev: {name: [] for name in workloads} for rev in trees}
    failed_runs = {rev: [] for rev in trees}
    for seed, name, rev in run_order(list(trees), workloads):
        label = f"{rev[:9]} {name} seed {seed}"
        try:
            res = _run(trees[rev], name, seed, seconds)
        except (OSError, RuntimeError, ValueError,
                subprocess.TimeoutExpired) as exc:
            failed_runs[rev].append({"workload": name, "seed": seed,
                                     "error": str(exc)[-500:]})
            print(f"{label}: failed: {exc}", flush=True)
            continue
        results[rev][name].append(res)
        values = {n: v["value"] for n, v in res["metrics"].items()}
        print(f"{label}: failed {res['failed']} of {res['attempted']} jobs,",
              json.dumps(values), flush=True)
    return results, failed_runs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rev", action="append",
                    help="a revision to measure (repeatable, the first is "
                         "the base; default HEAD)")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    revs = list(dict.fromkeys(_git("rev-parse", r)
                              for r in args.rev or ["HEAD"]))
    with tempfile.TemporaryDirectory(prefix="bench-json-") as tmp:
        trees = {rev: os.path.join(tmp, rev) for rev in revs}
        for rev, tree in trees.items():
            _export(rev, tree)
        results, failed_runs = measure(trees, workloads,
                                       bench["run_seconds"])
    short = {rev: _git("rev-parse", "--short", rev) for rev in revs}
    for rev in revs:
        path = os.path.join(ROOT, f"BENCH_{short[rev]}.json")
        record = bench_record(rev, short[rev], results[rev],
                              failed_runs[rev], bench)
        with open(path, "w") as fh:
            fh.write(json.dumps(record, indent=1) + "\n")
        print(path)
    for rev in revs[1:]:
        for name in workloads:
            base = {r["seed"]: r for r in results[revs[0]][name]}
            pairs = [(base[r["seed"]], r) for r in results[rev][name]
                     if r["seed"] in base]
            print(f"{name}: {short[rev]} against {short[revs[0]]}")
            if pairs:
                print(format_summary(compare(pairs, bench["end_to_end"]),
                                     len(pairs)))
                print(format_slots(pairs))
    return 1 if any(failed_runs.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
