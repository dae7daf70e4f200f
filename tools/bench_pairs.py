"""Alternating perfbench pairs: a base revision against the working tree.

    python3 tools/bench_pairs.py --base REV --workload W --pairs N --seconds S

REV is exported with ``git archive`` into a temporary directory, removed on
exit and on error.  Pair j (seed j, from 1) runs

    python3 perfbench/run.py --workload W --seed j --seconds S --trace 0

once in REV's tree and once in the working tree, the base first in odd
pairs and the working tree first in even ones.  Each run's end-to-end
metrics are printed as it ends; then, per metric, each side's median and
quartiles and the number of pairs each side won, by the metric's
``better`` direction in BENCHMARK.json (ties count for neither), and a
verdict against the metric's ``bound``, a fraction of the base median:
``unresolved`` when the base's interquartile spread is wider than the
bound and not every change run beats every base run, else ``worse beyond
bound`` when the change median is worse than the base median by more
than the bound, else ``within bound``.  Last, per slot of the workload's
cycle, each side's median over its runs of the run's median raw wall
seconds for that slot, read from the run's report file (``metrics_file``
under ``.perfbench_out``), and their ratio, so that a change shows which
jobs moved.  A run that exits non-zero or prints no result drops its
pair, and is reported.
Only the standard library is used; perfbench/ is run, never changed.
"""
from __future__ import annotations

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


def parse_result(stdout):
    """The result dict of a perfbench run: its last stdout line, with the
    run's metadata from the report line before it, when there is one,
    under "report"."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if "metrics" not in result:
        raise ValueError("no perfbench result line")
    if len(lines) > 1 and lines[-2].startswith('{"report"'):
        result["report"] = json.loads(lines[-2])["report"]
    return result


def read_slots(root, result):
    """Median raw wall seconds of each slot of the run's cycle, keyed
    'slot label', from the records of the report file the run's report
    line names."""
    with open(os.path.join(root, result["report"]["metrics_file"])) as fh:
        records = json.load(fh)["report"]["records"]
    walls = {}
    for r in records:
        walls.setdefault(f"{r['slot']} {r['label']}", []).append(r["wall_s"])
    return {key: statistics.median(v) for key, v in walls.items()}


def summarize_slots(pairs):
    """Per slot that every run of both sides has: the base and the change
    median of the runs' slot medians."""
    runs = [run for pair in pairs for run in pair]
    keys = [k for k in runs[0]["slots"] if all(k in r["slots"] for r in runs)]
    return {k: (statistics.median(b["slots"][k] for b, _ in pairs),
                statistics.median(c["slots"][k] for _, c in pairs))
            for k in keys}


def format_slots(rows):
    out = ["per slot, median raw wall s: base -> change (change / base)"]
    for key, (base, change) in rows.items():
        out.append(f"{key:28s} {base:.6g} -> {change:.6g}  "
                   f"({change / base:.3f})")
    return "\n".join(out)


def summarize(pairs, better, bounds=None):
    """Per metric: the base and change medians and quartiles over the
    pairs (base result, change result), the pairs each side won, and the
    verdict of each metric that bounds gives a bound."""
    rows = {}
    for name, direction in better.items():
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = 1.0 if direction == "higher" else -1.0
        gains = [sign * (c - b) for b, c in zip(base, change)]
        rows[name] = {
            "base": _quartiles(base), "change": _quartiles(change),
            "change_wins": sum(g > 0 for g in gains),
            "base_wins": sum(g < 0 for g in gains),
        }
        if bounds and name in bounds:
            rows[name]["verdict"] = verdict(base, change, direction,
                                            bounds[name])
    return rows


def verdict(base, change, direction, bound):
    """'unresolved', 'worse beyond bound' or 'within bound' (see the
    module docstring) for one metric's base and change runs."""
    sign = 1.0 if direction == "higher" else -1.0
    q1, median, q3 = _quartiles(base)
    allowed = bound * abs(median)
    beats_all = min(sign * c for c in change) > max(sign * b for b in base)
    if q3 - q1 > allowed and not beats_all:
        return "unresolved"
    if sign * (_quartiles(change)[1] - median) < -allowed:
        return "worse beyond bound"
    return "within bound"


def _quartiles(values):
    """(first quartile, median, third quartile) of a non-empty list."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def format_summary(rows, n_pairs):
    out = [f"{n_pairs} pairs; median [q1, q3], and pairs won"]
    for name, row in rows.items():
        (bq1, bm, bq3), (cq1, cm, cq3) = row["base"], row["change"]
        out.append(f"{name:12s} base {bm:.6g} [{bq1:.6g}, {bq3:.6g}]  "
                   f"change {cm:.6g} [{cq1:.6g}, {cq3:.6g}]  "
                   f"won base {row['base_wins']} / change "
                   f"{row['change_wins']}  {row.get('verdict', '')}".rstrip())
    return "\n".join(out)


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
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    bounds = {m["name"]: m["bound"] for m in end_to_end}
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        _export(args.base, tmp)
        for seed in range(1, args.pairs + 1):
            order = [("base", tmp), ("change", ROOT)]
            if seed % 2 == 0:
                order.reverse()
            results = {}
            for side, root in order:
                try:
                    results[side] = _run(root, args.workload, seed,
                                         args.seconds)
                except (RuntimeError, ValueError,
                        subprocess.TimeoutExpired) as exc:
                    print(f"seed {seed} {side}: failed: {exc}", flush=True)
                    break
                res = results[side]
                values = {n: res["metrics"][n]["value"] for n in better}
                print(f"seed {seed} {side}: failed {res['failed']} of "
                      f"{res['attempted']} jobs, {json.dumps(values)}",
                      flush=True)
            if len(results) == 2:
                pairs.append((results["base"], results["change"]))
    if pairs:
        print(format_summary(summarize(pairs, better, bounds), len(pairs)))
        print(format_slots(summarize_slots(pairs)))
    return 0 if len(pairs) == args.pairs else 1


if __name__ == "__main__":
    sys.exit(main())
