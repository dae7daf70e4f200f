"""magsurf benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload shoot --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``.  The benchmark drives the
package in-process from one client in a closed loop: each job starts when
the previous one returned.  Jobs go through ``magsurf.cli.main`` on
generated INI/CSV files, except ``regions.tau_estimate``, which has no
command and is called directly.

The workload runs in a fresh worker process (``worker.py``); set-up is
measured in that process and in two extra set-up-only processes, and the
median is reported.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a fixed job set, run once untraced and once traced.  The line before it
is a report with the run's metadata, the tail percentile used and every
failed job with its cause.  Outputs go under ``.perfbench_out``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from worker import REFERENCE_S  # noqa: E402  (imports nothing heavy)

ROOT = os.path.dirname(HERE)
SETUP_PROBES = 2
# a probe only sets up; a run measures --seconds of whole cycles, and may
# finish the cycle it is in; a traced run takes a fixed job set
PROBE_TIMEOUT_S = 60.0
RUN_MARGIN_S = 60.0
TRACE_TIMEOUT_S = 150.0
NOTE = ("shared 2-core box: run totals swing about +-13% between runs and "
        "per-job medians stay within about +-5%, but the whole machine "
        "changes speed by up to 1.7x, within seconds as well as over "
        "minutes; end-to-end times are therefore in reference seconds (see "
        "worker.REFERENCE_S), raw ones under 'raw'")

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s",
                    "job_tail_s": "s", "ok_frac": "ratio",
                    "peak_rss_mb": "MB"}


def thread_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def source_digest():
    src = os.path.join(ROOT, "src", "magsurf")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def worker_timeout(mode, seconds):
    if mode == "probe":
        return PROBE_TIMEOUT_S
    if mode == "trace":
        return TRACE_TIMEOUT_S
    return seconds + RUN_MARGIN_S


def run_worker(workload, seed, seconds, mode, tmpdir):
    """Start one worker process; returns (report, set-up seconds, factor
    from its set-up wall seconds to reference seconds)."""
    report_path = os.path.join(tmpdir, f"{mode}.json")
    workdir = os.path.join(tmpdir, f"{mode}-work")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, workload,
           str(seed), repr(seconds), mode, report_path, workdir]
    t0 = time.perf_counter()
    timeout = worker_timeout(mode, seconds)
    try:
        proc = subprocess.run(cmd, env=thread_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the worker and waited for it
        raise SystemExit(f"{mode} worker did not finish within "
                         f"{timeout:g} s") from None
    if proc.returncode != 0 or not os.path.exists(report_path):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        raise SystemExit(f"{mode} worker failed with code {proc.returncode}")
    with open(report_path) as fh:
        report = json.load(fh)
    # the worker clock is the same system-wide monotonic clock
    return report, report["ready"] - t0, scale(report)


def scale(report):
    """Factor from this process's set-up wall seconds to reference
    seconds."""
    return REFERENCE_S / report["reference_s"]


def main():
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "magsurf", "cli.py")):
        raise SystemExit(f"no magsurf sources under {ROOT}/src")
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    mode = "trace" if args.trace else "run"
    with tempfile.TemporaryDirectory(
            dir=os.path.join(ROOT, ".perfbench_out")) as tmpdir:
        setups, raw_setups = [], []
        for i in range(SETUP_PROBES + 1):
            report, setup, k = run_worker(
                args.workload, args.seed, args.seconds,
                mode if i == SETUP_PROBES else "probe", tmpdir)
            raw_setups.append(setup)
            setups.append(setup * k)

    summary = report["summary"]
    records = report["records"]
    failures = [{"label": r["label"], "cause": r["cause"]}
                for r in records if not r["ok"]]
    meta = {
        "workload": args.workload, "seed": args.seed, "mode": mode,
        "git_rev": git_rev(), "source_digest": source_digest(),
        "python": report["python"], "numpy": report["numpy"],
        "scipy": report["scipy"], "nproc": os.cpu_count(), "note": NOTE,
        "client": "1 client, closed loop, in-process",
        "jobs": summary["jobs"], "cycles": report.get("cycles"),
        "tail_percentile": summary["tail_percentile"],
        "reference_s": report["reference_s"],
        "setup_runs_s": setups, "raw_setup_runs_s": raw_setups,
        "failures": failures,
    }
    if mode == "run":
        meta["raw"] = {"setup_s": statistics.median(raw_setups),
                       **{name: report["raw_summary"][name] for name in
                          ("jobs_per_s", "job_p50_s", "job_tail_s")}}
        values = {
            "setup_s": statistics.median(setups),
            "jobs_per_s": summary["jobs_per_s"],
            "job_p50_s": summary["job_p50_s"],
            "job_tail_s": summary["job_tail_s"],
            "ok_frac": summary["ok_frac"],
            "peak_rss_mb": report["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    else:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            units = {m["name"]: m["unit"]
                     for m in json.load(fh)["per_layer"]}
        metrics = {name: {"value": report["layers"][name], "unit": unit}
                   for name, unit in units.items()}
    meta["metrics_file"] = os.path.join(
        ".perfbench_out", f"report-{args.workload}-{args.seed}-{mode}.json")
    with open(os.path.join(ROOT, meta["metrics_file"]), "w") as fh:
        json.dump({"meta": meta, "report": report}, fh, indent=1)
    print(json.dumps({"report": meta}))
    print(json.dumps({"correct": not failures, "attempted": summary["jobs"],
                      "failed": len(failures), "metrics": metrics}))


if __name__ == "__main__":
    main()
