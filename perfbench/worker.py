"""One workload process: set up, run the jobs, write a JSON report.

Started by ``run.py``; not meant to be run by hand.  Usage:

    python3 worker.py ROOT WORKLOAD SEED SECONDS MODE REPORT WORKDIR

ROOT is the checkout holding ``src/magsurf``; MODE is ``probe`` (set up and
stop), ``run`` (timed jobs, tracing off) or ``trace`` (a fixed job set run
untraced, then again traced).  Job files go under WORKDIR, which must not
exist yet and is removed at the end.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import statistics
import sys
import time

clock = time.perf_counter

# Wall time of ``reference_s`` on the machine that defines the benchmark's
# units.  End-to-end times are reported in these reference seconds: each
# job's wall time is scaled by REFERENCE_S / (mean of the reference times
# measured just before and just after it).  On a shared box whose speed
# changes by tens of percent within seconds, this removes the change
# common to the job and the reference; the raw figures stay in the report.
REFERENCE_S = 0.02


def reference_s():
    """Time one fixed computation shaped like magsurf's work: scalar float
    math in a Python loop (the RK4 right-hand side) and small FFTs (the
    array paths)."""
    import numpy as np

    t0 = clock()
    u, v, du, dv = 0.1, 0.2, 1.0, 0.0
    for _ in range(16000):
        e = math.exp(-(u * u + v * v))
        ddu = -e * du * dv - 0.5 * dv
        ddv = e * du * du + 0.5 * du
        du, dv = du + 1e-3 * ddu, dv + 1e-3 * ddv
        u, v = u + 1e-3 * du, v + 1e-3 * dv
    grid = np.cos(np.arange(4096.0)).reshape(64, 64)
    for _ in range(50):
        grid = np.real(np.fft.ifft2(np.fft.fft2(grid)))
    return clock() - t0


def peak_rss_mb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Writes each job's inputs, runs it, checks it and cleans up."""

    def __init__(self, workdir, magsurf):
        self.workdir = workdir
        self.magsurf = magsurf
        self.count = 0
        self.tracer = None

    def _tau(self, job):
        import numpy as np
        from magsurf import regions
        from magsurf.fields import MagneticSystem, TorusField
        from magsurf.surfaces import FlatTorus

        p = job.tau
        amp = 2.0 * math.pi
        system = MagneticSystem(FlatTorus(), TorusField(
            lambda x, y: amp * np.cos(2.0 * np.pi * x)))
        n = 64
        ys = np.arange(n, dtype=float) / n
        # the reversed favourable strip x0 < x < x1 of criterion 08
        curves = [
            regions.RegionCurve(np.column_stack(
                [np.full(n, p["x1"]), ys])[::-1].copy(), winding=(0, -1)),
            regions.RegionCurve(np.column_stack(
                [np.full(n, p["x0"]), 1.0 - ys])[::-1].copy(),
                winding=(0, 1)),
        ]
        strip = regions.Region(curves, orientation=-1)
        params = regions.EvolveParams(tol=p["tol"], spacing=p["spacing"],
                                      max_iter=30000)
        return regions.tau_estimate(system, [strip], p["k_lo"], p["k_hi"],
                                    bisect_iters=p["bisect_iters"],
                                    params=params)

    def prepare(self, job):
        """Write the job's inputs; returns its output directory."""
        self.count += 1
        jdir = os.path.join(self.workdir, f"job{self.count}")
        os.makedirs(jdir)
        for name, writer in job.files:
            writer(os.path.join(jdir, name))
        if job.config is not None:
            with open(os.path.join(jdir, "config.ini"), "w") as fh:
                fh.write(job.config)
        return jdir

    def run(self, job, slot=None):
        """Run one job; returns a record with its wall time and verdict."""
        jdir = self.prepare(job)
        outdir = os.path.join(jdir, "out")
        if self.tracer is not None:
            self.tracer.job = self.count
        sink = io.StringIO()
        cause = None
        tau = None
        # inputs name each other relative to the job directory
        cwd = os.getcwd()
        os.chdir(jdir)
        t0 = clock()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                if job.kind == "tau":
                    tau = self._tau(job)
                    code = 0
                else:
                    code = self.magsurf.cli.main(
                        [job.kind, "config.ini", "--out", "out"])
        except Exception as exc:    # a job failure, not a benchmark error
            code = None
            cause = f"{type(exc).__name__}: {exc}"
        wall = clock() - t0
        os.chdir(cwd)
        message = sink.getvalue().strip()[-300:]
        if cause is None and code != 0:
            cause = f"exit code {code}: {message}"
        if cause is None and job.check is not None:
            from workloads import CheckFailed
            try:
                if job.kind == "tau":
                    job.check(tau)
                else:
                    with open(os.path.join(outdir, "result.json")) as fh:
                        job.check(json.load(fh), outdir)
            except CheckFailed as exc:
                cause = f"check: {exc}"
            except (OSError, KeyError, ValueError) as exc:
                cause = f"check: unreadable output: {exc!r}"
        written = 0
        if os.path.isdir(outdir):
            for name in os.listdir(outdir):
                written += os.path.getsize(os.path.join(outdir, name))
        shutil.rmtree(jdir)
        return {"label": job.label, "slot": slot, "wall_s": wall,
                "ok": cause is None, "cause": cause,
                "bytes": written}


def quantile(sorted_vals, p):
    """Linear-interpolated quantile of sorted values (numpy's default)."""
    pos = p * (len(sorted_vals) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (pos - lo) * (sorted_vals[hi] - sorted_vals[lo])


def tail_percentile(n, preferred):
    """The workload's tail percentile, lowered if fewer than ten jobs
    would lie beyond it."""
    return min(preferred, max(0.5, 1.0 - 10.0 / n)) if n else preferred


def summarize(records, workload, key="wall_s"):
    """End-to-end figures of a list of job records, timed by ``key``.

    ``jobs_per_s`` is the rate of one cycle of the job list, each slot of
    the cycle timed by its median over the run's cycles, so one job slowed
    by a neighbour on the shared CPU does not move it.
    """
    walls = sorted(r[key] for r in records)
    p_tail = tail_percentile(len(walls), workload.tail_percentile)
    failed = sum(1 for r in records if not r["ok"])
    slots = {}
    for r in records:
        slots.setdefault(r["slot"], []).append(r[key])
    cycle_s = sum(statistics.median(v) for v in slots.values())
    return {
        "jobs": len(records),
        "failed": failed,
        "busy_s": sum(walls),
        "busy_jobs_per_s": len(walls) / sum(walls),
        "jobs_per_s": len(slots) / cycle_s,
        "job_p50_s": quantile(walls, 0.5),
        "job_tail_s": quantile(walls, p_tail),
        "tail_percentile": p_tail,
        "ok_frac": 1.0 - failed / len(records),
    }


def main(argv):
    root, workload_name, seed, seconds, mode, report_path, workdir = argv
    seed, seconds = int(seed), float(seconds)
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, here)
    import numpy
    import scipy
    import scipy.interpolate     # imported lazily inside jobs otherwise
    import scipy.optimize
    import magsurf
    import magsurf.cli
    import workloads

    src = os.path.realpath(os.path.join(root, "src", "magsurf"))
    if os.path.dirname(os.path.realpath(magsurf.__file__)) != src:
        raise SystemExit(f"magsurf imported from {magsurf.__file__}, "
                         f"not from {src}")
    workload = workloads.WORKLOADS[workload_name]
    os.makedirs(workdir)
    runner = Runner(workdir, magsurf)
    report = {"workload": workload_name, "seed": seed, "mode": mode,
              "numpy": numpy.__version__, "scipy": scipy.__version__,
              "python": sys.version.split()[0]}
    try:
        first = workload.cycle(seed, 0)
        warm = [runner.run(job) for job in workload.warmups()]
        report["warmup"] = warm
        bad = [r for r in warm if not r["ok"]]
        if bad:
            raise SystemExit(f"warm-up job failed: {bad}")
        report["ready"] = clock()
        # scales this process's set-up time to reference seconds
        report["reference_s"] = statistics.median(
            reference_s() for _ in range(5))
        if mode == "run":
            records = []
            t_start = clock()
            cycle, jobs = 0, first
            ref = reference_s()
            # whole cycles only, so every run holds the same job mix
            while True:
                for i, job in enumerate(jobs):
                    rec = runner.run(job, i)
                    before, ref = ref, reference_s()
                    rec["ref_s"] = 0.5 * (before + ref)
                    rec["scaled_s"] = rec["wall_s"] * REFERENCE_S \
                        / rec["ref_s"]
                    records.append(rec)
                cycle += 1
                if clock() - t_start >= seconds:
                    break
                jobs = workload.cycle(seed, cycle)
            report["elapsed_s"] = clock() - t_start
            report["cycles"] = cycle
            report["records"] = records
            report["summary"] = summarize(records, workload, "scaled_s")
            report["raw_summary"] = summarize(records, workload)
        elif mode == "trace":
            from tracer import Tracer
            jobs = [(i, job) for c in range(workload.trace_cycles)
                    for i, job in enumerate(workload.cycle(seed, c))]
            tracer = Tracer()
            overhead_us = tracer.leaf_overhead_us()
            tracer.install()
            runner.tracer = tracer
            # each job runs untraced, then traced, back to back, so a slow
            # spell of the shared CPU hits both sides of the overhead ratio
            plain, traced = [], []
            for i, job in jobs:
                plain.append(runner.run(job, i))
                tracer.enable()
                traced.append(runner.run(job, i))
                tracer.disable()
            metrics = tracer.metrics()
            metrics["cli.bytes_written"] = sum(r["bytes"] for r in traced)
            metrics["trace.jobs"] = len(traced)
            metrics["trace.leaf_overhead_us"] = overhead_us
            metrics["trace.spans"] = len(tracer.spans)
            metrics["trace.jobs_per_s_ratio"] = \
                sum(r["wall_s"] for r in plain) \
                / sum(r["wall_s"] for r in traced)
            report["records"] = traced
            report["untraced_records"] = plain
            report["summary"] = summarize(traced, workload)
            report["layers"] = metrics
            spans_dir = os.path.join(root, ".perfbench_out")
            os.makedirs(spans_dir, exist_ok=True)
            tracer.write_spans(os.path.join(
                spans_dir, f"spans-{workload_name}-{seed}.jsonl"))
        report["peak_rss_mb"] = peak_rss_mb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(report_path, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
