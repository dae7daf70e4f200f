"""Seeded job lists for the magsurf benchmark workloads.

A workload is an endless, deterministic sequence of jobs built from the
workload seed.  The sequence is made of cycles; every cycle holds the same
templates (surface, field, command kind, parameter stratum) in the same
order, and the seed jitters the parameters inside each template's narrow
stratum.  So two seeds exercise the same code with the same cost profile,
while the program never sees the same inputs twice.

Each job carries its own correctness check.  The checks use closed forms
computed here, never the program's own oracles.
"""
from __future__ import annotations

import csv
import math
import os
import random

# f = 2 pi cos 2 pi x, the criterion-08 field; its minimal sup-norm
# primitive has sup 1, so the c0 energy value is 1/2.
COSINE_AMP = 2.0 * math.pi
CRITERION08_ENERGY = 0.5
SHOOT_PERIOD_TOL = 1e-6
# Newton tolerance of the cosine-field shoots; see shoot_cosine
COSINE_SHOOT_TOL = 1e-9
CURVATURE_TOL = 1e-6
DESCEND_ENERGY_TOL = 1e-6
CONTACT_TOL = 1e-9
TAU_REL_TOL = 0.05


class CheckFailed(Exception):
    """A job ran but its output is outside its correctness bound."""


class Job:
    """One unit of work: a CLI command, or a direct ``tau_estimate`` call."""

    def __init__(self, kind, label, config=None, check=None, files=(),
                 tau=None):
        self.kind = kind          # CLI command name, or "tau"
        self.label = label        # template name, stable across seeds
        self.config = config      # INI text for CLI jobs
        self.check = check        # callable(summary, outdir) -> None
        self.files = files        # extra generated inputs: (name, writer)
        self.tau = tau            # keyword arguments of a tau job


def ini(surface, field, run):
    lines = []
    for name, sec in (("surface", surface), ("field", field), ("run", run)):
        if sec is None:
            continue
        lines.append(f"[{name}]")
        for key, val in sec.items():
            if isinstance(val, float):
                val = repr(val)
            lines.append(f"{key} = {val}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# closed forms in the curvature kappa = s |f|
# ---------------------------------------------------------------------------

def circle_period(kind, s, f):
    kappa = s * abs(f)
    if kind == "sphere":
        return 2.0 * math.pi * s / math.sqrt(1.0 + kappa * kappa)
    if kind == "flat_torus":
        return 2.0 * math.pi / abs(f)
    if kind == "hyperbolic":
        return 2.0 * math.pi * s / math.sqrt(kappa * kappa - 1.0)
    raise ValueError(kind)


def circle_radius(kind, kappa):
    """Geodesic radius of the circle of geodesic curvature kappa."""
    if kind == "sphere":
        return math.atan(1.0 / kappa)
    if kind == "flat_torus":
        return 1.0 / kappa
    return math.atanh(1.0 / kappa)


def circle_seed(kind, radius, sign):
    """Chart point on a circle of the given geodesic radius, with the
    velocity direction that turns the way sign(f) turns."""
    angle = 0.5 * math.pi if sign > 0 else -0.5 * math.pi
    if kind == "sphere":
        return math.tan(0.5 * radius), 0.0, angle
    if kind == "flat_torus":
        return 0.5 + radius, 0.5, angle
    # hyperbolic circle about i: Euclidean centre (0, cosh r), radius sinh r
    return math.sinh(radius), math.cosh(radius), angle


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def check_period(kind, s, f):
    want = circle_period(kind, s, f)

    def check(summary, outdir):
        err = abs(summary["period"] - want)
        _require(err < SHOOT_PERIOD_TOL,
                 f"period {summary['period']:.12g} vs closed form "
                 f"{want:.12g} (err {err:.2e})")
    return check


def cosine_f(x, amp=COSINE_AMP):
    return amp * math.cos(2.0 * math.pi * x)


def check_cosine_orbit(s):
    """max |kappa - s f| over the recorded orbit, as
    ``orbits.orbit_curvature_residual`` defines it."""
    def check(summary, outdir):
        worst = 0.0
        with open(os.path.join(outdir, "trajectory.csv")) as fh:
            for row in csv.DictReader(fh):
                kappa = float(row["kappa"])
                if math.isnan(kappa):
                    continue
                worst = max(worst,
                            abs(kappa - s * cosine_f(float(row["u"]))))
        _require(worst < CURVATURE_TOL,
                 f"orbit curvature residual {worst:.2e}")
    return check


def check_sweep(kind, svals):
    def check(summary, outdir):
        runs = summary["runs"]
        _require(len(runs) == len(svals), "sweep lost runs")
        for run, s in zip(runs, svals):
            want = circle_period(kind, s, 1.0)
            err = abs(run["period"] - want)
            _require(err < SHOOT_PERIOD_TOL,
                     f"sweep s={s:.6g}: period err {err:.2e}")
    return check


def check_taimanov(tol):
    def check(summary, outdir):
        _require(summary["outcome"] in ("stationary", "vanished"),
                 f"outcome {summary['outcome']}")
        if summary["outcome"] == "stationary":
            _require(summary["residual"] < tol,
                     f"stationary residual {summary['residual']:.2e}")
        else:
            _require(summary["value"] == 0.0, "vanished with nonzero value")
    return check


def check_c0(summary, outdir):
    hist = summary["history"]
    _require(all(b <= a for a, b in zip(hist, hist[1:])),
             "c0 history increases")
    _require(summary["c0"] == hist[-1], "c0 is not the best value seen")
    _require(abs(summary["energy_value"] - 0.5 * summary["c0"] ** 2) < 1e-9,
             "energy value is not c0^2 / 2")
    # the two-mode field has a primitive of smaller sup than theta*
    _require(summary["c0"] < 0.9 * hist[0], "minimax did not lower the sup")


def check_simulate(n_samples):
    def check(summary, outdir):
        _require(not summary["truncated"], "trajectory truncated")
        _require(summary["samples"] == n_samples,
                 f"{summary['samples']} samples, want {n_samples}")
        _require(summary["energy_drift"] < 1e-7,
                 f"energy drift {summary['energy_drift']:.2e}")
    return check


def check_contact(lo, hi, verdict):
    def check(summary, outdir):
        _require(abs(summary["min"] - lo) < CONTACT_TOL
                 and abs(summary["max"] - hi) < CONTACT_TOL,
                 f"min/max {summary['min']:.12g}/{summary['max']:.12g}, "
                 f"want {lo:.12g}/{hi:.12g}")
        _require(summary["verdict"] == verdict,
                 f"verdict {summary['verdict']}, want {verdict}")
    return check


def check_descend(k):
    def check(summary, outdir):
        _require(summary["outcome"] == "converged",
                 f"outcome {summary['outcome']}")
        err = abs(summary["mean_energy"] - k)
        _require(err < DESCEND_ENERGY_TOL, f"mean energy err {err:.2e}")
    return check


def check_c_h(f):
    def check(summary, outdir):
        # -[sigma]^2 / (4 pi chi area), area 4 pi, chi -2: f^2 / 2
        want = 0.5 * f * f
        _require(abs(summary["c_h"] - want) < 1e-9,
                 f"c_h {summary['c_h']:.12g}, want {want:.12g}")
    return check


def check_tau(tau):
    rel = abs(tau - CRITERION08_ENERGY) / CRITERION08_ENERGY
    _require(rel < TAU_REL_TOL, f"tau {tau:.6g} is {rel:.1%} off the c0 "
                                f"energy value {CRITERION08_ENERGY}")


# ---------------------------------------------------------------------------
# generated input files
# ---------------------------------------------------------------------------

def write_grid_csv(path, fn, n):
    with open(path, "w") as fh:
        fh.write("x,y,f\n")
        for i in range(n):
            for j in range(n):
                x, y = i / n, j / n
                fh.write("%.17g,%.17g,%.17g\n" % (x, y, fn(x, y)))


def two_mode_field(x, y):
    """Exact two-mode field 2 pi cos 2 pi x + pi sin 2 pi (x + y)."""
    return (2.0 * math.pi * math.cos(2.0 * math.pi * x)
            + math.pi * math.sin(2.0 * math.pi * (x + y)))


def conformal_factor(amp, phase):
    def rho(x, y):
        return amp * math.cos(2.0 * math.pi * (x + phase)) \
            * math.sin(2.0 * math.pi * y)
    return rho


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------

def _offset(rng, off):
    """Radius factor of a seed ``off`` (a signed fraction) off the circle,
    jittered by half a percentage point."""
    return 1.0 + off + rng.uniform(-0.005, 0.005)


def shoot_constant(rng, kind, kappa, f, off):
    """Constant-field circle at curvature about kappa = s |f|, seeded
    about ``off`` off the circle through the seed point.

    Each template keeps its own offset, and the seed jitters kappa and f
    by 2 %: the Newton iteration count, and so the job's cost, then stays
    the same across seeds, while the templates together cover seeds 5-15 %
    off the circle.
    """
    label = f"shoot.{kind}.k{kappa:g}"
    kappa *= rng.uniform(0.98, 1.02)
    f *= rng.uniform(0.98, 1.02)
    s = kappa / abs(f)
    off = _offset(rng, off)
    sign = 1 if f > 0 else -1
    u, v, ang = circle_seed(kind, off * circle_radius(kind, kappa), sign)
    surface = {"kind": kind}
    if kind == "hyperbolic":
        surface["genus"] = 2
    cfg = ini(surface, {"type": "constant", "value": f},
              {"s": s, "seed_u": u, "seed_v": v, "seed_angle": ang})
    return Job("orbit-shoot", label, cfg, check_period(kind, s, f))


def shoot_cosine(rng, sign, s, off):
    """Symmetric orbit about x = 0 (f = +A) or x = 1/2 (f = -A) of the
    cosine field, seeded about ``off`` off its curvature radius.

    The shooting tolerance is COSINE_SHOOT_TOL, not the CLI's default
    1e-10: on this field the return map's residual has a noise floor near
    1e-10, where Newton either stalls in its line search or takes several
    times longer to finish.  Any shoot that does not converge is a failure.
    """
    s_nominal = s
    s *= rng.uniform(0.98, 1.02)
    r = 1.0 / (s * COSINE_AMP)
    x0 = (0.0 if sign > 0 else 0.5) + _offset(rng, off) * r
    ang = 0.5 * math.pi if sign > 0 else -0.5 * math.pi
    cfg = ini({"kind": "flat_torus"},
              {"type": "cosine", "amplitude": COSINE_AMP},
              {"s": s, "seed_u": x0, "seed_v": 0.5, "seed_angle": ang,
               "tol": COSINE_SHOOT_TOL})
    return Job("orbit-shoot", f"shoot.cosine.s{s_nominal:g}", cfg,
               check_cosine_orbit(s))


def sweep(rng, kind, workers):
    """Homogeneous sweep of two s values, seeded on the oracle circles."""
    # two periods adding up to about 4 pi on every surface
    lo, hi = {"sphere": (2.0, 3.0), "flat_torus": (1.0, 2.0),
              "hyperbolic": (3.0, 5.0)}[kind]
    svals = [lo * rng.uniform(0.95, 1.05), hi * rng.uniform(0.95, 1.05)]
    surface = {"kind": kind}
    if kind == "hyperbolic":
        surface["genus"] = 2
    cfg = ini(surface, {"type": "constant", "value": 1.0},
              {"s_values": ",".join(repr(s) for s in svals),
               "workers": workers})
    return Job("sweep", f"sweep.{kind}", cfg, check_sweep(kind, svals))


def taimanov(rng, field, s_range, radius, orientation, tol=1e-3,
             spacing=0.01):
    s = rng.uniform(*s_range)
    if field == "constant":
        f = rng.uniform(0.98, 1.02)
        fsec = {"type": "constant", "value": f}
        # inside the unstable stationary radius 1 / (s f): the disc vanishes
        radius = radius / (s * f)
        label = "constant"
    else:
        fsec = {"type": "bump"}
        label = f"bump.{'pos' if orientation > 0 else 'neg'}"
    run = {"s": s, "radius": radius * rng.uniform(0.99, 1.01),
           "center_u": 0.5 + rng.uniform(-0.01, 0.01),
           "center_v": 0.5 + rng.uniform(-0.01, 0.01),
           "orientation": orientation, "tol": tol, "spacing": spacing}
    cfg = ini({"kind": "flat_torus"}, fsec, run)
    return Job("taimanov", f"taimanov.{label}.s{s_range[0]:g}", cfg,
               check_taimanov(tol))


def c0_two_mode(rng, name):
    # shift the field by less than one cell of the 64^2 grid, so that every
    # seed's minimax starts from nearly the same samples
    px, pxy = rng.uniform(0.0, 1.0 / 64), rng.uniform(0.0, 1.0 / 64)

    def field(x, y):
        return two_mode_field(x + px, y + pxy)

    cfg = ini({"kind": "flat_torus"}, {"type": "csv", "csv": name},
              {"quantity": "c0"})
    return Job("critical", "critical.c0", cfg, check_c0,
               files=((name, lambda path: write_grid_csv(path, field, 64)),))


def tau_strip(rng):
    """Criterion-08 threshold on the reversed favourable strip."""
    return Job("tau", "tau.strip", check=check_tau, tau={
        "x0": 0.3 + rng.uniform(-0.005, 0.005),
        "x1": 0.7 + rng.uniform(-0.005, 0.005),
        "k_lo": 0.12 * rng.uniform(0.98, 1.02),
        "k_hi": rng.uniform(0.98, 1.02),
        "bisect_iters": 6, "spacing": 0.04, "tol": 1e-4})


def simulate(rng, kind, t_end, name=None):
    f = rng.uniform(0.7, 1.4)
    s = rng.uniform(1.2, 2.0)
    surface = {"kind": kind}
    run = {"s": s, "t_end": t_end, "seed_angle": rng.uniform(0.0, 6.28),
           "seed_u": rng.uniform(0.1, 0.4)}
    files = ()
    if kind == "hyperbolic":
        surface["genus"] = 2
        run["seed_v"] = rng.uniform(1.0, 1.5)
    elif kind == "conformal_torus":
        surface["factor_csv"] = name
        rho = conformal_factor(rng.uniform(0.05, 0.15), rng.random())
        files = ((name, lambda path: write_grid_csv(path, rho, 32)),)
    cfg = ini(surface, {"type": "constant", "value": f}, run)
    # record_every 10 at the default dt 1e-3
    n = int(round(t_end / 1e-3)) // 10 + 1
    return Job("simulate", f"simulate.{kind}", cfg, check_simulate(n),
               files=files)


def contact_homogeneous(rng, kind):
    f = rng.choice((-1.0, 1.0)) * rng.uniform(0.6, 1.5)
    s = rng.uniform(0.3, 0.7)
    surface = {"kind": kind}
    if kind == "hyperbolic":
        surface["genus"] = 2
    # tau(X_s) = 1 + c (s f / K) with K = +1 on the sphere, -1 hyperbolic
    val = 1.0 + (s * f) ** 2 if kind == "sphere" else 1.0 - (s * f) ** 2
    cfg = ini(surface, {"type": "constant", "value": f},
              {"s": s, "candidate": "homogeneous", "n_base": 128,
               "n_fiber": 64})
    return Job("contact-check", f"contact.{kind}", cfg,
               check_contact(val, val, "positive" if val > 0 else "negative"))


def contact_cosine(rng):
    amp = rng.uniform(2.0, 4.0)
    s = rng.uniform(0.3, 0.8)
    n_base, n_fiber = 128, 64
    # theta* = (0, amp / (2 pi) sin 2 pi x); the grid maxima of |sin| sit
    # half a cell from the peaks, in x and in the fibre angle
    reach = s * amp / (2.0 * math.pi) * math.cos(math.pi / n_base) \
        * math.cos(math.pi / n_fiber)
    cfg = ini({"kind": "flat_torus"}, {"type": "cosine", "amplitude": amp},
              {"s": s, "candidate": "exact", "n_base": n_base,
               "n_fiber": n_fiber})
    verdict = "positive" if reach < 1.0 else "indeterminate"
    return Job("contact-check", "contact.cosine", cfg,
               check_contact(1.0 - reach, 1.0 + reach, verdict))


def descend(rng, field):
    # narrow strata: the descent's iteration count, and so its cost,
    # stays the same across seeds
    s = 2.0 * rng.uniform(0.98, 1.02)
    k = 0.5 / (s * s)
    if field == "constant":
        fsec = {"type": "constant", "value": 1.0}
        r = (1.0 / s) * rng.uniform(0.89, 0.91)
        run = {"center_u": 0.5, "center_v": 0.5, "n_vertices": 256,
               "period": 2.0 * math.pi * rng.uniform(0.89, 0.91)}
    else:
        fsec = {"type": "cosine", "amplitude": COSINE_AMP}
        r = 1.0 / (s * COSINE_AMP) * rng.uniform(1.04, 1.06)
        run = {"center_u": 0.0, "center_v": 0.5, "n_vertices": 128}
    run.update({"s": s, "radius": r})
    cfg = ini({"kind": "flat_torus"}, fsec, run)
    return Job("orbit-descend", f"descend.{field}", cfg, check_descend(k))


def critical_c_h(rng):
    f = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
    cfg = ini({"kind": "hyperbolic", "genus": 2},
              {"type": "constant", "value": f}, {"quantity": "c_h"})
    return Job("critical", "critical.c_h", cfg, check_c_h(f))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _shoot_cycle(rng, cycle):
    # (kappa, f, offset) per template spread over kappa in [0.5, 4],
    # |f| in [0.5, 2] and seeds 5-15 % off the circle, inside and
    # outside; periods of 3 to 5 keep a cycle short, so a run holds enough
    # cycles for the per-slot medians.  Every slot runs the same template
    # in every cycle, so its median compares like with like.
    sphere, flat, hyp = "sphere", "flat_torus", "hyperbolic"
    return [
        shoot_constant(rng, sphere, 0.53, 0.55, -0.06),
        shoot_cosine(rng, 1, 1.8, 0.12),
        shoot_constant(rng, flat, 3.0, -1.9, 0.08),
        shoot_constant(rng, hyp, 1.3, 1.9, -0.14),
        sweep(rng, hyp, min(2, os.cpu_count() or 1)),
        shoot_constant(rng, sphere, 3.8, -1.4, 0.10),
        shoot_cosine(rng, -1, 2.2, -0.08),
        shoot_constant(rng, hyp, 2.5, -1.6, 0.15),
    ]


def _threshold_cycle(rng, cycle):
    # six evolutions whose costs step up evenly, so the run's quantiles
    # never sit on a gap between two job kinds; each s range is narrow, so
    # a slot's cost stays the same across seeds
    return [
        tau_strip(rng),
        taimanov(rng, "bump", (4.9, 5.1), 0.2, 1),
        taimanov(rng, "constant", (2.9, 3.0), 0.6, 1),
        taimanov(rng, "bump", (31.7, 32.3), 0.2, -1),
        c0_two_mode(rng, f"c0-{cycle}.csv"),
        taimanov(rng, "constant", (2.6, 2.7), 0.6, 1),
        taimanov(rng, "bump", (23.7, 24.3), 0.2, -1),
        taimanov(rng, "constant", (2.4, 2.5), 0.6, 1),
    ]


def _survey_cycle(rng, cycle):
    return [
        simulate(rng, "sphere", 20.0),
        contact_homogeneous(rng, "sphere"),
        descend(rng, "constant"),
        simulate(rng, "flat_torus", 20.0),
        contact_cosine(rng),
        critical_c_h(rng),
        simulate(rng, "hyperbolic", 20.0),
        contact_homogeneous(rng, "hyperbolic"),
        descend(rng, "cosine"),
        simulate(rng, "conformal_torus", 5.0, f"factor-{cycle}.csv"),
    ]


class Workload:
    def __init__(self, name, cycle_fn, warmups, tail_percentile,
                 trace_cycles):
        self.name = name
        self.cycle_fn = cycle_fn
        self.warmups = warmups
        self.tail_percentile = tail_percentile
        self.trace_cycles = trace_cycles

    def cycle(self, seed, index):
        """The jobs of cycle ``index``; a pure function of (seed, index)."""
        rng = random.Random(f"{self.name}:{seed}:{index}")
        return self.cycle_fn(rng, index)


def _warm_shoot():
    return [
        Job("orbit-shoot", "warmup.shoot", ini(
            {"kind": "flat_torus"}, {"type": "constant", "value": 4.0},
            {"s": 0.5, "seed_u": 0.5, "seed_v": 0.5}),
            check_period("flat_torus", 0.5, 4.0)),
        Job("sweep", "warmup.sweep", ini(
            {"kind": "sphere"}, {"type": "constant", "value": 1.0},
            {"s_values": "0.3", "workers": 1}),
            check_sweep("sphere", [0.3])),
    ]


def _warm_threshold():
    return [
        Job("taimanov", "warmup.taimanov", ini(
            {"kind": "flat_torus"}, {"type": "constant", "value": 1.0},
            {"s": 8.0, "radius": 0.1}), check_taimanov(1e-3)),
        Job("critical", "warmup.c0", ini(
            {"kind": "flat_torus"}, {"type": "csv", "csv": "warm-c0.csv"},
            {"quantity": "c0"}), None,
            files=(("warm-c0.csv", lambda path: write_grid_csv(
                path, lambda x, y: cosine_f(x), 64)),)),
        Job("tau", "warmup.tau", tau={
            "x0": 0.3, "x1": 0.7, "k_lo": 0.3, "k_hi": 0.8,
            "bisect_iters": 0, "spacing": 0.08, "tol": 1e-3}),
    ]


def _warm_survey():
    return [
        Job("simulate", "warmup.simulate", ini(
            {"kind": "conformal_torus", "factor_csv": "warm-factor.csv"},
            {"type": "constant", "value": 1.0}, {"s": 1.0, "t_end": 0.02}),
            check_simulate(3), files=(("warm-factor.csv", lambda path:
                                       write_grid_csv(path, conformal_factor(
                                           0.1, 0.0), 32)),)),
        Job("contact-check", "warmup.contact", ini(
            {"kind": "flat_torus"}, {"type": "cosine"},
            {"s": 0.5, "candidate": "exact", "n_base": 16, "n_fiber": 8})),
        Job("orbit-descend", "warmup.descend", ini(
            {"kind": "flat_torus"}, {"type": "constant", "value": 1.0},
            {"s": 2.0, "center_u": 0.5, "center_v": 0.5, "radius": 0.45,
             "n_vertices": 32})),
        Job("critical", "warmup.c_h", ini(
            {"kind": "hyperbolic", "genus": 2},
            {"type": "constant", "value": 1.0}, {"quantity": "c_h"})),
    ]


WORKLOADS = {
    "shoot": Workload("shoot", _shoot_cycle, _warm_shoot, 0.72, 1),
    "threshold": Workload("threshold", _threshold_cycle, _warm_threshold,
                          0.58, 1),
    "survey": Workload("survey", _survey_cycle, _warm_survey, 0.75, 2),
}
