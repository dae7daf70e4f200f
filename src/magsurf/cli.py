"""Command line front end.

Usage:  magsurf <command> <config.ini> [--out DIR]

Commands: simulate, orbit-shoot, orbit-descend, oracle, taimanov, critical,
contact-check, sweep.  The INI file describes the surface, the field and the
run parameters; unknown sections or keys are rejected.  The [run] keys
``workers``, ``period`` and ``candidate`` are accepted for compatibility
and ignored: sweep runs its values one after another, orbit-descend takes
the period T* at which the action is stationary, and contact-check takes
the candidate the system admits (bundle.candidate_for).  Results are written
as CSV/JSON files plus a gnuplot script, and a one-line JSON summary goes to
stdout.  Exit codes: 0 success, 1 negative outcome (no convergence, halt),
2 configuration or usage error.
"""
from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import warnings
from itertools import chain

import numpy as np

from . import bundle, critical, regions
from .errors import ConfigError, MagsurfError
from .fields import (ConstantField, CosineField, MagneticSystem, TorusField,
                     energy_of_s, s_of_energy)
from .flow import (TangentState, integrate, state_at_energy,
                   trajectory_curvature, trajectory_energies)
from .orbits import (DescentParams, circle_loop, descend_to_critical,
                     homogeneous_oracle, loop_mean_energy, orbit_radius,
                     shoot_periodic)
from .surfaces import (ConformalTorus, FlatTorus, HyperbolicPlane,
                       PeriodicBicubic, RoundSphere)

_ALLOWED = {
    "surface": {"kind", "lx", "ly", "genus", "factor_csv"},
    "field": {"type", "value", "amplitude", "width", "center_x", "center_y",
              "base", "csv"},
    "run": {"s", "k", "seed_u", "seed_v", "seed_angle", "t_end", "dt",
            "record_every", "tol", "max_time", "center_u", "center_v",
            "radius", "n_vertices", "period", "orientation", "spacing",
            "max_iter", "quantity", "candidate", "n_base", "n_fiber",
            "s_values", "workers"},
}
# text keys; every other key holds finite numbers (integers in _INTS)
_TEXT = {"kind", "factor_csv", "type", "csv", "quantity", "candidate"}
_INTS = {"genus", "record_every", "n_vertices", "orientation", "max_iter",
         "n_base", "n_fiber", "workers"}
# numeric keys that must be > 0 (>= 1 for the integers among them)
_POSITIVE = {"dt", "t_end", "record_every", "n_base", "n_fiber", "spacing",
             "max_time"}


def _is_number(key, text):
    try:
        return math.isfinite(int(text) if key in _INTS else float(text))
    except (ValueError, OverflowError):
        return False


def _read_config(path):
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}")
    for section in parser.sections():
        if section not in _ALLOWED:
            raise ConfigError(f"unknown section [{section}]")
        for key, text in parser.items(section, raw=True):
            if key not in _ALLOWED[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            items = text.split(",") if key == "s_values" else [text]
            if key not in _TEXT and not all(_is_number(key, x) for x in items):
                raise ConfigError(f"{key} = {text!r} is not a finite number")
            if key in _POSITIVE and float(text) <= 0.0:
                raise ConfigError(f"{key} = {text!r} is not positive")
    return parser


def _build_surface(cfg):
    if "surface" not in cfg:
        raise ConfigError("missing [surface] section")
    sec = cfg["surface"]
    kind = sec.get("kind")
    lx = sec.getfloat("lx", 1.0)
    ly = sec.getfloat("ly", 1.0)
    if kind == "sphere":
        return RoundSphere()
    if kind == "flat_torus":
        return FlatTorus(lx, ly)
    if kind == "hyperbolic":
        genus = sec.getint("genus", fallback=None)
        return HyperbolicPlane(genus=genus)
    if kind == "conformal_torus":
        path = sec.get("factor_csv")
        if path is None:
            raise ConfigError("conformal_torus needs factor_csv")
        grid = _load_grid_csv(path, lx, ly)
        return ConformalTorus(grid, lx=lx, ly=ly)
    raise ConfigError(f"unknown surface kind {kind!r}")


def _load_grid_csv(path, lx, ly):
    """CSV with header x,y,<value> sampled row-major on the regular grid
    (i lx / nx, j ly / ny) of the period cell, one finite sample per node;
    the spline through it puts node i there whatever the file says."""
    try:
        with open(path) as fh:
            header = fh.readline()
            names = [name.strip() for name in header.lstrip("#").split(",")]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")     # no rows warns
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read grid csv: {exc}")
    if not header.strip():
        raise ConfigError("grid csv is empty")
    value = [n for n in names if n not in ("x", "y")]
    if (len(value) != 1 or len(set(names)) != 3 or data.shape[1:] != (3,)
            or not data.size):
        raise ConfigError("grid csv needs columns x, y, value and samples")
    x, y, vals = (data[:, names.index(n)] for n in ("x", "y", value[0]))
    if not (np.isfinite(x) & np.isfinite(y) & np.isfinite(vals)).all():
        raise ConfigError("grid csv has a non-finite sample")
    xs = np.unique(x)
    ys = np.unique(y)
    for nodes, period in ((xs, lx), (ys, ly)):
        cell = period / len(nodes)
        if np.abs(nodes - np.arange(len(nodes)) * cell).max() > 1e-4 * cell:
            raise ConfigError("grid csv nodes are not i * period / n")
    if len(x) != len(xs) * len(ys):
        raise ConfigError(f"grid csv has {len(x)} rows for a "
                          f"{len(xs)} x {len(ys)} grid")
    grid = np.full((len(xs), len(ys)), np.nan)
    grid[np.searchsorted(xs, x), np.searchsorted(ys, y)] = vals
    if np.isnan(grid).any():
        raise ConfigError("grid csv does not cover a full regular grid")
    return grid


def _build_field(cfg, surface):
    if "field" not in cfg:
        return ConstantField(1.0)
    sec = cfg["field"]
    ftype = sec.get("type", "constant")
    if ftype == "constant":
        return ConstantField(sec.getfloat("value", 1.0))
    if ftype not in ("cosine", "bump", "csv"):
        raise ConfigError(f"unknown field type {ftype!r}")
    if surface.lattice is None:     # the periods are the torus lattice's
        raise ConfigError(f"a {ftype} field needs a torus surface")
    lx, ly = surface.lattice
    if ftype == "cosine":
        return CosineField(sec.getfloat("amplitude", 2.0 * math.pi), lx, ly)
    if ftype == "bump":
        base = sec.getfloat("base", 1.0)
        amp = sec.getfloat("amplitude", 2.0)
        wid = sec.getfloat("width", 0.25)
        cx = sec.getfloat("center_x", 0.5)
        cy = sec.getfloat("center_y", 0.5)
        return TorusField(
            lambda x, y: base - amp * np.exp(
                -(((x - cx) ** 2 + (y - cy) ** 2)) / wid ** 2),
            lx=lx, ly=ly)
    spl = PeriodicBicubic(_load_grid_csv(sec.get("csv", ""), lx, ly), lx, ly)
    return TorusField(spl, lx=lx, ly=ly)


def _energy(cfg):
    sec = cfg["run"] if "run" in cfg else {}
    has_s = "s" in sec
    has_k = "k" in sec
    if has_s == has_k:
        raise ConfigError("provide exactly one of 's' and 'k' in [run]")
    if has_s:
        s = float(sec["s"])
        return energy_of_s(s), s
    k = float(sec["k"])
    return k, s_of_energy(k)


def _jsonify(obj):
    if isinstance(obj, float):
        return round(obj, 12)
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonify(float(obj))
    return obj


def _emit(summary, outdir, name):
    payload = json.dumps(_jsonify(summary), sort_keys=True)
    if outdir is not None:
        with open(os.path.join(outdir, name), "w") as fh:
            fh.write(payload + "\n")
    print(payload)


def _write_trajectory_csv(system, traj, path):
    """Write the samples to path; returns their energies."""
    energies = trajectory_energies(system, traj)
    kappa = trajectory_curvature(system, traj) if len(traj.t) >= 5 \
        else np.full(len(traj.t), np.nan)
    cols = (traj.t, traj.chart, *traj.q.T, *traj.dq.T, energies, kappa)
    with open(path, "w") as fh:
        fh.write("t,chart,u,v,du,dv,energy,kappa\n")
        # 256 rows per % call: a call per row cost as much as a shoot's return
        for a in range(0, len(traj.t), 256):
            rows = list(zip(*(c[a:a + 256].tolist() for c in cols)))
            fh.write("%.12g,%d,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g\n"
                     * len(rows) % tuple(chain.from_iterable(rows)))
    return energies


def _write_gnuplot(outdir, csv_name, using, title):
    path = os.path.join(outdir, "plot.gp")
    with open(path, "w") as fh:
        fh.write("set datafile separator ','\n")
        fh.write("set key off\nset size ratio -1\n")
        fh.write(f"set title '{title}'\n")
        fh.write(f"plot '{csv_name}' using {using} with lines\n")


def _write_vertices_csv(outdir, name, iterations, curves, title):
    with open(os.path.join(outdir, name), "w") as fh:
        fh.write("iter,vertex,u,v\n")
        for verts in curves:
            for i, (u, v) in enumerate(verts):
                fh.write("%d,%d,%.12g,%.12g\n" % (iterations, i, u, v))
    _write_gnuplot(outdir, name, "3:4", title)


def _seed_state(system, cfg, k):
    sec = cfg["run"]
    u = sec.getfloat("seed_u", 0.0)
    v = sec.getfloat("seed_v", 0.0)
    ang = sec.getfloat("seed_angle", 0.0)
    st = TangentState(0, u, v, math.cos(ang), math.sin(ang))
    return state_at_energy(system, st, k)


def cmd_simulate(cfg, system, outdir):
    k, _ = _energy(cfg)
    sec = cfg["run"]
    st = _seed_state(system, cfg, k)
    traj = integrate(system, st, sec.getfloat("t_end", 10.0),
                     dt=sec.getfloat("dt", 1e-3),
                     record_every=sec.getint("record_every", 10))
    energies = _write_trajectory_csv(system, traj, os.path.join(
        outdir, "trajectory.csv"))
    _write_gnuplot(outdir, "trajectory.csv", "3:4", "trajectory")
    _emit({"samples": len(traj.t), "truncated": bool(traj.truncated),
           "energy_drift": float(np.max(np.abs(energies - energies[0])))},
          outdir, "result.json")
    return 0


def cmd_orbit_shoot(cfg, system, outdir):
    k, s = _energy(cfg)
    sec = cfg["run"]
    st = _seed_state(system, cfg, k)
    orbit = shoot_periodic(system, k, st, tol=sec.getfloat("tol", 1e-10),
                           dt=sec.getfloat("dt", 1e-3),
                           max_time=sec.getfloat("max_time", 200.0))
    _write_trajectory_csv(system, orbit.trajectory,
                          os.path.join(outdir, "trajectory.csv"))
    _write_gnuplot(outdir, "trajectory.csv", "3:4", "periodic orbit")
    summary = {"period": orbit.period, "energy": orbit.energy, "s": s,
               "residual": orbit.residual,
               "winding": list(orbit.winding)}
    try:
        summary["radius"] = orbit_radius(system, orbit)
    except MagsurfError:
        pass
    _emit(summary, outdir, "result.json")
    return 0


def cmd_orbit_descend(cfg, system, outdir):
    k, s = _energy(cfg)
    sec = cfg["run"]
    n = sec.getint("n_vertices", 256)
    radius = sec.getfloat("radius", 1.0)
    center = (sec.getfloat("center_u", 0.0), sec.getfloat("center_v", 0.0))
    loop = circle_loop(center, radius, n, 1.0)    # the period is T*
    params = DescentParams(tol=sec.getfloat("tol", 1e-6),
                           max_iter=sec.getint("max_iter", 200))
    result = descend_to_critical(system, k, loop, params)
    _write_vertices_csv(outdir, "loop.csv", result.iterations,
                        [result.loop.vertices], "critical loop")
    _emit({"outcome": result.outcome, "period": result.loop.period,
           "grad_norm": result.grad_norm, "action": result.action,
           "mean_energy": loop_mean_energy(system, result.loop), "s": s},
          outdir, "result.json")
    return 0 if result.outcome == "converged" else 1


def _constant_value(system):
    if system.field.value is None:
        raise ConfigError("closed-form orbits need a constant field")
    return system.field.value


def cmd_oracle(cfg, system, outdir):
    _, s = _energy(cfg)
    data = homogeneous_oracle(system.surface.kind, s, _constant_value(system))
    if not data.exists_contractible:
        _emit({"exists_contractible": False, "curve_type": data.curve_type,
               "boundary_angle": data.boundary_angle}, outdir, "result.json")
        return 1
    _emit({"radius": data.radius, "period": data.period}, outdir,
          "result.json")
    return 0


def cmd_taimanov(cfg, system, outdir):
    k, s = _energy(cfg)
    sec = cfg["run"]
    n = sec.getint("n_vertices", 128)
    radius = sec.getfloat("radius", 0.2)
    center = (sec.getfloat("center_u", 0.5), sec.getfloat("center_v", 0.5))
    orient = sec.getint("orientation", 1)
    curve = regions.RegionCurve(circle_loop(center, radius, n, 1.0).vertices)
    params = regions.EvolveParams(tol=sec.getfloat("tol", 1e-3),
                                  spacing=sec.getfloat("spacing", 0.02),
                                  max_iter=sec.getint("max_iter", 20000))
    result = regions.evolve_minimize(system, k,
                                     regions.Region([curve], orient), params)
    _write_vertices_csv(outdir, "curves.csv", result.iterations,
                        [c.vertices for c in result.region.curves],
                        "evolved boundary")
    _emit({"outcome": result.outcome, "value": result.value,
           "residual": result.residual, "iterations": result.iterations,
           "s": s}, outdir, "result.json")
    return 0 if result.outcome in ("stationary", "vanished") else 1


def cmd_critical(cfg, system, outdir):
    sec = cfg["run"] if "run" in cfg else {}
    quantity = sec.get("quantity", "c_h")
    if quantity == "c_h":
        summary = {"c_h": critical.c_h_value(system)}
    elif quantity == "mane":
        summary = {"mane": critical.homogeneous_mane_value(system)}
    elif quantity == "c0":
        res = critical.c0_upper_bound(system)
        summary = {"c0": res.value, "energy_value": res.energy_value,
                   "lower": res.lower, "gap": res.gap, "history": res.history,
                   "iterations": res.iterations}
    else:
        raise ConfigError(f"unknown critical quantity {quantity!r}")
    _emit(summary, outdir, "result.json")
    return 0


def cmd_contact_check(cfg, system, outdir):
    _, s = _energy(cfg)
    sec = cfg["run"]
    cert = bundle.contact_candidate_min(
        system, s, bundle.candidate_for(system),
        n_base=sec.getint("n_base", 128), n_fiber=sec.getint("n_fiber", 64))
    _emit({"verdict": cert.verdict, "min": cert.min_value,
           "max": cert.max_value, "s": s}, outdir, "result.json")
    return 0


def cmd_sweep(cfg, system, outdir):
    sec = cfg["run"]
    raw = sec.get("s_values")
    if not raw:
        raise ConfigError("sweep needs s_values in [run]")
    svals = [float(x) for x in raw.split(",")]
    f = _constant_value(system)
    # where the oracle has a contractible circle, every state of the
    # constant field lies on one; (0, 1) is above the half-plane's floor
    seed = TangentState(0, 0.0, 1.0, 0.0, 1.0)

    def one(s):
        data = homogeneous_oracle(system.surface.kind, s, f)
        if not data.exists_contractible:
            return {"s": s, "exists_contractible": False}
        orbit = shoot_periodic(system, energy_of_s(s), seed)
        return {"s": s, "exists_contractible": True, "period": orbit.period,
                "oracle_period": data.period, "residual": orbit.residual}

    _emit({"runs": [one(s) for s in svals]}, outdir, "result.json")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "orbit-shoot": cmd_orbit_shoot,
    "orbit-descend": cmd_orbit_descend,
    "oracle": cmd_oracle,
    "taimanov": cmd_taimanov,
    "critical": cmd_critical,
    "contact-check": cmd_contact_check,
    "sweep": cmd_sweep,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="magsurf", add_help=True)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("config")
    parser.add_argument("--out", default=".")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        cfg = _read_config(args.config)
        surface = _build_surface(cfg)
        field = _build_field(cfg, surface)
        system = MagneticSystem(surface, field)
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](cfg, system, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MagsurfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
