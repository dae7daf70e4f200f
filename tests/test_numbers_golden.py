"""Headline numbers of every CLI command, pinned bit for bit.

``numbers_golden.json`` holds, for one fixed config per command and
surface, the exit code, every number of the command's summary as
``float.hex`` (before the CLI rounds it to 12 digits for printing) and the
sha256 of each CSV the command writes.  A few library entries pin what no
command reaches: chart-1 flux through a fibre-integral primitive and a
callable field's trajectory across the sphere's chart switch.  The sphere
simulate and shoot cases cross the switch circle too.  Any change meant to
leave the numbers alone must reproduce them exactly; the pins are tied to
one numpy build, as the evolve golden's are.

``python tests/test_numbers_golden.py --check [NAME ...]`` runs the named
entries, or all of them, and prints match or mismatch for each without
writing; it exits 1 on any mismatch.  Re-record only for a change that is
meant to alter the numbers, and say so: ``python
tests/test_numbers_golden.py [NAME ...]`` rewrites the named entries, or
all of them when none is named, keeps the others, and prints a Markdown
table of old -> new for every value that moved.
"""
import hashlib
import json
import pathlib
import sys
import tempfile

import numpy as np
import pytest

from magsurf import cli
from magsurf.fields import (CallableField, ConstantField, MagneticSystem,
                            energy_of_s)
from magsurf.flow import TangentState, integrate
from magsurf.orbits import DiscreteLoop, discrete_action
from magsurf.regions import Region, RegionCurve, region_flux, taimanov_value
from magsurf.surfaces import RoundSphere

GOLDEN = pathlib.Path(__file__).with_name("numbers_golden.json")

SPHERE = "[surface]\nkind = sphere\n"
FLAT = "[surface]\nkind = flat_torus\n"
HYPERBOLIC = "[surface]\nkind = hyperbolic\ngenus = 2\n"
CONFORMAL = "[surface]\nkind = conformal_torus\nfactor_csv = {dir}/rho.csv\n"
BUMP = "[field]\ntype = bump\n"
COSINE = "[field]\ntype = cosine\namplitude = 1.0\n"
TWO_MODE = "[field]\ntype = csv\ncsv = {dir}/two_mode.csv\n"


def _constant(value):
    return f"[field]\ntype = constant\nvalue = {value}\n"


# name -> (command, config); {dir} is the case's temporary directory, which
# holds two 16 x 16 grids: rho.csv, the conformal factor
# 0.1 cos(2 pi (x + 0.3)) sin(2 pi y), and two_mode.csv, the zero-mean
# field cos(2 pi x) + 0.5 sin(2 pi (x + y))
CLI_CASES = {
    "simulate.sphere": ("simulate", SPHERE + _constant(0.3)
                        + "[run]\ns = 1.0\nt_end = 7.0\nrecord_every = 5\n"),
    "simulate.flat_torus": ("simulate", FLAT + BUMP
                            + "[run]\ns = 2.0\nseed_u = 0.2\nseed_v = 0.3\n"
                              "seed_angle = 0.4\nt_end = 3.0\n"),
    "simulate.hyperbolic": ("simulate", HYPERBOLIC + _constant(0.5)
                            + "[run]\ns = 1.0\nseed_v = 1.0\nt_end = 3.0\n"),
    "simulate.conformal_torus": ("simulate", CONFORMAL + BUMP
                                 + "[run]\ns = 2.0\nseed_u = 0.1\n"
                                   "seed_v = 0.2\nt_end = 2.0\n"),
    "orbit-shoot.sphere": ("orbit-shoot", SPHERE + _constant(0.3)
                           + "[run]\ns = 1.0\n"),
    "orbit-shoot.flat_torus": ("orbit-shoot", FLAT + _constant(1.0)
                               + "[run]\ns = 4.0\nseed_u = 0.5\n"
                                 "seed_v = 0.5\n"),
    "orbit-shoot.hyperbolic": ("orbit-shoot", HYPERBOLIC + _constant(1.0)
                               + "[run]\ns = 2.0\nseed_v = 1.0\n"),
    "orbit-shoot.conformal_torus": ("orbit-shoot", CONFORMAL + _constant(8.0)
                                    + "[run]\ns = 1.0\nseed_u = 0.5\n"
                                      "seed_v = 0.5\n"),
    "orbit-descend.sphere": ("orbit-descend", SPHERE + _constant(1.0)
                             + "[run]\ns = 1.0\nradius = 0.9\n"
                               "n_vertices = 32\n"),
    "orbit-descend.flat_torus": ("orbit-descend", FLAT + BUMP
                                 + "[run]\ns = 16.0\ncenter_u = 0.5\n"
                                   "center_v = 0.5\nradius = 0.15\n"
                                   "n_vertices = 32\n"),
    "orbit-descend.hyperbolic": ("orbit-descend", HYPERBOLIC + _constant(1.0)
                                 + "[run]\ns = 2.0\ncenter_v = 1.0\n"
                                   "radius = 0.5\nn_vertices = 32\n"),
    "oracle.sphere": ("oracle", SPHERE + _constant(0.3) + "[run]\ns = 1.0\n"),
    "oracle.flat_torus": ("oracle", FLAT + _constant(1.0)
                          + "[run]\ns = 4.0\n"),
    "oracle.hyperbolic": ("oracle", HYPERBOLIC + _constant(1.0)
                          + "[run]\ns = 2.0\n"),
    "taimanov.sphere": ("taimanov", SPHERE + _constant(1.0)
                        + "[run]\ns = 1.5\ncenter_u = 0.1\ncenter_v = 0.0\n"
                          "radius = 0.5\nspacing = 0.04\nmax_iter = 200\n"),
    "taimanov.flat_torus": ("taimanov", FLAT + BUMP
                            + "[run]\ns = 24.0\nradius = 0.2\n"
                              "orientation = -1\nspacing = 0.02\n"
                              "max_iter = 200\n"),
    "taimanov.hyperbolic": ("taimanov", HYPERBOLIC + _constant(1.0)
                            + "[run]\ns = 3.4\ncenter_u = 0.1\n"
                              "center_v = 1.0\nradius = 0.3\n"
                              "spacing = 0.03\nmax_iter = 200\n"),
    "taimanov.conformal_torus": ("taimanov", CONFORMAL + BUMP
                                 + "[run]\ns = 24.0\nradius = 0.2\n"
                                   "orientation = -1\nspacing = 0.02\n"
                                   "max_iter = 200\n"),
    "critical.c_h.hyperbolic": ("critical", HYPERBOLIC + _constant(0.5)),
    "critical.mane.hyperbolic": ("critical", HYPERBOLIC + _constant(0.5)
                                 + "[run]\nquantity = mane\n"),
    "critical.c0.flat_torus": ("critical", FLAT + TWO_MODE
                               + "[run]\nquantity = c0\n"),
    "contact-check.sphere": ("contact-check", SPHERE + _constant(1.0)
                             + "[run]\ns = 0.5\nn_base = 24\nn_fiber = 16\n"),
    "contact-check.flat_torus": ("contact-check", FLAT + COSINE
                                 + "[run]\ns = 2.0\nn_base = 24\n"
                                   "n_fiber = 16\n"),
    "contact-check.hyperbolic": ("contact-check", HYPERBOLIC + _constant(2.0)
                                 + "[run]\ns = 1.0\nn_base = 24\n"
                                   "n_fiber = 16\n"),
    "sweep.sphere": ("sweep", SPHERE + _constant(1.0)
                     + "[run]\ns_values = 0.5,1.5\n"),
    "sweep.flat_torus": ("sweep", FLAT + _constant(1.0)
                         + "[run]\ns_values = 4.0,6.0\n"),
    "sweep.hyperbolic": ("sweep", HYPERBOLIC + _constant(1.0)
                         + "[run]\ns_values = 0.5,2.0\n"),
}


def _hexed(obj):
    """Floats as float.hex, containers recursively, the rest as is."""
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, dict):
        return {k: _hexed(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_hexed(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _write_grid(path, fn):
    x = np.arange(16) / 16
    vals = fn(x[:, None], x[None, :])
    with open(path, "w") as fh:
        fh.write("x,y,value\n")
        for i in range(16):
            for j in range(16):
                fh.write(f"{float(x[i])!r},{float(x[j])!r},"
                         f"{float(vals[i, j])!r}\n")


def _run_cli(name, monkeypatch=None):
    """Run one CLI case in process, keeping the unrounded summary."""
    command, text = CLI_CASES[name]
    summaries = []
    if monkeypatch is None:
        monkeypatch = pytest.MonkeyPatch()
    with tempfile.TemporaryDirectory() as tmp, monkeypatch.context() as mp:
        mp.setattr(cli, "_emit", lambda summary, outdir, fname:
                   summaries.append(summary))
        _write_grid(f"{tmp}/rho.csv", lambda x, y: 0.1 * np.cos(
            2.0 * np.pi * (x + 0.3)) * np.sin(2.0 * np.pi * y))
        _write_grid(f"{tmp}/two_mode.csv", lambda x, y: np.cos(
            2.0 * np.pi * x) + 0.5 * np.sin(2.0 * np.pi * (x + y)))
        cfg = pathlib.Path(tmp, "run.ini")
        cfg.write_text(text.format(dir=tmp))
        out = pathlib.Path(tmp, "out")
        code = cli.main([command, str(cfg), "--out", str(out)])
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(out.glob("*.csv"))} if out.exists() else {}
    return {"exit": code, "summary": _hexed(summaries), "files": files}


def _sphere_callable():
    """A chart-aware non-constant field on the sphere: its primitive is the
    fibre integral, in either chart."""
    return MagneticSystem(RoundSphere(), CallableField(
        lambda chart, u, v: 0.2 + 0.1 * np.asarray(u) - 0.05 * chart))


def _chart1_fluxes():
    system = _sphere_callable()
    ang = 2.0 * np.pi * np.arange(48) / 48
    verts = np.column_stack([0.3 + 0.4 * np.cos(ang),
                             -0.2 + 0.4 * np.sin(ang)])
    loop = DiscreteLoop(verts, period=2.0, chart=1)
    region = Region([RegionCurve(verts, chart=1)])
    k = energy_of_s(1.5)
    return {"discrete_action": _hexed(discrete_action(system, k, loop)),
            "region_flux": _hexed(region_flux(system, region)),
            "taimanov_value": _hexed(taimanov_value(system, k, region))}


def _callable_trajectory():
    """A callable-field run on the sphere that crosses the switch circle."""
    traj = integrate(_sphere_callable(), TangentState(0, 1.5, 0.0, 3.0, 1.0),
                     4.0, record_every=50)
    return {"charts": traj.chart.tolist(),
            "q": _hexed(traj.q.ravel().tolist()),
            "dq": _hexed(traj.dq.ravel().tolist())}


LIBRARY_CASES = {
    "library.chart1_fibre_primitive": _chart1_fluxes,
    "library.callable_sphere_trajectory": _callable_trajectory,
}


def _run(name, monkeypatch=None):
    if name in CLI_CASES:
        return _run_cli(name, monkeypatch)
    return LIBRARY_CASES[name]()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_command_matches_golden(golden, monkeypatch, name):
    assert _run_cli(name, monkeypatch) == golden[name]


@pytest.mark.parametrize("name", sorted(LIBRARY_CASES))
def test_library_matches_golden(golden, name):
    assert LIBRARY_CASES[name]() == golden[name]


def test_sphere_cases_cross_the_switch(golden):
    """The sphere pins mean something for the chart rule only if their runs
    leave chart 0."""
    assert 1 in golden["library.callable_sphere_trajectory"]["charts"]
    traj = integrate(MagneticSystem(RoundSphere(), ConstantField(0.3)),
                     TangentState(0, 0.0, 0.0, 1.0, 0.0), 7.0,
                     record_every=5)
    assert 1 in traj.chart


def _flat(rec, prefix=""):
    """(path, value) leaves of a record, for the old -> new table."""
    if isinstance(rec, dict):
        for k, v in rec.items():
            yield from _flat(v, f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(rec, list):
        for i, v in enumerate(rec):
            yield from _flat(v, f"{prefix}[{i}]")
    else:
        yield prefix, rec


def _shown(value):
    if isinstance(value, str) and value.startswith(("0x", "-0x")):
        return "%.15g" % float.fromhex(value)
    return str(value)


if __name__ == "__main__":
    names_all = sorted(CLI_CASES) + sorted(LIBRARY_CASES)
    check = "--check" in sys.argv[1:]
    names = [a for a in sys.argv[1:] if a != "--check"] or names_all
    data = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if check:
        bad = 0
        for name in names:
            ok = _run(name) == data.get(name)
            bad += not ok
            print(f"{name}: {'match' if ok else 'mismatch'}")
        sys.exit(1 if bad else 0)
    old = dict(data)
    for name in names:
        data[name] = _run(name)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print("| entry | value | old | new |")
    print("|---|---|---|---|")
    for name in names:
        was = dict(_flat(old.get(name, {})))
        for path, value in _flat(data[name]):
            if was.get(path) != value:
                print(f"| {name} | {path} | {_shown(was.get(path, '-'))} | "
                      f"{_shown(value)} |")
