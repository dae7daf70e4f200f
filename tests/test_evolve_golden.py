"""Golden results of the curve evolution, pinned bit for bit.

``evolve_golden.json`` holds the outcome, iteration count, value, residual
(as ``float.hex``) and every final vertex of a few evolutions, recorded
with the smoothed-step kernel: the padded-buffer evolution whose normal
move is smoothed by (I - beta D2)^-1 through one rfft/irfft pair, at
``STEP_FACTOR`` 1.0 with a simplicity check every 6 iterations.  Any
rewrite of the evolution must reproduce them exactly.  The
``criterion_08_tau`` entry pins every evolution ``tau_estimate`` makes on
criterion 08's strip and the tau it returns, by Dinkelbach's ratio
iteration.

``python tests/test_evolve_golden.py --check [NAME ...]`` runs the named
entries, or all of them, and prints match or mismatch for each without
writing; it exits 1 on any mismatch.  Re-record only for a change that is
meant to alter the numbers, and say so: ``python
tests/test_evolve_golden.py [NAME ...]`` rewrites the named entries, or
all of them when none is named, keeps the others, and prints a Markdown
table of old -> new outcome, iterations, value and residual for each
rewritten entry.
"""
import json
import math
import pathlib
import sys

import numpy as np
import pytest

from magsurf import regions
from magsurf.fields import (ConstantField, MagneticSystem, TorusField,
                            energy_of_s)
from magsurf.regions import EvolveParams, Region, RegionCurve
from magsurf.surfaces import (ConformalTorus, FlatTorus, HyperbolicPlane,
                              RoundSphere)

GOLDEN = pathlib.Path(__file__).with_name("evolve_golden.json")


def _disc(center, radius, n=96, chart=0):
    ang = 2.0 * np.pi * np.arange(n) / n
    return RegionCurve(np.column_stack([center[0] + radius * np.cos(ang),
                                        center[1] + radius * np.sin(ang)]),
                       chart=chart)


def _bump(x, y):
    return 1.0 - 2.0 * np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.0625)


def _favorable_strip(x0=0.3, x1=0.7, n=64):
    """Criterion 08's seed: the reversed strip x0 < x < x1."""
    ys = np.arange(n, dtype=float) / n
    right = RegionCurve(np.column_stack([np.full(n, x1), ys]), winding=(0, 1))
    left = RegionCurve(np.column_stack([np.full(n, x0), 1.0 - ys]),
                       winding=(0, -1))
    return Region([RegionCurve(c.vertices[::-1].copy(),
                               winding=(-c.winding[0], -c.winding[1]))
                   for c in (right, left)], orientation=-1)


def _conformal_torus():
    """A smooth conformal factor of amplitude 0.1 on a 32 x 32 grid."""
    x = np.arange(32) / 32
    return ConformalTorus(0.1 * np.cos(2.0 * np.pi * (x[:, None] + 0.3))
                          * np.sin(2.0 * np.pi * x[None, :]))


def _cosine_system():
    return MagneticSystem(FlatTorus(), TorusField(
        lambda x, y: 2.0 * math.pi * np.cos(2.0 * math.pi * x)))


# name -> (system, k, region, params); each runs one evolve_minimize
EVOLVE_CASES = {
    "bump_disc_reversed": lambda: (
        MagneticSystem(FlatTorus(), TorusField(_bump)), energy_of_s(24.0),
        Region([_disc((0.51, 0.49), 0.2)], orientation=-1),
        EvolveParams(spacing=0.01, max_iter=300)),
    "conformal_torus_bump_disc": lambda: (
        MagneticSystem(_conformal_torus(), TorusField(_bump)),
        energy_of_s(24.0),
        Region([_disc((0.5, 0.45), 0.2)], orientation=-1),
        EvolveParams(spacing=0.02, max_iter=400)),
    "constant_disc_vanishes": lambda: (
        MagneticSystem(FlatTorus(), ConstantField(1.0)), energy_of_s(2.5),
        Region([_disc((0.5, 0.5), 0.15)]), EvolveParams()),
    "halfplane_disc": lambda: (
        MagneticSystem(HyperbolicPlane(genus=2), ConstantField(1.0)),
        energy_of_s(3.4), Region([_disc((0.1, 1.0), 0.3)]),
        EvolveParams(spacing=0.03, max_iter=300)),
    "sphere_chart1_disc": lambda: (
        MagneticSystem(RoundSphere(), ConstantField(1.0)), energy_of_s(1.5),
        Region([_disc((0.3, -0.2), 0.6, chart=1)]),
        EvolveParams(spacing=0.04, max_iter=400)),
}


def _record(result):
    return {"outcome": result.outcome, "iterations": result.iterations,
            "value": float(result.value).hex(),
            "residual": float(result.residual).hex(),
            "curves": [[[float(x).hex() for x in col]
                        for col in c.vertices.T]
                       for c in result.region.curves]}


def _run_evolve(name):
    system, k, region, params = EVOLVE_CASES[name]()
    return _record(regions.evolve_minimize(system, k, region, params))


def _run_tau(monkeypatch=None):
    """tau_estimate on criterion 08's strip with every evolution kept."""
    seen = []
    evolve = regions.evolve_minimize

    def recording(*args, **kwargs):
        result = evolve(*args, **kwargs)
        seen.append(_record(result))
        return result

    if monkeypatch is None:
        monkeypatch = pytest.MonkeyPatch()
    with monkeypatch.context() as mp:
        mp.setattr(regions, "evolve_minimize", recording)
        tau = regions.tau_estimate(
            _cosine_system(), [_favorable_strip()], 0.1, 1.0, bisect_iters=2,
            params=EvolveParams(tol=1e-4, max_iter=30000))
    return {"tau": float(tau).hex(), "evolutions": seen}


def _check(got, want):
    for key in ("outcome", "iterations", "value", "residual"):
        assert got[key] == want[key], key
    assert len(got["curves"]) == len(want["curves"])
    for g, w in zip(got["curves"], want["curves"]):
        g = np.array([[float.fromhex(x) for x in col] for col in g])
        w = np.array([[float.fromhex(x) for x in col] for col in w])
        assert np.array_equal(g, w)


def _check_tau(got, want):
    assert got["tau"] == want["tau"], "tau"
    assert len(got["evolutions"]) == len(want["evolutions"])
    for g, w in zip(got["evolutions"], want["evolutions"]):
        _check(g, w)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(EVOLVE_CASES))
def test_evolution_matches_golden(golden, name):
    _check(_run_evolve(name), golden[name])


def test_tau_estimate_matches_golden(golden, monkeypatch):
    _check_tau(_run_tau(monkeypatch), golden["criterion_08_tau"])


def _changes(name, old, new):
    """Markdown rows old -> new of outcome, iterations, value and residual
    for one rewritten entry; a tau entry gets one row per evolution and a
    row for tau."""
    def cells(rec):
        if rec is None:
            return ("-",) * 4
        return (rec["outcome"], str(rec["iterations"]),
                "%.12g" % float.fromhex(rec["value"]),
                "%.6g" % float.fromhex(rec["residual"]))

    if "tau" in new:
        olds = (old or {}).get("evolutions", [])
        news = new["evolutions"]
        pairs = [(f"{name}[{i}]", olds[i] if i < len(olds) else None,
                  news[i] if i < len(news) else None)
                 for i in range(max(len(olds), len(news)))]
    else:
        pairs = [(name, old, new)]
    rows = ["| %s | %s |" % (label, " | ".join(
        f"{a} → {b}" for a, b in zip(cells(o), cells(n))))
        for label, o, n in pairs]
    if "tau" in new:
        tau = ("%.13g" % float.fromhex(old["tau"]) if old else "-",
               "%.13g" % float.fromhex(new["tau"]))
        rows.append(f"| {name} tau | {tau[0]} → {tau[1]} | | | |")
    return rows


if __name__ == "__main__":
    runs = {name: (lambda name=name: _run_evolve(name))
            for name in sorted(EVOLVE_CASES)}
    runs["criterion_08_tau"] = _run_tau
    check = "--check" in sys.argv[1:]
    names = [a for a in sys.argv[1:] if a != "--check"] or list(runs)
    data = json.loads(GOLDEN.read_text())
    if check:
        bad = 0
        for name in names:
            got = runs[name]()
            try:
                (_check_tau if "tau" in got else _check)(got, data[name])
                print(f"{name}: match")
            except (AssertionError, KeyError) as exc:
                bad += 1
                print(f"{name}: mismatch ({exc!r})")
        sys.exit(1 if bad else 0)
    old = dict(data)
    for name in names:
        data[name] = runs[name]()
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n")
    print("| entry | outcome | iterations | value | residual |")
    print("|---|---|---|---|---|")
    for name in names:
        print("\n".join(_changes(name, old.get(name), data[name])))
