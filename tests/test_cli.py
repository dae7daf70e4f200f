"""End-to-end checks of the command line front end.

Each test writes a small INI file, invokes main() in process, and
inspects exit code, stdout JSON, and the files left in the output
directory.
"""

import json
import math
import os
import warnings

import numpy as np
import pytest

from magsurf.cli import _load_grid_csv, _write_trajectory_csv, main
from magsurf.fields import ConstantField, MagneticSystem
from magsurf.flow import (StepRecord, TangentState, Trajectory, integrate,
                          state_at_energy, trajectory_curvature,
                          trajectory_energies)
from magsurf.surfaces import RoundSphere

PERIOD_TOL = 1e-6


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run(capsys, tmp_path, text, command, extra=()):
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    code = main([command, cfg, "--out", str(out)] + list(extra))
    captured = capsys.readouterr()
    return code, captured.out, out


SPHERE_ORACLE = """\
[surface]
kind = sphere

[field]
type = constant
value = 1.0

[run]
s = 1.0
"""


def test_oracle_output_deterministic(capsys, tmp_path):
    """Two identical runs must print byte-identical JSON."""
    code1, out1, _ = _run(capsys, tmp_path, SPHERE_ORACLE, "oracle")
    code2, out2, _ = _run(capsys, tmp_path, SPHERE_ORACLE, "oracle")
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert list(data) == ["period", "radius"]
    assert data["radius"] == round(math.atan(1.0), 12)
    assert data["period"] == round(2.0 * math.pi / math.sqrt(2.0), 12)


def test_oracle_uses_field_strength(capsys, tmp_path):
    """The closed forms depend on kappa = s f: with f = 3 at s = 2 the
    sphere circle has radius atan(1 / 6) and period 2 pi s / sqrt(37)."""
    text = SPHERE_ORACLE.replace("value = 1.0", "value = 3.0") \
        .replace("s = 1.0", "s = 2.0")
    code, out_text, _ = _run(capsys, tmp_path, text, "oracle")
    assert code == 0
    data = json.loads(out_text)
    assert data["radius"] == round(math.atan2(1.0, 6.0), 12)
    assert data["period"] == round(4.0 * math.pi / math.sqrt(37.0), 12)


def test_oracle_rejects_nonconstant_field(capsys, tmp_path):
    text = SPHERE_ORACLE.replace("kind = sphere", "kind = flat_torus") \
        .replace("type = constant", "type = cosine")
    code, _, _ = _run(capsys, tmp_path, text, "oracle")
    assert code == 2


@pytest.mark.parametrize("kind", ["sphere", "flat_torus", "hyperbolic"])
@pytest.mark.parametrize("value", [1.3, -1.3])
def test_sweep_shoots_one_seed_on_every_surface(capsys, tmp_path, kind,
                                                value):
    """The one seed lies on a circle of either turning sense on each
    homogeneous surface, and shooting from it gives the oracle's period."""
    # only the half-plane reads its genus
    surface = f"kind = {kind}\ngenus = 2"
    text = SPHERE_ORACLE.replace("kind = sphere", surface) \
        .replace("value = 1.0", f"value = {value}") \
        .replace("s = 1.0", "s_values = 0.7, 1.5, 3.0")
    code, out_text, _ = _run(capsys, tmp_path, text, "sweep")
    assert code == 0
    runs = json.loads(out_text)["runs"]
    # the half-plane has no circle at kappa = 0.7 * 1.3 < 1
    assert [r["exists_contractible"] for r in runs] \
        == [kind != "hyperbolic", True, True]
    for r in runs:
        if r["exists_contractible"]:
            assert abs(r["period"] - r["oracle_period"]) < 1e-9


def test_oracle_subcritical_exit_code(capsys, tmp_path):
    text = """\
[surface]
kind = hyperbolic
genus = 2

[field]
type = constant
value = 1.0

[run]
s = 0.8
"""
    code, _, out = _run(capsys, tmp_path, text, "oracle")
    assert code == 1
    data = json.loads((out / "result.json").read_text())
    assert data["exists_contractible"] is False


def test_config_rejects_both_energy_keys(capsys, tmp_path):
    text = SPHERE_ORACLE + "k = 0.5\n"
    code, _, _ = _run(capsys, tmp_path, text, "oracle")
    assert code == 2


def test_config_rejects_unknown_key(capsys, tmp_path):
    text = SPHERE_ORACLE.replace("[run]", "[run]\nbogus = 1")
    code, _, _ = _run(capsys, tmp_path, text, "oracle")
    assert code == 2


def test_config_rejects_command_args(capsys, tmp_path):
    """No command reads command_args, so it is an unknown key."""
    text = SPHERE_ORACLE.replace("[run]", "[run]\ncommand_args = --x")
    code, _, _ = _run(capsys, tmp_path, text, "oracle")
    assert code == 2


def test_config_rejects_unknown_section(capsys, tmp_path):
    text = SPHERE_ORACLE + "\n[extras]\nfoo = 1\n"
    code, _, _ = _run(capsys, tmp_path, text, "oracle")
    assert code == 2


@pytest.mark.parametrize("command, old, new", [
    ("oracle", "s = 1.0", "s = abc"),
    ("oracle", "s = 1.0", "s = nan"),
    ("oracle", "s = 1.0", "k = -inf"),
    ("oracle", "value = 1.0", "value = inf"),
    ("oracle", "kind = sphere", "kind = flat_torus\nlx = nan"),
    ("simulate", "t_end = 0.1", "t_end = x"),
    ("simulate", "t_end = 0.1", "t_end = nan"),
    ("simulate", "t_end = 0.1", "t_end = 0.1\nrecord_every = 2.5"),
    ("sweep", "s_values = 0.5, 1.5", "s_values = 0.5, nan"),
    ("sweep", "s_values = 0.5, 1.5", "s_values = 0.5,abc"),
    ("contact-check", "s = 1.0", "s = 1.0\nn_fiber = 0"),
    ("simulate", "t_end = 0.1", "t_end = 0.1\ndt = 0"),
    ("simulate", "t_end = 0.1", "t_end = 0.1\nrecord_every = 0"),
    ("contact-check", "s = 1.0", "s = 1.0\nn_base = 0"),
    ("simulate", "t_end = 0.1", "t_end = -1"),
    ("simulate", "t_end = 0.1", "t_end = 0.1\ndt = -0.01"),
], ids=["text", "nan", "minus-inf", "inf-field", "nan-period",
        "text-t_end", "nan-t_end", "fractional-int", "nan-s_values",
        "text-s_values", "zero-n_fiber", "zero-dt", "zero-record_every",
        "zero-n_base", "negative-t_end", "negative-dt"])
def test_config_rejects_bad_number(capsys, tmp_path, command, old, new):
    """A numeric key whose value is text, NaN, infinite, (for an integer
    key) fractional or (for dt, t_end, record_every, n_base, n_fiber,
    spacing and max_time) not positive is a configuration error before any
    command runs, so nothing reaches stdout; the unchanged config runs."""
    good = SPHERE_ORACLE + "t_end = 0.1\ns_values = 0.5, 1.5\n"
    assert _run(capsys, tmp_path, good, command)[0] == 0
    code, out_text, _ = _run(capsys, tmp_path, good.replace(old, new),
                             command)
    assert code == 2
    assert out_text == ""


@pytest.mark.parametrize("key, value, command", [
    ("dt", "0", "simulate"), ("t_end", "-1", "simulate"),
    ("record_every", "0", "simulate"), ("n_base", "0", "simulate"),
    ("n_fiber", "-2", "simulate"), ("spacing", "0", "taimanov"),
    ("spacing", "-0.02", "taimanov"), ("max_time", "-1", "orbit-shoot")],
    ids=["dt-0", "t_end--1", "record_every-0", "n_base-0", "n_fiber--2",
         "spacing-0", "spacing--0.02", "max_time--1"])
def test_config_names_key_out_of_range(capsys, tmp_path, key, value,
                                       command):
    """The error for a number out of range names its key."""
    cfg = _write(tmp_path, SPHERE_ORACLE + f"{key} = {value}\n")
    assert main([command, cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"{key} = '{value}' is not positive" in capsys.readouterr().err


def test_contact_check_ignores_candidate(capsys, tmp_path):
    """The system picks its candidate: candidate = exact on the sphere,
    whose field has no periodic primitive, gives the homogeneous
    certificate that no key gives."""
    code, want, _ = _run(capsys, tmp_path, SPHERE_ORACLE, "contact-check")
    assert code == 0
    text = SPHERE_ORACLE + "candidate = exact\n"
    code, out_text, _ = _run(capsys, tmp_path, text, "contact-check")
    assert code == 0
    assert out_text == want
    assert json.loads(out_text)["min"] == 2.0


def _grid_text(header="x,y,f", first=None, n=8, xs=None, extra=""):
    """A CSV grid of cos 2 pi x on n x n nodes (x nodes ``xs`` if given,
    else i / n); ``first`` replaces the value of the first sample, and
    ``extra`` is appended to every sample row."""
    xs = [i / n for i in range(n)] if xs is None else xs
    rows = [f"{x},{j / n},{math.cos(2.0 * math.pi * i / n)}{extra}"
            for i, x in enumerate(xs) for j in range(n)]
    if first is not None:
        rows[0] = f"0.0,0.0,{first}"
    return "\n".join([header] + rows) + "\n"


CSV_FIELD = """\
[surface]
kind = flat_torus

[field]
type = csv
csv = {path}

[run]
quantity = c0
"""

CSV_FACTOR = """\
[surface]
kind = conformal_torus
factor_csv = {path}

[run]
quantity = c0
"""


@pytest.mark.parametrize("config", [CSV_FIELD, CSV_FACTOR],
                         ids=["field", "factor"])
@pytest.mark.parametrize("grid", [
    _grid_text(header="a,b,c"), "x,y\n0,0\n0,0.5\n", "", "x,y,f\n",
    _grid_text(first="inf"), _grid_text(first="nan"),
    _grid_text(n=4, xs=[0.0, 0.1, 0.5, 0.9]),
    _grid_text(n=4, xs=[0.0, 0.5, 1.0, 1.5]),
    _grid_text(n=4) + "0.25,0.5,99\n",
    _grid_text(n=4).replace("0.0,0.0,1.0\n", "0.0,0.0\n"),
    _grid_text(header="x,y,f,g", n=4, extra=",0.5")],
    ids=["no_xy", "no_value", "empty", "header_only", "inf", "nan",
         "nonuniform", "off_period", "duplicate", "ragged", "fourth_column"])
def test_config_rejects_bad_grid_csv(capsys, tmp_path, config, grid):
    """A grid CSV without x, y and value columns, without samples, with a
    non-finite sample, with nodes other than i / n on the unit period, with
    a node given twice, with a short row or with a fourth column is a
    configuration error (exit 2), for a field and for a conformal factor
    alike."""
    cfg = _write(tmp_path, config.format(path=_write(tmp_path, grid,
                                                       "grid.csv")))
    code = main(["critical", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "grid csv" in capsys.readouterr().err


def test_grid_csv_reads_every_float_exactly(tmp_path):
    """The 64 x 64 grid read back holds float() of each CSV value, bit for
    bit, whatever the number of digits and the column order; a trailing
    blank line is no sample."""
    n = 64
    rng = np.random.default_rng(11)
    mags = 10.0 ** rng.integers(-20, 21, (n, n))
    digits = rng.integers(1, 18, (n, n))
    text = [[f"{v:.{d}g}" for v, d in zip(row, drow)]
            for row, drow in zip(rng.standard_normal((n, n)) * mags,
                                 digits)]
    rows = [f"{text[i][j]},{i / n!r},{j / n!r}"
            for i in range(n) for j in range(n)]
    path = _write(tmp_path, "\n".join(["f,x,y"] + rows) + "\n\n",
                  "grid.csv")
    grid = _load_grid_csv(path, 1.0, 1.0)
    want = np.array([[float(v) for v in row] for row in text])
    assert grid.tobytes() == want.tobytes()


def test_simulate_writes_trajectory(capsys, tmp_path):
    text = """\
[surface]
kind = flat_torus

[field]
type = constant
value = 1.0

[run]
s = 2.0
t_end = 5.0
"""
    code, out_text, out = _run(capsys, tmp_path, text, "simulate")
    assert code == 0
    summary = json.loads(out_text)
    assert summary["energy_drift"] < 1e-9
    assert not summary["truncated"]
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,chart,u,v,du,dv,energy,kappa"
    assert len(lines) > 100
    assert (out / "plot.gp").exists()
    assert json.loads((out / "result.json").read_text()) == summary


def _per_row_csv(system, traj, path):
    """The trajectory CSV written one row per % call."""
    energies = trajectory_energies(system, traj)
    kappa = trajectory_curvature(system, traj) if len(traj.t) >= 5 \
        else np.full(len(traj.t), np.nan)
    with open(path, "w") as fh:
        fh.write("t,chart,u,v,du,dv,energy,kappa\n")
        for i in range(len(traj.t)):
            fh.write("%.12g,%d,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g\n" % (
                traj.t[i], traj.chart[i], traj.q[i, 0], traj.q[i, 1],
                traj.dq[i, 0], traj.dq[i, 1], energies[i], kappa[i]))


@pytest.mark.parametrize("rows", [1, 4, 255, 256, 257, 5001])
def test_trajectory_csv_matches_per_row_writer(tmp_path, rows):
    """The chunked writer's file equals the per-row one byte for byte, on
    a sphere trajectory that changes chart after 89 steps and again after
    2911; four rows or fewer take the NaN-kappa branch."""
    system = MagneticSystem(RoundSphere(), ConstantField(0.7))
    seed = state_at_energy(system, TangentState(0, 1.8, 0.1, 1.0, 0.3), 0.5)
    full = integrate(system, seed, 5.0)
    assert full.chart[0] == 0 and full.chart[89] == 1
    traj = Trajectory(t=full.t[:rows], chart=full.chart[:rows],
                      q=full.q[:rows], dq=full.dq[:rows], dt=full.dt)
    _write_trajectory_csv(system, traj, tmp_path / "chunked.csv")
    _per_row_csv(system, traj, tmp_path / "per_row.csv")
    got = (tmp_path / "chunked.csv").read_bytes()
    assert got == (tmp_path / "per_row.csv").read_bytes()
    assert got.count(b"\n") == rows + 1


def test_orbit_shoot_matches_oracle(capsys, tmp_path):
    text = """\
[surface]
kind = flat_torus

[field]
type = constant
value = 1.0

[run]
s = 2.0
seed_u = 0.25
"""
    code, out_text, _ = _run(capsys, tmp_path, text, "orbit-shoot")
    assert code == 0
    summary = json.loads(out_text)
    assert abs(summary["period"] - 2.0 * math.pi) < PERIOD_TOL
    assert abs(summary["radius"] - 0.5) < 1e-6
    assert summary["winding"] == [0, 0]


def test_critical_quantity(capsys, tmp_path):
    text = """\
[surface]
kind = hyperbolic
genus = 2

[field]
type = constant
value = 1.0

[run]
quantity = c_h
"""
    code, out_text, _ = _run(capsys, tmp_path, text, "critical")
    assert code == 0
    area = 4.0 * math.pi
    flux = -2.0 * math.pi * (2 - 2 * 2)
    expected = flux ** 2 / (4.0 * math.pi * 2.0 * area)
    assert abs(json.loads(out_text)["c_h"] - expected) < 1e-12


def test_critical_c0_writes_bracket(capsys, tmp_path):
    """c0 reports its duality bracket: lower <= c0 = 1 on the cosine field,
    with the gap closed to 1e-3."""
    text = """\
[surface]
kind = flat_torus

[field]
type = cosine

[run]
quantity = c0
"""
    code, out_text, out = _run(capsys, tmp_path, text, "critical")
    assert code == 0
    data = json.loads((out / "result.json").read_text())
    assert abs(data["c0"] - 1.0) < 1e-12
    assert data["lower"] <= data["c0"] == data["history"][-1]
    assert abs(data["gap"] - (data["c0"] - data["lower"])) < 1e-12
    assert data["gap"] <= 1e-3
    assert data["iterations"] == 0      # theta* = sin 2 pi x dy is optimal


def test_critical_c0_on_coarse_csv_field(capsys, tmp_path):
    """A 16 x 16 CSV sample of 2 pi cos 2 pi x + 4 pi sin 2 pi y, solved on
    the 64 x 64 c0 grid, passes the zero-flux test: the periodic spline's
    grid mean is the sample's.  Its bracket closes below the sup sqrt(5) of
    the primitive (-2 cos 2 pi y, sin 2 pi x)."""
    def f(x, y):
        return 2 * math.pi * (math.cos(2 * math.pi * x)
                              + 2 * math.sin(2 * math.pi * y))

    n = 16
    rows = [f"{i / n},{j / n},{f(i / n, j / n)!r}"
            for i in range(n) for j in range(n)]
    grid = _write(tmp_path, "\n".join(["x,y,f"] + rows) + "\n", "grid.csv")
    code, _, out = _run(capsys, tmp_path, CSV_FIELD.format(path=grid),
                        "critical")
    assert code == 0
    data = json.loads((out / "result.json").read_text())
    assert data["lower"] <= data["c0"] <= math.sqrt(5.0)
    assert data["gap"] <= 1e-2
    assert 0 < data["iterations"] < 2000


def test_taimanov_off_chart_is_an_error(capsys, tmp_path):
    """A half-plane disc that grows past the chart floor ends with an error
    naming the iteration (exit 1), not a traceback."""
    text = """\
[surface]
kind = hyperbolic
genus = 2

[field]
type = constant
value = 1.0

[run]
s = 3.4
center_u = 0.1
center_v = 1.0
radius = 0.4
spacing = 0.03
max_iter = 4000
"""
    code = main(["taimanov", _write(tmp_path, text), "--out",
                 str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "iteration" in err


@pytest.mark.parametrize("key,value", [("tol", "0"), ("tol", "-1e-3"),
                                       ("max_iter", "0")])
def test_taimanov_rejects_unreachable_tol_and_no_iterations(
        capsys, tmp_path, key, value):
    """A tol that is not positive or a max_iter below 1 ends with an error
    naming it (exit 1) before any evolution."""
    text = f"""\
[surface]
kind = flat_torus

[field]
type = constant
value = 1.0

[run]
s = 8.0
radius = 0.1
{key} = {value}
"""
    code = main(["taimanov", _write(tmp_path, text), "--out",
                 str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and f"{key}=" in err


@pytest.mark.parametrize("command,value", [
    ("orbit-shoot", "0"), ("orbit-shoot", "-1e-3"),
    ("orbit-descend", "0"), ("orbit-descend", "-1")])
def test_shoot_and_descend_reject_unreachable_tol(capsys, tmp_path, command,
                                                  value):
    """A tol that is not positive, which no residual can meet, ends with an
    error naming it (exit 1) before any return or Krylov step, not with a
    stalled line search or the seed handed back as max_iter."""
    text = f"""\
[surface]
kind = flat_torus

[field]
type = constant
value = 1.0

[run]
s = 4.0
seed_u = 0.5
seed_v = 0.5
radius = 0.3
tol = {value}
"""
    code = main([command, _write(tmp_path, text), "--out",
                 str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "tol" in err


def test_orbit_descend_reads_max_iter(capsys, tmp_path):
    """[run] max_iter bounds the Newton-Krylov iterations: the bump loop
    that converges in 5 of them (the numbers golden's
    orbit-descend.flat_torus) ends as max_iter (exit 1) given one."""
    text = """\
[surface]
kind = flat_torus

[field]
type = bump

[run]
s = 16.0
center_u = 0.5
center_v = 0.5
radius = 0.15
n_vertices = 32
max_iter = 1
"""
    code, out_text, _ = _run(capsys, tmp_path, text, "orbit-descend")
    assert code == 1
    assert json.loads(out_text)["outcome"] == "max_iter"


@pytest.mark.parametrize("kind,ftype", [("sphere", "cosine"),
                                        ("hyperbolic\ngenus = 2", "bump")],
                         ids=["sphere-cosine", "hyperbolic-bump"])
def test_periodic_field_needs_a_torus(capsys, tmp_path, kind, ftype):
    """A cosine, bump or csv field takes its periods from the torus
    lattice; on a surface without one it is a configuration error (exit
    2), not a field that reads differently in the sphere's two charts."""
    text = f"""\
[surface]
kind = {kind}

[field]
type = {ftype}

[run]
s = 1.0
seed_v = 1.0
t_end = 0.1
"""
    code = main(["simulate", _write(tmp_path, text), "--out",
                 str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ") and "torus" in err


@pytest.mark.parametrize("command", ["simulate", "orbit-shoot"])
def test_energy_key_k_matches_its_s(capsys, tmp_path, command):
    """[run] k = 2 names the level of s = 0.5 (k = 1 / 2 s^2, both exact in
    binary): the summary and every file written are the same bytes."""
    runs = []
    for key in ("s = 0.5", "k = 2.0"):
        text = SPHERE_ORACLE.replace("s = 1.0", key) \
            + "seed_u = 0.3\nt_end = 1.0\n"
        (tmp_path / key[0]).mkdir()
        code, out_text, out = _run(capsys, tmp_path / key[0], text, command)
        assert code == 0
        runs.append((out_text, {p.name: p.read_bytes()
                                for p in sorted(out.iterdir())}))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("command", ["simulate", "orbit-shoot"])
@pytest.mark.parametrize("seed_v", ["0", "-1"])
def test_seed_below_hyperbolic_floor_is_an_error(capsys, tmp_path, command,
                                                 seed_v):
    """A half-plane seed on or below the real axis is refused where it
    enters, before its energy is taken: exit 1 with the floor message and
    no numpy warning on the way."""
    text = f"""\
[surface]
kind = hyperbolic
genus = 2

[run]
s = 1.0
seed_v = {seed_v}
"""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, _write(tmp_path, text), "--out",
                     str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: point below the chart floor")


@pytest.mark.parametrize("orientation", ["0", "2"])
def test_taimanov_rejects_orientation_other_than_unit(capsys, tmp_path,
                                                      orientation):
    """An orientation other than 1 or -1 ends with an error naming it
    (exit 1), not with a region that vanished."""
    text = SPHERE_ORACLE.replace("kind = sphere", "kind = flat_torus") \
        .replace("s = 1.0", f"s = 8.0\norientation = {orientation}")
    code = main(["taimanov", _write(tmp_path, text), "--out",
                 str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and f"orientation={orientation}" in err


def test_contact_check_sphere(capsys, tmp_path):
    text = """\
[surface]
kind = sphere

[field]
type = constant
value = 1.0

[run]
s = 1.0
candidate = homogeneous
"""
    code, out_text, _ = _run(capsys, tmp_path, text, "contact-check")
    assert code == 0
    summary = json.loads(out_text)
    assert summary["verdict"] == "positive"
    assert summary["min"] > 0.0


def test_sweep_runs_all_values(capsys, tmp_path):
    text = """\
[surface]
kind = flat_torus

[field]
type = constant
value = 1.0

[run]
s_values = 0.5, 1.0, 2.0
workers = 3
"""
    code, out_text, _ = _run(capsys, tmp_path, text, "sweep")
    assert code == 0
    runs = json.loads(out_text)["runs"]
    assert [r["s"] for r in runs] == [0.5, 1.0, 2.0]
    for r in runs:
        assert r["exists_contractible"]
        assert abs(r["period"] - 2.0 * math.pi) < PERIOD_TOL


def test_sweep_on_the_sphere_at_high_speed(capsys, tmp_path):
    """sweep on the sphere at s = 0.5, 0.2 and 0.1, speeds 2 to 10: each
    return's steps span CELL_STEP of the sphere's radius, so every energy
    gets its circle, at the oracle's period to 1e-11."""
    text = SPHERE_ORACLE.replace("s = 1.0", "s_values = 0.5,0.2,0.1")
    code, out_text, _ = _run(capsys, tmp_path, text, "sweep")
    assert code == 0
    runs = json.loads(out_text)["runs"]
    assert [r["s"] for r in runs] == [0.5, 0.2, 0.1]
    for r in runs:
        assert abs(r["period"] - r["oracle_period"]) < 1e-11


@pytest.mark.parametrize("command,run,made", [
    ("sweep", "s_values = 0.5, 1.0", 0), ("orbit-shoot", "s = 1.0", 1)])
def test_trajectory_is_made_lazily_at_most_once(capsys, tmp_path,
                                                monkeypatch, command, run,
                                                made):
    """An orbit's trajectory is made when first read and then kept: sweep
    reads none and makes none; orbit-shoot reads it in the CSV writer and
    in orbit_radius, and makes it once."""
    real, calls = StepRecord.dense, []

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(StepRecord, "dense", counted)
    code, _, out = _run(capsys, tmp_path,
                        SPHERE_ORACLE.replace("s = 1.0", run), command)
    assert code == 0
    assert len(calls) == made
    if made:
        assert "radius" in json.loads((out / "result.json").read_text())


def test_missing_config_file(capsys, tmp_path):
    code = main(["oracle", str(tmp_path / "absent.ini")])
    capsys.readouterr()
    assert code == 2
