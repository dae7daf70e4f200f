"""Fields, fluxes and local primitives of the magnetic form."""
import configparser
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magsurf import fields
from magsurf.cli import _build_field
from magsurf.critical import c0_upper_bound
from magsurf.errors import (DegenerateInputError, NoGlobalPrimitiveError,
                            UnsupportedError)
from magsurf.fields import (CallableField, ClosedFormPrimitive, ConstantField,
                            CosineField, LineIntegralPrimitive,
                            MagneticSystem, TorusField,
                            TorusSpectralPrimitive, energy_of_s, flux_total,
                            local_primitive, s_of_energy, stokes_residual)
from magsurf.surfaces import (FlatTorus, HyperbolicPlane, PeriodicBicubic,
                              RoundSphere)


@given(st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=200, deadline=None)
def test_speed_energy_roundtrip(s):
    k = energy_of_s(s)
    assert k > 0
    assert abs(s_of_energy(k) - s) <= 1e-12 * s
    # the defining relation: speed on the level set is sqrt(2k) = 1/s
    assert abs(math.sqrt(2.0 * k) * s - 1.0) < 1e-12


def test_energy_of_s_rejects_nonpositive():
    with pytest.raises(DegenerateInputError):
        energy_of_s(0.0)
    with pytest.raises(DegenerateInputError):
        s_of_energy(-1.0)


def test_flux_constant_fields():
    sph = MagneticSystem(RoundSphere(), ConstantField(1.0))
    assert abs(flux_total(sph) - 4.0 * math.pi) < 1e-8

    tor = MagneticSystem(FlatTorus(2.0, 0.5), ConstantField(3.0))
    assert abs(flux_total(tor) - 3.0) < 1e-12

    hyp = MagneticSystem(HyperbolicPlane(genus=2), ConstantField(1.0))
    assert abs(flux_total(hyp) - 4.0 * math.pi) < 1e-12


def test_flux_hyperbolic_nonconstant_unsupported():
    hyp = MagneticSystem(HyperbolicPlane(genus=2),
                         CallableField(lambda c, u, v: u))
    with pytest.raises(UnsupportedError):
        flux_total(hyp)


@pytest.mark.parametrize("entry", [
    flux_total, local_primitive, lambda system: c0_upper_bound(system, 1)])
def test_non_finite_field_stops_flux_and_density_grid(entry):
    """A torus field that is NaN on part of the torus (x > 3/4) stops the
    total flux, the primitive's build and c0's Poisson solve at their
    entry, each sampling it on its own grid, instead of handing nan on."""
    system = MagneticSystem(FlatTorus(), TorusField(
        lambda x, y: np.where(x > 0.75, np.nan, 1.0)))
    with pytest.raises(DegenerateInputError, match="not finite"):
        entry(system)


def test_flux_mean_zero_torus_field():
    sys = MagneticSystem(
        FlatTorus(),
        TorusField(lambda x, y: np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y)))
    assert abs(flux_total(sys)) < 1e-12


def _square_residual(prim, system, chart, center, h):
    """stokes_residual of prim.theta against the chart density of sigma on
    the square of side h centred at center."""
    def dtheta(z):
        d = float(system.form_density(chart, *z))
        return np.array([[0.0, d], [-d, 0.0]])
    return stokes_residual(
        lambda p: np.stack(prim.theta(chart, p[:, 0], p[:, 1]), axis=-1),
        dtheta, np.subtract(center, 0.5 * h), (1.0, 0.0), (0.0, 1.0), h)


def test_stokes_residual_second_order():
    """The midpoint circulation mismatch d(theta) - sigma over a small
    square shrinks like h^2 relative to enclosed flux."""
    system = MagneticSystem(RoundSphere(), ConstantField(1.0))
    prim = local_primitive(system)
    res = [abs(_square_residual(prim, system, 0, (0.3, 0.2), h))
           for h in (0.2, 0.1, 0.05)]
    r1 = math.log2(res[0] / res[1])
    r2 = math.log2(res[1] / res[2])
    assert 1.6 < r1 < 2.6
    assert 1.6 < r2 < 2.6


@given(chart=st.integers(0, 1), u=st.floats(-2.0, 2.0),
       v=st.floats(-2.0, 2.0), c=st.sampled_from([-1.5, 0.4, 1.0]))
@settings(max_examples=60, deadline=None)
def test_sphere_primitive_closed_form(chart, u, v, c):
    """In either sphere chart a constant field gets the rotation-symmetric
    primitive 2c (u dv - v du) / (1 + u^2 + v^2), whose circulation around
    small squares matches form_density to O(h^2)."""
    system = MagneticSystem(RoundSphere(), ConstantField(c))
    prim = local_primitive(system)
    a = 2.0 * c / (1.0 + u * u + v * v)
    assert np.allclose(prim.theta(chart, u, v), (-v * a, u * a),
                       rtol=1e-14, atol=1e-15)
    for h in (0.04, 0.02, 0.01):
        assert _square_residual(prim, system, chart, (u, v),
                                h) < 2.0 * abs(c) * h * h


@pytest.mark.parametrize("field", [
    ConstantField(0.7),
    CallableField(lambda c, u, v: 0.5 + 0.3 * np.asarray(u) - 0.2 * c)],
    ids=["constant", "callable"])
def test_both_sphere_charts_share_one_primitive(field):
    """Both sphere charts get the same primitive object, and it reads the
    chart from each call: in each chart its circulation around small
    squares matches that chart's form_density to O(h^2), the chart-aware
    callable field's fibre integral included."""
    system = MagneticSystem(RoundSphere(), field)
    prim = local_primitive(system)
    assert local_primitive(system) is prim
    for chart in (0, 1):
        for h in (0.04, 0.02, 0.01):
            assert _square_residual(prim, system, chart, (0.3, -0.4),
                                    h) < 2.0 * h * h


def test_spectral_primitive_is_global():
    sys = MagneticSystem(FlatTorus(), TorusField(
        lambda x, y: 2 * np.pi * np.cos(2 * np.pi * x)))
    prim = local_primitive(sys)
    # global single-valuedness: circulation around both lattice loops is
    # reproduced exactly by periodicity of theta
    for u, v in [(0.0, 0.0), (0.37, 0.81)]:
        t0 = np.asarray(prim.theta(0, u, v))
        t1 = np.asarray(prim.theta(0, u + 1.0, v))
        t2 = np.asarray(prim.theta(0, u, v + 1.0))
        assert np.max(np.abs(t1 - t0)) < 1e-10
        assert np.max(np.abs(t2 - t0)) < 1e-10


def test_spectral_primitive_rejects_net_flux():
    sys = MagneticSystem(FlatTorus(), ConstantField(1.0))
    with pytest.raises(NoGlobalPrimitiveError):
        TorusSpectralPrimitive(sys)


def test_local_primitive_skips_spectral_solve_of_inexact_field(monkeypatch):
    """The bump field's coarse-grid mean is most of its largest value, so
    local_primitive makes no 256 x 256 Poisson solve for it; the cosine and
    two-mode fields, of zero mean, still get the spectral primitive."""
    sizes = []
    solve = fields.periodic_poisson

    def recording(system, n):
        sizes.append(n)
        return solve(system, n)

    monkeypatch.setattr(fields, "periodic_poisson", recording)
    bump = TorusField(lambda x, y: 1.0 - 2.0 * np.exp(
        -((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.0625))
    prim = local_primitive(MagneticSystem(FlatTorus(), bump))
    assert isinstance(prim, LineIntegralPrimitive)
    assert sizes == []
    for f in (lambda x, y: 2 * np.pi * np.cos(2 * np.pi * x),
              lambda x, y: 2 * np.pi * np.cos(2 * np.pi * x)
              + np.pi * np.sin(2 * np.pi * (x + y))):
        prim = local_primitive(MagneticSystem(FlatTorus(), TorusField(f)))
        assert isinstance(prim, TorusSpectralPrimitive)
    assert sizes == [256, 256]


def test_local_primitive_is_built_once_per_system(monkeypatch):
    """A frozen system caches its one primitive: every flux of one
    tau_estimate on criterion 08's strip reads one 256 x 256 Poisson
    solve, and a second system makes its own.  A winding request still
    raises on a cached primitive that is not periodic."""
    from magsurf import regions

    sizes = []
    solve = fields.periodic_poisson
    monkeypatch.setattr(fields, "periodic_poisson",
                        lambda system, n: sizes.append(n) or solve(system, n))
    evolve = regions.evolve_minimize
    runs = []
    monkeypatch.setattr(regions, "evolve_minimize",
                        lambda *a: runs.append(1) or evolve(*a))
    cosine = TorusField(lambda x, y: 2 * np.pi * np.cos(2 * np.pi * x))
    system = MagneticSystem(FlatTorus(), cosine)
    n = 32
    ys = np.arange(n) / n
    strip = regions.Region([
        regions.RegionCurve(np.column_stack([np.full(n, 0.7), ys])[::-1],
                            winding=(0, -1)),
        regions.RegionCurve(np.column_stack([np.full(n, 0.3), 1.0 - ys])
                            [::-1], winding=(0, 1))], orientation=-1)
    regions.tau_estimate(system, [strip], 0.12, 1.0, bisect_iters=3,
                         params=regions.EvolveParams(spacing=0.04))
    assert len(runs) >= 2
    assert sizes == [256]
    assert local_primitive(system, True) is local_primitive(system)
    local_primitive(MagneticSystem(FlatTorus(), cosine))
    assert sizes == [256, 256]
    with pytest.raises(dataclasses.FrozenInstanceError):
        system.field = ConstantField(1.0)
    bump = MagneticSystem(FlatTorus(), TorusField(
        lambda x, y: 1.0 - 2.0 * np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2)
                                        / 0.0625)))
    assert not local_primitive(bump).periodic
    with pytest.raises(NoGlobalPrimitiveError):
        local_primitive(bump, True)


def test_line_integral_matches_flux_on_disc():
    """Circulation of a primitive around a small circle equals the
    enclosed flux (Stokes), cross-checked by dense quadrature."""
    system = MagneticSystem(RoundSphere(), ConstantField(1.0))
    prim = local_primitive(system)
    r = 0.3
    n = 4096
    ang = 2 * np.pi * np.arange(n + 1) / n
    pts = np.column_stack([0.2 + r * np.cos(ang), 0.1 + r * np.sin(ang)])
    circ = prim.line_integral(0, pts)
    # dense midpoint quadrature of form_density over the disc
    nr, na = 400, 400
    rr = (np.arange(nr) + 0.5) * r / nr
    aa = (np.arange(na) + 0.5) * 2 * np.pi / na
    rg, ag = np.meshgrid(rr, aa, indexing="ij")
    xs = 0.2 + rg * np.cos(ag)
    ys = 0.1 + rg * np.sin(ag)
    dens = system.form_density(0, xs.ravel(), ys.ravel())
    flux = float(np.sum(dens * rg.ravel()) * (r / nr) * (2 * np.pi / na))
    assert abs(circ - flux) < 1e-6 * max(1.0, abs(flux))


def test_line_integral_exact_for_cubic_theta():
    """Two-point Gauss per segment integrates theta = a(v) du exactly for a
    cubic a: along a segment from p to q the integral is
    du * (A(q_v) - A(p_v)) / dv with A' = a."""
    coef = [0.7, -1.3, 2.1, 1.6]          # a(v) = sum coef[j] v^j

    def a(v):
        return sum(c * v ** j for j, c in enumerate(coef))

    def big_a(v):
        return sum(c * v ** (j + 1) / (j + 1) for j, c in enumerate(coef))

    prim = ClosedFormPrimitive(a)
    pts = np.array([[0.0, -0.4], [0.3, 0.7], [1.1, -0.2], [0.4, -0.9],
                    [-0.5, 0.35], [0.2, 1.05]])
    want = sum((q[0] - p[0]) * (big_a(q[1]) - big_a(p[1])) / (q[1] - p[1])
               for p, q in zip(pts[:-1], pts[1:]))
    assert abs(prim.line_integral(0, pts) - want) < 1e-14


def test_constant_field_vectorized():
    f = ConstantField(2.5)
    vals = f.eval(0, np.zeros(5), np.ones(5))
    assert np.all(np.asarray(vals) == 2.5)


def _scalar_cases():
    amp = 2.0 * math.pi
    n = 16
    x = np.arange(n) / n
    grid = np.cos(2 * np.pi * x)[:, None] + 0.5 * np.sin(
        4 * np.pi * x)[None, :]
    spl = PeriodicBicubic(grid, 1.0, 2.0)
    cfg = configparser.ConfigParser()
    cfg.read_string("[field]\ntype = cosine\n")
    wide = configparser.ConfigParser()
    wide.read_string("[field]\ntype = cosine\namplitude = -3.3\n")
    return [
        ConstantField(-1.7),
        TorusField(lambda x, y: amp * np.cos(2.0 * np.pi * x)),
        CallableField(lambda c, u, v: np.sin(u) * v + c),
        # what [field] type = csv builds: a periodic spline in a TorusField
        TorusField(lambda x, y: spl(x, y), lx=1.0, ly=2.0),
        # what [field] type = cosine builds, on the unit and a wide lattice
        _build_field(cfg, FlatTorus()),
        _build_field(wide, FlatTorus(1.7, 0.6)),
    ]


@pytest.mark.parametrize("field", _scalar_cases(),
                         ids=["constant", "cosine", "callable", "csv",
                              "cli-cosine", "cli-cosine-wide"])
@given(chart=st.integers(0, 1), u=st.floats(-5.0, 5.0),
       v=st.floats(-5.0, 5.0))
@settings(max_examples=60, deadline=None)
def test_scalar_matches_eval(field, chart, u, v):
    """The field's step_line, run alone at a point with its step_names,
    sets f to exactly float(eval)."""
    scope = {**field.step_names, "chart": chart, "x": u, "y": v}
    exec(field.step_line, scope)
    got = scope["f"]
    assert type(got) is float
    assert got == float(field.eval(chart, u, v))


@given(amp=st.floats(-10.0, 10.0), lx=st.floats(0.3, 3.0),
       ly=st.floats(0.3, 3.0), chart=st.integers(0, 1),
       u=st.floats(-50.0, 50.0), v=st.floats(-50.0, 50.0),
       n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_cosine_eval_matches_torus_field_path(amp, lx, ly, chart, u, v, n,
                                              seed):
    """CosineField's own eval gives every float the TorusField path (the
    callable amp cos(2 pi x / lx) of the reduced point) gives, at scalar
    points and at arrays of points well outside the period cell."""
    fast = CosineField(amp, lx, ly)
    ref = TorusField(lambda x, y: amp * np.cos(2.0 * np.pi * x / lx),
                     lx, ly)
    got, want = fast.eval(chart, u, v), ref.eval(chart, u, v)
    assert type(got) is type(want) and got.tobytes() == want.tobytes()
    uu, vv = np.random.default_rng(seed).uniform(-50.0, 50.0, (2, n))
    got, want = fast.eval(chart, uu, vv), ref.eval(chart, uu, vv)
    assert got.shape == want.shape == (n,)
    assert got.tobytes() == want.tobytes()
