"""Conformal factor, curvature, chart machinery, and the integrator's
right-hand side against the geodesic equation."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magsurf.errors import DegenerateInputError, DomainError, UnsupportedError
from magsurf.fields import ConstantField, MagneticSystem
from magsurf.flow import make_rhs
from magsurf.surfaces import (ConformalTorus, FlatTorus, HyperbolicPlane,
                              PeriodicBicubic, RoundSphere)

RNG = np.random.default_rng(42)
FD_STEP = 1e-5
FD_RTOL = 1e-6


def _surfaces():
    grid = 0.08 * np.cos(2.0 * np.pi * np.arange(48)[:, None] / 48) \
        * np.sin(2.0 * np.pi * np.arange(48)[None, :] / 48)
    return [
        (FlatTorus(1.0, 1.0), 0, (0.0, 1.0), (0.0, 1.0)),
        (RoundSphere(), 0, (-1.2, 1.2), (-1.2, 1.2)),
        (RoundSphere(), 1, (-1.2, 1.2), (-1.2, 1.2)),
        (HyperbolicPlane(genus=2), 0, (-2.0, 2.0), (0.3, 3.0)),
        (ConformalTorus(grid), 0, (0.0, 1.0), (0.0, 1.0)),
    ]


def _fd_christoffel(surface, chart, u, v):
    """Central differences of the metric e^(2 rho) I, assembled the
    classical way (do Carmo, Riemannian Geometry, 1992, section 3.2)."""
    h = FD_STEP

    def g(uu, vv):
        return math.exp(2.0 * float(surface.conformal(chart, uu, vv)[0])) \
            * np.eye(2)

    dg_du = (g(u + h, v) - g(u - h, v)) / (2 * h)
    dg_dv = (g(u, v + h) - g(u, v - h)) / (2 * h)
    dg = np.stack([dg_du, dg_dv])            # dg[c, i, j] = d_c g_ij
    ginv = np.linalg.inv(g(u, v))
    gamma = np.zeros((2, 2, 2))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                s = 0.0
                for m in range(2):
                    s += ginv[k, m] * (dg[i, m, j] + dg[j, m, i]
                                       - dg[m, i, j])
                gamma[k, i, j] = 0.5 * s
    return gamma


@pytest.mark.parametrize("surface,chart,urange,vrange", _surfaces(),
                         ids=["flat", "sphere0", "sphere1", "hyp", "grid"])
def test_christoffel_matches_finite_differences(surface, chart, urange,
                                                vrange):
    """The RHS the integrator runs is the geodesic equation
    q'' = -Gamma(q)[q', q'] with finite-difference Christoffel symbols,
    plus f i q' = f (-dv, du) under a field f."""
    geodesic = make_rhs(MagneticSystem(surface, ConstantField(0.0)))
    magnetic = make_rhs(MagneticSystem(surface, ConstantField(0.7)))
    for _ in range(20):
        u = RNG.uniform(*urange)
        v = RNG.uniform(*vrange)
        du, dv = RNG.normal(size=2)
        gamma = _fd_christoffel(surface, chart, u, v)
        want = -np.einsum("kij,i,j->k", gamma, (du, dv), (du, dv))
        scale = max(1.0, np.max(np.abs(want)))
        got = np.array(geodesic(chart, u, v, du, dv))
        assert np.max(np.abs(got - want)) / scale < FD_RTOL
        got = np.array(magnetic(chart, u, v, du, dv))
        assert np.max(np.abs(got - want - 0.7 * np.array([-dv, du]))) \
            / scale < FD_RTOL


def test_known_curvatures():
    sph = RoundSphere()
    hyp = HyperbolicPlane(genus=2)
    flat = FlatTorus()
    for _ in range(20):
        u, v = RNG.uniform(-1, 1, size=2)
        assert abs(sph.gauss_curvature(0, u, v) - 1.0) < 1e-12
        assert abs(sph.gauss_curvature(1, u, v) - 1.0) < 1e-12
        assert abs(hyp.gauss_curvature(0, u, abs(v) + 0.2) + 1.0) < 1e-12
        assert abs(flat.gauss_curvature(0, u, v)) < 1e-15


def _total_curvature(surface):
    """Quadrature of the Gauss curvature against the area form."""
    charts, us, vs, w = surface.quadrature_nodes(256)
    return float(np.sum(surface.gauss_curvature(charts, us, vs) * w))


def test_total_curvature_sphere():
    sph = RoundSphere()
    assert sph.euler_characteristic() == 2
    assert abs(sph.area() - 4.0 * math.pi) < 1e-8
    assert abs(_total_curvature(sph) - 4.0 * math.pi) < 1e-8


def test_total_curvature_flat_torus():
    torus = FlatTorus(2.0, 0.5)
    assert torus.euler_characteristic() == 0
    assert abs(torus.area() - 1.0) < 1e-12
    assert abs(_total_curvature(torus)) < 1e-10


def test_total_curvature_conformal_torus():
    n = 96
    x = np.arange(n) / n
    grid = 0.1 * np.cos(2 * np.pi * x)[:, None] \
        * np.sin(2 * np.pi * x)[None, :]
    torus = ConformalTorus(grid)
    assert torus.euler_characteristic() == 0
    assert abs(_total_curvature(torus)) < 1e-4


def test_hyperbolic_declared_area():
    hyp = HyperbolicPlane(genus=2)
    assert hyp.euler_characteristic() == -2
    assert abs(hyp.area() - 4.0 * math.pi) < 1e-12
    with pytest.raises(UnsupportedError):
        hyp.quadrature_nodes(8)
    with pytest.raises(UnsupportedError):
        HyperbolicPlane().area()
    with pytest.raises(UnsupportedError):
        HyperbolicPlane().euler_characteristic()


def test_hyperbolic_domain_floor():
    hyp = HyperbolicPlane(genus=2)
    with pytest.raises(DomainError):
        hyp.check_domain(0, 0.0, -1.0)


@pytest.mark.parametrize("lx, ly", [(-1.0, 1.0), (0.0, 1.0), (1.0, -2.0),
                                    (1.0, 0.0), (math.nan, 1.0)])
def test_torus_periods_must_be_positive(lx, ly):
    """Both tori reject a period that is not positive, before the conformal
    torus builds its spline (a zero period divided by zero there)."""
    with pytest.raises(DegenerateInputError):
        FlatTorus(lx, ly)
    with pytest.raises(DegenerateInputError):
        ConformalTorus(np.zeros((8, 8)), lx=lx, ly=ly)


def test_flat_torus_quadrature_weights_are_exact():
    """The shared torus quadrature weights nodes by e^(2 rho) times the cell
    area; on the flat torus that is lx * ly / n^2 to the last bit."""
    for lx, ly, n in ((1.0, 1.0, 64), (2.0, 0.3, 7), (0.7, 1.9, 33)):
        charts, us, vs, w = FlatTorus(lx, ly).quadrature_nodes(n)
        assert np.all(w == lx * ly / n ** 2) and len(w) == n * n
        assert not charts.any()
        assert np.array_equal(us[::n], (np.arange(n) + 0.5) * lx / n)
        assert np.array_equal(vs[:n], (np.arange(n) + 0.5) * ly / n)


def test_sphere_chart_transition_consistency():
    """The two stereographic charts agree through the ambient embedding
    under the integrator's chart transition w = 1/z."""
    sph = RoundSphere()
    for _ in range(20):
        u, v = RNG.uniform(1.1, 1.5, size=2)
        amb = sph.to_ambient(0, u, v)
        chart, u1, v1, _, _ = sph.switch_chart(0, u, v, 0.0, 0.0)
        assert chart == 1
        back = sph.to_ambient(chart, u1, v1)
        assert np.max(np.abs(np.asarray(amb) - np.asarray(back))) < 1e-12
        assert abs(float(np.dot(amb, amb)) - 1.0) < 1e-12


def test_sphere_to_ambient_takes_a_chart_array():
    """A chart array embeds each row as its own chart does, bit for bit:
    chart 0 is (2u, 2v, r^2 - 1) / d and chart 1 is (2u, -2v, 1 - r^2) / d,
    d = 1 + r^2, whose negations are exact in floating point."""
    sph = RoundSphere()
    rng = np.random.default_rng(7)      # the shared RNG's draws stay put
    u, v = rng.uniform(-3.0, 3.0, size=(2, 200))
    charts = rng.integers(0, 2, size=200)
    got = sph.to_ambient(charts, u, v)
    for c in (0, 1):
        sel = charts == c
        uu, vv = u[sel], v[sel]
        r2 = uu * uu + vv * vv
        d = 1.0 + r2
        want = (np.stack([2 * uu / d, 2 * vv / d, (r2 - 1.0) / d], axis=-1)
                if c == 0 else
                np.stack([2 * uu / d, -2 * vv / d, (1.0 - r2) / d], axis=-1))
        assert np.array_equal(got[sel], want)
        assert np.array_equal(got[sel], sph.to_ambient(c, uu, vv))


def test_check_domain_rejects_chart_array_with_stray_entry():
    """check_domain takes a chart array and names an entry out of range."""
    sph, flat = RoundSphere(), FlatTorus()
    sph.check_domain(np.array([0, 1, 1, 0]), np.zeros(4), np.zeros(4))
    for surface, charts, stray in ((sph, [0, 1, 2, 0], 2),
                                   (sph, [1, -1, 0, 0], -1),
                                   (flat, [0, 0, 1, 0], 1)):
        with pytest.raises(DomainError, match=f"^chart {stray} not in"):
            surface.check_domain(np.array(charts), np.zeros(4), np.zeros(4))


@pytest.mark.parametrize("stray", [2, -1, 0.5])
@pytest.mark.parametrize("shape", ["scalar", "array"])
def test_check_domain_rejects_stray_chart(stray, shape):
    """A chart past the sphere's two, below 0 or not a whole number is
    refused, alone or inside an array, with the message naming it; the
    sphere's own charts 0 and 1 (also as floats) pass."""
    sph = RoundSphere()
    for good in (0, 1, 1.0, np.array([0, 1.0, 1])):
        sph.check_domain(good, 0.0, 0.0)
    chart = stray if shape == "scalar" else np.array([1, stray, 0])
    with pytest.raises(DomainError, match=f"^chart {stray} not in 0..1$"):
        sph.check_domain(chart, 0.0, 0.0)


def test_sphere_switch_preserves_state():
    """switch_chart maps position and velocity without changing speed."""
    sph = RoundSphere()

    def speed2(chart, u, v, du, dv):
        rho = float(sph.conformal(chart, u, v)[0])
        return math.exp(2.0 * rho) * (du * du + dv * dv)

    for _ in range(10):
        u, v = RNG.uniform(1.5, 2.5, size=2)
        du, dv = RNG.normal(size=2)
        sp0 = speed2(0, u, v, du, dv)
        switched = sph.switch_chart(0, u, v, du, dv)
        assert switched[0] == 1
        assert abs(speed2(*switched) - sp0) < 1e-10 * sp0


def test_conformal_torus_interpolates_samples():
    n = 64
    x = np.arange(n) / n

    def rho_fn(u, v):
        return 0.05 * np.sin(2 * np.pi * u) * np.cos(2 * np.pi * v)

    grid = rho_fn(x[:, None], x[None, :])
    surf = ConformalTorus(grid)
    for _ in range(30):
        u, v = RNG.uniform(0, 1, size=2)
        rho, _, _ = surf.conformal(0, u, v)
        assert abs(rho - rho_fn(u, v)) < 1e-5


@given(nx=st.integers(8, 24), ny=st.integers(8, 24),
       lx=st.floats(0.3, 3.0), ly=st.floats(0.3, 3.0),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_periodic_spline_reproduces_samples(nx, ny, lx, ly, seed):
    grid = np.random.default_rng(seed).uniform(-1.0, 1.0, (nx, ny))
    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    spl = PeriodicBicubic(grid, lx, ly)
    assert np.abs(spl(ii * lx / nx, jj * ly / ny) - grid).max() < 1e-12


@given(lx=st.floats(0.3, 3.0), ly=st.floats(0.3, 3.0),
       seed=st.integers(0, 2 ** 32 - 1), a=st.floats(0.0, 1.0),
       b=st.floats(0.0, 1.0), m=st.integers(-5, 5), n=st.integers(-5, 5))
@settings(max_examples=60, deadline=None)
def test_conformal_torus_is_lattice_periodic(lx, ly, seed, a, b, m, n):
    """rho and its gradient are invariant under (x, y) -> (x + m lx,
    y + n ly), up to the rounding of the translated point."""
    rng = np.random.default_rng(seed)
    surf = ConformalTorus(0.1 * rng.standard_normal(rng.integers(8, 25, 2)),
                          lx=lx, ly=ly)
    x, y = a * lx, b * ly
    want = np.array(surf.conformal(0, x, y), float)
    got = np.array(surf.conformal(0, x + m * lx, y + n * ly), float)
    assert np.abs(got - want).max() < 1e-9


def _tensor_cubic_reference(grid, lx, ly, x, y, nu=(0, 0)):
    """The periodic bicubic spline by scipy's 1-d periodic CubicSpline:
    along y at every x node, then along x through those values; ``nu``
    orders of derivative in x and y."""
    from scipy.interpolate import CubicSpline

    nx, ny = grid.shape
    cols = CubicSpline(np.arange(ny + 1) * ly / ny, np.c_[grid, grid[:, 0]],
                       axis=1, bc_type="periodic")(y, nu[1])
    return np.array([
        CubicSpline(np.arange(nx + 1) * lx / nx, np.r_[col, col[0]],
                    bc_type="periodic")(xk, nu[0])
        for xk, col in zip(x, cols.T)])


def test_conformal_torus_matches_tensor_cubic_reference():
    rng = np.random.default_rng(3)
    grid = 0.1 * rng.standard_normal((12, 10))
    lx, ly = 1.3, 0.7
    x, y = rng.uniform(0.0, lx, 25), rng.uniform(0.0, ly, 25)
    surf = ConformalTorus(grid, lx=lx, ly=ly)
    got = surf.conformal(0, x, y)
    for val, nu in zip(got, ((0, 0), (1, 0), (0, 1))):
        want = _tensor_cubic_reference(grid, lx, ly, x, y, nu)
        assert np.abs(val - want).max() < 1e-12 * max(1.0, np.abs(want).max())
    lap = sum(_tensor_cubic_reference(grid, lx, ly, x, y, nu)
              for nu in ((2, 0), (0, 2)))
    assert np.abs(surf.laplacian_rho(0, x, y) - lap).max() \
        < 1e-11 * np.abs(lap).max()


def test_conformal_torus_is_continuous_across_the_seams():
    """rho, rho_u and rho_v agree 1e-13 to either side of each seam of
    the period cell and on it (the spline is periodic, not padded)."""
    surf = ConformalTorus(0.1 * np.random.default_rng(0).standard_normal(
        (32, 32)), lx=1.0, ly=0.5)
    t = np.linspace(0.0, 1.0, 41)
    at_x0 = np.array(surf.conformal(0, 0 * t, 0.5 * t))
    at_y0 = np.array(surf.conformal(0, t, 0 * t))
    for side in (-1e-13, 0.0, 1e-13):
        at_lx = np.array(surf.conformal(0, 1.0 + side + 0 * t, 0.5 * t))
        at_ly = np.array(surf.conformal(0, t, 0.5 + side + 0 * t))
        assert np.abs(at_lx - at_x0).max() < 1e-8
        assert np.abs(at_ly - at_y0).max() < 1e-8


def test_periodic_spline_grid_mean_is_sample_mean():
    """On a finer grid the periodic spline's mean is its sample mean: a
    zero-mean 16 x 16 sample of 2 pi cos 2 pi x + 4 pi sin 2 pi y has a
    64 x 64 grid mean of rounding size (the padded spline gave -6.3e-6)."""
    x = np.arange(16) / 16
    sample = 2 * np.pi * np.cos(2 * np.pi * x)[:, None] \
        + 4 * np.pi * np.sin(2 * np.pi * x)[None, :]
    xx, yy = np.meshgrid(np.arange(64) / 64, np.arange(64) / 64,
                         indexing="ij")
    assert abs(PeriodicBicubic(sample, 1.0, 1.0)(xx, yy).mean()) < 1e-12


def test_spline_cells_at_a_float_match_the_array_path():
    """At one float point ``cells`` reads the Python-float table ``rows``;
    its coefficients and offsets equal the array path's at a one-element
    array, in every period cell, at negative coordinates and on the nodes,
    so ``rows`` cannot drift from ``coef``."""
    rng = np.random.default_rng(5)
    lx, ly = 1.3, 0.7
    spl = PeriodicBicubic(rng.standard_normal((12, 10)), lx, ly)
    assert spl.rows == spl.coef.reshape(12, 10, 16).tolist()
    nodes = [(i * lx / 12, j * ly / 10) for i in range(-13, 26, 7)
             for j in range(-11, 22, 5)]
    pts = rng.uniform(-3.0, 3.0, (200, 2)) * (lx, ly)
    for x, y in nodes + [tuple(p) for p in pts.tolist()]:
        c, dx, dy = spl.cells(x, y)
        ca, dxa, dya = spl.cells(np.array([x]), np.array([y]))
        assert all(type(ci) is float for ci in c)
        assert c == ca[:, 0].tolist()
        assert (dx, dy) == (dxa[0], dya[0])


def _rho_grad_cases():
    grid = 0.08 * np.cos(2.0 * np.pi * np.arange(48)[:, None] / 48) \
        * np.sin(2.0 * np.pi * np.arange(48)[None, :] / 48)
    # torus coordinates range over several periods to cover the wrapping
    return [
        (FlatTorus(1.0, 2.0), 0, (-3.0, 3.0), (-3.0, 3.0)),
        (RoundSphere(), 0, (-2.5, 2.5), (-2.5, 2.5)),
        (RoundSphere(), 1, (-2.5, 2.5), (-2.5, 2.5)),
        (HyperbolicPlane(genus=2), 0, (-5.0, 5.0), (1e-6, 50.0)),
        (ConformalTorus(grid, lx=1.0, ly=0.5), 0, (-3.0, 3.0), (-3.0, 3.0)),
    ]


@pytest.mark.parametrize("surface,chart,urange,vrange", _rho_grad_cases(),
                         ids=["flat", "sphere0", "sphere1", "hyp", "grid"])
@given(a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_rho_grad_is_conformal_gradient(surface, chart, urange, vrange, a,
                                        b):
    """The surface's step_line, run alone at a point with its step_names,
    sets ru, rv to exactly conformal()[1:], as Python floats; a flat chart
    (step_line None) has a zero gradient."""
    u = urange[0] + a * (urange[1] - urange[0])
    v = vrange[0] + b * (vrange[1] - vrange[0])
    scope = {**surface.step_names, "chart": chart, "x": u, "y": v,
             "ru": 0.0, "rv": 0.0}
    exec(surface.step_line or "", scope)
    got = scope["ru"], scope["rv"]
    _, ru, rv = surface.conformal(chart, u, v)
    assert all(type(x) is float for x in got)
    assert got == (float(ru), float(rv))
