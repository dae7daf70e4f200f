"""Surface models given by conformal charts.

Every supported surface carries a metric of the shape g = e^(2*rho) * (du^2 +
dv^2) in each chart, so all metric quantities reduce to the conformal factor
rho and its derivatives.  Charts are numbered; the sphere uses two
stereographic charts glued by the holomorphic map w = 1/z, the tori use
planar lifts, and the hyperbolic plane uses upper half-plane coordinates.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DegenerateInputError, DomainError, UnsupportedError

HYPERBOLIC_FLOOR = 1e-12
SPHERE_SWITCH_RADIUS = 2.0


@dataclasses.dataclass(frozen=True)
class ChartPoint:
    chart: int
    u: float
    v: float


@dataclasses.dataclass(frozen=True)
class MetricData:
    """Metric tensor, Christoffel symbols, curvature and area density."""

    g: np.ndarray            # (2, 2)
    christoffel: np.ndarray  # (2, 2, 2), indexed [k, i, j] for Gamma^k_ij
    gauss_curvature: float
    mu_density: float        # density of the area form in chart coordinates


@dataclasses.dataclass(frozen=True)
class SurfaceInvariants:
    area: float
    euler_characteristic: int
    total_curvature: float


class Surface:
    """Base class; subclasses provide the conformal factor per chart."""

    kind = "abstract"
    n_charts = 1
    lattice = None               # periods (lx, ly) of a torus lift
    constant_curvature = None    # K = 1, 0 or -1 on the homogeneous models
    floor = -math.inf            # lowest admissible v in the chart

    # -- conformal data ----------------------------------------------------
    def conformal(self, chart, u, v):
        """Return (rho, d rho/du, d rho/dv); accepts scalars or arrays."""
        raise NotImplementedError

    def rho_grad(self, chart, u, v):
        """(d rho/du, d rho/dv) at a scalar point as Python floats; the
        integrator's right-hand side uses nothing else of the metric."""
        raise NotImplementedError

    def laplacian_rho(self, chart, u, v):
        """Flat Laplacian of rho, used for the Gauss curvature."""
        raise NotImplementedError

    def check_domain(self, chart, u, v):
        if not (0 <= chart < self.n_charts):
            raise DomainError(f"chart {chart} not in 0..{self.n_charts - 1}")
        if np.any(np.asarray(v) < self.floor):
            raise DomainError(f"point below the chart floor v = {self.floor}")

    # -- chart bookkeeping -------------------------------------------------
    def post_step(self, chart, u, v, du, dv):
        """Chart bookkeeping after an integration step; identity here."""
        return chart, u, v, du, dv

    # -- global data ---------------------------------------------------------
    def area(self):
        raise NotImplementedError

    def euler_characteristic(self):
        raise NotImplementedError

    def quadrature_nodes(self, n):
        """Nodes (charts, us, vs, weights) with weights including the area

        density, so that sum(F(nodes) * weights) approximates the integral of
        F against the area form over the whole surface.
        """
        raise NotImplementedError

    def gauss_curvature(self, chart, u, v):
        rho = self.conformal(chart, u, v)[0]
        return -np.exp(-2.0 * np.asarray(rho)) * self.laplacian_rho(chart, u, v)


class FlatTorus(Surface):
    """Flat torus R^2 / (lx Z x ly Z) with the Euclidean metric."""

    kind = "flat_torus"
    constant_curvature = 0

    def __init__(self, lx=1.0, ly=1.0):
        if lx <= 0 or ly <= 0:
            raise DegenerateInputError("torus periods must be positive")
        self.lx = float(lx)
        self.ly = float(ly)
        self.lattice = (self.lx, self.ly)

    def conformal(self, chart, u, v):
        z = np.zeros_like(np.asarray(u, dtype=float))
        return z, z, z

    def rho_grad(self, chart, u, v):
        return 0.0, 0.0

    def laplacian_rho(self, chart, u, v):
        return np.zeros_like(np.asarray(u, dtype=float))

    def area(self):
        return self.lx * self.ly

    def euler_characteristic(self):
        return 0

    def quadrature_nodes(self, n):
        xs = (np.arange(n) + 0.5) * self.lx / n
        ys = (np.arange(n) + 0.5) * self.ly / n
        uu, vv = np.meshgrid(xs, ys, indexing="ij")
        w = np.full(uu.size, self.lx * self.ly / (n * n))
        return np.zeros(uu.size, dtype=int), uu.ravel(), vv.ravel(), w


class RoundSphere(Surface):
    """Unit round sphere in two stereographic charts, glued by w = 1/z."""

    kind = "sphere"
    n_charts = 2
    constant_curvature = 1

    def conformal(self, chart, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        d = 1.0 + u * u + v * v
        return np.log(2.0 / d), -2.0 * u / d, -2.0 * v / d

    def rho_grad(self, chart, u, v):
        d = 1.0 + u * u + v * v
        return -2.0 * u / d, -2.0 * v / d

    def laplacian_rho(self, chart, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        d = 1.0 + u * u + v * v
        return -4.0 / (d * d)

    def post_step(self, chart, u, v, du, dv):
        """Move to the other chart once the state leaves the preferred disc."""
        if u * u + v * v > SPHERE_SWITCH_RADIUS ** 2:
            return self.switch_chart(chart, u, v, du, dv)
        return chart, u, v, du, dv

    def switch_chart(self, chart, u, v, du, dv):
        # w = 1/z is holomorphic, velocities transform by dw = -dz / z^2.
        z = complex(u, v)
        if z == 0:
            raise DomainError("chart transition undefined at the origin")
        w = 1.0 / z
        dw = -complex(du, dv) / (z * z)
        return 1 - chart, w.real, w.imag, dw.real, dw.imag

    def to_ambient(self, chart, u, v):
        """Embed a chart point into R^3 (unit sphere)."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        r2 = u * u + v * v
        d = 1.0 + r2
        if chart == 0:
            return np.stack([2 * u / d, 2 * v / d, (r2 - 1.0) / d], axis=-1)
        return np.stack([2 * u / d, -2 * v / d, (1.0 - r2) / d], axis=-1)

    def from_ambient(self, x, y, z):
        if z <= 0.0:
            return ChartPoint(0, x / (1.0 - z), y / (1.0 - z))
        return ChartPoint(1, x / (1.0 + z), -y / (1.0 + z))

    def area(self):
        return 4.0 * math.pi

    def euler_characteristic(self):
        return 2

    def quadrature_nodes(self, n):
        # Gauss-Legendre in the colatitude, midpoint in the longitude.
        t, wt = np.polynomial.legendre.leggauss(n)
        theta = 0.5 * math.pi * (t + 1.0)
        wtheta = 0.5 * math.pi * wt
        phi = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
        wphi = 2.0 * math.pi / n
        th, ph = np.meshgrid(theta, phi, indexing="ij")
        wgt = (np.sin(th) * wtheta[:, None] * wphi).ravel()
        x = np.sin(th) * np.cos(ph)
        y = np.sin(th) * np.sin(ph)
        zz = np.cos(th)
        charts = (zz > 0.0).astype(int).ravel()
        x, y, zz = x.ravel(), y.ravel(), zz.ravel()
        us = np.where(charts == 0, x / (1.0 - zz), x / (1.0 + zz))
        vs = np.where(charts == 0, y / (1.0 - zz), -y / (1.0 + zz))
        return charts, us, vs, wgt


class HyperbolicPlane(Surface):
    """Upper half-plane with the constant curvature -1 metric.

    Compact quotients are represented only through a declared genus, which
    fixes the area and Euler characteristic; no Fuchsian group data is kept.
    """

    kind = "hyperbolic"
    constant_curvature = -1
    floor = HYPERBOLIC_FLOOR

    def __init__(self, genus=None):
        if genus is not None and genus < 2:
            raise DegenerateInputError("a hyperbolic quotient needs genus >= 2")
        self.genus = genus

    def conformal(self, chart, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return -np.log(v), np.zeros_like(u), -1.0 / v

    def rho_grad(self, chart, u, v):
        return 0.0, -1.0 / v

    def laplacian_rho(self, chart, u, v):
        v = np.asarray(v, dtype=float)
        return 1.0 / (v * v)

    def _require_genus(self):
        if self.genus is None:
            raise UnsupportedError(
                "declare a quotient genus for global hyperbolic quantities")

    def area(self):
        self._require_genus()
        # Gauss-Bonnet with K = -1: area = -2 pi chi.
        return -2.0 * math.pi * self.euler_characteristic()

    def euler_characteristic(self):
        self._require_genus()
        return 2 - 2 * self.genus

    def quadrature_nodes(self, n):
        raise UnsupportedError(
            "no fundamental domain is modelled for hyperbolic quotients")


class ConformalTorus(Surface):
    """Torus with metric e^(2 rho(x, y)) * (dx^2 + dy^2).

    The factor rho is sampled on a regular grid and interpolated with a
    periodically padded bicubic spline, so metric data is C^2 inside every
    cell of the fundamental domain.
    """

    kind = "conformal_torus"

    def __init__(self, rho_grid, lx=1.0, ly=1.0):
        grid = np.asarray(rho_grid, dtype=float)
        if grid.ndim != 2 or min(grid.shape) < 8:
            raise DegenerateInputError("need a 2-d factor grid, >= 8 per axis")
        self.lx = float(lx)
        self.ly = float(ly)
        self.lattice = (self.lx, self.ly)
        self.grid = grid
        self._spline = periodic_spline(grid, self.lx, self.ly)
        # d rho/du and d rho/dv as splines of their own: cheaper to evaluate
        # than derivative calls on the rho spline, and the same numbers
        self._spline_u = self._spline.partial_derivative(1, 0)
        self._spline_v = self._spline.partial_derivative(0, 1)

    def _wrapped(self, u, v):
        return np.asarray(u, float) % self.lx, np.asarray(v, float) % self.ly

    def conformal(self, chart, u, v):
        x, y = self._wrapped(u, v)
        rho = self._spline(x, y, grid=False)
        ru = self._spline_u(x, y, grid=False)
        rv = self._spline_v(x, y, grid=False)
        return rho, ru, rv

    def rho_grad(self, chart, u, v):
        x, y = u % self.lx, v % self.ly
        return (float(self._spline_u(x, y, grid=False)),
                float(self._spline_v(x, y, grid=False)))

    def laplacian_rho(self, chart, u, v):
        x, y = self._wrapped(u, v)
        return (self._spline(x, y, dx=2, grid=False)
                + self._spline(x, y, dy=2, grid=False))

    def area(self):
        charts, us, vs, w = self.quadrature_nodes(self.grid.shape[0])
        return float(np.sum(w))

    def euler_characteristic(self):
        return 0

    def quadrature_nodes(self, n):
        xs = (np.arange(n) + 0.5) * self.lx / n
        ys = (np.arange(n) + 0.5) * self.ly / n
        uu, vv = np.meshgrid(xs, ys, indexing="ij")
        rho = self.conformal(0, uu.ravel(), vv.ravel())[0]
        w = np.exp(2.0 * rho) * (self.lx * self.ly / (n * n))
        return np.zeros(uu.size, dtype=int), uu.ravel(), vv.ravel(), w


def periodic_spline(grid, lx, ly):
    """Bicubic spline through grid[i, j] at (i lx / nx, j ly / ny), padded
    periodically so it is C^2 across the period cell; evaluate it at
    wrapped coordinates."""
    from scipy.interpolate import RectBivariateSpline

    pad = 4
    nx, ny = grid.shape
    padded = np.pad(grid, pad, mode="wrap")
    xs = np.arange(-pad, nx + pad) * lx / nx
    ys = np.arange(-pad, ny + pad) * ly / ny
    return RectBivariateSpline(xs, ys, padded, kx=3, ky=3)


def metric_at(surface, p):
    """Full metric data at a chart point."""
    surface.check_domain(p.chart, p.u, p.v)
    rho, ru, rv = surface.conformal(p.chart, p.u, p.v)
    rho, ru, rv = float(rho), float(ru), float(rv)
    lam2 = math.exp(2.0 * rho)
    g = np.array([[lam2, 0.0], [0.0, lam2]])
    gamma = np.array([
        [[ru, rv], [rv, -ru]],   # Gamma^u_ij
        [[-rv, ru], [ru, rv]],   # Gamma^v_ij
    ])
    k = float(surface.gauss_curvature(p.chart, p.u, p.v))
    return MetricData(g=g, christoffel=gamma, gauss_curvature=k,
                      mu_density=lam2)


def rotate90(surface, p, w):
    """Rotation by +90 degrees in the tangent plane (the complex structure).

    In a positively oriented conformal chart this is the Euclidean rotation
    of the component vector; it is an isometry and squares to -identity.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (2,):
        raise DegenerateInputError("tangent vector must have two components")
    surface.check_domain(p.chart, p.u, p.v)
    return np.array([-w[1], w[0]])


def geodesic_curvature_of(surface, p, qdot, qddot):
    """Signed geodesic curvature from first and second chart derivatives."""
    qdot = np.asarray(qdot, dtype=float)
    qddot = np.asarray(qddot, dtype=float)
    md = metric_at(surface, p)
    speed2 = md.g[0, 0] * float(qdot @ qdot)
    if speed2 <= 0.0:
        raise DegenerateInputError("geodesic curvature needs nonzero velocity")
    acc = qddot + np.einsum("kij,i,j->k", md.christoffel, qdot, qdot)
    iq = rotate90(surface, p, qdot)
    return float(md.g[0, 0] * acc @ iq) / speed2 ** 1.5


def surface_invariants(surface):
    """Area, Euler characteristic and the total-curvature quadrature."""
    chi = surface.euler_characteristic()
    area = surface.area()
    if surface.constant_curvature == -1:
        # no fundamental domain to integrate over; K = -1 throughout
        total = -area
    else:
        charts, us, vs, w = surface.quadrature_nodes(256)
        kvals = surface.gauss_curvature(charts, us, vs)
        total = float(np.sum(np.asarray(kvals) * w))
    return SurfaceInvariants(area=float(area), euler_characteristic=int(chi),
                             total_curvature=total)


def close_padded(buf, shift):
    """Fill the end columns of a padded (2, N + 2) coordinate buffer whose
    middle columns hold a closed polygon: the first column is the last
    vertex moved back by the closure shift, the last column the first
    vertex moved forward by it.  Returns ``buf``."""
    buf[:, 0] = buf[:, -2] - shift
    buf[:, -1] = buf[:, 1] + shift
    return buf


class ClosedPolyline:
    """Closed polygon in one chart lift: subclasses are dataclasses with
    fields ``vertices`` (N, 2), ``chart`` and ``winding``, and a nonzero
    winding closes the last edge up to that lattice translation."""

    min_vertices = 3

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        if self.vertices.ndim != 2 or len(self.vertices) < self.min_vertices:
            raise DegenerateInputError(
                f"a closed polyline needs at least {self.min_vertices} "
                "vertices")

    @property
    def n(self):
        return len(self.vertices)

    def closure_shift(self, surface):
        """Lattice translation closing the last edge."""
        if self.winding == (0, 0):
            return np.zeros(2)
        if surface.lattice is None:
            raise DegenerateInputError("a winding polyline needs a lattice")
        return np.multiply(self.winding, surface.lattice)

    def padded(self, surface):
        """Coordinate rows (2, N + 2): previous vertex | vertices | next
        vertex, closed up by ``close_padded``."""
        buf = np.empty((2, self.n + 2))
        buf[:, 1:-1] = self.vertices.T
        return close_padded(buf, self.closure_shift(surface))

    def edges(self, surface):
        """Start and end points (N, 2) of the N edges; the last edge ends on
        the lifted first vertex."""
        return self.vertices, self.padded(surface)[:, 2:].T.copy()
