"""Surface models given by conformal charts.

Every supported surface carries a metric of the shape g = e^(2*rho) * (du^2 +
dv^2) in each chart, so all metric quantities reduce to the conformal factor
rho and its derivatives.  Charts are numbered; the sphere uses two
stereographic charts glued by the holomorphic map w = 1/z, the tori use
planar lifts, and the hyperbolic plane uses upper half-plane coordinates.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DegenerateInputError, DomainError, UnsupportedError

HYPERBOLIC_FLOOR = 1e-12
SPHERE_SWITCH_RADIUS = 2.0


class Surface:
    """Base class; subclasses provide the conformal factor per chart."""

    kind = "abstract"
    n_charts = 1
    lattice = None               # periods (lx, ly) of a torus lift
    constant_curvature = None    # K = 1, 0 or -1 on the homogeneous models
    floor = -math.inf            # lowest admissible v in the chart
    cell = math.inf              # cell width of spline data; smooth: inf
    # Each concrete surface sets step_line: conformal()[1:] as one line of
    # Python setting ru, rv (rv alone where ru = 0) at the float point x, y
    # of chart, written into the RK4 step's stages (None marks a flat
    # chart), and step_names, the values it reads; a chart_line, written
    # after the update to chart, x, y, p, q, may reassign them the same
    # state in another chart.  The integrator uses nothing else of it.
    step_names = {}
    chart_line = None

    # -- conformal data ----------------------------------------------------
    def conformal(self, chart, u, v):
        """Return (rho, d rho/du, d rho/dv); accepts scalars or arrays."""
        raise NotImplementedError

    def laplacian_rho(self, chart, u, v):
        """Flat Laplacian of rho, used for the Gauss curvature."""
        raise NotImplementedError

    def check_domain(self, chart, u, v):
        """Charts (one or an array) whole numbers in range and no point
        below the floor; the error names the least stray chart."""
        c = np.asarray(chart)
        bad = c[(c < 0) | (c >= self.n_charts) | (c % 1 != 0)]
        if bad.size:
            raise DomainError(f"chart {np.sort(bad)[0]} not in "
                              f"0..{self.n_charts - 1}")
        if np.any(np.asarray(v) < self.floor):
            raise DomainError(f"point below the chart floor v = {self.floor}")

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


class Torus(Surface):
    """Torus R^2 / (lx Z x ly Z) in one planar chart; subclasses give rho."""

    def __init__(self, lx=1.0, ly=1.0):
        if not (lx > 0 and ly > 0):
            raise DegenerateInputError("torus periods must be positive")
        self.lx = float(lx)
        self.ly = float(ly)
        self.lattice = (self.lx, self.ly)

    def euler_characteristic(self):
        return 0

    def quadrature_nodes(self, n):
        # cell centres, weighted e^(2 rho) * cell area
        xs = (np.arange(n) + 0.5) * self.lx / n
        ys = (np.arange(n) + 0.5) * self.ly / n
        uu, vv = np.meshgrid(xs, ys, indexing="ij")
        rho = self.conformal(0, uu.ravel(), vv.ravel())[0]
        w = np.exp(2.0 * rho) * (self.lx * self.ly / (n * n))
        return np.zeros(uu.size, dtype=int), uu.ravel(), vv.ravel(), w


class FlatTorus(Torus):
    """Flat torus R^2 / (lx Z x ly Z) with the Euclidean metric."""

    kind = "flat_torus"
    constant_curvature = 0
    step_line = None

    def conformal(self, chart, u, v):
        z = np.zeros_like(np.asarray(u, dtype=float))
        return z, z, z

    def laplacian_rho(self, chart, u, v):
        return np.zeros_like(np.asarray(u, dtype=float))

    def area(self):
        return self.lx * self.ly


@functools.lru_cache(maxsize=8)
def _leggauss(n):
    """leggauss(n), read-only: every caller with this n shares it."""
    t, wt = np.polynomial.legendre.leggauss(n)
    t.flags.writeable = wt.flags.writeable = False
    return t, wt


class RoundSphere(Surface):
    """Unit round sphere in two stereographic charts, glued by w = 1/z."""

    kind = "sphere"
    n_charts = 2
    constant_curvature = 1
    step_line = "d = 1.0 + x * x + y * y; ru, rv = -2.0 * x / d, -2.0 * y / d"
    chart_line = ("if x * x + y * y > r2: "
                  "chart, x, y, p, q = switch_chart(chart, x, y, p, q)")

    def conformal(self, chart, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        d = 1.0 + u * u + v * v
        return np.log(2.0 / d), -2.0 * u / d, -2.0 * v / d

    def laplacian_rho(self, chart, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        d = 1.0 + u * u + v * v
        return -4.0 / (d * d)

    @property
    def step_names(self):
        return {"r2": SPHERE_SWITCH_RADIUS ** 2,
                "switch_chart": self.switch_chart}

    def switch_chart(self, chart, u, v, du, dv):
        # w = 1/z is holomorphic, velocities transform by dw = -dz / z^2.
        z = complex(u, v)
        if z == 0:
            raise DomainError("chart transition undefined at the origin")
        w = 1.0 / z
        dw = -complex(du, dv) / (z * z)
        return 1 - chart, w.real, w.imag, dw.real, dw.imag

    def to_ambient(self, chart, u, v):
        """Embed chart points into the unit sphere in R^3: chart 1 is chart
        0 with y and z negated, exact in floating point, so chart may be an
        array."""
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        r2 = u * u + v * v
        d = 1.0 + r2
        sign = 1.0 - 2.0 * np.asarray(chart)
        return np.stack([2 * u / d, sign * (2 * v / d),
                         sign * ((r2 - 1.0) / d)], axis=-1)

    def area(self):
        return 4.0 * math.pi

    def euler_characteristic(self):
        return 2

    def quadrature_nodes(self, n):
        # Gauss-Legendre in the colatitude, midpoint in the longitude.
        t, wt = _leggauss(n)
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
    step_line = "rv = -1.0 / y"

    def __init__(self, genus=None):
        if genus is not None and genus < 2:
            raise DegenerateInputError("a hyperbolic quotient needs genus >= 2")
        self.genus = genus

    def conformal(self, chart, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return -np.log(v), np.zeros_like(u), -1.0 / v

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


class ConformalTorus(Torus):
    """Torus with metric e^(2 rho(x, y)) * (dx^2 + dy^2).

    The factor rho is sampled on a regular grid and interpolated by the
    exactly periodic bicubic spline through the samples, so metric data is
    C^2 everywhere on the torus, across the period seams too.
    """

    kind = "conformal_torus"
    # the float-point lookup of PeriodicBicubic.cells, then patch_grad; the
    # periods are px, py, apart from the lx, ly a torus field's line reads
    step_line = ("xm, ym = x % px, y % py; i, j = cell_of(xm / hx, ym / hy); "
                 "ru, rv = patch_grad(rows[i % nx][j % ny], xm - i * hx, "
                 "ym - j * hy)")

    def __init__(self, rho_grid, lx=1.0, ly=1.0):
        super().__init__(lx, ly)
        grid = np.asarray(rho_grid, dtype=float)
        if grid.ndim != 2 or min(grid.shape) < 8:
            raise DegenerateInputError("need a 2-d factor grid, >= 8 per axis")
        self.grid = grid
        self._spline = PeriodicBicubic(grid, self.lx, self.ly)
        self.cell = self._spline.cell

    def conformal(self, chart, u, v):
        c, dx, dy = self._spline.cells(u, v)
        return (PeriodicBicubic.patch_value(c, dx, dy),
                *PeriodicBicubic.patch_grad(c, dx, dy))

    @property
    def step_names(self):
        spl = self._spline
        return dict(cell_of=spl.cell_of, patch_grad=spl.patch_grad,
                    rows=spl.rows, nx=spl.nx, ny=spl.ny, hx=spl.hx,
                    hy=spl.hy, px=spl.lx, py=spl.ly)

    def laplacian_rho(self, chart, u, v):
        return PeriodicBicubic.patch_laplacian(*self._spline.cells(u, v))

    def area(self):
        charts, us, vs, w = self.quadrature_nodes(self.grid.shape[0])
        return float(np.sum(w))


def _periodic_cubic(y, h):
    """Power coefficients (4, ..., n) of the exactly periodic cubic spline
    through y[..., i] at i h, cell i being a + b t + c t^2 + d t^3 in
    t = x - i h.  The second derivatives M solve the circulant system
    M[i-1] + 4 M[i] + M[i+1] = 6 (y[i-1] - 2 y[i] + y[i+1]) / h^2, one FFT
    division (de Boor, A Practical Guide to Splines, ch. IV)."""
    n = y.shape[-1]
    lam = 2.0 * np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n)
    m = np.fft.irfft(np.fft.rfft(y) * (6.0 * (lam - 2.0)
                                        / (h * h * (4.0 + lam))), n)
    y1 = np.roll(y, -1, axis=-1)
    m1 = np.roll(m, -1, axis=-1)
    return np.stack([y, (y1 - y) / h - h * (2.0 * m + m1) / 6.0, 0.5 * m,
                     (m1 - m) / (6.0 * h)])


class PeriodicBicubic:
    """Exactly periodic bicubic spline through grid[i, j] at (i hx, j hy),
    hx = lx / nx and hy = ly / ny: the tensor product of periodic cubic
    splines, so C^2 on the whole torus.  ``coef[i, j, p, q]`` multiplies
    dx^p dy^q on cell (i, j), with (dx, dy) the offset from its lower-left
    node.  The patch functions take the 16 coefficients c[4 p + q] of a cell
    and evaluate by Horner in plain arithmetic, so they run alike on Python
    floats and on numpy arrays."""

    def __init__(self, grid, lx, ly):
        grid = np.asarray(grid, dtype=float)
        self.nx, self.ny = grid.shape
        self.lx, self.ly = float(lx), float(ly)
        self.hx, self.hy = self.lx / self.nx, self.ly / self.ny
        self.cell = min(self.hx, self.hy)
        # along x: [p, j, i]; then along y on the four planes: [q, p, i, j]
        cx = _periodic_cubic(grid.T, self.hx).transpose(0, 2, 1)
        self.coef = np.ascontiguousarray(
            _periodic_cubic(cx, self.hy).transpose(2, 3, 1, 0))
        self._planes = self.coef.reshape(self.nx, self.ny, 16).transpose(
            2, 0, 1)

    @functools.cached_property
    def rows(self):
        """rows[i][j]: the 16 coefficients of cell (i, j) as Python floats,
        for lookups at one float point, where numpy's per-operation
        overhead on 0-d arrays would otherwise dominate."""
        return self.coef.reshape(self.nx, self.ny, 16).tolist()

    def cells(self, x, y):
        """Coefficient planes (16, ...) of the cells holding (x, y), which
        may lie in any period cell, and the offsets (dx, dy) in them; at one
        float point the planes are a list of 16 floats from ``rows``."""
        if isinstance(x, float) and isinstance(y, float):
            x, y = x % self.lx, y % self.ly
            i, j = self.cell_of(x / self.hx, y / self.hy)
            return (self.rows[i % self.nx][j % self.ny],
                    x - i * self.hx, y - j * self.hy)
        x = np.asarray(x, float) % self.lx
        y = np.asarray(y, float) % self.ly
        # x, y >= 0 here, so truncation is the floor
        i, j = (x / self.hx).astype(int), (y / self.hy).astype(int)
        return (self._planes[:, i % self.nx, j % self.ny],
                x - i * self.hx, y - j * self.hy)

    def __call__(self, x, y):
        return self.patch_value(*self.cells(x, y))

    @staticmethod
    def cell_of(s, t):
        """Cell indices of a point s, t >= 0 spacings from the origin node
        (truncation is the floor there, as in ``cells``); a non-finite
        point, as from a blown-up integration, is a DomainError."""
        try:
            return int(s), int(t)
        except ValueError:
            raise DomainError("non-finite point on a periodic spline") \
                from None

    @staticmethod
    def patch_value(c, dx, dy):
        c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13, c14, \
            c15 = c
        r0 = c0 + dy * (c1 + dy * (c2 + dy * c3))
        r1 = c4 + dy * (c5 + dy * (c6 + dy * c7))
        r2 = c8 + dy * (c9 + dy * (c10 + dy * c11))
        r3 = c12 + dy * (c13 + dy * (c14 + dy * c15))
        return r0 + dx * (r1 + dx * (r2 + dx * r3))

    @staticmethod
    def patch_grad(c, dx, dy):
        """(d/dx, d/dy) of the patch; the conformal torus's step line runs
        this on Python floats, so it uses no numpy."""
        c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13, c14, \
            c15 = c
        r1 = c4 + dy * (c5 + dy * (c6 + dy * c7))
        r2 = c8 + dy * (c9 + dy * (c10 + dy * c11))
        r3 = c12 + dy * (c13 + dy * (c14 + dy * c15))
        s0 = c1 + dy * (2.0 * c2 + dy * 3.0 * c3)
        s1 = c5 + dy * (2.0 * c6 + dy * 3.0 * c7)
        s2 = c9 + dy * (2.0 * c10 + dy * 3.0 * c11)
        s3 = c13 + dy * (2.0 * c14 + dy * 3.0 * c15)
        return (r1 + dx * (2.0 * r2 + dx * 3.0 * r3),
                s0 + dx * (s1 + dx * (s2 + dx * s3)))

    @staticmethod
    def patch_laplacian(c, dx, dy):
        """d^2/dx^2 + d^2/dy^2 of the patch."""
        c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13, c14, \
            c15 = c
        xx = [2.0 * a + 6.0 * dx * b
              for a, b in ((c8, c12), (c9, c13), (c10, c14), (c11, c15))]
        yy = [2.0 * a + 6.0 * dy * b
              for a, b in ((c2, c3), (c6, c7), (c10, c11), (c14, c15))]
        return (xx[0] + dy * (xx[1] + dy * (xx[2] + dy * xx[3]))
                + yy[0] + dx * (yy[1] + dx * (yy[2] + dx * yy[3])))


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
