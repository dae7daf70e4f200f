"""Magnetic 2-forms sigma = f * mu, fluxes, speed/energy dictionary and
chart-local primitives.  A field is described by its density f relative to
the area form; in chart coordinates sigma = f * e^(2 rho) du ^ dv.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import (DegenerateInputError, NoGlobalPrimitiveError,
                     UnsupportedError)


class MagneticField:
    """Scalar density f of the magnetic form against the area form.

    Each concrete field sets step_line, its one scalar copy of eval: a
    line of Python setting f at the float point x, y of chart for the RK4
    step's stages, with step_names, the values it reads.  lattice is the
    periods (lx, ly) a lattice-periodic field repeats with, else None;
    scale, the length over which its data change, is a spline's cell
    (smooth: inf) and bounds a return's step (flow.CELL_STEP)."""

    lattice = None
    scale = math.inf

    def eval(self, chart, u, v):
        raise NotImplementedError


class ConstantField(MagneticField):
    step_line = "f = fval"

    def __init__(self, value):
        self.value = float(value)
        self.step_names = {"fval": self.value}

    def eval(self, chart, u, v):
        return np.full(np.shape(u), self.value)


class CallableField(MagneticField):
    """Field given by a chart-aware callable f(chart, u, v) (vectorized)."""

    step_line = "f = float(fn(chart, x, y))"

    def __init__(self, fn):
        self.fn = fn
        self.step_names = {"fn": fn}

    def eval(self, chart, u, v):
        return self.fn(chart, u, v)


class TorusField(MagneticField):
    """Doubly periodic field on a torus given by a plain callable f(x, y)."""

    step_line = "f = float(fn(x % lx, y % ly))"

    def __init__(self, fn, lx=1.0, ly=1.0):
        self.fn = fn
        self.lx = float(lx)
        self.ly = float(ly)
        self.lattice = (self.lx, self.ly)
        self.scale = getattr(fn, "cell", math.inf)
        self.step_names = {"fn": fn, "lx": self.lx, "ly": self.ly}

    def eval(self, chart, u, v):
        return self.fn(np.asarray(u, float) % self.lx,
                       np.asarray(v, float) % self.ly)


class CosineField(TorusField):
    """f = amp cos(2 pi x / lx); the step line is eval's formula on
    math.cos, and no callable f(x, y) is kept."""

    step_line = "f = amp * cos(2.0 * pi * (x % lx) / lx)"

    def __init__(self, amp, lx=1.0, ly=1.0):
        super().__init__(None, lx=lx, ly=ly)
        self.amp = float(amp)
        self.step_names = dict(amp=self.amp, lx=self.lx, cos=math.cos,
                               pi=math.pi)

    def eval(self, chart, u, v):
        return self.amp * np.cos(
            2.0 * np.pi * (np.asarray(u, float) % self.lx) / self.lx)


@dataclasses.dataclass(frozen=True)
class MagneticSystem:
    """A surface and a field density, frozen: its primitive is built once.
    A lattice-periodic field needs a surface with a lattice: on any other
    it is no function on the surface, and the pair is UnsupportedError."""

    surface: object
    field: MagneticField

    def __post_init__(self):
        if self.field.lattice is not None and self.surface.lattice is None:
            raise UnsupportedError(
                "a lattice-periodic field needs a surface with a lattice, "
                f"not the {self.surface.kind} surface")

    @functools.cached_property
    def primitive(self):        # local_primitive hands it out
        return _build_primitive(self)

    def form_density(self, chart, u, v):
        """Chart density of sigma, i.e. f * e^(2 rho)."""
        rho = self.surface.conformal(chart, u, v)[0]
        return self.field.eval(chart, u, v) * np.exp(2.0 * np.asarray(rho))


def energy_of_s(s):
    if s <= 0:
        raise DegenerateInputError("the speed parameter must be positive")
    return 0.5 / (s * s)


def s_of_energy(k):
    if k <= 0:
        raise DegenerateInputError("the energy level must be positive")
    return 1.0 / math.sqrt(2.0 * k)


def flux_total(system):
    """Total flux of sigma over the surface by 512 x 512 quadrature.

    Hyperbolic quotients carry no fundamental-domain geometry, so only
    constant fields are integrable there (flux = value * area).
    """
    surf = system.surface
    if surf.constant_curvature == -1:
        if isinstance(system.field, ConstantField):
            return system.field.value * surf.area()
        raise UnsupportedError(
            "hyperbolic quotient flux is available for constant fields only")
    charts, us, vs, w = surf.quadrature_nodes(512)
    fvals = np.asarray(system.field.eval(charts, us, vs), dtype=float)
    total = float(np.sum(fvals * w))
    if not math.isfinite(total):
        raise DegenerateInputError("the field's flux is not finite")
    return total


# ---------------------------------------------------------------------------
# chart-local and global primitives
# ---------------------------------------------------------------------------

def _density_grid(system, n):
    """Chart density of sigma at the n x n nodes (i lx / n, j ly / n)."""
    if system.surface.lattice is None:
        raise UnsupportedError("periodic Poisson solves require a torus")
    lx, ly = system.surface.lattice
    xx, yy = np.meshgrid(np.arange(n) * lx / n, np.arange(n) * ly / n,
                         indexing="ij")
    dens = np.asarray(system.form_density(0, xx, yy), dtype=float)
    if not np.isfinite(dens).all():
        raise DegenerateInputError("the field is not finite on the torus")
    return dens


def periodic_poisson(system, n):
    """Solve Laplace G = chart density of sigma on the torus lift from an
    n x n sample grid; returns (kx, ky, ghat) in np.fft.fft2 layout.

    Raises NoGlobalPrimitiveError for a density of nonzero mean.
    """
    dens = _density_grid(system, n)
    lx, ly = system.surface.lattice
    fhat = np.fft.fft2(dens) / (n * n)
    if abs(fhat[0, 0]) > 1e-9 * max(1.0, float(np.abs(dens).max())):
        raise NoGlobalPrimitiveError(
            "nonzero total flux: no global primitive on the torus")
    kx = 2.0 * math.pi * np.fft.fftfreq(n, d=lx / n)
    ky = 2.0 * math.pi * np.fft.fftfreq(n, d=ly / n)
    kxx, kyy = np.meshgrid(kx, ky, indexing="ij")
    k2 = kxx ** 2 + kyy ** 2
    k2[0, 0] = 1.0
    ghat = -fhat / k2
    ghat[0, 0] = 0.0
    return kxx, kyy, ghat


GAUSS_C = 0.5 / math.sqrt(3.0)


class LocalPrimitive:
    """A 1-form theta with d theta = sigma on its region of validity, and
    its Gauss line integral; ``periodic`` if theta is lattice-periodic, so
    that it integrates along a curve winding around the torus."""

    periodic = False

    def theta(self, chart, u, v):
        """Components (theta_u, theta_v) at a chart point (vectorized)."""
        raise NotImplementedError

    def line_integral(self, chart, pts):
        """Integral of theta along a polyline: two-point Gauss-Legendre per
        segment, at the parameters 1/2 -+ GAUSS_C of each, exact where
        theta is cubic along the segment."""
        pts = np.asarray(pts, dtype=float)
        dx = np.diff(pts, axis=0)
        mids, off = 0.5 * (pts[:-1] + pts[1:]), dx / (2.0 * math.sqrt(3.0))
        t1, t2 = self.theta(chart, *np.concatenate([mids - off,
                                                    mids + off]).T)
        m = len(dx)
        t1 = 0.5 * (t1[:m] + t1[m:])
        t2 = 0.5 * (t2[:m] + t2[m:])
        return float(np.sum(t1 * dx[:, 0] + t2 * dx[:, 1]))


def stokes_residual(form, dform, z0, e1, e2, h):
    """|circulation of a 1-form - flux of its claimed derivative| / area on
    the parallelogram with corners z0, z0 + h e1, z0 + h (e1 + e2), z0 + h e2
    in any dimension; its edges and their midpoints are tables of the sides.

    form maps points (m, d) to components (m, d); dform maps one point to
    the matrix A with d form (W1, W2) = W1 . A W2.  Midpoint rules are used
    on both sides, one node per edge and one at the center, so the residual
    scales like h^2 when dform is d form.
    """
    z0, sides = np.asarray(z0, float), h * np.array([e1, e2], float)
    edges = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]]) @ sides
    mids = z0 + np.array([[0.5, 0], [1, 0.5], [0.5, 1], [0, 0.5]]) @ sides
    circ = float(np.sum(form(mids) * edges))
    flux = float(sides[0] @ dform(z0 + 0.5 * sides.sum(0)) @ sides[1])
    return abs(circ - flux) / (h * h)


class ClosedFormPrimitive(LocalPrimitive):
    """theta = a(v) du, or theta = a(q) (u dv - v du) with q = u^2 + v^2
    when radial, for a closed-form a; like every primitive it is theta and
    its Gauss line integral, and no caller needs its derivative."""

    def __init__(self, a, radial=False):
        self._a = a
        self.radial = radial

    def theta(self, chart, u, v):
        u, v = np.asarray(u, float), np.asarray(v, float)
        if self.radial:
            a = self._a(u * u + v * v)
            return -v * a, u * a
        return self._a(v), np.zeros_like(u)


class LineIntegralPrimitive(LocalPrimitive):
    """theta = -F(x, y) dx with F(x, y) the fiberwise integral of the
    density of sigma in the chart theta is asked for, from the height v0
    (0, or 1 above a chart floor); valid on any chart rectangle that the
    vertical segments stay inside.
    """

    # 48-point Gauss-Legendre nodes and weights on [0, 1]
    _T, _W = np.polynomial.legendre.leggauss(48)
    _T, _W = 0.5 * (_T + 1.0), 0.5 * _W

    def __init__(self, system):
        self.system = system
        self.v0 = 0.0 if system.surface.floor == -math.inf else 1.0

    def theta(self, chart, u, v):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        v = np.atleast_1d(np.asarray(v, dtype=float))
        span = v - self.v0
        ys = self.v0 + span[:, None] * self._T[None, :]
        xs = np.broadcast_to(u[:, None], ys.shape)
        vals = np.asarray(self.system.form_density(
            chart, xs.ravel(), ys.ravel()), float).reshape(ys.shape)
        res = span * (vals @ self._W)
        return -res, np.zeros_like(res)


class FourierOneForm(LocalPrimitive):
    """1-form c1 du + c2 dv + d phi + *dG on a torus lift, i.e.

        theta = (c1 + phi_u - G_v, c2 + phi_v + G_u),

    with the potentials G and phi stored as Fourier mode tables over the
    wavenumbers (kx, ky).  Its exterior derivative is Laplace G du ^ dv.
    """

    PHASE_BLOCK = 1 << 20   # complex entries of one points x modes block
    periodic = True

    def __init__(self, kx, ky, ghat, phihat, c1=0.0, c2=0.0):
        self._kx, self._ky = kx, ky
        self._theta_modes = np.stack([-1j * ky * ghat + 1j * kx * phihat,
                                      1j * kx * ghat + 1j * ky * phihat], 1)
        self.c1 = float(c1)
        self.c2 = float(c2)

    def theta(self, chart, u, v):
        """(c1, c2) + Re sum_k theta_modes[k] exp(i k.x) at each point, over
        blocks of points whose phase matrix holds at most PHASE_BLOCK
        entries."""
        u, v = np.asarray(u, float).ravel(), np.asarray(v, float).ravel()
        out = np.empty((u.size, 2))
        step = max(1, self.PHASE_BLOCK // max(1, self._kx.size))
        for i in range(0, u.size, step):
            phase = np.exp(1j * (np.outer(u[i:i + step], self._kx)
                                 + np.outer(v[i:i + step], self._ky)))
            out[i:i + step] = np.real(phase @ self._theta_modes)
        p, q = (out + (self.c1, self.c2)).T
        return p, q

    def sup_norm(self, n=256, lx=1.0, ly=1.0):
        """Maximum of |theta| over an n x n grid of the period cell."""
        xx, yy = np.meshgrid(np.arange(n) * lx / n, np.arange(n) * ly / n,
                             indexing="ij")
        return float(np.max(np.hypot(*self.theta(0, xx, yy))))


class TorusSpectralPrimitive(FourierOneForm):
    """Global primitive *dG of an exact form on a torus, G the periodic
    Poisson solution; modes below 1e-13 of the largest are dropped."""

    def __init__(self, system, n=256):
        kxx, kyy, ghat = periodic_poisson(system, n)
        keep = np.abs(ghat) > 1e-13 * max(1.0, np.abs(ghat).max())
        super().__init__(kxx[keep], kyy[keep], ghat[keep],
                         np.zeros(np.count_nonzero(keep), complex))


def local_primitive(system, winds=False):
    """A primitive of sigma in every chart, built once per system.

    Constant fields on the homogeneous surfaces get closed forms: -c v du
    on the flat torus, c du / v on the half-plane and the rotation-symmetric
    2c (u dv - v du) / (1 + u^2 + v^2) in either sphere chart.  On a torus
    with (numerically) zero total flux a global spectral primitive is
    returned, otherwise the fiber-integral primitive.  A torus density whose
    mean on a 32 x 32 grid is at least a tenth of its largest sample skips
    the 256 x 256 spectral attempt: the two grid means differ only by the
    modes at multiples of 32, which would have to carry that tenth for the
    fine mean to pass the spectral primitive's 1e-9 test.

    A winding curve or a global contact form (winds) needs a lattice-periodic
    primitive; when the field has none, NoGlobalPrimitiveError is raised.
    """
    prim = system.primitive
    if winds and not prim.periodic:
        raise NoGlobalPrimitiveError(
            "this field has no lattice-periodic primitive")
    return prim


def _build_primitive(system):
    surf = system.surface
    fld = system.field
    prim = None
    if isinstance(fld, ConstantField):
        c = fld.value
        if c == 0.0:       # the zero form, periodic on any lattice
            return FourierOneForm(*np.zeros((4, 0)))
        if surf.constant_curvature == -1:
            prim = ClosedFormPrimitive(lambda v: c / v)
        elif surf.constant_curvature == 0:
            prim = ClosedFormPrimitive(lambda v: -c * v)
        elif surf.constant_curvature == 1:
            prim = ClosedFormPrimitive(lambda q: 2.0 * c / (1.0 + q),
                                       radial=True)
    elif surf.lattice is not None:
        dens = _density_grid(system, 32)
        if abs(dens.mean()) < 0.1 * np.abs(dens).max():
            try:
                prim = TorusSpectralPrimitive(system)
            except NoGlobalPrimitiveError:
                pass
    return prim or LineIntegralPrimitive(system)
