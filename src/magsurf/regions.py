"""Regions with boundary curves, the length-minus-flux functional and its

curve-evolution minimization, plus the threshold-energy estimator.

A region is described by boundary curves stored with the region on their
left, together with an orientation sign: +1 if the region carries the
surface orientation and -1 for the reversed orientation.  The functional

    value = sqrt(2 k) * length(boundary) - orient * flux(region set)

is minimized by moving vertices along their normals at a rate set by the
stationarity defect sqrt(2 k) * kappa - orient * f; stationary boundaries
have geodesic curvature orient * s * f, i.e. they are (possibly reversed)
periodic orbits of the flow at energy k.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import (DegenerateInputError, InvalidRegionError, NoBracketError)
from .fields import local_primitive, s_of_energy
from .surfaces import ClosedPolyline


@dataclasses.dataclass
class RegionCurve(ClosedPolyline):
    """Closed polyline in a chart lift, region on the left.

    A nonzero winding means the curve closes only up to a lattice
    translation of the torus.
    """

    vertices: np.ndarray
    chart: int = 0
    winding: tuple = (0, 0)

    min_vertices = 4


@dataclasses.dataclass
class Region:
    """Union of chart discs / annular strips bounded by the given curves."""

    curves: list
    orientation: int = 1           # +1 with the surface, -1 reversed
    whole_surface: bool = False

    @classmethod
    def empty(cls):
        return cls(curves=[], orientation=1)

    @classmethod
    def full(cls, orientation=1):
        return cls(curves=[], orientation=orientation, whole_surface=True)


def curve_length(system, curve):
    x, nxt = curve.edges(system.surface)
    mids = 0.5 * (x + nxt)
    rho = np.asarray(system.surface.conformal(curve.chart, mids[:, 0],
                                              mids[:, 1])[0], float)
    return float(np.sum(np.exp(rho) * np.linalg.norm(nxt - x, axis=1)))


def curve_enclosed_flux(system, curve, subdivide=8):
    """Flux of sigma through the disc bounded by a contractible curve.

    Uses a triangle fan from the barycenter; each fan triangle is split
    barycentrically into subdivide^2 similar triangles carrying a degree-2
    edge-midpoint rule.  The fan triangles are long slivers, so without
    the subdivision the rule error does not vanish under edge refinement.
    """
    if curve.winding != (0, 0):
        raise InvalidRegionError("curve is not contractible")
    x, nxt = curve.edges(system.surface)
    b = x.mean(axis=0)
    a1 = x - b
    a2 = nxt - b
    areas = 0.5 * (a1[:, 0] * a2[:, 1] - a1[:, 1] * a2[:, 0])
    m = max(int(subdivide), 1)
    sub_area = areas / (m * m)
    tris = []
    for i in range(m):
        for j in range(m - i):
            tris.append(((i, j), (i + 1, j), (i, j + 1)))
            if j < m - i - 1:
                tris.append(((i + 1, j), (i + 1, j + 1), (i, j + 1)))
    total = 0.0
    for tri in tris:
        mids = []
        for (ia, ja), (ib, jb) in ((tri[0], tri[1]), (tri[1], tri[2]),
                                   (tri[2], tri[0])):
            aa = 0.5 * (ia + ib) / m
            bb = 0.5 * (ja + jb) / m
            mids.append(b + aa * a1 + bb * a2)
        pts = np.concatenate(mids)
        dens = np.asarray(system.form_density(curve.chart, pts[:, 0],
                                              pts[:, 1]),
                          dtype=float).reshape(3, -1)
        total += float(np.sum(sub_area * dens.mean(axis=0)))
    return total


def region_flux(system, region, primitive=None):
    """Flux of sigma through the region's underlying set."""
    from .fields import flux_total

    if region.whole_surface:
        return flux_total(system)
    if len(region.curves) == 1 and region.curves[0].winding == (0, 0):
        c = region.curves[0]
        fan = curve_enclosed_flux(system, c)
        x, nxt = c.edges(system.surface)
        signed_area = 0.5 * float(np.sum(x[:, 0] * nxt[:, 1]
                                         - x[:, 1] * nxt[:, 0]))
        if signed_area >= 0.0:      # counterclockwise: region is the disc
            return fan
        # clockwise: the region-on-the-left is the complement of the disc
        return flux_total(system) + fan
    if primitive is None:
        primitive = local_primitive(system)
    total = 0.0
    for c in region.curves:
        x, nxt = c.edges(system.surface)
        total += primitive.line_integral(c.chart, np.vstack([x, nxt[-1]]))
    return total


def taimanov_value(system, k, region, primitive=None):
    """Length-minus-flux functional of the region at energy k."""
    if k <= 0:
        raise DegenerateInputError("energy must be positive")
    length = sum(curve_length(system, c) for c in region.curves)
    flux = region_flux(system, region, primitive)
    return math.sqrt(2.0 * k) * length - region.orientation * flux


def region_complement(region):
    """Same boundary set, complementary region with reversed orientation."""
    if region.whole_surface or not region.curves:
        return Region(curves=list(region.curves),
                      orientation=-region.orientation,
                      whole_surface=not region.whole_surface)
    flipped = [RegionCurve(vertices=c.vertices[::-1].copy(), chart=c.chart,
                           winding=(-c.winding[0], -c.winding[1]))
               for c in region.curves]
    return Region(curves=flipped, orientation=-region.orientation)


# ---------------------------------------------------------------------------
# discrete curvature and the evolution
# ---------------------------------------------------------------------------

def curve_geometry(system, curve):
    """Per-vertex geodesic curvature and Euclidean outward unit normal."""
    surf = system.surface
    x, nxt = curve.edges(surf)
    prv = np.roll(x, 1, axis=0)
    prv[0] -= curve.closure_shift(surf)
    e1 = x - prv
    e2 = nxt - x
    l1 = np.linalg.norm(e1, axis=1)
    l2 = np.linalg.norm(e2, axis=1)
    chord = np.linalg.norm(nxt - prv, axis=1)
    cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    denom = l1 * l2 * chord
    if np.any(denom <= 0):
        raise DegenerateInputError("degenerate polygon edge")
    kappa_e = 2.0 * cross / denom
    tang = nxt - prv
    tang /= chord[:, None]
    normal = np.column_stack([tang[:, 1], -tang[:, 0]])  # right of travel
    rho, ru, rv = surf.conformal(curve.chart, x[:, 0], x[:, 1])
    rho = np.asarray(rho, float)
    grad = np.column_stack([np.asarray(ru, float), np.asarray(rv, float)])
    kappa = np.exp(-rho) * (kappa_e + np.sum(grad * normal, axis=1))
    return kappa, normal


def resample_curve(curve, spacing, surface):
    """Redistribute vertices uniformly in chart arclength."""
    x, nxt = curve.edges(surface)
    seg = np.linalg.norm(nxt - x, axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    n = max(int(round(total / spacing)), 8)
    targets = np.arange(n) * total / n
    pts_ext = np.vstack([x, nxt[-1]])
    us = np.interp(targets, cum, pts_ext[:, 0])
    vs = np.interp(targets, cum, pts_ext[:, 1])
    return RegionCurve(vertices=np.column_stack([us, vs]), chart=curve.chart,
                       winding=curve.winding)


def _segments_intersect(p, q):
    """Vectorized proper-intersection test between two sets of segments."""
    p0, p1 = p
    q0, q1 = q
    d1 = p1 - p0
    d2 = q1 - q0
    den = d1[:, None, 0] * d2[None, :, 1] - d1[:, None, 1] * d2[None, :, 0]
    diff = q0[None, :, :] - p0[:, None, :]
    tn = diff[:, :, 0] * d2[None, :, 1] - diff[:, :, 1] * d2[None, :, 0]
    sn = diff[:, :, 0] * d1[:, None, 1] - diff[:, :, 1] * d1[:, None, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = tn / den
        s = sn / den
    eps = 1e-12
    return (np.abs(den) > eps) & (t > eps) & (t < 1 - eps) \
        & (s > eps) & (s < 1 - eps)


def curve_is_simple(curve, surface):
    x, nxt = curve.edges(surface)
    hit = _segments_intersect((x, nxt), (x, nxt))
    np.fill_diagonal(hit, False)
    n = len(x)
    idx = np.arange(n)
    hit[idx, (idx + 1) % n] = False
    hit[(idx + 1) % n, idx] = False
    return not bool(hit.any())


@dataclasses.dataclass
class EvolveParams:
    tol: float = 1e-3
    max_iter: int = 20000
    spacing: float = 0.02
    step_factor: float = 0.25
    min_length: float = 0.05
    check_every: int = 25


@dataclasses.dataclass
class EvolveResult:
    region: Region
    value: float
    residual: float
    outcome: str          # stationary | vanished | halted | max_iter
    iterations: int


def evolve_minimize(system, k, region, params=None):
    """Normal-velocity evolution toward a stationary boundary.

    Each vertex moves by -(sqrt(2k) kappa - orient * f) along the outward
    normal, scaled by a parabolic stability step 0.25 h^2 / sqrt(2k);
    curves are rearclengthed every iteration.  There is no surgery: curves
    that self-intersect halt the run, curves shorter than min_length count
    as vanished (the empty region, value zero).
    """
    if params is None:
        params = EvolveParams()
    surf = system.surface
    o = region.orientation
    sqrt2k = math.sqrt(2.0 * k)
    s = s_of_energy(k)
    curves = [resample_curve(c, params.spacing, surf) for c in region.curves]
    if not curves:
        return EvolveResult(region=Region.empty(), value=0.0, residual=0.0,
                            outcome="vanished", iterations=0)
    step = params.step_factor * params.spacing ** 2 / sqrt2k
    outcome = "max_iter"
    it = 0
    for it in range(1, params.max_iter + 1):
        residual = 0.0
        new_curves = []
        vanished = []
        for c in curves:
            kappa, normal = curve_geometry(system, c)
            f = np.asarray(system.field.eval(c.chart, c.vertices[:, 0],
                                             c.vertices[:, 1]), float)
            defect = sqrt2k * kappa - o * f
            residual = max(residual, float(np.max(np.abs(kappa - o * s * f))))
            verts = c.vertices - step * defect[:, None] * normal
            nc = RegionCurve(vertices=verts, chart=c.chart, winding=c.winding)
            nc = resample_curve(nc, params.spacing, surf)
            if c.winding == (0, 0) and \
                    curve_length(system, nc) < params.min_length:
                vanished.append(nc)
            else:
                new_curves.append(nc)
        if vanished and not new_curves:
            outcome = "vanished"
            curves = []
            break
        curves = new_curves
        if residual < params.tol:
            outcome = "stationary"
            break
        if it % params.check_every == 0:
            if not all(curve_is_simple(c, surf) for c in curves):
                outcome = "halted"
                break
    final = Region(curves=curves, orientation=o)
    value = 0.0 if not curves else taimanov_value(system, k, final)
    res = 0.0
    for c in curves:
        kappa, _ = curve_geometry(system, c)
        f = np.asarray(system.field.eval(c.chart, c.vertices[:, 0],
                                         c.vertices[:, 1]), float)
        res = max(res, float(np.max(np.abs(kappa - o * s * f))))
    return EvolveResult(region=final, value=value, residual=res,
                        outcome=outcome, iterations=it)


def tau_estimate(system, seed_regions, k_lo, k_hi, bisect_iters=20,
                 params=None):
    """Threshold energy below which the minimized functional goes negative.

    Bisects on k using the evolved minimum over the seed regions (the empty
    region, value zero, is always admissible).  Returns 0.0 when even k_lo
    admits no negative value; raises NoBracketError if k_hi still does.
    """
    if k_lo <= 0 or k_hi <= k_lo:
        raise DegenerateInputError("need 0 < k_lo < k_hi")

    def min_value(k):
        best = 0.0
        for region in seed_regions:
            r = evolve_minimize(system, k, region, params)
            if r.outcome in ("stationary", "vanished", "max_iter"):
                best = min(best, r.value)
        return best

    if min_value(k_lo) >= 0.0:
        return 0.0
    if min_value(k_hi) < 0.0:
        raise NoBracketError("functional still negative at k_hi")
    lo, hi = k_lo, k_hi
    for _ in range(bisect_iters):
        mid = 0.5 * (lo + hi)
        if min_value(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def state_from_curve(system, k, curve, orientation=1):
    """Tangent seed of the periodic orbit carried by a stationary curve.

    Stationary boundaries of reversed-orientation regions are traversed
    backwards by the flow, so the tangent is flipped for orientation -1.
    """
    from .flow import TangentState, state_at_energy

    x, nxt = curve.edges(system.surface)
    tang = nxt[0] - x[0]
    if orientation < 0:
        tang = x[0] - nxt[0]
    st = TangentState(curve.chart, x[0, 0], x[0, 1], tang[0], tang[1])
    return state_at_energy(system, st, k)
