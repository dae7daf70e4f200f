"""Regions with boundary curves, the length-minus-flux functional and its
curve-evolution minimization, plus the threshold-energy estimator.

A region is described by boundary curves stored with the region on their
left, together with an orientation sign: +1 if the region carries the
surface orientation and -1 for the reversed orientation.  The functional

    value = sqrt(2 k) * length(boundary) - orient * flux(region set)

is minimized by moving vertices along their normals at a rate set by the
stationarity defect sqrt(2 k) * kappa - orient * f; stationary boundaries
have geodesic curvature orient * s * f, i.e. they are (possibly reversed)
periodic orbits of the flow at energy k.  Each move is smoothed by
(I - beta D2)^-1, D2 the periodic second difference along the curve, which
treats the stiff curvature term linearly implicitly (Dziuk, Math. Models
Methods Appl. Sci. 4 (1994) 589-606) with a constant coefficient solved by
FFT (Zhu, Chen, Shen and Tikare, Phys. Rev. E 60 (1999) 3564), so the step
is not capped by the polygon's shortest modes.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import DegenerateInputError, DomainError, NoBracketError
from .fields import flux_total, local_primitive, s_of_energy
from .flow import TangentState, state_at_energy
from .surfaces import ClosedPolyline, close_padded

# curve evolution: step factor in units of spacing^2 / sqrt(2k) (at 1.5 the
# unstable stationary circle of the ``halfplane_disc`` golden already runs
# off), length below which a contractible curve has vanished, and iterations
# between simplicity checks
STEP_FACTOR = 1.0
MIN_LENGTH = 0.05
CHECK_EVERY = 6
_arange = functools.lru_cache(maxsize=64)(np.arange)  # its caller never writes


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

    def __post_init__(self):
        if self.orientation not in (1, -1):
            raise DegenerateInputError(
                f"need orientation 1 or -1: orientation={self.orientation!r}")

    @classmethod
    def empty(cls):
        return cls(curves=[], orientation=1)

    @classmethod
    def full(cls, orientation=1):
        return cls(curves=[], orientation=orientation, whole_surface=True)


def curve_length(system, curve):
    pts = curve.padded(system.surface)[:, 1:]
    return _length(system.surface, curve.chart, pts,
                   _norm2(pts[:, 1:] - pts[:, :-1]))


def region_flux(system, region):
    """Flux of sigma through the region's underlying set, by Stokes: the line
    integral of the system's primitive along the boundary, each curve in its
    own chart.  A lone clockwise contractible curve bounds the complement of
    its disc, which adds the total flux.  Curves winding around the torus
    need a periodic primitive: on a field with none, NoGlobalPrimitiveError
    is raised."""
    if region.whole_surface:
        return flux_total(system)
    surf = system.surface
    winds = any(c.winding != (0, 0) for c in region.curves)
    prim = local_primitive(system, winds)
    total = sum((prim.line_integral(c.chart, c.padded(surf)[:, 1:].T)
                 for c in region.curves), 0.0)
    if len(region.curves) == 1 and region.curves[0].winding == (0, 0):
        x, nxt = region.curves[0].edges(surf)
        if np.sum(x[:, 0] * nxt[:, 1] - x[:, 1] * nxt[:, 0]) < 0.0:
            total += flux_total(system)
    return total


def taimanov_value(system, k, region):
    """Length-minus-flux functional of the region at energy k."""
    if k <= 0:
        raise DegenerateInputError("energy must be positive")
    length = sum(curve_length(system, c) for c in region.curves)
    flux = region_flux(system, region)
    return math.sqrt(2.0 * k) * length - region.orientation * flux


# ---------------------------------------------------------------------------
# discrete curvature and the evolution
#
# The evolution keeps each curve as padded coordinate rows (2, N + 2),
# previous vertex | vertices | next vertex (``ClosedPolyline.padded``), and
# the helpers below read edges, chords and normals off that buffer with
# plain slices.  Norms are sqrt(a*a + b*b), the sum np.linalg.norm forms;
# np.hypot rounds differently and would break the pinned golden results.
# ---------------------------------------------------------------------------

def _norm2(d):
    """Euclidean length of each column of a (2, M) array."""
    dd = d * d
    return np.sqrt(dd[0] + dd[1])


def _length(surf, chart, pts, lens):
    """Midpoint-rule metric length of the polyline through the columns of
    pts (2, M + 1), whose M edges have chart lengths lens."""
    mids = 0.5 * (pts[:, :-1] + pts[:, 1:])
    rho = np.asarray(surf.conformal(chart, mids[0], mids[1])[0], float)
    return float((np.exp(rho) * lens).sum())


def _geometry(surf, chart, buf):
    """Geodesic curvature (N,), outward unit normal (2, N), least conformal
    factor rho and metric length of a padded curve buffer (2, N + 2); on a
    flat chart (``step_line`` None) rho = 0 and e^0 = 1 exactly."""
    d = buf[:, 1:] - buf[:, :-1]            # edges prev->x, then x->next
    lens = _norm2(d)
    l1 = lens[:-1]
    l2 = lens[1:]
    tang = buf[:, 2:] - buf[:, :-2]         # chord prev->next
    chord = _norm2(tang)
    cross = d[:, :-1] * d[::-1, 1:]         # both products of the 2D cross
    cross = cross[0] - cross[1]
    denom = l1 * l2 * chord
    if np.minimum.reduce(denom) <= 0:       # NaN passes, as with .any()
        raise DegenerateInputError("degenerate polygon edge")
    kappa = 2.0 * cross / denom
    tang /= chord
    normal = tang[::-1]                     # right of travel: (t_v, -t_u)
    normal[1] *= -1.0
    if surf.step_line is None:
        return kappa, normal, 0.0, float(l2.sum())
    length = _length(surf, chart, buf[:, 1:], l2)
    rho, ru, rv = surf.conformal(chart, buf[0, 1:-1], buf[1, 1:-1])
    rho = np.asarray(rho, float)
    kappa = np.exp(-rho) * (kappa + (ru * normal[0] + rv * normal[1]))
    return kappa, normal, float(rho.min()), length


def _resample(pts, shift, spacing):
    """Padded buffer of the closed curve through pts (2, M + 1), whose last
    column is the lifted first vertex, redistributed uniformly in chart
    arclength at about the given spacing (at least 8 vertices), and the
    chart arclength between its vertices; None and the total when a
    non-finite vertex makes that total non-finite."""
    seg = _norm2(pts[:, 1:] - pts[:, :-1])
    cum = np.empty(len(seg) + 1)
    cum[0] = 0.0
    seg.cumsum(out=cum[1:])
    total = float(cum[-1])
    if not total < math.inf:                # NaN fails the test too
        return None, total
    n = max(round(total / spacing), 8)
    targets = _arange(n) * total / n
    buf = np.empty((2, n + 2))
    buf[0, 1:-1] = np.interp(targets, cum, pts[0])
    buf[1, 1:-1] = np.interp(targets, cum, pts[1])
    return close_padded(buf, shift), total / n


def _curve(buf, chart, winding):
    return RegionCurve(vertices=buf[:, 1:-1].T.copy(), chart=chart,
                       winding=winding)


def curve_geometry(system, curve):
    """Per-vertex geodesic curvature and Euclidean outward unit normal."""
    surf = system.surface
    kappa, normal, _, _ = _geometry(surf, curve.chart, curve.padded(surf))
    return kappa, normal.T


def resample_curve(curve, spacing, surface):
    """Redistribute vertices uniformly in chart arclength."""
    buf, _ = _resample(curve.padded(surface)[:, 1:],
                       curve.closure_shift(surface), spacing)
    if buf is None:
        raise DegenerateInputError("the curve has a non-finite vertex")
    return _curve(buf, curve.chart, curve.winding)


def curve_is_simple(buf):
    """Whether no two non-adjacent edges of the closed curve in the padded
    buffer buf (2, N + 2) (``ClosedPolyline.padded``) cross properly.

    Two kinds exit at once: a contractible curve whose turns share one
    strict sign and add up to +-2 pi (not 4 pi: wound twice) is convex, and
    a curve closing up to a lattice shift and strictly monotone along the
    shift's larger axis is a graph over it.  Any other is swept.  Sort and
    sweep (M. I. Shamos and D. Hoey, Proc. 17th IEEE FOCS (1976) 208-215)
    along the longer side of the bounding box, chosen per curve (a strip
    boundary winding in y hardly spans x): each edge, in order of its low
    end, is tested against the later edges whose low ends lie below its
    high end, which holds every pair that can cross; neighbouring edges,
    the last and the first too, are skipped.  The test is the all-pairs one
    (t, s in (eps, 1 - eps), |den| > eps = 1e-12), symmetric bit for bit in
    the two edges, so the verdict is the all-pairs one, bar near-parallel
    edges (|den| near eps) whose crossing that arithmetic cannot place.
    """
    d = buf[:, 1:] - buf[:, :-1]            # edges prev->x, then x->next
    shift = buf[:, -1] - buf[:, 1]
    if shift.any():                         # a graph over the shift's axis
        axis = int(np.argmax(np.abs(shift)))
        if (d[axis, 1:] * shift[axis] > 0.0).all():
            return True
    else:                                   # one turn sign, turning 2 pi
        cross = d[0, :-1] * d[1, 1:] - d[1, :-1] * d[0, 1:]
        turn = np.arctan2(cross, (d[:, :-1] * d[:, 1:]).sum(axis=0)).sum()
        if (cross * turn > 0.0).all() and abs(turn) < 3.0 * math.pi:
            return True
    x, nxt, d = buf[:, 1:-1], buf[:, 2:], d[:, 1:]  # edge i: x[:, i] -> nxt
    n = x.shape[1]
    axis = int(np.argmax(x.max(axis=1) - x.min(axis=1)))
    lo = np.minimum(x[axis], nxt[axis])
    order = np.argsort(lo, kind="stable")
    # sorted edge i overlaps sorted edges i + 1 .. i + count[i]
    count = np.searchsorted(lo.take(order),
                            np.maximum(x[axis], nxt[axis]).take(order),
                            side="right") - np.arange(1, n + 1)
    first = np.repeat(np.arange(n), count)
    start = np.cumsum(count) - count
    a = order.take(first)
    b = order.take(first + 1 + np.arange(len(first)) - start.take(first))
    gap = np.abs(a - b)
    keep = (gap != 1) & (gap != n - 1)
    a, b = a[keep], b[keep]
    d1, d2 = d.take(a, axis=1), d.take(b, axis=1)
    diff = x.take(b, axis=1) - x.take(a, axis=1)
    den = d1[0] * d2[1] - d1[1] * d2[0]
    tn = diff[0] * d2[1] - diff[1] * d2[0]
    sn = diff[0] * d1[1] - diff[1] * d1[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = tn / den
        s = sn / den
    eps = 1e-12          # t, s > eps and < 1 - eps, NaN failing both
    return not ((np.abs(den) > eps) & (np.minimum(t, s) > eps)
                & (np.maximum(t, s) < 1 - eps)).any()


@dataclasses.dataclass
class EvolveParams:
    tol: float = 1e-3
    max_iter: int = 20000
    spacing: float = 0.02

    def __post_init__(self):
        if not (0.0 < self.tol < math.inf and 0.0 < self.spacing < math.inf
                and self.max_iter >= 1):      # NaN fails the test too
            raise DegenerateInputError("need tol, spacing finite and > 0, "
                                       f"max_iter >= 1: {self}")


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
    normal, scaled by the step h = STEP_FACTOR spacing^2 / sqrt(2k); the
    speed carries e^(-rho), so where a curve reaches e^(-rho) > 2 the
    step shrinks by 2 min e^rho.  The move of both coordinate rows is then
    smoothed by S = (I - beta D2)^-1 with beta = h sqrt(2k) max e^(-rho) /
    ds^2, ds the chart spacing of the last resample: the curvature term is
    about -sqrt(2k) e^(-rho) D2 x / ds^2, so S damps mode j of the polygon
    by 1 / (1 + beta (2 - 2 cos 2 pi j / N)) instead of the explicit step's
    1 - beta (2 - 2 cos 2 pi j / N), which needs beta <= 1/2.  A
    stationary curve has no move to smooth, so it stays a fixed point.
    Curves are rearclengthed every iteration.

    There is no surgery: curves that self-intersect halt the run, curves
    shorter than MIN_LENGTH count as vanished (the empty region, value
    zero), and a vertex moved off its chart (non-finite or below the
    surface's floor) raises DomainError.  A region without boundary curves
    (empty or the whole surface) has nothing to move: it comes back
    unchanged as stationary, with its value.

    Between iterations a curve is its chart, winding, closure shift,
    padded coordinate rows (2, N + 2), previous | vertices | next, vertex
    spacing and ``_geometry``, taken once per resample for the vanishing
    test and the next move (no conformal factor on a flat chart).  One
    iteration moves the middle columns in place, sets the last column again
    and resamples into the next buffer, with no ``RegionCurve`` in between;
    ``curve_is_simple`` reads the buffers.  ``tests/test_evolve_golden.py``
    pins the outcome, iterations, value, residual and vertices bit for bit.
    """
    if params is None:
        params = EvolveParams()
    surf = system.surface
    o = region.orientation
    sqrt2k = math.sqrt(2.0 * k)
    s = s_of_energy(k)
    if not region.curves:
        return EvolveResult(region=region,
                            value=taimanov_value(system, k, region),
                            residual=0.0, outcome="stationary", iterations=0)
    loops = []
    for c in region.curves:
        shift = c.closure_shift(surf)
        buf, ds = _resample(c.padded(surf)[:, 1:], shift, params.spacing)
        if buf is None:
            raise DegenerateInputError("seed curve with a non-finite vertex")
        loops.append((c.chart, c.winding, shift, buf, ds,
                      *_geometry(surf, c.chart, buf)))
    step = STEP_FACTOR * params.spacing ** 2 / sqrt2k
    floor = surf.floor
    symbols = {}                  # vertex count N -> 2 - 2 cos(2 pi j / N)
    outcome = "max_iter"
    for it in range(1, params.max_iter + 1):
        residual = 0.0
        kept = []
        vanished = False
        for chart, winding, shift, buf, ds, kappa, normal, rho_min, _ in loops:
            x = buf[:, 1:-1]
            of = o * np.asarray(system.field.eval(chart, x[0], x[1]), float)
            defect = sqrt2k * kappa - of
            # s * (o f) rounds as (o s) f does, o being +-1
            residual = max(residual, float(np.abs(kappa - s * of).max()))
            h = step * min(1.0, 2.0 * math.exp(rho_min))
            n = x.shape[1]
            if n not in symbols:
                symbols[n] = 2.0 - 2.0 * np.cos(
                    2.0 * math.pi / n * np.arange(n // 2 + 1))
            beta = h * sqrt2k * math.exp(-rho_min) / (ds * ds)
            # S on both coordinate rows: -D2 has eigenvalue symbols[n][j]
            # on rfft frequency j
            x -= np.fft.irfft(np.fft.rfft(h * defect * normal, axis=1)
                              / (1.0 + beta * symbols[n]), n=n, axis=1)
            buf[:, -1] = buf[:, 1] + shift  # _resample reads from column 1
            buf, ds = _resample(buf[:, 1:], shift, params.spacing)
            if buf is None or floor > -math.inf and x[1].min() < floor:
                raise DomainError(
                    f"curve evolution left chart {chart} at iteration {it}")
            geo = _geometry(surf, chart, buf)
            if winding == (0, 0) and geo[3] < MIN_LENGTH:   # its length
                vanished = True
            else:
                kept.append((chart, winding, shift, buf, ds, *geo))
        if vanished and not kept:
            outcome = "vanished"
            loops = []
            break
        loops = kept
        if residual < params.tol:
            outcome = "stationary"
            break
        if it % CHECK_EVERY == 0 and \
                not all(curve_is_simple(buf) for _, _, _, buf, *_ in loops):
            outcome = "halted"
            break
    curves = [_curve(buf, chart, winding)
              for chart, winding, _, buf, *_ in loops]
    final = Region(curves=curves, orientation=o)
    value = 0.0 if not curves else taimanov_value(system, k, final)
    res = 0.0
    for chart, _, _, buf, _, kappa, *_ in loops:
        f = np.asarray(system.field.eval(chart, buf[0, 1:-1], buf[1, 1:-1]),
                       float)
        res = max(res, float(np.abs(kappa - o * s * f).max()))
    return EvolveResult(region=final, value=value, residual=res,
                        outcome=outcome, iterations=it)


def tau_estimate(system, seed_regions, k_lo, k_hi, bisect_iters=20,
                 params=None):
    """Threshold energy below which the minimized functional goes negative.

    A value is negative exactly when k < r = (o flux / length)^2 / 2, so
    Dinkelbach's iteration climbs to sup r: evolve the seeds at k_lo, then
    the lowest-valued non-halted region, warm-started at its own r (k never
    decreases), until no region is negative or it was already stationary.
    ``bisect_iters`` caps the ratio updates (keyword callers keep the old
    bisection's name).  Returns 0.0 if k_lo admits no negative value; raises
    NoBracketError once r reaches k_hi (r is infinite without a boundary).
    """
    if k_lo <= 0 or k_hi <= k_lo or bisect_iters < 0:
        raise DegenerateInputError("need 0 < k_lo < k_hi, bisect_iters >= 0")
    k, tau, todo = k_lo, 0.0, seed_regions
    for n in range(bisect_iters + 1):
        results = [evolve_minimize(system, k, region, params)
                   for region in todo]
        best = min((r for r in results if r.outcome != "halted"),
                   key=lambda r: r.value, default=None)
        if best is None or best.value >= 0.0:
            break
        length = sum(curve_length(system, c) for c in best.region.curves)
        tau = (0.5 * (math.sqrt(2.0 * k) - best.value / length) ** 2
               if length > 0.0 else math.inf)
        if tau >= k_hi:
            raise NoBracketError("functional still negative at k_hi")
        if n and best.outcome == "stationary" and best.iterations == 1:
            break
        k, todo = tau, [best.region]
    return tau


def state_from_curve(system, k, curve, orientation=1):
    """Tangent seed of the periodic orbit carried by a stationary curve.

    Stationary boundaries of reversed-orientation regions are traversed
    backwards by the flow, so the tangent is flipped for orientation -1.
    """
    x, nxt = curve.edges(system.surface)
    tang = nxt[0] - x[0]
    if orientation < 0:
        tang = x[0] - nxt[0]
    st = TangentState(curve.chart, x[0, 0], x[0, 1], tang[0], tang[1])
    return state_at_energy(system, st, k)
