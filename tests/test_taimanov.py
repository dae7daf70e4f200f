"""Length-minus-flux functional and the curve evolution."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magsurf import regions
from magsurf.critical import c0_upper_bound
from magsurf.errors import (DegenerateInputError, DomainError,
                            NoBracketError, NoGlobalPrimitiveError)
from magsurf.fields import (ConstantField, MagneticSystem, TorusField,
                            energy_of_s, flux_total)
from magsurf.flow import integrate
from magsurf.orbits import orbit_curvature_residual, shoot_periodic
from magsurf.regions import (CHECK_EVERY, STEP_FACTOR, EvolveParams, Region,
                             RegionCurve, curve_geometry, curve_is_simple,
                             curve_length, evolve_minimize, region_flux,
                             resample_curve, state_from_curve, tau_estimate,
                             taimanov_value)
from magsurf.surfaces import (ConformalTorus, FlatTorus, HyperbolicPlane,
                              RoundSphere)

SQ2 = math.sqrt(2.0)


def _circle(center, radius, n=128, ccw=True, chart=0):
    ang = 2.0 * np.pi * np.arange(n) / n
    if not ccw:
        ang = ang[::-1]
    return RegionCurve(np.column_stack([center[0] + radius * np.cos(ang),
                                        center[1] + radius * np.sin(ang)]),
                       chart=chart)


def _strip(x0, x1, n=64):
    """Region x0 < x < x1 on the unit torus: two vertical lines with
    opposite vertical winding, region on the left of each."""
    ys = np.arange(n, dtype=float) / n
    right = RegionCurve(np.column_stack([np.full(n, x1), ys]),
                        winding=(0, 1))
    left = RegionCurve(np.column_stack([np.full(n, x0), 1.0 - ys]),
                       winding=(0, -1))
    return Region([right, left], orientation=1)


def _favorable_strip():
    """Criterion 08's seed: the strip 0.3 < x < 0.7, reversed."""
    return Region([RegionCurve(c.vertices[::-1].copy(),
                               winding=(-c.winding[0], -c.winding[1]))
                   for c in _strip(0.3, 0.7, 64).curves], orientation=-1)


def _cosine_system():
    """Criterion 08's field f = 2 pi cos(2 pi x) on the flat torus."""
    return MagneticSystem(FlatTorus(), TorusField(
        lambda x, y: 2 * np.pi * np.cos(2 * np.pi * x)))


def _tau_08(k_hi=1.0):
    return tau_estimate(_cosine_system(), [_favorable_strip()], 0.1, k_hi,
                        bisect_iters=16,
                        params=EvolveParams(tol=1e-4, max_iter=30000))


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


def _segments_intersect(p, q):
    """Reference: proper-intersection matrix between two sets of segments,
    the all-pairs test ``curve_is_simple`` used before its sweep."""
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


def _crossing_matrix(curve, surface):
    """Reference: which pairs of non-adjacent edges cross properly."""
    x, nxt = curve.edges(surface)
    hit = _segments_intersect((x, nxt), (x, nxt))
    np.fill_diagonal(hit, False)
    n = len(x)
    idx = np.arange(n)
    hit[idx, (idx + 1) % n] = False
    hit[(idx + 1) % n, idx] = False
    return hit


def _record_energies(monkeypatch):
    """Energies of the evolve_minimize calls made from here on."""
    seen = []
    evolve = regions.evolve_minimize

    def recording(system, k, region, params=None):
        seen.append(k)
        return evolve(system, k, region, params)

    monkeypatch.setattr(regions, "evolve_minimize", recording)
    return seen


def test_value_of_flat_disc():
    """On the flat torus the functional of a round disc is the classical
    sqrt(2k) * 2 pi r - pi r^2 f."""
    system = MagneticSystem(FlatTorus(), ConstantField(1.0))
    k = 0.18
    for r in (0.1, 0.25, 0.4):
        region = Region([_circle((0.5, 0.5), r, 512)])
        want = math.sqrt(2 * k) * 2 * math.pi * r - math.pi * r * r
        assert abs(taimanov_value(system, k, region) - want) < 2e-4


def test_complement_identity():
    """Complementing the region adds the total flux to the value."""
    system = MagneticSystem(FlatTorus(), ConstantField(3.0))
    k = 0.3
    region = Region([_circle((0.5, 0.5), 0.3)])
    v = taimanov_value(system, k, region)
    vc = taimanov_value(system, k, region_complement(region))
    assert abs(vc - (v + flux_total(system))) < 1e-10

    # empty and full regions have no boundary length
    assert taimanov_value(system, k, Region.empty()) == 0.0
    assert abs(taimanov_value(system, k, Region.full())
               + flux_total(system)) < 1e-12


def test_strip_flux_and_value():
    """Strip flux equals the integral of f over the strip for a field
    depending only on x."""
    system = MagneticSystem(FlatTorus(), TorusField(
        lambda x, y: 2 * np.pi * np.cos(2 * np.pi * x)))
    region = _strip(0.25, 0.75, 256)
    # integral of 2 pi cos(2 pi x) over [1/4, 3/4] is -2
    assert abs(region_flux(system, region) + 2.0) < 1e-9
    k = 0.3
    want = math.sqrt(2 * k) * 2.0 + 2.0
    assert abs(taimanov_value(system, k, region) - want) < 1e-9
    # the same strip counted with reversed orientation is the favorable one
    rev = Region(list(region.curves), orientation=-1)
    assert abs(taimanov_value(system, k, rev)
               - (math.sqrt(2 * k) * 2.0 - 2.0)) < 1e-9


@pytest.mark.parametrize("field", [
    ConstantField(1.0),
    TorusField(lambda x, y: 1.0 - 2.0 * np.exp(
        -((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.0625))],
    ids=["constant", "bump"])
def test_winding_strip_flux_needs_periodic_primitive(field):
    """A strip bounded by winding curves has flux 0.4 (f = 1) and 0.110
    (bump) for 0.3 < x < 0.7, which no chart primitive's line integral
    gives: theta = -F dx vanishes on the vertical edges.  A field without a
    periodic primitive is an error, not 0."""
    system = MagneticSystem(FlatTorus(), field)
    with pytest.raises(NoGlobalPrimitiveError):
        region_flux(system, _strip(0.3, 0.7))


# (system, chart, Euclidean centre, Euclidean radius, closed-form flux) of a
# disc: a sphere chart-1 disc of radius R = 0.5 about 0, whose flux is the
# cap area 4 pi R^2 / (1 + R^2), and the hyperbolic disc of radius 0.8 about
# i, the Euclidean circle about (0, cosh r) of radius sinh r with flux
# 2 pi (cosh r - 1)
DISCS = {
    "sphere_chart1": lambda: (
        MagneticSystem(RoundSphere(), ConstantField(1.0)), 1, (0.0, 0.0),
        0.5, 4.0 * math.pi * 0.25 / 1.25),
    "halfplane": lambda: (
        MagneticSystem(HyperbolicPlane(), ConstantField(1.0)), 0,
        (0.0, math.cosh(0.8)), math.sinh(0.8),
        2.0 * math.pi * (math.cosh(0.8) - 1.0)),
}


@pytest.mark.parametrize("name", sorted(DISCS))
def test_ngon_flux_converges_at_second_order(name):
    """The flux of an inscribed n-gon misses the disc by the polygon's own
    O(1/n^2) deficit; a quadrature that adds no error of its own keeps the
    ratio err(256) / err(1024) at 16."""
    system, chart, center, radius, want = DISCS[name]()
    err = [region_flux(system, Region([_circle(center, radius, n,
                                               chart=chart)])) - want
           for n in (256, 1024)]
    assert 15.0 <= err[0] / err[1] <= 17.0


def test_region_flux_two_charts():
    """A sphere region with one disc in each chart gets one primitive per
    chart: its flux is the sum of the two discs' fluxes."""
    system = MagneticSystem(RoundSphere(), ConstantField(1.0))
    discs = [_circle((0.0, 0.0), 0.5, 256, chart=chart) for chart in (0, 1)]
    alone = [region_flux(system, Region([c])) for c in discs]
    both = region_flux(system, Region(discs))
    assert abs(both - sum(alone)) < 1e-12
    assert abs(both - 2.0 * 4.0 * math.pi * 0.25 / 1.25) < 1e-3


def test_curve_geometry_circle():
    """Menger curvature of a sampled circle and its outward normal."""
    system = MagneticSystem(FlatTorus(), ConstantField(1.0))
    curve = _circle((0.5, 0.5), 0.2, 256)
    kappa, normal = curve_geometry(system, curve)
    assert np.max(np.abs(kappa - 5.0)) < 1e-2
    # region is on the left (inside), outward normal points away from center
    rad = curve.vertices - np.array([0.5, 0.5])
    rad /= np.linalg.norm(rad, axis=1, keepdims=True)
    assert np.max(np.abs(normal - rad)) < 1e-3


def test_curve_geometry_hyperbolic_circle():
    """A Euclidean circle at height y0 in the half-plane has constant
    geodesic curvature y0 / R wrt the hyperbolic metric."""
    system = MagneticSystem(HyperbolicPlane(genus=2), ConstantField(1.0))
    y0, r = 2.0, 0.5
    curve = _circle((0.0, y0), r, 512)
    kappa, _ = curve_geometry(system, curve)
    assert np.max(np.abs(kappa - y0 / r)) < 1e-2


def test_resample_preserves_length():
    surf = FlatTorus()
    system = MagneticSystem(surf, ConstantField(1.0))
    curve = _circle((0.5, 0.5), 0.3, 100)
    fine = resample_curve(curve, 0.005, surf)
    assert abs(curve_length(system, fine) - 2 * math.pi * 0.3) < 1e-3
    d = np.linalg.norm(np.roll(fine.vertices, -1, axis=0) - fine.vertices,
                       axis=1)
    assert d.max() / d.min() < 1.01


def test_curve_is_simple():
    surf = FlatTorus()
    assert curve_is_simple(_circle((0.5, 0.5), 0.2).padded(surf))
    t = 2 * np.pi * (np.arange(64) + 0.5) / 64
    eight = RegionCurve(np.column_stack(
        [0.5 + 0.2 * np.sin(2 * t), 0.5 + 0.1 * np.sin(t)]))
    assert not curve_is_simple(eight.padded(surf))


SHAPES = ("jittered_circle", "star", "figure_eight", "cloud", "near_touch",
          "strip_small_jitter", "strip_large_jitter")


def _test_polygon(kind, n, seed, amp):
    """A closed polygon of the given kind, n vertices, drawn from the seed;
    amp in [0, 1] sets how far it strays from its simple template."""
    rng = np.random.default_rng(seed)
    ang = 2 * np.pi * (np.arange(n) + rng.uniform(-amp, amp, n)) / n
    winding = (0, 0)
    if kind == "jittered_circle":
        r = 0.3 + 0.05 * amp * rng.standard_normal(n)
        pts = 0.5 + r[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
    elif kind == "star":
        r = 0.3 * (1 + 0.9 * amp * np.cos(rng.integers(2, 9) * ang
                                          + rng.uniform(0, 2 * np.pi)))
        pts = 0.5 + r[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
    elif kind == "figure_eight":
        c, s = np.cos(rng.uniform(0, np.pi)), np.sin(rng.uniform(0, np.pi))
        u, v = 0.3 * np.sin(2 * ang), rng.uniform(0.05, 0.3) * np.sin(ang)
        pts = 0.5 + np.column_stack([c * u - s * v, s * u + c * v])
    elif kind == "cloud":
        pts = rng.uniform(0, 1, (n, 2))
    elif kind == "near_touch":
        # a circle pinched at two opposite vertices, whose tips meet at
        # the centre with a gap of +-10^-14 .. 10^-3: negative gaps cross
        rim = np.column_stack([np.cos(ang), np.sin(ang)])
        pts = 0.5 + 0.3 * rim
        i = rng.integers(n)
        gap = rng.choice([-1, 1]) * 10 ** rng.uniform(-14, -3)
        pts[i] = 0.5 + 0.5 * gap * rim[i]
        pts[(i + n // 2) % n] = 0.5 - 0.5 * gap * rim[i]
    else:
        # criterion 08's vertical strip boundary, winding once in y
        jitter = 1e-3 if kind == "strip_small_jitter" else 0.7
        ys = np.arange(n) / n
        pts = np.column_stack([0.3 + jitter * amp * rng.standard_normal(n),
                               ys])
        winding = (0, 1)
    return RegionCurve(pts, winding=winding)


def test_oracle_shapes_cover_both_verdicts():
    """The shapes the oracle property draws from are not all simple."""
    surf = FlatTorus()
    verdicts = {kind: {_crossing_matrix(_test_polygon(kind, 60, seed,
                                                      seed / 19),
                                        surf).any() for seed in range(20)}
                for kind in SHAPES}
    for kind in ("jittered_circle", "star", "near_touch"):
        assert verdicts[kind] == {True, False}, kind
    for kind in ("figure_eight", "cloud"):
        assert True in verdicts[kind], kind
    for kind in ("strip_small_jitter", "strip_large_jitter"):
        assert verdicts[kind] == {False}, kind


@given(kind=st.sampled_from(SHAPES), n=st.integers(4, 200),
       seed=st.integers(0, 2 ** 32 - 1), amp=st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_curve_is_simple_matches_all_pairs(kind, n, seed, amp):
    """The sweep gives the all-pairs verdict.  The all-pairs matrix is
    symmetric bit for bit, which is why one order per pair suffices."""
    surf = FlatTorus()
    curve = _test_polygon(kind, n, seed, amp)
    hit = _crossing_matrix(curve, surf)
    assert (hit == hit.T).all()
    assert curve_is_simple(curve.padded(surf)) == (not hit.any())


def _swept(curve, surf, monkeypatch):
    """curve_is_simple's verdict on the curve, and whether it reached the
    sweep (its one np.argsort call) rather than a fast exit."""
    calls = []
    argsort = np.argsort
    with monkeypatch.context() as mp:
        mp.setattr(np, "argsort",
                   lambda *a, **kw: calls.append(1) or argsort(*a, **kw))
        verdict = curve_is_simple(curve.padded(surf))
    return verdict, bool(calls)


def test_oracle_shapes_take_the_fast_exit(monkeypatch):
    """The oracle property reaches both exits and the sweep: a regular
    polygon or a lightly jittered circle is convex and every strip is
    monotone in y, so they skip the sweep; figure eights, clouds and
    pinched circles are swept."""
    surf = FlatTorus()
    fast = {kind: sum(not _swept(_test_polygon(kind, 60, seed, seed / 19),
                                 surf, monkeypatch)[1] for seed in range(20))
            for kind in SHAPES}
    assert fast["strip_small_jitter"] == fast["strip_large_jitter"] == 20
    assert fast["jittered_circle"] > 0 and fast["star"] > 0
    assert fast["figure_eight"] == fast["cloud"] == fast["near_touch"] == 0


def test_curve_wound_twice_is_not_simple(monkeypatch):
    """The heptagram {7/2} turns the same way at every vertex, through 4 pi
    in all: locally convex but wound twice, so the convex exit must not
    take it, and the sweep finds its crossings."""
    surf = FlatTorus()
    ang = 4.0 * np.pi * np.arange(7) / 7
    curve = RegionCurve(0.5 + 0.3 * np.column_stack([np.cos(ang),
                                                     np.sin(ang)]))
    d = np.roll(curve.vertices, -1, axis=0) - curve.vertices
    e = np.roll(d, -1, axis=0)
    assert (d[:, 0] * e[:, 1] - d[:, 1] * e[:, 0] > 0).all()
    assert _crossing_matrix(curve, surf).any()
    assert _swept(curve, surf, monkeypatch) == (False, True)


@pytest.mark.parametrize("fold,crosses", [
    ({5: (0.35, 0.2)}, False),
    ({5: (0.35, 0.1), 6: (0.25, 0.2)}, True)], ids=["apart", "crossing"])
def test_strip_with_backward_step_is_swept(monkeypatch, fold, crosses):
    """A strip boundary winding in y with one step back down is not
    monotone, so it falls through to the sweep, which gives the all-pairs
    verdict whether or not the fold crosses the line below it."""
    surf = FlatTorus()
    n = 16
    pts = np.column_stack([np.full(n, 0.3), np.arange(n) / n])
    for i, p in fold.items():
        pts[i] = p
    curve = RegionCurve(pts, winding=(0, 1))
    assert _crossing_matrix(curve, surf).any() == crosses
    assert _swept(curve, surf, monkeypatch) == (not crosses, True)


def test_evolution_constant_field_stationary_circle():
    """With f = 1 the stationary boundary is the circle of Euclidean
    radius s k' = 1/(s f) wrt kappa = s f; seeded nearby it settles."""
    system = MagneticSystem(FlatTorus(), ConstantField(1.0))
    s = 2.5                      # stationary radius 1/2.5 = 0.4
    k = energy_of_s(s)
    # the constant-field circle is an unstable stationary point, so the
    # seed must start on it; the evolution then recognizes it at once
    region = Region([_circle((0.5, 0.5), 0.4, 128)])
    res = evolve_minimize(system, k, region,
                          EvolveParams(tol=2e-3, max_iter=2000))
    assert res.outcome == "stationary"
    assert res.residual < 2e-3
    verts = res.region.curves[0].vertices
    r = np.hypot(*(verts - verts.mean(axis=0)).T)
    assert abs(r.mean() - 1.0 / s) < 1e-3


def test_evolution_shrinks_unfavorable_disc():
    """A small disc with positive flux and short length contributes
    positively; the evolution shrinks it away."""
    system = MagneticSystem(FlatTorus(), ConstantField(1.0))
    k = energy_of_s(2.5)
    region = Region([_circle((0.5, 0.5), 0.15, 96)])
    res = evolve_minimize(system, k, region)
    assert res.outcome == "vanished"
    assert res.value == 0.0


def test_evolution_strip_reaches_exact_minimum():
    """For f = 2 pi cos(2 pi x) the reversed strip 1/4 < x < 3/4 evolves
    to the minimizer with value 2 sqrt(2k) - 2."""
    system = _cosine_system()
    k = 0.3
    res = evolve_minimize(system, k, _favorable_strip(),
                          EvolveParams(tol=1e-4, max_iter=30000))
    assert res.outcome == "stationary"
    want = 2.0 * math.sqrt(2.0 * k) - 2.0
    assert abs(res.value - want) < 1e-6


def test_stationary_curve_carries_orbit():
    """The boundary of the evolved stationary region, traversed with the
    right orientation, seeds a genuine periodic orbit."""
    system = MagneticSystem(FlatTorus(), ConstantField(1.0))
    s = 2.5
    k = energy_of_s(s)
    region = Region([_circle((0.5, 0.5), 0.4, 128)])
    res = evolve_minimize(system, k, region,
                          EvolveParams(tol=2e-3, max_iter=2000))
    assert res.outcome == "stationary"
    seed = state_from_curve(system, k, res.region.curves[0],
                            res.region.orientation)
    orbit = shoot_periodic(system, k, seed)
    assert orbit_curvature_residual(system, orbit) < 1e-6
    assert abs(orbit.period - 2 * math.pi) < 1e-8


def test_evolution_halts_on_self_crossing_seed():
    """A figure-eight seed stays crossed, so the first simplicity check
    halts the run."""
    system = MagneticSystem(FlatTorus(), ConstantField(1.0))
    t = 2 * np.pi * (np.arange(64) + 0.5) / 64
    eight = RegionCurve(np.column_stack(
        [0.5 + 0.2 * np.sin(2 * t), 0.5 + 0.1 * np.sin(t)]))
    res = evolve_minimize(system, energy_of_s(2.5), Region([eight]))
    assert res.outcome == "halted"
    assert res.iterations == CHECK_EVERY
    assert len(res.region.curves) == 1
    assert not curve_is_simple(res.region.curves[0].padded(system.surface))


def test_evolution_step_follows_conformal_factor():
    """On the half-plane the normal speed carries e^(-rho) = v, up to 2.5
    on this disc; with the step shrunk by 2 min e^rho it stays stable
    instead of zigzagging into a self-crossing (was: halted at 200 with
    residual 348)."""
    system = MagneticSystem(HyperbolicPlane(), ConstantField(1.0))
    res = evolve_minimize(system, energy_of_s(3.0),
                          Region([_circle((0.1, 2.0), 0.5, 96)]),
                          EvolveParams(max_iter=200))
    assert res.outcome != "halted"
    assert res.residual < 2.0


@pytest.mark.parametrize("n_iter", [25, 50, 100])
def test_evolution_follows_closed_form_disc(n_iter):
    """On the flat torus with f = 1 a disc of radius r < R = sqrt(2k)
    shrinks concentrically at dr/dt = 1 - R / r, so after evolution time t
    its radius solves t = (r - r0) + R ln((R - r) / (R - r0)); each
    iteration advances t by STEP_FACTOR spacing^2 / R."""
    system = MagneticSystem(FlatTorus(), ConstantField(1.0))
    k = energy_of_s(2.5)
    big_r, r0, spacing = math.sqrt(2.0 * k), 0.15, 0.01
    res = evolve_minimize(system, k, Region([_circle((0.5, 0.5), r0)]),
                          EvolveParams(spacing=spacing, max_iter=n_iter))
    assert res.outcome == "max_iter"
    verts = res.region.curves[0].vertices
    r = np.hypot(*(verts - verts.mean(axis=0)).T).mean()
    t = (r - r0) + big_r * math.log((big_r - r) / (big_r - r0))
    want = n_iter * STEP_FACTOR * spacing ** 2 / big_r
    assert abs(t - want) < 0.06 * want


def test_evolution_damps_shortest_mode():
    """A +-1e-3 alternating radial zigzag on the stationary circle r = 0.4
    is the polygon's stiffest mode: the smoothed step damps it below 5e-4
    in one iteration, where the unsmoothed move at the same step grows its
    radial spread from 2e-3 to 5.6e-3."""
    system = MagneticSystem(FlatTorus(), ConstantField(1.0))
    n = 252
    ang = 2.0 * np.pi * np.arange(n) / n
    rad = 0.4 + 1e-3 * (-1.0) ** np.arange(n)
    zigzag = RegionCurve(np.column_stack([0.5 + rad * np.cos(ang),
                                          0.5 + rad * np.sin(ang)]))
    res = evolve_minimize(system, energy_of_s(2.5), Region([zigzag]),
                          EvolveParams(spacing=0.01, max_iter=1))
    assert res.iterations == 1
    verts = res.region.curves[0].vertices
    rad = np.hypot(verts[:, 0] - 0.5, verts[:, 1] - 0.5)
    assert rad.max() - rad.min() < 5e-4


def test_evolution_off_chart_raises():
    """A half-plane disc that grows past the chart floor raises DomainError
    naming the iteration instead of resampling non-finite vertices."""
    system = MagneticSystem(HyperbolicPlane(genus=2), ConstantField(1.0))
    with pytest.raises(DomainError, match="iteration"):
        evolve_minimize(system, energy_of_s(3.4),
                        Region([_circle((0.1, 1.0), 0.4)]),
                        EvolveParams(spacing=0.03, max_iter=4000))


def test_evolution_with_nan_field_raises():
    """A flat-torus disc that grows into the strip x > 0.75, where the
    field is NaN, gets non-finite vertices: the non-finite arclength of
    the resample raises DomainError naming the iteration."""
    system = MagneticSystem(FlatTorus(), TorusField(
        lambda x, y: np.where(x > 0.75, np.nan, 1.0)))
    with pytest.raises(DomainError, match="at iteration 38$"):
        evolve_minimize(system, energy_of_s(8.0),
                        Region([_circle((0.5, 0.5), 0.2, n=96)]),
                        EvolveParams(spacing=0.02, max_iter=2000))


def test_non_finite_seed_curve_is_rejected():
    """A seed curve with a NaN vertex has no arclength to resample by."""
    system = MagneticSystem(FlatTorus(), ConstantField(1.0))
    curve = _circle((0.5, 0.5), 0.2)
    curve.vertices[3, 1] = math.nan
    with pytest.raises(DegenerateInputError, match="non-finite"):
        evolve_minimize(system, energy_of_s(2.0), Region([curve]))
    with pytest.raises(DegenerateInputError, match="non-finite"):
        resample_curve(curve, 0.02, system.surface)


@pytest.mark.parametrize("spacing", [0.0, -0.02, math.nan, math.inf])
def test_evolve_params_reject_nonpositive_spacing(spacing):
    """The resample spacing must be finite and positive: zero would divide
    by zero, a negative one would resample every curve to eight vertices
    and an infinite one sends the curve off its chart."""
    with pytest.raises(DegenerateInputError, match="spacing"):
        EvolveParams(spacing=spacing)


@pytest.mark.parametrize("name,value", [
    ("tol", 0.0), ("tol", -1e-3), ("tol", math.nan), ("tol", math.inf),
    ("max_iter", 0), ("max_iter", -5)])
def test_evolve_params_reject_unreachable_tol_and_no_iterations(name,
                                                                value):
    """A tol that is not positive can never be met, so the run would go on
    to max_iter, an infinite one is met by the seed before any step, and
    a max_iter below 1 would hand back the seed."""
    with pytest.raises(DegenerateInputError, match=f"{name}={value!r}"):
        EvolveParams(**{name: value})


@pytest.mark.parametrize("orientation", [0, 2, -3])
def test_region_rejects_orientation_other_than_unit(orientation):
    """The functional reads the orientation as a sign; any other integer
    would scale the flux and could end a run as "vanished"."""
    with pytest.raises(DegenerateInputError,
                       match=f"orientation={orientation}"):
        Region([], orientation)


def test_tau_estimate_rejects_negative_bisect_iters():
    """bisect_iters = -1 would return 0.0, the answer for an energy that
    admits no negative value, without evolving anything."""
    with pytest.raises(DegenerateInputError, match="bisect_iters"):
        tau_estimate(_cosine_system(), [_favorable_strip()], 0.1, 1.0,
                     bisect_iters=-1)


def test_evolution_drops_vanished_disc_and_goes_on():
    """Of two discs at s f = 5 (unstable radius 0.2), the one inside its
    radius shrinks below min_length and is dropped; the other one keeps
    evolving, and the value is that of the remaining region."""
    system = MagneticSystem(FlatTorus(), ConstantField(1.0))
    k = energy_of_s(5.0)
    region = Region([_circle((0.25, 0.25), 0.08, 96),
                     _circle((0.65, 0.65), 0.21, 96)])
    early = evolve_minimize(system, k, region, EvolveParams(max_iter=5))
    assert len(early.region.curves) == 2
    res = evolve_minimize(system, k, region, EvolveParams(max_iter=100))
    assert res.outcome == "max_iter"
    assert res.iterations == 100
    (kept,) = res.region.curves
    assert np.max(np.abs(kept.vertices.mean(axis=0) - 0.65)) < 0.01
    # the exact flow is concentric; each resample restarts at vertex 0 and
    # pulls the centroid toward it, so fewer iterations drift less
    assert abs(kept.vertices[:, 0].mean() - 0.65) < 1e-3
    assert res.value == taimanov_value(system, k, res.region)
    assert res.value > 0.0


@pytest.mark.parametrize("orientation", [1, -1])
def test_evolution_keeps_whole_surface(orientation):
    """A whole-surface region has no boundary to move: it comes back
    unchanged and stationary, with value -orientation * 4 pi f."""
    system = MagneticSystem(RoundSphere(), ConstantField(1.0))
    k = 0.3
    region = Region.full(orientation)
    res = evolve_minimize(system, k, region)
    assert res.outcome == "stationary"
    assert res.iterations == 0
    assert res.region is region
    assert res.value == taimanov_value(system, k, region)
    assert abs(res.value + orientation * 4.0 * math.pi) < 1e-9


def test_tau_estimate_sees_whole_surface_minimum(monkeypatch):
    """The full sphere region has value -4 pi at every energy, so its ratio
    is infinite and the functional is still negative at k_hi.  The strip's
    ratio 1/2 above k_hi = 0.4 raises with no evolution at k >= k_hi, and a
    disc that vanishes at k_lo admits no negative value: tau is 0."""
    system = MagneticSystem(RoundSphere(), ConstantField(1.0))
    with pytest.raises(NoBracketError):
        tau_estimate(system, [Region.full(1)], 0.1, 1.0, bisect_iters=1)
    seen = _record_energies(monkeypatch)
    with pytest.raises(NoBracketError):
        _tau_08(k_hi=0.4)
    assert seen and max(seen) < 0.4
    torus = MagneticSystem(FlatTorus(), ConstantField(1.0))
    disc = Region([_circle((0.5, 0.5), 0.15)])
    assert tau_estimate(torus, [disc], energy_of_s(2.5), 1.0) == 0.0


def test_tau_estimate_strip_closed_form():
    """On criterion 08's field the sup of the ratio (o flux / length)^2 / 2
    is attained by the strip 1/4 < x < 3/4: o flux = 2, length 2, tau 1/2.
    flux <= sup|theta| length for any primitive theta, so tau is also at
    most the energy c0^2 / 2 of the sup-norm bound.  On this field the grid
    c0 is the continuum one, 1, so tau also meets the dual bound, to the
    threshold's own accuracy."""
    tau = _tau_08()
    assert abs(tau - 0.5) < 1e-9
    res = c0_upper_bound(_cosine_system())
    assert 0.5 * res.lower ** 2 - 1e-9 <= tau <= res.energy_value


def test_tau_estimate_ratio_iteration_is_monotone(monkeypatch):
    """Dinkelbach's k never decreases, and the strip needs one evolution
    from the seed plus one warm-started check."""
    seen = _record_energies(monkeypatch)
    _tau_08()
    assert 1 <= len(seen) <= 3
    assert all(a <= b for a, b in zip(seen, seen[1:]))


# ---------------------------------------------------------------------------
# the evolution's per-iteration kernels against their first formulas
# ---------------------------------------------------------------------------

def _geometry_reference(surf, chart, buf):
    """``regions._geometry`` as first written: one product per term of
    the cross product, a strict test per edge, the normal by negation."""
    d = buf[:, 1:] - buf[:, :-1]
    lens = np.sqrt(d[0] * d[0] + d[1] * d[1])
    l1, l2 = lens[:-1], lens[1:]
    tang = buf[:, 2:] - buf[:, :-2]
    chord = np.sqrt(tang[0] * tang[0] + tang[1] * tang[1])
    cross = d[0, :-1] * d[1, 1:] - d[1, :-1] * d[0, 1:]
    denom = l1 * l2 * chord
    if (denom <= 0).any():
        raise DegenerateInputError("degenerate polygon edge")
    kappa = 2.0 * cross / denom
    tang = tang / chord
    normal = np.array([tang[1], -tang[0]])
    if surf.step_line is None:
        return kappa, normal, 0.0, float(l2.sum())
    mids = 0.5 * (buf[:, 1:-1] + buf[:, 2:])
    rho_mid = np.asarray(surf.conformal(chart, mids[0], mids[1])[0], float)
    length = float((np.exp(rho_mid) * l2).sum())
    rho, ru, rv = surf.conformal(chart, buf[0, 1:-1], buf[1, 1:-1])
    rho = np.asarray(rho, float)
    kappa = np.exp(-rho) * (kappa + (ru * normal[0] + rv * normal[1]))
    return kappa, normal, float(rho.min()), length


def _resample_reference(pts, shift, spacing):
    """``regions._resample`` as first written: a fresh cumulative sum and
    a fresh np.arange on every call."""
    d = pts[:, 1:] - pts[:, :-1]
    seg = np.sqrt(d[0] * d[0] + d[1] * d[1])
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = float(cum[-1])
    n = max(round(total / spacing), 8)
    targets = np.arange(n) * total / n
    buf = np.empty((2, n + 2))
    buf[0, 1:-1] = np.interp(targets, cum, pts[0])
    buf[1, 1:-1] = np.interp(targets, cum, pts[1])
    buf[:, 0] = buf[:, -2] - shift
    buf[:, -1] = buf[:, 1] + shift
    return buf, total / n


def _kernel_surfaces():
    x = np.arange(32) / 32
    conformal = ConformalTorus(0.1 * np.cos(2.0 * np.pi * (x[:, None] + 0.3))
                               * np.sin(2.0 * np.pi * x[None, :]))
    # surface, centre and largest radius of a contractible chart-0 curve
    return {"flat_torus": (FlatTorus(), (0.5, 0.5), 0.3),
            "conformal_torus": (conformal, (0.5, 0.5), 0.3),
            "sphere": (RoundSphere(), (0.1, -0.1), 0.8),
            "hyperbolic": (HyperbolicPlane(genus=2), (0.0, 1.2), 0.5)}


KERNEL_SURFACES = _kernel_surfaces()


def _star_curve(rng, centre, radius, winds):
    """A random star-shaped contractible polygon about the centre, or on a
    torus when winds a random graph x(y) winding once in y; either way in
    random orientation."""
    n = int(rng.integers(8, 160))
    jitter = (np.arange(n) + rng.uniform(0.05, 0.95, n)) / n
    if winds:
        wave = rng.uniform(-0.1, 0.1, 3)
        xs = (0.5 + wave[0] * np.sin(2.0 * np.pi * (jitter + wave[1]))
              + wave[2] * rng.uniform(-0.2, 0.2, n))
        verts, winding = np.column_stack([xs, jitter]), (0, 1)
    else:
        ang = 2.0 * np.pi * jitter
        r = radius * rng.uniform(0.3, 1.0) * rng.uniform(0.6, 1.0, n)
        verts = np.column_stack([centre[0] + r * np.cos(ang),
                                 centre[1] + r * np.sin(ang)])
        winding = (0, 0)
    if rng.random() < 0.5:
        verts, winding = verts[::-1].copy(), (-winding[0], -winding[1])
    return RegionCurve(verts, winding=winding)


def _same_bits(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@given(seed=st.integers(0, 2 ** 32 - 1),
       name=st.sampled_from(sorted(KERNEL_SURFACES)), winds=st.booleans(),
       spacing=st.floats(0.004, 0.08))
@settings(max_examples=80, deadline=None)
def test_geometry_and_resample_match_first_formulas_bit_for_bit(
        seed, name, winds, spacing):
    """``_geometry`` and ``_resample`` give every float of the reference
    copies above on random star-shaped polygons, contractible and (on the
    tori) winding, on all four surfaces, and so does ``_geometry`` of the
    resampled buffer; a NaN vertex makes the resample's total NaN."""
    surf, centre, radius = KERNEL_SURFACES[name]
    rng = np.random.default_rng(seed)
    curve = _star_curve(rng, centre, radius,
                        winds and surf.lattice is not None)
    buf, shift = curve.padded(surf), curve.closure_shift(surf)
    got = regions._resample(buf[:, 1:].copy(), shift, spacing)
    want = _resample_reference(buf[:, 1:].copy(), shift, spacing)
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
    for padded in (buf, want[0]):
        got = regions._geometry(surf, 0, padded.copy())
        want_geo = _geometry_reference(surf, 0, padded.copy())
        assert all(_same_bits(g, w) for g, w in zip(got, want_geo))
    buf[1, 1 + int(rng.integers(curve.n))] = math.nan
    got = regions._resample(buf[:, 1:], shift, spacing)
    assert got[0] is None and math.isnan(got[1])
