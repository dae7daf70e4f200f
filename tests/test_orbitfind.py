"""Periodic orbit search: shooting and the Newton-Krylov action solve."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magsurf import orbits, regions
from magsurf.cli import main
from magsurf.errors import (DegenerateInputError, NoConvergenceError,
                            NoGlobalPrimitiveError, NoReturnError)
from magsurf.fields import (CallableField, ConstantField, CosineField,
                            MagneticSystem, TorusField, energy_of_s,
                            local_primitive)
from magsurf.flow import (TangentState, integrate, poincare_return,
                          state_at_energy)
from magsurf.orbits import (SHOOT_TOL, DescentParams, DiscreteLoop,
                            circle_loop, descend_to_critical, discrete_action,
                            discrete_action_gradient, fit_circle,
                            homogeneous_oracle, loop_l2_energy,
                            loop_mean_energy, orbit_curvature_residual,
                            orbit_radius, shoot_periodic)
from magsurf.regions import curve_length
from magsurf.surfaces import (ConformalTorus, FlatTorus, HyperbolicPlane,
                              PeriodicBicubic, RoundSphere)

RNG = np.random.default_rng(11)


def _torus_system():
    return MagneticSystem(FlatTorus(), ConstantField(1.0))


# ---------------------------------------------------------------- oracles

def test_oracle_values_frozen():
    """Closed forms for radius and period of the circular orbits."""
    d = homogeneous_oracle("sphere", 1.0)
    assert abs(d.radius - math.pi / 4.0) < 1e-15
    assert abs(d.period - 2.0 * math.pi / math.sqrt(2.0)) < 1e-14

    d = homogeneous_oracle("flat_torus", 2.0)
    assert abs(d.radius - 0.5) < 1e-15
    assert abs(d.period - 2.0 * math.pi) < 1e-15

    d = homogeneous_oracle("hyperbolic", 2.0)
    assert abs(d.radius - math.atanh(0.5)) < 1e-15
    assert abs(d.period - 4.0 * math.pi / math.sqrt(3.0)) < 1e-14

    d = homogeneous_oracle("hyperbolic", 0.5)
    assert not d.exists_contractible
    assert d.curve_type == "boundary_arc"
    assert abs(d.boundary_angle - math.acos(0.5)) < 1e-15

    d = homogeneous_oracle("hyperbolic", 1.0)
    assert not d.exists_contractible
    assert d.curve_type == "horocycle"


def _shoot(system, s, seed):
    k = energy_of_s(s)
    return shoot_periodic(system, k, seed), k


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 4.0])
def test_shooting_torus(s):
    system = _torus_system()
    orbit, k = _shoot(system, s, TangentState(0, 0.1, 0.2, 0.0, 1.0))
    oracle = homogeneous_oracle("flat_torus", s)
    assert abs(orbit.period - oracle.period) < 1e-9
    assert abs(orbit_radius(system, orbit) - oracle.radius) < 1e-7
    assert orbit_curvature_residual(system, orbit) < 1e-6
    assert orbit.winding == (0, 0)
    assert orbit.contractible


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_shooting_sphere(s):
    system = MagneticSystem(RoundSphere(), ConstantField(1.0))
    oracle = homogeneous_oracle("sphere", s)
    rc = math.tan(oracle.radius / 2.0)
    orbit, k = _shoot(system, s, TangentState(0, 1.1 * rc, 0.0, 0.0, 1.0))
    assert abs(orbit.period - oracle.period) < 1e-9
    assert abs(orbit_radius(system, orbit) - oracle.radius) < 1e-6
    assert orbit_curvature_residual(system, orbit) < 1e-6


@pytest.mark.parametrize("s", [1.5, 2.0, 4.0])
def test_shooting_hyperbolic(s):
    system = MagneticSystem(HyperbolicPlane(genus=2), ConstantField(1.0))
    oracle = homogeneous_oracle("hyperbolic", s)
    r = oracle.radius
    seed = TangentState(0, 0.9 * math.sinh(r), math.cosh(r), 0.0, 1.0)
    orbit, k = _shoot(system, s, seed)
    assert abs(orbit.period - oracle.period) < 1e-9
    assert abs(orbit_radius(system, orbit) - oracle.radius) < 1e-6
    assert orbit_curvature_residual(system, orbit) < 1e-6


def _off_circle_seed(kind, radius, f):
    """Chart point at geodesic distance radius from the point (0, 0) of
    the sphere, (0.5, 0.5) of the flat torus or i of the half-plane, moving
    tangentially the way f turns."""
    if kind == "sphere":
        u, v = math.tan(0.5 * radius), 0.0
    elif kind == "flat_torus":
        u, v = 0.5 + radius, 0.5
    else:
        u, v = math.sinh(radius), math.cosh(radius)
    return TangentState(0, u, v, 0.0, 1.0 if f > 0 else -1.0)


@pytest.mark.parametrize("kind,surface,kappa_lo", [
    ("sphere", RoundSphere(), 0.5),
    ("flat_torus", FlatTorus(), 0.5),
    ("hyperbolic", HyperbolicPlane(genus=2), 1.2)])
@given(f=st.floats(0.5, 2.0), sign=st.sampled_from([1, -1]),
       kappa=st.floats(0.0, 1.0), off=st.floats(0.03, 0.15),
       outside=st.booleans())
@settings(max_examples=10, deadline=None)
def test_shoot_period_matches_oracle(kind, surface, kappa_lo, f, sign, kappa,
                                     off, outside):
    """For a constant field f and kappa = s |f| in [kappa_lo, 4], a shoot
    seeded 3-15 % off the oracle's circle radius finds the oracle's period
    to 1e-9."""
    f *= sign
    kappa = kappa_lo + kappa * (4.0 - kappa_lo)
    s = kappa / abs(f)
    oracle = homogeneous_oracle(kind, s, f)
    radius = (1.0 + off if outside else 1.0 - off) * oracle.radius
    system = MagneticSystem(surface, ConstantField(f))
    orbit, _ = _shoot(system, s, _off_circle_seed(kind, radius, f))
    assert abs(orbit.period - oracle.period) < 1e-9


@pytest.mark.parametrize("kind,surface,kappa_lo", [
    ("sphere", RoundSphere(), 0.5),
    ("flat_torus", FlatTorus(), 0.5),
    ("hyperbolic", HyperbolicPlane(genus=2), 1.2)])
@given(f=st.floats(0.5, 1.0), c=st.floats(0.5, 2.0),
       kappa=st.floats(0.0, 1.0), off=st.floats(0.03, 0.15))
@settings(max_examples=4, deadline=None)
def test_shoot_depends_on_kappa_only(kind, surface, kappa_lo, f, c, kappa,
                                     off):
    """Shoots at (s, f) and (c s, f / c), kappa = s f in [kappa_lo, 3],
    from one seed find one circle: the same radius, and periods in the
    ratio c.  Both speeds 1 / s stay at most 2 / kappa: RK4's period
    error at dt 1e-3 grows like s^-5 (5e-11 in period / s at s = 0.25,
    kappa = 1/2, on the sphere)."""
    kappa = kappa_lo + kappa * (3.0 - kappa_lo)
    s = kappa / f
    seed = _off_circle_seed(
        kind, (1.0 + off) * homogeneous_oracle(kind, s, f).radius, f)
    found = []
    for s_, f_ in ((s, f), (c * s, f / c)):
        system = MagneticSystem(surface, ConstantField(f_))
        orbit, _ = _shoot(system, s_, seed)
        found.append((orbit.period / s_, orbit_radius(system, orbit)))
    (p1, r1), (p2, r2) = found
    assert abs(p1 - p2) < 1e-9
    assert abs(r1 - r2) < 1e-7


def test_shooting_subcritical_hyperbolic_fails():
    """Below the critical speed no contractible orbit exists; the shooter
    reports no return instead of inventing one."""
    system = MagneticSystem(HyperbolicPlane(genus=2), ConstantField(1.0))
    k = energy_of_s(0.8)
    with pytest.raises(NoReturnError):
        shoot_periodic(system, k, TangentState(0, 0.0, 1.0, 1.0, 0.0),
                       max_time=40.0)


def test_flat_geodesic_winding():
    """With no field the (1,0) lattice geodesic closes up with the right
    winding and period."""
    from magsurf.flow import Section
    system = MagneticSystem(FlatTorus(), ConstantField(0.0))
    k = 0.5   # unit speed
    section = Section(coord=0, value=0.0, direction=1, wrap=1.0, chart=0)
    orbit = shoot_periodic(system, k, TangentState(0, 0.0, 0.3, 1.0, 0.0),
                           section=section)
    assert orbit.winding == (1, 0)
    assert not orbit.contractible
    assert abs(orbit.period - 1.0) < 1e-9


def _cosine_system():
    amp = 2.0 * math.pi
    return MagneticSystem(FlatTorus(), TorusField(
        lambda x, y: amp * np.cos(2.0 * np.pi * x))), amp


@pytest.mark.parametrize("s,off", [(1.71, 0.06), (1.89, -0.10),
                                   (2.09, 0.10)])
def test_cosine_shoot_converges_at_default_tol(s, off):
    """Seeded off the curvature radius about x = 0, the symmetric orbit of
    the cosine field converges at SHOOT_TOL: with exact section landings
    the return map's noise floor lies well below it."""
    system, amp = _cosine_system()
    seed = TangentState(0, (1.0 + off) / (s * amp), 0.5, 0.0, 1.0)
    orbit = shoot_periodic(system, energy_of_s(s), seed)
    assert orbit.residual <= SHOOT_TOL
    assert orbit_curvature_residual(system, orbit) < 1e-6


def test_line_search_rejects_candidate_without_return():
    """From this seed the full Newton step proposes a state that never
    recrosses the section; the line search halves the step instead of
    aborting and finds the contractible orbit."""
    system, _ = _cosine_system()
    orbit = shoot_periodic(system, energy_of_s(1.8),
                           TangentState(0, 0.5, 0.1, 0.0, 1.0), tol=1e-9)
    assert orbit.winding == (0, 0)
    assert orbit_curvature_residual(system, orbit) < 1e-6


def _cosine_seed(s=1.8):
    """A state 10 % off the curvature radius about x = 0, where Newton
    moves the seed."""
    system, amp = _cosine_system()
    return system, energy_of_s(s), TangentState(0, 1.1 / (s * amp), 0.5,
                                                0.0, 1.0)


def test_shoot_reports_stalled_line_search(monkeypatch):
    """When all 20 halvings of the line search fail (here every candidate
    return, looked for within twice the last return time, finds no
    crossing), the shoot raises NoConvergenceError naming the stall
    instead of handing back an unrefined orbit: after the seed's return,
    two finite-difference returns and 20 candidates."""
    real, asked = orbits.poincare_return, []

    def no_candidate_returns(*args, max_time, **kwargs):
        asked.append(max_time)
        if max_time < 200.0:
            raise NoReturnError("no return")
        return real(*args, max_time=max_time, **kwargs)

    monkeypatch.setattr(orbits, "poincare_return", no_candidate_returns)
    with pytest.raises(NoConvergenceError, match="line search stalled"):
        shoot_periodic(*_cosine_seed())
    assert len(asked) == 1 + 2 + 20


def test_shoot_reports_residual_after_max_iter(monkeypatch):
    """A shoot still above tol after SHOOT_MAX_ITER Newton steps raises
    NoConvergenceError with its residual and step count: one step does not
    carry this seed to 1e-10."""
    monkeypatch.setattr(orbits, "SHOOT_MAX_ITER", 1)
    with pytest.raises(NoConvergenceError,
                       match=r"^shooting residual \S+ after 1 steps$"):
        shoot_periodic(*_cosine_seed())


def test_sphere_shoot_at_coarse_dt_meets_oracle():
    """The sphere's constant-field circle from (0.5, 0), heading 0, at
    tol 1e-10 and dt = 0.01, where a Newton on RK4 at dt stalled at that
    step's own error (4.0e-9): the shoot is order 8 throughout, so its
    period is the oracle's to 1e-12, and dt only spaces the samples."""
    system = MagneticSystem(RoundSphere(), ConstantField(1.0))
    orbit = shoot_periodic(system, energy_of_s(1.0),
                           TangentState(0, 0.5, 0.0, 1.0, 0.0), tol=1e-10,
                           dt=0.01)
    assert abs(orbit.period - homogeneous_oracle("sphere", 1.0).period) \
        < 1e-12
    traj = orbit.trajectory
    assert traj.dt == 0.01
    assert np.array_equal(traj.t, np.arange(len(traj.t)) * 0.01)
    assert abs(traj.t[-1] - orbit.period) <= 0.005


def _count_returns(monkeypatch):
    """A list that the shoot's Poincare returns extend by their start
    states, one per return, in turn."""
    real, starts = orbits.poincare_return, []

    def counted(system, section, state0, **kwargs):
        starts.append(state0)
        return real(system, section, state0, **kwargs)

    monkeypatch.setattr(orbits, "poincare_return", counted)
    return starts


def _cosine_template(sign, s, off):
    """The perfbench cosine shoot (CLI field type cosine, amplitude 2 pi)
    without its jitter: the symmetric orbit about x = 0 (sign 1) or
    x = 1/2 (sign -1), seeded the fraction off off its curvature radius."""
    amp = 2.0 * math.pi
    x0 = (0.0 if sign > 0 else 0.5) + (1.0 + off) / (s * amp)
    return (MagneticSystem(FlatTorus(), CosineField(amp)), energy_of_s(s),
            TangentState(0, x0, 0.5, 0.0, float(sign)))


def test_constant_field_shoot_is_one_order8_return(monkeypatch):
    """A seed on a constant-field circle is periodic as it stands: the
    shoot is its order-8 return and nothing else, and its trajectory
    comes from that return's steps."""
    starts = _count_returns(monkeypatch)
    orbit = shoot_periodic(_torus_system(), energy_of_s(2.0),
                           TangentState(0, 0.1, 0.2, 0.0, 1.0))
    assert starts == [orbit.seed]
    assert len(orbit.trajectory.t) == round(orbit.period / 1e-3) + 1


@pytest.mark.parametrize("sign,s,off", [(1, 1.8, 0.12), (-1, 2.2, -0.08)])
def test_cosine_shoot_newton_runs_on_order8_map(monkeypatch, sign, s, off):
    """perfbench's two cosine templates at their tol 1e-9: Newton on the
    order-8 map from the seed, at least one step of it (the seed's return,
    two finite-difference returns, a candidate), ending at the accepted
    return's start; the recorded orbit, by dense output from that
    return's steps, has curvature s f to 1e-7 (perfbench checks 1e-6)."""
    starts = _count_returns(monkeypatch)
    system, k, seed = _cosine_template(sign, s, off)
    orbit = shoot_periodic(system, k, seed, tol=1e-9)
    assert len(starts) >= 4 and orbit.seed in starts[3:]
    assert orbit.residual <= 1e-9
    assert orbit_curvature_residual(system, orbit) <= 1e-7


@given(s=st.floats(1.7, 2.3), off=st.floats(0.05, 0.15),
       inside=st.booleans(), sign=st.sampled_from([1, -1]))
@settings(max_examples=10, deadline=None)
def test_cosine_shoot_reports_order8_residual(s, off, inside, sign):
    """Cosine seeds 5-15 % off the curvature radius converge at SHOOT_TOL,
    and the orbit's period and residual are those of the order-8 return
    from its seed (the residual up to the rounding of the seed's velocity
    angle)."""
    system, k, seed = _cosine_template(sign, s, -off if inside else off)
    orbit = shoot_periodic(system, k, seed)
    assert orbit.residual <= SHOOT_TOL
    hit, t = poincare_return(system, orbit.section, orbit.seed)
    x, out = (orbits._reduced(orbit.section, state)
              for state in (orbit.seed, hit))
    res = math.hypot(out[0] - x[0], orbits._wrap_angle(out[1] - x[1]))
    assert t == orbit.period
    assert abs(orbit.residual - res) <= 1e-15


@pytest.mark.parametrize("kind,surface,kappa_lo", [
    ("sphere", RoundSphere(), 0.5),
    ("flat_torus", FlatTorus(), 0.5),
    ("hyperbolic", HyperbolicPlane(genus=2), 1.2)])
@given(s=st.floats(0.6, 4.0), f=st.floats(0.5, 2.0),
       sign=st.sampled_from([1, -1]), off=st.floats(-0.15, 0.15))
@settings(max_examples=8, deadline=None)
def test_untraced_shoot_matches_oracle_and_rk4(kind, surface, kappa_lo, s, f,
                                               sign, off):
    """The shoot makes no trajectory until one is read: at a constant field
    with a contractible circle (kappa = s |f| raised to kappa_lo where it
    is below), its period is within 1e-11 of the oracle's, and the
    trajectory, made on the first read, is RK4's from the orbit's seed at
    dt: the same times and charts, q to 1e-10 and q' to 1e-9."""
    f = sign * max(s * f, kappa_lo) / s
    oracle = homogeneous_oracle(kind, s, f)
    system = MagneticSystem(surface, ConstantField(f))
    seed = _off_circle_seed(kind, (1.0 + off) * oracle.radius, f)
    orbit = shoot_periodic(system, energy_of_s(s), seed)
    assert abs(orbit.period - oracle.period) < 1e-11
    assert orbit.residual <= SHOOT_TOL
    assert callable(orbit.recorded)
    traj = orbit.trajectory
    ref = integrate(system, orbit.seed, orbit.period, traj.dt)
    assert np.array_equal(traj.t, ref.t)
    assert np.array_equal(traj.chart, ref.chart)
    assert np.abs(traj.q - ref.q).max() <= 1e-10
    assert np.abs(traj.dq - ref.dq).max() <= 1e-9


@pytest.mark.parametrize("kind,surface", [
    ("sphere", RoundSphere()), ("flat_torus", FlatTorus()),
    ("hyperbolic", HyperbolicPlane(genus=2))])
@given(s=st.floats(0.02, 0.3), f=st.floats(0.5, 2.0),
       kappa=st.floats(1.2, 4.0), sign=st.sampled_from([1, -1]),
       heading=st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=8, deadline=None)
def test_fast_shoot_meets_oracle(kind, surface, s, f, kappa, sign, heading):
    """At speeds 1 / s from 3.3 to 50, where steps of MACRO_STEP would
    cross too much of the sphere or the half-plane for the energy gate,
    a return's steps span CELL_STEP of the surface's scale: a constant-
    field shoot from the chart origin (i on the half-plane, where
    f = kappa / s gives a circle) at any heading finds the oracle's
    period to 1e-11."""
    f = sign * (kappa / s if kind == "hyperbolic" else f)
    seed = TangentState(0, 0.0, 1.0 if kind == "hyperbolic" else 0.0,
                        math.cos(heading), math.sin(heading))
    orbit, _ = _shoot(MagneticSystem(surface, ConstantField(f)), s, seed)
    assert abs(orbit.period - homogeneous_oracle(kind, s, f).period) < 1e-11


@pytest.mark.parametrize("trajectory", [False, True])
def test_wrapped_section_winding_on_both_paths(trajectory):
    """The cosine field's vertical orbit at x = 1/4, where f = 0, shot
    through the section v = 1/2 wrapped at the lattice period, closes
    after one lattice translation in v, whether or not its trajectory is
    read; read, the trajectory runs from the seed up that translation."""
    from magsurf.flow import Section
    system, _ = _cosine_system()
    orbit = shoot_periodic(system, energy_of_s(1.0),
                           TangentState(0, 0.25, 0.5, 0.0, 1.0),
                           section=Section(coord=1, value=0.5, wrap=1.0))
    assert orbit.winding == (0, 1)
    assert not orbit.contractible
    assert abs(orbit.period - 1.0) < 1e-9
    assert callable(orbit.recorded)
    if trajectory:
        q = orbit.trajectory.q
        assert np.abs(q[-1] - q[0] - (0.0, 1.0)).max() < 1e-9


@pytest.mark.xfail(strict=True, raises=NoReturnError,
                   reason="every crossing of the default section lies in "
                   "the other sphere chart")
def test_sphere_shoot_whose_crossings_lie_in_the_other_chart():
    """The seed (0, 1) in chart 0 with heading 0.178 (f = 0.9496,
    s = 2.0846) lies on a circle of period 5.906.  Its default section
    {u = 0} is in chart 0, but the orbit passes the switch radius into
    chart 1 and stays there, so the section is never crossed.  The shoot
    should still find the circle."""
    f, s = 0.9496, 2.0846
    system = MagneticSystem(RoundSphere(), ConstantField(f))
    seed = TangentState(0, 0.0, 1.0, math.cos(0.178), math.sin(0.178))
    orbit = shoot_periodic(system, energy_of_s(s), seed)
    assert orbit.residual <= SHOOT_TOL
    assert abs(orbit.period - homogeneous_oracle("sphere", s, f).period) \
        < 1e-9


@pytest.mark.xfail(strict=True, reason="single shooting lands on another "
                   "orbit, of period 56.252528 (ROADMAP item 2)")
def test_shoot_from_evolved_boundary_finds_its_orbit():
    """Criterion 07's evolved boundary of the bump-field disc (s = 32) is
    the circle 1/r = s (2 exp(-r^2 / w^2) - 1), r* = 0.18293392, of period
    2 pi r* s = 36.781046.  The orbit shot from it lies within 1e-3 of the
    boundary, with that period to 1e-3."""
    w = 0.25

    def f(x, y):
        return 1.0 - 2.0 * np.exp(-(((x - 0.5) ** 2 + (y - 0.5) ** 2)
                                    / w ** 2))

    system = MagneticSystem(FlatTorus(), TorusField(f))
    k = energy_of_s(32.0)
    ang = 2.0 * math.pi * np.arange(128) / 128
    curve = regions.RegionCurve(np.column_stack(
        [0.5 + 0.2 * np.cos(ang), 0.5 + 0.2 * np.sin(ang)]))
    res = regions.evolve_minimize(
        system, k, regions.Region([curve], -1),
        regions.EvolveParams(tol=1e-3, spacing=0.01, max_iter=40000))
    boundary = res.region.curves[0]
    seed = regions.state_from_curve(system, k, boundary, -1)
    orbit = shoot_periodic(system, k, seed)
    center, radius = fit_circle(boundary.vertices)
    dist = np.hypot(*(orbit.trajectory.q - center).T)
    assert abs(orbit.period - 36.781046) < 1e-3
    assert np.abs(dist - radius).max() < 1e-3


def _shot_trajectory_cases():
    amp = 2.0 * math.pi
    s_cos = 1.8
    r = 1.0 / (s_cos * amp)
    hyp_r = homogeneous_oracle("hyperbolic", 2.0).radius
    x = np.arange(16) / 16
    grid = 0.1 * np.cos(2 * np.pi * x)[:, None] \
        * np.sin(2 * np.pi * x + 0.3)[None, :]
    return [
        # a wide circle on the sphere, through both charts
        (MagneticSystem(RoundSphere(), ConstantField(0.2)), 1.0,
         TangentState(0, 0.0, 0.05, 1.0, 0.1), SHOOT_TOL),
        (MagneticSystem(HyperbolicPlane(genus=2), ConstantField(1.0)), 2.0,
         TangentState(0, 0.9 * math.sinh(hyp_r), math.cosh(hyp_r), 0.0,
                      1.0), SHOOT_TOL),
        # seeded 10 % off the curvature radius: Newton moves the seed
        (MagneticSystem(FlatTorus(), TorusField(
            lambda x, y: amp * np.cos(2.0 * np.pi * x))), s_cos,
         TangentState(0, 1.1 * r, 0.5, 0.0, 1.0), 1e-9),
        # a circle of radius about 1/8 over the spline's 1/16 cells: the
        # step line binds i, j, the cell of each stage point
        (MagneticSystem(ConformalTorus(grid), ConstantField(8.0)), 1.0,
         TangentState(0, 0.4, 0.5, 0.0, 1.0), SHOOT_TOL),
    ]


@pytest.mark.parametrize("system,s,seed,tol", _shot_trajectory_cases(),
                         ids=["sphere", "hyperbolic", "cosine", "conformal"])
def test_shot_trajectory_is_integrated_orbit(system, s, seed, tol):
    """The orbit's trajectory, the dense output of the accepted order-8
    return's steps, is what integrating the orbit's seed over its period
    at dt gives: the same times and charts (both sphere charts on the wide
    circle), q to 1e-10 and q' to 1e-9; on the cosine field its curvature
    is s f to 1e-7."""
    k = energy_of_s(s)
    orbit = shoot_periodic(system, k, seed, tol=tol)
    traj = orbit.trajectory
    ref = integrate(system, orbit.seed, orbit.period, traj.dt)
    assert np.array_equal(traj.t, ref.t)
    assert np.array_equal(traj.chart, ref.chart)
    assert np.abs(traj.q - ref.q).max() <= 1e-10
    assert np.abs(traj.dq - ref.dq).max() <= 1e-9
    assert traj.dt == ref.dt and not traj.truncated
    if system.surface.n_charts == 2:
        assert set(traj.chart.tolist()) == {0, 1}
    if isinstance(system.field, TorusField):
        # the accepted return is a line-search candidate, not the seed's
        assert orbit.seed != state_at_energy(system, seed, k)
        assert orbit_curvature_residual(system, orbit) <= 1e-7


@pytest.mark.parametrize("dt", [1.3e-3, 0.007])
def test_dense_trajectory_at_a_dt_not_dividing_the_step(dt):
    """dt only spaces the samples: where it does not divide MACRO_STEP
    (each step holds them at other offsets), and at 7 dt (where RK4 at dt
    is off by 1e-8), the samples are integrate's at dt / 10 to the bounds
    of test_shot_trajectory_is_integrated_orbit."""
    system, k, seed = _cosine_template(1, 1.8, 0.12)
    orbit = shoot_periodic(system, k, seed, tol=1e-9, dt=dt)
    traj = orbit.trajectory
    fine = integrate(system, orbit.seed, traj.t[-1], dt / 10,
                     record_every=10)
    assert len(traj.t) == len(fine.t)
    assert np.allclose(traj.t, fine.t, rtol=0.0, atol=1e-12)
    assert np.abs(traj.q - fine.q).max() <= 1e-10
    assert np.abs(traj.dq - fine.dq).max() <= 1e-9


# FOUND 87's spline orbits at s = 1 from (0.5, 0.5), heading 0, and their
# periods from RK4 at dt = 1e-4 (dt = 2.5e-4 agrees to 1e-13)
def _spline_orbit_cases():
    x = np.arange(16) / 16
    rho = 0.1 * np.cos(2 * np.pi * (x[:, None] + 0.3)) \
        * np.sin(2 * np.pi * x[None, :])
    field = 8.0 + np.cos(2 * np.pi * x[:, None]) \
        + 0.5 * np.sin(2 * np.pi * (x[:, None] + x[None, :]))
    return [(MagneticSystem(ConformalTorus(rho), ConstantField(8.0)),
             0.78549659961005),
            (MagneticSystem(FlatTorus(), TorusField(
                PeriodicBicubic(field, 1.0, 1.0))), 0.836592546581067)]


@pytest.mark.parametrize("system,period", _spline_orbit_cases(),
                         ids=["conformal", "csv"])
def test_spline_orbit_periods_meet_fine_reference(system, period):
    """On C^2 bicubic data the order-8 step falls to order about 4, so it
    spans at most CELL_STEP of a cell: the numbers golden's conformal-torus
    orbit and a csv field's orbit come within 1e-11 of their fine
    periods (RK4 at the default dt is off by 2.7e-11 and 2.2e-11)."""
    orbit = shoot_periodic(system, energy_of_s(1.0),
                           TangentState(0, 0.5, 0.5, 1.0, 0.0))
    assert abs(orbit.period - period) < 1e-11


def test_fit_circle_exact():
    ang = np.linspace(0, 2 * np.pi, 40, endpoint=False)
    pts = np.column_stack([1.5 + 0.3 * np.cos(ang), -0.2 + 0.3 * np.sin(ang)])
    center, r = fit_circle(pts)
    assert abs(center[0] - 1.5) < 1e-12
    assert abs(center[1] + 0.2) < 1e-12
    assert abs(r - 0.3) < 1e-12


# ------------------------------------------------- discrete action descent

def _fd_gradient(system, k, loop, h=1e-6):
    """Central differences of discrete_action in every vertex coordinate
    and in the period, with the primitive built once."""
    prim = local_primitive(system, loop.winding != (0, 0))

    def action(verts, period):
        return discrete_action(system, k, dataclasses.replace(
            loop, vertices=verts, period=period), prim)

    flat = loop.vertices.ravel()
    fd = np.empty(flat.size + 1)
    for j in range(flat.size):
        step = np.zeros(flat.size)
        step[j] = h
        fd[j] = (action((flat + step).reshape(-1, 2), loop.period)
                 - action((flat - step).reshape(-1, 2), loop.period)) / (2 * h)
    fd[-1] = (action(loop.vertices, loop.period + h)
              - action(loop.vertices, loop.period - h)) / (2 * h)
    return fd


def _gradient(system, k, loop):
    gv, gt = discrete_action_gradient(system, k, loop)
    return np.concatenate([gv.ravel(), [gt]])


def test_action_gradient_matches_finite_differences():
    """On the flat torus with f = 1 the primitive is linear, so the Gauss
    rule is exact and the swept-area gradient is the derivative of the
    action."""
    system = _torus_system()
    k = energy_of_s(2.0)
    for _ in range(10):
        n = 24
        base = circle_loop((0.5, 0.5), 0.3, n, 5.0)
        verts = base.vertices + 0.02 * RNG.normal(size=(n, 2))
        loop = DiscreteLoop(vertices=verts, period=5.0 + RNG.uniform(-1, 1),
                            winding=(0, 0))
        g = _gradient(system, k, loop)
        fd = _fd_gradient(system, k, loop)
        scale = max(1.0, np.max(np.abs(fd)))
        assert np.max(np.abs(g - fd)) / scale < 1e-6


def _bump(x, y):
    return 1.0 - 2.0 * np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.0625)


@pytest.mark.parametrize("system,center,r0", [
    (MagneticSystem(RoundSphere(), ConstantField(1.0)), (0.2, 0.1), 0.5),
    (MagneticSystem(FlatTorus(), TorusField(_bump)), (0.5, 0.5), 0.3)],
    ids=["sphere", "bump"])
def test_action_gradient_converges_to_finite_differences(system, center, r0):
    """Where the Gauss rule is not exact for the primitive, the swept-area
    gradient and the derivative of discrete_action differ by the
    derivative of the rule's error; on the loop r(t) = r0 (1 + 0.15 cos 3t)
    that mismatch falls at least 12 times per doubling of the vertices."""
    k = energy_of_s(1.0)
    errs = []
    for n in (16, 32, 64):
        t = 2.0 * np.pi * np.arange(n) / n
        r = r0 * (1.0 + 0.15 * np.cos(3.0 * t))
        loop = DiscreteLoop(vertices=np.column_stack(
            [center[0] + r * np.cos(t), center[1] + r * np.sin(t)]),
            period=1.3)
        errs.append(np.max(np.abs(_gradient(system, k, loop)
                                  - _fd_gradient(system, k, loop))))
    assert errs[0] > 12.0 * errs[1] > 144.0 * errs[2]


def test_winding_loop_gradient_matches_finite_differences():
    """A loop winding once around the torus over the cosine field, whose
    primitive is periodic, has a gradient that matches finite differences
    of its action to 1e-6 relative at 64 vertices."""
    system = MagneticSystem(FlatTorus(), TorusField(
        lambda x, y: 2.0 * np.pi * np.cos(2.0 * np.pi * x)))
    t = np.arange(64) / 64
    loop = DiscreteLoop(vertices=np.column_stack(
        [0.3 + 0.1 * np.sin(2.0 * np.pi * t), t]), period=1.3,
        winding=(0, 1))
    k = energy_of_s(1.0)
    fd = _fd_gradient(system, k, loop)
    g = _gradient(system, k, loop)
    assert np.max(np.abs(g - fd)) < 1e-6 * np.max(np.abs(fd))


# Reference copies of the action gradient as it was first written: a
# midpoint pass, the Gauss nodes from a second padding of the loop, two
# column_stacks and np.roll, and T* from loop_l2_energy's own pass.

def _midpoint_data_reference(system, loop):
    x, nxt = loop.edges(system.surface)
    m = 0.5 * (x + nxt)
    rho, ru, rv = system.surface.conformal(loop.chart, m[:, 0], m[:, 1])
    return nxt - x, np.asarray(rho, float), ru, rv


def _gauss_nodes_reference(pts):
    mids = 0.5 * (pts[:-1] + pts[1:])
    off = np.diff(pts, axis=0) / (2.0 * math.sqrt(3.0))
    return mids - off, mids + off


def _gradient_reference(system, k, loop):
    c = orbits.GAUSS_C
    h, t = 1.0 / loop.n, loop.period
    d, rho, ru, rv = _midpoint_data_reference(system, loop)
    lam2 = np.exp(2.0 * rho)
    d2 = np.sum(d * d, axis=1)
    a, b = _gauss_nodes_reference(loop.padded(system.surface)[:, 1:].T)
    sigma = system.form_density(loop.chart, *np.concatenate([a, b]).T)
    sa, sb = sigma[:loop.n, None], sigma[loop.n:, None]
    bend = (d2 * lam2)[:, None] * np.column_stack(
        [np.asarray(ru, float), np.asarray(rv, float)])
    pull = 2.0 * lam2[:, None] * d
    rot = 0.5 * np.column_stack([d[:, 1], -d[:, 0]])
    start = ((bend - pull) / (2.0 * h * t)
             - ((0.5 + c) * sa + (0.5 - c) * sb) * rot)
    end = ((bend + pull) / (2.0 * h * t)
           - ((0.5 - c) * sa + (0.5 + c) * sb) * rot)
    grad = start + np.roll(end, 1, axis=0)
    dT = k - float(np.sum(lam2 * d2)) / (2.0 * h * t * t)
    return grad, dT


def _l2_energy_reference(system, loop):
    d, rho, _, _ = _midpoint_data_reference(system, loop)
    h = 1.0 / loop.n
    return float(np.sum(np.exp(2.0 * rho) * np.sum(d * d, axis=1)) / h)


def _at_t_star_reference(system, k, loop):
    energy = _l2_energy_reference(system, loop)
    if energy == 0.0:
        raise DegenerateInputError("collapsed loop: no period T*")
    return dataclasses.replace(loop, period=math.sqrt(energy / (2.0 * k)))


def _gradient_systems():
    x = np.arange(32) / 32
    conformal = ConformalTorus(0.1 * np.cos(2.0 * np.pi * (x[:, None] + 0.3))
                               * np.sin(2.0 * np.pi * x[None, :]))
    wavy = CallableField(lambda c, u, v: 1.0 + 0.4 * np.sin(3.0 * u - c)
                         * np.cos(2.0 * v))
    # system, centre and largest radius of a contractible chart-0 loop
    return {
        "flat_torus": (MagneticSystem(FlatTorus(), CosineField(2.0 * np.pi)),
                       (0.5, 0.5), 0.3),
        "conformal_torus": (MagneticSystem(conformal, TorusField(_bump)),
                            (0.5, 0.5), 0.3),
        "sphere": (MagneticSystem(RoundSphere(), wavy), (0.1, -0.1), 0.8),
        "hyperbolic": (MagneticSystem(HyperbolicPlane(genus=2), wavy),
                       (0.0, 1.2), 0.5)}


GRADIENT_SYSTEMS = _gradient_systems()


def _star_loop(rng, centre, radius, winds, chart):
    """A random star-shaped contractible loop about the centre, or on a
    torus when winds a random graph x(y) winding once in y; either way in
    random orientation, with a random period."""
    n = int(rng.integers(3, 300))
    jitter = (np.arange(n) + rng.uniform(0.05, 0.95, n)) / n
    if winds:
        wave = rng.uniform(-0.1, 0.1, 3)
        xs = (0.5 + wave[0] * np.sin(2.0 * np.pi * (jitter + wave[1]))
              + wave[2] * rng.uniform(-0.2, 0.2, n))
        verts, winding = np.column_stack([xs, jitter]), (0, 1)
    else:
        ang = 2.0 * np.pi * jitter
        r = radius * rng.uniform(0.05, 1.0) * rng.uniform(0.6, 1.0, n)
        verts = np.column_stack([centre[0] + r * np.cos(ang),
                                 centre[1] + r * np.sin(ang)])
        winding = (0, 0)
    if rng.random() < 0.5:
        verts, winding = verts[::-1].copy(), (-winding[0], -winding[1])
    return DiscreteLoop(vertices=verts, period=rng.uniform(0.1, 20.0),
                        chart=chart, winding=winding)


def _same_bits(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@given(seed=st.integers(0, 2 ** 32 - 1),
       name=st.sampled_from(sorted(GRADIENT_SYSTEMS)), winds=st.booleans(),
       chart=st.integers(0, 1), k=st.floats(0.01, 5.0))
@settings(max_examples=80, deadline=None)
def test_gradient_matches_first_formulas_bit_for_bit(seed, name, winds,
                                                     chart, k):
    """discrete_action_gradient gives every float of the reference copies
    above, at the loop's period and at T* (where it returns T* itself, as
    the reference's loop carries it), on random star-shaped loops,
    contractible and (on the tori) winding, on all four surfaces and both
    sphere charts; loop_l2_energy too.  Collapsed to a point, a loop has
    no T*, and asking for it raises."""
    system, centre, radius = GRADIENT_SYSTEMS[name]
    rng = np.random.default_rng(seed)
    loop = _star_loop(rng, centre, radius,
                      winds and system.surface.lattice is not None,
                      chart if system.surface.n_charts == 2 else 0)
    got, want = (discrete_action_gradient(system, k, loop),
                 _gradient_reference(system, k, loop))
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
    assert _same_bits(loop_l2_energy(system, loop),
                      _l2_energy_reference(system, loop))
    star = _at_t_star_reference(system, k, loop)
    got = discrete_action_gradient(system, k, loop, t_star=True)
    assert _same_bits(got[0], _gradient_reference(system, k, star)[0])
    assert _same_bits(got[1], star.period)
    point = dataclasses.replace(loop, winding=(0, 0), vertices=np.broadcast_to(
        loop.vertices[0], loop.vertices.shape))
    with pytest.raises(DegenerateInputError, match="no period T"):
        discrete_action_gradient(system, k, point, t_star=True)


def test_constant_loop_action():
    """A loop collapsed to a point has action k T (pure energy term)."""
    system = _torus_system()
    k = 0.125
    loop = DiscreteLoop(vertices=np.tile([0.3, 0.4], (16, 1)), period=3.0,
                        winding=(0, 0))
    assert abs(discrete_action(system, k, loop) - k * 3.0) < 1e-14


@given(st.integers(min_value=3, max_value=40),
       st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=50, deadline=None)
def test_length_energy_inequality(n, period):
    """Discrete Cauchy-Schwarz: length^2 <= 2 T^2 mean-energy, i.e.
    ell^2 <= n * sum of squared segment lengths."""
    system = _torus_system()
    verts = 0.2 * np.cos(2 * np.pi * np.arange(n) / n)[:, None] \
        * np.ones((1, 2)) + 0.1 * np.sin(np.arange(n))[:, None]
    loop = DiscreteLoop(vertices=verts + 0.5, period=period, winding=(0, 0))
    ell = curve_length(system, loop)
    e = loop_l2_energy(system, loop)
    assert e >= 0.0
    # mean energy is e / (2 T^2); the inequality reads ell^2 <= n e
    assert abs(loop_mean_energy(system, loop) - e / (2.0 * period ** 2)) \
        < 1e-12 * max(1.0, e / period ** 2)
    assert ell ** 2 <= n * e * (1.0 + 1e-12)


def test_descent_finds_torus_orbit():
    """The Newton-Krylov solve from a nearby circle converges to the
    circular orbit with the oracle period and mean energy k."""
    system = _torus_system()
    s = 2.0
    k = energy_of_s(s)
    loop = circle_loop((0.5, 0.5), 0.42, 256, 5.5)
    res = descend_to_critical(system, k, loop)
    assert res.outcome == "converged"
    oracle = homogeneous_oracle("flat_torus", s)
    # residual discretization error at 256 vertices is a few 1e-4
    assert abs(res.loop.period - oracle.period) < 5e-4
    assert abs(loop_mean_energy(system, res.loop) - k) < 1e-6
    center, r = fit_circle(res.loop.vertices)
    assert abs(r - oracle.radius) < 1e-4


def test_descent_matches_shooting_on_sphere():
    """The root solve lands on the saddle the shooter finds."""
    system = MagneticSystem(RoundSphere(), ConstantField(1.0))
    s = 1.0
    k = energy_of_s(s)
    oracle = homogeneous_oracle("sphere", s)
    rc = math.tan(oracle.radius / 2.0)
    loop = circle_loop((0.0, 0.0), 1.06 * rc, 512, 1.02 * oracle.period)
    res = descend_to_critical(system, k, loop,
                              DescentParams(tol=1e-5, max_iter=50))
    assert res.outcome == "converged"
    assert res.grad_norm < 1e-5
    assert abs(res.loop.period - oracle.period) < 2e-4
    assert abs(loop_mean_energy(system, res.loop) - k) < 1e-4


def test_refinement_converges_with_resolution():
    """Doubling the vertex count moves the recovered period by less than
    the coarse discretization error."""
    system = _torus_system()
    s = 2.0
    k = energy_of_s(s)
    oracle = homogeneous_oracle("flat_torus", s)
    periods = []
    for n in (256, 512):
        loop = circle_loop((0.5, 0.5), 0.45, n, 5.8)
        res = descend_to_critical(system, k, loop)
        assert res.outcome == "converged"
        periods.append(res.loop.period)
    errs = [abs(p - oracle.period) for p in periods]
    # quadratic convergence in the vertex count: halving the spacing
    # should cut the period error by about four
    assert errs[1] < errs[0] / 3.0
    assert errs[1] < 1e-4


def test_descent_from_tiny_seed_finds_orbit():
    """A seed far smaller than the orbit still reaches the circle of
    radius 1/s."""
    system = _torus_system()
    s = 8.0
    k = energy_of_s(s)
    oracle = homogeneous_oracle("flat_torus", s)
    loop = circle_loop((0.5, 0.5), 0.01, 64, 0.02)
    res = descend_to_critical(system, k, loop)
    assert res.outcome == "converged"
    assert res.grad_norm < DescentParams().tol
    assert abs(res.loop.period - oracle.period) < 1e-2
    _, r = fit_circle(res.loop.vertices)
    assert abs(r - oracle.radius) < 1e-2


def test_descent_is_one_root_solve(monkeypatch):
    """A converging descent evaluates the action once, on the solution."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return discrete_action(*args, **kwargs)

    monkeypatch.setattr(orbits, "discrete_action", counted)
    system = _torus_system()
    loop = circle_loop((0.5, 0.5), 0.42, 256, 5.5)
    res = orbits.descend_to_critical(system, energy_of_s(2.0), loop)
    assert res.outcome == "converged"
    assert 0 < res.iterations <= DescentParams().max_iter
    assert len(calls) == 1


def test_failed_descent_returns_seed():
    """A solve that does not converge hands back the seed's vertices at the
    period T* = sqrt(E / 2k) with the reduced gradient norm there; one
    Newton-Krylov iteration does not carry this seed, 250 times smaller
    than the radius-5 orbit of s = 0.2, to the orbit."""
    system = _torus_system()
    k = energy_of_s(0.2)
    loop = circle_loop((0.5, 0.5), 0.02, 64, 0.3)
    params = DescentParams(max_iter=1)
    res = descend_to_critical(system, k, loop, params)
    assert res.outcome == "max_iter"
    assert np.array_equal(res.loop.vertices, loop.vertices)
    t_star = math.sqrt(loop_l2_energy(system, loop) / (2.0 * k))
    assert res.loop.period == pytest.approx(t_star, rel=1e-15)
    seed = DiscreteLoop(vertices=loop.vertices, period=t_star)
    g, dt = discrete_action_gradient(system, k, seed)
    assert abs(dt) < 1e-12
    assert res.grad_norm == pytest.approx(float(np.linalg.norm(g)),
                                          rel=1e-12)
    assert res.grad_norm > params.tol


def test_descent_falls_back_to_seed_when_solve_raises(monkeypatch):
    """A solve that raises a package error (here its first iterate
    collapses the loop to a point, which has no period T*) hands back the
    seed at T* with outcome max_iter and no iterations, as a solve that
    ran out of iterations does."""
    import scipy.optimize

    def collapsing_root(fun, x0, **kwargs):
        return fun(np.zeros_like(x0))

    monkeypatch.setattr(scipy.optimize, "root", collapsing_root)
    system = _torus_system()
    k = energy_of_s(0.2)
    loop = circle_loop((0.5, 0.5), 0.02, 64, 0.3)
    res = descend_to_critical(system, k, loop)
    assert res.outcome == "max_iter" and res.iterations == 0
    assert np.array_equal(res.loop.vertices, loop.vertices)
    t_star = math.sqrt(loop_l2_energy(system, loop) / (2.0 * k))
    assert res.loop.period == t_star
    g, _ = discrete_action_gradient(system, k, res.loop)
    assert res.grad_norm == float(np.linalg.norm(g))


@pytest.mark.parametrize("args", [{"tol": 0.0}, {"tol": -1.0},
                                  {"tol": math.nan}, {"max_iter": 0}])
def test_descent_params_reject_unreachable_tol_and_no_iterations(args):
    """Like EvolveParams, DescentParams refuses a tol no gradient can get
    under and a solve with no iteration."""
    with pytest.raises(DegenerateInputError, match="tol > 0"):
        DescentParams(**args)


def test_descent_from_far_seed_reaches_orbit():
    """The period-free functional carries a seed 250 times smaller than the
    orbit of s = 0.2 to the radius-5 circle of period 2 pi."""
    system = _torus_system()
    s = 0.2
    oracle = homogeneous_oracle("flat_torus", s)
    loop = circle_loop((0.5, 0.5), 0.02, 64, 0.3)
    res = descend_to_critical(system, energy_of_s(s), loop)
    assert res.outcome == "converged"
    assert abs(res.loop.period - oracle.period) < 1e-2
    _, r = fit_circle(res.loop.vertices)
    assert abs(r - oracle.radius) < 1e-2


@pytest.mark.parametrize("s,radius_factor,period_factor",
                         [(0.7, 0.9, 1.1), (1.0, 1.1, 0.9), (1.0, 0.9, 0.9)])
def test_descent_sphere_seeds_converge(s, radius_factor, period_factor):
    """Circles 10 % off the sphere orbit converge at tol 1e-6 with the
    closed-form chart primitive, to the 256-vertex discretization error of
    the period."""
    system = MagneticSystem(RoundSphere(), ConstantField(1.0))
    oracle = homogeneous_oracle("sphere", s)
    rc = math.tan(radius_factor * oracle.radius / 2.0)
    loop = circle_loop((0.0, 0.0), rc, 256, period_factor * oracle.period)
    res = descend_to_critical(system, energy_of_s(s), loop,
                              DescentParams(tol=1e-6))
    assert res.outcome == "converged"
    assert abs(res.loop.period - oracle.period) < 5e-4


def test_descent_rejects_collapsed_seed(capsys, tmp_path):
    """A seed of zero energy has no period T*: the descent raises, and
    orbit-descend exits 1."""
    system = _torus_system()
    loop = circle_loop((0.5, 0.5), 0.0, 16, 1.0)
    with pytest.raises(DegenerateInputError):
        descend_to_critical(system, energy_of_s(2.0), loop)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[surface]\nkind = flat_torus\n\n"
                   "[field]\ntype = constant\nvalue = 1.0\n\n"
                   "[run]\ns = 2.0\nradius = 0.0\nperiod = 1.0\n"
                   "n_vertices = 16\n")
    code = main(["orbit-descend", str(cfg), "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert code == 1


def test_winding_loop_needs_periodic_primitive():
    """A loop winding once around the torus has no flux term over f = 1,
    whose total flux is not zero."""
    system = _torus_system()
    n = 32
    verts = np.column_stack([np.arange(n) / n, 0.5 + 0.1 * np.sin(
        2 * np.pi * np.arange(n) / n)])
    loop = DiscreteLoop(vertices=verts, period=1.0, winding=(1, 0))
    with pytest.raises(NoGlobalPrimitiveError):
        discrete_action(system, energy_of_s(2.0), loop)


def test_winding_loop_gradient_needs_no_primitive():
    """The gradient is sigma times swept area, so it exists for a winding
    loop over f = 1; the action and the descent still need a periodic
    primitive and raise."""
    system = _torus_system()
    n = 32
    verts = np.column_stack([np.arange(n) / n, 0.5 + 0.1 * np.sin(
        2 * np.pi * np.arange(n) / n)])
    loop = DiscreteLoop(vertices=verts, period=1.0, winding=(1, 0))
    gv, _ = discrete_action_gradient(system, energy_of_s(2.0), loop)
    assert np.isfinite(gv).all()
    with pytest.raises(NoGlobalPrimitiveError):
        descend_to_critical(system, energy_of_s(2.0), loop)


def test_descent_propagates_programming_errors(monkeypatch):
    """Only package errors and scipy's ValueError end a solve as max_iter;
    a TypeError from the gradient reaches the caller."""
    calls = []

    def broken(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise TypeError("broken gradient")
        return discrete_action_gradient(*args, **kwargs)

    monkeypatch.setattr(orbits, "discrete_action_gradient", broken)
    loop = circle_loop((0.5, 0.5), 0.42, 64, 5.5)
    with pytest.raises(TypeError):
        orbits.descend_to_critical(_torus_system(), energy_of_s(2.0), loop)
