"""Time integration, energy conservation and return maps."""
import ast
import configparser
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magsurf.cli import _build_field, _build_surface
from magsurf.errors import (DegenerateInputError, DomainError, NoReturnError,
                            UnsupportedError)
from magsurf.fields import (CallableField, ConstantField, CosineField,
                            MagneticField, MagneticSystem, TorusField,
                            energy_of_s)
from magsurf import flow
from magsurf.flow import (Section, StepRecord, TangentState, _make_loop,
                          energy_of, integrate, make_rhs,
                          poincare_return, state_at_energy,
                          trajectory_curvature, trajectory_energies,
                          trajectory_speeds)
from magsurf.orbits import homogeneous_oracle
from magsurf.surfaces import (SPHERE_SWITCH_RADIUS, ConformalTorus, FlatTorus,
                              HyperbolicPlane, PeriodicBicubic, RoundSphere,
                              Surface)


def _systems():
    return [
        ("torus", MagneticSystem(FlatTorus(), ConstantField(1.0)),
         TangentState(0, 0.1, 0.2, 1.0, 0.3)),
        ("sphere", MagneticSystem(RoundSphere(), ConstantField(1.0)),
         TangentState(0, 0.3, -0.2, 0.7, 0.4)),
        ("hyperbolic", MagneticSystem(HyperbolicPlane(genus=2),
                                      ConstantField(1.0)),
         TangentState(0, 0.0, 1.0, 1.0, 0.2)),
    ]


def test_energy_drift_conformal_torus():
    """RK4 at dt 1e-3 keeps energy to 1e-9 relative over t = 20 on a
    smooth conformal torus (the padded spline's kinks gave 4.2e-9)."""
    x = np.arange(32) / 32
    grid = 0.1 * np.cos(2 * np.pi * (x[:, None] + 0.3)) \
        * np.sin(2 * np.pi * x[None, :])
    system = MagneticSystem(ConformalTorus(grid), ConstantField(1.3))
    traj = integrate(system, TangentState(0, 0.3, 0.4, 0.6, 0.2), 20.0,
                     dt=1e-3)
    energies = trajectory_energies(system, traj)
    assert np.abs(energies - energies[0]).max() / energies[0] < 1e-9


@pytest.mark.parametrize("name,system,seed",
                         _systems(), ids=[n for n, _, _ in _systems()])
def test_energy_drift_long_run(name, system, seed):
    k = energy_of_s(2.0)
    st = state_at_energy(system, seed, k)
    traj = integrate(system, st, 100.0, dt=1e-3, record_every=100)
    energies = trajectory_energies(system, traj)
    assert not traj.truncated
    assert np.max(np.abs(energies - k)) < 1e-9


def test_state_at_energy_rescales():
    system = MagneticSystem(FlatTorus(), ConstantField(1.0))
    st = state_at_energy(system, TangentState(0, 0.0, 0.0, 3.0, 4.0), 0.125)
    assert abs(energy_of(system, st) - 0.125) < 1e-15
    # direction preserved
    assert abs(st.du * 4.0 - st.dv * 3.0) < 1e-15


def test_integrator_fourth_order():
    """Global error against the exact circular orbit scales like dt^4."""
    system = MagneticSystem(FlatTorus(), ConstantField(1.0))
    s = 1.0
    k = energy_of_s(s)
    speed = math.sqrt(2.0 * k)
    t_end = 20.0

    def endpoint_error(dt):
        st = TangentState(0, 1.0 / s, 0.0, 0.0, speed)
        traj = integrate(system, st, t_end, dt=dt,
                         record_every=max(1, int(round(t_end / dt))))
        # exact solution: circle of radius 1/s around the origin
        ang = speed * s * traj.t[-1]
        exact = np.array([math.cos(ang), math.sin(ang)]) / s
        return float(np.hypot(*(traj.q[-1] - exact)))

    errs = [endpoint_error(dt) for dt in (4e-3, 2e-3, 1e-3)]
    p1 = math.log2(errs[0] / errs[1])
    p2 = math.log2(errs[1] / errs[2])
    assert 3.7 < p1 < 4.3
    assert 3.7 < p2 < 4.3


def test_unit_field_curvature_along_flow():
    """kappa = s f holds pointwise along any trajectory of the flow."""
    s = 1.5
    k = energy_of_s(s)
    system = MagneticSystem(RoundSphere(), ConstantField(1.0))
    st = state_at_energy(system, TangentState(0, 0.4, 0.0, 0.1, 1.0), k)
    traj = integrate(system, st, 5.0, dt=1e-3, record_every=5)
    kap = trajectory_curvature(system, traj)
    good = ~np.isnan(kap)
    assert good.sum() > 100
    assert np.max(np.abs(kap[good] - s)) < 1e-6


def test_speed_constant_along_flow():
    system = MagneticSystem(HyperbolicPlane(genus=2), ConstantField(1.0))
    k = energy_of_s(3.0)
    st = state_at_energy(system, TangentState(0, 0.0, 1.0, 1.0, 0.0), k)
    traj = integrate(system, st, 20.0, dt=1e-3, record_every=20)
    sp = trajectory_speeds(system, traj)
    assert np.max(np.abs(sp - math.sqrt(2.0 * k))) < 1e-9


def test_sphere_chart_switch_continuity():
    """A great circle through both charts conserves energy across the
    switch and returns near its start after period 2 pi."""
    system = MagneticSystem(RoundSphere(), ConstantField(0.0))
    k = 0.5
    st = state_at_energy(system, TangentState(0, 0.0, 0.0, 1.0, 0.0), k)
    traj = integrate(system, st, 2.0 * math.pi, dt=1e-3, record_every=1)
    assert len(np.unique(traj.chart)) == 2
    energies = trajectory_energies(system, traj)
    assert np.max(np.abs(energies - k)) < 1e-9
    # exact great circle from the chart-0 origin: (sin t, 0, -cos t)
    t1 = traj.t[-1]
    exact = np.array([math.sin(t1), 0.0, -math.cos(t1)])
    amb1 = system.surface.to_ambient(traj.chart[-1], *traj.q[-1])
    assert np.max(np.abs(np.asarray(amb1) - exact)) < 1e-8


def test_poincare_return_circular_orbit():
    """Return time of the torus circular orbit equals 2 pi exactly
    (to section tolerance)."""
    for s in (2.5, 4.0, 8.0):   # radius 1/s < 1/2, no wrap ambiguity
        system = MagneticSystem(FlatTorus(), ConstantField(1.0))
        k = energy_of_s(s)
        speed = math.sqrt(2.0 * k)
        st = TangentState(0, 0.0, 0.0, 0.0, speed)
        section = Section(coord=1, value=0.0, direction=1, wrap=1.0,
                          chart=0)
        hit, rt = poincare_return(system, section, st)
        assert abs(rt - 2.0 * math.pi) < 1e-9
        assert abs(hit.u - st.u) < 1e-10
        assert abs(energy_of(system, hit) - k) < 1e-10


def test_poincare_no_return_raises():
    """A straight geodesic on the torus never recrosses a section moved
    behind it within the time budget."""
    system = MagneticSystem(FlatTorus(), ConstantField(0.0))
    st = TangentState(0, 0.5, 0.0, 0.0, 1.0)
    section = Section(coord=1, value=0.25, direction=-1, wrap=None, chart=0)
    with pytest.raises(NoReturnError):
        poincare_return(system, section, st, max_time=3.0)


def test_hyperbolic_truncation_flag():
    """Trajectories that dive toward the boundary of the half-plane are
    truncated and flagged rather than silently continued."""
    system = MagneticSystem(HyperbolicPlane(genus=2), ConstantField(0.0))
    k = energy_of_s(0.05)   # very fast geodesic plunging down
    st = state_at_energy(system, TangentState(0, 0.0, 1e-9, 0.0, -1.0), k)
    traj = integrate(system, st, 10.0, dt=1e-3)
    assert traj.truncated
    assert traj.t[-1] < 10.0


class _ChartLog(RoundSphere):
    """Round sphere that records the chart each switch moves to."""

    def __init__(self):
        self.charts = set()

    def switch_chart(self, chart, u, v, du, dv):
        out = super().switch_chart(chart, u, v, du, dv)
        self.charts.add(out[0])
        return out


def test_poincare_return_through_second_chart():
    """A great circle (f = 0) leaves chart 0, crosses chart 1 and returns
    to its chart-0 section after exactly one period 2 pi."""
    surface = _ChartLog()
    system = MagneticSystem(surface, ConstantField(0.0))
    st = state_at_energy(system, TangentState(0, 0.0, 0.0, 1.0, 0.0), 0.5)
    section = Section(coord=0, value=0.0, direction=1, chart=0)
    hit, rt = poincare_return(system, section, st)
    assert surface.charts == {0, 1}
    assert hit.chart == 0
    assert abs(rt - 2.0 * math.pi) < 1e-9
    assert abs(hit.u) < 1e-9 and abs(hit.v) < 1e-9


def test_poincare_return_stops_at_hyperbolic_floor():
    """A geodesic plunging straight down the half-plane reaches the floor
    long before max_time and raises instead of running on."""
    system = MagneticSystem(HyperbolicPlane(genus=2), ConstantField(0.0))
    st = state_at_energy(system, TangentState(0, 0.0, 1.0, 0.0, -1.0),
                         energy_of_s(0.05))
    section = Section(coord=1, value=2.0, direction=1, chart=0)
    with pytest.raises(NoReturnError, match="floor"):
        poincare_return(system, section, st, max_time=200.0)


def _circle_cases():
    """Constant-field circles about the chart origin (the half-plane's
    about i), seeded at their rightmost point heading +v: the return to
    the seed's own line after one period, and on the flat torus also the
    return to the wrapped line u = 0, at the top point a quarter period
    on."""
    torus = homogeneous_oracle("flat_torus", 2.5)
    sphere = homogeneous_oracle("sphere", 1.0)
    hyp = homogeneous_oracle("hyperbolic", 2.0)
    hyp_point = (math.sinh(hyp.radius), math.cosh(hyp.radius))
    return [
        (FlatTorus(), 2.5, (torus.radius, 0.0), Section(1, 0.0),
         torus.period),
        (RoundSphere(), 1.0, (math.tan(sphere.radius / 2.0), 0.0),
         Section(1, 0.0), sphere.period),
        (HyperbolicPlane(genus=2), 2.0, hyp_point, Section(1, hyp_point[1]),
         hyp.period),
        (FlatTorus(), 2.5, (torus.radius, 0.0),
         Section(0, 0.0, direction=-1, wrap=1.0), 0.25 * torus.period),
    ]


@pytest.mark.parametrize("surface,s,point,section,time", _circle_cases(),
                         ids=["flat_torus", "sphere", "genus2",
                              "flat_torus_wrapped"])
def test_poincare_return_lands_on_section(surface, s, point, section, time):
    """The cut-short step puts the hit on the section itself, and the
    return time is the closed-form one to the integrator's accuracy."""
    system = MagneticSystem(surface, ConstantField(1.0))
    st = state_at_energy(system, TangentState(0, *point, 0.0, 1.0),
                         energy_of_s(s))
    hit, rt = poincare_return(system, section, st)
    assert abs(section.signed_residual(hit)) <= 1e-14
    assert abs(rt - time) <= 1e-12


@pytest.mark.parametrize("surface,s,point,section,time", _circle_cases(),
                         ids=["flat_torus", "sphere", "genus2",
                              "flat_torus_wrapped"])
def test_order8_return_on_oracle_circles(surface, s, point, section, time,
                                         monkeypatch):
    """The return's Gragg-Bulirsch-Stoer steps are of order 8: its return
    time is the closed-form one to 1e-12 and its hit lies on the section
    to 1e-13; with MACRO_STEP alone setting the step, the time's error
    falls at least 100-fold (2^8 = 256 for order 8) as the step halves
    from 0.2 to 0.1."""
    system = MagneticSystem(surface, ConstantField(1.0))
    st = state_at_energy(system, TangentState(0, *point, 0.0, 1.0),
                         energy_of_s(s))
    hit, rt = poincare_return(system, section, st)
    assert abs(section.signed_residual(hit)) <= 1e-13
    assert abs(rt - time) <= 1e-12
    errors = []
    monkeypatch.setattr(flow, "CELL_STEP", math.inf)
    for step in (0.2, 0.1):
        monkeypatch.setattr(flow, "MACRO_STEP", step)
        errors.append(abs(poincare_return(system, section, st)[1] - time))
    assert errors[1] * 100.0 <= errors[0]


def test_return_from_just_off_the_section_is_a_full_period():
    """A start 1e-12 before the section is within the loop's 1e-9 of it, so
    the crossing test arms only once the state has left the section: the
    return is the f = 2 circle's full period pi, not the step over the
    section 1e-12 ahead."""
    system = MagneticSystem(FlatTorus(), ConstantField(2.0))
    st0 = TangentState(0, 0.3 - 1e-12, 0.5, 1.0, 0.0)
    rt = poincare_return(system, Section(coord=0, value=0.3), st0)[1]
    assert abs(rt - math.pi) < 1e-11


def test_jump_over_the_wrapped_seam_is_no_crossing(monkeypatch):
    """Order-8 steps of pi on the f = 1 circle of radius 0.03 about (0.2,
    0.5) each take half a turn: from the start at angle pi - asin(2/3)
    the residual to the wrapped section v = 0 jumps between -0.48 and
    +0.48 across the antipode, once with the velocity at +v.  A jump of a
    quarter period or more is the seam, not a crossing, so there is no
    return."""
    system = MagneticSystem(FlatTorus(), ConstantField(1.0))
    monkeypatch.setattr(flow, "MACRO_STEP", math.pi)
    monkeypatch.setattr(flow, "CELL_STEP", math.inf)
    a, r = math.pi - math.asin(2.0 / 3.0), 0.03
    st0 = TangentState(0, 0.2 + r * math.cos(a), 0.5 + r * math.sin(a),
                       -r * math.sin(a), r * math.cos(a))
    with pytest.raises(NoReturnError, match="no directed return"):
        poincare_return(system, Section(coord=1, value=0.0, wrap=1.0), st0,
                        max_time=20.0)


def test_tangent_state_is_a_tuple_of_plain_numbers():
    """TangentState makes an int and floats of numpy scalars: it is the
    plain tuple, it hashes, and the loop run from it steps on floats."""
    state = TangentState(np.int64(0), *np.array([0.1, 0.2, 1.0, 0.3]))
    assert [type(x) for x in state] == [int, float, float, float, float]
    assert state == (0, 0.1, 0.2, 1.0, 0.3)
    assert hash(state) == hash((0, 0.1, 0.2, 1.0, 0.3))
    got = _make_loop(_systems()[0][1])(*state, 1e-3, 1, None)[1]
    assert [type(x) for x in got] == [int, float, float, float, float]


def test_tangent_state_make_and_replace_coerce():
    """namedtuple's _make, and _replace through it, make plain numbers as
    the constructor does, and _make still wants five values."""
    state = TangentState(0, 0, 0, 1, 0)._replace(u=np.float64(0.5))
    assert type(state.u) is float and state == (0, 0.5, 0.0, 1.0, 0.0)
    made = TangentState._make([np.int64(0), 1, 2, 3, 4])
    assert type(made.chart) is int
    assert [type(x) for x in made] == [int, float, float, float, float]
    with pytest.raises(TypeError):
        TangentState._make([0, 1.0, 2.0])


def test_macro_return_records_its_steps():
    """A return records state0 and every order-8 step, the step over the
    crossing too, and their length MACRO_STEP as the record's step: the
    states the loop's macro steps give from state0, bit for bit."""
    system, st0 = _systems()[0][1:]
    record = StepRecord()
    hit, rt = poincare_return(system, Section(coord=0, value=0.37, wrap=1.0),
                              st0, record=record)
    n = len(record.values) // 5
    assert record.step == flow.MACRO_STEP
    assert (n - 2) * record.step < rt <= (n - 1) * record.step
    steps = []
    _make_loop(system)(*st0, flow.MACRO_STEP, n - 1, steps.extend,
                       macro=True)
    assert record.values == [*st0, *steps]


def _spline_grid():
    x = np.arange(16) / 16
    return 0.1 * np.cos(2 * np.pi * x[:, None]) \
        * np.sin(2 * np.pi * x[None, :] + 0.3)


@pytest.mark.parametrize("system,scale", [
    (MagneticSystem(ConformalTorus(_spline_grid()), ConstantField(8.0)),
     1 / 16),
    (MagneticSystem(FlatTorus(), TorusField(PeriodicBicubic(
        8.0 + _spline_grid(), 1.0, 1.0))), 1 / 16),
    (MagneticSystem(FlatTorus(), TorusField(lambda x, y: 8.0 + 0.0 * x)),
     1.0),
    (MagneticSystem(RoundSphere(), ConstantField(8.0)), 1.0)],
    ids=["conformal", "csv", "callable", "sphere"])
def test_macro_step_spans_a_fraction_of_a_spline_cell(system, scale):
    """Spline data's scale is its cell width (a conformal torus's factor, a
    field on a PeriodicBicubic), and an order-8 step spans CELL_STEP of
    the time the scale takes to cross at the state's speed, 2 here; with
    smooth data the scale is the surface's (the unit torus's period, the
    sphere's radius), and at speed 2 the step is MACRO_STEP."""
    assert min(system.surface.scale, system.field.scale) == scale
    st0 = state_at_energy(system, TangentState(0, 0.5, 0.45, 0.0, 1.0),
                          energy_of_s(0.5))
    record = StepRecord()
    poincare_return(system, Section(coord=1, value=0.45), st0,
                    record=record)
    assert record.step == min(flow.MACRO_STEP,
                              flow.CELL_STEP * scale / 2.0)


@pytest.mark.parametrize("n", [2, 3, 4, 9])
def test_dense_output_of_exact_circle_nodes(n):
    """StepRecord.dense on n nodes MACRO_STEP apart, taken from the flat
    torus's exact unit-speed circle under f = 1, q' = (cos t, sin t):
    the samples dt apart, interpolated through the four nearest nodes or
    all of them where there are fewer, are the circle's to 1e-14 in q and
    1e-12 in q'."""
    system = MagneticSystem(FlatTorus(), ConstantField(1.0))
    h = flow.MACRO_STEP
    record = StepRecord()
    record.step = h
    for t in np.arange(n) * h:
        record.values.extend((0, 0.3 + math.sin(t), 0.6 - math.cos(t),
                              math.cos(t), math.sin(t)))
    traj = record.dense(system, (n - 1) * h, 1e-3)
    t = np.arange(20 * (n - 1) + 1) * 1e-3
    assert np.array_equal(traj.t, t) and not traj.chart.any()
    assert np.abs(traj.q - np.column_stack(
        [0.3 + np.sin(t), 0.6 - np.cos(t)])).max() <= 1e-14
    assert np.abs(traj.dq - np.column_stack([np.cos(t), np.sin(t)])).max() \
        <= 1e-12


@pytest.mark.parametrize("recorded", [False, True])
def test_return_from_rest_is_rejected(recorded):
    """A state at rest never returns; its return is DegenerateInputError
    before any step, and a record passed along stays empty."""
    system, st0 = _systems()[0][1:]
    record = StepRecord() if recorded else None
    with pytest.raises(DegenerateInputError, match="^a state at rest"):
        poincare_return(system, Section(coord=0, value=0.37, wrap=1.0),
                        TangentState(*st0[:3], 0.0, 0.0),
                        record=record)
    assert not recorded or record.values == []


def test_poincare_return_past_sphere_switch_keeps_chart():
    """A circle through the chart-0 origin (f = 1, s = 0.5, seed
    u = -1e-7) meets v = 0 heading -v just outside the switch circle
    |z| = 2, after half a period: the order-8 steps of 0.02 step over
    the short arc outside |z| = 2 (RK4 steps of dt = 1e-3 landed on it,
    switched to chart 1 and crossed there, four times before a crossing
    in chart 0 after 4.5 periods), and the hit is the cut-short step
    without the chart rule, so it stays in chart 0 at u = -2.0000005."""
    system = MagneticSystem(RoundSphere(), ConstantField(1.0))
    st = state_at_energy(system, TangentState(0, -1e-7, 0.0, 0.0, 1.0),
                         energy_of_s(0.5))
    section = Section(coord=1, value=0.0, direction=-1, chart=0)
    hit, rt = poincare_return(system, section, st)
    assert hit.chart == 0
    assert abs(hit.v) <= 1e-14
    assert abs(hit.u + 2.0000005) < 1e-9
    assert abs(rt - 0.5 * homogeneous_oracle("sphere", 0.5).period) < 1e-9


def _points(surface, traj):
    """The samples as points of R^3 on the sphere, whatever their chart,
    and as chart points on a one-chart surface."""
    if surface.n_charts == 1:
        return traj.q
    out = np.empty((len(traj.t), 3))
    for c in (0, 1):
        sel = traj.chart == c
        out[sel] = surface.to_ambient(c, traj.q[sel, 0], traj.q[sel, 1])
    return out


@pytest.mark.parametrize("surface,field", [
    (FlatTorus(), CosineField), (RoundSphere(), ConstantField)],
    ids=["flat-cosine", "sphere-constant"])
@given(f=st.floats(0.3, 3.0), u=st.floats(-1.0, 1.0),
       v=st.floats(-1.0, 1.0), ang=st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=6, deadline=None)
def test_time_reversal_retraces_orbit(surface, field, f, u, v, ang):
    """q(T - t) solves the equation with -f: integrating back from the end
    state with the velocity and the field reversed retraces the orbit."""
    system = MagneticSystem(surface, field(f))
    st0 = state_at_energy(system, TangentState(0, u, v, math.cos(ang),
                                               math.sin(ang)), 0.5)
    fwd = integrate(system, st0, 3.0, record_every=100)
    end = TangentState(int(fwd.chart[-1]), *fwd.q[-1], *(-fwd.dq[-1]))
    back = integrate(MagneticSystem(surface, field(-f)), end, 3.0,
                     record_every=100)
    assert len(back.t) == len(fwd.t) == 31
    assert np.abs(_points(surface, back)[::-1]
                  - _points(surface, fwd)).max() < 1e-10


@given(f=st.floats(-2.0, 2.0), r=st.floats(0.2, 1.5),
       pos=st.floats(0.0, 2.0 * math.pi), ang=st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=6, deadline=None)
def test_sphere_orbit_independent_of_start_chart(f, r, pos, ang):
    """The same tangent vector written in chart 1 (switch_chart) starts the
    same orbit: the ambient trajectories agree."""
    sphere = RoundSphere()
    system = MagneticSystem(sphere, ConstantField(f))
    st0 = state_at_energy(system, TangentState(
        0, r * math.cos(pos), r * math.sin(pos), math.cos(ang),
        math.sin(ang)), 0.5)
    st1 = TangentState(*sphere.switch_chart(*st0))
    assert st1.chart == 1
    a = integrate(system, st0, 3.0, record_every=100)
    b = integrate(system, st1, 3.0, record_every=100)
    assert np.abs(_points(sphere, a) - _points(sphere, b)).max() < 1e-9


def geodesic_curvature_of(surface, chart, q, qdot, qddot):
    """Signed geodesic curvature from first and second chart derivatives:
    lam2 (q'' + Gamma[q', q']) . (i q') / (lam2 |q'|^2)^(3/2) with the
    Christoffel tensor of e^(2 rho) (du^2 + dv^2) built from conformal's
    rho_u and rho_v, the per-sample reference for trajectory_curvature."""
    rho, ru, rv = (float(x) for x in surface.conformal(chart, *q))
    gamma = np.array([
        [[ru, rv], [rv, -ru]],   # Gamma^u_ij
        [[-rv, ru], [ru, rv]],   # Gamma^v_ij
    ])
    qdot = np.asarray(qdot, dtype=float)
    acc = np.asarray(qddot, dtype=float) \
        + np.einsum("kij,i,j->k", gamma, qdot, qdot)
    lam2 = math.exp(2.0 * rho)
    iq = np.array([-qdot[1], qdot[0]])
    return float(lam2 * acc @ iq) / (lam2 * float(qdot @ qdot)) ** 1.5


def test_geodesic_circle_curvature():
    """Euclidean circles in the charts have the classical geodesic
    curvature: cot(r) on the sphere (chart radius tan(r/2)) and coth(r)
    in the hyperbolic plane (center (0, a cosh r), radius a sinh r)."""
    sph = RoundSphere()
    r = 0.7
    rc = math.tan(r / 2.0)
    for phi in np.linspace(0.0, 2 * np.pi, 7):
        q = np.array([rc * math.cos(phi), rc * math.sin(phi)])
        dq = np.array([-math.sin(phi), math.cos(phi)])
        ddq = np.array([-math.cos(phi), -math.sin(phi)]) / rc
        kap = geodesic_curvature_of(sph, 0, q, dq * rc, ddq * rc ** 2)
        assert abs(kap - 1.0 / math.tan(r)) < 1e-8

    hyp = HyperbolicPlane(genus=2)
    a, r = 1.0, 0.6
    cy, re = a * math.cosh(r), a * math.sinh(r)
    for phi in np.linspace(0.0, 2 * np.pi, 7):
        q = np.array([re * math.cos(phi), cy + re * math.sin(phi)])
        dq = np.array([-math.sin(phi), math.cos(phi)])
        ddq = np.array([-math.cos(phi), -math.sin(phi)]) / re
        kap = geodesic_curvature_of(hyp, 0, q, dq * re, ddq * re ** 2)
        assert abs(kap - 1.0 / math.tanh(r)) < 1e-8


def _assert_curvature_per_sample(system, traj):
    """The array-wide curvature equals geodesic_curvature_of at every
    sample with the same five-point acceleration."""
    kappa = trajectory_curvature(system, traj)
    h = traj.t[1] - traj.t[0]
    dq = traj.dq
    ok = np.nonzero(~np.isnan(kappa))[0]
    assert len(ok) > 0.9 * len(kappa)
    for i in ok:
        acc = (-dq[i + 2] + 8 * dq[i + 1] - 8 * dq[i - 1] + dq[i - 2]) \
            / (12 * h)
        want = geodesic_curvature_of(system.surface, int(traj.chart[i]),
                                     traj.q[i], dq[i], acc)
        assert abs(kappa[i] - want) <= 1e-12 * max(1.0, abs(want))
    return kappa


@given(f=st.floats(0.0, 0.3), u=st.floats(-0.05, 0.05),
       v=st.floats(-0.05, 0.05), ang=st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=10, deadline=None)
def test_curvature_per_sample_sphere_across_charts(f, u, v, ang):
    # at unit speed the circle's geodesic diameter 2 atan(1 / f) > 2.5
    # takes it from near the chart-0 origin past the switch radius
    system = MagneticSystem(RoundSphere(), ConstantField(f))
    st0 = state_at_energy(system, TangentState(0, u, v, math.cos(ang),
                                               math.sin(ang)), 0.5)
    traj = integrate(system, st0, 6.0, dt=2e-2)
    assert set(traj.chart.tolist()) == {0, 1}
    kappa = _assert_curvature_per_sample(system, traj)
    # stencils straddling a chart switch are masked
    switch = np.nonzero(np.diff(traj.chart))[0]
    assert np.all(np.isnan(kappa[switch])) and np.all(
        np.isnan(kappa[switch + 1]))


@given(s=st.floats(1.5, 4.0), u=st.floats(-1.0, 1.0), v=st.floats(0.5, 2.0),
       ang=st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=10, deadline=None)
def test_curvature_per_sample_hyperbolic_circle(s, u, v, ang):
    system = MagneticSystem(HyperbolicPlane(genus=2), ConstantField(1.0))
    st0 = state_at_energy(system, TangentState(0, u, v, math.cos(ang),
                                               math.sin(ang)),
                          energy_of_s(s))
    traj = integrate(system, st0, 4.0, dt=2e-2)
    kappa = _assert_curvature_per_sample(system, traj)
    assert np.nanmax(np.abs(kappa - s)) < 1e-4   # a circle of curvature s


@given(u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0),
       ang=st.floats(0.0, 2.0 * math.pi), f=st.floats(-3.0, 3.0))
@settings(max_examples=10, deadline=None)
def test_curvature_per_sample_conformal_torus(u, v, ang, f):
    n = 32
    x = np.arange(n) / n
    grid = 0.1 * np.cos(2 * np.pi * x)[:, None] * np.sin(
        2 * np.pi * x)[None, :]
    system = MagneticSystem(ConformalTorus(grid), ConstantField(f))
    st0 = state_at_energy(system, TangentState(0, u, v, math.cos(ang),
                                               math.sin(ang)), 0.5)
    traj = integrate(system, st0, 3.0, dt=2e-2)
    _assert_curvature_per_sample(system, traj)


@pytest.mark.parametrize("entry", ["integrate", "poincare_return",
                                   "state_at_energy"])
def test_non_finite_state_rejected(entry):
    """A NaN or infinite component is refused where a state enters."""
    system = MagneticSystem(FlatTorus(), ConstantField(1.0))
    section = Section(coord=1, value=0.5, direction=1, chart=0)
    calls = {
        "integrate": lambda st: integrate(system, st, 1.0),
        "poincare_return": lambda st: poincare_return(system, section, st,
                                                      max_time=1.0),
        "state_at_energy": lambda st: state_at_energy(system, st, 0.5),
    }
    for bad in (TangentState(0, 0.1, 0.2, math.nan, 0.3),
                TangentState(0, math.inf, 0.2, 1.0, 0.3)):
        with pytest.raises(DegenerateInputError):
            calls[entry](bad)


@pytest.mark.parametrize("entry", ["integrate", "poincare_return"])
def test_blown_up_run_is_a_domain_error(entry, monkeypatch):
    """RK4 at dt = 0.5, and order-8 steps of MACRO_STEP = 0.5, blow up on
    a strong cosine field over the flat torus; the run raises instead of
    handing back q = (nan, nan) with ``truncated`` False."""
    system = MagneticSystem(FlatTorus(), TorusField(
        lambda x, y: 50.0 * np.cos(2 * np.pi * x)))
    st = TangentState(0, 0.1, 0.2, 30.0, 40.0)
    section = Section(coord=0, value=0.37, direction=1, wrap=1.0, chart=0)
    with pytest.raises(DomainError, match="non-finite"):
        if entry == "integrate":
            integrate(system, st, 200.0, dt=0.5)
        else:
            monkeypatch.setattr(flow, "CELL_STEP", math.inf)
            monkeypatch.setattr(flow, "MACRO_STEP", 0.5)
            poincare_return(system, section, st)


def test_blown_up_plunge_is_a_domain_error():
    """A geodesic plunging toward the half-plane's boundary at dt = 1e-2
    jumps from above the floor straight to NaN: that is no truncation."""
    system = MagneticSystem(HyperbolicPlane(genus=2), ConstantField(0.0))
    with pytest.raises(DomainError, match="non-finite"):
        integrate(system, TangentState(0, 0.0, 1e-3, 0.0, -1.0), 20.0,
                  dt=1e-2)


def test_blown_up_but_finite_return_is_a_domain_error(monkeypatch):
    """Order-8 steps of MACRO_STEP = 0.3 on the strong cosine field stay
    finite but leave the energy level 1250: the third, at an energy near
    1.8e23, steps over the section, v = 0.77 or, by the same step, 5.77,
    and the return raises, naming a time inside that step, 0.6 to 0.9,
    wherever the cut's Newton on the blown-up step went."""
    system = MagneticSystem(FlatTorus(), TorusField(
        lambda x, y: 50.0 * np.cos(2 * np.pi * x)))
    monkeypatch.setattr(flow, "CELL_STEP", math.inf)
    monkeypatch.setattr(flow, "MACRO_STEP", 0.3)
    for value in (0.77, 5.77):
        section = Section(coord=1, value=value, direction=1, chart=0)
        with pytest.raises(DomainError, match="energy") as err:
            poincare_return(system, section,
                            TangentState(0, 0.1, 0.2, 30.0, 40.0))
        t = float(re.search(r"t = (\S+) ", str(err.value)).group(1))
        assert 0.6 <= t <= 0.9, value


def test_coarse_step_return_names_the_step(monkeypatch):
    """On the cosine field (amplitude 2 pi, s = 1.8, seeded 12 % outside
    the curvature radius) order-8 steps of MACRO_STEP = 0.2 stay bounded
    and reach the section v = 0.5 where the default steps do, but off the
    energy level by more than RETURN_ENERGY_RTOL: the error names the step
    as maybe too coarse for that tolerance, not only a blow-up."""
    amp, s = 2.0 * math.pi, 1.8
    system = MagneticSystem(FlatTorus(), CosineField(amp))
    seed = state_at_energy(
        system, TangentState(0, 1.12 / (s * amp), 0.5, 0.0, 1.0),
        energy_of_s(s))
    section = Section(coord=1, value=0.5, wrap=1.0)
    _, t_fine = poincare_return(system, section, seed)
    monkeypatch.setattr(flow, "CELL_STEP", math.inf)
    monkeypatch.setattr(flow, "MACRO_STEP", 0.2)
    with pytest.raises(DomainError, match=r"step 0\.2 may be too coarse "
                       "for RETURN_ENERGY_RTOL") as err:
        poincare_return(system, section, seed)
    t_coarse = float(re.search(r"t = (\S+) ", str(err.value)).group(1))
    assert abs(t_coarse - t_fine) < 1e-3


def _rk4_reference(system, chart, u, v, du, dv, h, cut=False):
    """Classical RK4 on (u, v, du, dv) over make_rhs, then, unless cut, the
    sphere's radius rule (switch_chart past the circle of radius
    SPHERE_SWITCH_RADIUS): the step _make_loop writes out, in the same
    operation order."""
    rhs = make_rhs(system)
    hh = 0.5 * h
    a1u, a1v = rhs(chart, u, v, du, dv)
    du2, dv2 = du + hh * a1u, dv + hh * a1v
    a2u, a2v = rhs(chart, u + hh * du, v + hh * dv, du2, dv2)
    du3, dv3 = du + hh * a2u, dv + hh * a2v
    a3u, a3v = rhs(chart, u + hh * du2, v + hh * dv2, du3, dv3)
    du4, dv4 = du + h * a3u, dv + h * a3v
    a4u, a4v = rhs(chart, u + h * du3, v + h * dv3, du4, dv4)
    s = h / 6.0
    state = (chart,
             u + s * (du + 2 * du2 + 2 * du3 + du4),
             v + s * (dv + 2 * dv2 + 2 * dv3 + dv4),
             du + s * (a1u + 2 * a2u + 2 * a3u + a4u),
             dv + s * (a1v + 2 * a2v + 2 * a3v + a4v))
    x, y = state[1:3]
    if (not cut and system.surface.kind == "sphere"
            and x * x + y * y > SPHERE_SWITCH_RADIUS ** 2):
        return system.surface.switch_chart(*state)
    return state


def _config(text):
    cfg = configparser.ConfigParser()
    cfg.read_string(text)
    return cfg


def _step_cases():
    """(system, v range) for each surface and field kind the CLI builds:
    the cosine field is what [field] type = cosine makes, and the grid
    stands in for a csv field and a conformal torus's factor_csv."""
    x = np.arange(16) / 16
    grid = 0.1 * np.cos(2 * np.pi * x)[:, None] \
        * np.sin(2 * np.pi * x + 0.3)[None, :]
    cfg = _config("[field]\ntype = cosine\namplitude = 5.5\n")
    wide = _config("[field]\ntype = cosine\namplitude = -3.3\n")
    torus = FlatTorus(1.0, 2.0)
    wide_torus = FlatTorus(1.7, 0.6)
    return {
        "flat-constant": (MagneticSystem(torus, ConstantField(1.3)),
                          (-3.0, 3.0)),
        "flat-cosine": (MagneticSystem(torus, _build_field(cfg, torus)),
                        (-3.0, 3.0)),
        "flat-cosine-wide": (MagneticSystem(
            wide_torus, _build_field(wide, wide_torus)), (-3.0, 3.0)),
        "flat-csv": (MagneticSystem(torus, TorusField(
            PeriodicBicubic(grid, 1.0, 2.0), ly=2.0)), (-3.0, 3.0)),
        "sphere-constant": (MagneticSystem(RoundSphere(),
                                           ConstantField(-0.8)),
                            (-2.5, 2.5)),
        "sphere-callable": (MagneticSystem(RoundSphere(), CallableField(
            lambda c, u, v: 0.5 + 0.3 * np.sin(u + c) * np.cos(v))),
                            (-2.5, 2.5)),
        "halfplane-constant": (MagneticSystem(HyperbolicPlane(genus=2),
                                              ConstantField(1.7)),
                               (0.3, 3.0)),
        "halfplane-zero": (MagneticSystem(HyperbolicPlane(genus=2),
                                          ConstantField(0.0)), (0.3, 3.0)),
        "halfplane-callable": (MagneticSystem(HyperbolicPlane(genus=2),
                                              CallableField(
            lambda c, u, v: 1.2 + 0.4 * np.cos(u) / (1.0 + v * v))),
                               (0.3, 3.0)),
        "conformal-constant": (MagneticSystem(ConformalTorus(grid),
                                              ConstantField(0.9)),
                               (-3.0, 3.0)),
        "conformal-cosine": (MagneticSystem(ConformalTorus(grid),
                                            _build_field(cfg, FlatTorus())),
                             (-3.0, 3.0)),
        "conformal-wide-callable": (MagneticSystem(
            ConformalTorus(grid, lx=1.0, ly=0.5),
            CallableField(lambda c, u, v: np.sin(u) * v + c)), (-3.0, 3.0)),
        # periods other than the field's: a name that the surface's and the
        # field's step lines both read would bind one of them wrongly
        "conformal-wide-cosine": (MagneticSystem(
            ConformalTorus(grid, lx=1.0, ly=0.5),
            _build_field(wide, wide_torus)), (-3.0, 3.0)),
    }


@pytest.mark.parametrize("system,vrange", list(_step_cases().values()),
                         ids=list(_step_cases()))
@given(chart=st.integers(0, 1), u=st.floats(-2.5, 2.5),
       w=st.floats(0.0, 1.0), du=st.floats(-3.0, 3.0),
       dv=st.floats(-3.0, 3.0), h=st.floats(1e-4, 0.05), cut=st.booleans())
@example(chart=0, u=0.4, w=0.3, du=0.0, dv=1.1, h=0.01, cut=False)
@example(chart=0, u=-0.7, w=0.6, du=-0.0, dv=2.0, h=0.02, cut=True)
@example(chart=1, u=1.3, w=0.1, du=0.9, dv=0.0, h=0.03, cut=False)
@example(chart=0, u=0.2, w=0.8, du=-1.4, dv=-0.0, h=0.005, cut=True)
@settings(max_examples=60, deadline=None)
def test_step_is_rk4_over_make_rhs(system, vrange, chart, u, w, du, dv, h,
                                   cut):
    """The dt loop writes make_rhs into its four stages, with the step
    lines for make_rhs's conformal and eval calls; one pass of it, with no
    section, gives the classical RK4 step over make_rhs bit for bit,
    signed zeros included (a zero velocity component, a zero field), and
    so does one pass of the loop a section crossing is cut with, built
    without the chart rule."""
    lo, hi = vrange
    if system.surface.n_charts == 1:
        chart = 0
    v = lo + w * (hi - lo)
    k, got, crossing = _make_loop(system, not cut)(chart, u, v, du, dv, h,
                                                   1, None)
    assert (k, crossing) == (1, None)
    want = _rk4_reference(system, chart, u, v, du, dv, h, cut)
    assert got[0] == want[0]
    assert [x.hex() for x in got[1:]] == [float(x).hex() for x in want[1:]]


@pytest.mark.parametrize("system", [c[0] for c in _step_cases().values()],
                         ids=list(_step_cases()))
def test_step_sources_are_numpy_free(system):
    """The per-point lines the step is written from are source text, out of
    the structure guard's reach: they name no numpy, and the compiled
    loop's namespace holds no numpy object."""
    for line in (system.surface.step_line, system.field.step_line):
        assert not {n.id for n in ast.walk(ast.parse(line or ""))
                    if isinstance(n, ast.Name)} & {"np", "numpy"}
    for value in _make_loop(system).__globals__.values():
        assert value is not np
        assert type(value).__module__.partition(".")[0] != "numpy"


def _cli_surfaces(tmp_path):
    """The surface of each [surface] kind the CLI builds."""
    factor = tmp_path / "factor.csv"
    factor.write_text("x,y,rho\n" + "".join(
        f"{i / 8},{j / 8},{0.1 * math.sin(2 * math.pi * (i + 2 * j) / 8)}\n"
        for i in range(8) for j in range(8)))
    configs = ["kind = sphere", "kind = flat_torus\nlx = 1.5",
               "kind = hyperbolic\ngenus = 2",
               f"kind = conformal_torus\nfactor_csv = {factor}"]
    return [_build_surface(_config(f"[surface]\n{c}\n")) for c in configs]


@pytest.mark.parametrize("ftype", ["constant", "cosine"])
def test_step_stages_call_no_method_of_surface_or_field(tmp_path, ftype):
    """On every surface the CLI builds, with a constant and a cosine field,
    the compiled loop's namespace holds no bound method of the system's
    surface or field: each stage runs the classes' step lines, and only
    the sphere's chart line calls one, switch_chart, past the switch
    circle.  A cosine field needs a lattice, so it is built on the tori
    only."""
    for surface in _cli_surfaces(tmp_path):
        if ftype == "cosine" and surface.lattice is None:
            continue
        field = _build_field(_config(f"[field]\ntype = {ftype}\n"), surface)
        run = _make_loop(MagneticSystem(surface, field))
        for name, value in run.__globals__.items():
            owner = getattr(value, "__self__", None)
            assert name == "switch_chart" or not (owner is surface
                                                  or owner is field), name


def test_class_without_step_line_fails_when_step_is_built():
    """The base classes set no step_line (None would mark a flat chart), so
    a surface or field that gives none fails as its step is built instead
    of running flat."""
    class BareSurface(Surface):
        pass

    class BareField(MagneticField):
        pass

    for system in (MagneticSystem(BareSurface(), ConstantField(1.0)),
                   MagneticSystem(RoundSphere(), BareField())):
        with pytest.raises(AttributeError, match="step_line"):
            _make_loop(system)


def test_name_bound_by_surface_and_field_fails_when_step_is_built():
    """The step binds the surface's and the field's step_names in one
    namespace, so a name both bind (here the sphere's switch radius r2)
    fails instead of letting the field's value win."""
    class ClashingField(ConstantField):
        def __init__(self, value):
            super().__init__(value)
            self.step_names = {**self.step_names, "r2": 4.0}

    with pytest.raises(UnsupportedError, match="r2"):
        _make_loop(MagneticSystem(RoundSphere(), ClashingField(1.0)))


def test_name_the_loop_uses_fails_when_step_is_built():
    """The dt loop keeps its state and counters in locals beside the names
    the step lines assign, so a line that assigns one of them (here the
    section residual prev) or a step name that one of them would shadow
    (here the step count n) fails as the loop is built, with the chart
    rule or without it (the loop a crossing is cut with), instead of
    overwriting the loop's state."""
    class ClashingSphere(RoundSphere):
        step_line = "prev = 0.0; " + RoundSphere.step_line

    class ShadowedField(ConstantField):
        def __init__(self, value):
            super().__init__(value)
            self.step_names = {**self.step_names, "n": 3}

    for chart_rule in (True, False):
        with pytest.raises(UnsupportedError, match="metric line .*'prev'"):
            _make_loop(MagneticSystem(ClashingSphere(), ConstantField(1.0)),
                       chart_rule)
        with pytest.raises(UnsupportedError, match="step names .*'n'"):
            _make_loop(MagneticSystem(FlatTorus(), ShadowedField(1.0)),
                       chart_rule)


def test_name_the_macro_step_uses_fails_when_step_is_built():
    """The order-8 step body keeps its midpoint states and extrapolation
    sums in locals of the same loop, so the name guard covers them: a
    field line that assigns one (here the sum ex) fails as the loop is
    built."""
    class ClashingField(ConstantField):
        step_line = "ex = 0.0; " + ConstantField.step_line

    with pytest.raises(UnsupportedError, match="field line .*'ex'"):
        _make_loop(MagneticSystem(FlatTorus(), ClashingField(1.0)))


def test_metric_line_without_rv_fails_when_step_is_built():
    """The stage is picked by the Christoffel names the metric line
    assigns: ru and rv, rv alone where ru = 0 (the half-plane), none on a
    flat chart.  A line that sets ru alone fails as the loop is built
    instead of running with rv unset."""
    class RuOnlyPlane(HyperbolicPlane):
        step_line = "ru = 0.0"

    with pytest.raises(UnsupportedError, match="sets ru but not rv"):
        _make_loop(MagneticSystem(RuOnlyPlane(), ConstantField(1.0)))


@pytest.mark.parametrize("field", [CosineField(1.0),
                                   TorusField(lambda x, y: x * y)])
def test_lattice_field_needs_a_surface_lattice(field):
    """A lattice-periodic field is no function on a surface without a
    lattice (a cosine field on the sphere reads differently in its two
    charts at one point), so MagneticSystem refuses the pair."""
    for surface in (RoundSphere(), HyperbolicPlane(genus=2)):
        with pytest.raises(UnsupportedError, match="lattice"):
            MagneticSystem(surface, field)
    assert MagneticSystem(FlatTorus(), field).field is field
    assert ConstantField(1.0).lattice is None
    assert field.lattice == (1.0, 1.0)


def test_return_on_wrapped_section_records_integrate_steps():
    """A return to a section of a torus coordinate, taken across the
    period seam (v from 0.7 up to 1.5, i.e. 0.5 mod 1), records state0
    and every step: exactly the states of the loop's order-8 steps."""
    system = MagneticSystem(FlatTorus(), CosineField(2.0 * math.pi))
    st0 = state_at_energy(system, TangentState(0, 0.1, 0.7, 0.3, 1.0), 0.5)
    record = StepRecord()
    hit, rt = poincare_return(system, Section(coord=1, value=0.5, wrap=1.0),
                              st0, record=record)
    assert 1.4 < hit.v < 1.6 and abs(hit.v - 1.5) < 1e-12
    n = len(record.values) // 5
    ref = list(st0)
    _make_loop(system)(*ref, record.step, n - 1, ref.extend, macro=True)
    assert n > 50 and record.values == ref


@pytest.mark.parametrize("case", ["plunge", "cosine"])
def test_sampling_keeps_every_record_every_th_step(case):
    """integrate at record_every 7 gives integrate's every-step samples at
    steps 0, 7, 14, ... bit for bit: on the plunge of
    test_hyperbolic_truncation_flag, which falls below the floor at a
    step off a multiple of 7 and keeps that step as its last sample, and
    on a cosine-torus run of 2003 steps, whose last 1 step is not
    sampled."""
    if case == "plunge":
        system = MagneticSystem(HyperbolicPlane(genus=2), ConstantField(0.0))
        st0 = state_at_energy(
            system, TangentState(0, 0.0, 1e-9, 0.0, -1.0), energy_of_s(0.05))
        t_end = 10.0
    else:
        system = MagneticSystem(FlatTorus(), CosineField(2.0 * math.pi))
        st0 = state_at_energy(system, TangentState(0, 0.1, 0.7, 0.3, 1.0),
                              0.5)
        t_end = 2.003
    every = integrate(system, st0, t_end, record_every=1)
    seventh = integrate(system, st0, t_end, record_every=7)
    n = len(every.t)
    idx = list(range(0, n, 7))
    if case == "plunge":
        assert every.truncated and seventh.truncated and (n - 1) % 7
        idx.append(n - 1)
    else:
        assert n == 2004 and not seventh.truncated
    assert np.array_equal(seventh.t, every.t[idx])
    for name in ("chart", "q", "dq"):
        assert np.array_equal(getattr(seventh, name),
                              getattr(every, name)[idx],
                              equal_nan=True), name


def test_return_stops_at_the_floor_where_integrate_truncates():
    """The plunging geodesic of test_hyperbolic_truncation_flag, which
    integrate flags truncated, has no return: the loop stops at the
    order-8 step that falls below the floor, and that step ends the
    record, as it ends the loop's own run of those steps."""
    system = MagneticSystem(HyperbolicPlane(genus=2), ConstantField(0.0))
    k = energy_of_s(0.05)
    st = state_at_energy(system, TangentState(0, 0.0, 1e-9, 0.0, -1.0), k)
    assert integrate(system, st, 10.0, dt=1e-3).truncated
    record = StepRecord()
    with pytest.raises(NoReturnError, match="below the chart floor"):
        poincare_return(system, Section(coord=0, value=1.0), st,
                        max_time=10.0, record=record)
    ref = list(st)
    n, last, _ = _make_loop(system)(*ref, record.step, 10 ** 6, ref.extend,
                                    macro=True)
    assert not last[2] >= system.surface.floor and 1 < n < 10 ** 6
    assert np.array_equal(record.values, ref, equal_nan=True)


@pytest.mark.parametrize("entry,args,name", [
    ("integrate", {"dt": -1e-3}, "dt"),
    ("integrate", {"dt": 0.0}, "dt"),
    ("integrate", {"t_end": -5.0}, "t_end"),
    ("integrate", {"t_end": math.nan}, "t_end"),
    ("integrate", {"record_every": 0}, "record_every"),
    ("return", {"max_time": 0.0}, "max_time"),
    ("return", {"max_time": math.inf}, "max_time"),
])
def test_step_arguments_are_checked_at_entry(entry, args, name):
    """A negative or zero dt, a t_end or max_time that is not finite and
    positive, and a record_every below 1 raise before any step."""
    system, st0 = _systems()[0][1:]
    with pytest.raises(DegenerateInputError, match=f"^{name} "):
        if entry == "integrate":
            integrate(system, st0, **{"t_end": 1.0, **args})
        else:
            poincare_return(system, Section(coord=0, value=0.37, wrap=1.0),
                            st0, **args)


@pytest.mark.parametrize("chart", [0, 1])
def test_step_past_sphere_switch_is_rk4_over_make_rhs(chart):
    """A step that leaves the disc of radius SPHERE_SWITCH_RADIUS changes
    chart, and still equals the reference step."""
    system = MagneticSystem(RoundSphere(), ConstantField(0.6))
    r = SPHERE_SWITCH_RADIUS - 1e-4
    state = (chart, 0.6 * r, 0.8 * r, 0.9, 1.1)
    got = _make_loop(system)(*state, 1e-3, 1, None)[1]
    assert got[0] == 1 - chart
    assert got == _rk4_reference(system, *state, 1e-3)
