"""Time integration of the twisted second-order flow.

The equation of motion in a conformal chart reads

    q'' = -Gamma(q)[q', q'] + f(q) * i q'

where i is the 90 degree rotation; its solutions have constant kinetic
energy and geodesic curvature f / |q'|_g.  Integration uses a fixed-step
classical fourth-order Runge-Kutta scheme on plain floats, whose stages
hold the surface's and field's step_line (the one scalar copy of each
class's point formula, with the step_names it reads) and make_rhs's
formula; the surface's chart_line follows the update (the sphere changes
chart there).  A section crossing lands exactly: the hit is the same step,
cut short to the length that ends on the section and written without the
chart line.
integrate and poincare_return share the dt step and the StepRecord, so a
return that keeps its steps yields the trajectory integrate would: a shot
orbit's trajectory is the accepted return's steps.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from array import array

import numpy as np

from .errors import (DegenerateInputError, DomainError, NoReturnError,
                     UnsupportedError)

DEFAULT_DT = 1e-3
# a return whose energy left the start's by more than this, relative, came
# from a run that blew up without going non-finite
RETURN_ENERGY_RTOL = 1e-6


@dataclasses.dataclass(frozen=True)
class TangentState:
    chart: int
    u: float
    v: float
    du: float
    dv: float

    def __post_init__(self):
        # plain Python numbers: with a numpy scalar here every RK4 step
        # started from this state would run on numpy scalar arithmetic
        object.__setattr__(self, "chart", int(self.chart))
        for name in ("u", "v", "du", "dv"):
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclasses.dataclass
class Trajectory:
    t: np.ndarray        # (n,)
    chart: np.ndarray    # (n,) int
    q: np.ndarray        # (n, 2)
    dq: np.ndarray       # (n, 2)
    dt: float
    truncated: bool = False


def make_rhs(system):
    """Reference right-hand side on plain floats, from the vectorized
    formulas: the surface's conformal()[1:] and the field's eval."""
    conformal, feval = system.surface.conformal, system.field.eval

    def rhs(chart, u, v, du, dv):
        ru, rv = map(float, conformal(chart, u, v)[1:])
        f = float(feval(chart, u, v))
        ddu = -(ru * du * du + 2.0 * rv * du * dv - ru * dv * dv) - f * dv
        ddv = -(-rv * du * du + 2.0 * ru * du * dv + rv * dv * dv) + f * du
        return ddu, ddv

    return rhs


# The one RK4 step; at each stage's point x, y the surface's and field's
# step_line set ru, rv and f, and the surface's chart_line may move the
# updated state to another chart.  A flat chart has no Christoffel terms.
_RK4 = """\
def step(chart, u, v, du, dv, h):
    hh = 0.5 * h
    x, y, p1, q1 = u, v, du, dv
{0}
    p2, q2 = du + hh * a1u, dv + hh * a1v
    x, y = u + hh * p1, v + hh * q1
{1}
    p3, q3 = du + hh * a2u, dv + hh * a2v
    x, y = u + hh * p2, v + hh * q2
{2}
    p4, q4 = du + h * a3u, dv + h * a3v
    x, y = u + h * p3, v + h * q3
{3}
    s = h / 6.0
    x = u + s * (p1 + 2 * p2 + 2 * p3 + p4)
    y = v + s * (q1 + 2 * q2 + 2 * q3 + q4)
    p = du + s * (a1u + 2 * a2u + 2 * a3u + a4u)
    q = dv + s * (a1v + 2 * a2v + 2 * a3v + a4v)
    {chart}
    return chart, x, y, p, q
"""
_CURVED = """\
    {metric}
    {field}
    a{n}u = -(ru * p{n} * p{n} + 2.0 * rv * p{n} * q{n}
              - ru * q{n} * q{n}) - f * q{n}
    a{n}v = -(-rv * p{n} * p{n} + 2.0 * ru * p{n} * q{n}
              + rv * q{n} * q{n}) + f * p{n}"""
_FLAT = "    {field}\n    a{n}u, a{n}v = -f * q{n}, f * p{n}"
_compiled = functools.lru_cache(maxsize=64)(compile)


def _make_step(system, chart_rule=True):
    """One RK4 step on plain floats (chart, u, v, du, dv, h), ending in the
    surface's chart_line unless chart_rule is False: _RK4 compiled once per
    distinct source, its values bound by name, never written into it.  A
    surface or field without a step_line, or a name both of them bind,
    fails here."""
    surface, field = system.surface, system.field
    stage = _FLAT if surface.step_line is None else _CURVED
    source = _RK4.format(*(stage.format(metric=surface.step_line,
                                        field=field.step_line, n=n)
                           for n in range(1, 5)),
                         chart=chart_rule and surface.chart_line or "")
    if shared := surface.step_names.keys() & field.step_names.keys():
        raise UnsupportedError(f"surface and field both bind {sorted(shared)}")
    namespace = {**surface.step_names, **field.step_names}
    exec(_compiled(source, "<rk4 step>", "exec"), namespace)
    return namespace["step"]


def _require_inputs(state, every=1, **args):
    """A finite state, dt, t_end and max_time finite and positive and every
    (record_every) an integer >= 1, or a DegenerateInputError naming it."""
    if not all(map(math.isfinite, (state.u, state.v, state.du, state.dv))):
        raise DegenerateInputError(f"non-finite state {state}")
    for name, x in args.items():
        if not 0.0 < x < math.inf:
            raise DegenerateInputError(f"{name} must be finite and > 0: {x}")
    if not (isinstance(every, numbers.Integral) and every >= 1):
        raise DegenerateInputError(f"record_every must be >= 1: {every}")


def _check_blowup(u, v, du, dv, t):
    """A run that went non-finite (RK4 blew up) is a DomainError."""
    if not all(map(math.isfinite, (u, v, du, dv))):
        raise DomainError(f"trajectory became non-finite by t = {t:g}")


def energy_of(system, state):
    """Kinetic energy (1/2) |q'|_g^2."""
    rho = system.surface.conformal(state.chart, state.u, state.v)[0]
    return 0.5 * math.exp(2.0 * float(rho)) * (state.du ** 2 + state.dv ** 2)


def state_at_energy(system, state, k):
    """Rescale the velocity so the state sits on the energy level k."""
    _require_inputs(state)
    system.surface.check_domain(state.chart, state.u, state.v)
    e = energy_of(system, state)
    if e <= 0.0:
        raise DegenerateInputError("cannot rescale a zero velocity")
    fac = math.sqrt(k / e)
    return TangentState(state.chart, state.u, state.v,
                        state.du * fac, state.dv * fac)


def _step_count(t_end, dt):
    return max(1, int(round(t_end / dt)))


def integrate(system, state0, t_end, dt=DEFAULT_DT, record_every=1):
    """Integrate for t in [0, t_end]; returns a Trajectory.

    The surface's chart_line ends every step (the sphere changes
    stereographic chart there); the run is truncated (flagged) if the state
    falls below the surface's floor, and a run that goes non-finite raises
    DomainError.
    """
    _require_inputs(state0, record_every, t_end=t_end, dt=dt)
    step = _make_step(system)
    floor = system.surface.floor
    n_steps = _step_count(t_end, dt)
    chart, u, v, du, dv = (state0.chart, state0.u, state0.v,
                           state0.du, state0.dv)
    system.surface.check_domain(chart, u, v)
    record, kept = StepRecord(), [0]
    record.add(chart, u, v, du, dv)
    truncated = False
    for i in range(1, n_steps + 1):
        chart, u, v, du, dv = step(chart, u, v, du, dv, dt)
        truncated = not v >= floor          # below the floor, or NaN
        if i % record_every == 0 or truncated:
            record.add(chart, u, v, du, dv)
            kept.append(i)
        if truncated:
            break
    _check_blowup(u, v, du, dv, kept[-1] * dt)
    return record.trajectory(kept, dt, truncated)


def trajectory_energies(system, traj):
    rho = np.asarray(system.surface.conformal(traj.chart, traj.q[:, 0],
                                              traj.q[:, 1])[0], float)
    return 0.5 * np.exp(2.0 * rho) * np.sum(traj.dq ** 2, axis=1)


def trajectory_speeds(system, traj):
    return np.sqrt(2.0 * trajectory_energies(system, traj))


def trajectory_curvature(system, traj):
    """Geodesic curvature along the samples by high-order differencing.

    Second derivatives a come from a five-point stencil on the recorded
    velocities; samples whose stencil crosses a chart switch or the ends are
    masked out (returned as NaN).  With lam2 = e^(2 rho) the rest is one
    array expression over all samples,

        kappa = lam2 (a + Gamma(q', q')) . (i q') / (lam2 |q'|^2)^(3/2),

    with one conformal call over the samples of every chart.
    """
    surface = system.surface
    n = len(traj.t)
    if n < 5:
        raise DegenerateInputError("need at least five samples")
    h = float(traj.t[1] - traj.t[0])
    # the samples whose five-point stencil lies in one chart
    window = np.lib.stride_tricks.sliding_window_view(traj.chart, 5)
    idx = 2 + np.nonzero((window == window[:, :1]).all(axis=1))[0]
    dq = traj.dq
    acc = (-dq[idx + 2] + 8 * dq[idx + 1] - 8 * dq[idx - 1]
           + dq[idx - 2]) / (12 * h)
    du, dv = dq[idx, 0], dq[idx, 1]
    at = (traj.chart[idx], traj.q[idx, 0], traj.q[idx, 1])
    surface.check_domain(*at)
    rho, ru, rv = surface.conformal(*at)
    lam2 = np.exp(2.0 * rho)
    speed2 = lam2 * (du * du + dv * dv)
    if np.any(speed2 <= 0.0):
        raise DegenerateInputError("geodesic curvature needs nonzero velocity")
    au = acc[:, 0] + ru * du * du + 2.0 * rv * du * dv - ru * dv * dv
    av = acc[:, 1] - rv * du * du + 2.0 * ru * du * dv + rv * dv * dv
    kappa = np.full(n, np.nan)
    kappa[idx] = lam2 * (av * du - au * dv) / speed2 ** 1.5
    return kappa


@dataclasses.dataclass(frozen=True)
class Section:
    """Directed coordinate hyperplane {coord = value, sign(d coord) = dir}.

    Its methods take a state as the plain tuple (chart, u, v, du, dv).
    """

    coord: int            # 0 for u, 1 for v
    value: float
    direction: int = 1
    wrap: float | None = None  # lattice period for a torus coordinate
    chart: int = 0

    def signed_residual(self, state):
        """direction * (coordinate - value), wrapped into half a period."""
        d = state[1 + self.coord] - self.value
        if self.wrap is not None:
            d = (d + 0.5 * self.wrap) % self.wrap - 0.5 * self.wrap
        return self.direction * d


class StepRecord:
    """The states of one run, kept compactly: one int and four doubles per
    state.  integrate keeps its samples here, and a Poincare return every
    dt step."""

    def __init__(self):
        self.charts = array("i")
        self.values = array("d")

    def add(self, chart, u, v, du, dv):
        self.charts.append(chart)
        self.values.extend((u, v, du, dv))

    def trajectory(self, steps, dt, truncated=False):
        """The Trajectory of the first len(steps) states, state i taken
        after steps[i] dt steps.  A return from state0 that kept every step
        gives, with steps = range(_step_count(t_end, dt) + 1), the samples
        of integrate(system, state0, t_end, dt): the same RK4 steps."""
        n = len(steps)
        vals = np.array(self.values, dtype=float).reshape(-1, 4)[:n]
        return Trajectory(t=np.array(steps) * dt,
                          chart=np.array(self.charts[:n], dtype=int),
                          q=vals[:, :2].copy(), dq=vals[:, 2:].copy(), dt=dt,
                          truncated=truncated)


def poincare_return(system, section, state0, max_time=200.0, dt=DEFAULT_DT,
                    record=None):
    """First directed return to the section.

    Returns (state, return_time).  The hit is the dt step from the state
    before the crossing cut short to the length h that lands it on the
    section: h starts at the linear guess and takes two Newton updates,
    each dividing the section residual by the coordinate's velocity.  The
    cut step has no chart line, so the hit stays in the section's chart
    even just past the sphere's switch circle.  NoReturnError says why
    when there is no return within max_time or the state falls below the
    floor, and DomainError when the run goes non-finite or the hit's energy
    is off the start's by more than RETURN_ENERGY_RTOL.  A StepRecord
    passed as record receives state0 and every full dt step taken, the step
    over the crossing too.
    """
    _require_inputs(state0, max_time=max_time, dt=dt)
    step = _make_step(system)
    cut = _make_step(system, chart_rule=False)
    floor = system.surface.floor
    ci, sval, sdir = 1 + section.coord, section.value, section.direction
    wrap, schart = section.wrap, section.chart
    st = (state0.chart, state0.u, state0.v, state0.du, state0.dv)
    add = record.add if record is not None else None
    if add is not None:
        add(*st)
    prev = section.signed_residual(st)
    armed = abs(prev) > 1e-9
    guard = 0.25 * (wrap if wrap else math.inf)
    n_steps = int(math.ceil(max_time / dt))
    for i in range(1, n_steps + 1):
        nst = step(*st, dt)
        if add is not None:
            add(*nst)
        if not nst[2] >= floor:             # below the floor, or NaN
            _check_blowup(*nst[1:], i * dt)
            raise NoReturnError("trajectory fell below the chart floor")
        if nst[0] == schart:
            cur = nst[ci] - sval        # Section.signed_residual, inlined
            if wrap is not None:
                cur = (cur + 0.5 * wrap) % wrap - 0.5 * wrap
            cur = sdir * cur
            if not armed:
                armed = abs(cur) > 1e-9
            elif (st[0] == schart and prev < 0.0 <= cur
                  and abs(cur - prev) < guard and nst[ci + 2] * sdir > 0.0):
                h = dt * prev / (prev - cur)
                for _ in range(2):
                    hit = cut(*st, h)
                    h -= section.signed_residual(hit) / (sdir * hit[ci + 2])
                hit = cut(*st, h)
                t = (i - 1) * dt + h
                _check_blowup(*hit[1:], t)
                hit = TangentState(*hit)
                e0 = energy_of(system, state0)
                if abs(energy_of(system, hit) - e0) > RETURN_ENERGY_RTOL * e0:
                    raise DomainError(f"return at t = {t:g} is off the "
                                      f"energy level {e0:g}: the run blew up")
                return hit, t
            prev = cur
        st = nst
    _check_blowup(*st[1:], n_steps * dt)
    raise NoReturnError(f"no directed return within time {max_time}")
