"""Time integration of the twisted second-order flow.

The equation of motion in a conformal chart reads

    q'' = -Gamma(q)[q', q'] + f(q) * i q'

where i is the 90 degree rotation; its solutions have constant kinetic
energy and geodesic curvature f / |q'|_g.  Integration uses a fixed-step
classical fourth-order Runge-Kutta scheme; the surface's post_step rule
runs at step boundaries and section crossings are located by bisection
inside a step.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DegenerateInputError, NoReturnError
from .surfaces import ChartPoint, geodesic_curvature_of

DEFAULT_DT = 1e-3
SECTION_TOL = 1e-12


@dataclasses.dataclass(frozen=True)
class TangentState:
    chart: int
    u: float
    v: float
    du: float
    dv: float

    def point(self):
        return ChartPoint(self.chart, self.u, self.v)


@dataclasses.dataclass
class Trajectory:
    t: np.ndarray        # (n,)
    chart: np.ndarray    # (n,) int
    q: np.ndarray        # (n, 2)
    dq: np.ndarray       # (n, 2)
    dt: float
    truncated: bool = False

    def state(self, i):
        return TangentState(int(self.chart[i]), *self.q[i], *self.dq[i])


def make_rhs(system):
    """Scalar fast path for the second-order right-hand side."""
    conformal = system.surface.conformal
    feval = system.field.eval

    def rhs(chart, u, v, du, dv):
        _, ru, rv = conformal(chart, u, v)
        ru, rv = float(ru), float(rv)
        f = float(feval(chart, u, v))
        ddu = -(ru * du * du + 2.0 * rv * du * dv - ru * dv * dv) - f * dv
        ddv = -(-rv * du * du + 2.0 * ru * du * dv + rv * dv * dv) + f * du
        return ddu, ddv

    return rhs


def _make_step(system):
    """One RK4 step on plain floats (chart, u, v, du, dv, h), followed by
    the surface's post_step chart rule; returns the new 5-tuple."""
    rhs = make_rhs(system)
    post_step = system.surface.post_step

    def step(chart, u, v, du, dv, h):
        a1u, a1v = rhs(chart, u, v, du, dv)
        k1 = (du, dv, a1u, a1v)
        a2u, a2v = rhs(chart, u + 0.5 * h * k1[0], v + 0.5 * h * k1[1],
                       du + 0.5 * h * k1[2], dv + 0.5 * h * k1[3])
        k2 = (du + 0.5 * h * k1[2], dv + 0.5 * h * k1[3], a2u, a2v)
        a3u, a3v = rhs(chart, u + 0.5 * h * k2[0], v + 0.5 * h * k2[1],
                       du + 0.5 * h * k2[2], dv + 0.5 * h * k2[3])
        k3 = (du + 0.5 * h * k2[2], dv + 0.5 * h * k2[3], a3u, a3v)
        a4u, a4v = rhs(chart, u + h * k3[0], v + h * k3[1],
                       du + h * k3[2], dv + h * k3[3])
        k4 = (du + h * k3[2], dv + h * k3[3], a4u, a4v)
        s = h / 6.0
        return post_step(chart,
                         u + s * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
                         v + s * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
                         du + s * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]),
                         dv + s * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3]))

    return step


def _require_finite(state):
    if not all(map(math.isfinite, (state.u, state.v, state.du, state.dv))):
        raise DegenerateInputError(f"non-finite state {state}")


def energy_of(system, state):
    """Kinetic energy (1/2) |q'|_g^2."""
    rho = system.surface.conformal(state.chart, state.u, state.v)[0]
    return 0.5 * math.exp(2.0 * float(rho)) * (state.du ** 2 + state.dv ** 2)


def state_at_energy(system, state, k):
    """Rescale the velocity so the state sits on the energy level k."""
    _require_finite(state)
    e = energy_of(system, state)
    if e <= 0.0:
        raise DegenerateInputError("cannot rescale a zero velocity")
    fac = math.sqrt(k / e)
    return TangentState(state.chart, state.u, state.v,
                        state.du * fac, state.dv * fac)


def integrate(system, state0, t_end, dt=DEFAULT_DT, record_every=1):
    """Integrate for t in [0, t_end]; returns a Trajectory.

    The surface's post_step applies after every step (the sphere changes
    stereographic chart there); the run is truncated (flagged) if the state
    falls below the surface's floor.
    """
    step = _make_step(system)
    floor = system.surface.floor
    n_steps = max(1, int(round(t_end / dt)))
    _require_finite(state0)
    chart, u, v, du, dv = (state0.chart, state0.u, state0.v,
                           state0.du, state0.dv)
    system.surface.check_domain(chart, u, v)
    n_rec = n_steps // record_every + 1
    ts = np.empty(n_rec + 1)
    charts = np.empty(n_rec + 1, dtype=int)
    qs = np.empty((n_rec + 1, 2))
    dqs = np.empty((n_rec + 1, 2))
    ts[0], charts[0], qs[0], dqs[0] = 0.0, chart, (u, v), (du, dv)
    m = 1
    truncated = False
    for i in range(1, n_steps + 1):
        chart, u, v, du, dv = step(chart, u, v, du, dv, dt)
        truncated = v < floor
        if i % record_every == 0 or truncated:
            ts[m], charts[m], qs[m], dqs[m] = i * dt, chart, (u, v), (du, dv)
            m += 1
        if truncated:
            break
    return Trajectory(t=ts[:m], chart=charts[:m], q=qs[:m], dq=dqs[:m],
                      dt=dt, truncated=truncated)


def trajectory_energies(system, traj):
    # every supported surface uses one conformal formula across its charts
    rho = np.asarray(system.surface.conformal(0, traj.q[:, 0],
                                              traj.q[:, 1])[0], float)
    return 0.5 * np.exp(2.0 * rho) * np.sum(traj.dq ** 2, axis=1)


def trajectory_speeds(system, traj):
    return np.sqrt(2.0 * trajectory_energies(system, traj))


def trajectory_curvature(system, traj):
    """Geodesic curvature along the samples by high-order differencing.

    Second derivatives come from a five-point stencil on the recorded
    velocities; samples whose stencil crosses a chart switch or the ends are
    masked out (returned as NaN).
    """
    n = len(traj.t)
    if n < 5:
        raise DegenerateInputError("need at least five samples")
    h = float(traj.t[1] - traj.t[0])
    kappa = np.full(n, np.nan)
    dq = traj.dq
    acc = np.full((n, 2), np.nan)
    acc[2:-2] = (-dq[4:] + 8 * dq[3:-1] - 8 * dq[1:-3] + dq[:-4]) / (12 * h)
    same_chart = np.zeros(n, dtype=bool)
    same_chart[2:-2] = ((traj.chart[4:] == traj.chart[:-4])
                        & (traj.chart[3:-1] == traj.chart[:-4])
                        & (traj.chart[2:-2] == traj.chart[:-4])
                        & (traj.chart[1:-3] == traj.chart[:-4]))
    for i in np.nonzero(same_chart)[0]:
        p = ChartPoint(int(traj.chart[i]), traj.q[i, 0], traj.q[i, 1])
        kappa[i] = geodesic_curvature_of(system.surface, p, dq[i], acc[i])
    return kappa


@dataclasses.dataclass(frozen=True)
class Section:
    """Directed coordinate hyperplane {coord = value, sign(d coord) = dir}."""

    coord: int            # 0 for u, 1 for v
    value: float
    direction: int = 1
    wrap: float | None = None  # lattice period for a torus coordinate
    chart: int = 0

    def residual(self, state):
        x = (state.u, state.v)[self.coord]
        d = x - self.value
        if self.wrap is not None:
            d = (d + 0.5 * self.wrap) % self.wrap - 0.5 * self.wrap
        return d

    def velocity(self, state):
        return (state.du, state.dv)[self.coord]


def poincare_return(system, section, state0, max_time=200.0, dt=DEFAULT_DT,
                    tol=SECTION_TOL):
    """First directed return to the section.

    Returns (state, return_time).  The crossing time is refined by bisecting
    the sub-step length of a single Runge-Kutta step, so the final residual
    is below tol.
    """
    step = _make_step(system)
    floor = system.surface.floor

    def signed_res(state):
        return section.direction * section.residual(state)

    def advance(state, h):
        return TangentState(*step(state.chart, state.u, state.v, state.du,
                                  state.dv, h))

    _require_finite(state0)
    st = state0
    prev = signed_res(st)
    armed = abs(prev) > 1e-9
    guard = 0.25 * (section.wrap if section.wrap else math.inf)
    n_steps = int(math.ceil(max_time / dt))
    for i in range(1, n_steps + 1):
        nst = advance(st, dt)
        if nst.v < floor:
            raise NoReturnError("trajectory fell below the chart floor")
        on_chart = nst.chart == section.chart and st.chart == section.chart
        cur = signed_res(nst) if nst.chart == section.chart else prev
        if not armed:
            armed = abs(cur) > 1e-9
        elif (on_chart and prev < 0.0 <= cur and abs(cur - prev) < guard
              and section.velocity(nst) * section.direction > 0.0):
            # refine the crossing by bisecting the sub-step length
            lo, hi = 0.0, dt
            hit, tau = nst, dt
            for _ in range(100):
                tau = 0.5 * (lo + hi)
                cand = advance(st, tau)
                r = signed_res(cand)
                if abs(r) < tol:
                    hit = cand
                    break
                if r < 0.0:
                    lo = tau
                else:
                    hi = tau
                    hit = cand
            return hit, (i - 1) * dt + tau
        if nst.chart == section.chart:
            prev = cur
        st = nst
    raise NoReturnError(f"no directed return within time {max_time}")
