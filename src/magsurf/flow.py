"""Time integration of the twisted second-order flow.

The equation of motion in a conformal chart reads

    q'' = -Gamma(q)[q', q'] + f(q) * i q'

where i is the 90 degree rotation; its solutions have constant kinetic
energy and geodesic curvature f / |q'|_g.  One loop on plain floats, text
whose stages hold the surface's and field's step_line (each class's one
scalar point formula) and _accel's formula, runs RK4 steps of dt
(integrate) or order-8 Gragg-Bulirsch-Stoer steps (poincare_return), each
ended by the surface's chart_line (the sphere's chart switch).  A return's
step is MACRO_STEP, or CELL_STEP of the time the state takes to cross the
surface's or field's scale if that is shorter.  The loop runs on a
TangentState, the plain tuple (chart, u, v, du, dv), hands each state to a
list's extend when given one, and stops at the floor or a Section's
crossing, both of which it reads itself; there one pass of it without the
chart line, cut short, lands on the section.  A shot orbit's trajectory is
the dense output of its return's steps (StepRecord.dense); dt spaces them.
"""
from __future__ import annotations

import ast
import collections
import dataclasses
import functools
import math
import numbers
import textwrap

import numpy as np

from .errors import (DegenerateInputError, DomainError, NoReturnError,
                     UnsupportedError)

DEFAULT_DT = 1e-3
# a return whose energy left the start's by more than this, relative, came
# from a step too coarse for the field or a run that blew up while finite
RETURN_ENERGY_RTOL = 1e-6
# the longest order-8 step a return takes
MACRO_STEP = 0.02
# an order-8 step spans at most this fraction of the surface's or field's
# scale: on spline data the knots cost it its order, and from here down
# orbit periods stay within 4e-12; on the sphere or the half-plane it keeps
# the arc per step, so the energy, at any speed
CELL_STEP = 0.04


class TangentState(collections.namedtuple("TangentState",
                                          "chart u v du dv")):
    """A chart and a point and velocity in it: the tuple (chart, u, v, du,
    dv) the compiled loop runs on, taken by it and by Section as it is."""

    __slots__ = ()

    def __new__(cls, chart, u, v, du, dv):
        # plain Python numbers: with a numpy scalar here every step the
        # loop takes from this state would run on numpy scalar arithmetic
        return super().__new__(cls, int(chart), float(u), float(v),
                               float(du), float(dv))

    @classmethod
    def _make(cls, iterable):       # and so _replace: through __new__
        return cls(*iterable)


@dataclasses.dataclass
class Trajectory:
    t: np.ndarray        # (n,)
    chart: np.ndarray    # (n,) int
    q: np.ndarray        # (n, 2)
    dq: np.ndarray       # (n, 2)
    dt: float
    truncated: bool = False


def _accel(system, chart, u, v, du, dv):
    """q'' from the surface's conformal()[1:] and the field's eval."""
    ru, rv = system.surface.conformal(chart, u, v)[1:]
    f = system.field.eval(chart, u, v)
    return (-(ru * du * du + 2.0 * rv * du * dv - ru * dv * dv) - f * dv,
            -(-rv * du * du + 2.0 * ru * du * dv + rv * dv * dv) + f * du)


def make_rhs(system):
    """Reference right-hand side on plain floats: _accel at one point."""
    def rhs(chart, u, v, du, dv):
        return tuple(map(float, _accel(system, chart, u, v, du, dv)))

    return rhs


# The one compiled function: n steps of length h from chart, u, v, du, dv, with
# the state in locals.  At each stage's point x, y the surface's and field's
# step_line set ru, rv and f (a flat chart has no Christoffel terms, the
# half-plane no ru).  A step is classical RK4, or with macro an order-8
# Gragg-Bulirsch-Stoer step: the explicit midpoint rule over h in m = 2, 4, 6,
# 8 substeps g = h / m, whose error is even in g, extrapolated to g = 0 by the
# weights w of the Aitken-Neville tableau's last entry (prod over the other m'
# of m^2 / (m^2 - m'^2)); the first stage, at the start, serves both.  The
# update gives the state x, y, p, q, and the surface's chart_line may then move
# it to another chart.  ext, when given, receives the states of steps every, 2
# every, ...  The loop stops early at the surface's floor, bound by name (the
# state that fell), or at the section's directed crossing in its chart (the
# state before it, and the residuals prev, cur on either side), armed once a
# state, the start or a later one, is more than 1e-9 off the section; on a
# wrapped coordinate a jump of a quarter period is the seam, not a crossing.
# With no section, n = 1 and no chart line it is the step a crossing is cut
# with.  Assignments name at most two targets (plain stores, no tuple) and
# literal factors are floats (CPython specializes float * float).
_LOOP = """\
def run(chart, u, v, du, dv, h, n, ext, every=1, section=None, macro=False):
    schart = None
    if section is not None:
        schart, coord = section.chart, section.coord
        sval = section.value
        sdir, wrap = section.direction, section.wrap
        prev = section.signed_residual((chart, u, v, du, dv))
        armed = abs(prev) > 1e-9
    hh, s = 0.5 * h, h / 6.0
    for k in range(1, n + 1):
        c0 = chart
        x, y = u, v
        p1, q1 = du, dv
{0}
        if macro:
            ex = ey = ep = eq = 0.0
            for m, w in ((2, -1 / 360), (4, 16 / 45), (6, -729 / 280),
                         (8, 1024 / 315)):
                g = h / m
                g2 = 2.0 * g
                xa, ya = u, v
                pa, qa = du, dv
                x, y = u + g * du, v + g * dv
                p5, q5 = du + g * a1u, dv + g * a1v
                for _ in range(m - 1):
{4}
                    xa, x = x, xa + g2 * p5
                    ya, y = y, ya + g2 * q5
                    pa, p5 = p5, pa + g2 * a5u
                    qa, q5 = q5, qa + g2 * a5v
                ex += w * (x - u)
                ey += w * (y - v)
                ep += w * (p5 - du)
                eq += w * (q5 - dv)
            x, y = u + ex, v + ey
            p, q = du + ep, dv + eq
        else:
            p2, q2 = du + hh * a1u, dv + hh * a1v
            x, y = u + hh * p1, v + hh * q1
{1}
            p3, q3 = du + hh * a2u, dv + hh * a2v
            x, y = u + hh * p2, v + hh * q2
{2}
            p4, q4 = du + h * a3u, dv + h * a3v
            x, y = u + h * p3, v + h * q3
{3}
            x = u + s * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
            y = v + s * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
            p = du + s * (a1u + 2.0 * a2u + 2.0 * a3u + a4u)
            q = dv + s * (a1v + 2.0 * a2v + 2.0 * a3v + a4v)
        {chart}
        if ext is not None and not k % every:
            ext((chart, x, y, p, q))
        if not y >= floor:              # below the floor, or NaN
            return k, (chart, x, y, p, q), None
        if chart == schart:
            cur = (y if coord else x) - sval
            if wrap is not None:
                cur = (cur + 0.5 * wrap) % wrap - 0.5 * wrap
            cur = sdir * cur
            if not armed:
                armed = abs(cur) > 1e-9
            elif (c0 == schart and prev < 0.0 <= cur
                  and (not wrap or abs(cur - prev) < 0.25 * wrap)
                  and (q if coord else p) * sdir > 0.0):
                return k, (c0, u, v, du, dv), (prev, cur)
            prev = cur
        u, v = x, y
        du, dv = p, q
    return n, (chart, u, v, du, dv), None
"""
_CURVED = """\
{metric}
{field}
a{n}u = -(ru * p{n} * p{n} + 2.0 * rv * p{n} * q{n}
          - ru * q{n} * q{n}) - f * q{n}
a{n}v = -(-rv * p{n} * p{n} + 2.0 * ru * p{n} * q{n}
          + rv * q{n} * q{n}) + f * p{n}"""
# ru = 0: _CURVED without its ru terms, the 0.0 keeping its signed zeros
_RV = """\
{metric}
{field}
a{n}u = -(0.0 + 2.0 * rv * p{n} * q{n}) - f * q{n}
a{n}v = -(-rv * p{n} * p{n} + rv * q{n} * q{n}) + f * p{n}"""
_FLAT = "{field}\na{n}u, a{n}v = -f * q{n}, f * p{n}"
# the stage for the Christoffel terms the metric line assigns
_STAGES = {frozenset({"ru", "rv"}): _CURVED, frozenset({"rv"}): _RV,
           frozenset(): _FLAT}
# the indent of each stage: the first at the start, three in the RK4
# body and one in the midpoint substeps
_INDENTS = (8, 12, 12, 12, 20)
# what each class's line may assign; any other name it assigns, or binds
# in step_names, must be one the loop does not use
_LINE_OUTPUTS = {"metric": {"ru", "rv"}, "field": {"f"},
                 "chart": {"chart", "x", "y", "p", "q"}}


def _write(metric, field, chart):
    """_LOOP with these lines in its five stages and after its update."""
    stage = _STAGES.get(frozenset(_names(metric, ast.Store) & {"ru", "rv"}))
    if stage is None:
        raise UnsupportedError(f"metric line {metric!r} sets ru but not rv")
    return _LOOP.format(*(textwrap.indent(stage.format(
        metric=metric, field=field, n=n), " " * pad)
        for n, pad in enumerate(_INDENTS, 1)), chart=chart or "")


def _names(source, ctx=ast.expr_context):
    """The names a source reads or assigns (only assigns: ctx ast.Store)."""
    return {n.id for n in ast.walk(ast.parse(source or ""))
            if isinstance(n, ast.Name) and isinstance(n.ctx, ctx)}


@functools.lru_cache(maxsize=128)
def _code(metric, field, chart, bound):
    """_LOOP written from the surface's metric and chart lines and the
    field's line, compiled once per distinct text.  A line that assigns a
    name of the loop's own, or a step name (in bound) that the loop's
    locals would shadow, fails with UnsupportedError instead of
    overwriting the loop's state."""
    own = _names(_write(metric and "ru = rv = 0.0", "f = 0.0", None))
    for key, line in dict(metric=metric, field=field, chart=chart).items():
        if clash := own & (_names(line, ast.Store) - _LINE_OUTPUTS[key]):
            raise UnsupportedError(f"the {key} line assigns {sorted(clash)}, "
                                   "which the RK4 loop uses")
    if clash := own & set(bound):
        raise UnsupportedError(f"the step names {sorted(clash)} are names "
                               "the RK4 loop uses")
    return compile(_write(metric, field, chart), "<rk4>", "exec")


def _make_loop(system, chart_rule=True):
    """_LOOP on plain floats, run(chart, u, v, du, dv, h, n, ext, every,
    section, macro) -> (steps taken, state, (prev, cur) at a crossing or
    None), written from the system's lines with their values, and the
    surface's floor, bound by name, never written into the text; its steps
    end in the surface's chart_line unless chart_rule is False.  A surface
    or field without a step_line, or a name both of them bind, fails here."""
    surface, field = system.surface, system.field
    lines = (surface.step_line, field.step_line,
             chart_rule and surface.chart_line or None)
    if shared := surface.step_names.keys() & field.step_names.keys():
        raise UnsupportedError(f"surface and field both bind {sorted(shared)}")
    namespace = {**surface.step_names, **field.step_names}
    code = _code(*lines, tuple(namespace))
    namespace["floor"] = surface.floor
    exec(code, namespace)
    return namespace["run"]


def _require_inputs(state, every=1, **args):
    """A finite state, dt, t_end and max_time finite and positive and every
    (record_every) an integer >= 1, or a DegenerateInputError naming it."""
    if not all(map(math.isfinite, state[1:])):
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
    rho = system.surface.conformal(*state[:3])[0]
    return 0.5 * math.exp(2.0 * float(rho)) * (state.du ** 2 + state.dv ** 2)


def state_at_energy(system, state, k):
    """Rescale the velocity so the state sits on the energy level k."""
    _require_inputs(state)
    system.surface.check_domain(*state[:3])
    e = energy_of(system, state)
    if e <= 0.0:
        raise DegenerateInputError("cannot rescale a zero velocity")
    fac = math.sqrt(k / e)
    return TangentState(*state[:3], state.du * fac, state.dv * fac)


def _step_count(t_end, dt):
    return max(1, int(round(t_end / dt)))


def integrate(system, state0, t_end, dt=DEFAULT_DT, record_every=1):
    """Integrate for t in [0, t_end]; returns a Trajectory.

    The surface's chart_line ends every step (the sphere changes
    stereographic chart there); the run is truncated (flagged) if the state
    falls below the surface's floor, and a run that goes non-finite raises
    DomainError.  The dt loop runs all the steps in one call, with no
    section, and hands the record every record_every-th state; the state
    that fell below the floor is the last sample.
    """
    _require_inputs(state0, record_every, t_end=t_end, dt=dt)
    system.surface.check_domain(*state0[:3])
    values = list(state0)
    i, st, _ = _make_loop(system)(*state0, dt, _step_count(t_end, dt),
                                  values.extend, record_every)
    truncated = not st[2] >= system.surface.floor   # below it, or NaN
    kept = list(range(0, i + 1, record_every))
    if truncated and i % record_every:
        values.extend(st)
        kept.append(i)
    _check_blowup(*st[1:], kept[-1] * dt)
    vals = np.array(values, dtype=float).reshape(-1, 5)[:len(kept)]
    return Trajectory(t=np.array(kept) * dt, chart=vals[:, 0].astype(int),
                      q=vals[:, 1:3].copy(), dq=vals[:, 3:].copy(), dt=dt,
                      truncated=truncated)


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
    """Directed coordinate hyperplane {coord = value, sign(d coord) = dir}
    in one chart, which the loop reads by field name.  Its methods take a
    state, a TangentState or any tuple (chart, u, v, du, dv), as it is.
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
    """A Poincare return's start and every step, as one flat list, five
    numbers per state, chart, u, v, du, dv, which the loop extends by each
    state, and their length, step."""

    def __init__(self):
        self.values = []
        self.step = None

    def dense(self, system, t_end, dt):
        """The Trajectory at t = j dt, j = 0 ... _step_count(t_end, dt),
        from these states, step apart: on the step from node i, the Hermite
        interpolant of q, q' and q'' (one vectorized _accel) at nodes i - 1
        ... i + 2, the four nearest at the ends or all of fewer (Hairer-
        Norsett-Wanner I, II.9), relative to node i and in its chart (by
        switch_chart).  A sample on a step that ends in another chart gets
        the chart line, as a loop step of length 0, as RK4 at dt would."""
        h, nodes = self.step, np.array(self.values, float).reshape(-1, 5)
        n = len(nodes)
        m, chart, steps = min(4, n), nodes[:, 0].astype(int), np.arange(n - 1)
        first = np.clip(steps - 1, 0, n - m)
        st = nodes[first[:, None] + np.arange(m)]      # (n - 1, m, 5)
        for i, j in zip(*np.nonzero(st[..., 0] != chart[:-1, None])):
            st[i, j] = system.surface.switch_chart(int(st[i, j, 0]),
                                                   *st[i, j, 1:])
        ref = st[steps, steps - first, 1:3]
        c, *rest = st.reshape(-1, 5).T
        acc = np.stack(_accel(system, c.astype(int), *rest), -1)
        data = np.stack([st[..., 1:3] - ref[:, None], h * st[..., 3:],
                         h * h * acc.reshape(n - 1, m, 2)], 2)
        # the confluent Vandermonde matrix in sigma = (t - t_mid) / h, about
        # the nodes' midpoint: condition 1.8e5 at m = 4, 2.4e6 about node 0
        z, k = np.arange(m) - 0.5 * (m - 1), np.arange(3 * m)
        vander = np.stack([fall * z[:, None] ** np.maximum(k - d, 0) for d,
                           fall in enumerate((1, k, k * (k - 1)))], 1)
        coef = np.linalg.inv(vander.reshape(3 * m, 3 * m)) @ data.reshape(
            n - 1, 3 * m, 2)
        coef = np.concatenate([coef, np.append(     # and those of h q'
            coef[:, 1:] * k[1:, None], coef[:, :1] * 0.0, 1)], 2)
        t = np.arange(_step_count(t_end, dt) + 1) * dt
        i = np.minimum((t / h).astype(int), n - 2)
        pw = np.ones((len(t), 3 * m))
        pw[:, 1:] = (t / h - first[i] - 0.5 * (m - 1))[:, None]
        val = np.einsum("nk,nkc->nc", np.cumprod(pw, 1), coef[i])
        traj = Trajectory(t=t, chart=chart[i], q=ref[i] + val[:, :2],
                          dq=val[:, 2:] / h, dt=dt)
        run = _make_loop(system)
        for j in np.nonzero(chart[i + 1] != chart[i])[0]:
            c, *x = run(*TangentState(traj.chart[j], *traj.q[j],
                                      *traj.dq[j]), 0.0, 1, None)[1]
            traj.chart[j], traj.q[j], traj.dq[j] = c, x[:2], x[2:]
        return traj


def poincare_return(system, section, state0, max_time=200.0, record=None):
    """First directed return to the section.

    Returns (state, return_time).  The loop runs order-8 steps of
    MACRO_STEP, or of CELL_STEP of the time the state takes to cross the
    surface's or field's scale if that is shorter, until the state falls
    below the floor or steps over the section (the loop's own tests, from
    the start state on).  The hit is one pass of the loop, without the
    chart line (so it stays in the section's chart), from the state before
    the crossing, its step cut to the length h that lands on the section:
    the linear guess and two Newton updates, each dividing the section
    residual by the coordinate's velocity.  NoReturnError says why when
    there is no return within max_time or the state falls below the floor,
    and DomainError when the run goes non-finite or the hit's energy is off
    the start's by more than RETURN_ENERGY_RTOL, naming a time in the step
    that crossed; a state at rest is DegenerateInputError.  A StepRecord
    passed as record receives state0 and every full step, the one over the
    crossing too, and their length as its step.
    """
    _require_inputs(state0, max_time=max_time)
    e0 = energy_of(system, state0)
    if e0 == 0.0:
        raise DegenerateInputError("a state at rest has no return")
    scale = min(system.surface.scale, system.field.scale)
    step = min(MACRO_STEP, CELL_STEP * scale / math.sqrt(2.0 * e0))
    if record is not None:
        record.values.extend(state0)
        record.step = step
    i, st, crossing = _make_loop(system)(
        *state0, step, int(math.ceil(max_time / step)),
        record and record.values.extend, 1, section, macro=True)
    if crossing is None:
        _check_blowup(*st[1:], i * step)
        if not st[2] >= system.surface.floor:
            raise NoReturnError("trajectory fell below the chart floor")
        raise NoReturnError(f"no directed return within time {max_time}")
    cut = _make_loop(system, chart_rule=False)
    ci, sdir = 1 + section.coord, section.direction
    prev, cur = crossing
    h = step * prev / (prev - cur)
    for _ in range(2):
        hit = cut(*st, h, 1, None, macro=True)[1]
        h -= section.signed_residual(hit) / (sdir * hit[ci + 2])
    hit = cut(*st, h, 1, None, macro=True)[1]
    t = (i - 1) * step + h
    _check_blowup(*hit[1:], t)
    hit = TangentState(*hit)
    if abs(energy_of(system, hit) - e0) > RETURN_ENERGY_RTOL * e0:
        t = min(max(t, (i - 1) * step), i * step)   # in the step that crossed
        raise DomainError(f"return at t = {t:g} is off the energy level "
                          f"{e0:g}: step {step:g} may be too coarse for "
                          "RETURN_ENERGY_RTOL, or the run blew up")
    return hit, t
