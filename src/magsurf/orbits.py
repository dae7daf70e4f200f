"""Periodic orbit finding: closed-form oracles for the homogeneous systems,
Newton shooting on a reduced Poincare return map, and a variational route
through discretized loops of the free-period action: with the period
eliminated it is Taimanov's length-minus-flux functional, whose critical
loops one Newton-Krylov solve of the vertex gradient finds.  The action's
flux is the chart primitive's Gauss line integral, the rule region_flux
uses, and its gradient is sigma times the area each vertex sweeps.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import (DegenerateInputError, MagsurfError, NoConvergenceError,
                     NoReturnError, UnsupportedError)
from .fields import GAUSS_C, local_primitive, s_of_energy
from .flow import (DEFAULT_DT, Section, StepRecord, TangentState,
                   poincare_return, state_at_energy, trajectory_curvature)
from .surfaces import ClosedPolyline

FD_STEP = 1e-7
SHOOT_TOL = 1e-10
SHOOT_MAX_ITER = 50


@dataclasses.dataclass(frozen=True)
class OracleData:
    """Closed-form data for the constant-field homogeneous systems."""

    exists_contractible: bool
    radius: float | None
    period: float | None
    curve_type: str
    boundary_angle: float | None = None


def homogeneous_oracle(kind, s, value=1.0):
    """Contractible orbit data at speed parameter s for the constant field
    f = value, |K| in {0, 1}; orbits have curvature kappa = s |f|."""
    if s <= 0:
        raise DegenerateInputError("s must be positive")
    kappa = s * abs(value)
    if kind == "sphere":
        return OracleData(True, math.atan2(1.0, kappa),
                          2.0 * math.pi * s / math.sqrt(1.0 + kappa * kappa),
                          "circle")
    if kind == "flat_torus":
        if kappa == 0.0:
            return OracleData(False, None, None, "geodesic")
        return OracleData(True, 1.0 / kappa, 2.0 * math.pi / abs(value),
                          "circle")
    if kind == "hyperbolic":
        if kappa > 1.0:
            return OracleData(True, math.atanh(1.0 / kappa),
                              2.0 * math.pi * s
                              / math.sqrt(kappa * kappa - 1.0), "circle")
        if kappa == 1.0:
            return OracleData(False, None, None, "horocycle")
        return OracleData(False, None, None, "boundary_arc",
                          boundary_angle=math.acos(kappa))
    raise UnsupportedError(f"no homogeneous oracle for kind {kind!r}")


# ---------------------------------------------------------------------------
# shooting
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Orbit:
    period: float
    energy: float
    residual: float
    winding: tuple
    section: Section
    seed: TangentState
    recorded: object = None      # the Trajectory, or the call that makes it

    @property
    def trajectory(self):
        """The recorded Trajectory, made on first read and then kept."""
        if callable(self.recorded):
            self.recorded = self.recorded()
        return self.recorded

    @property
    def contractible(self):
        return self.winding == (0, 0)


def _section_state(system, section, k, x, phi):
    """Tangent state on the section from reduced coordinates (x, phi)."""
    if section.coord == 1:
        u, v = x, section.value
    else:
        u, v = section.value, x
    rho = float(system.surface.conformal(section.chart, u, v)[0])
    speed = math.sqrt(2.0 * k) * math.exp(-rho)
    return TangentState(section.chart, u, v,
                        speed * math.cos(phi), speed * math.sin(phi))


def _reduced(section, state):
    x = state.u if section.coord == 1 else state.v
    return np.array([x, math.atan2(state.dv, state.du)])


def _wrap_angle(a):
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def default_section(system, seed):
    """Section through the seed, transverse to its velocity.

    The section is unwrapped; pass an explicit Section with a lattice wrap
    to hunt for winding torus orbits.
    """
    if abs(seed.dv) >= abs(seed.du):
        return Section(coord=1, value=seed.v,
                       direction=1 if seed.dv > 0 else -1, chart=seed.chart)
    return Section(coord=0, value=seed.u,
                   direction=1 if seed.du > 0 else -1, chart=seed.chart)


def shoot_periodic(system, k, seed, section=None, tol=SHOOT_TOL,
                   dt=DEFAULT_DT, max_time=200.0):
    """Newton iteration on the reduced return map at fixed energy k.

    The seed is rescaled onto the energy level; the reduced state is the
    free section coordinate together with the velocity angle.  The map is
    the order-8 return, poincare_return.  Newton runs from the seed until
    |residual| <= tol: finite-difference columns, then a line search that
    halves the step until the residual falls, each candidate's return
    looked for within twice the return time.  The orbit's period and
    residual are the accepted return's, and its winding the lattice
    translation from that return's start to its hit.  Its trajectory, made
    when first read, is the dense output of that return's steps
    (StepRecord.dense), t = 0 to the period dt apart: dt only spaces the
    samples.  Raises NoConvergenceError if the line search stalls or the
    residual is still above tol after SHOOT_MAX_ITER steps; a tol no
    residual can meet (not finite and > 0) is DegenerateInputError.
    """
    if not 0.0 < tol < math.inf:
        raise DegenerateInputError(f"tol must be finite and > 0: {tol}")
    seed = state_at_energy(system, seed, k)
    if section is None:
        section = default_section(system, seed)

    def ret(xv, t_max=max_time):
        st = _section_state(system, section, k, xv[0], xv[1])
        record = StepRecord()
        hit, rt = poincare_return(system, section, st, max_time=t_max,
                                  record=record)
        out = _reduced(section, hit)
        return (np.array([out[0] - xv[0], _wrap_angle(out[1] - xv[1])]),
                rt, hit, record)

    x = _reduced(section, seed)
    out, it = ret(x), 0
    while np.linalg.norm(out[0]) > tol and it < SHOOT_MAX_ITER:
        res = out[0]
        jac = np.empty((2, 2))
        for j in range(2):
            dx = np.zeros(2)
            dx[j] = FD_STEP
            jac[:, j] = (ret(x + dx)[0] - res) / FD_STEP
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        lam = 1.0
        for _ in range(20):
            cand = x + lam * step
            try:
                cout = ret(cand, min(max_time, 2.0 * out[1]))
            except NoReturnError:   # none near the current return time
                lam *= 0.5
                continue
            if np.linalg.norm(cout[0]) < np.linalg.norm(res):
                x, out = cand, cout
                break
            lam *= 0.5
        else:
            raise NoConvergenceError("shooting line search stalled")
        it += 1
    res, rt, hit, record = out
    if np.linalg.norm(res) > tol:
        raise NoConvergenceError(
            f"shooting residual {np.linalg.norm(res):.3e} after {it} steps")
    state = _section_state(system, section, k, x[0], x[1])
    lattice = system.surface.lattice or (math.inf, math.inf)  # none: (0, 0)
    winding = tuple(int(round(d / p)) for d, p in
                    zip((hit.u - state.u, hit.v - state.v), lattice))
    return Orbit(period=rt, energy=k, residual=float(np.linalg.norm(res)),
                 winding=winding, section=section, seed=state,
                 recorded=functools.partial(record.dense, system, rt, dt))


def orbit_curvature_residual(system, orbit):
    """max |kappa(t) - s f(q(t))| over well-resolved samples."""
    s = s_of_energy(orbit.energy)
    traj = orbit.trajectory
    kappa = trajectory_curvature(system, traj)
    f = system.field.eval(traj.chart, traj.q[:, 0], traj.q[:, 1])
    return float(np.max(np.abs(kappa - s * f)[~np.isnan(kappa)]))


def fit_circle(points):
    """Algebraic least-squares circle fit; returns (center, radius)."""
    pts = np.asarray(points, dtype=float)
    a = np.column_stack([2 * pts[:, 0], 2 * pts[:, 1],
                         np.ones(len(pts))])
    b = np.sum(pts ** 2, axis=1)
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    cx, cy, c = sol
    r = math.sqrt(max(c + cx * cx + cy * cy, 0.0))
    return np.array([cx, cy]), r


def orbit_radius(system, orbit):
    """Geodesic radius of a contractible circular orbit."""
    surf = system.surface
    traj = orbit.trajectory
    if surf.constant_curvature == 1:
        amb = surf.to_ambient(traj.chart, traj.q[:, 0], traj.q[:, 1])
        # the circle is the sphere's section by the plane x . n = cos r:
        # a least-squares plane, like fit_circle, is exact on a circle
        # however its samples are spaced
        mid = amb.mean(axis=0)
        normal = np.linalg.eigh((amb - mid).T @ (amb - mid))[1][:, 0]
        return float(np.arccos(min(1.0, abs(mid @ normal))))
    center, r = fit_circle(traj.q)
    if surf.constant_curvature == -1:
        if center[1] <= r:
            raise DegenerateInputError("curve is not a hyperbolic circle")
        return math.atanh(r / center[1])
    return r


# ---------------------------------------------------------------------------
# discrete loops and the free-period action
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class DiscreteLoop(ClosedPolyline):
    """Closed polygonal loop in a single chart with a free period T.

    For torus loops the vertices live in the planar lift and the lattice
    winding closes the last edge.
    """

    vertices: np.ndarray          # (N, 2)
    period: float
    chart: int = 0
    winding: tuple = (0, 0)

    def __post_init__(self):
        super().__post_init__()
        if self.period <= 0:
            raise DegenerateInputError("loop period must be positive")


def circle_loop(center, radius, n, period):
    ang = 2.0 * math.pi * np.arange(n) / n
    verts = np.column_stack([center[0] + radius * np.cos(ang),
                             center[1] + radius * np.sin(ang)])
    return DiscreteLoop(vertices=verts, period=period)


def _midpoint_data(system, loop):
    """Edge vectors, edge midpoints and (rho, rho_u, rho_v) there."""
    x, nxt = loop.edges(system.surface)
    m = 0.5 * (x + nxt)
    rho, ru, rv = system.surface.conformal(loop.chart, m[:, 0], m[:, 1])
    return nxt - x, m, np.asarray(rho, float), ru, rv


def loop_l2_energy(system, loop):
    """Discrete Dirichlet energy, integral of |x'|_g^2 in loop parameter."""
    d, _, rho, _, _ = _midpoint_data(system, loop)
    h = 1.0 / loop.n
    return float(np.sum(np.exp(2.0 * rho) * np.sum(d * d, axis=1)) / h)


def loop_mean_energy(system, loop):
    return loop_l2_energy(system, loop) / (2.0 * loop.period ** 2)


def discrete_action(system, k, loop, primitive=None):
    """Discrete free-period action

        S = sum_i |dx_i|_g^2 / (2 h T) + k T - flux

    with h = 1/N and the metric at the edge midpoints.  The flux is the
    Gauss line integral of local_primitive's primitive, as in region_flux;
    a loop winding around the torus over a field with no periodic primitive
    raises NoGlobalPrimitiveError.
    """
    if primitive is None:
        primitive = local_primitive(system, loop.winding != (0, 0))
    flux = primitive.line_integral(loop.chart,
                                   loop.padded(system.surface)[:, 1:].T)
    return (loop_l2_energy(system, loop) / (2.0 * loop.period)
            + k * loop.period - flux)


def discrete_action_gradient(system, k, loop, t_star=False):
    """Gradient of discrete_action: (d/d vertices, d/dT).

    The flux part is the exact first variation of the polygon's flux:
    sigma (form_density) times the area each vertex sweeps.  With edge i's
    Gauss nodes a_i, b_i, c = GAUSS_C and rot(d) = (d_v, -d_u), vertex i gets
    1/2 [(1/2 + c) sigma(a_i) + (1/2 - c) sigma(b_i)] rot(d_i) from the edge
    it starts, and the same with the two weights swapped from edge i - 1,
    which it ends.  No primitive is needed.  Where the Gauss rule is exact
    for theta (f = 1 on the flat torus) this is the derivative of
    discrete_action; elsewhere they differ by the rule error's derivative.

    With t_star the loop's period is not read: the gradient is taken at
    T* = sqrt(E / 2k), E = loop_l2_energy, where d/dT vanishes, and
    (d/d vertices, T*) is returned; a collapsed loop (E = 0) has no T* and
    raises DegenerateInputError.
    """
    h = 1.0 / loop.n
    d, m, rho, ru, rv = _midpoint_data(system, loop)
    lam2 = np.exp(2.0 * rho)
    d2 = np.sum(d * d, axis=1)
    energy = float(np.sum(lam2 * d2))      # E h
    if t_star and energy == 0.0:
        raise DegenerateInputError("collapsed loop: no period T*")
    t = math.sqrt(energy / h / (2.0 * k)) if t_star else loop.period
    off = d / (2.0 * math.sqrt(3.0))      # Gauss nodes m -+ off
    sigma = system.form_density(loop.chart,
                                *np.concatenate([m - off, m + off]).T)
    sa, sb = sigma[:loop.n, None], sigma[loop.n:, None]
    # vertex i starts edge i and ends edge i - 1
    bend = np.empty_like(d)
    bend[:, 0], bend[:, 1] = ru, rv
    bend *= (d2 * lam2)[:, None]
    pull = 2.0 * lam2[:, None] * d
    rot = d[:, ::-1] * (0.5, -0.5)
    grad = ((bend - pull) / (2.0 * h * t)
            - ((0.5 + GAUSS_C) * sa + (0.5 - GAUSS_C) * sb) * rot)
    end = ((bend + pull) / (2.0 * h * t)
           - ((0.5 - GAUSS_C) * sa + (0.5 + GAUSS_C) * sb) * rot)
    grad[1:] += end[:-1]
    grad[0] += end[-1]
    if t_star:
        return grad, t
    return grad, k - energy / (2.0 * h * t * t)


# ---------------------------------------------------------------------------
# descent to critical loops
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class DescentParams:
    tol: float = 1e-8
    max_iter: int = 200          # Newton-Krylov iterations

    def __post_init__(self):
        if not (self.tol > 0.0 and self.max_iter >= 1):
            raise DegenerateInputError(       # NaN fails the test too
                f"need tol > 0 and max_iter >= 1: {self}")


@dataclasses.dataclass
class DescentResult:
    loop: DiscreteLoop
    outcome: str                 # converged | max_iter
    grad_norm: float
    action: float
    iterations: int


def descend_to_critical(system, k, loop, params=None):
    """Solve grad S* = 0 for a critical loop of the period-free action.

    At fixed vertices the action S is stationary in T at T* = sqrt(E / 2k),
    E = loop_l2_energy, which leaves S* = sqrt(2kE) - flux, the discrete
    Taimanov functional (Taimanov, Russian Math. Surveys 47:2 (1992) 163;
    Abbondandolo, J. Fixed Point Theory Appl. 13 (2013) 397).  Its gradient
    is the vertex part of discrete_action_gradient at T* (envelope theorem).
    The seed's period is not used: loops come back at T*, of mean energy k,
    and a collapsed seed (E = 0) raises DegenerateInputError.

    Critical loops are often saddle points, which no descent line reaches,
    so one Jacobian-free Newton-Krylov iteration (Knoll and Keyes, J.
    Comput. Phys. 193 (2004) 357) drives the vertex gradient to zero from
    the seed.  Its stopping test bounds the largest gradient entry by
    tol / sqrt(number of unknowns), so that a converged loop has Euclidean
    |grad S*| < tol.  A solve that fails or raises a package error or
    ValueError (scipy's, on a non-finite residual) returns the seed's
    vertices at T* with outcome max_iter and the gradient norm there.
    """
    from scipy.optimize import root

    if params is None:
        params = DescentParams()
    primitive = local_primitive(system, loop.winding != (0, 0))

    def at_t_star(x):
        """The gradient at the vertices x at their period T*, and T*."""
        trial = dataclasses.replace(loop, vertices=x.reshape(-1, 2))
        return discrete_action_gradient(system, k, trial, t_star=True)

    x0 = loop.vertices.ravel()
    try:
        res = root(lambda x: at_t_star(x)[0].ravel(), x0, method="krylov",
                   options={"fatol": params.tol / math.sqrt(x0.size),
                            "maxiter": params.max_iter})
        x, it = res.x, res.nit
        g, t = at_t_star(x)
    except (MagsurfError, ValueError):   # a collapsed or non-finite iterate
        x, it = x0, 0
        g, t = at_t_star(x0)             # a collapsed seed raises here
    outcome = "converged" if np.linalg.norm(g) < params.tol else "max_iter"
    if outcome == "max_iter" and it:     # with it = 0, x is the seed
        x, (g, t) = x0, at_t_star(x0)
    final = dataclasses.replace(loop, vertices=x.reshape(-1, 2), period=t)
    return DescentResult(loop=final, outcome=outcome,
                         grad_norm=float(np.linalg.norm(g)),
                         action=discrete_action(system, k, final, primitive),
                         iterations=it)
