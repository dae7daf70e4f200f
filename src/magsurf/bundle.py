"""Unit tangent bundle machinery: the canonical coframe, contact
certificates for rescaled flows, invariant-measure actions and rotation
data, and the boundary action identity checks.

Coordinates on the bundle are (u, v, phi) with phi the angle of the unit
vector against the first conformal frame vector e1 = e^(-rho) d/du.  In
these coordinates

    alpha = e^rho (cos phi du + sin phi dv)
    beta  = e^rho (-sin phi du + cos phi dv)
    psi   = d phi - rho_v du + rho_u dv

and the generator of the rescaled flow is X_s = X + s f V with V = d/dphi
and X the geodesic generator.  Candidates pair with X_s in closed form:
alpha(X_s) = 1, psi(X_s) = s f and, for a base 1-form zeta,
(pi* zeta)(X_s) = e^(-rho) (zeta_u cos phi + zeta_v sin phi).
"""
from __future__ import annotations

import dataclasses
import math
import numbers

import numpy as np

from .errors import (DegenerateInputError, InvalidCandidateError,
                     UnsupportedError)
from .fields import (ConstantField, flux_total, local_primitive,
                     stokes_residual)
from .flow import trajectory_speeds
from .regions import region_flux, taimanov_value

_CONSISTENCY_SAMPLES = 32
CONTACT_TOL = 1e-10
_RELATION_SAMPLES = 20
# sampled in place of the unmodelled fundamental domain of a quotient
_HALF_PLANE_PATCH = ((-1.0, 1.0), (0.5, 2.0))


def coframe_coefficients(surface, chart, u, v, phi):
    """Components of (alpha, psi, beta) in the coordinates (u, v, phi).

    Returns three arrays of shape (..., 3).
    """
    rho, ru, rv = surface.conformal(chart, u, v)
    rho = np.asarray(rho, float)
    ru = np.broadcast_to(np.asarray(ru, float), rho.shape)
    rv = np.broadcast_to(np.asarray(rv, float), rho.shape)
    lam = np.exp(rho)
    c, s = np.cos(phi), np.sin(phi)
    zero = np.zeros_like(lam)
    one = np.ones_like(lam)
    alpha = np.stack([lam * c, lam * s, zero], axis=-1)
    beta = np.stack([-lam * s, lam * c, zero], axis=-1)
    psi = np.stack([-rv, ru, one], axis=-1)
    return alpha, psi, beta


# ---------------------------------------------------------------------------
# discrete Stokes checks of the structural relations
# ---------------------------------------------------------------------------

# the claimed derivatives d alpha = psi ^ beta, d psi = K beta ^ alpha and
# d beta = alpha ^ psi: (form, wedge factors) as indices into
# coframe_coefficients' (alpha, psi, beta)
_RELATIONS = {"alpha": (0, 1, 2), "psi": (1, 2, 0), "beta": (2, 0, 1)}


def structural_relations_check(surface, h=1e-3):
    """Max stokes_residual of the three coframe derivatives over random
    coordinate parallelograms of side h, _RELATION_SAMPLES of them from a
    fixed seed.  Residuals vanish at least linearly in h.
    """
    rng = np.random.default_rng(0)
    if surface.lattice is not None:
        base_box = ((0.0, surface.lattice[0]), (0.0, surface.lattice[1]))
    elif surface.constant_curvature == -1:
        base_box = _HALF_PLANE_PATCH
    else:
        base_box = ((-0.8, 0.8), (-0.8, 0.8))
    axes = np.eye(3)

    def coframe(z):
        return coframe_coefficients(surface, 0, *np.moveaxis(z, -1, 0))
    out = {}
    for name, (i, j, m) in _RELATIONS.items():
        def dform(z):
            c = coframe(z)
            k = surface.gauss_curvature(0, z[0], z[1]) if name == "psi" else 1
            return float(k) * (np.outer(c[j], c[m]) - np.outer(c[m], c[j]))
        worst = 0.0
        for _ in range(_RELATION_SAMPLES):
            z0 = np.array([rng.uniform(*base_box[0]),
                           rng.uniform(*base_box[1]),
                           rng.uniform(0.0, 2.0 * math.pi)])
            for a, b in ((0, 1), (0, 2), (1, 2)):
                worst = max(worst, stokes_residual(
                    lambda z: coframe(z)[i], dform, z0, axes[a], axes[b], h))
        out[name] = worst
    return out


# ---------------------------------------------------------------------------
# candidate 1-forms and contact certificates
# ---------------------------------------------------------------------------

class ContactCandidate:
    """tau = alpha + s ratio psi - s pi* zeta with d zeta = sigma - ratio K mu.

    Without zeta this is the rotated form alpha + c psi (c = s ratio) of the
    homogeneous systems, consistent when ratio K = f.  On surfaces with
    chi != 0, ratio = [sigma] / (2 pi chi); ratio = 0 with zeta a primitive
    of sigma is the exact-primitive candidate of exact systems.
    """

    def __init__(self, ratio, zeta=None):
        self.ratio = float(ratio)
        self.zeta = zeta

    def coefficients(self, system, s, chart, u, v):
        """(a, b_u, b_v) with tau(X_s) = a - s (b_u cos phi + b_v sin phi)."""
        f = np.asarray(system.field.eval(chart, u, v), float)
        a = 1.0 + s * self.ratio * (s * f)
        if self.zeta is None:
            return a, 0.0, 0.0
        lam_inv = np.exp(-np.asarray(
            system.surface.conformal(chart, u, v)[0], float))
        z1, z2 = self.zeta(chart, u, v)
        return a, lam_inv * z1, lam_inv * z2

    def check(self, system, s, samples):
        if self.zeta is None:
            charts, us, vs = samples
            k = np.asarray(system.surface.gauss_curvature(charts, us, vs),
                           float)
            f = np.asarray(system.field.eval(charts, us, vs), float)
            err = s * float(np.max(np.abs(self.ratio * k - f)))
            if err > 1e-8:
                raise InvalidCandidateError(
                    f"d tau != omega_s: max s |ratio K - f| = {err:.3e}")
            return

        # Stokes check of d zeta = sigma - ratio K mu on squares of side h
        # centred on the samples; K mu has the chart density
        # K e^(2 rho) = -laplacian(rho)
        def residual(c, u, v, h=1e-4):
            def dzeta(z):
                d = float(system.form_density(c, *z) + self.ratio
                          * system.surface.laplacian_rho(c, *z))
                return np.array([[0.0, d], [-d, 0.0]])
            return stokes_residual(
                lambda p: np.array(self.zeta(c, p[:, 0], p[:, 1])).T,
                dzeta, (u - 0.5 * h, v - 0.5 * h), (1.0, 0.0), (0.0, 1.0), h)
        worst = max(residual(int(c), u, v)
                    for c, u, v in zip(*map(np.atleast_1d, samples)))
        if worst > 1e-3:
            raise InvalidCandidateError("candidate potential fails d zeta "
                                        f"check: residual {worst:.2e}")


class FiberCandidate:
    """Closed form with tau(V) = 1 on a flat torus: tau = d phi."""

    def coefficients(self, system, s, chart, u, v):
        return s * np.asarray(system.field.eval(chart, u, v), float), 0.0, 0.0

    def check(self, system, s, samples):
        if system.surface.constant_curvature != 0:
            raise InvalidCandidateError("d phi is closed on flat tori only")


def pairing(candidate, system, s, chart, u, v, phi):
    """tau(X_s) at the bundle points (chart, u, v, phi)."""
    a, bu, bv = candidate.coefficients(system, s, chart, u, v)
    return a - s * (bu * np.cos(phi) + bv * np.sin(phi))


@dataclasses.dataclass
class ContactCertificate:
    verdict: str           # positive | negative | indeterminate
    min_value: float
    max_value: float
    tol: float
    grid: tuple


def sm_sample_grid(surface, n_base=128, n_fiber=64):
    """Bundle samples (charts, us, vs, area weights, phis) for certificates
    and actions; the half-plane patch that stands in for a hyperbolic
    quotient has weights None."""
    if surface.constant_curvature == -1:
        xs = np.linspace(*_HALF_PLANE_PATCH[0], n_base)
        ys = np.linspace(*_HALF_PLANE_PATCH[1], n_base)
        xx, yy = np.meshgrid(xs, ys, indexing="ij")
        charts = np.zeros(xx.size, dtype=int)
        us, vs, w = xx.ravel(), yy.ravel(), None
    else:
        charts, us, vs, w = surface.quadrature_nodes(n_base)
    phis = (np.arange(n_fiber) + 0.5) * 2.0 * math.pi / n_fiber
    return charts, us, vs, w, phis


def contact_candidate_min(system, s, candidate, n_base=128, n_fiber=64):
    """Evaluate tau(X_s) over a bundle grid and certify its sign.

    The candidate's structural consistency (d tau proportional to the
    twisted form) is spot-checked first; an inconsistent candidate raises
    InvalidCandidateError rather than producing a certificate.  The base
    is sampled once; each fibre angle costs one row of cos / sin arithmetic.
    """
    if not all(isinstance(n, numbers.Integral) and n >= 1
               for n in (n_base, n_fiber)):
        raise DegenerateInputError("need integers n_base, n_fiber >= 1")
    charts, us, vs, _, phis = sm_sample_grid(system.surface, n_base, n_fiber)
    stride = max(1, len(us) // _CONSISTENCY_SAMPLES)
    candidate.check(system, s,
                    (charts[::stride], us[::stride], vs[::stride]))
    a, bu, bv = candidate.coefficients(system, s, charts, us, vs)
    mn, mx = math.inf, -math.inf
    for phi in phis:
        vals = a - s * (bu * math.cos(phi) + bv * math.sin(phi))
        mn = min(mn, float(np.min(vals)))
        mx = max(mx, float(np.max(vals)))
    if mn > CONTACT_TOL:
        verdict = "positive"
    elif mx < -CONTACT_TOL:
        verdict = "negative"
    else:
        verdict = "indeterminate"
    return ContactCertificate(verdict=verdict, min_value=mn, max_value=mx,
                              tol=CONTACT_TOL, grid=(n_base, n_base, n_fiber))


def homogeneous_candidate(system):
    """Closed-form candidate for the constant-field constant-curvature
    systems: alpha + (s f / K) psi on the sphere and hyperbolic plane, the
    fiber form on the flat torus.
    """
    curvature = system.surface.constant_curvature
    if system.field.value is None:
        raise UnsupportedError("homogeneous candidates need a constant field")
    if curvature is None:
        raise UnsupportedError("no closed-form candidate for this surface")
    if curvature == 0:
        return FiberCandidate()
    return ContactCandidate(system.field.value / curvature)


def torus_exact_candidate(system):
    """Exact-primitive candidate; the field's primitive must be periodic."""
    return ContactCandidate(0.0, local_primitive(system, winds=True).theta)


def candidate_for(system):
    """The exact-primitive candidate if the field's primitive is periodic,
    so global on the unit tangent bundle; else the homogeneous one."""
    if local_primitive(system).periodic:
        return torus_exact_candidate(system)
    return homogeneous_candidate(system)


# ---------------------------------------------------------------------------
# invariant measures: actions, flips and rotation data
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class LiouvilleAction:
    volume: float
    quadrature_action: float
    closed_form: float
    flip_integral: float


def _candidate_for_action(system):
    surf = system.surface
    flux = flux_total(system)
    if surf.lattice is not None:
        if abs(flux) > 1e-9:
            raise UnsupportedError(
                "torus actions need an exact field (zero flux)")
        return candidate_for(system), 0.0
    return candidate_for(system), flux ** 2 / surf.euler_characteristic()


def liouville_action(system, s):
    """Action of the normalized bundle volume against the primitive family.

    Over each fibre tau(X_s) = a - s (b_u cos phi + b_v sin phi) integrates
    to 2 pi a and the pulled-back zeta to 0, so only the base is sampled
    and the flip integral is exactly 0.  Hyperbolic quotients have no
    fundamental domain model, so their base quadrature averages the
    (constant-field) integrand over the half-plane patch of
    ``sm_sample_grid`` weighted by the declared total area.
    """
    surf = system.surface
    candidate, corr = _candidate_for_action(system)
    area = surf.area()
    volume = 2.0 * math.pi * area
    charts, us, vs, w, _ = sm_sample_grid(surf)
    if w is None:
        w = np.full(len(us), area / len(us))
    a = candidate.coefficients(system, s, charts, us, vs)[0]
    total = 2.0 * math.pi * float(np.sum(a * w))
    closed = volume + s * s * corr
    return LiouvilleAction(volume=volume, quadrature_action=total,
                           closed_form=closed, flip_integral=0.0)


def rotation_vector(system, s, orbit=None):
    """Rotation data (base winding pair, fiber coefficient).

    Without an orbit this is the rotation vector of the normalized
    Liouville measure: s [sigma] in the fiber on the torus and zero
    otherwise.  With an orbit it is the integer winding triple of the
    velocity-lifted curve (divided by the period measure normalization is
    left to the caller).
    """
    lattice = system.surface.lattice
    if orbit is None:
        if lattice is not None:
            # fiber pairing: integral of d phi (X_s) = s f over the measure
            return (0.0, 0.0, s * flux_total(system))
        return (0.0, 0.0, 0.0)
    traj = orbit.trajectory
    ang = np.unwrap(np.arctan2(traj.dq[:, 1], traj.dq[:, 0]))
    fiber = (ang[-1] - ang[0]) / (2.0 * math.pi)
    if lattice is not None:
        d = traj.q[-1] - traj.q[0]
        return (d[0] / lattice[0], d[1] / lattice[1], fiber)
    return (0.0, 0.0, fiber)


# ---------------------------------------------------------------------------
# boundary action identities
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class BoundaryActionCheck:
    lhs: float                 # action of the orbit measure divided by s
    rhs: float                 # functional value plus topological correction
    residual: float
    gauss_bonnet_residual: float


def orbit_action(system, s, orbit, candidate):
    """Action of the orbit's invariant measure: the primitive integrated

    along the unit-speed lift, i.e. over one period of the bundle flow.
    """
    traj = orbit.trajectory
    speeds = trajectory_speeds(system, traj)
    # angle against the conformal frame equals the chart velocity angle
    phi = np.arctan2(traj.dq[:, 1], traj.dq[:, 0])
    vals = pairing(candidate, system, s, traj.chart, traj.q[:, 0],
                   traj.q[:, 1], phi)
    return float(np.trapezoid(vals * speeds, traj.t))


def gauss_bonnet_action_check(system, s, orbit, region):
    """Compare the orbit-measure action with the functional value.

    For an exact torus field:  action / s = value.  For chi(M) != 0 and a
    disc region:  action / s = value + o * chi(disc) * [sigma] / chi(M)
    with o the region orientation.  Also reports the Gauss-Bonnet residual
    of the disc bounded by the orbit.
    """
    surf = system.surface
    if surf.constant_curvature not in (0, -1):
        raise UnsupportedError("disc identities are checked on these cases")
    k = 0.5 / (s * s)
    candidate, _ = _candidate_for_action(system)
    lhs = orbit_action(system, s, orbit, candidate) / s
    value = taimanov_value(system, k, region)
    if surf.constant_curvature == 0:
        correction = 0.0
    else:
        chi_disc = 1
        correction = (region.orientation * chi_disc * flux_total(system)
                      / surf.euler_characteristic())
    rhs = value + correction
    # Gauss-Bonnet on the underlying disc
    traj = orbit.trajectory
    speeds = trajectory_speeds(system, traj)
    f = system.field.eval(traj.chart, traj.q[:, 0], traj.q[:, 1])
    turn = region.orientation * float(np.trapezoid(s * f * speeds, traj.t))
    k_int = 0.0
    if surf.constant_curvature == -1:
        # the curvature integral is minus the disc area
        k_int = -region_flux(type(system)(surf, ConstantField(1.0)), region)
    gb = abs(k_int + turn - 2.0 * math.pi)
    return BoundaryActionCheck(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs),
                               gauss_bonnet_residual=gb)
