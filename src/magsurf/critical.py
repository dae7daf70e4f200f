"""Critical speed thresholds: the homology value for higher genus, the
closed-form homogeneous value, and a primal-dual bracket for the primitive
sup-norm constant on exact flat-torus systems.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import UnsupportedError
from .fields import FourierOneForm, flux_total, periodic_poisson


def c_h_value(system):
    """-[sigma]^2 / (4 pi chi [mu]) for a surface of genus >= 2."""
    surf = system.surface
    chi = surf.euler_characteristic()
    if chi >= 0:
        raise UnsupportedError("the homology value needs genus >= 2")
    flux = flux_total(system)
    return -flux ** 2 / (4.0 * math.pi * chi * surf.area())


def homogeneous_mane_value(system):
    """Closed-form critical value f^2 / 2 of a constant field f on K = -1;
    on a genus-g quotient it equals c_h_value."""
    if not (system.surface.constant_curvature == -1
            and system.field.value is not None):
        raise UnsupportedError("closed-form value available for constant "
                               "fields on the hyperbolic surface only")
    return 0.5 * system.field.value ** 2


# ---------------------------------------------------------------------------
# sup-norm primitive bound on exact flat-torus systems
# ---------------------------------------------------------------------------

# the c0 bracket: FFT grid, stopping gap (relative), step / n^2 sup|theta*|,
# over-relaxation of both iterates (0 < C0_RELAX < 2)
C0_GRID = 64
C0_GAP = 1e-3
C0_STEP = 0.1
C0_RELAX = 1.9


@dataclasses.dataclass
class C0Result:
    value: float            # best sup-norm over the evaluation grid
    energy_value: float     # matching energy threshold, value^2 / 2
    witness: object         # primitive achieving the reported sup
    history: list           # best sup at iterations 0, 1, 2, 4, ... and last
    lower: float            # dual lower bound on the sup of every primitive
    gap: float              # value - lower
    iterations: int         # primal-dual steps taken


def _unit_ball(y):
    """Project a complex field y = y1 + i y2 onto {sum |y| <= 1}: shrink
    every modulus by the threshold lam found by Michelot's active-set
    iteration (J. Optim. Theory Appl. 50 (1986) 195-200), which raises lam
    to (sum of the active moduli - 1) / their number until no modulus
    drops out."""
    r = np.abs(y)
    active = r.ravel()
    total = float(active.sum())
    if total <= 1.0:
        return y
    size = active.size
    while True:
        lam = (total - 1.0) / size
        active = active[active > lam]
        if active.size == size:
            break
        size, total = active.size, float(active.sum())
    return y * np.maximum(1.0 - lam / np.maximum(r, 1e-300), 0.0)


def c0_upper_bound(system, max_iter=2000):
    """Two-sided bracket for the minimal sup-norm of a primitive of sigma.

    The primitives theta* + d phi + c form the affine set theta* + R, with
    theta* the spectral Poisson primitive and R the range of the spectral
    gradient (no Nyquist modes) plus constants.  Vector fields are held as
    complex fields u + i v.  An over-relaxed Chambolle-Pock iteration
    (L. Condat, J. Optim. Theory Appl. 158 (2013) 460-479; A. Chambolle and
    T. Pock, Math. Program. 159 (2016) 253-287) keeps the primal field in
    theta* + R and projects the dual field y onto {sum |y| <= 1}; y's part
    orthogonal to R bounds every grid sup below by <theta*, y> / sum |y|.
    It stops at relative gap C0_GAP, or max_iter.
    """
    if system.surface.constant_curvature != 0:
        raise UnsupportedError("the bound is computed on flat tori only")
    n = C0_GRID
    kxx, kyy, ghat = periodic_poisson(system, n)
    k2 = kxx ** 2 + kyy ** 2
    k2[0, 0], k2[n // 2], k2[:, n // 2] = 1.0, np.inf, np.inf   # no Nyquist
    # with kappa = kx + i ky the gradient part of z is
    # kappa (kx u^ + ky v^) / |k|^2 = z^(k) / 2 + kappa^2 conj z^(-k) / 2|k|^2
    same = np.where(np.isinf(k2), 0.0, 0.5)
    same[0, 0] = 1.0                                      # the constants
    mirror = (kxx + 1j * kyy) ** 2 / (2.0 * k2)
    mirror[0, 0] = 0.0
    neg = -np.arange(n) % n
    flip = n * neg[:, None] + neg           # flat index of -k mod n

    def project(z):
        """Orthogonal projection onto R; mirror * conj(.) in that order,
        as b * a and in-place products round differently."""
        zhat = np.fft.fft2(z)
        return np.fft.ifft2(same * zhat + mirror * np.conj(zhat.take(flip)))

    t = np.real(np.fft.ifft2(np.stack([-1j * kyy * ghat, 1j * kxx * ghat])
                             * (n * n)))
    theta = t[0] + 1j * t[1]
    r = np.abs(theta)
    best = float(r.max())
    tau = C0_STEP * n * n * best
    # the dual starts at theta*'s direction on the nodes near its sup
    y = theta * (r >= (1.0 - C0_GAP) * best)
    y = y / max(float(np.abs(y).sum()), 1e-300)
    # w stays in theta* + R, so its projected step is w - tau P(y); P(y) is
    # carried along, linear in y, and costs one FFT pair per iteration
    py = project(y)
    w, best_w, lower, history = theta, theta, 0.0, [best]
    for it in range(max_iter + 1):
        y_perp = y - py
        mass = max(float(np.abs(y_perp).sum()), 1e-300)
        lower = max(lower, float(np.vdot(theta, y_perp).real) / mass)
        if best - lower <= C0_GAP * best or it == max_iter:
            break
        step = tau * py
        w_hat = w - step
        cur = float(np.abs(w_hat).max())
        if cur < best:
            best, best_w = cur, w_hat
        # the dual step reads the extrapolated 2 w_hat - w = w_hat - step
        y_hat = _unit_ball(y + (w_hat - step) / tau)
        w = w - C0_RELAX * step
        y += C0_RELAX * (y_hat - y)
        py += C0_RELAX * (project(y_hat) - py)
        if it & (it + 1) == 0:      # after steps 1, 2, 4, 8, ...
            history.append(best)
    history.append(best)
    # best_w - theta lies in R: read phi and c off its Fourier coefficients
    d = best_w - theta
    dhat = np.fft.fft2(np.stack([d.real, d.imag])) / (n * n)
    phihat = -1j * (kxx * dhat[0] + kyy * dhat[1]) / k2
    keep = np.abs(ghat) + np.abs(phihat) > 1e-13
    witness = FourierOneForm(kxx[keep], kyy[keep], ghat[keep], phihat[keep],
                             dhat[0, 0, 0].real, dhat[1, 0, 0].real)
    return C0Result(value=best, energy_value=0.5 * best ** 2, witness=witness,
                    history=history, lower=lower, gap=best - lower,
                    iterations=it)
