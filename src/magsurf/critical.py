"""Critical speed thresholds: the homology value for higher genus, the
closed-form homogeneous value, and a primal-dual bracket for the primitive
sup-norm constant on exact flat-torus systems.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import UnsupportedError
from .fields import (ConstantField, FourierOneForm, flux_total,
                     periodic_poisson)


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
            and isinstance(system.field, ConstantField)):
        raise UnsupportedError("closed-form value available for constant "
                               "fields on the hyperbolic surface only")
    return 0.5 * system.field.value ** 2


# ---------------------------------------------------------------------------
# sup-norm primitive bound on exact flat-torus systems
# ---------------------------------------------------------------------------

# the c0 bracket: FFT grid, stopping gap (relative), step / n^2 sup|theta*|
C0_GRID = 64
C0_GAP = 1e-3
C0_STEP = 0.1


@dataclasses.dataclass
class C0Result:
    value: float            # best sup-norm over the evaluation grid
    energy_value: float     # matching energy threshold, value^2 / 2
    witness: object         # primitive achieving the reported sup
    history: list           # best sup at iterations 0, 1, 2, 4, ... and last
    lower: float            # dual lower bound on the sup of every primitive
    gap: float              # value - lower


def _norm(f):
    """Pointwise Euclidean norm of a (2, n, n) field."""
    return np.sqrt(f[0] * f[0] + f[1] * f[1])


def _unit_ball(y):
    """Project a (2, n, n) field onto {sum of pointwise norms <= 1}."""
    r = _norm(y)
    s = np.sort(r.ravel())[::-1]
    excess = np.cumsum(s) - 1.0
    j = np.nonzero(s * np.arange(1, s.size + 1) > excess)[0][-1]
    lam = max(excess[j] / (j + 1), 0.0)     # 0 inside the ball
    return y * np.maximum(1.0 - lam / np.maximum(r, 1e-300), 0.0)


def c0_upper_bound(system, max_iter=2000):
    """Two-sided bracket for the minimal sup-norm of a primitive of sigma.

    The primitives theta* + d phi + c form the affine set theta* + R, with
    theta* the spectral Poisson primitive and R the range of the spectral
    gradient (no Nyquist modes) plus constants.  A Chambolle-Pock iteration
    projects the primal field onto theta* + R and the dual field y onto
    {sum |y| <= 1}; y's part orthogonal to R bounds every grid sup below by
    <theta*, y> / sum |y|.  It stops at relative gap C0_GAP, or max_iter.
    """
    if system.surface.constant_curvature != 0:
        raise UnsupportedError("the bound is computed on flat tori only")
    n = C0_GRID
    kxx, kyy, ghat = periodic_poisson(system, n)
    k = np.stack([kxx, kyy])
    k2 = kxx ** 2 + kyy ** 2
    k2[0, 0], k2[n // 2], k2[:, n // 2] = 1.0, np.inf, np.inf   # no Nyquist
    kh, k2h = k[:, :, :n // 2 + 1], k2[:, :n // 2 + 1]    # rfft2 layout

    def project(w):
        """Orthogonal projection onto R."""
        what = np.fft.rfft2(w)
        out = kh * (np.sum(kh * what, axis=0) / k2h)
        out[:, 0, 0] = what[:, 0, 0]
        return np.fft.irfft2(out, s=(n, n))

    theta = np.real(np.fft.ifft2(np.stack([-1j * kyy * ghat, 1j * kxx * ghat])
                                 * (n * n)))
    base = theta - project(theta)
    r = _norm(theta)
    best = float(r.max())
    tau = C0_STEP * n * n * best
    # the dual starts at theta*'s direction on the nodes near its sup
    y = theta * (r >= (1.0 - C0_GAP) * best)
    y = y / max(float(_norm(y).sum()), 1e-300)
    y_perp = y - project(y)
    w, w_bar, best_w, lower, history = theta, theta, theta, 0.0, [best]
    for it in range(max_iter + 1):
        mass = max(float(_norm(y_perp).sum()), 1e-300)
        lower = max(lower, float(np.vdot(theta, y_perp)) / mass)
        if best - lower <= C0_GAP * best or it == max_iter:
            break
        y = _unit_ball(y + w_bar / tau)
        w_new = project(w - tau * y) + base
        # (w - w_new) / tau is the part of y in R
        y_perp = y - (w - w_new) / tau
        w_bar, w = 2.0 * w_new - w, w_new
        cur = float(_norm(w).max())
        if cur < best:
            best, best_w = cur, w
        if it & (it + 1) == 0:      # after steps 1, 2, 4, 8, ...
            history.append(best)
    history.append(best)
    # best_w - theta lies in R: read phi and c off its Fourier coefficients
    dhat = np.fft.fft2(best_w - theta) / (n * n)
    phihat = -1j * np.sum(k * dhat, axis=0) / k2
    keep = np.abs(ghat) + np.abs(phihat) > 1e-13
    witness = FourierOneForm(kxx[keep], kyy[keep], ghat[keep], phihat[keep],
                             dhat[0, 0, 0].real, dhat[1, 0, 0].real)
    return C0Result(value=best, energy_value=0.5 * best ** 2, witness=witness,
                    history=history, lower=lower, gap=best - lower)
