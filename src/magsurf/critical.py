"""Critical speed thresholds: the homology value for higher genus, the
closed-form homogeneous value, and a minimax upper bound for the primitive
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

# the c0 bound: phi parameter / evaluation grid, and the smoothing of |theta|
C0_GRID = 64
C0_SMOOTH_EPS = 1e-9


@dataclasses.dataclass
class C0Params:
    betas: tuple = (10.0, 100.0, 1000.0)
    max_iter: int = 500


@dataclasses.dataclass
class C0Result:
    value: float            # best sup-norm over the evaluation grid
    energy_value: float     # matching energy threshold, value^2 / 2
    witness: object         # primitive achieving the reported sup
    history: list           # best sup after each smoothing stage


def _grid_field(coef_hat):
    return np.real(np.fft.ifft2(coef_hat * coef_hat.shape[0]
                                * coef_hat.shape[1]))


def c0_upper_bound(system, params=None):
    """Upper bound for the minimal sup-norm of a primitive of sigma.

    The primitive family is theta* + d phi + c1 dx + c2 dy with theta* the
    spectral Poisson primitive; phi lives on a periodic grid and the sup is
    relaxed through a log-sum-exp softmax at an increasing schedule of
    sharpness values, each stage descended with a quasi-Newton method.  The
    reported value is the best true grid sup ever seen, so more budget can
    only improve it.
    """
    if system.surface.constant_curvature != 0:
        raise UnsupportedError("the bound is computed on flat tori only")
    if params is None:
        params = C0Params()
    n = C0_GRID
    kxx, kyy, ghat = periodic_poisson(system, n)
    pstar = _grid_field(-1j * kyy * ghat)   # theta*_x = -G_y
    qstar = _grid_field(1j * kxx * ghat)    # theta*_y = +G_x
    eps2 = C0_SMOOTH_EPS ** 2

    def split(z):
        return z[:-2].reshape(n, n), z[-2], z[-1]

    def components(z):
        phi, c1, c2 = split(z)
        phihat = np.fft.fft2(phi)
        dx = np.real(np.fft.ifft2(1j * kxx * phihat))
        dy = np.real(np.fft.ifft2(1j * kyy * phihat))
        return pstar + dx + c1, qstar + dy + c2

    def true_sup(z):
        p, q = components(z)
        return float(np.max(np.hypot(p, q)))

    def make_objective(beta):
        def obj(z):
            p, q = components(z)
            r = np.sqrt(p * p + q * q + eps2)
            m = r.max()
            w = np.exp(beta * (r - m))
            sw = w.sum()
            val = m + math.log(sw / r.size) / beta
            w /= sw
            gp = w * p / r
            gq = w * q / r
            # adjoint of the spectral derivative is its negative
            gphi = -np.real(np.fft.ifft2(
                1j * kxx * np.fft.fft2(gp) + 1j * kyy * np.fft.fft2(gq)))
            grad = np.concatenate([gphi.ravel(),
                                   [float(gp.sum()), float(gq.sum())]])
            return val, grad
        return obj

    from scipy.optimize import minimize

    z = np.zeros(n * n + 2)
    best_val = true_sup(z)
    best_z = z.copy()
    history = [best_val]
    for beta in params.betas:
        res = minimize(make_objective(beta), z, jac=True, method="L-BFGS-B",
                       options={"maxiter": params.max_iter, "ftol": 1e-14,
                                "gtol": 1e-12})
        z = res.x
        cur = true_sup(z)
        if cur < best_val:
            best_val, best_z = cur, z.copy()
        history.append(best_val)
    phi, c1, c2 = split(best_z)
    phihat = np.fft.fft2(phi) / (n * n)
    keep = np.abs(ghat) + np.abs(phihat) > 1e-13
    keep[0, 0] = False
    witness = FourierOneForm(kxx[keep], kyy[keep], ghat[keep], phihat[keep],
                             c1, c2)
    return C0Result(value=best_val, energy_value=0.5 * best_val ** 2,
                    witness=witness, history=history)
