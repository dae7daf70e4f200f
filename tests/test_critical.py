"""Critical energy values: quotient bound, homogeneous value, sup-norm
primitive optimization."""
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magsurf.critical import (C0_GAP, C0_GRID, C0_STEP, _unit_ball,
                              c0_upper_bound, c_h_value,
                              homogeneous_mane_value)
from magsurf.errors import UnsupportedError
from magsurf.fields import (CallableField, ConstantField, MagneticSystem,
                            TorusField, TorusSpectralPrimitive,
                            periodic_poisson)
from magsurf.surfaces import FlatTorus, HyperbolicPlane, RoundSphere


def test_quotient_bound_values():
    """For a genus-two quotient with constant field the closed form is
    flux^2 / (-4 pi chi area): area 4 pi, chi -2."""
    hyp = HyperbolicPlane(genus=2)
    assert abs(c_h_value(MagneticSystem(hyp, ConstantField(1.0))) - 0.5) \
        < 1e-12
    assert abs(c_h_value(MagneticSystem(hyp, ConstantField(2.0))) - 2.0) \
        < 1e-12


def test_quotient_bound_needs_negative_chi():
    with pytest.raises(UnsupportedError):
        c_h_value(MagneticSystem(RoundSphere(), ConstantField(1.0)))
    with pytest.raises(UnsupportedError):
        c_h_value(MagneticSystem(FlatTorus(), ConstantField(1.0)))


def test_homogeneous_value_unit_hyperbolic():
    """f^2 / 2 for every constant field on K = -1, which is the homology
    value on the genus-two quotient."""
    hyp = HyperbolicPlane(genus=2)
    for f, want in ((1.0, 0.5), (2.0, 2.0), (-0.7, 0.245)):
        system = MagneticSystem(hyp, ConstantField(f))
        assert abs(homogeneous_mane_value(system) - want) < 1e-15
        assert abs(homogeneous_mane_value(system) - c_h_value(system)) \
            < 1e-15
    with pytest.raises(UnsupportedError):
        homogeneous_mane_value(MagneticSystem(hyp, CallableField(
            lambda c, u, v: 1.0 + 0.0 * u)))
    with pytest.raises(UnsupportedError):
        homogeneous_mane_value(MagneticSystem(FlatTorus(),
                                              ConstantField(1.0)))


def test_quotient_bound_matches_homogeneous_case():
    """At unit field the two independent computations agree exactly."""
    system = MagneticSystem(HyperbolicPlane(genus=2), ConstantField(1.0))
    assert abs(c_h_value(system) - homogeneous_mane_value(system)) < 1e-15


def test_c0_bound_cosine_field():
    """For f = 2 pi cos(2 pi x) the minimal sup-norm primitive is
    sin(2 pi x) dy with sup 1, half square 1/2."""
    system = MagneticSystem(FlatTorus(), TorusField(
        lambda x, y: 2 * np.pi * np.cos(2 * np.pi * x)))
    res = c0_upper_bound(system)
    assert abs(res.value - 1.0) < 1e-12
    assert res.lower <= 1.0
    assert res.gap <= 1e-3
    assert abs(res.energy_value - 0.5 * res.value ** 2) < 1e-12
    # the witness really is a primitive with that sup norm
    assert abs(res.witness.sup_norm() - res.value) < 1e-9


def test_c0_witness_is_primitive():
    """d(theta) recovers the field density on a fine grid."""
    system = MagneticSystem(FlatTorus(), TorusField(
        lambda x, y: 2 * np.pi * np.cos(2 * np.pi * x)
        + 4 * np.pi * np.sin(2 * np.pi * y)))
    res = c0_upper_bound(system, max_iter=150)
    n = 128
    xs = np.arange(n) / n
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    t1, t2 = res.witness.theta(0, xx.ravel(), yy.ravel())
    t1 = t1.reshape(n, n)
    t2 = t2.reshape(n, n)
    # curl by spectral differentiation
    kx = 2j * np.pi * np.fft.fftfreq(n, 1.0 / n)
    d2dx = np.real(np.fft.ifft(kx[:, None] * np.fft.fft(t2, axis=0), axis=0))
    d1dy = np.real(np.fft.ifft(kx[None, :] * np.fft.fft(t1, axis=1), axis=1))
    dens = np.asarray(system.form_density(0, xx.ravel(), yy.ravel()),
                      float).reshape(n, n)
    assert np.max(np.abs(d2dx - d1dy - dens)) < 1e-7


def test_c0_budget_monotone():
    """More optimization budget can only improve the reported bound."""
    system = MagneticSystem(FlatTorus(), TorusField(
        lambda x, y: 2 * np.pi * np.cos(2 * np.pi * x)
        * np.cos(2 * np.pi * y)))
    small = c0_upper_bound(system, max_iter=40)
    large = c0_upper_bound(system, max_iter=400)
    assert large.value <= small.value + 1e-12
    assert np.all(np.diff(large.history) <= 1e-12)


def _two_mode(x, y):
    """The two-mode field of the perfbench c0 job."""
    return (2 * np.pi * np.cos(2 * np.pi * x)
            + np.pi * np.sin(2 * np.pi * (x + y)))


# field, and the grid sup of the smoothed-minimax bound this one replaced
C0_FIELDS = {
    "cosine": (lambda x, y: 2 * np.pi * np.cos(2 * np.pi * x), 1.0),
    "two_mode": (_two_mode, 1.0281540),
    "cos_x_sin_y": (lambda x, y: 2 * np.pi * np.cos(2 * np.pi * x)
                    + 4 * np.pi * np.sin(2 * np.pi * y), 2.0566399),
    "cos_x_cos_y": (lambda x, y: 2 * np.pi * np.cos(2 * np.pi * x)
                    * np.cos(2 * np.pi * y), 0.4105196),
}


@functools.lru_cache(maxsize=None)
def _c0(name):
    return c0_upper_bound(MagneticSystem(FlatTorus(),
                                         TorusField(C0_FIELDS[name][0])))


@pytest.mark.parametrize("name", sorted(C0_FIELDS))
def test_c0_bracket_closes(name):
    """The primal-dual bracket closes to C0_GAP, below the old bound."""
    res = _c0(name)
    assert res.value <= C0_FIELDS[name][1] + 1e-7
    assert res.lower <= res.value
    assert res.gap == res.value - res.lower
    assert res.gap <= 1e-3 * res.value
    assert res.history[-1] == res.value


def test_c0_two_mode_iterations():
    """The over-relaxed iteration closes the two-mode bracket in at most 340
    steps (the unrelaxed one took 554)."""
    assert 0 < _c0("two_mode").iterations <= 340


def test_c0_two_mode_witness_sup_is_value():
    """The witness rebuilt from the best grid field reads back its sup."""
    res = _c0("two_mode")
    assert abs(res.witness.sup_norm(64) - res.value) < 1e-9


def test_c0_scales_with_field():
    """Ten times the field gives ten times the bracket."""
    res = c0_upper_bound(MagneticSystem(FlatTorus(), TorusField(
        lambda x, y: 10.0 * _two_mode(x, y))))
    assert abs(res.value - 10.0 * _c0("two_mode").value) < 1e-9
    assert abs(res.lower - 10.0 * _c0("two_mode").lower) < 1e-9


MODES = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1))


@given(coef=st.lists(st.floats(-0.5, 0.5), min_size=2 * len(MODES),
                     max_size=2 * len(MODES)),
       c1=st.floats(-0.5, 0.5), c2=st.floats(-0.5, 0.5))
@settings(max_examples=30, deadline=None)
def test_c0_lower_bounds_every_primitive(coef, c1, c2):
    """No primitive theta* + d phi + c has a grid sup below res.lower."""
    system = MagneticSystem(FlatTorus(), TorusField(_two_mode))
    n = 64
    xx, yy = np.meshgrid(np.arange(n) / n, np.arange(n) / n, indexing="ij")
    p, q = TorusSpectralPrimitive(system, n).theta(0, xx, yy)
    p, q = p + c1, q + c2
    for (m, l), a, b in zip(MODES, coef[::2], coef[1::2]):
        arg = 2 * np.pi * (m * xx.ravel() + l * yy.ravel())
        dphi = 2 * np.pi * (b * np.cos(arg) - a * np.sin(arg))
        p, q = p + m * dphi, q + l * dphi
    assert np.max(np.hypot(p, q)) >= _c0("two_mode").lower - 1e-12


# ---------------------------------------------------------------------------
# reference: the unrelaxed iteration on real (2, n, n) fields, with the ball
# threshold found by sorting every modulus
# ---------------------------------------------------------------------------

def _ref_norm(f):
    return np.sqrt(f[0] * f[0] + f[1] * f[1])


def _ref_unit_ball(y):
    """Project a (2, n, n) field onto {sum of pointwise norms <= 1}."""
    r = _ref_norm(y)
    s = np.sort(r.ravel())[::-1]
    excess = np.cumsum(s) - 1.0
    j = np.nonzero(s * np.arange(1, s.size + 1) > excess)[0][-1]
    lam = max(excess[j] / (j + 1), 0.0)     # 0 inside the ball
    return y * np.maximum(1.0 - lam / np.maximum(r, 1e-300), 0.0)


def _ref_c0(system, max_iter=2000):
    """(best grid sup, dual lower bound) of the plain Chambolle-Pock
    iteration, two projections onto R per step."""
    n = C0_GRID
    kxx, kyy, ghat = periodic_poisson(system, n)
    k = np.stack([kxx, kyy])
    k2 = kxx ** 2 + kyy ** 2
    k2[0, 0], k2[n // 2], k2[:, n // 2] = 1.0, np.inf, np.inf
    kh, k2h = k[:, :, :n // 2 + 1], k2[:, :n // 2 + 1]

    def project(w):
        what = np.fft.rfft2(w)
        out = kh * (np.sum(kh * what, axis=0) / k2h)
        out[:, 0, 0] = what[:, 0, 0]
        return np.fft.irfft2(out, s=(n, n))

    theta = np.real(np.fft.ifft2(np.stack([-1j * kyy * ghat, 1j * kxx * ghat])
                                 * (n * n)))
    base = theta - project(theta)
    r = _ref_norm(theta)
    best = float(r.max())
    tau = C0_STEP * n * n * best
    y = theta * (r >= (1.0 - C0_GAP) * best)
    y = y / max(float(_ref_norm(y).sum()), 1e-300)
    y_perp = y - project(y)
    w, w_bar, lower = theta, theta, 0.0
    for it in range(max_iter + 1):
        mass = max(float(_ref_norm(y_perp).sum()), 1e-300)
        lower = max(lower, float(np.vdot(theta, y_perp)) / mass)
        if best - lower <= C0_GAP * best or it == max_iter:
            break
        y = _ref_unit_ball(y + w_bar / tau)
        w_new = project(w - tau * y) + base
        y_perp = y - (w - w_new) / tau
        w_bar, w = 2.0 * w_new - w, w_new
        best = min(best, float(_ref_norm(w).max()))
    return best, lower


def test_c0_reference_two_mode():
    """The reference iteration gives the two-mode bracket recorded for it,
    and the two brackets overlap."""
    best, lower = _ref_c0(MagneticSystem(FlatTorus(), TorusField(_two_mode)))
    assert abs(best - 1.0274095) < 1e-7 and abs(lower - 1.0263831) < 1e-7
    res = _c0("two_mode")
    assert max(lower, res.lower) <= min(best, res.value)


LOW_MODES = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 0), (0, 2), (2, 1),
             (1, 2))


@given(coef=st.lists(st.floats(-1.0, 1.0), min_size=2 * len(LOW_MODES),
                     max_size=2 * len(LOW_MODES)))
@settings(max_examples=6, deadline=None)
def test_c0_brackets_agree_with_reference(coef):
    """On exact low-mode fields the relaxed and the reference brackets
    intersect, and the relaxed one closes to C0_GAP."""
    assume(max(map(abs, coef)) >= 0.2)

    def field(x, y):
        out = 0.0 * x
        for (m, l), a, b in zip(LOW_MODES, coef[::2], coef[1::2]):
            arg = 2 * np.pi * (m * x + l * y)
            out = out + 2 * np.pi * (a * np.cos(arg) + b * np.sin(arg))
        return out

    system = MagneticSystem(FlatTorus(), TorusField(field))
    res = c0_upper_bound(system)
    best, lower = _ref_c0(system)
    slack = 1e-12 * best
    assert max(lower, res.lower) <= min(best, res.value) + slack
    assert res.gap <= C0_GAP * res.value


@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(0.05, 20.0),
       n=st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_unit_ball_matches_sorting(seed, scale, n):
    """Michelot's threshold gives the sort-based projection to rounding;
    a field already in the ball comes back unchanged."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    z[rng.random((n, n)) < 0.3] = 0.0
    total = float(np.abs(z).sum())
    assume(total > 0.0)
    z *= scale / total
    got = _unit_ball(z)
    want = _ref_unit_ball(np.stack([z.real, z.imag]))
    assert np.allclose(got.real, want[0], rtol=0, atol=1e-14)
    assert np.allclose(got.imag, want[1], rtol=0, atol=1e-14)
    if float(np.abs(z).sum()) <= 1.0:
        assert np.array_equal(got, z)
