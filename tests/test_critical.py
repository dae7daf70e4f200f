"""Critical energy values: quotient bound, homogeneous value, sup-norm
primitive optimization."""
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magsurf.critical import c0_upper_bound, c_h_value, homogeneous_mane_value
from magsurf.errors import UnsupportedError
from magsurf.fields import (CallableField, ConstantField, MagneticSystem,
                            TorusField, TorusSpectralPrimitive)
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
