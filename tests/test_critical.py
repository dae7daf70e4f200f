"""Critical energy values: quotient bound, homogeneous value, sup-norm
primitive optimization."""
import math

import numpy as np
import pytest

from magsurf.critical import (C0Params, c0_upper_bound, c_h_value,
                              homogeneous_mane_value)
from magsurf.errors import UnsupportedError
from magsurf.fields import (CallableField, ConstantField, MagneticSystem,
                            TorusField)
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
    assert res.value <= 1.0 + 1e-6
    assert res.value >= 0.999
    assert abs(res.energy_value - 0.5 * res.value ** 2) < 1e-12
    # the witness really is a primitive with that sup norm
    assert abs(res.witness.sup_norm() - res.value) < 1e-9


def test_c0_witness_is_primitive():
    """d(theta) recovers the field density on a fine grid."""
    system = MagneticSystem(FlatTorus(), TorusField(
        lambda x, y: 2 * np.pi * np.cos(2 * np.pi * x)
        + 4 * np.pi * np.sin(2 * np.pi * y)))
    res = c0_upper_bound(system, C0Params(max_iter=150))
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
    small = c0_upper_bound(system, C0Params(betas=(10.0,), max_iter=40))
    large = c0_upper_bound(system, C0Params(betas=(10.0, 100.0, 1000.0),
                                            max_iter=400))
    assert large.value <= small.value + 1e-12
    assert np.all(np.diff(large.history) <= 1e-12)
