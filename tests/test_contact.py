"""Unit tangent bundle: coframe structure, sign certificates, invariant
measure actions."""
import math

import numpy as np
import pytest

from magsurf.bundle import (candidate_for, coframe_coefficients,
                            contact_candidate_min, homogeneous_candidate,
                            liouville_action, pairing, rotation_vector,
                            structural_relations_check, torus_exact_candidate,
                            ContactCandidate, FiberCandidate)
from magsurf.errors import (DegenerateInputError, InvalidCandidateError,
                            NoGlobalPrimitiveError, UnsupportedError)
from magsurf.fields import (ConstantField, CosineField, MagneticSystem,
                            TorusField, energy_of_s, flux_total,
                            local_primitive)
from magsurf.orbits import homogeneous_oracle, shoot_periodic
from magsurf.flow import TangentState
from magsurf.surfaces import (ConformalTorus, FlatTorus, HyperbolicPlane,
                              RoundSphere)

RNG = np.random.default_rng(3)


def frame_vectors(surface, chart, u, v, phi):
    """Components of (X, V, H) in the coordinates (u, v, phi)."""
    rho, ru, rv = surface.conformal(chart, u, v)
    rho = np.asarray(rho, float)
    ru = np.broadcast_to(np.asarray(ru, float), rho.shape)
    rv = np.broadcast_to(np.asarray(rv, float), rho.shape)
    lam_inv = np.exp(-rho)
    c, s = np.cos(phi), np.sin(phi)
    zero = np.zeros_like(lam_inv)
    one = np.ones_like(lam_inv)
    x_vec = np.stack([lam_inv * c, lam_inv * s,
                      lam_inv * (rv * c - ru * s)], axis=-1)
    v_vec = np.stack([zero, zero, one], axis=-1)
    h_vec = np.stack([-lam_inv * s, lam_inv * c,
                      lam_inv * (-rv * s - ru * c)], axis=-1)
    return x_vec, v_vec, h_vec


def xs_coefficients(system, s, chart, u, v, phi):
    """Pairings (alpha, psi, beta)(X_s) = (1, s f(q), 0), computed honestly."""
    alpha, psi, beta = coframe_coefficients(system.surface, chart, u, v, phi)
    x_vec, v_vec, _ = frame_vectors(system.surface, chart, u, v, phi)
    f = np.asarray(system.field.eval(chart, u, v), float)
    xs = x_vec + s * f[..., None] * v_vec
    return (np.sum(alpha * xs, axis=-1), np.sum(psi * xs, axis=-1),
            np.sum(beta * xs, axis=-1))


def test_flow_pairings_exact():
    """(alpha, psi, beta) against the twisted vector field give exactly
    (1, s f, 0) at any bundle point."""
    systems = [
        MagneticSystem(FlatTorus(), ConstantField(2.0)),
        MagneticSystem(RoundSphere(), ConstantField(1.0)),
        MagneticSystem(HyperbolicPlane(genus=2), ConstantField(1.5)),
        MagneticSystem(FlatTorus(), TorusField(
            lambda x, y: np.cos(2 * np.pi * x))),
    ]
    s = 0.8
    for system in systems:
        if system.surface.kind == "hyperbolic":
            us, vs = RNG.uniform(-1, 1, 20), RNG.uniform(0.5, 2, 20)
        else:
            us, vs = RNG.uniform(0, 1, 20), RNG.uniform(0, 1, 20)
        phis = RNG.uniform(0, 2 * np.pi, 20)
        a, p, b = xs_coefficients(system, s, 0, us, vs, phis)
        f = np.asarray(system.field.eval(0, us, vs), float)
        assert np.max(np.abs(a - 1.0)) < 1e-12
        assert np.max(np.abs(p - s * f)) < 1e-12
        assert np.max(np.abs(b)) < 1e-12


@pytest.mark.parametrize("surface", [RoundSphere(),
                                     HyperbolicPlane(genus=2)],
                         ids=["sphere", "hyperbolic"])
def test_structural_relations_vanish_linearly(surface):
    """Circulation-minus-flux residuals per unit area shrink at least
    linearly with the parallelogram size."""
    r1 = structural_relations_check(surface, h=1e-2)
    r2 = structural_relations_check(surface, h=1e-3)
    assert max(r2.values()) < 0.5 * max(r1.values())
    assert max(r2.values()) < 1e-2


def test_structural_relations_flat():
    """On the flat torus the connection form is closed, so its residual
    is exactly zero; the other two carry only the midpoint-rule error."""
    res = structural_relations_check(FlatTorus(), h=1e-2)
    assert res["psi"] == 0.0
    assert max(res.values()) < 1e-4


def test_sphere_certificate_always_positive():
    """alpha + s psi pairs with X_s to the constant 1 + s^2 > 0."""
    system = MagneticSystem(RoundSphere(), ConstantField(1.0))
    for s in (0.3, 1.0, 3.0):
        cert = contact_candidate_min(system, s,
                                     homogeneous_candidate(system),
                                     n_base=48, n_fiber=16)
        assert cert.verdict == "positive"
        assert abs(cert.min_value - (1.0 + s * s)) < 1e-12
        assert abs(cert.max_value - (1.0 + s * s)) < 1e-12


def test_hyperbolic_certificate_signs():
    """alpha - s psi pairs to 1 - s^2: positive below the critical speed,
    vanishing at it, negative above.  The certificate needs no area, so
    the half-plane without a declared quotient gets one too."""
    cases = [(0.5, "positive"), (1.0, "indeterminate"), (2.0, "negative")]
    for genus in (2, None):
        system = MagneticSystem(HyperbolicPlane(genus=genus),
                                ConstantField(1.0))
        for s, want in cases:
            cert = contact_candidate_min(system, s,
                                         homogeneous_candidate(system),
                                         n_base=48, n_fiber=16)
            assert cert.verdict == want
            assert abs(cert.min_value - (1.0 - s * s)) < 1e-12


def test_torus_fiber_certificate_tracks_field_sign():
    system = MagneticSystem(FlatTorus(), ConstantField(1.0))
    cert = contact_candidate_min(system, 0.7,
                                 homogeneous_candidate(system),
                                 n_base=32, n_fiber=16)
    assert cert.verdict == "positive"
    assert abs(cert.min_value - 0.7) < 1e-12

    mixed = MagneticSystem(FlatTorus(), TorusField(
        lambda x, y: np.cos(2 * np.pi * x)))
    cert = contact_candidate_min(mixed, 1.0, FiberCandidate(),
                                 n_base=32, n_fiber=16)
    assert cert.verdict == "indeterminate"


def test_exact_candidate_on_mean_zero_field():
    """For an exact torus field the primitive-corrected form 1 - s theta
    certifies positivity at small s and loses it at large s."""
    system = MagneticSystem(FlatTorus(), TorusField(
        lambda x, y: 2 * np.pi * np.cos(2 * np.pi * x)))
    cand = torus_exact_candidate(system)
    small = contact_candidate_min(system, 0.2, cand, n_base=48, n_fiber=32)
    assert small.verdict == "positive"
    big = contact_candidate_min(system, 5.0, cand, n_base=48, n_fiber=32)
    assert big.verdict != "positive"


def _bump(x, y):
    """A positive-mean field with no periodic primitive."""
    return 1.0 - 2.0 * np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.0625)


@pytest.mark.parametrize("system", [
    MagneticSystem(RoundSphere(), ConstantField(1.0)),
    MagneticSystem(FlatTorus(), ConstantField(1.0)),
    MagneticSystem(FlatTorus(), TorusField(_bump))],
    ids=["sphere", "flat", "bump"])
def test_exact_candidate_needs_periodic_primitive(system):
    """The sphere chart's radial form and -v du on the flat torus are
    primitives on one chart only, so pi* zeta is not global: the exact
    candidate raises rather than certify (the sphere at s = 0.5 read min
    0.5097, where alpha + s psi gives 1.25), and on a bump torus it raises
    the same error rather than a numpy one."""
    with pytest.raises(NoGlobalPrimitiveError):
        torus_exact_candidate(system)


@pytest.mark.parametrize("surface,field,want", [
    (RoundSphere(), ConstantField(1.3), "rotated"),
    (HyperbolicPlane(genus=2), ConstantField(1.3), "rotated"),
    (FlatTorus(), ConstantField(1.3), "fiber"),
    (FlatTorus(), CosineField(3.0), "exact"),
    (FlatTorus(), ConstantField(0.0), "exact"),
    (FlatTorus(), TorusField(_bump), "none")],
    ids=["sphere", "half-plane", "flat", "cosine", "zero", "bump"])
def test_candidate_for_picks_from_the_system(surface, field, want):
    """Constant fields get alpha + (s f / K) psi on the sphere and the
    half-plane and d phi on the flat torus; a field with a periodic
    primitive gets the exact candidate; a bump torus has none."""
    system = MagneticSystem(surface, field)
    if want == "none":
        with pytest.raises(UnsupportedError):
            candidate_for(system)
        return
    cand = candidate_for(system)
    if want == "fiber":
        assert isinstance(cand, FiberCandidate)
    elif want == "rotated":
        assert cand.zeta is None
        assert cand.ratio == field.value / surface.constant_curvature
    else:
        assert cand.ratio == 0.0
        assert cand.zeta == local_primitive(system).theta


def test_inconsistent_candidate_rejected():
    """A rotated form with the wrong coefficient fails the structural
    spot-check instead of producing a certificate."""
    system = MagneticSystem(RoundSphere(), ConstantField(1.0))
    with pytest.raises(InvalidCandidateError):
        contact_candidate_min(system, 1.0, ContactCandidate(0.123),
                              n_base=16, n_fiber=8)


@pytest.mark.parametrize("n_base,n_fiber", [(0, 8), (16, 0), (-1, 8),
                                           (2.5, 8), (16, 2.5)])
def test_bad_grid_size_rejected(n_base, n_fiber):
    """A grid without base points or fibre angles has no sign to certify:
    it raises instead of reporting "positive" with min inf, or dividing
    by zero; a fractional size would certify a grid it does not name."""
    system = MagneticSystem(FlatTorus(), CosineField(1.0))
    with pytest.raises(DegenerateInputError, match="n_base"):
        contact_candidate_min(system, 0.5, candidate_for(system),
                              n_base=n_base, n_fiber=n_fiber)


def _builders():
    """(system, s, candidate) for every candidate builder."""
    def cosine(x, y):
        return 2 * np.pi * np.cos(2 * np.pi * x) \
            + 0.5 * np.sin(2 * np.pi * (x + 2 * y))

    sphere = MagneticSystem(RoundSphere(), ConstantField(1.3))
    hyper = MagneticSystem(HyperbolicPlane(genus=2), ConstantField(-0.8))
    flat = MagneticSystem(FlatTorus(), ConstantField(0.9))
    exact = MagneticSystem(FlatTorus(), TorusField(cosine))
    s = 0.7
    return [(sphere, s, homogeneous_candidate(sphere)),
            (hyper, s, homogeneous_candidate(hyper)),
            (flat, s, homogeneous_candidate(flat)),
            (exact, s, torus_exact_candidate(exact))]


def _honest_pairing(system, s, cand, chart, u, v, phi):
    """tau(X_s) from the coframe and frame components: d phi = psi on a
    flat torus, else alpha + s ratio psi - s pi* zeta."""
    a, p, _ = xs_coefficients(system, s, chart, u, v, phi)
    if isinstance(cand, FiberCandidate):
        return p
    tau = a + s * cand.ratio * p
    if cand.zeta is not None:
        x_vec, _, _ = frame_vectors(system.surface, chart, u, v, phi)
        z1, z2 = cand.zeta(chart, u, v)
        tau -= s * (z1 * x_vec[..., 0] + z2 * x_vec[..., 1])
    return tau


@pytest.mark.parametrize("case", range(4), ids=[
    "sphere", "hyperbolic", "flat", "exact"])
def test_closed_form_pairing_matches_coframe(case):
    """The closed form a - s (b_u cos phi + b_v sin phi) is the honest
    pairing of the candidate with X_s at random bundle points."""
    system, s, cand = _builders()[case]
    if system.surface.constant_curvature == -1:
        us, vs = RNG.uniform(-1, 1, 50), RNG.uniform(0.3, 3, 50)
    else:
        us, vs = RNG.uniform(-2, 2, 50), RNG.uniform(-2, 2, 50)
    phis = RNG.uniform(0, 2 * np.pi, 50)
    for chart in range(system.surface.n_charts):
        got = pairing(cand, system, s, chart, us, vs, phis)
        want = _honest_pairing(system, s, cand, chart, us, vs, phis)
        assert np.max(np.abs(got - want)) < 1e-12


def test_certificate_samples_the_base_once():
    """conformal, field.eval and zeta are called as often for 8 fibre
    angles as for 32: the angle enters only through cos and sin."""
    for system, s, cand in _builders():
        calls = {"conformal": 0, "eval": 0, "zeta": 0}

        def counted(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        system.surface.conformal = counted("conformal",
                                           system.surface.conformal)
        system.field.eval = counted("eval", system.field.eval)
        if getattr(cand, "zeta", None) is not None:
            cand.zeta = counted("zeta", cand.zeta)
        seen = []
        for n_fiber in (8, 32):
            calls.update(dict.fromkeys(calls, 0))
            contact_candidate_min(system, s, cand, n_base=16,
                                  n_fiber=n_fiber)
            seen.append(dict(calls))
        assert seen[0] == seen[1]
        assert seen[0]["eval"] > 0
        # the sphere and hyperbolic systems serve two candidates each
        del system.surface.conformal, system.field.eval


def test_liouville_action_homogeneous_quotient():
    """Genus-two constant field: volume 8 pi^2 and action
    8 pi^2 (1 - s^2); the flip integral vanishes."""
    system = MagneticSystem(HyperbolicPlane(genus=2), ConstantField(1.0))
    for s in (0.5, 1.0, 2.0):
        act = liouville_action(system, s)
        want = 8.0 * math.pi ** 2 * (1.0 - s * s)
        assert abs(act.volume - 8.0 * math.pi ** 2) < 1e-9
        assert abs(act.closed_form - want) < 1e-9
        assert abs(act.quadrature_action - want) < 1e-6 * max(
            1.0, abs(want))
        assert abs(act.flip_integral) < 1e-9


def test_liouville_action_exact_torus():
    """Mean-zero torus field: the action equals the bundle volume for all
    s (the primitive term integrates to zero)."""
    system = MagneticSystem(FlatTorus(), TorusField(
        lambda x, y: 2 * np.pi * np.cos(2 * np.pi * x)))
    act = liouville_action(system, 1.7)
    assert abs(act.volume - 2.0 * math.pi) < 1e-12
    assert abs(act.quadrature_action - act.volume) < 1e-9
    assert abs(act.flip_integral) < 1e-12


def test_liouville_action_exact_conformal_torus():
    """The exact candidate serves every torus: on a conformal one the
    action is the bundle volume too, with no curvature term, up to the
    gap between the 128^2 base grid and the 32^2 area quadrature."""
    x = np.arange(32) / 32
    grid = 0.1 * np.cos(2 * np.pi * x)[:, None] \
        * np.sin(2 * np.pi * x)[None, :]
    system = MagneticSystem(ConformalTorus(grid), CosineField(2 * np.pi))
    act = liouville_action(system, 1.7)
    assert abs(act.closed_form - act.volume) < 1e-12
    assert abs(act.quadrature_action - act.volume) < 1e-6 * act.volume


def test_liouville_action_rejects_net_flux_torus():
    system = MagneticSystem(FlatTorus(), ConstantField(1.0))
    with pytest.raises(UnsupportedError):
        liouville_action(system, 1.0)


def test_rotation_vector_liouville():
    system = MagneticSystem(FlatTorus(), ConstantField(1.0))
    rot = rotation_vector(system, 2.0)
    assert abs(rot[0]) < 1e-12 and abs(rot[1]) < 1e-12
    assert abs(rot[2] - 2.0 * flux_total(system)) < 1e-6

    sphere = MagneticSystem(RoundSphere(), ConstantField(1.0))
    assert rotation_vector(sphere, 1.0) == (0.0, 0.0, 0.0)


def test_rotation_vector_orbit():
    """The contractible torus orbit winds once in the fiber and not at
    all in the base."""
    system = MagneticSystem(FlatTorus(), ConstantField(1.0))
    k = energy_of_s(2.0)
    orbit = shoot_periodic(system, k, TangentState(0, 0.1, 0.1, 0.0, 1.0))
    rot = rotation_vector(system, 2.0, orbit=orbit)
    # the recorded trajectory closes only to one time step, so the winding
    # entries carry an O(dt) closure error before rounding to integers
    assert abs(rot[0]) < 1e-3
    assert abs(rot[1]) < 1e-3
    assert abs(rot[2] - 1.0) < 1e-3
