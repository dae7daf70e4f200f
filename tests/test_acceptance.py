"""Top-level acceptance gate.

Twelve numbered criteria, one test each, covering closed-orbit recovery,
conservation, variational consistency, curve evolution, critical values,
contact certificates and integral identities.  Every test prints a single
pass/fail line (visible with pytest -s or in the captured output).
"""

import dataclasses
import math
import time

import numpy as np

from magsurf import bundle, critical, regions
from magsurf.errors import NoReturnError
from magsurf.fields import (ConstantField, MagneticSystem, TorusField,
                            energy_of_s)
from magsurf.flow import (TangentState, integrate, state_at_energy,
                          trajectory_curvature, trajectory_energies)
from magsurf.orbits import (DescentParams, DiscreteLoop, circle_loop,
                            descend_to_critical, discrete_action,
                            discrete_action_gradient, fit_circle,
                            homogeneous_oracle, loop_mean_energy,
                            orbit_curvature_residual, orbit_radius,
                            shoot_periodic)
from magsurf.surfaces import FlatTorus, HyperbolicPlane, RoundSphere

RNG = np.random.default_rng(7)


def _report(num, label, ok):
    print("criterion %2d %s  %s" % (num, "PASS" if ok else "FAIL", label))
    assert ok, "criterion %d failed: %s" % (num, label)


def _torus():
    return MagneticSystem(FlatTorus(), ConstantField(1.0))


def _sphere():
    return MagneticSystem(RoundSphere(), ConstantField(1.0))


def _hyperbolic():
    return MagneticSystem(HyperbolicPlane(genus=2), ConstantField(1.0))


def _resampled_orbit(system, orbit, dt=1e-3):
    """Re-integrate one period with the step an exact divisor of the
    period, so quadrature along the orbit sees a genuinely closed curve."""
    traj = orbit.trajectory
    st = TangentState(int(traj.chart[0]), traj.q[0, 0], traj.q[0, 1],
                      traj.dq[0, 0], traj.dq[0, 1])
    n = max(int(round(orbit.period / dt)), 1)
    dense = integrate(system, st, orbit.period, dt=orbit.period / n,
                      record_every=1)
    return dataclasses.replace(orbit, recorded=dense)


def _disc_region(orbit, n=512):
    pts = orbit.trajectory.q[:-1]
    step = max(1, len(pts) // n)
    return regions.Region([regions.RegionCurve(pts[::step].copy())], 1)


def test_criterion_01_sphere_orbits():
    system = _sphere()
    ok = True
    for s in (0.5, 1.0, 2.0):
        oracle = homogeneous_oracle("sphere", s)
        rc = math.tan(oracle.radius / 2.0)
        t0 = time.monotonic()
        orbit = shoot_periodic(system, energy_of_s(s),
                               TangentState(0, 1.1 * rc, 0.0, 0.0, 1.0))
        elapsed = time.monotonic() - t0
        ok &= abs(orbit.period - oracle.period) < 1e-6
        ok &= abs(orbit_radius(system, orbit) - oracle.radius) < 1e-6
        ok &= elapsed < 5.0
    _report(1, "sphere closed orbits match closed forms", ok)


def test_criterion_02_torus_orbits():
    system = _torus()
    periods = []
    ok = True
    for s in (0.5, 1.0, 2.0, 4.0):
        orbit = shoot_periodic(system, energy_of_s(s),
                               TangentState(0, 0.1, 0.2, 0.0, 1.0))
        ok &= abs(orbit_radius(system, orbit) - 1.0 / s) < 1e-6
        ok &= abs(orbit.period - 2.0 * math.pi) < 1e-8
        periods.append(orbit.period)
    spread = max(periods) - min(periods)
    ok &= spread < 1e-8
    _report(2, "torus orbit radii 1/s, period independent of s", ok)


def test_criterion_03_hyperbolic_orbits():
    system = _hyperbolic()
    ok = True
    orbit = shoot_periodic(system, energy_of_s(2.0),
                           TangentState(0, 0.9 * math.sinh(math.atanh(0.5)),
                                        math.cosh(math.atanh(0.5)), 0.0, 1.0))
    ok &= abs(orbit_radius(system, orbit) - math.atanh(0.5)) < 1e-6
    ok &= abs(orbit.period - 4.0 * math.pi / math.sqrt(3.0)) < 1e-6

    # below the speed threshold: no closed orbit, constant curvature arc
    k = energy_of_s(0.8)
    try:
        shoot_periodic(system, k, TangentState(0, 0.0, 1.0, 1.0, 0.0),
                       max_time=40.0)
        ok = False
    except NoReturnError:
        pass
    st = state_at_energy(system, TangentState(0, 0.0, 1.0, 1.0, 0.0), k)
    traj = integrate(system, st, 40.0)
    kappa = trajectory_curvature(system, traj)
    mask = ~np.isnan(kappa)
    ok &= float(np.max(np.abs(kappa[mask] - 0.8))) < 1e-6
    center, radius = fit_circle(traj.q)
    angle = math.acos(min(abs(center[1]) / radius, 1.0))
    ok &= abs(angle - math.acos(0.8)) < 1e-4
    _report(3, "hyperbolic orbit above threshold, boundary arc below", ok)


def test_criterion_04_energy_conservation_and_order():
    ok = True
    systems = [_torus(), _sphere(), _hyperbolic()]
    seeds = [TangentState(0, 0.1, 0.2, 0.0, 1.0),
             TangentState(0, 0.4, 0.0, 0.0, 1.0),
             TangentState(0, 0.5, 1.2, 0.0, 1.0)]
    k = energy_of_s(2.0)
    for system, seed in zip(systems, seeds):
        st = state_at_energy(system, seed, k)
        traj = integrate(system, st, 100.0, dt=1e-3, record_every=50)
        e = trajectory_energies(system, traj)
        ok &= float(np.max(np.abs(e - e[0]))) / e[0] < 1e-9

    # measured convergence order on the torus circle of radius 1/2
    system = _torus()
    s = 2.0
    speed = math.sqrt(2.0 * energy_of_s(s))
    t_end = 1.0
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        st = TangentState(0, 0.5, 0.0, 0.0, speed)
        traj = integrate(system, st, t_end, dt=dt, record_every=1)
        t = traj.t[-1]
        exact = np.array([0.5 * math.cos(speed * s * t),
                          0.5 * math.sin(speed * s * t)])
        errs.append(float(np.linalg.norm(traj.q[-1] - exact)))
    order = math.log(errs[0] / errs[2]) / math.log(4.0)
    ok &= abs(order - 4.0) < 0.3
    _report(4, "energy drift < 1e-9 over 100 units; RK order 4 +- 0.3", ok)


def test_criterion_05_prescribed_curvature():
    ok = True
    cases = [(_torus(), 2.0, TangentState(0, 0.1, 0.2, 0.0, 1.0)),
             (_sphere(), 1.0, TangentState(0, 0.45, 0.0, 0.0, 1.0)),
             (_hyperbolic(), 2.0, TangentState(0, 0.5, 1.1, 0.0, 1.0))]
    for system, s, seed in cases:
        orbit = shoot_periodic(system, energy_of_s(s), seed)
        ok &= orbit_curvature_residual(system, orbit) < 1e-6
    _report(5, "curvature = s * field along every accepted orbit", ok)


def test_criterion_06_variational_consistency():
    system = _torus()
    k = energy_of_s(2.0)
    ok = True

    # gradient versus central differences on 20 random loops
    for _ in range(20):
        n = 20
        base = circle_loop((0.5, 0.5), 0.3, n, 5.0)
        verts = base.vertices + 0.02 * RNG.normal(size=(n, 2))
        loop = DiscreteLoop(vertices=verts, period=5.0 + RNG.uniform(-1, 1),
                            winding=(0, 0))
        gv, gt = discrete_action_gradient(system, k, loop)
        g = np.concatenate([gv.ravel(), [gt]])
        h = 1e-6
        fd = np.empty(2 * n + 1)
        flat = verts.ravel()
        for j in range(2 * n):
            vp, vm = flat.copy(), flat.copy()
            vp[j] += h
            vm[j] -= h
            fd[j] = (discrete_action(system, k, DiscreteLoop(
                vp.reshape(n, 2), loop.period, (0, 0)))
                - discrete_action(system, k, DiscreteLoop(
                    vm.reshape(n, 2), loop.period, (0, 0)))) / (2 * h)
        fd[-1] = (discrete_action(system, k, DiscreteLoop(
            verts, loop.period + h, (0, 0)))
            - discrete_action(system, k, DiscreteLoop(
                verts, loop.period - h, (0, 0)))) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(fd))))
        ok &= float(np.max(np.abs(g - fd))) / scale < 1e-6

    # converged descent: mean energy pinned to k, period matches shooting
    orbit = shoot_periodic(system, k, TangentState(0, 0.5, 0.0, 0.0, 1.0))
    loop = circle_loop((0.0, 0.0), 0.48, 2048, 6.0)
    res = descend_to_critical(system, k, loop,
                              DescentParams(tol=1e-6, max_iter=400))
    ok &= res.outcome == "converged"
    ok &= abs(loop_mean_energy(system, res.loop) - k) < 1e-6
    ok &= abs(res.loop.period - orbit.period) < 1e-5
    _report(6, "action gradient exact to 1e-6; descent recovers period", ok)


def test_criterion_07_curve_evolution_stationarity():
    ok = True

    # sign-changing field: a bump of depth 2 on a unit background
    w = 0.25

    def f(x, y):
        return 1.0 - 2.0 * np.exp(-(((x - 0.5) ** 2 + (y - 0.5) ** 2)
                                    / w ** 2))

    system = MagneticSystem(FlatTorus(), TorusField(f))
    s = 32.0
    k = energy_of_s(s)
    ang = 2.0 * math.pi * np.arange(128) / 128
    curve = regions.RegionCurve(np.column_stack(
        [0.5 + 0.2 * np.cos(ang), 0.5 + 0.2 * np.sin(ang)]))
    res = regions.evolve_minimize(
        system, k, regions.Region([curve], -1),
        regions.EvolveParams(tol=1e-3, spacing=0.01, max_iter=40000))
    ok &= res.outcome == "stationary"
    ok &= res.residual < 1e-3
    seed = regions.state_from_curve(system, k, res.region.curves[0], -1)
    orbit = shoot_periodic(system, k, seed)
    ok &= orbit_curvature_residual(system, orbit) < 1e-6

    # constant field: the stationary circle has radius 1/s
    system = _torus()
    s = 2.5
    curve = regions.RegionCurve(np.column_stack(
        [0.5 + 0.4 * np.cos(ang), 0.5 + 0.4 * np.sin(ang)]))
    res = regions.evolve_minimize(
        system, energy_of_s(s), regions.Region([curve], 1),
        regions.EvolveParams(tol=1e-3, spacing=0.005, max_iter=30000))
    ok &= res.outcome == "stationary"
    _, radius = fit_circle(res.region.curves[0].vertices)
    ok &= abs(radius - 1.0 / s) < 1e-3
    _report(7, "evolved boundaries are stationary and carry orbits", ok)


def test_criterion_08_threshold_cross_check():
    t0 = time.monotonic()

    def f(x, y):
        return 2.0 * math.pi * np.cos(2.0 * math.pi * x)

    system = MagneticSystem(FlatTorus(), TorusField(f))

    def favorable_strip(x0=0.3, x1=0.7, n=64):
        ys = np.arange(n, dtype=float) / n
        right = regions.RegionCurve(np.column_stack([np.full(n, x1), ys]),
                                    winding=(0, 1))
        left = regions.RegionCurve(np.column_stack([np.full(n, x0),
                                                    1.0 - ys]),
                                   winding=(0, -1))
        return regions.Region(
            [regions.RegionCurve(c.vertices[::-1].copy(),
                                 winding=(-c.winding[0], -c.winding[1]))
             for c in (right, left)], orientation=-1)

    tau = regions.tau_estimate(system, [favorable_strip()], 0.1, 1.0,
                               bisect_iters=16,
                               params=regions.EvolveParams(tol=1e-4,
                                                           max_iter=30000))
    bound = critical.c0_upper_bound(system)
    rel = abs(tau - bound.energy_value) / bound.energy_value
    elapsed = time.monotonic() - t0
    _report(8, "evolution threshold matches sup-norm bound within 5%",
            rel < 0.05 and elapsed < 120.0)


def test_criterion_09_critical_values():
    system = _hyperbolic()
    ok = abs(critical.c_h_value(system) - 0.5) < 1e-12
    ok &= abs(critical.homogeneous_mane_value(system) - 0.5) < 1e-12
    ok &= abs(critical.c_h_value(system)
              - critical.homogeneous_mane_value(system)) < 1e-12
    ok &= homogeneous_oracle("hyperbolic", 1.0 + 1e-12).exists_contractible
    ok &= not homogeneous_oracle("hyperbolic", 1.0).exists_contractible
    ok &= not homogeneous_oracle("hyperbolic", 1.0 - 1e-12).exists_contractible
    _report(9, "higher-genus critical value 0.5; existence flips at s=1", ok)


def test_criterion_10_contact_certificates():
    ok = True
    sphere = _sphere()
    hyper = _hyperbolic()
    for s in (0.5, 1.0, 2.0, 5.0):
        cand = bundle.homogeneous_candidate(sphere)
        cert = bundle.contact_candidate_min(sphere, s, cand)
        ok &= abs(cert.min_value - (1.0 + s * s)) < 1e-12
        ok &= abs(cert.max_value - (1.0 + s * s)) < 1e-12
        ok &= cert.verdict == "positive"
    for s, verdict in ((0.5, "positive"), (1.0, "indeterminate"),
                       (2.0, "negative")):
        cand = bundle.homogeneous_candidate(hyper)
        cert = bundle.contact_candidate_min(hyper, s, cand)
        ok &= abs(cert.min_value - (1.0 - s * s)) < 1e-12
        ok &= cert.verdict == verdict
    _report(10, "contact pairings constant 1 +- s^2 with right verdicts", ok)


def test_criterion_11_volume_action_and_rotation():
    ok = True
    hyper = _hyperbolic()
    for s in (0.5, 2.0):
        act = bundle.liouville_action(hyper, s)
        closed = 8.0 * math.pi ** 2 * (1.0 - s * s)
        ok &= abs(act.closed_form - closed) < 1e-9
        ok &= abs(act.quadrature_action - closed) / abs(closed) < 1e-6
        ok &= abs(act.flip_integral) < 1e-9

    s = 2.0
    system = _torus()
    rot = bundle.rotation_vector(system, s)
    from magsurf.fields import flux_total
    ok &= abs(rot[2] - s * flux_total(system)) < 1e-6
    _report(11, "volume action matches closed form; fiber rotation s*flux",
            ok)


def test_criterion_12_integral_identities():
    ok = True

    # residuals of the three coframe identities shrink with the step
    for surf in (RoundSphere(), HyperbolicPlane(genus=2)):
        r_coarse = bundle.structural_relations_check(surf, h=2e-2)
        r_fine = bundle.structural_relations_check(surf, h=1e-2)
        ok &= max(r_fine.values()) < max(r_coarse.values()) / 1.8

    # disc identities on an exact-field torus orbit
    def f(x, y):
        return 2.0 * math.pi * np.cos(2.0 * math.pi * x)

    system = MagneticSystem(FlatTorus(), TorusField(f))
    s = 2.0
    orbit = shoot_periodic(system, energy_of_s(s),
                           TangentState(0, 1.0 / (4.0 * math.pi),
                                        0.0, 0.0, 1.0))
    dense = _resampled_orbit(system, orbit)
    chk = bundle.gauss_bonnet_action_check(system, s, dense,
                                           _disc_region(dense))
    ok &= chk.residual < 1e-3
    ok &= chk.gauss_bonnet_residual < 1e-4

    # and on the genus-2 circle orbit
    system = _hyperbolic()
    r = math.atanh(0.5)
    orbit = shoot_periodic(system, energy_of_s(2.0),
                           TangentState(0, 0.9 * math.sinh(r),
                                        math.cosh(r), 0.0, 1.0))
    dense = _resampled_orbit(system, orbit)
    chk = bundle.gauss_bonnet_action_check(system, 2.0, dense,
                                           _disc_region(dense))
    ok &= chk.residual < 1e-3
    ok &= chk.gauss_bonnet_residual < 1e-4
    _report(12, "structural residuals decay; disc identities hold", ok)
