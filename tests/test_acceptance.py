"""End-to-end acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them live).
The criteria are deliberately self-contained: they rebuild their scenarios
from scratch instead of leaning on the narrower unit tests.
"""

import math

import numpy as np
import pytest

from conftest import (
    canonical_state,
    gamma_norm_err,
    random_canonical_state,
    random_unit,
    state_from_vec3,
    state_with_sizable_integrals,
)
from suslov.algebra import ConstraintSet, skew_to_vector
from suslov.cases import (
    CaseKind,
    CaseSpec,
    asymptotic_points,
    build_field,
    first_integrals,
    pendulum_reference_field,
)
from suslov.clebsch import (
    Classification,
    energy_offset_constant,
    frequencies,
    integrals_f,
    rotation_numbers,
    torus_classify,
)
from suslov.integrate import (
    IntegratorConfig,
    detect_period,
    drift_report,
    integrate,
    reparametrize,
    solve_adaptive_rk45,
    state_field,
)
from suslov.kharlamova import (
    KharlamovaCoords,
    from_kharlamova,
    orbit_curve,
    orbit_interval,
    period,
    to_kharlamova,
    trajectory_polynomial,
)
from suslov.model import (
    DGJPotential,
    LinearPotential,
    MassTensor,
    QuadraticPotential,
    ZeroPotential,
    divergence_fd,
    energy,
    general_field,
    lagrange_full_field,
    packed_reduced_field,
    packed_suslov3d_field,
    vector_field_3d,
    vector_field_reduced,
)

REFERENCE = IntegratorConfig(method="rk45", rel_tol=1e-10, abs_tol=1e-12)


def announce(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def dgj_fixtures():
    # the sin / quadratic two-argument fixture pair
    return DGJPotential(
        lambda x, y: np.sin(x) + 0.5 * y,
        lambda x, y: (np.cos(x), 0.5),
        lambda x, y: 0.5 * x * x + 0.25 * y * y,
        lambda x, y: (x, 0.5 * y),
    )


def catalog():
    rng = np.random.default_rng(1)
    specs = []
    for n in (3, 4, 5):
        diag = 1.0 + 2.0 * rng.random(n)
        sym = np.full(n, 1.6)
        sym[-1] = 0.8
        b_lin = np.concatenate([0.5 + rng.random(n - 1), [0.0]])
        b_quad = np.sort(2.0 + 3.0 * rng.random(n))[::-1]
        specs.append(
            CaseSpec(CaseKind.LAGRANGE_ND, n, MassTensor(diag=sym),
                     LinearPotential(np.append(np.zeros(n - 1), 1.2)))
        )
        specs.append(
            CaseSpec(CaseKind.KHARLAMOVA_ND, n, MassTensor(diag=diag),
                     LinearPotential(b_lin))
        )
        specs.append(
            CaseSpec(CaseKind.CLEBSCH_TISSERAND_ND, n, MassTensor(diag=diag),
                     QuadraticPotential(b_quad))
        )
    diag3 = np.array([1.0, 2.0, 1.4])
    j3 = np.array([diag3[1] + diag3[2], diag3[0] + diag3[2], diag3[0] + diag3[1]])
    specs.append(
        CaseSpec(CaseKind.LAGRANGE_3D, 3, MassTensor(diag=[1.3, 1.3, 0.6]),
                 LinearPotential([0.0, 0.0, 1.1]))
    )
    specs.append(
        CaseSpec(CaseKind.KHARLAMOVA_3D, 3, MassTensor(diag=diag3),
                 LinearPotential([0.9, -0.6, 0.0]))
    )
    specs.append(
        CaseSpec(CaseKind.CLEBSCH_TISSERAND_3D, 3, MassTensor(diag=diag3),
                 QuadraticPotential(0.7 * j3))
    )
    specs.append(CaseSpec(CaseKind.DGJ_3D, 3, MassTensor(diag=diag3), dgj_fixtures()))
    specs.append(
        CaseSpec(CaseKind.GYROSCOPIC_3D, 3, MassTensor(diag=diag3),
                 LinearPotential([0.8, 0.5, 0.0]), gyro_eps=0.7)
    )
    return specs


@pytest.mark.slow
def test_criterion_1_conservation_suite():
    import zlib

    worst = 0.0
    worst_case = ""
    for spec in catalog():
        # deterministic across processes (str hash is salted)
        seed = zlib.crc32(spec.kind.value.encode()) + spec.n
        rng = np.random.default_rng(seed)
        integrals = first_integrals(spec)
        state0 = state_with_sizable_integrals(rng, spec, integrals, min_abs=0.25)
        field, constraints = build_field(spec)
        traj = integrate(field, state0, (0.0, 100.0), REFERENCE, output_dt=0.5)
        drifts = drift_report(traj, integrals)
        case_worst = max(drifts.values())
        if case_worst > worst:
            worst, worst_case = case_worst, f"{spec.kind.value}-n{spec.n}"
    announce(
        1,
        worst <= 1e-8,
        f"all catalog integrals drift <= 1e-8 over [0,100] at rel_tol 1e-10 "
        f"(worst {worst:.3e} in {worst_case})",
    )


def test_criterion_2_measure_check():
    rng = np.random.default_rng(2)
    worst = 0.0
    for spec in catalog():
        if spec.kind in (CaseKind.LAGRANGE_ND, CaseKind.KHARLAMOVA_ND,
                         CaseKind.CLEBSCH_TISSERAND_ND):
            f, dim = packed_reduced_field(spec.inertia, spec.potential)
        else:
            f, dim, _ = packed_suslov3d_field(
                spec.j_diag, np.array([0.0, 0.0, 1.0]), spec.potential,
                spec.gyro_eps,
            )
        for _ in range(100):
            x = rng.normal(size=dim)
            x[dim - spec.n:] /= np.linalg.norm(x[dim - spec.n:])
            worst = max(worst, abs(divergence_fd(f, x)))
    ok_preserved = worst <= 1e-6

    j = np.array([1.0, 2.0, 3.0])
    axis = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    f, dim, _ = packed_suslov3d_field(j, axis)
    divs = []
    for _ in range(100):
        # unit speed: the divergence scales with |Omega| and vanishes on a
        # measure-zero curve, so "generic" means unit-scale states off it
        x = rng.normal(size=dim)
        x[:2] /= np.linalg.norm(x[:2])
        x[2:] /= np.linalg.norm(x[2:])
        divs.append(abs(divergence_fd(f, x)))
    divs = np.array(divs)
    ok_free = float(np.mean(divs > 1e-3)) >= 0.98 and np.median(divs) > 1e-2
    announce(
        2,
        ok_preserved and ok_free,
        f"reduced fields divergence-free (max {worst:.3e} <= 1e-6); "
        f"non-eigenvector free case divergent at generic states "
        f"(median {np.median(divs):.3e}, {np.mean(divs > 1e-3):.0%} > 1e-3)",
    )


def _kharlamova_instance(rng, n):
    inertia = MassTensor(diag=1.0 + 2.0 * rng.random(n))
    b = np.concatenate([0.5 + rng.random(n - 1), [0.0]])
    spec = CaseSpec(CaseKind.KHARLAMOVA_ND, n, inertia, LinearPotential(b))
    return inertia, b, spec


@pytest.mark.slow
def test_criterion_3_kharlamova_periods():
    rng = np.random.default_rng(3)
    checked = 0
    worst = 0.0
    for n, count in ((3, 17), (4, 17), (5, 16)):
        for _ in range(count):
            inertia, b, spec = _kharlamova_instance(rng, n)
            state0 = random_canonical_state(rng, n, speed=0.6)
            coords = to_kharlamova(state0, inertia, b)
            poly = trajectory_polynomial(coords, inertia, b)
            interval = orbit_interval(poly, coords.omega[0])
            t_quad = period(poly, interval)
            assert math.isfinite(t_quad)  # random data: simple roots
            field, _ = build_field(spec)
            traj = integrate(
                field, state0, (0.0, 5.4 * t_quad), REFERENCE,
                output_dt=t_quad / 600.0,
            )
            t_meas = detect_period(traj, lambda s: s.omega.mat[0, s.n - 1])
            assert t_meas is not None
            worst = max(worst, abs(t_meas - t_quad) / t_quad)
            checked += 1
    ok_periodic = worst <= 1e-6 and checked == 50

    # tuned double-root data: asymptotic flag and no return
    inertia = MassTensor(diag=[1.0, 2.0, 1.5])
    b = np.array([2.0, 1.0, 0.0])
    eq = KharlamovaCoords(
        np.array([0.0, 2.8]),
        np.array([-1.25, 1.25, 0.0]),
    )
    poly_eq = trajectory_polynomial(eq, inertia, b)
    curve = orbit_curve(eq)
    delta = 0.4
    g_head = curve(delta)
    start = KharlamovaCoords(
        np.array([delta, eq.omega[1]]),
        np.array([g_head[0], g_head[1], -math.sqrt(float(poly_eq(delta)))]),
    )
    poly = trajectory_polynomial(start, inertia, b)
    interval = orbit_interval(poly, delta)
    flagged = period(poly, interval) == math.inf

    # typical period of a nearby regular orbit sets the no-return horizon
    state_typ = random_canonical_state(np.random.default_rng(33), 3, speed=0.6)
    coords_typ = to_kharlamova(state_typ, inertia, b)
    poly_typ = trajectory_polynomial(coords_typ, inertia, b)
    t_typical = period(poly_typ, orbit_interval(poly_typ, coords_typ.omega[0]))

    state0 = from_kharlamova(start, inertia, b)
    spec = CaseSpec(CaseKind.KHARLAMOVA_ND, 3, inertia, LinearPotential(b))
    field, _ = build_field(spec)
    traj = integrate(
        field, state0, (0.0, 10.0 * t_typical), REFERENCE,
        output_dt=t_typical / 100.0,
    )
    no_return = detect_period(traj, lambda s: s.omega.mat[0, 2]) is None
    announce(
        3,
        ok_periodic and flagged and no_return,
        f"50 random instances: |T_ode - T_quad|/T <= 1e-6 (worst {worst:.3e}); "
        f"double-root data flagged asymptotic with no return in 10 T_typical",
    )


@pytest.mark.slow
def test_criterion_4_clebsch_tori():
    ok = True
    details = []
    for seed in (40, 41):
        rng = np.random.default_rng(seed)
        n = 3 if seed % 2 == 0 else 4
        inertia = MassTensor(diag=1.0 + 2.0 * rng.random(n))
        b = np.sort(2.0 + 3.0 * rng.random(n))[::-1]
        b[-1] -= 1.0
        spec = CaseSpec(CaseKind.CLEBSCH_TISSERAND_ND, n, inertia,
                        QuadraticPotential(b))
        field, _ = build_field(spec)
        exact = frequencies(inertia, b)
        pair = inertia.diag[: n - 1] + inertia.diag[n - 1]
        gap = b[: n - 1] - b[n - 1]
        cfg = IntegratorConfig(method="rk45", rel_tol=1e-11, abs_tol=1e-13)
        for fill in (0.3, 0.55, 0.8):
            weights = rng.random(n - 1) + 0.2
            weights = fill * weights / np.sum(weights)
            c = weights * gap
            assert torus_classify(c, b) is Classification.TWO_DISJOINT_TORI
            phase = rng.uniform(-np.pi, np.pi, size=n - 1)
            col = np.sqrt(c / pair) * np.sin(phase)
            g_head = np.sqrt(c / gap) * np.cos(phase)
            g_n = np.sqrt(1.0 - np.sum(g_head**2))
            state0 = canonical_state(col, np.append(g_head, g_n))
            traj = integrate(field, state0, (0.0, 200.0), cfg, output_dt=0.02)
            signs = np.array([np.sign(s.gamma[-1]) for s in traj.states])
            sign_ok = bool(np.all(signs == signs[0]))
            tau = reparametrize(traj, lambda y: y[..., -1])
            measured = rotation_numbers(tau, inertia, b)
            err = float(np.max(np.abs(measured - exact)))
            details.append(err)
            ok = ok and sign_ok and err <= 1e-4
    announce(
        4,
        ok,
        "disjoint-tori data keeps sign(Gamma_n) over [0,200] and measured "
        f"rotation numbers match the closed form to 1e-4 (worst {max(details):.3e})",
    )


def test_criterion_5_lagrange_pendulum():
    n = 4
    mass = MassTensor(diag=[1.7, 1.7, 1.7, 0.9])
    b_n = 1.3
    spec = CaseSpec(CaseKind.LAGRANGE_ND, n, mass,
                    LinearPotential([0.0, 0.0, 0.0, b_n]))
    rng = np.random.default_rng(5)

    # (a) the constrained block of the unconstrained flow stays zero
    state0 = random_canonical_state(rng, n)

    def full(state):
        return lagrange_full_field(state, mass, b_n)

    traj_full = integrate(state_field(full, n), state0, (0.0, 100.0), REFERENCE,
                          output_dt=0.25)
    block = max(np.max(np.abs(s.omega.mat[:3, :3])) for s in traj_full.states)

    # (b) derived angular momenta conserved on generic data
    field, _ = build_field(spec)
    traj = integrate(field, state0, (0.0, 100.0), REFERENCE, output_dt=0.25)
    drifts = drift_report(traj, first_integrals(spec))
    momenta_drift = max(v for k, v in drifts.items() if k.startswith("L_"))

    # (c) Gamma follows the spherical pendulum on zero-momentum data
    gamma0 = random_unit(rng, n)
    col0 = 0.8 * gamma0[:3]
    state_p = canonical_state(col0, gamma0)
    cfg = IntegratorConfig(method="rk45", rel_tol=1e-11, abs_tol=1e-13)
    traj_p = integrate(field, state_p, (0.0, 20.0), cfg, output_dt=0.05)
    mass_eff = mass.diag[0] + mass.diag[3]
    gd0 = np.empty(n)
    gd0[:3] = -gamma0[3] * col0
    gd0[3] = float(np.dot(gamma0[:3], col0))

    def pend(y):
        return np.concatenate(
            [y[n:], pendulum_reference_field(y[:n], y[n:], mass_eff, b_n)]
        )

    ys = solve_adaptive_rk45(
        pend, np.concatenate([gamma0, gd0]), traj_p.times, 1e-12, 1e-14
    )
    mismatch = max(
        np.max(np.abs(ys[i, :n] - traj_p.states[i].gamma))
        for i in range(len(traj_p))
    )
    ok = block <= 1e-8 and momenta_drift <= 1e-8 and mismatch <= 1e-6
    announce(
        5,
        ok,
        f"unconstrained block stays zero ({block:.2e}); momenta drift "
        f"{momenta_drift:.2e} <= 1e-8; pendulum match {mismatch:.2e} <= 1e-6",
    )


def test_criterion_6_free_asymptotics():
    j = np.array([1.0, 2.0, 3.0])
    axis = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    rng = np.random.default_rng(6)
    d = rng.normal(size=3)
    d -= np.dot(d, axis) * axis
    h = 0.5
    w0 = d * np.sqrt(2.0 * h / np.dot(j * d, d))
    w_minus, w_plus = asymptotic_points(j, axis, h)

    def f(y):
        wd, gd = vector_field_3d(y[:3], y[3:], j, ZeroPotential(), 0.0, axis)
        return np.concatenate([wd, gd])

    t_grid = np.linspace(0.0, 200.0, 2001)
    ys = solve_adaptive_rk45(
        f, np.concatenate([w0, [0.0, 0.6, 0.8]]), t_grid, 1e-11, 1e-13
    )
    dist = np.linalg.norm(ys[:, :3] - w_plus, axis=1)
    started = int(np.argmax(dist < 0.5 * dist[0]))
    tail = dist[started:]
    tail = tail[tail > 1e-10]  # roundoff floor once fully converged
    monotone = bool(np.all(np.diff(tail) < 1e-12))
    ok_free = monotone and dist[-1] < 1e-6

    # eigenvector axis: the angular velocity is frozen
    inertia = MassTensor(diag=[1.0, 2.0, 3.0])
    spec = CaseSpec(CaseKind.SUSLOV_FREE, 3, inertia, ZeroPotential())
    field, _ = build_field(spec)
    state0 = random_canonical_state(rng, 3)
    traj = integrate(field, state0, (0.0, 100.0), REFERENCE, output_dt=0.5)
    dev = max(
        np.max(np.abs(s.omega.mat - state0.omega.mat)) for s in traj.states
    )
    announce(
        6,
        ok_free and dev <= 1e-10,
        f"non-eigenvector trajectory converges to w_plus (final {dist[-1]:.2e}, "
        f"monotone after transient); eigenvector case frozen to {dev:.2e}",
    )


def test_criterion_7_cross_implementation():
    rng = np.random.default_rng(7)
    worst_reduced = 0.0
    worst_3d = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 6))
        inertia = MassTensor(diag=0.5 + 2.0 * rng.random(n))
        pot = QuadraticPotential(rng.normal(size=n))
        constraints = ConstraintSet.canonical_suslov(n)
        state = random_canonical_state(rng, n)
        od_r, gd_r = vector_field_reduced(state, inertia, pot)
        od_g, gd_g = general_field(inertia, pot, constraints)(state)
        worst_reduced = max(
            worst_reduced,
            float(np.max(np.abs(od_r.mat - od_g.mat))),
            float(np.max(np.abs(gd_r - gd_g))),
        )
    for _ in range(1000):
        diag = 0.5 + 2.0 * rng.random(3)
        inertia = MassTensor(diag=diag)
        j = np.array([diag[1] + diag[2], diag[0] + diag[2], diag[0] + diag[1]])
        pot = QuadraticPotential(rng.normal(size=3))
        constraints = ConstraintSet.single_3d([0.0, 0.0, 1.0])
        w = rng.normal(size=3)
        gamma = random_unit(rng, 3)
        state = state_from_vec3(w, gamma)
        od_g, gd_g = general_field(inertia, pot, constraints)(state)
        wd, gd = vector_field_3d(w, gamma, j, pot)
        worst_3d = max(
            worst_3d,
            float(np.max(np.abs(skew_to_vector(od_g) - wd))),
            float(np.max(np.abs(gd_g - gd))),
        )
    ok = worst_reduced <= 1e-12 and worst_3d <= 1e-12
    announce(
        7,
        ok,
        f"general vs reduced agree to {worst_reduced:.2e}; general vs 3D "
        f"vector form agree to {worst_3d:.2e} (both <= 1e-12, 1000 states each)",
    )


def test_criterion_8_energy_f_relation():
    rng = np.random.default_rng(8)
    ok = True
    labels = set()
    for n in (3, 4, 5):
        inertia = MassTensor(diag=1.0 + 2.0 * rng.random(n))
        b = np.sort(2.0 + 3.0 * rng.random(n))[::-1]
        pot = QuadraticPotential(b)
        spec = CaseSpec(CaseKind.CLEBSCH_TISSERAND_ND, n, inertia, pot)
        field, _ = build_field(spec)
        state0 = random_canonical_state(rng, n, speed=0.5)
        traj = integrate(field, state0, (0.0, 60.0), REFERENCE, output_dt=0.25)
        offsets = np.array(
            [
                energy(s, inertia, pot)
                - 0.5 * float(np.sum(integrals_f(s, inertia, b)))
                for s in traj.states
            ]
        )
        spread = float(np.max(np.abs(offsets - offsets[0])))
        label, residuals = energy_offset_constant(float(offsets[0]), b)
        labels.add(label)
        ok = ok and spread <= 1e-10 and label == "half_Bn"
    announce(
        8,
        ok,
        "E - (sum F_i)/2 constant to 1e-10 along flows; the data supports "
        f"the constant B_n/2 (resolved: {sorted(labels)})",
    )


def test_criterion_9_numerics_hygiene():
    # RK4 order on the eigenvector free case
    inertia = MassTensor(diag=[1.0, 2.0, 3.0])
    spec = CaseSpec(CaseKind.SUSLOV_FREE, 3, inertia, ZeroPotential())
    field, _ = build_field(spec)
    state0 = canonical_state([1.1, 0.4], [0.3, 0.0, math.sqrt(1 - 0.09)])
    ref_cfg = IntegratorConfig(method="rk4", step=1e-4, renormalize_gamma=False)
    ref = integrate(field, state0, (0.0, 5.0), ref_cfg, output_dt=5.0)
    gamma_ref = ref.states[-1].gamma
    errs = []
    for h in (0.05, 0.025, 0.0125):
        cfg = IntegratorConfig(method="rk4", step=h, renormalize_gamma=False)
        traj = integrate(field, state0, (0.0, 5.0), cfg, output_dt=5.0)
        errs.append(np.linalg.norm(traj.states[-1].gamma - gamma_ref))
    orders = [
        math.log(errs[i] / errs[i + 1]) / math.log(2.0) for i in range(2)
    ]
    ok_order = all(abs(p - 4.0) <= 0.3 for p in orders)

    # |Gamma| drift without renormalization stays small at reference tolerances
    rng = np.random.default_rng(9)
    inertia4 = MassTensor(diag=1.0 + 2.0 * rng.random(4))
    b = np.array([0.9, -0.5, 0.3, 0.0])
    spec4 = CaseSpec(CaseKind.KHARLAMOVA_ND, 4, inertia4, LinearPotential(b))
    field4, _ = build_field(spec4)
    cfg = IntegratorConfig(method="rk45", rel_tol=1e-10, abs_tol=1e-12,
                           renormalize_gamma=False)
    traj = integrate(field4, random_canonical_state(rng, 4), (0.0, 100.0),
                     cfg, output_dt=0.25)
    gamma_drift = float(np.max(gamma_norm_err(traj)))

    # quadrature node-doubling self-convergence
    state = random_canonical_state(rng, 4, speed=0.6)
    coords = to_kharlamova(state, inertia4, b)
    poly = trajectory_polynomial(coords, inertia4, b)
    interval = orbit_interval(poly, coords.omega[0])
    t_256 = period(poly, interval, nodes=256)
    t_512 = period(poly, interval, nodes=512)
    quad_delta = abs(t_512 - t_256) / abs(t_512)

    ok = ok_order and gamma_drift <= 1e-6 and quad_delta <= 1e-9
    announce(
        9,
        ok,
        f"RK4 measured orders {[f'{p:.2f}' for p in orders]} within 4 +/- 0.3; "
        f"|Gamma| drift {gamma_drift:.2e} <= 1e-6 without renormalization; "
        f"quadrature doubling delta {quad_delta:.2e} <= 1e-9",
    )
