import math

import numpy as np
import pytest

from conftest import canonical_state, random_canonical_state, states_trajectory
from suslov.integrate import (
    IntegratorConfig,
    detect_period,
    integrate,
    solve_adaptive_rk45,
)
from suslov.kharlamova import (
    KharlamovaCoords,
    QuarticPolynomial,
    from_kharlamova,
    orbit_curve,
    orbit_interval,
    period,
    reduced_field,
    to_kharlamova,
    trajectory_polynomial,
)
from suslov.model import (
    BodyState,
    LinearPotential,
    MassTensor,
    vector_field_reduced,
)


def make_params(n, seed):
    rng = np.random.default_rng(seed)
    inertia = MassTensor(diag=1.0 + 2.0 * rng.random(n))
    b = np.concatenate([0.5 + rng.random(n - 1), [0.0]])
    return inertia, b, rng


def integrate_coords(coords0, inertia, b, t_grid, rtol=1e-12, atol=1e-14):
    """Propagate the transformed system directly (low-level packing)."""
    m = coords0.omega.size

    def f(y):
        d = reduced_field(KharlamovaCoords(y[:m], y[m:]), inertia, b)
        return np.concatenate([d.omega, d.gamma])

    y0 = np.concatenate([coords0.omega, coords0.gamma])
    ys = solve_adaptive_rk45(f, y0, t_grid, rtol, atol)
    return [KharlamovaCoords(y[:m], y[m:]) for y in ys]


class TestCoordinateChange:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_round_trip(self, n):
        inertia, b, rng = make_params(n, n)
        for _ in range(20):
            state = random_canonical_state(rng, n)
            coords = to_kharlamova(state, inertia, b)
            back = from_kharlamova(coords, inertia, b)
            assert np.allclose(back.omega.mat, state.omega.mat, atol=1e-14)
            assert np.allclose(back.gamma, state.gamma, atol=1e-14)

    def test_round_trip_zero_and_boundary(self):
        inertia, b, _ = make_params(4, 0)
        zero = KharlamovaCoords(np.zeros(3), np.array([0.0, 0.0, 0.0, 1.0]))
        again = to_kharlamova(from_kharlamova(zero, inertia, b), inertia, b)
        assert np.allclose(again.omega, 0.0)
        # boundary point with gamma_n = 0 is a legal state
        edge = KharlamovaCoords(
            np.array([0.4, -0.2, 0.1]), np.array([0.3, -0.1, 0.2, 0.0])
        )
        state = from_kharlamova(edge, inertia, b)
        back = to_kharlamova(state, inertia, b)
        assert np.allclose(back.gamma, edge.gamma, atol=1e-14)
        assert back.gamma[-1] == 0.0

    def test_direct_substitution(self):
        inertia = MassTensor(diag=[1.0, 1.0, 1.0])
        b = np.array([2.0, 3.0, 0.0])
        state = random_canonical_state(np.random.default_rng(0), 3)
        mat = np.zeros((3, 3))
        mat[0, 2] = 1.0
        mat[2, 0] = -1.0
        from suslov.algebra import SkewMatrix

        state = BodyState(SkewMatrix(mat), state.gamma)
        coords = to_kharlamova(state, inertia, b)
        assert coords.omega[0] == pytest.approx((1.0 + 1.0) / 2.0)

    def test_zero_b_rejected(self):
        inertia = MassTensor(diag=[1.0, 2.0, 3.0])
        state = random_canonical_state(np.random.default_rng(1), 3)
        with pytest.raises(ValueError, match="B_2"):
            to_kharlamova(state, inertia, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="B_n"):
            to_kharlamova(state, inertia, np.array([1.0, 1.0, 0.5]))


class TestReducedField:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_pushforward_oracle(self, n):
        # the change of variables is linear, so pushing the original field
        # through it must reproduce the transformed field exactly
        inertia, b, rng = make_params(n, 10 + n)
        pot = LinearPotential(b)
        for _ in range(30):
            state = random_canonical_state(rng, n)
            om_dot, g_dot = vector_field_reduced(state, inertia, pot)
            derivative_as_state = BodyState(om_dot, g_dot)
            pushed = to_kharlamova(derivative_as_state, inertia, b)
            direct = reduced_field(to_kharlamova(state, inertia, b), inertia, b)
            assert np.allclose(pushed.omega, direct.omega, atol=1e-12)
            assert np.allclose(pushed.gamma, direct.gamma, atol=1e-12)

    def test_gamma_n_zero_freezes_almost_everything(self):
        inertia, b, rng = make_params(4, 2)
        coords = KharlamovaCoords(
            rng.normal(size=3), np.append(rng.normal(size=3), 0.0)
        )
        d = reduced_field(coords, inertia, b)
        assert np.allclose(d.omega, 0.0)
        assert np.allclose(d.gamma[:3], 0.0)

    def test_orbit_curve_identity(self):
        # d/dt (g_1 - w_1^2 / 2) = 0 is what makes the orbit a curve over w_1
        inertia, b, rng = make_params(4, 3)
        coords = KharlamovaCoords(rng.normal(size=3), rng.normal(size=4))
        d = reduced_field(coords, inertia, b)
        lhs = d.gamma[0] - coords.omega[0] * d.omega[0]
        assert abs(lhs) < 1e-14

    @pytest.mark.parametrize("n", [3, 4])
    def test_constants_along_flow(self, n):
        inertia, b, rng = make_params(n, 20 + n)
        state = random_canonical_state(rng, n)
        coords0 = to_kharlamova(state, inertia, b)
        t_grid = np.linspace(0.0, 30.0, 301)
        samples = integrate_coords(coords0, inertia, b, t_grid)
        k = 1.0 / ((inertia.diag[: n - 1] + inertia.diag[n - 1]) / b[: n - 1])
        for c in samples:
            # w_i constant for i >= 2
            assert np.allclose(c.omega[1:], coords0.omega[1:], atol=1e-10)
            # transported unit-sphere identity
            q = (
                c.gamma[-1] ** 2
                + k[0] ** 2 * c.gamma[0] ** 2
                + np.sum(k[1:] ** 2 * (c.gamma[0] + c.gamma[1 : n - 1]) ** 2)
            )
            assert q == pytest.approx(1.0, abs=1e-10)


class TestOrbitCurve:
    def test_base_point(self):
        rng = np.random.default_rng(4)
        coords = KharlamovaCoords(rng.normal(size=3), rng.normal(size=4))
        curve = orbit_curve(coords)
        assert np.allclose(curve(coords.omega[0]), coords.gamma[:3])

    def test_flat_components_when_momenta_vanish(self):
        coords = KharlamovaCoords(
            np.array([0.7, 0.0, 0.0]), np.array([0.1, 0.2, -0.3, 0.5])
        )
        curve = orbit_curve(coords)
        for w in (-1.0, 0.0, 2.0):
            assert np.allclose(curve(w)[1:], coords.gamma[1:3])

    def test_curve_followed_by_integration(self):
        inertia, b, rng = make_params(4, 5)
        state = random_canonical_state(rng, 4)
        coords0 = to_kharlamova(state, inertia, b)
        curve = orbit_curve(coords0)
        t_grid = np.linspace(0.0, 25.0, 501)
        for c in integrate_coords(coords0, inertia, b, t_grid):
            assert np.allclose(curve(c.omega[0]), c.gamma[:3], atol=1e-8)


class TestPolynomial:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_base_point_consistency(self, n):
        inertia, b, rng = make_params(n, 30 + n)
        for _ in range(10):
            state = random_canonical_state(rng, n)
            coords = to_kharlamova(state, inertia, b)
            poly = trajectory_polynomial(coords, inertia, b)
            # evaluation roundoff grows with the coefficient scale
            w0 = coords.omega[0]
            scale = float(
                np.sum(np.abs(poly.coeffs) * max(1.0, abs(w0)) ** np.arange(5))
            )
            assert poly(w0) == pytest.approx(
                coords.gamma[-1] ** 2, abs=1e-12 * max(1.0, scale)
            )

    def test_leading_coefficient(self):
        inertia, b, rng = make_params(4, 6)
        state = random_canonical_state(rng, 4)
        coords = to_kharlamova(state, inertia, b)
        poly = trajectory_polynomial(coords, inertia, b)
        k = b[:3] / (inertia.diag[:3] + inertia.diag[3])
        assert poly.coeffs[4] == pytest.approx(-0.25 * np.sum(k**2), rel=1e-12)
        assert poly.coeffs[4] < 0.0

    def test_followed_along_flow(self):
        inertia, b, rng = make_params(4, 7)
        state = random_canonical_state(rng, 4)
        coords0 = to_kharlamova(state, inertia, b)
        poly = trajectory_polynomial(coords0, inertia, b)
        t_grid = np.linspace(0.0, 25.0, 501)
        for c in integrate_coords(coords0, inertia, b, t_grid):
            assert poly(c.omega[0]) == pytest.approx(
                c.gamma[-1] ** 2, abs=1e-8
            )


class TestInterval:
    def test_symmetric_data(self):
        # even polynomial: transverse momenta zero makes every factor even
        inertia = MassTensor(diag=[1.0, 2.0, 3.0, 1.5])
        b = np.array([1.0, 0.8, 1.2, 0.0])
        coords = KharlamovaCoords(
            np.array([0.2, 0.0, 0.0]), np.array([-0.1, 0.05, 0.02, 0.0])
        )
        gamma_n = math.sqrt(
            float(trajectory_polynomial(coords, inertia, b)(0.2))
        )
        coords = KharlamovaCoords(
            coords.omega, np.array([-0.1, 0.05, 0.02, gamma_n])
        )
        poly = trajectory_polynomial(coords, inertia, b)
        xi1, xi2 = orbit_interval(poly, coords.omega[0])
        assert xi1 == pytest.approx(-xi2, abs=1e-10)

    def test_endpoints_on_ellipsoid_and_confinement(self):
        inertia, b, rng = make_params(4, 8)
        state = random_canonical_state(rng, 4)
        coords0 = to_kharlamova(state, inertia, b)
        poly = trajectory_polynomial(coords0, inertia, b)
        xi1, xi2 = orbit_interval(poly, coords0.omega[0])
        assert xi1 <= coords0.omega[0] <= xi2
        curve = orbit_curve(coords0)
        k = b[:3] / (inertia.diag[:3] + inertia.diag[3])
        for xi in (xi1, xi2):
            g = curve(xi)
            q = k[0] ** 2 * g[0] ** 2 + np.sum(
                k[1:] ** 2 * (g[0] + g[1:]) ** 2
            )
            assert q == pytest.approx(1.0, abs=1e-10)
        t_grid = np.linspace(0.0, 40.0, 801)
        for c in integrate_coords(coords0, inertia, b, t_grid):
            assert xi1 - 1e-9 <= c.omega[0] <= xi2 + 1e-9

    def test_inconsistent_data_rejected(self):
        inertia, b, _ = make_params(3, 9)
        coords = KharlamovaCoords(np.array([0.0, 0.0]), np.array([50.0, 0.0, 0.0]))
        poly = trajectory_polynomial(coords, inertia, b)
        with pytest.raises(ValueError, match="inconsistent"):
            orbit_interval(poly, 0.0)

    def test_base_point_at_simple_root_opens_to_positive_side(self):
        # gamma_n = 0 turning configuration: the interval starts at the root
        inertia, b, rng = make_params(4, 12)
        state = random_canonical_state(rng, 4)
        coords = to_kharlamova(state, inertia, b)
        poly = trajectory_polynomial(coords, inertia, b)
        xi1, xi2 = orbit_interval(poly, coords.omega[0])
        lo, hi = orbit_interval(poly, xi1)
        assert lo == pytest.approx(xi1, abs=1e-9)
        assert hi == pytest.approx(xi2, abs=1e-9)

    def test_isolated_touch_point_degenerates(self):
        # P = -(w^2 - 1)^2 + tiny has a max touching zero only at the exact
        # top; build the true touching case synthetically
        poly = QuarticPolynomial(
            np.array([-1.0, 0.0, 2.0, 0.0, -1.0]), 0.0, 0.0
        )  # -(w^2-1)^2: double roots at +/-1, negative in between
        lo, hi = orbit_interval(poly, 1.0)
        assert lo == hi == pytest.approx(1.0, abs=1e-7)


class TestPeriod:
    def test_synthetic_circle(self):
        poly = QuarticPolynomial(
            np.array([1.0, 0.0, -1.0, 0.0, 0.0]), 0.0, 1.0
        )
        t = period(poly, (-1.0, 1.0))
        assert t == pytest.approx(2.0 * math.pi, rel=1e-12)

    @pytest.mark.parametrize(
        "coeffs, deg",
        [
            ([1.0, 0.0, -1.0, 0.5, -2.0], 4),
            ([1.0, 0.0, -1.0, 0.0, 0.0], 2),
            ([3.0, 0.0, 0.0, 0.0, 0.0], 0),
        ],
    )
    def test_degree_skips_zero_leading_coefficients(self, coeffs, deg):
        poly = QuarticPolynomial(np.array(coeffs), 0.0, 1.0)
        assert poly.degree == deg
        assert poly.roots().size == deg

    def test_degenerate_interval_rejected(self):
        poly = QuarticPolynomial(np.array([1.0, 0.0, -1.0, 0.0, 0.0]), 0.0, 1.0)
        with pytest.raises(ValueError, match="equilibrium"):
            period(poly, (1.0, 1.0))

    @pytest.mark.parametrize("source", ["orbit_interval", "by_hand"])
    def test_close_root_pair_matches_closed_form(self, source):
        # roots (-1, 1, 1 + 1e-6, 3): the orbit on [-1, 1] passes 1e-6 from
        # the next root, where a Gauss-Legendre rule needs 1024 nodes.  The
        # period is the complete elliptic integral (DLMF 19.29)
        # 4 R_F(0, q3(xi2) q4(xi1), q4(xi2) q3(xi1)), q_i(w) = |w - r_i|.
        # The computed root near 1 is 1 + 6.6e-11, so the interval (-1, 1)
        # given by hand must be read as the roots it stands for
        from scipy.special import elliprf

        coeffs = -np.polynomial.polynomial.polyfromroots([-1.0, 1.0, 1.0 + 1e-6, 3.0])
        poly = QuarticPolynomial(coeffs, 0.0, 1.0)
        xi1, xi2 = orbit_interval(poly, 0.0)
        r3, r4 = poly.roots()[2:]
        t_ref = 4.0 * elliprf(0.0, abs(xi2 - r3) * abs(xi1 - r4),
                              abs(xi2 - r4) * abs(xi1 - r3))
        interval = (xi1, xi2) if source == "orbit_interval" else (-1.0, 1.0)
        assert period(poly, interval) == pytest.approx(t_ref, rel=1e-10)

    def test_endpoint_off_every_root_rejected(self):
        poly = QuarticPolynomial(np.array([1.0, 0.0, -1.0, 0.0, 0.0]), 0.0, 1.0)
        with pytest.raises(ValueError, match="not a root of P"):
            period(poly, (-0.5, 1.0))

    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    def test_close_complex_pair_matches_mpmath(self, eps):
        # a complex root pair 0.3 +- eps i sits eps from the orbit, so the
        # integrand peaks with width eps.  The reference does not use R_F:
        # 30-digit roots of the same float coefficients, then 2 int dw /
        # sqrt(P) by tanh-sinh after the sine substitution, split at the
        # pair's real part
        mp = pytest.importorskip("mpmath")
        coeffs = -np.polynomial.polynomial.polyfromroots(
            [-1.0, 1.0, 0.3 + eps * 1j, 0.3 - eps * 1j]
        ).real
        with mp.workdps(30):
            roots = mp.polyroots([mp.mpf(c) for c in coeffs[::-1]],
                                 maxsteps=200, extraprec=200)
            xi1, xi2, *others = sorted(roots, key=lambda r: abs(r.imag))
            xi1, xi2 = sorted([xi1.real, xi2.real])
            mid, half = (xi1 + xi2) / 2, (xi2 - xi1) / 2

            def integrand(theta):
                w = mid + half * mp.sin(theta)
                smooth = -mp.mpf(coeffs[4]) * (w - others[0]) * (w - others[1])
                return 1 / mp.sqrt(smooth.real)

            split = mp.asin((mp.mpf(0.3) - mid) / half)
            t_ref = float(2 * mp.quad(integrand, [-mp.pi / 2, split, mp.pi / 2]))
        poly = QuarticPolynomial(coeffs, 0.0, 1.0)
        interval = orbit_interval(poly, 0.0)
        assert interval == pytest.approx((-1.0, 1.0), abs=1e-12)
        assert period(poly, interval) == pytest.approx(t_ref, rel=1e-11)

    def test_real_root_inside_interval_rejected(self):
        # the cubic -(w + 1)(w - 0.5)(w - 3) is negative on (-1, 0.5), and
        # the interval (-1, 3) holds the root 0.5, with P > 0 at its
        # midpoint: neither bounds an orbit
        coeffs = -np.polynomial.polynomial.polyfromroots([-1.0, 0.5, 3.0])
        poly = QuarticPolynomial(np.append(coeffs, 0.0), 0.0, 1.0)
        # on (0.5, 3) it does, with one remaining root: q4 = 1 in R_F
        assert period(poly, (0.5, 3.0)) == pytest.approx(
            period(poly, (0.5, 3.0), nodes=256), rel=1e-12
        )
        for interval in [(-1.0, 0.5), (-1.0, 3.0)]:
            for nodes in [None, 64]:
                with pytest.raises(ValueError, match="lost positivity"):
                    period(poly, interval, nodes=nodes)

    def test_node_doubling_self_consistency(self):
        inertia, b, rng = make_params(4, 11)
        state = random_canonical_state(rng, 4)
        coords = to_kharlamova(state, inertia, b)
        poly = trajectory_polynomial(coords, inertia, b)
        interval = orbit_interval(poly, coords.omega[0])
        t_256 = period(poly, interval, nodes=256)
        t_512 = period(poly, interval, nodes=512)
        assert abs(t_512 - t_256) <= 1e-9 * abs(t_512)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_measured_period(self, n):
        inertia, b, rng = make_params(n, 40 + n)
        pot = LinearPotential(b)
        state = random_canonical_state(rng, n, speed=0.6)
        coords0 = to_kharlamova(state, inertia, b)
        poly = trajectory_polynomial(coords0, inertia, b)
        interval = orbit_interval(poly, coords0.omega[0])
        t_quad = period(poly, interval)
        assert math.isfinite(t_quad)

        from suslov.cases import CaseKind, CaseSpec, build_field

        spec = CaseSpec(CaseKind.KHARLAMOVA_ND, n, inertia, pot)
        field, constraints = build_field(spec)
        cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
        traj = integrate(
            field, state, (0.0, 5.4 * t_quad), cfg, output_dt=t_quad / 600.0
        )
        t_measured = detect_period(
            traj, lambda s: s.omega.mat[0, s.n - 1]
        )
        assert t_measured is not None
        assert abs(t_measured - t_quad) <= 1e-6 * t_quad

    @pytest.mark.slow
    def test_criterion_3_instances_on_dop853(self):
        # criterion 3's 50 random instances (seed 3), at its tolerances and
        # bound, stepped by DOP853 instead of DP5
        from suslov.cases import CaseKind, CaseSpec, build_field

        rng = np.random.default_rng(3)
        cfg = IntegratorConfig(method="dop853", rel_tol=1e-10, abs_tol=1e-12)
        for n in [3] * 17 + [4] * 17 + [5] * 16:
            inertia = MassTensor(diag=1.0 + 2.0 * rng.random(n))
            b = np.concatenate([0.5 + rng.random(n - 1), [0.0]])
            state = random_canonical_state(rng, n, speed=0.6)
            coords = to_kharlamova(state, inertia, b)
            poly = trajectory_polynomial(coords, inertia, b)
            t_quad = period(poly, orbit_interval(poly, coords.omega[0]))
            field, _ = build_field(
                CaseSpec(CaseKind.KHARLAMOVA_ND, n, inertia, LinearPotential(b))
            )
            traj = integrate(field, state, (0.0, 5.4 * t_quad), cfg,
                             output_dt=t_quad / 600.0)
            t_meas = detect_period(traj, lambda s: s.omega.mat[0, s.n - 1])
            assert t_meas is not None
            assert abs(t_meas - t_quad) <= 1e-6 * t_quad

    def test_double_root_flags_asymptotic(self):
        # build the polynomial from a point on an orbit that limits onto an
        # equilibrium: its P has a double root at the limiting value of w_1
        inertia = MassTensor(diag=[1.0, 2.0, 1.5])
        b = np.array([2.0, 1.0, 0.0])
        eq = KharlamovaCoords(
            np.array([0.0, (2.0 + 1.5) / 1.0 * 0.8]),
            np.array([-(1.0 + 1.5) / 2.0, (1.0 + 1.5) / 2.0, 0.0]),
        )
        poly_eq = trajectory_polynomial(eq, inertia, b)
        assert abs(poly_eq(0.0)) < 1e-12
        assert abs(poly_eq.derivative(0.0)) < 1e-12

        delta = 0.4
        curve = orbit_curve(eq)
        g_head = curve(delta)
        gamma_n = -math.sqrt(float(poly_eq(delta)))
        start = KharlamovaCoords(
            np.array([delta, eq.omega[1]]),
            np.array([g_head[0], g_head[1], gamma_n]),
        )
        poly = trajectory_polynomial(start, inertia, b)
        interval = orbit_interval(poly, delta)
        assert period(poly, interval) == math.inf

        # and the trajectory never returns: no period over a long horizon
        t_typical = 6.0  # scale of nearby periodic orbits for these params
        t_grid = np.linspace(0.0, 10.0 * t_typical, 4001)
        # the orbit runs into a saddle, so errors grow along its unstable
        # direction: at rtol 1e-12 the tail reaches 6.6e-4 (scipy's RK45
        # agrees), so the accuracy is stated rather than left to the grid
        samples = integrate_coords(start, inertia, b, t_grid,
                                   rtol=1e-14, atol=1e-16)
        w1 = np.array([c.omega[0] for c in samples])
        assert np.all(w1 >= interval[0] - 1e-6)
        assert np.all(w1 <= interval[1] + 1e-6)
        # it collapses onto the limiting value instead of oscillating
        assert np.max(w1[len(w1) // 2 :]) < 1e-4
        # w_1 as the Omega_1_3 entry of body states, the observable that
        # detect_period reads on a trajectory
        states = [canonical_state([w, 0.0], [0.0, 0.0, 1.0]) for w in w1]
        traj = states_trajectory(t_grid, states)
        assert detect_period(traj, lambda s: s.omega.mat[0, 2]) is None
