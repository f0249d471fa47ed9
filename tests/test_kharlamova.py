import math

import numpy as np
import pytest

from conftest import random_canonical_state
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
    _gauss_legendre,
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

    def f(t, y):
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

    def test_degenerate_interval_rejected(self):
        poly = QuarticPolynomial(np.array([1.0, 0.0, -1.0, 0.0, 0.0]), 0.0, 1.0)
        with pytest.raises(ValueError, match="equilibrium"):
            period(poly, (1.0, 1.0))

    @pytest.mark.parametrize("m", [64, 128, 1024])
    def test_cached_rule_is_read_only_leggauss(self, m):
        x, w = _gauss_legendre(m)
        x_ref, w_ref = np.polynomial.legendre.leggauss(m)
        assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)
        assert not x.flags.writeable and not w.flags.writeable
        assert _gauss_legendre(m)[0] is x

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
        from suslov.integrate import Trajectory, detect_period

        t_typical = 6.0  # scale of nearby periodic orbits for these params
        t_grid = np.linspace(0.0, 10.0 * t_typical, 4001)
        samples = integrate_coords(start, inertia, b, t_grid)
        w1 = np.array([c.omega[0] for c in samples])
        assert np.all(w1 >= interval[0] - 1e-6)
        assert np.all(w1 <= interval[1] + 1e-6)
        # it collapses onto the limiting value instead of oscillating
        assert np.max(w1[len(w1) // 2 :]) < 1e-4
        traj = Trajectory(times=t_grid, states=list(w1), aux={})
        assert detect_period(traj, lambda w: w) is None
