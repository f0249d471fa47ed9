import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import canonical_state, random_canonical_state, random_skew, random_unit, state_from_vec3
from suslov.algebra import ConstraintSet, SkewMatrix, skew_to_vector, vector_to_skew
from suslov.model import (
    BodyState,
    _cross,
    CustomPotential,
    DGJPotential,
    LinearPotential,
    MassTensor,
    QuadraticPotential,
    ZeroPotential,
    divergence_fd,
    energy,
    general_field,
    lagrange_full_field,
    multipliers,
    packed_reduced_field,
    packed_suslov3d_field,
    vector_field_3d,
    vector_field_general,
    vector_field_reduced,
)


def componentwise_3d(omega, gamma, j, grad, gyro_eps=0.0, a=(0.0, 0.0, 1.0)):
    """Oracle: the classical equations written out entry by entry.

    J1 w1' = (J2 - J3) w2 w3 + (G2 dV3 - G3 dV2) + eps (G2 w3 - G3 w2) + l a1
    and cyclic; G' = G x w; lambda from <a, w'> = 0.
    """
    w1, w2, w3 = omega
    g1, g2, g3 = gamma
    d1, d2, d3 = grad
    j1, j2, j3 = j
    a = np.asarray(a, dtype=float)
    k = np.array(
        [
            (j2 - j3) * w2 * w3 + (g2 * d3 - g3 * d2) + gyro_eps * (g2 * w3 - g3 * w2),
            (j3 - j1) * w3 * w1 + (g3 * d1 - g1 * d3) + gyro_eps * (g3 * w1 - g1 * w3),
            (j1 - j2) * w1 * w2 + (g1 * d2 - g2 * d1) + gyro_eps * (g1 * w2 - g2 * w1),
        ]
    )
    lam = -np.dot(a, k / j) / np.dot(a, a / j)
    wdot = (k + lam * a) / j
    gdot = np.array(
        [g2 * w3 - g3 * w2, g3 * w1 - g1 * w3, g1 * w2 - g2 * w1]
    )
    return wdot, gdot


class TestMassTensor:
    def test_identity_doubles(self):
        rng = np.random.default_rng(0)
        inertia = MassTensor(diag=np.ones(4))
        om = random_skew(rng, 4)
        assert np.allclose(inertia.apply(om).mat, 2.0 * om.mat)

    def test_diagonal_pair_sums(self):
        inertia = MassTensor(diag=[1.0, 2.0, 3.0])
        om = SkewMatrix.basis(3, 0, 1)
        assert inertia.apply(om).entry(0, 1) == pytest.approx(3.0)
        m = SkewMatrix.from_entries(3, [(0, 2, 4.0)])
        assert inertia.invert(m).entry(0, 2) == pytest.approx(1.0)

    def test_invert_zero(self):
        inertia = MassTensor(diag=[1.0, 2.0, 3.0])
        assert np.allclose(inertia.invert(SkewMatrix.zeros(3)).mat, 0.0)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_round_trip_diagonal(self, n):
        rng = np.random.default_rng(n)
        inertia = MassTensor(diag=0.5 + rng.random(n) * 2.0)
        for _ in range(10):
            om = random_skew(rng, n)
            back = inertia.invert(inertia.apply(om))
            assert np.allclose(back.mat, om.mat, atol=1e-13)

    def test_round_trip_full_symmetric(self):
        rng = np.random.default_rng(7)
        base = rng.normal(size=(4, 4))
        matrix = base @ base.T + 4.0 * np.eye(4)
        inertia = MassTensor(matrix=matrix)
        for _ in range(10):
            om = random_skew(rng, 4)
            back = inertia.invert(inertia.apply(om))
            assert np.allclose(back.mat, om.mat, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            MassTensor(diag=[1.0, -1.0, 2.0])
        with pytest.raises(ValueError, match="symmetric"):
            MassTensor(matrix=[[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            MassTensor(diag=[1.0, 2.0], matrix=np.eye(2))


class TestPotentials:
    def test_linear_and_quadratic_values(self):
        gamma = np.array([0.2, -0.3, 0.5])
        lin = LinearPotential([1.0, 2.0, 3.0])
        assert lin.value(gamma) == pytest.approx(0.2 - 0.6 + 1.5)
        quad = QuadraticPotential([1.0, 2.0, 3.0])
        assert quad.value(gamma) == pytest.approx(
            0.5 * (0.04 + 2 * 0.09 + 3 * 0.25)
        )
        assert np.allclose(quad.gradient(gamma), [0.2, -0.6, 1.5])

    def test_dgj_gradient_checked(self):
        pot = DGJPotential(
            lambda x, y: np.sin(x) + 0.5 * y,
            lambda x, y: (np.cos(x), 0.5),
            lambda x, y: 0.5 * x * x + 0.25 * y * y,
            lambda x, y: (x, 0.5 * y),
        )
        gamma = np.array([0.3, -0.4, np.sqrt(1 - 0.25)])
        # finite-difference cross-check of the assembled ambient gradient
        h = 1e-7
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (pot.value(gamma + e) - pot.value(gamma - e)) / (2 * h)
            assert pot.gradient(gamma)[i] == pytest.approx(fd, abs=1e-6)

    def test_bad_gradient_rejected(self):
        with pytest.raises(ValueError, match="finite differences"):
            DGJPotential(
                lambda x, y: np.sin(x),
                lambda x, y: (np.cos(x) + 0.1, 0.0),  # wrong on purpose
                lambda x, y: 0.0,
                lambda x, y: (0.0, 0.0),
            )
        with pytest.raises(ValueError, match="finite differences"):
            CustomPotential(lambda g: (float(np.sum(g**2)), np.ones(4)), 4)


class TestMultipliers:
    def test_lagrange_multiplier_vanishes(self):
        # eigenvector constraint, symmetric moments, vertical potential
        inertia = MassTensor(diag=[1.0, 1.0, 2.5])
        pot = LinearPotential([0.0, 0.0, 1.3])
        constraints = ConstraintSet.single_3d([0.0, 0.0, 1.0])
        rng = np.random.default_rng(1)
        for _ in range(20):
            state = state_from_vec3(
                np.append(rng.normal(size=2), 0.0), random_unit(rng, 3)
            )
            lam = multipliers(state, inertia, pot, constraints)
            assert abs(lam[0]) < 1e-12

    def test_tangent_torque_needs_no_reaction(self):
        # admissible state whose unconstrained derivative is already tangent
        inertia = MassTensor(diag=[1.0, 1.0, 1.0, 3.0])
        pot = ZeroPotential()
        constraints = ConstraintSet.canonical_suslov(4)
        rng = np.random.default_rng(2)
        state = random_canonical_state(rng, 4)
        # equal head moments: [M, Omega] = (I1+In)[Omega, Omega] = 0 in the block
        lam = multipliers(state, inertia, pot, constraints)
        k_dir = inertia.invert(SkewMatrix.zeros(4))
        assert np.allclose(k_dir.mat, 0.0)
        # reaction may be nonzero only to cancel the so(n-1) leak; verify the
        # defining property instead of the raw values below
        om_dot, _ = vector_field_general(state, inertia, pot, constraints)
        assert constraints.residual(om_dot) < 1e-12

    def test_constraint_derivative_vanishes_generic_3d(self):
        rng = np.random.default_rng(3)
        inertia = MassTensor(diag=[1.0, 2.0, 3.0])
        pot = LinearPotential([0.4, -0.2, 0.7])
        axis = random_unit(rng, 3)
        constraints = ConstraintSet([vector_to_skew(axis)])
        for _ in range(20):
            w = rng.normal(size=3)
            w -= np.dot(w, axis) * axis  # admissible velocity
            state = state_from_vec3(w, random_unit(rng, 3))
            om_dot, _ = vector_field_general(state, inertia, pot, constraints)
            assert constraints.residual(om_dot) < 1e-12

    def test_singular_gram_raises(self):
        inertia = MassTensor(diag=[1.0, 2.0, 3.0, 4.0])
        pot = ZeroPotential()
        constraints = ConstraintSet.canonical_suslov(4)
        state = random_canonical_state(np.random.default_rng(0), 4)
        lam = multipliers(state, inertia, pot, constraints)
        assert lam.shape == (3,)


class TestFieldEquivalence:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_reduced_equals_general(self, n):
        rng = np.random.default_rng(n * 11)
        inertia = MassTensor(diag=0.5 + rng.random(n) * 2.0)
        pot = QuadraticPotential(rng.normal(size=n))
        constraints = ConstraintSet.canonical_suslov(n)
        for _ in range(50):
            state = random_canonical_state(rng, n)
            od_r, gd_r = vector_field_reduced(state, inertia, pot)
            od_g, gd_g = vector_field_general(state, inertia, pot, constraints)
            assert np.allclose(od_r.mat, od_g.mat, atol=1e-12)
            assert np.allclose(gd_r, gd_g, atol=1e-12)

    def test_general_field_factory_matches_function(self):
        rng = np.random.default_rng(5)
        inertia = MassTensor(diag=[1.0, 2.0, 3.0])
        pot = LinearPotential([0.3, 0.0, -0.8])
        constraints = ConstraintSet.single_3d(random_unit(rng, 3))
        fast = general_field(inertia, pot, constraints)
        for _ in range(20):
            w = rng.normal(size=3)
            state = state_from_vec3(w, random_unit(rng, 3))
            od1, gd1 = vector_field_general(state, inertia, pot, constraints)
            od2, gd2 = fast(state)
            assert np.allclose(od1.mat, od2.mat, atol=1e-14)
            assert np.allclose(gd1, gd2, atol=1e-14)

    def test_3d_field_matches_general_under_isomorphism(self):
        rng = np.random.default_rng(6)
        diag = np.array([1.0, 2.0, 1.5])
        inertia = MassTensor(diag=diag)
        j = np.array([diag[1] + diag[2], diag[0] + diag[2], diag[0] + diag[1]])
        pot = QuadraticPotential(rng.normal(size=3))
        constraints = ConstraintSet.single_3d([0.0, 0.0, 1.0])
        for _ in range(100):
            w = rng.normal(size=3)
            gamma = random_unit(rng, 3)
            state = state_from_vec3(w, gamma)
            od_g, gd_g = vector_field_general(state, inertia, pot, constraints)
            wd, gd = vector_field_3d(w, gamma, j, pot)
            assert np.allclose(skew_to_vector(od_g), wd, atol=1e-12)
            assert np.allclose(gd_g, gd, atol=1e-12)

    def test_3d_free_eigenvector_case_freezes_velocity(self):
        # V = 0, diagonal moments, constraint along e3: the admissible
        # velocity plane sees no torque at all
        rng = np.random.default_rng(17)
        j = np.array([1.0, 2.0, 3.0])
        for _ in range(20):
            w = np.append(rng.normal(size=2), 0.0)
            wd, _ = vector_field_3d(w, random_unit(rng, 3), j, ZeroPotential())
            assert np.allclose(wd, 0.0, atol=1e-15)

    def test_3d_matches_componentwise_oracle(self):
        rng = np.random.default_rng(7)
        j = np.array([1.0, 2.0, 3.0])
        pot = QuadraticPotential([0.5, -0.2, 0.9])
        a = random_unit(rng, 3)
        for _ in range(50):
            w = rng.normal(size=3)
            gamma = random_unit(rng, 3)
            wd, gd = vector_field_3d(w, gamma, j, pot, gyro_eps=0.4, axis=a)
            wd_o, gd_o = componentwise_3d(
                w, gamma, j, pot.gradient(gamma), gyro_eps=0.4, a=a
            )
            assert np.allclose(wd, wd_o, atol=1e-13)
            assert np.allclose(gd, gd_o, atol=1e-13)


def same_bits(x, y):
    """Equal shapes and identical IEEE bit patterns, with any NaN matching
    any NaN (payloads are not part of the arithmetic contract)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape or not np.array_equal(np.isnan(x), np.isnan(y)):
        return False
    keep = ~np.isnan(x)
    return np.array_equal(x[keep].view(np.uint64), y[keep].view(np.uint64))


class TestCross:
    @given(
        arrays(np.float64, 3, elements=st.floats(allow_nan=True, allow_infinity=True)),
        arrays(np.float64, 3, elements=st.floats(allow_nan=True, allow_infinity=True)),
    )
    def test_bit_identical_to_numpy(self, x, y):
        with np.errstate(all="ignore"):
            assert same_bits(_cross(x, y), np.cross(x, y))

    @pytest.mark.parametrize(
        "x, y",
        [
            ([0.0, 0.0, 0.0], [1.0, 2.0, 3.0]),
            ([-0.0, 0.0, -0.0], [0.0, -0.0, 0.0]),
            ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
            ([1e308, -1e308, 1e308], [1e308, 1e308, -1e308]),
            ([5e-324, 1e-310, -5e-324], [1e-310, -5e-324, 1e-310]),
            ([np.inf, 1.0, 0.0], [0.0, 1.0, np.inf]),
            ([np.nan, 1.0, 2.0], [3.0, 4.0, 5.0]),
        ],
    )
    def test_edge_cases(self, x, y):
        x, y = np.array(x), np.array(y)
        with np.errstate(all="ignore"):
            assert same_bits(_cross(x, y), np.cross(x, y))


class TestBodyState:
    def test_wrap_matches_validated_constructor(self):
        rng = np.random.default_rng(3)
        omega = random_skew(rng, 4)
        gamma = random_unit(rng, 4)
        checked = BodyState(omega, gamma)
        wrapped = BodyState._wrap(omega, gamma.copy())
        assert wrapped.omega is omega
        assert np.array_equal(wrapped.gamma, checked.gamma)
        assert wrapped.n == checked.n
        assert not wrapped.gamma.flags.writeable
        with pytest.raises(ValueError):
            wrapped.gamma[0] = 1.0
        with pytest.raises(AttributeError):
            wrapped.gamma = gamma


class TestReducedField:
    def test_zero_potential_freezes_omega(self):
        rng = np.random.default_rng(8)
        inertia = MassTensor(diag=[1.0, 2.0, 3.0, 4.0])
        state = random_canonical_state(rng, 4)
        om_dot, _ = vector_field_reduced(state, inertia, ZeroPotential())
        assert np.allclose(om_dot.mat, 0.0)

    def test_vertical_linear_potential_rows(self):
        inertia = MassTensor(diag=[1.0, 2.0, 3.0, 4.0])
        b_n = 1.7
        pot = LinearPotential([0.0, 0.0, 0.0, b_n])
        rng = np.random.default_rng(9)
        state = random_canonical_state(rng, 4)
        om_dot, _ = vector_field_reduced(state, inertia, pot)
        pair = inertia.diag[:3] + inertia.diag[3]
        expect = -b_n * state.gamma[:3] / pair
        assert np.allclose(om_dot.mat[:3, 3], expect)

    def test_gamma_dot_orthogonal_to_gamma(self):
        rng = np.random.default_rng(10)
        inertia = MassTensor(diag=[1.0, 2.0, 3.0, 4.0, 5.0])
        pot = QuadraticPotential(rng.normal(size=5))
        for _ in range(20):
            state = random_canonical_state(rng, 5)
            _, gd = vector_field_reduced(state, inertia, pot)
            assert abs(np.dot(gd, state.gamma)) < 1e-12

    def test_full_tensor_rejected(self):
        base = np.eye(3) + 0.1
        inertia = MassTensor(matrix=base)
        state = random_canonical_state(np.random.default_rng(0), 3)
        with pytest.raises(ValueError, match="general"):
            vector_field_reduced(state, inertia, ZeroPotential())


class TestLagrangeFullField:
    def test_small_block_derivative_vanishes(self):
        rng = np.random.default_rng(11)
        inertia = MassTensor(diag=[2.0, 2.0, 2.0, 1.0])
        state = BodyState(random_skew(rng, 4), random_unit(rng, 4))
        om_dot, _ = lagrange_full_field(state, inertia, 1.3)
        assert np.allclose(om_dot.mat[:3, :3], 0.0, atol=1e-14)

    def test_reduces_to_reduced_field_on_block_zero(self):
        rng = np.random.default_rng(12)
        inertia = MassTensor(diag=[2.0, 2.0, 2.0, 1.0])
        b_n = 0.9
        pot = LinearPotential([0.0, 0.0, 0.0, b_n])
        for _ in range(20):
            state = random_canonical_state(rng, 4)
            od_full, gd_full = lagrange_full_field(state, inertia, b_n)
            od_red, gd_red = vector_field_reduced(state, inertia, pot)
            assert np.allclose(od_full.mat, od_red.mat, atol=1e-13)
            assert np.allclose(gd_full, gd_red, atol=1e-13)

    def test_asymmetric_tensor_rejected(self):
        inertia = MassTensor(diag=[1.0, 2.0, 3.0, 4.0])
        state = random_canonical_state(np.random.default_rng(0), 4)
        with pytest.raises(ValueError, match="I1"):
            lagrange_full_field(state, inertia, 1.0)


class TestEnergy:
    def test_zero_state(self):
        inertia = MassTensor(diag=[1.0, 2.0, 3.0])
        state = BodyState(SkewMatrix.zeros(3), np.array([0.0, 0.0, 1.0]))
        assert energy(state, inertia, ZeroPotential()) == 0.0

    def test_direct_value(self):
        inertia = MassTensor(diag=[1.0, 2.0, 3.0])
        state = canonical_state([1.0, 0.0], [0.0, 0.0, 1.0])
        assert energy(state, inertia, ZeroPotential()) == pytest.approx(2.0)

    def test_canonical_formula(self):
        rng = np.random.default_rng(13)
        inertia = MassTensor(diag=0.5 + rng.random(5))
        pot = QuadraticPotential(rng.normal(size=5))
        for _ in range(10):
            state = random_canonical_state(rng, 5)
            col = state.omega.mat[:4, 4]
            pair = inertia.diag[:4] + inertia.diag[4]
            direct = 0.5 * np.sum(pair * col**2) + pot.value(state.gamma)
            assert energy(state, inertia, pot) == pytest.approx(direct, rel=1e-13)


class TestDivergence:
    def test_linear_field_calibration(self):
        mat = np.array([[0.5, 1.0, 0.0], [0.0, -1.2, 2.0], [3.0, 0.0, 0.7]])

        def f(x):
            return mat @ x

        d = divergence_fd(f, np.array([0.3, -0.5, 0.9]), 1e-5)
        assert d == pytest.approx(np.trace(mat), abs=1e-8)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_reduced_field_is_divergence_free(self, n):
        rng = np.random.default_rng(n * 5)
        inertia = MassTensor(diag=0.5 + rng.random(n) * 2.0)
        for pot in (
            ZeroPotential(),
            LinearPotential(rng.normal(size=n)),
            QuadraticPotential(rng.normal(size=n)),
        ):
            f, dim = packed_reduced_field(inertia, pot)
            for _ in range(30):
                x = rng.normal(size=dim)
                assert abs(divergence_fd(f, x, 1e-5)) < 1e-6

    def test_non_eigenvector_free_case_has_divergence(self):
        rng = np.random.default_rng(14)
        j = np.array([1.0, 2.0, 3.0])
        axis = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        f, dim, _ = packed_suslov3d_field(j, axis)
        hits = 0
        for _ in range(20):
            x = rng.normal(size=dim)
            if abs(divergence_fd(f, x, 1e-5)) > 1e-3:
                hits += 1
        assert hits >= 18  # generic states show a clearly nonzero divergence
