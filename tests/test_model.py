import ast
import functools
import inspect
import operator
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import canonical_state, random_canonical_state, random_skew, random_unit, state_from_vec3
from suslov.algebra import ConstraintSet, SkewMatrix, layout, skew_to_vector, vector_to_skew
from suslov.cases import CaseKind, CaseSpec, build_field
from suslov.cli import DGJ_FUNCTIONS
from suslov.model import (
    _E3,
    BodyState,
    Potential,
    _reduced_rates,
    CustomPotential,
    DGJPotential,
    LinearPotential,
    MassTensor,
    QuadraticPotential,
    ZeroPotential,
    _central_differences,
    check_gradient,
    divergence_fd,
    energy,
    general_field,
    lagrange_full_field,
    multipliers,
    packed_reduced_field,
    packed_suslov3d_field,
    vector_field_3d,
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

    def test_zero_potential_values_a_block(self):
        # the block contract of Potential: one value per row, over the
        # leading axes, so the block gradient check takes the zero potential
        pot = ZeroPotential()
        assert pot.value(np.ones(3)) == 0.0
        assert same_bits(pot.value(np.ones((4, 3))), np.zeros(4))
        assert pot.value(np.ones((2, 5, 3))).shape == (2, 5)
        check_gradient(pot, 4)

    def test_gradient_check_values_each_draw_once(self):
        calls = []

        class Counted(QuadraticPotential):
            def value(self, gamma):
                calls.append(np.shape(gamma))
                return super().value(gamma)

        check_gradient(Counted([0.3, -1.0, 2.0, 0.5]), 4)
        assert calls == [(8, 4)] * 5  # the 2n perturbed points of each draw


def _point_gradient_cases(n, rng):
    """Every potential class in dimension ``n``; DGJ exists for n = 3 only
    (with the CLI's fixtures, which return floats for floats)."""
    pots = {
        "zero": ZeroPotential(),
        "linear": LinearPotential(rng.normal(size=n)),
        "quadratic": QuadraticPotential(rng.normal(size=n)),
        "custom": cubic_potential(n),
    }
    if n == 3:
        for a, b in (("sin", "quadratic"), ("cos", "sin")):
            pots[f"dgj_{a}_{b}"] = DGJPotential(*DGJ_FUNCTIONS[a], *DGJ_FUNCTIONS[b])
    return pots


class TestPointGradient:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_floats_have_the_bits_of_the_array_gradient(self, n):
        rng = np.random.default_rng(70 + n)
        points = rng.normal(size=(1000, n))
        points[::7] /= np.linalg.norm(points[::7], axis=1)[:, None]
        for name, pot in _point_gradient_cases(n, rng).items():
            for g in points.tolist():
                got = pot._point_gradient(g)
                assert all(type(v) is float for v in got), name
                assert same_bits(got, pot.gradient(np.array(g)).tolist()), name

    def test_constant_gradients_are_built_once(self):
        lin = LinearPotential([0.4, -0.7, 0.2])
        assert lin._point_gradient([0.1, 0.2, 0.3]) is lin._point_gradient([0.0] * 3)
        assert isinstance(lin._point_gradient([0.0] * 3), tuple)
        assert ZeroPotential()._point_gradient([0.5] * 4) == (0.0,) * 4

    @pytest.mark.parametrize("cls", [LinearPotential, QuadraticPotential])
    def test_coefficients_cannot_go_stale(self, cls):
        # the float gradient is built from the coefficients once, so they
        # are a read-only copy; the caller's array stays writable
        b = np.array([0.4, -0.7, 0.2])
        pot = cls(b)
        assert not np.shares_memory(pot.b, b) and b.flags.writeable
        with pytest.raises(ValueError):
            pot.b[0] = 1.0


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
        om_dot, _ = general_field(inertia, pot, constraints)(state)
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
            om_dot, _ = general_field(inertia, pot, constraints)(state)
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
            od_g, gd_g = general_field(inertia, pot, constraints)(state)
            assert np.allclose(od_r.mat, od_g.mat, atol=1e-12)
            assert np.allclose(gd_r, gd_g, atol=1e-12)

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
            od_g, gd_g = general_field(inertia, pot, constraints)(state)
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


def numpy_field_3d(omega, gamma, j, potential, gyro_eps=0.0, axis=None):
    """Oracle: ``vector_field_3d`` as numpy operations on 3-vectors, with
    ``np.cross`` and ``np.dot`` (BLAS ``ddot``, which fuses each product into
    its running sum)."""
    a = np.array([0.0, 0.0, 1.0]) if axis is None else np.asarray(axis, dtype=float)
    gamma_dot = np.cross(gamma, omega)
    k = np.cross(j * omega, omega) + np.cross(gamma, potential.gradient(gamma))
    if gyro_eps != 0.0:
        k = k + gyro_eps * gamma_dot
    lam = -np.dot(a, k / j) / np.dot(a, a / j)
    return (k + lam * a) / j, gamma_dot


def parent_packed_field_3d(x, j, axis, potential, gyro_eps, u, v):
    """Oracle: ``packed_suslov3d_field``'s field at one point as it was
    before it took blocks, with ``np.dot`` projections onto ``u`` and ``v``."""
    omega = x[0] * u + x[1] * v
    omega_dot, gamma_dot = vector_field_3d(omega, x[2:], j, potential, gyro_eps,
                                           axis)
    return np.concatenate([[np.dot(omega_dot, u), np.dot(omega_dot, v)],
                           gamma_dot])


def loop_divergence(f, x, h_fd):
    """Oracle: ``divergence_fd`` at one point as it was before it took
    blocks, one pair of field calls per coordinate."""
    total = 0.0
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h_fd
        total += (f(x + e)[i] - f(x - e)[i]) / (2.0 * h_fd)
    return float(total)


def dgj_gradient_on_numpy_scalars(pot, gamma):
    """Oracle: ``DGJPotential.gradient`` on the numpy scalars of ``gamma``."""
    g1, g2, g3 = np.asarray(gamma, dtype=float)
    d1x, d1y = pot.v1_grad(g1, g2 * g2 + g3 * g3)
    d2x, d2y = pot.v2_grad(g2, g1 * g1 + g3 * g3)
    return np.array(
        [d1x + 2.0 * g1 * d2y, 2.0 * g2 * d1y + d2x, 2.0 * g3 * (d1y + d2y)]
    )


# the DGJ3D scenario's potential: the CLI's sin and quadratic fixtures
_DGJ = DGJPotential(*DGJ_FUNCTIONS["sin"], *DGJ_FUNCTIONS["quadratic"])
_VEC3 = arrays(np.float64, 3, elements=st.floats(-10.0, 10.0))
_UNIT3 = arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)).filter(
    lambda v: np.linalg.norm(v) > 0.1
).map(lambda v: v / np.linalg.norm(v))
_MOMENTS = arrays(np.float64, 3, elements=st.floats(0.1, 10.0))
_COEFFS = arrays(np.float64, 3, elements=st.floats(-5.0, 5.0))
_POTENTIALS = {
    "zero": st.just(ZeroPotential()),
    "linear": _COEFFS.map(LinearPotential),
    "quadratic": _COEFFS.map(QuadraticPotential),
    "dgj": st.just(_DGJ),
}


class TestFloatField3d:
    """``vector_field_3d`` on Python floats against the numpy form.

    With e3 the zeros make both pairings with the axis exact, so every bit
    agrees.  A custom axis sums three products left to right where ``ddot``
    fuses them, so ``<a, J^-1 k>`` and ``<a, J^-1 a>`` may each move by about
    3 eps of the sum of their terms' magnitudes; with ``S = sum |a_m k_m /
    j_m|`` that moves lambda by at most ``6 eps S / den``, and component i
    of ``w'`` by at most ``8 eps (|k_i| + |a_i| S / den) / j_i`` once its
    last two roundings are counted.  ``G'`` never involves the axis.
    """

    @pytest.mark.parametrize("gyro", [False, True], ids=["eps0", "eps"])
    @pytest.mark.parametrize("kind", list(_POTENTIALS))
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_numpy_form(self, kind, gyro, data):
        w, gamma, j = data.draw(_VEC3), data.draw(_VEC3), data.draw(_MOMENTS)
        pot = data.draw(_POTENTIALS[kind])
        eps = data.draw(st.floats(-2.0, 2.0).filter(bool)) if gyro else 0.0
        for axis in (None, _E3):
            wd, gd = vector_field_3d(w, gamma, j, pot, eps, axis)
            wd_o, gd_o = numpy_field_3d(w, gamma, j, pot, eps, axis)
            assert same_bits(wd, wd_o) and same_bits(gd, gd_o)
        a = data.draw(_UNIT3)
        wd, gd = vector_field_3d(w, gamma, j, pot, eps, a)
        wd_o, gd_o = numpy_field_3d(w, gamma, j, pot, eps, a)
        assert same_bits(gd, gd_o)
        k = np.cross(j * w, w) + np.cross(gamma, pot.gradient(gamma)) + eps * gd_o
        den = np.dot(a, a / j)
        terms = np.sum(np.abs(a * k / j))
        bound = 8.0 * np.finfo(float).eps * (np.abs(k) + np.abs(a) * terms / den) / j
        assert np.all(np.abs(wd - wd_o) <= bound)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(gamma=_VEC3)
    def test_dgj_gradient_keeps_its_bits(self, gamma):
        old = dgj_gradient_on_numpy_scalars(_DGJ, gamma)
        assert same_bits(_DGJ.gradient(gamma), old)

    @pytest.mark.parametrize(
        "j", [[0.0, 2.0, 3.0], [1.0, -2.0, 3.0], [1.0, 2.0, np.nan],
              [np.inf, 2.0, 3.0]],
        ids=["zero", "negative", "nan", "inf"],
    )
    def test_invalid_moments_rejected(self, j):
        with pytest.raises(ValueError, match="positive and finite"):
            vector_field_3d([0.1, 0.2, 0.0], [0.0, 0.6, 0.8], j, ZeroPotential())

    @pytest.mark.parametrize("size", [2, 4])
    def test_gradient_of_wrong_length_rejected(self, size):
        class Flat(Potential):
            def gradient(self, gamma):
                return np.zeros(size)

        with pytest.raises(ValueError, match="expects 3-vectors"):
            vector_field_3d([0.1, 0.2, 0.0], [0.0, 0.6, 0.8], [1.0, 2.0, 3.0],
                            Flat())

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError, match="nonzero constraint axis"):
            vector_field_3d([0.1, 0.2, 0.0], [0.0, 0.6, 0.8], [1.0, 2.0, 3.0],
                            ZeroPotential(), axis=[0.0, 0.0, 0.0])

    @pytest.mark.parametrize(
        "axis", [[0.0, 0.0, 0.0], [np.nan, 0.0, 1.0], [np.inf, 0.0, 1.0],
                 [0.0, -np.inf, 1.0]],
        ids=["zero", "nan", "inf", "-inf"],
    )
    def test_invalid_axis_rejected_before_use(self, axis):
        with pytest.raises(ValueError, match="finite, nonzero constraint axis"):
            vector_field_3d([0.1, 0.2, 0.0], [0.0, 0.6, 0.8], [1.0, 2.0, 3.0],
                            ZeroPotential(), axis=axis)
        with np.errstate(all="raise"):  # rejected before it divides
            with pytest.raises(ValueError, match="finite, nonzero constraint axis"):
                packed_suslov3d_field([1.0, 2.0, 3.0], axis)


_CUSTOM = CustomPotential(lambda g: (float(g[0] * g[1] + g[2] ** 3),
                                     np.array([g[1], g[0], 3.0 * g[2] ** 2])), 3)
_BLOCK_POTENTIALS = dict(_POTENTIALS, custom=st.just(_CUSTOM))


class TestBlocks:
    """Potentials' gradients and the packed 3D field on blocks of points:
    each row has the bits of the point alone."""

    @pytest.mark.parametrize("kind", list(_BLOCK_POTENTIALS))
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_block_gradient_rows_equal_point_gradients(self, kind, data):
        pot = data.draw(_BLOCK_POTENTIALS[kind])
        lead = data.draw(st.sampled_from([(1,), (4,), (2, 3)]))
        block = data.draw(arrays(np.float64, lead + (3,),
                                 elements=st.floats(-10.0, 10.0)))
        grads = pot.gradient(block)
        assert grads.shape == block.shape
        for idx in np.ndindex(lead):
            assert same_bits(grads[idx], pot.gradient(block[idx]))

    @pytest.mark.parametrize("gyro", [False, True], ids=["eps0", "eps"])
    @pytest.mark.parametrize("axis", ["e3", "custom"])
    @pytest.mark.parametrize("kind", list(_POTENTIALS))
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_packed_3d_block_equals_points(self, kind, axis, gyro, data):
        pot = data.draw(_POTENTIALS[kind])
        j = data.draw(_MOMENTS)
        a = _E3 if axis == "e3" else data.draw(_UNIT3)
        eps = data.draw(st.floats(-2.0, 2.0).filter(bool)) if gyro else 0.0
        xs = data.draw(arrays(np.float64, (data.draw(st.integers(1, 6)), 5),
                              elements=st.floats(-10.0, 10.0)))
        f, dim, (u, v) = packed_suslov3d_field(j, a, pot, eps)
        block = f(xs)
        assert block.shape == xs.shape
        for x, row in zip(xs, block):
            point = f(x)
            assert same_bits(row, point)
            assert same_bits(point, parent_packed_field_3d(x, j, a / np.linalg.norm(a),
                                                           pot, eps, u, v))


def numpy_reduced_rates(col, gamma, pair, potential):
    """Oracle: the reduced equations as array operations on one point,
    ``(d/dt Omega_in, d/dt Gamma)``, with ``d/dt Gamma_n`` the products
    ``Gamma_i Omega_in`` summed left to right from 0.0."""
    grad = potential.gradient(gamma)
    gamma_dot = np.empty(gamma.size)
    gamma_dot[:-1] = -gamma[-1] * col
    gamma_dot[-1] = functools.reduce(operator.add, gamma[:-1] * col, 0.0)
    return (grad[:-1] * gamma[-1] - gamma[:-1] * grad[-1]) / pair, gamma_dot


def cubic_potential(n):
    """A custom potential coupling the first and last Gamma entries:
    ``V = sum_i c_i G_i^3 + G_1 G_n``."""
    c = np.linspace(0.5, -1.0, n)

    def fn(g):
        grad = 3.0 * c * g * g
        grad[0] += g[-1]
        grad[-1] += g[0]
        return float(np.sum(c * g ** 3) + g[0] * g[-1]), grad

    return CustomPotential(fn, n)


# potential -> (its draw, the canonical case kind that admits it, if any)
_REDUCED_POTENTIALS = {
    "linear": (lambda rng, n: LinearPotential(np.append(rng.normal(size=n - 1), 0.0)),
               CaseKind.KHARLAMOVA_ND),
    "quadratic": (lambda rng, n: QuadraticPotential(rng.normal(size=n)),
                  CaseKind.CLEBSCH_TISSERAND_ND),
    "zero": (lambda rng, n: ZeroPotential(), CaseKind.SUSLOV_FREE),
    "custom": (lambda rng, n: cubic_potential(n), None),
}


class TestReducedKernel:
    """``_reduced_rates`` on Python floats, the integration's canonical
    field, ``vector_field_reduced`` and the chart field on a block all give
    the bits of the array formula, at random canonical points."""

    @pytest.mark.parametrize("kind", list(_REDUCED_POTENTIALS))
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_every_caller_has_the_bits_of_the_array_formula(self, n, kind):
        rng = np.random.default_rng(100 * n + len(kind))
        inertia = MassTensor(diag=0.5 + 2.0 * rng.random(n))
        draw, case = _REDUCED_POTENTIALS[kind]
        pot = draw(rng, n)
        pair = inertia.diag[:-1] + inertia.diag[-1]
        # no canonical case takes a custom potential: its integration field
        # is never built, and the kernel and chart field are checked alone
        field = None if case is None else build_field(CaseSpec(case, n, inertia, pot))[0]
        chart, dim = packed_reduced_field(inertia, pot)
        lay = layout(n)
        xs = np.empty((1000, dim))
        xs[:, : n - 1] = rng.normal(size=(1000, n - 1))
        xs[:, n - 1 :] = [random_unit(rng, n) for _ in range(1000)]
        block = chart(xs)
        assert block.shape == xs.shape
        for x, row in zip(xs, block):
            col, gamma = x[: n - 1], x[n - 1 :]
            col_dot, gamma_dot = numpy_reduced_rates(col, gamma, pair, pot)
            expected = np.concatenate((col_dot, gamma_dot))
            rates, g_rates = _reduced_rates(col.tolist(), gamma.tolist(),
                                            pot.gradient(gamma).tolist(), pair.tolist())
            assert len(rates) == n - 1 and len(g_rates) == n
            assert same_bits(rates, col_dot) and same_bits(g_rates, gamma_dot)
            assert same_bits(row, expected) and same_bits(chart(x), expected)
            if field is not None:
                y = np.zeros(lay.k + n)
                y[lay.column], y[lay.k :] = col, gamma
                ydot = field(y)
                assert same_bits(ydot[lay.column], col_dot)
                assert same_bits(ydot[lay.k :], gamma_dot)
                assert not np.any(np.delete(ydot[: lay.k], lay.column))
            state = canonical_state(col, gamma)
            om_dot, g_dot = vector_field_reduced(state, inertia, pot)
            assert same_bits(om_dot.mat[: n - 1, n - 1], col_dot)
            assert same_bits(g_dot, gamma_dot)


SRC = Path(__file__).resolve().parents[1] / "src" / "suslov"


def test_each_kernel_is_called_only_by_its_field():
    # one adapter per kernel: every other form is a coordinate map around
    # the field, and cases.py neither imports a kernel or a check nor
    # defines a field of its own
    callers = {}
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    callers.setdefault(node.func.id, set()).add(
                        (path.name, getattr(top, "name", None)))
    assert callers["_reduced_rates"] == {("model.py", "_reduced_field")}
    assert callers["_field_3d"] == {("model.py", "_vector3d_field")}
    assert callers["_checked_3d"] == {("model.py", "_vector3d_field")}
    assert "_gradient_3d" not in callers
    cases = ast.parse((SRC / "cases.py").read_text())
    imported = {alias.name for node in ast.walk(cases)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"_reduced_rates", "_field_3d", "_checked_3d", "_gradient_3d"}
    build = next(node for node in cases.body
                 if isinstance(node, ast.FunctionDef) and node.name == "build_field")
    assert not [node for stmt in build.body for node in ast.walk(stmt)
                if isinstance(node, (ast.FunctionDef, ast.Lambda))]


@pytest.mark.parametrize("n", [2, 3, 5])
def test_reduced_forms_at_every_n(n):
    # the per-state form and the chart reach the kernel through one field,
    # at n = 2 too, where the Omega_in column is one slot
    rng = np.random.default_rng(40 + n)
    inertia = MassTensor(diag=0.5 + 2.0 * rng.random(n))
    pot = QuadraticPotential(rng.normal(size=n))
    col, gamma = rng.normal(size=n - 1), random_unit(rng, n)
    pair = inertia.diag[:-1] + inertia.diag[-1]
    col_dot, gamma_dot = numpy_reduced_rates(col, gamma, pair, pot)
    om_dot, g_dot = vector_field_reduced(canonical_state(col, gamma), inertia, pot)
    assert same_bits(om_dot.mat[: n - 1, n - 1], col_dot) and same_bits(g_dot, gamma_dot)
    assert np.array_equal(om_dot.mat[: n - 1, : n - 1], np.zeros((n - 1, n - 1)))
    chart, dim = packed_reduced_field(inertia, pot)
    assert same_bits(chart(np.concatenate((col, gamma))),
                     np.concatenate((col_dot, gamma_dot)))


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
            return x @ mat.T

        d = divergence_fd(f, np.array([0.3, -0.5, 0.9]))
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
                assert abs(divergence_fd(f, x)) < 1e-6

    def test_non_eigenvector_free_case_has_divergence(self):
        rng = np.random.default_rng(14)
        j = np.array([1.0, 2.0, 3.0])
        axis = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        f, dim, _ = packed_suslov3d_field(j, axis)
        hits = 0
        for _ in range(20):
            x = rng.normal(size=dim)
            if abs(divergence_fd(f, x)) > 1e-3:
                hits += 1
        assert hits >= 18  # generic states show a clearly nonzero divergence

    @pytest.mark.parametrize("chart", ["reduced", "suslov3d", "cubic"])
    def test_block_equals_points(self, chart):
        # the chart fields' diagonal terms are mostly exact zeros; the cubic
        # field's are not, so it pins the order of the sum
        rng = np.random.default_rng(21)
        if chart == "reduced":
            f, dim = packed_reduced_field(MassTensor(diag=[1.0, 2.0, 1.5, 0.7]),
                                          QuadraticPotential([0.3, -1.0, 2.0, 0.5]))
        elif chart == "suslov3d":
            f, dim, _ = packed_suslov3d_field([3.4, 2.4, 3.0], [1.0, 2.0, -0.5],
                                              _DGJ, 0.7)
        else:
            dim, c = 6, rng.normal(size=6)

            def f(x):
                return c * x * x * x
        xs = rng.normal(size=(25, dim))
        divs = divergence_fd(f, xs)
        assert divs.shape == (25,)
        for x, d in zip(xs, divs):
            point = divergence_fd(f, x)
            assert isinstance(point, float)
            assert same_bits(d, point) and same_bits(point, loop_divergence(f, x, 1e-5))

    def test_step_is_fixed(self):
        assert list(inspect.signature(divergence_fd).parameters) == ["f", "x"]

    def test_central_differences_of_points_blocks_and_slots(self):
        rng = np.random.default_rng(22)
        c = rng.normal(size=5)

        def f(x):
            return np.stack((np.sum(c * x**3, axis=-1), x[..., 0] * x[..., 4]), axis=-1)

        xs = rng.normal(size=(6, 5))
        full = _central_differences(f, xs, 1e-5)
        assert full.shape == (6, 5, 2)
        exact = np.stack((3.0 * c * xs**2, np.zeros_like(xs)), axis=-1)
        exact[:, 0, 1], exact[:, 4, 1] = xs[:, 4], xs[:, 0]
        assert np.allclose(full, exact, rtol=1e-8, atol=1e-8)
        slots = np.array([4, 1])
        for x, row in zip(xs, full):
            assert same_bits(_central_differences(f, x, 1e-5), row)
            assert same_bits(_central_differences(f, x, 1e-5, slots), row[slots])

    @pytest.mark.parametrize("shape", [(), (2, 2, 3)], ids=["0d", "3d"])
    def test_point_or_block_only(self, shape):
        with pytest.raises(ValueError, match=r"shape \(dim,\) or \(m, dim\)"):
            divergence_fd(lambda x: x, np.zeros(shape))
