import numpy as np
import pytest

from conftest import canonical_state, random_canonical_state, states_trajectory
from suslov.cases import CaseKind, CaseSpec, build_field, first_integrals, jacobian_rank
from suslov.clebsch import (
    Classification,
    angle_coords,
    energy_offset_constant,
    frequencies,
    integrals_f,
    rotation_numbers,
    torus_classify,
    torus_spec,
)
from suslov.integrate import (
    IntegratorConfig,
    integrate,
    reparametrize,
)
from suslov.model import MassTensor, QuadraticPotential, energy, pack_state


def make_case(n=3, seed=0, margin=1.0):
    rng = np.random.default_rng(seed)
    inertia = MassTensor(diag=1.0 + 2.0 * rng.random(n))
    b = np.sort(1.0 + 3.0 * rng.random(n))[::-1].copy()
    b[-1] = b[-1] - margin  # enforce a clear positive gap
    pot = QuadraticPotential(b)
    spec = CaseSpec(CaseKind.CLEBSCH_TISSERAND_ND, n, inertia, pot)
    return inertia, b, spec, rng


def state_inside_tori(rng, inertia, b, fill=0.5):
    """Initial state with sum c_i / gap_i = fill < 1 (disjoint-tori regime)."""
    n = inertia.n
    gap = b[: n - 1] - b[n - 1]
    pair = inertia.diag[: n - 1] + inertia.diag[n - 1]
    weights = rng.random(n - 1) + 0.2
    weights = fill * weights / np.sum(weights)  # c_i / gap_i
    c = weights * gap
    phase = rng.uniform(-np.pi, np.pi, size=n - 1)
    col = np.sqrt(c / pair) * np.sin(phase)
    g_head = np.sqrt(c / gap) * np.cos(phase)
    g_n = np.sqrt(1.0 - np.sum(g_head**2))
    return canonical_state(col, np.append(g_head, g_n))


class TestIntegralsF:
    def test_rest_at_pole(self):
        inertia, b, spec, _ = make_case(4, seed=1)
        state = canonical_state(np.zeros(3), np.array([0.0, 0.0, 0.0, 1.0]))
        assert np.allclose(integrals_f(state, inertia, b), 0.0)

    def test_direct_substitution(self):
        inertia = MassTensor(diag=[1.0, 2.0, 3.0])
        b = np.array([5.0, 4.0, 3.0])
        state = canonical_state([1.0, 0.0], [0.0, 0.6, 0.8])
        f = integrals_f(state, inertia, b)
        assert f[0] == pytest.approx((1.0 + 3.0) * 1.0)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_conserved_along_flow(self, n):
        inertia, b, spec, rng = make_case(n, seed=n)
        field, constraints = build_field(spec)
        state0 = random_canonical_state(rng, n, speed=0.5)
        cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
        traj = integrate(field, state0, (0.0, 50.0), cfg, output_dt=0.2)
        f0 = integrals_f(state0, inertia, b)
        for s in traj.states:
            f = integrals_f(s, inertia, b)
            assert np.max(np.abs(f - f0)) <= 1e-10 * max(1.0, np.max(np.abs(f0)))


class TestClassification:
    def test_zero_is_degenerate(self):
        assert (
            torus_classify(np.zeros(2), np.array([5.0, 4.0, 3.0]))
            is Classification.DEGENERATE
        )

    def test_direct_inequality(self):
        cls = torus_classify(np.array([0.5, 0.5]), np.array([5.0, 4.0, 3.0]))
        assert cls is Classification.TWO_DISJOINT_TORI

    def test_branched(self):
        cls = torus_classify(np.array([1.5, 0.9]), np.array([5.0, 4.0, 3.0]))
        assert cls is Classification.BRANCHED_COVERING

    def test_boundary_is_degenerate(self):
        b = np.array([5.0, 4.0, 3.0])
        c = np.array([1.0, 0.5])  # 1.0/2 + 0.5/1 = 1 exactly
        assert torus_classify(c, b) is Classification.DEGENERATE
        c = np.array([1.0 + 5e-10, 0.5])
        assert torus_classify(c, b) is Classification.DEGENERATE

    def test_outside_hypotheses_marker(self):
        b = np.array([3.0, 5.0, 4.0])  # B_2 > is fine but B_1 < B_n
        assert (
            torus_classify(np.array([0.1, 0.1]), b)
            is Classification.OUTSIDE_HYPOTHESES
        )

    def test_sign_gamma_n_invariant_on_disjoint_tori(self):
        inertia, b, spec, rng = make_case(3, seed=5)
        field, _ = build_field(spec)
        for sign in (+1.0, -1.0):
            state0 = state_inside_tori(rng, inertia, b, fill=0.6)
            gamma = state0.gamma.copy()
            gamma[-1] = sign * gamma[-1]
            state0 = canonical_state(state0.omega.mat[:2, 2], gamma)
            cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
            traj = integrate(field, state0, (0.0, 60.0), cfg, output_dt=0.05)
            signs = np.array([np.sign(s.gamma[-1]) for s in traj.states])
            assert np.all(signs == sign)


class TestAngles:
    def test_zero_velocity_gives_zero_angle(self):
        inertia, b, spec, _ = make_case(3, seed=7)
        state = canonical_state([0.0, 0.0], [0.3, 0.4, np.sqrt(1 - 0.25)])
        phi = angle_coords(pack_state(state.omega, state.gamma), inertia, b)
        assert np.allclose(phi, 0.0)

    def test_round_trip_reconstruction(self):
        inertia, b, spec, rng = make_case(4, seed=8)
        n = 4
        pair = inertia.diag[:3] + inertia.diag[3]
        gap = b[:3] - b[3]
        for _ in range(20):
            state = random_canonical_state(rng, n, speed=0.4)
            c = integrals_f(state, inertia, b)
            phi = angle_coords(pack_state(state.omega, state.gamma), inertia, b)
            col = np.sqrt(c / pair) * np.sin(phi)
            g = np.sqrt(c / gap) * np.cos(phi)
            assert np.allclose(col, state.omega.mat[:3, 3], atol=1e-14)
            assert np.allclose(g, state.gamma[:3], atol=1e-14)

    def test_inactive_circle_reported_absent(self):
        inertia, b, spec, _ = make_case(3, seed=9)
        state = canonical_state([0.0, 0.3], [0.0, 0.2, np.sqrt(1 - 0.04)])
        phi = angle_coords(pack_state(state.omega, state.gamma), inertia, b)
        assert np.isnan(phi[0]) and not np.isnan(phi[1])


class TestFrequencies:
    def test_unit_frequency(self):
        inertia = MassTensor(diag=[1.0, 2.0, 3.0])
        b = np.array([1.0 + 3.0 + 1.0, 2.0, 1.0])
        # gap_1 = B_1 - B_n = pair_1 = I_1 + I_n = 4
        assert frequencies(inertia, b)[0] == pytest.approx(1.0)

    def test_direct_values(self):
        inertia = MassTensor(diag=[1.0, 2.0, 3.0])
        b = np.array([5.0, 4.0, 3.0])
        w = frequencies(inertia, b)
        assert w[0] == pytest.approx(np.sqrt(2.0 / 4.0))
        assert w[1] == pytest.approx(np.sqrt(1.0 / 5.0))

    def test_violated_hypotheses_raise(self):
        inertia = MassTensor(diag=[1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="B_i > B_n"):
            frequencies(inertia, np.array([2.0, 4.0, 3.0]))


class TestRotationNumbers:
    def test_synthetic_slope(self):
        inertia, b, _, _ = make_case(3, seed=10)
        pair = inertia.diag[:2] + inertia.diag[2]
        gap = b[:2] - b[2]
        taus = np.linspace(0.0, 30.0, 2001)
        states = []
        c = np.array([0.3, 0.2])
        for tau in taus:
            phi = np.array([0.3 * tau + 0.2, 0.3 * tau - 1.0])
            col = np.sqrt(c / pair) * np.sin(phi)
            g_head = np.sqrt(c / gap) * np.cos(phi)
            g_n = np.sqrt(max(0.0, 1.0 - np.sum(g_head**2)))
            states.append(canonical_state(col, np.append(g_head, g_n)))
        traj = states_trajectory(taus, states, aux={})
        slopes = rotation_numbers(traj, inertia, b)
        assert np.allclose(slopes, 0.3, atol=1e-12)

    def test_coarse_sampling_rejected(self):
        inertia, b, _, _ = make_case(3, seed=11)
        pair = inertia.diag[:2] + inertia.diag[2]
        gap = b[:2] - b[2]
        taus = np.linspace(0.0, 10.0, 11)
        states = []
        for tau in taus:
            phi = np.array([4.0 * tau, 4.0 * tau])
            col = np.sqrt(0.3 / pair) * np.sin(phi)
            g_head = np.sqrt(0.3 / gap) * np.cos(phi)
            g_n = np.sqrt(max(0.0, 1.0 - np.sum(g_head**2)))
            states.append(canonical_state(col, np.append(g_head, g_n)))
        traj = states_trajectory(taus, states, aux={})
        with pytest.raises(ValueError, match="grid"):
            rotation_numbers(traj, inertia, b)

    @pytest.mark.parametrize("n", [3, 4])
    def test_measured_match_formula_and_are_c_independent(self, n):
        inertia, b, spec, rng = make_case(n, seed=20 + n)
        field, _ = build_field(spec)
        exact = frequencies(inertia, b)
        measured = []
        for fill in (0.4, 0.7):
            state0 = state_inside_tori(rng, inertia, b, fill=fill)
            cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
            traj = integrate(field, state0, (0.0, 80.0), cfg, output_dt=0.02)
            tau_traj = reparametrize(traj, lambda y: y[..., -1])
            slopes = rotation_numbers(tau_traj, inertia, b)
            measured.append(slopes)
            assert np.max(np.abs(slopes - exact)) < 1e-4
        assert np.max(np.abs(measured[0] - measured[1])) < 2e-4

    def test_original_time_slopes_are_not_constant(self):
        # without the time rescaling the angles are visibly non-affine
        inertia, b, spec, rng = make_case(3, seed=30)
        field, _ = build_field(spec)
        state0 = state_inside_tori(rng, inertia, b, fill=0.7)
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj = integrate(field, state0, (0.0, 80.0), cfg, output_dt=0.02)
        tau_traj = reparametrize(traj, lambda y: y[..., -1])

        def fit_residual(trajectory):
            phis = angle_coords(trajectory.ys, inertia, b)
            unwrapped = np.unwrap(phis, axis=0)
            t = trajectory.times
            res = 0.0
            for i in range(phis.shape[1]):
                coef = np.polyfit(t, unwrapped[:, i], 1)
                res = max(res, np.max(np.abs(unwrapped[:, i] - np.polyval(coef, t))))
            return res

        assert fit_residual(tau_traj) < 1e-4
        assert fit_residual(traj) > 1e-2


class TestEnergyRelation:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_offset_constant_along_flow(self, n):
        inertia, b, spec, rng = make_case(n, seed=40 + n)
        field, _ = build_field(spec)
        pot = spec.potential
        state0 = random_canonical_state(rng, n, speed=0.5)
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj = integrate(field, state0, (0.0, 40.0), cfg, output_dt=0.2)
        offsets = np.array(
            [
                energy(s, inertia, pot) - 0.5 * np.sum(integrals_f(s, inertia, b))
                for s in traj.states
            ]
        )
        assert np.max(np.abs(offsets - offsets[0])) < 1e-10
        label, residuals = energy_offset_constant(float(offsets[0]), b)
        assert label == "half_Bn"
        assert residuals["half_Bn"] < 1e-10
        assert residuals["half_nBn"] > 1e-2

    def test_neither_label(self):
        label, _ = energy_offset_constant(100.0, np.array([5.0, 4.0, 3.0]))
        assert label == "neither"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_value_matches_neither(self, value):
        # a NaN residual fails every comparison, so it must not be read as
        # a match
        label, residuals = energy_offset_constant(value, np.array([5.0, 4.0, 3.0]))
        assert label == "neither"
        assert set(residuals) == {"half_Bn", "half_nBn"}

    def test_non_finite_coefficients_match_neither(self):
        label, _ = energy_offset_constant(1.5, np.array([5.0, 4.0, np.nan]))
        assert label == "neither"


class TestTorusSpec:
    def test_summary(self):
        inertia, b, spec, rng = make_case(4, seed=50)
        state = state_inside_tori(rng, inertia, b, fill=0.5)
        ts = torus_spec(state, inertia, b)
        assert ts.classification is Classification.TWO_DISJOINT_TORI
        assert ts.dimension == 3
        assert ts.frequencies is not None

    def test_independence_rank(self):
        inertia, b, spec, rng = make_case(4, seed=51)
        integrals = first_integrals(spec)
        fns = [integrals[f"F_{i}"] for i in (1, 2, 3)]
        state = random_canonical_state(rng, 4, speed=0.5)
        assert jacobian_rank(fns, state) == 3
