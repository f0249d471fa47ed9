import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import canonical_state, random_canonical_state, random_unit, state_from_vec3
from suslov.algebra import layout
from suslov.cases import (
    CaseError,
    CaseKind,
    CaseSpec,
    asymptotic_points,
    build_field,
    first_integrals,
    jacobian_rank,
    pendulum_reference_field,
)
from suslov.integrate import (
    IntegratorConfig,
    drift_report,
    integrate,
    solve_adaptive_rk45,
    state_field,
)
from suslov.model import (
    BodyState,
    DGJPotential,
    LinearPotential,
    MassTensor,
    QuadraticPotential,
    ZeroPotential,
    energy,
    lagrange_full_field,
    pack_state,
    vector_field_3d,
)


def dgj_fixture_potential():
    return DGJPotential(
        lambda x, y: np.sin(x) + 0.5 * y,
        lambda x, y: (np.cos(x), 0.5),
        lambda x, y: 0.5 * x * x + 0.25 * y * y,
        lambda x, y: (x, 0.5 * y),
    )


def integrate_case(spec, state0, t_end, output_dt=0.1, rtol=1e-10, atol=1e-12):
    field, constraints = build_field(spec)
    cfg = IntegratorConfig(rel_tol=rtol, abs_tol=atol)
    return integrate(
        field, state0, (0.0, t_end), cfg, output_dt=output_dt,
        inertia=spec.inertia, potential=spec.potential, constraints=constraints,
    )


def integrate_pendulum(gamma0, gamma_dot0, mass, b_n, t_grid, rtol=1e-12):
    n = gamma0.size

    def f(y):
        return np.concatenate(
            [y[n:], pendulum_reference_field(y[:n], y[n:], mass, b_n)]
        )

    ys = solve_adaptive_rk45(
        f, np.concatenate([gamma0, gamma_dot0]), t_grid, rtol, 1e-14
    )
    return ys[:, :n], ys[:, n:]


class TestCaseValidation:
    def test_lagrange_nd_shape(self):
        with pytest.raises(CaseError, match="diag\\(I1"):
            CaseSpec(
                CaseKind.LAGRANGE_ND,
                4,
                MassTensor(diag=[1.0, 2.0, 1.0, 3.0]),
                LinearPotential([0.0, 0.0, 0.0, 1.0]),
            )
        with pytest.raises(CaseError, match="B_n"):
            CaseSpec(
                CaseKind.LAGRANGE_ND,
                4,
                MassTensor(diag=[1.0, 1.0, 1.0, 3.0]),
                LinearPotential([0.5, 0.0, 0.0, 1.0]),
            )

    def test_kharlamova_nd_b_conditions(self):
        with pytest.raises(CaseError, match="B_n = 0"):
            CaseSpec(
                CaseKind.KHARLAMOVA_ND,
                3,
                MassTensor(diag=[1.0, 2.0, 3.0]),
                LinearPotential([1.0, 1.0, 0.5]),
            )
        with pytest.raises(CaseError, match="B_i != 0"):
            CaseSpec(
                CaseKind.KHARLAMOVA_ND,
                3,
                MassTensor(diag=[1.0, 2.0, 3.0]),
                LinearPotential([1.0, 0.0, 0.0]),
            )

    def test_lagrange_3d_symmetry(self):
        with pytest.raises(CaseError, match="J1 = J2"):
            CaseSpec(
                CaseKind.LAGRANGE_3D,
                3,
                MassTensor(diag=[1.0, 2.0, 3.0]),
                LinearPotential([0.0, 0.0, 1.0]),
            )

    def test_clebsch_3d_proportionality(self):
        with pytest.raises(CaseError, match="proportional"):
            CaseSpec(
                CaseKind.CLEBSCH_TISSERAND_3D,
                3,
                MassTensor(diag=[1.0, 2.0, 3.0]),
                QuadraticPotential([1.0, 1.0, 1.0]),
            )

    def test_dgj_needs_distinct_moments(self):
        with pytest.raises(CaseError, match="J1 != J2"):
            CaseSpec(
                CaseKind.DGJ_3D,
                3,
                MassTensor(diag=[1.0, 1.0, 2.0]),
                dgj_fixture_potential(),
            )

    def test_gyro_term_restricted(self):
        with pytest.raises(CaseError, match="gyroscopic"):
            CaseSpec(
                CaseKind.SUSLOV_FREE,
                3,
                MassTensor(diag=[1.0, 2.0, 3.0]),
                ZeroPotential(),
                gyro_eps=0.5,
            )

    def test_custom_axis_only_for_free_3d(self):
        with pytest.raises(CaseError, match="axis"):
            CaseSpec(
                CaseKind.LAGRANGE_3D,
                3,
                MassTensor(diag=[1.0, 1.0, 3.0]),
                LinearPotential([0.0, 0.0, 1.0]),
                constraint_axis=[1.0, 0.0, 0.0],
            )

    @pytest.mark.parametrize("axis", [[1.0, 1.0], [[1.0, 1.0, 1.0]],
                                      [1.0, 1.0, 1.0, 0.0]])
    def test_custom_axis_must_be_a_3_vector(self, axis):
        with pytest.raises(CaseError, match="3-vector"):
            CaseSpec(CaseKind.SUSLOV_FREE, 3, MassTensor(diag=[1.0, 2.0, 3.0]),
                     ZeroPotential(), constraint_axis=np.array(axis))

    def test_custom_axis_is_a_read_only_unit_copy(self):
        axis = np.array([1.0, 1.0, 1.0])
        spec = CaseSpec(CaseKind.SUSLOV_FREE, 3, MassTensor(diag=[1.0, 2.0, 3.0]),
                        ZeroPotential(), constraint_axis=axis)
        assert np.array_equal(axis, [1.0, 1.0, 1.0]) and axis.flags.writeable
        assert np.array_equal(spec.constraint_axis, axis / np.sqrt(3.0))
        with pytest.raises(ValueError, match="read-only"):
            spec.constraint_axis[:] = 0.0
        build_field(spec)  # the vector form builds on the read-only axis


def catalog_instances(n_values=(3, 4, 5), seed=0):
    """One concrete, valid instance per catalog case and dimension."""
    rng = np.random.default_rng(seed)
    out = []
    for n in n_values:
        diag = 1.0 + 2.0 * rng.random(n)
        sym = np.full(n, 1.7)
        sym[-1] = 0.9
        b_lin = np.concatenate([0.5 + rng.random(n - 1), [0.0]])
        b_quad = np.sort(1.0 + 3.0 * rng.random(n))[::-1]
        out.append(
            CaseSpec(
                CaseKind.LAGRANGE_ND, n, MassTensor(diag=sym),
                LinearPotential(np.append(np.zeros(n - 1), 1.3)),
            )
        )
        out.append(
            CaseSpec(
                CaseKind.KHARLAMOVA_ND, n, MassTensor(diag=diag),
                LinearPotential(b_lin),
            )
        )
        out.append(
            CaseSpec(
                CaseKind.CLEBSCH_TISSERAND_ND, n, MassTensor(diag=diag),
                QuadraticPotential(b_quad),
            )
        )
    diag3 = np.array([1.0, 2.0, 1.4])
    j3 = np.array([diag3[1] + diag3[2], diag3[0] + diag3[2], diag3[0] + diag3[1]])
    out.append(
        CaseSpec(
            CaseKind.LAGRANGE_3D, 3, MassTensor(diag=[1.2, 1.2, 0.7]),
            LinearPotential([0.0, 0.0, 1.1]),
        )
    )
    out.append(
        CaseSpec(
            CaseKind.KHARLAMOVA_3D, 3, MassTensor(diag=diag3),
            LinearPotential([0.8, -0.5, 0.0]),
        )
    )
    out.append(
        CaseSpec(
            CaseKind.CLEBSCH_TISSERAND_3D, 3, MassTensor(diag=diag3),
            QuadraticPotential(0.6 * j3),
        )
    )
    out.append(
        CaseSpec(
            CaseKind.DGJ_3D, 3, MassTensor(diag=diag3), dgj_fixture_potential()
        )
    )
    out.append(
        CaseSpec(
            CaseKind.GYROSCOPIC_3D, 3, MassTensor(diag=diag3),
            LinearPotential([0.7, 0.4, 0.0]), gyro_eps=0.6,
        )
    )
    return out


def loop_jacobian_rank(evaluators, state):
    """Oracle: ``jacobian_rank`` as it was before it differenced blocks, two
    single-point calls per evaluator and reduced-chart slot."""
    n = state.n
    lay = layout(n)
    chart = np.concatenate([lay.column, np.arange(lay.k, lay.k + n)])
    y0 = np.zeros(lay.k + n)
    y0[chart] = pack_state(state.omega, state.gamma)[chart]
    rows = []
    for fn in evaluators:
        grad = np.empty(chart.size)
        for i, slot in enumerate(chart):
            e = np.zeros(y0.size)
            e[slot] = 1e-6
            grad[i] = (fn(y0 + e) - fn(y0 - e)) / (2 * 1e-6)
        rows.append(grad)
    sv = np.linalg.svd(np.array(rows), compute_uv=False)
    return int(np.sum(sv > 1e-8 * sv[0]))


def _rank_cases():
    rng = np.random.default_rng(9)
    for n in (3, 4, 5):
        b = np.append(rng.normal(size=n - 1), 0.0)
        yield CaseSpec(CaseKind.KHARLAMOVA_ND, n, MassTensor(diag=1.0 + rng.random(n)),
                       LinearPotential(b)), n
        yield CaseSpec(CaseKind.CLEBSCH_TISSERAND_ND, n,
                       MassTensor(diag=1.0 + rng.random(n)),
                       QuadraticPotential(rng.normal(size=n))), n
    yield CaseSpec(CaseKind.DGJ_3D, 3, MassTensor(diag=[1.0, 2.0, 1.4]),
                   dgj_fixture_potential()), 3


@pytest.mark.parametrize("spec, n", list(_rank_cases()),
                         ids=lambda v: v.kind.value if isinstance(v, CaseSpec) else str(v))
def test_jacobian_rank_calls_each_evaluator_once(spec, n):
    # one block of the 2 (2n - 1) perturbed packed points per evaluator,
    # and the rank the per-slot loop gave
    fns = list(first_integrals(spec).values())
    calls = []

    def counted(fn):
        def wrapped(y):
            calls.append(np.shape(y))
            return fn(y)
        return wrapped

    rng = np.random.default_rng(n)
    for _ in range(3):
        state = random_canonical_state(rng, n)
        calls.clear()
        rank = jacobian_rank([counted(fn) for fn in fns], state)
        assert calls == [(2 * (2 * n - 1), layout(n).k + n)] * len(fns)
        assert rank == loop_jacobian_rank(fns, state)


@pytest.mark.parametrize("n", [3, 4])
def test_jacobian_rank_of_no_functions_is_zero(n):
    state = random_canonical_state(np.random.default_rng(n), n)
    assert jacobian_rank([], state) == 0
    assert jacobian_rank(iter(()), state) == 0


class TestConservation:
    @pytest.mark.parametrize(
        "spec", catalog_instances(), ids=lambda s: f"{s.kind.value}-n{s.n}"
    )
    def test_first_integrals_conserved(self, spec):
        from conftest import state_with_sizable_integrals

        rng = np.random.default_rng(spec.n * 101)
        integrals = first_integrals(spec)
        state0 = state_with_sizable_integrals(rng, spec, integrals)
        traj = integrate_case(spec, state0, 30.0, output_dt=0.25)
        report = drift_report(traj, integrals)
        assert max(report.values()) <= 1e-8, report

    def test_kharlamova_nd_integral_count_and_rank(self):
        rng = np.random.default_rng(3)
        n = 4
        spec = CaseSpec(
            CaseKind.KHARLAMOVA_ND, n, MassTensor(diag=[1.0, 2.0, 3.0, 1.5]),
            LinearPotential([1.0, 0.7, -0.4, 0.0]),
        )
        integrals = first_integrals(spec)
        pair_labels = [lab for lab in integrals if lab.startswith("F_")]
        assert len(pair_labels) == 3  # all pairuse combinations for n = 4
        fns = [integrals[lab] for lab in pair_labels]
        state = random_canonical_state(rng, n)
        # the pairwise differences satisfy linear relations: rank is n - 2
        assert jacobian_rank(fns, state) == 2

    def test_lagrange_3d_integral_expansion(self):
        spec = CaseSpec(
            CaseKind.LAGRANGE_3D, 3, MassTensor(diag=[1.2, 1.2, 0.7]),
            LinearPotential([0.0, 0.0, 1.1]),
        )
        integrals = first_integrals(spec)
        fn = integrals["lagrange_momentum"]
        j = spec.j_diag
        rng = np.random.default_rng(4)
        for _ in range(10):
            w = np.append(rng.normal(size=2), 0.0)  # admissible: w3 = 0
            state = state_from_vec3(w, random_unit(rng, 3))
            expect = j[0] * w[0] * state.gamma[0] + j[1] * w[1] * state.gamma[1]
            y = pack_state(state.omega, state.gamma)
            assert fn(y) == pytest.approx(expect, rel=1e-13, abs=1e-13)

    def test_dgj_integral_independent_of_energy(self):
        spec = CaseSpec(
            CaseKind.DGJ_3D, 3, MassTensor(diag=[1.0, 2.0, 1.4]),
            dgj_fixture_potential(),
        )
        integrals = first_integrals(spec)
        state = random_canonical_state(np.random.default_rng(5), 3)
        fns = [integrals["energy"], integrals["dgj_integral"]]
        assert jacobian_rank(fns, state) == 2

    def test_gyroscopic_keeps_energy_only(self):
        spec = CaseSpec(
            CaseKind.GYROSCOPIC_3D, 3, MassTensor(diag=[1.0, 2.0, 1.4]),
            QuadraticPotential([0.5, 0.3, 0.2]), gyro_eps=0.8,
        )
        integrals = first_integrals(spec)
        assert list(integrals) == ["energy"]
        state0 = random_canonical_state(np.random.default_rng(6), 3)
        traj = integrate_case(spec, state0, 50.0)
        assert max(drift_report(traj, integrals).values()) <= 1e-8


class TestSuslovFree:
    def test_eigenvector_case_freezes_omega(self):
        spec = CaseSpec(
            CaseKind.SUSLOV_FREE, 4, MassTensor(diag=[1.0, 2.0, 3.0, 4.0]),
            ZeroPotential(),
        )
        state0 = random_canonical_state(np.random.default_rng(7), 4)
        traj = integrate_case(spec, state0, 20.0)
        for s in traj.states:
            assert np.max(np.abs(s.omega.mat - state0.omega.mat)) <= 1e-10

    def test_gamma_traces_circle_at_omega_rate(self):
        spec = CaseSpec(
            CaseKind.SUSLOV_FREE, 3, MassTensor(diag=[1.0, 2.0, 3.0]),
            ZeroPotential(),
        )
        state0 = canonical_state([0.9, 0.0], [0.0, 0.0, 1.0])
        traj = integrate_case(spec, state0, 10.0, output_dt=0.01)
        speed = state0.omega.norm()
        # gamma rotates at rate |Omega|: angle between start and sample grows
        # linearly until wrap-around
        angles = [
            np.arccos(np.clip(np.dot(s.gamma, state0.gamma), -1, 1))
            for s in traj.states[:200]
        ]
        expect = speed * traj.times[:200]
        assert np.max(np.abs(np.array(angles) - expect)) < 1e-6


class TestLagrangeCase:
    def setup_method(self):
        self.n = 4
        self.mass = MassTensor(diag=[1.7, 1.7, 1.7, 0.9])
        self.b_n = 1.3
        self.spec = CaseSpec(
            CaseKind.LAGRANGE_ND, self.n, self.mass,
            LinearPotential([0.0, 0.0, 0.0, self.b_n]),
        )

    def test_momenta_conserved_on_generic_data(self):
        rng = np.random.default_rng(8)
        state0 = random_canonical_state(rng, self.n)
        traj = integrate_case(self.spec, state0, 40.0)
        report = drift_report(traj, first_integrals(self.spec))
        assert max(report.values()) <= 1e-8

    def test_gamma_weighted_variant_is_not_conserved(self):
        # multiplying the momenta by Gamma_n breaks conservation off the
        # zero-momentum set; this guards the corrected formula
        rng = np.random.default_rng(9)
        state0 = random_canonical_state(rng, self.n)
        traj = integrate_case(self.spec, state0, 40.0)

        def weighted(s):
            col = s.omega.mat[:3, 3]
            return s.gamma[3] * (s.gamma[1] * col[0] - s.gamma[0] * col[1])

        vals = np.array([weighted(s) for s in traj.states])
        assert np.max(np.abs(vals - vals[0])) > 1e-3

    def test_full_field_keeps_block_zero_and_matches_reduced(self):
        rng = np.random.default_rng(10)
        state0 = random_canonical_state(rng, self.n)

        def full(state):
            return lagrange_full_field(state, self.mass, self.b_n)

        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj_full = integrate(state_field(full, self.n), state0, (0.0, 100.0),
                              cfg, output_dt=0.25)
        block_max = max(
            np.max(np.abs(s.omega.mat[:3, :3])) for s in traj_full.states
        )
        assert block_max <= 1e-8

        traj_red = integrate_case(self.spec, state0, 100.0, output_dt=0.25)
        err = max(
            np.max(np.abs(a.omega.mat - b.omega.mat))
            + np.max(np.abs(a.gamma - b.gamma))
            for a, b in zip(traj_full.states, traj_red.states)
        )
        assert err <= 1e-8

    def test_free_body_energy_conserved_without_potential(self):
        # b_n = 0 with a full angular velocity (block not constrained):
        # plain conservative rigid body motion
        rng = np.random.default_rng(20)
        from conftest import random_skew, random_unit
        from suslov.model import ZeroPotential, energy

        state0 = BodyState(random_skew(rng, self.n), random_unit(rng, self.n))

        def full(state):
            return lagrange_full_field(state, self.mass, 0.0)

        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj = integrate(state_field(full, self.n), state0, (0.0, 50.0), cfg,
                         output_dt=0.25)
        vals = np.array(
            [energy(s, self.mass, ZeroPotential()) for s in traj.states]
        )
        assert np.max(np.abs(vals - vals[0])) <= 1e-8 * abs(vals[0])

    def test_pendulum_match_on_zero_momentum_data(self):
        # velocity column parallel to the horizontal Gamma components: all
        # transverse momenta vanish and Gamma follows the pendulum
        rng = np.random.default_rng(11)
        gamma0 = random_unit(rng, self.n)
        col0 = 0.8 * gamma0[:3]
        state0 = canonical_state(col0, gamma0)
        traj = integrate_case(
            self.spec, state0, 20.0, output_dt=0.05, rtol=1e-11, atol=1e-13
        )
        mass_eff = self.mass.diag[0] + self.mass.diag[3]
        gd0 = np.empty(self.n)
        gd0[:3] = -gamma0[3] * col0
        gd0[3] = float(np.dot(gamma0[:3], col0))
        gammas, _ = integrate_pendulum(
            gamma0, gd0, mass_eff, self.b_n, traj.times
        )
        suslov_gammas = np.array([s.gamma for s in traj.states])
        assert np.max(np.abs(gammas - suslov_gammas)) <= 1e-6

    def test_pendulum_mismatch_on_generic_data(self):
        # negative control: with nonzero transverse momenta the Gamma curve
        # is not a pendulum trajectory
        rng = np.random.default_rng(12)
        state0 = random_canonical_state(rng, self.n)
        traj = integrate_case(self.spec, state0, 20.0, output_dt=0.05)
        mass_eff = self.mass.diag[0] + self.mass.diag[3]
        gamma0 = state0.gamma
        col0 = state0.omega.mat[:3, 3]
        gd0 = np.empty(self.n)
        gd0[:3] = -gamma0[3] * col0
        gd0[3] = float(np.dot(gamma0[:3], col0))
        gammas, _ = integrate_pendulum(
            gamma0, gd0, mass_eff, self.b_n, traj.times
        )
        suslov_gammas = np.array([s.gamma for s in traj.states])
        assert np.max(np.abs(gammas - suslov_gammas)) > 1e-2


class TestPendulumReference:
    def test_equilibrium_at_lower_pole(self):
        gamma = np.array([0.0, 0.0, 0.0, -1.0])
        gdd = pendulum_reference_field(gamma, np.zeros(4), 2.0, 1.5)
        assert np.allclose(gdd, 0.0, atol=1e-15)

    def test_planar_data_stays_planar(self):
        gamma0 = np.array([np.sin(0.4), 0.0, np.cos(0.4)])
        gd0 = np.array([0.3 * np.cos(0.4), 0.0, -0.3 * np.sin(0.4)])
        t_grid = np.linspace(0.0, 15.0, 301)
        gammas, gdots = integrate_pendulum(gamma0, gd0, 1.8, 1.1, t_grid)
        assert np.max(np.abs(gammas[:, 1])) < 1e-12

    def test_tangency_preserved(self):
        rng = np.random.default_rng(13)
        gamma0 = random_unit(rng, 4)
        gd0 = rng.normal(size=4)
        gd0 -= np.dot(gd0, gamma0) * gamma0
        t_grid = np.linspace(0.0, 10.0, 201)
        gammas, gdots = integrate_pendulum(gamma0, gd0, 1.5, 0.9, t_grid)
        dots = np.abs(np.sum(gammas * gdots, axis=1))
        norms = np.abs(np.linalg.norm(gammas, axis=1) - 1.0)
        assert np.max(dots) < 1e-9
        assert np.max(norms) < 1e-9

    def test_non_unit_gamma_rejected(self):
        with pytest.raises(ValueError, match="\\|Gamma\\| = 1"):
            pendulum_reference_field(np.array([0.0, 0.0, 2.0]), np.zeros(3), 1.0, 1.0)


class TestAsymptoticPoints:
    def setup_method(self):
        self.j = np.array([1.0, 2.0, 3.0])
        self.axis = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        self.h = 0.5

    def test_opposite_pair_on_level_set(self):
        w_minus, w_plus = asymptotic_points(self.j, self.axis, self.h)
        assert np.array_equal(w_minus, -w_plus)
        assert 0.5 * np.dot(self.j * w_plus, w_plus) == pytest.approx(
            self.h, abs=1e-12
        )
        assert abs(np.dot(self.axis, w_plus)) < 1e-12

    @pytest.mark.parametrize("level", [np.nan, np.inf, -np.inf, 0.0, -0.5])
    def test_energy_level_must_be_positive_and_finite(self, level):
        with pytest.raises(ValueError, match="energy level must be positive and finite"):
            asymptotic_points(self.j, self.axis, level)

    @pytest.mark.parametrize(
        "axis", [[np.nan, 1.0, 1.0], [np.inf, 1.0, 1.0], [0.0, 0.0, 0.0]],
        ids=["nan", "inf", "zero"],
    )
    def test_axis_must_be_finite_and_nonzero(self, axis):
        with np.errstate(all="raise"):  # rejected before it divides
            with pytest.raises(ValueError, match="finite, nonzero constraint axis"):
                asymptotic_points(self.j, axis, self.h)

    def test_eigenvector_axis_rejected(self):
        with pytest.raises(ValueError, match="constants"):
            asymptotic_points(self.j, np.array([0.0, 0.0, 1.0]), self.h)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        j=st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3),
        a=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
        h=st.floats(1e-3, 1e3),
    )
    def test_rest_points_property(self, j, a, h):
        j, a = np.array(j), np.array(a)
        assume(np.linalg.norm(a) > 1e-3)
        a = a / np.linalg.norm(a)
        assume(np.linalg.norm(np.cross(a, j * a)) > 1e-3 * np.linalg.norm(j * a))
        w_minus, w_plus = asymptotic_points(j, a, h)
        gamma = np.array([0.0, 0.6, 0.8])
        for w in (w_minus, w_plus):
            norm = np.linalg.norm(w)
            assert abs(np.dot(a, w)) <= 1e-12 * norm
            assert 0.5 * np.dot(j * w, w) == pytest.approx(h, rel=1e-12)
            w_dot = vector_field_3d(w, gamma, j, ZeroPotential(), 0.0, a)[0]
            assert np.linalg.norm(w_dot) <= 1e-12 * np.linalg.norm(j * w) * norm
        assert np.dot(w_plus, np.cross(a, a / j)) < 0.0

    def test_forward_convergence(self):
        from suslov.model import vector_field_3d

        w_minus, w_plus = asymptotic_points(self.j, self.axis, self.h)
        rng = np.random.default_rng(14)
        d = rng.normal(size=3)
        d -= np.dot(d, self.axis) * self.axis
        w0 = d * np.sqrt(2.0 * self.h / np.dot(self.j * d, d))

        def f(y):
            wd, gd = vector_field_3d(
                y[:3], y[3:], self.j, ZeroPotential(), 0.0, self.axis
            )
            return np.concatenate([wd, gd])

        y0 = np.concatenate([w0, [0.0, 0.6, 0.8]])
        t_grid = np.linspace(0.0, 120.0, 601)
        ys = solve_adaptive_rk45(f, y0, t_grid, 1e-11, 1e-13)
        dist = np.linalg.norm(ys[:, :3] - w_plus, axis=1)
        assert dist[-1] < 1e-6
        # monotone decrease once below half the starting distance, down to
        # the roundoff floor
        started = np.argmax(dist < 0.5 * dist[0])
        tail = dist[started:]
        tail = tail[tail > 1e-10]
        assert np.all(np.diff(tail) < 1e-12)


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize alone takes most of a second to import, and no part
    # of the package uses it
    import os
    import subprocess
    import sys

    import suslov

    src = os.path.dirname(os.path.dirname(os.path.abspath(suslov.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, suslov; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
