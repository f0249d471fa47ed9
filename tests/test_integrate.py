import math

import numpy as np
import pytest

from conftest import canonical_state, random_canonical_state
from suslov.algebra import ConstraintSet
from suslov.cases import CaseKind, CaseSpec, build_field, first_integrals
from suslov.integrate import (
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    detect_period,
    drift_report,
    integrate,
    reparametrize,
    rk45_step,
    solve_adaptive_rk45,
    solve_fixed_rk4,
    write_csv,
)
from suslov.model import (
    BodyState,
    LinearPotential,
    MassTensor,
    ZeroPotential,
)


def make_free_case(n=3):
    inertia = MassTensor(diag=np.arange(1.0, n + 1.0))
    spec = CaseSpec(CaseKind.SUSLOV_FREE, n, inertia, ZeroPotential())
    field, constraints = build_field(spec)
    return inertia, spec, field, constraints


class TestSteppers:
    def test_zero_field_constant(self):
        _, _, field, constraints = make_free_case()
        state0 = canonical_state([0.7, -0.3], [0.0, 0.6, 0.8])
        cfg = IntegratorConfig(method="rk4", step=0.05)
        traj = integrate(field, state0, (0.0, 2.0), cfg, output_dt=0.5)
        # free case with eigenvector constraint: Omega frozen exactly
        for s in traj.states:
            assert np.array_equal(s.omega.mat, state0.omega.mat)

    def test_linear_system_exponential_oracle(self):
        mat = np.array([[0.0, 1.0], [-4.0, -0.4]])

        def f(t, y):
            return mat @ y

        y0 = np.array([1.0, 0.0])
        t_grid = np.linspace(0.0, 2.0, 3)
        from scipy.linalg import expm

        exact = expm(2.0 * mat) @ y0

        errs = []
        for step in (0.02, 0.01):
            ys = solve_fixed_rk4(f, y0, t_grid, step)
            errs.append(np.linalg.norm(ys[-1] - exact))
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0  # fourth-order convergence on halving

        ys = solve_adaptive_rk45(f, y0, t_grid, 1e-12, 1e-14)
        assert np.linalg.norm(ys[-1] - exact) < 1e-10

    def test_rk4_order_on_free_rotation(self):
        inertia, spec, field, constraints = make_free_case()
        state0 = canonical_state([1.1, 0.4], [0.3, 0.0, np.sqrt(1 - 0.09)])
        # reference at tiny step; renormalization off for a clean order read
        ref_cfg = IntegratorConfig(method="rk4", step=1e-4,
                                   renormalize_gamma=False)
        ref = integrate(field, state0, (0.0, 5.0), ref_cfg, output_dt=5.0)
        gamma_ref = ref.states[-1].gamma

        errs = []
        steps = [0.05, 0.025, 0.0125]
        for h in steps:
            cfg = IntegratorConfig(method="rk4", step=h, renormalize_gamma=False)
            traj = integrate(field, state0, (0.0, 5.0), cfg, output_dt=5.0)
            errs.append(np.linalg.norm(traj.states[-1].gamma - gamma_ref))
        orders = [
            math.log(errs[i] / errs[i + 1]) / math.log(2.0)
            for i in range(len(errs) - 1)
        ]
        for p in orders:
            assert abs(p - 4.0) <= 0.3

    def test_max_steps_exceeded(self):
        _, _, field, _ = make_free_case()
        state0 = canonical_state([1.0, 0.0], [0.0, 0.6, 0.8])
        cfg = IntegratorConfig(method="rk4", step=1e-4, max_steps=10)
        with pytest.raises(IntegrationError, match="max_steps"):
            integrate(field, state0, (0.0, 1.0), cfg, output_dt=1.0)

    def test_step_underflow_reports_last_valid_time(self):
        # a field turning non-finite forces endless rejections; the stepper
        # must shrink to underflow and report where it stopped
        def f(t, y):
            if t > 0.5:
                return np.array([math.nan])
            return np.array([1.0])

        with pytest.raises(IntegrationError, match="underflow") as err:
            solve_adaptive_rk45(f, np.array([0.0]), [0.0, 1.0], 1e-10, 1e-12)
        assert 0.0 <= err.value.t_last <= 0.6


# Dormand-Prince 5(4), one stage at a time, as a reference for the
# stage-matrix stepper
_REF_C = [0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0]
_REF_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_REF_B5 = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0]
_REF_B4 = [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
           187 / 2100, 1 / 40]


def reference_dp5_step(f, t, y, h):
    k = [f(t, y)]
    for s in range(1, 7):
        ys = y + h * sum(a * ks for a, ks in zip(_REF_A[s], k))
        k.append(f(t + _REF_C[s] * h, ys))
    y5 = y + h * sum(b * ks for b, ks in zip(_REF_B5, k))
    y4 = y + h * sum(b * ks for b, ks in zip(_REF_B4, k))
    return y5, y5 - y4


class TestRk45Step:
    def setup_method(self):
        rng = np.random.default_rng(12)
        self.mat = rng.normal(size=(6, 6)) / np.sqrt(6.0)
        self.y0 = rng.normal(size=6)

    def f(self, t, y):
        return self.mat @ y + np.sin(t)

    def test_matches_per_stage_reference(self):
        for h in (0.3, 0.05, 1e-3):
            y5, err = rk45_step(self.f, 0.7, self.y0, h)
            y5_ref, err_ref = reference_dp5_step(self.f, 0.7, self.y0, h)
            assert np.max(np.abs(y5 - y5_ref)) <= 1e-15 * np.max(np.abs(y5_ref))
            assert np.max(np.abs(err - err_ref)) <= 1e-15 * np.max(np.abs(y5_ref))

    def test_error_estimate_and_local_error_orders(self):
        from scipy.linalg import expm

        mat = self.mat

        def f(t, y):
            return mat @ y

        hs = [0.2, 0.1, 0.05]
        est, local = [], []
        for h in hs:
            y5, err = rk45_step(f, 0.0, self.y0, h)
            est.append(np.linalg.norm(err))
            local.append(np.linalg.norm(y5 - expm(h * mat) @ self.y0))
        for i in range(len(hs) - 1):
            # the embedded 4th-order solution errs by O(h^5), y5 by O(h^6)
            assert abs(math.log2(est[i] / est[i + 1]) - 5.0) <= 0.3
            assert abs(math.log2(local[i] / local[i + 1]) - 6.0) <= 0.3


class TestIntegratorConfig:
    @pytest.mark.parametrize(
        "field_name, value",
        [
            ("step", math.nan),
            ("step", math.inf),
            ("step", -1.0),
            ("rel_tol", math.nan),
            ("rel_tol", 0.0),
            ("abs_tol", math.inf),
            ("abs_tol", -1e-12),
        ],
    )
    def test_rejects_non_positive_or_non_finite(self, field_name, value):
        with pytest.raises(ValueError, match="positive and finite"):
            IntegratorConfig(**{field_name: value})


class TestRenormalization:
    def setup_method(self):
        n = 4
        rng = np.random.default_rng(21)
        self.inertia = MassTensor(diag=0.5 + rng.random(n) * 2.0)
        self.pot = LinearPotential(np.array([0.4, -0.7, 0.2, 0.0]))
        self.spec = CaseSpec(CaseKind.KHARLAMOVA_ND, n, self.inertia, self.pot)
        self.field, self.constraints = build_field(self.spec)
        self.state0 = random_canonical_state(rng, n)

    def test_renormalization_pins_gamma_norm(self):
        cfg = IntegratorConfig(method="rk45", rel_tol=1e-10, abs_tol=1e-12)
        traj = integrate(self.field, self.state0, (0.0, 100.0), cfg,
                         output_dt=0.25)
        assert np.max(traj.aux["gamma_norm_err"]) <= 1e-12

    def test_gamma_drift_small_without_renormalization(self):
        cfg = IntegratorConfig(method="rk45", rel_tol=1e-10, abs_tol=1e-12,
                               renormalize_gamma=False)
        traj = integrate(self.field, self.state0, (0.0, 100.0), cfg,
                         output_dt=0.25)
        assert np.max(traj.aux["gamma_norm_err"]) <= 1e-6


class TestTrajectory:
    def test_invariants(self):
        s = canonical_state([1.0, 0.0], [0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(times=[0.0, 0.0], states=[s, s])
        with pytest.raises(ValueError, match="lengths"):
            Trajectory(times=[0.0, 1.0], states=[s])


class TestConstraintPreservation:
    def test_general_field_keeps_residual_small_over_long_run(self):
        # the multiplier construction makes the admissible set invariant;
        # over a long horizon the residual may only accumulate roundoff
        from suslov.model import QuadraticPotential, general_field

        n = 4
        rng = np.random.default_rng(41)
        inertia = MassTensor(diag=1.0 + 2.0 * rng.random(n))
        pot = QuadraticPotential(rng.normal(size=n))
        constraints = ConstraintSet.canonical_suslov(n)
        field = general_field(inertia, pot, constraints)
        state0 = random_canonical_state(rng, n, speed=0.6)
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj = integrate(field, state0, (0.0, 100.0), cfg, output_dt=0.5,
                         inertia=inertia, potential=pot,
                         constraints=constraints)
        assert np.max(traj.aux["constraint_residual"]) <= 1e-8
        assert np.max(np.abs(traj.aux["energy"] - traj.aux["energy"][0])) \
            <= 1e-8 * max(1.0, abs(traj.aux["energy"][0]))


class TestReparametrize:
    def _traj(self, phi_vals, dt=0.1):
        states = [
            canonical_state([v, 0.0], [0.0, 0.0, 1.0]) for v in phi_vals
        ]
        times = dt * np.arange(len(phi_vals))
        return Trajectory(times=times, states=states, aux={})

    @staticmethod
    def _phi(state):
        return state.omega.mat[0, 2]

    def test_identity_for_unit_observable(self):
        traj = self._traj(np.ones(11))
        out = reparametrize(traj, self._phi)
        assert np.allclose(out.times, traj.times)

    def test_constant_scaling(self):
        traj = self._traj(2.0 * np.ones(11))
        out = reparametrize(traj, self._phi)
        assert np.allclose(out.times, 2.0 * traj.times)

    def test_round_trip_positive(self):
        rng = np.random.default_rng(3)
        vals = 1.5 + 0.5 * np.sin(np.linspace(0, 6, 200)) + 0.01 * rng.random(200)
        traj = self._traj(vals, dt=0.05)
        out = reparametrize(traj, self._phi)
        back = reparametrize(out, self._phi, inverse=True)
        assert np.max(np.abs(back.times - traj.times)) < 1e-9

    def test_round_trip_negative_observable(self):
        vals = -1.0 - 0.3 * np.cos(np.linspace(0, 4, 120))
        traj = self._traj(vals, dt=0.05)
        out = reparametrize(traj, self._phi)
        assert np.all(np.diff(out.times) > 0)
        back = reparametrize(out, self._phi, inverse=True)
        assert np.max(np.abs(back.times - traj.times)) < 1e-9

    def test_sign_change_rejected(self):
        vals = np.linspace(1.0, -1.0, 21)
        traj = self._traj(vals)
        with pytest.raises(ValueError, match="sign"):
            reparametrize(traj, self._phi)


class TestDetectPeriod:
    def _sine_traj(self, omega, t_end, npts, phase=0.0):
        times = np.linspace(0.0, t_end, npts)
        states = [
            canonical_state([math.sin(omega * t + phase), 0.0], [0.0, 0.0, 1.0])
            for t in times
        ]
        return Trajectory(times=times, states=states, aux={})

    def test_sine_period(self):
        omega = 1.3
        traj = self._sine_traj(omega, 40.0, 8001)
        t = detect_period(traj, lambda s: s.omega.mat[0, 2])
        assert t == pytest.approx(2.0 * math.pi / omega, rel=1e-8)

    def test_constant_returns_none(self):
        traj = self._sine_traj(0.0, 10.0, 101)
        assert detect_period(traj, lambda s: s.omega.mat[0, 2]) is None

    def test_too_short_returns_none(self):
        traj = self._sine_traj(1.0, 6.0, 601)  # < 2 returns
        assert detect_period(traj, lambda s: s.omega.mat[0, 2]) is None

    def test_asymptotic_free_trajectory_returns_none(self):
        # non-eigenvector free case: the velocity creeps onto a rest point,
        # so there is no return to detect
        from suslov.model import vector_field_3d
        from suslov.algebra import vector_to_skew

        j = np.array([1.0, 2.0, 3.0])
        axis = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)

        def field(state):
            m = state.omega.mat
            w = np.array([m[2, 1], m[0, 2], m[1, 0]])
            wd, gd = vector_field_3d(w, state.gamma, j, ZeroPotential(), 0.0, axis)
            return vector_to_skew(wd), gd

        w0 = np.array([0.6, -0.1, -0.5])  # admissible: sums to zero
        state0 = BodyState(vector_to_skew(w0), np.array([0.0, 0.6, 0.8]))
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj = integrate(field, state0, (0.0, 120.0), cfg, output_dt=0.1)
        assert detect_period(traj, lambda s: s.omega.mat[0, 2]) is None


class TestDriftReport:
    def test_exact_constant_and_negative_control(self):
        n = 4
        rng = np.random.default_rng(31)
        inertia = MassTensor(diag=0.5 + rng.random(n) * 2.0)
        pot = LinearPotential(np.array([0.4, -0.7, 0.2, 0.0]))
        spec = CaseSpec(CaseKind.KHARLAMOVA_ND, n, inertia, pot)
        field, constraints = build_field(spec)
        state0 = random_canonical_state(rng, n)
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj = integrate(field, state0, (0.0, 20.0), cfg, output_dt=0.1,
                         inertia=inertia, potential=pot,
                         constraints=constraints)

        integrals = first_integrals(spec)
        report = drift_report(traj, integrals)
        assert all(v <= 1e-9 for v in report.values())

        # constant observable drifts by exactly zero
        class Const:
            def items(self):
                return [("one", lambda s: 1.0)]

        assert drift_report(traj, Const())["one"] == 0.0

        # perturbing an integral coefficient must blow the drift up
        scale = (inertia.diag[:3] + inertia.diag[3]) / pot.b[:3]

        def wrong(s):
            col = s.omega.mat[:3, 3]
            return float(1.01 * scale[0] * col[0] - scale[1] * col[1])

        class Wrong:
            def items(self):
                return [("wrong", wrong)]

        assert drift_report(traj, Wrong())["wrong"] > 1e-4


class TestCsv:
    def test_format_and_determinism(self, tmp_path):
        n = 3
        inertia = MassTensor(diag=[1.0, 2.0, 3.0])
        pot = ZeroPotential()
        spec = CaseSpec(CaseKind.SUSLOV_FREE, n, inertia, pot)
        field, constraints = build_field(spec)
        state0 = canonical_state([1.0, 0.2], [0.0, 0.6, 0.8])
        cfg = IntegratorConfig(method="rk4", step=0.01)
        traj = integrate(field, state0, (0.0, 1.0), cfg, output_dt=0.1,
                         inertia=inertia, potential=pot,
                         constraints=constraints)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_csv(traj, p1)
        write_csv(traj, p2)
        text = p1.read_text()
        assert text == p2.read_text()
        header = text.splitlines()[0]
        assert header == (
            "t,Omega_1_2,Omega_1_3,Omega_2_3,Gamma_1,Gamma_2,Gamma_3,"
            "E,constraint_residual,gamma_norm_err"
        )
        assert len(text.splitlines()) == len(traj) + 1
        # 17 significant digits survive a round trip
        row = text.splitlines()[2].split(",")
        assert float(row[0]) == traj.times[1]

    def test_missing_diagnostics_rejected(self, tmp_path):
        s = canonical_state([1.0, 0.0], [0.0, 0.0, 1.0])
        traj = Trajectory(times=[0.0, 1.0], states=[s, s], aux={})
        with pytest.raises(ValueError, match="diagnostics"):
            write_csv(traj, tmp_path / "x.csv")
