import dataclasses
import math
import pathlib

import numpy as np
import pytest

from conftest import (
    bits,
    canonical_state,
    closed_form_period,
    random_canonical_state,
    states_trajectory,
)
from suslov import _dop853, cli
from suslov.algebra import ConstraintSet, layout, unpack
from suslov.cases import CaseKind, CaseSpec, build_field, first_integrals
from suslov.cli import load_config
from suslov.integrate import (
    MAX_OUTPUT_INTERVALS,
    IntegrationError,
    IntegratorConfig,
    IntegratorStats,
    Trajectory,
    _DOP853,
    _DP5,
    _DP_E,
    _DP_P,
    _adaptive_solve,
    _cubic,
    _dp5_dense,
    _fill_stages,
    _restep,
    _rk4_solve,
    _stage_array,
    detect_period,
    drift_report,
    integrate,
    reparametrize,
    solve_adaptive_rk45,
    state_field,
    write_csv,
)
from suslov.model import (
    BodyState,
    LinearPotential,
    MassTensor,
    ZeroPotential,
    energies,
    pack_state,
)

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


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

        def f(y):
            return mat @ y

        y0 = np.array([1.0, 0.0])
        t_grid = np.linspace(0.0, 2.0, 3)
        from scipy.linalg import expm

        exact = expm(2.0 * mat) @ y0

        errs = []
        for step in (0.02, 0.01):
            ys, _ = _rk4_solve(f, y0, t_grid, step, None, 10**8)
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

    def test_subnormal_rk4_step_stops_at_max_steps(self):
        # (b - a) / step overflows to inf; the substep count must not crash
        # its conversion to int
        _, _, field, _ = make_free_case()
        state0 = canonical_state([1.0, 0.0], [0.0, 0.6, 0.8])
        cfg = IntegratorConfig(method="rk4", step=5e-324, max_steps=10)
        with pytest.raises(IntegrationError, match="max_steps") as err:
            integrate(field, state0, (0.0, 0.1), cfg, output_dt=0.1)
        assert err.value.attempts == 11

    def test_max_steps_exceeded(self):
        _, _, field, _ = make_free_case()
        state0 = canonical_state([1.0, 0.0], [0.0, 0.6, 0.8])
        cfg = IntegratorConfig(method="rk4", step=1e-4, max_steps=10)
        with pytest.raises(IntegrationError, match="max_steps") as err:
            integrate(field, state0, (0.0, 1.0), cfg, output_dt=1.0)
        assert err.value.attempts == 11
        assert err.value.h == pytest.approx(1e-4)

    def test_step_underflow_reports_last_valid_time(self):
        # a field turning non-finite forces endless rejections; the stepper
        # must shrink to underflow and report where it stopped
        def f(y):
            if y[0] > 0.5:  # y = t along y' = 1
                return np.array([math.nan])
            return np.array([1.0])

        with pytest.raises(IntegrationError, match="underflow") as err:
            solve_adaptive_rk45(f, np.array([0.0]), [0.0, 1.0], 1e-10, 1e-12)
        assert 0.0 <= err.value.t_last <= 0.6
        assert 0.0 < err.value.h < 1e-12
        assert err.value.attempts > 0
        # y' = 1 from y = 0: the last accepted point is y = t_last
        assert err.value.y_last[0] == pytest.approx(err.value.t_last, abs=1e-12)

    def test_one_point_grid_takes_no_step(self):
        y0 = np.array([1.0, 2.0])
        ys = solve_adaptive_rk45(lambda y: -y, y0, [0.0], 1e-10, 1e-12)
        assert np.array_equal(ys, [y0])
        _, stats, steps = _adaptive_solve(_DP5, lambda y: y, y0, [0.0],
                                          1e-10, 1e-12, None, None, 10)
        assert stats == IntegratorStats(0, 0, 1, math.inf, 0.0, 0.0)
        assert steps.shape == (0, 4)


# Dormand-Prince 5(4), one stage at a time, as a reference for the
# stage-matrix stepper
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


def reference_dp5_step(f, y, h):
    k = [f(y)]
    for s in range(1, 7):
        ys = y + h * sum(a * ks for a, ks in zip(_REF_A[s], k))
        k.append(f(ys))
    y5 = y + h * sum(b * ks for b, ks in zip(_REF_B5, k))
    y4 = y + h * sum(b * ks for b, ks in zip(_REF_B4, k))
    return y5, y5 - y4


def dp5_step(f, y, h):
    """One Dormand-Prince 5(4) step of the stage-matrix stepper: ``K``, the
    5th-order solution and its error estimate."""
    K, terms = _stage_array(_DP5, y.size)
    K[0] = f(y)
    _, y5 = _fill_stages(f, y.tolist(), h, K, terms, 1, 7)
    return K, np.array(y5), h * (_DP_E @ K)


class TestRk45Step:
    def setup_method(self):
        rng = np.random.default_rng(12)
        self.mat = rng.normal(size=(6, 6)) / np.sqrt(6.0)
        self.y0 = rng.normal(size=6)

    def f(self, y):
        return self.mat @ y + np.sin(y)

    def test_matches_per_stage_reference(self):
        for h in (0.3, 0.05, 1e-3):
            _, y5, err = dp5_step(self.f, self.y0, h)
            y5_ref, err_ref = reference_dp5_step(self.f, self.y0, h)
            assert np.max(np.abs(y5 - y5_ref)) <= 1e-15 * np.max(np.abs(y5_ref))
            assert np.max(np.abs(err - err_ref)) <= 1e-15 * np.max(np.abs(y5_ref))

    def test_error_estimate_and_local_error_orders(self):
        from scipy.linalg import expm

        mat = self.mat

        def f(y):
            return mat @ y

        hs = [0.2, 0.1, 0.05]
        est, local = [], []
        for h in hs:
            _, y5, err = dp5_step(f, self.y0, h)
            est.append(np.linalg.norm(err))
            local.append(np.linalg.norm(y5 - expm(h * mat) @ self.y0))
        for i in range(len(hs) - 1):
            # the embedded 4th-order solution errs by O(h^5), y5 by O(h^6)
            assert abs(math.log2(est[i] / est[i + 1]) - 5.0) <= 0.3
            assert abs(math.log2(local[i] / local[i + 1]) - 6.0) <= 0.3


class TestDenseOutput:
    lam = np.array([-0.8, 1.3])
    y0 = np.array([1.0, 0.5])

    def f(self, y):
        return self.lam * y

    def test_interpolant_matches_step_endpoints(self):
        for h in (0.4, 0.05):
            K, y5, _ = dp5_step(self.f, self.y0, h)
            ends = _dp5_dense(self.y0, h, K, None)([0.0, 1.0])
            assert np.array_equal(ends[0], self.y0)
            assert np.max(np.abs(ends[1] - y5)) <= 1e-15 * np.max(np.abs(y5))

    def test_mid_step_error_is_fifth_order(self):
        errs = []
        hs = [0.1, 0.05, 0.025]
        for h in hs:
            K, _, _ = dp5_step(self.f, self.y0, h)
            mid = _dp5_dense(self.y0, h, K, None)([0.5])[0]
            errs.append(np.linalg.norm(mid - np.exp(0.5 * h * self.lam) * self.y0))
        for i in range(len(hs) - 1):
            assert abs(math.log2(errs[i] / errs[i + 1]) - 5.0) <= 0.3


def dop853_step(f, y, h):
    """All 16 stages of one DOP853 step, the solution's stage sum ``dv``
    and the 8th-order solution."""
    K, terms = _stage_array(_DOP853, y.size)
    K[0] = f(y)
    dv, y_new = _fill_stages(f, y.tolist(), h, K, terms, 1, 13)
    _fill_stages(f, y.tolist(), h, K, terms, 13, 16)
    return K, dv, np.array(y_new)


class TestDop853:
    def test_tableau_equals_scipy_bit_for_bit(self):
        from scipy.integrate._ivp import dop853_coefficients as ref

        assert _dop853.N_STAGES == ref.N_STAGES == 12
        for name in ("A", "B", "C", "E3", "E5", "D"):
            ours, theirs = getattr(_dop853, name), getattr(ref, name)
            assert ours.shape == theirs.shape
            assert np.array_equal(bits(ours), bits(theirs)), name
            assert not ours.flags.writeable
        # the stepper uses that data: B is row 12 of A, the stage at the new
        # point (c = 1)
        assert len(_DOP853.rows) == 16 and _DOP853.stages == 12
        for row, ref_row in zip(_DOP853.rows, _dop853.A):
            assert np.array_equal(bits(row), bits(ref_row[: row.size]))
        assert np.array_equal(bits(_DOP853.rows[12]), bits(_dop853.B))
        assert _dop853.C[12] == 1.0

    def test_local_error_is_ninth_order(self):
        from scipy.linalg import expm

        rng = np.random.default_rng(12)
        mat = rng.normal(size=(6, 6)) / np.sqrt(6.0)
        y0 = rng.normal(size=6)

        def f(y):
            return mat @ y

        hs = [1.0, 0.5, 0.25]
        local = []
        for h in hs:
            _, _, y_new = dop853_step(f, y0, h)
            local.append(np.linalg.norm(y_new - expm(h * mat) @ y0))
        for i in range(len(hs) - 1):
            assert abs(math.log2(local[i] / local[i + 1]) - 9.0) <= 0.3

    lam = np.array([-0.8, 1.3])
    y0 = np.array([1.0, 0.5])

    def f(self, y):
        return self.lam * y

    def test_interpolant_matches_step_endpoints(self):
        for h in (1.0, 0.4, 0.05):
            K, dv, y_new = dop853_step(self.f, self.y0, h)
            ends = _DOP853.dense(self.y0, h, K, dv)([0.0, 1.0])
            assert np.array_equal(ends[0], self.y0)
            assert np.max(np.abs(ends[1] - y_new)) <= 1e-15 * np.max(np.abs(y_new))

    def test_mid_step_error_is_eighth_order(self):
        errs = []
        hs = [1.0, 0.5, 0.25]
        for h in hs:
            K, dv, _ = dop853_step(self.f, self.y0, h)
            mid = _DOP853.dense(self.y0, h, K, dv)([0.5])[0]
            errs.append(np.linalg.norm(mid - np.exp(0.5 * h * self.lam) * self.y0))
        for i in range(len(hs) - 1):
            assert abs(math.log2(errs[i] / errs[i + 1]) - 8.0) <= 0.3

    def test_default_method(self):
        assert IntegratorConfig().method == "dop853"
        with pytest.raises(ValueError, match="unknown method"):
            IntegratorConfig(method="dop54")


class TestFreeRunningSteps:
    def setup_method(self):
        n = 4
        rng = np.random.default_rng(21)
        inertia = MassTensor(diag=0.5 + rng.random(n) * 2.0)
        pot = LinearPotential(np.array([0.4, -0.7, 0.2, 0.0]))
        spec = CaseSpec(CaseKind.KHARLAMOVA_ND, n, inertia, pot)
        self.field, _ = build_field(spec)
        self.state0 = random_canonical_state(rng, n)
        self.calls = 0

    def counted(self, state):
        self.calls += 1
        return self.field(state)

    @pytest.mark.parametrize("method", ["rk45", "dop853"])
    def test_steps_do_not_depend_on_output_grid(self, method):
        cfg = IntegratorConfig(method=method, rel_tol=1e-10, abs_tol=1e-12)
        coarse = integrate(self.field, self.state0, (0.0, 10.0), cfg,
                           output_dt=0.25)
        fine = integrate(self.field, self.state0, (0.0, 10.0), cfg,
                         output_dt=0.02)
        assert coarse.stats == fine.stats
        # every 0.5 time units both grids hold the same time
        assert np.array_equal(coarse.times[::2], fine.times[::25])
        for a, b in zip(coarse.states[::2], fine.states[::25]):
            assert np.max(np.abs(a.omega.mat - b.omega.mat)) <= 1e-14
            assert np.max(np.abs(a.gamma - b.gamma)) <= 1e-14

    @pytest.mark.parametrize("step", [1e-2, 2.0])
    def test_first_same_as_last_saves_a_call(self, step):
        # a 2.0 first trial step is rejected, and the retry reuses K[0]
        cfg = IntegratorConfig(method="rk45", step=step, rel_tol=1e-10,
                               abs_tol=1e-12)
        traj = integrate(self.counted, self.state0, (0.0, 10.0), cfg,
                         output_dt=0.5)
        st = traj.stats
        assert st.rhs_evals == self.calls == 6 * (st.accepted + st.rejected) + 1
        if step == 2.0:
            assert st.rejected > 0
        assert 0.0 < st.h_min <= st.h_last and st.h_min <= st.h_max

    @pytest.mark.parametrize("step", [1e-2, 2.0])
    def test_dop853_counts_every_field_call(self, step):
        # 12 calls per attempt, 3 dense-output stages per accepted step and
        # one for the start; a 2.0 first trial step is rejected
        cfg = IntegratorConfig(method="dop853", step=step, rel_tol=1e-10,
                               abs_tol=1e-12)
        traj = integrate(self.counted, self.state0, (0.0, 10.0), cfg,
                         output_dt=0.5)
        st = traj.stats
        attempts = st.accepted + st.rejected
        assert st.rhs_evals == 12 * attempts + 3 * st.accepted + 1 == self.calls
        if step == 2.0:
            assert st.rejected > 0

    @pytest.mark.parametrize("npts", [3, 2001])
    def test_every_grid_time_sampled(self, npts):
        # harmonic oscillator: grids coarser and finer than the ~0.1 steps
        def f(y):
            return np.array([y[1], -y[0]])

        t_grid = np.linspace(0.0, 20.0, npts)
        ys = solve_adaptive_rk45(f, np.array([1.0, 0.0]), t_grid, 1e-10, 1e-12)
        assert ys.shape == (npts, 2)
        assert np.all(np.isfinite(ys))
        exact = np.stack([np.cos(t_grid), -np.sin(t_grid)], axis=1)
        assert np.max(np.abs(ys - exact)) <= 1e-8


def _ref_dp5_dense(y, h, K, x):
    """DP5's free 4th-order interpolant on an array of step fractions."""
    return y + h * ((x[:, None] ** np.arange(1, 5)) @ (_DP_P.T @ K))


def _ref_dop853_norm(K, h, scale):
    """The blended DOP853 error norm, with ``@`` for every product."""
    e5 = (_dop853.E5 @ K[:13]) / scale
    e3 = (_dop853.E3 @ K[:13]) / scale
    n5, n3 = float(e5 @ e5), float(e3 @ e3)
    if n5 == 0.0 and n3 == 0.0:
        return 0.0
    return abs(h) * n5 / math.sqrt((n5 + 0.01 * n3) * scale.size)


def _ref_dop853_dense(y, h, K, x):
    """The DOP853 interpolant on an array of step fractions, with its
    increment recomputed and its weights from ``np.cumprod``."""
    dy = h * (_dop853.B @ K[:12])
    F = np.empty((7, y.size))
    F[0] = dy
    F[1] = h * K[0] - dy
    F[2] = 2.0 * dy - h * (K[12] + K[0])
    F[3:] = h * (_dop853.D @ K)
    w = np.empty((x.size, 7))
    w[:, 0::2] = x[:, None]
    w[:, 1::2] = 1.0 - x[:, None]
    return y + np.cumprod(w, axis=1) @ F


# each method's tableau (its own copy for DP5, the coefficient data for
# DOP853), stage count, step exponent, error norm and interpolant
_REF_PAIRS = {
    "rk45": ([np.array(row) for row in _REF_A], 6, -1.0 / 5.0,
             lambda K, h, scale: float(np.sqrt(np.mean((h * (_DP_E @ K) / scale) ** 2))),
             _ref_dp5_dense),
    "dop853": ([_dop853.A[s, :s] for s in range(16)], 12, -1.0 / 8.0,
               _ref_dop853_norm, _ref_dop853_dense),
}


def reference_adaptive_solve(method, f, y0, t_grid, rel_tol, abs_tol, h0, k,
                             max_steps=IntegratorConfig().max_steps):
    """Oracle: the adaptive loop on arrays, sharing no step code with the
    library.  ``f`` gets every point as an array; each stage
    input is ``y + h * np.dot(A[s, :s], K[:s])`` on arrays; the grid is
    searched with ``np.searchsorted`` on numpy scalars; each step's block
    of samples is renormalized on a copy as soon as it is interpolated (no
    renormalization when ``k`` is None); the DP5 norm goes through
    ``np.mean``.  Failures raise ``IntegrationError`` as the library
    does."""
    rows, S, exponent, error_norm, dense = _REF_PAIRS[method]

    def post(y):
        if k is None:
            return y
        nrm = np.sqrt(np.vecdot(y[..., k:], y[..., k:]))[..., None]
        y = y.copy()
        y[..., k:] /= np.where(nrm > 0, nrm, 1.0)
        return y

    def stages(y, h, K, start, stop):
        for s in range(start, stop):
            ys = y + h * np.dot(rows[s], K[:s])
            K[s] = f(ys)
        return ys

    ys = np.empty((t_grid.size, y0.size))
    ys[0] = y = y0
    t, t_end = t_grid[0], t_grid[-1]
    if h0 is None:
        h0 = min((t_end - t) / 100.0, t_grid[1] - t)
    h = h0
    land = 1e-14 * max(1.0, abs(t_end))
    extra = len(rows) - S - 1
    k0 = f(y)
    nxt = 1
    accepted = attempts = 0
    h_min, h_max, h_last = math.inf, 0.0, 0.0
    while t < t_end:
        last = t + h >= t_end - land
        if last:
            h = t_end - t
        if h < 16.0 * np.finfo(float).eps * max(1.0, abs(t)):
            raise IntegrationError("step size underflow", t, h, attempts, y)
        K = np.empty((len(rows), y.size))
        K[0] = k0
        y_new = stages(y, h, K, 1, S + 1)
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = error_norm(K, h, scale)
        if not math.isfinite(err_norm):
            err_norm = math.inf
        attempts += 1
        if err_norm <= 1.0:
            if extra:
                stages(y, h, K, S + 1, S + 1 + extra)
            t_new = t_end if last else t + h
            if t_grid[nxt] <= t_new:
                stop = t_grid.size if last else int(
                    np.searchsorted(t_grid, t_new, side="right"))
                ys[nxt:stop] = post(dense(y, h, K, (t_grid[nxt:stop] - t) / h))
                nxt = stop
            accepted += 1
            h_min, h_max, h_last = min(h_min, h), max(h_max, h), h
            t, y, k0 = t_new, post(y_new), K[S]
        if attempts > max_steps:
            raise IntegrationError("max_steps exceeded", t, h, attempts, y)
        factor = 5.0 if err_norm == 0.0 else min(
            5.0, max(0.2, 0.9 * err_norm ** exponent))
        h = h * factor
    stats = IntegratorStats(accepted, attempts - accepted,
                            S * attempts + extra * accepted + 1,
                            float(h_min), float(h_max), float(h_last))
    return ys, stats


def scenario_run(scenario, method):
    """A scenario's case, start, config and constraints, cut to t = 20."""
    config = load_config(SCENARIO_DIR / f"{scenario}.cfg", {"t_end": 20.0})
    cfg = dataclasses.replace(config.integrator, method=method)
    spec = config.case_spec
    return spec, config, cfg, build_field(spec)


def failing_after(field, kth, value):
    """``field`` until its ``kth`` call, then a point of ``value``s, an
    array or a list as it was given."""
    calls = [0]

    def f(y):
        calls[0] += 1
        if calls[0] < kth:
            return field(y)
        out = [value] * len(y)
        return np.array(out) if isinstance(y, np.ndarray) else out

    return f


def assert_same_failure(run, reference):
    with pytest.raises(IntegrationError) as got:
        run()
    with pytest.raises(IntegrationError) as ref:
        reference()
    got, ref = got.value, ref.value
    assert str(got) == str(ref)
    assert (got.t_last, got.h, got.attempts) == (ref.t_last, ref.h, ref.attempts)
    assert np.array_equal(bits(got.y_last), bits(ref.y_last))


SCENARIOS = sorted(p.stem for p in SCENARIO_DIR.glob("*.cfg"))


class TestStepLoopBits:
    """The adaptive loop hands fields Python floats, forms stage inputs and
    the error scale on floats, reuses the step's increment in the DOP853
    interpolant, renormalizes each step endpoint in place and all the
    interpolated samples in one pass after the loop, and walks the grid on
    Python floats; every sample, diagnostic, counter and failure keeps the
    bits of the array loop of ``reference_adaptive_solve``."""

    @pytest.mark.parametrize("method", ["dop853", "rk45"])
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_matches_per_step_reference(self, scenario, method):
        spec, config, cfg, (field, constraints) = scenario_run(scenario, method)
        state0 = config.initial_state
        traj = integrate(field, state0, (0.0, config.t_end), cfg,
                         output_dt=config.output_dt, inertia=spec.inertia,
                         potential=spec.potential, constraints=constraints)
        k = layout(spec.n).k
        ys, stats = reference_adaptive_solve(
            method, field, pack_state(state0.omega, state0.gamma),
            traj.times, cfg.rel_tol, cfg.abs_tol, cfg.step, k,
        )
        assert stats == traj.stats
        assert stats.accepted > 50 and len(traj) > 50
        assert np.array_equal(bits(traj.ys), bits(ys))
        aux = traj.aux
        gamma_norm = np.sqrt(np.vecdot(ys[:, k:], ys[:, k:]))
        assert np.array_equal(bits(aux["gamma_norm_err"]), bits(np.abs(gamma_norm - 1.0)))
        assert np.array_equal(bits(aux["energy"]),
                              bits(energies(ys, spec.inertia, spec.potential)))
        residual = np.max(np.abs(ys[:, :k] @ constraints.rows.T), axis=1)
        assert np.array_equal(bits(aux["constraint_residual"]), bits(residual))

    @pytest.mark.parametrize("method", ["dop853", "rk45"])
    def test_state_field_matches_reference(self, method):
        from suslov.model import QuadraticPotential, general_field

        n = 4
        rng = np.random.default_rng(41)
        inertia = MassTensor(diag=1.0 + 2.0 * rng.random(n))
        pot = QuadraticPotential(rng.normal(size=n))
        field = state_field(
            general_field(inertia, pot, ConstraintSet.canonical_suslov(n)), n)
        state0 = random_canonical_state(rng, n, speed=0.6)
        cfg = IntegratorConfig(method=method, rel_tol=1e-10, abs_tol=1e-12)
        traj = integrate(field, state0, (0.0, 10.0), cfg, output_dt=0.1)
        ys, stats = reference_adaptive_solve(
            method, field, pack_state(state0.omega, state0.gamma), traj.times,
            cfg.rel_tol, cfg.abs_tol, cfg.step, layout(n).k,
        )
        assert stats == traj.stats and stats.accepted > 20
        assert np.array_equal(bits(traj.ys), bits(ys))

    def test_solve_adaptive_rk45_matches_reference(self):
        # a damped nonlinear system on a plain vector, not a body state
        rng = np.random.default_rng(12)
        mat = rng.normal(size=(5, 5)) / np.sqrt(5.0) - 0.1 * np.eye(5)
        seen = []

        def f(y):
            seen.append(type(y))
            return mat @ y + 0.3 * np.sin(y)

        y0 = rng.normal(size=5)
        t_grid = np.linspace(0.0, 15.0, 301)
        got = solve_adaptive_rk45(f, y0, t_grid, 1e-10, 1e-12)
        assert set(seen) == {np.ndarray}
        ref, stats = reference_adaptive_solve(
            "rk45", f, y0, t_grid, 1e-10, 1e-12, None, None)
        assert stats.accepted > 50
        assert np.array_equal(bits(got), bits(ref))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("method", ["dop853", "rk45"])
    def test_non_finite_field_fails_as_reference(self, method, value):
        spec, config, cfg, (field, _) = scenario_run("gyroscopic_3d", method)
        state0 = config.initial_state
        kth = 500  # well into the run, on a stage of some step
        assert_same_failure(
            lambda: integrate(failing_after(field, kth, value), state0,
                              (0.0, config.t_end), cfg,
                              output_dt=config.output_dt),
            lambda: reference_adaptive_solve(
                method, failing_after(field, kth, value),
                pack_state(state0.omega, state0.gamma),
                integrate(field, state0, (0.0, config.t_end), cfg,
                          output_dt=config.output_dt).times,
                cfg.rel_tol, cfg.abs_tol, cfg.step, layout(spec.n).k),
        )

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_solve_adaptive_rk45_non_finite_fails_as_reference(self, value):
        def f(y):
            return np.array([y[1], -y[0]])

        y0, t_grid = np.array([1.0, 0.0]), np.linspace(0.0, 10.0, 11)
        assert_same_failure(
            lambda: solve_adaptive_rk45(failing_after(f, 40, value), y0,
                                        t_grid, 1e-10, 1e-12),
            lambda: reference_adaptive_solve(
                "rk45", failing_after(f, 40, value), y0, t_grid, 1e-10,
                1e-12, None, None),
        )


class TestErrorScale:
    def test_error_scale_has_the_bits_of_np_maximum(self):
        from suslov.integrate import _error_scale

        rng = np.random.default_rng(5)
        special = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0]
        y = np.concatenate([rng.normal(size=200), np.repeat(special, 8)])
        y_new = np.concatenate([rng.normal(size=200), np.tile(special, 8)])
        got = _error_scale(y.tolist(), y_new.tolist(), 1e-12, 1e-10)
        ref = 1e-12 + 1e-10 * np.maximum(np.abs(y), np.abs(y_new))
        assert np.array_equal(np.isnan(got), np.isnan(ref))
        keep = ~np.isnan(ref)
        assert np.array_equal(bits(got[keep]), bits(ref[keep]))


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

    @pytest.mark.parametrize("value", [math.nan, 1.5, 10.0, 0, -3],
                             ids=["nan", "fraction", "float", "zero", "negative"])
    def test_max_steps_must_be_a_positive_int(self, value):
        # a NaN limit never trips `attempts > max_steps`: the limit would
        # be silently off
        with pytest.raises(ValueError, match="max_steps must be a positive int"):
            IntegratorConfig(max_steps=value)

    def test_max_steps_takes_ints(self):
        assert IntegratorConfig(max_steps=10).max_steps == 10
        assert IntegratorConfig(max_steps=np.int64(7)).max_steps == 7


class TestIntegrateArguments:
    """``integrate`` rejects a span or an output step it cannot sample, with
    a ``ValueError`` naming the argument."""

    @pytest.mark.parametrize(
        "t_span", [(0.0, math.inf), (0.0, math.nan), (-math.inf, 1.0),
                   (math.nan, 1.0), (1.0, 1.0), (1.0, 0.0)],
        ids=["inf", "nan", "-inf_start", "nan_start", "empty", "reversed"],
    )
    def test_span_must_be_finite_and_increasing(self, t_span):
        _, _, field, _ = make_free_case()
        state0 = canonical_state([0.7, -0.3], [0.0, 0.6, 0.8])
        for method in ("rk4", "dop853"):
            with pytest.raises(ValueError, match="t_span"):
                integrate(field, state0, t_span, IntegratorConfig(method=method))

    @pytest.mark.parametrize("output_dt", [0.0, -0.1, math.nan, math.inf, -math.inf],
                             ids=["zero", "negative", "nan", "inf", "-inf"])
    def test_output_dt_must_be_positive_and_finite(self, output_dt):
        _, _, field, _ = make_free_case()
        state0 = canonical_state([0.7, -0.3], [0.0, 0.6, 0.8])
        for method in ("rk4", "dop853"):
            with pytest.raises(ValueError, match="output_dt must be positive and finite"):
                integrate(field, state0, (0.0, 1.0), IntegratorConfig(method=method),
                          output_dt=output_dt)

    @pytest.mark.parametrize("output_dt", [1e-300, 1.0 / (MAX_OUTPUT_INTERVALS + 1)],
                             ids=["1e-300", "one_above"])
    def test_output_grid_is_bounded(self, output_dt):
        # rejected before the output rows are allocated; the CLI checks the
        # same bound at load time, naming the config keys
        _, _, field, _ = make_free_case()
        state0 = canonical_state([0.7, -0.3], [0.0, 0.6, 0.8])
        for method in ("rk4", "dop853"):
            with pytest.raises(ValueError, match=r"output_dt = .* output intervals; "
                               r"at most 1000000 are allowed"):
                integrate(field, state0, (0.0, 1.0), IntegratorConfig(method=method),
                          output_dt=output_dt)
        assert cli.MAX_OUTPUT_INTERVALS is MAX_OUTPUT_INTERVALS


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
            states_trajectory([0.0, 0.0], [s, s])
        with pytest.raises(ValueError, match="lengths"):
            states_trajectory([0.0, 1.0], [s])

    def test_states_are_read_only_views_of_one_block(self):
        n, k = 4, 6
        rng = np.random.default_rng(8)
        samples = rng.normal(size=(40, k + n))
        traj = Trajectory(np.arange(40.0), samples)
        states = traj.states
        assert states is traj.states and len(states) == 40
        block = states[0].omega.mat.base
        for s, row in zip(states, traj.ys):
            assert s.n == s.omega.n == n
            assert np.array_equal(s.omega.mat, unpack(row[:k], n).mat)
            assert np.array_equal(s.gamma, row[k:])
            assert s.omega.mat.base is block
            assert np.shares_memory(s.gamma, traj.ys)
            for arr in (s.omega.mat, s.gamma):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 1.0
        assert block.shape == (40, n * n)
        assert samples.flags.writeable  # the caller's array is left alone


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
        traj = integrate(state_field(field, n), state0, (0.0, 100.0), cfg,
                         output_dt=0.5, inertia=inertia, potential=pot,
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
        return states_trajectory(times, states, aux={})

    @staticmethod
    def _phi(y):
        return y[..., 1]  # Omega_13, the second packed entry at n = 3

    def test_identity_for_unit_observable(self):
        traj = self._traj(np.ones(11))
        out = reparametrize(traj, self._phi)
        assert np.allclose(out.times, traj.times)

    def test_constant_scaling(self):
        traj = self._traj(2.0 * np.ones(11))
        out = reparametrize(traj, self._phi)
        assert np.allclose(out.times, 2.0 * traj.times)

    def test_second_order_in_the_sample_step(self):
        # Phi(t) = 1.5 + 0.5 sin t gives tau(T) = 1.5 T + 0.5 (1 - cos T);
        # halving the sample step cuts the error about 4x
        big_t = 6.0
        exact = 1.5 * big_t + 0.5 * (1.0 - np.cos(big_t))
        errors = []
        for dt in (0.05, 0.025):
            times = dt * np.arange(round(big_t / dt) + 1)
            out = reparametrize(self._traj(1.5 + 0.5 * np.sin(times), dt=dt), self._phi)
            errors.append(abs(out.times[-1] - exact))
        assert 3.9 < errors[0] / errors[1] < 4.1

    def test_round_trip_negative_observable(self):
        vals = -1.0 - 0.3 * np.cos(np.linspace(0, 4, 120))
        traj = self._traj(vals, dt=0.05)
        out = reparametrize(traj, self._phi)
        assert np.all(np.diff(out.times) > 0)

    def test_sign_change_rejected(self):
        vals = np.linspace(1.0, -1.0, 21)
        traj = self._traj(vals)
        with pytest.raises(ValueError, match="sign"):
            reparametrize(traj, self._phi)


def old_inverse_cubic(x, g):
    """Oracle: ``detect_period``'s first guess as it was written before the
    cubic took its abscissae as an argument."""
    try:
        return sum(xj * math.prod(gm / (gm - gj) for gm in g[:j] + g[j + 1:])
                   for j, (xj, gj) in enumerate(zip(x, g)))
    except ZeroDivisionError:
        return math.nan


class TestCubic:
    def test_exact_at_the_nodes(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x, y = rng.normal(size=4).tolist(), rng.normal(size=4).tolist()
            assert [_cubic(x, y, xj) for xj in x] == y

    def test_reproduces_a_cubic(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            c = rng.normal(size=4)
            x = np.sort(rng.random(4)) + np.arange(4)  # spread over [0, 4)
            at = rng.uniform(-1.0, 5.0, size=5)
            y = np.polynomial.polynomial.polyval(x, c).tolist()
            got = [_cubic(x.tolist(), y, a) for a in at.tolist()]
            assert np.allclose(got, np.polynomial.polynomial.polyval(at, c),
                               rtol=1e-11, atol=1e-11)

    def test_inverse_has_the_bits_of_the_old_first_guess(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            x = np.sort(rng.random(4)).tolist()
            g = (np.sort(rng.normal(size=4)) - rng.normal()).tolist()
            assert bits(_cubic(g, x, 0.0)) == bits(old_inverse_cubic(x, g))

    def test_equal_abscissae_give_nan(self):
        assert math.isnan(_cubic([0.0, 0.5, 0.5, 1.0], [1.0, 2.0, 3.0, 4.0], 0.2))


class TestDetectPeriod:
    def _sine_traj(self, omega, t_end, npts, phase=0.0):
        times = np.linspace(0.0, t_end, npts)
        states = [
            canonical_state([math.sin(omega * t + phase), 0.0], [0.0, 0.0, 1.0])
            for t in times
        ]
        return states_trajectory(times, states, aux={})

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
        traj = integrate(state_field(field, 3), state0, (0.0, 120.0), cfg,
                         output_dt=0.1)
        assert detect_period(traj, lambda s: s.omega.mat[0, 2]) is None

    @pytest.mark.parametrize("method, bound", [("dop853", 1e-10), ("rk45", 1e-9)])
    def test_main_run_of_kharlamova_period_n3(self, method, bound):
        # the scenario's own run (output_dt 0.1, t_end 60 = 5.5 T): each
        # crossing is located on the stepper's interpolant, so the period
        # is as close as the integration allows; a cubic fit through the
        # samples reads 1.6e-9 under dop853
        t, t_quad = kharlamova_period_n3_measured(method, 0.1)
        assert abs(t - t_quad) <= bound * t_quad

    @pytest.mark.parametrize("method, bound", [("dop853", 1e-10), ("rk45", 1e-9)])
    def test_two_samples_fall_back_on_the_step_starts(self, method, bound):
        # with output_dt = t_end the two samples bracket no crossing, so
        # the knots are the starts of the accepted steps
        t, t_quad = kharlamova_period_n3_measured(method, 60.0)
        assert abs(t - t_quad) <= bound * t_quad

    @pytest.mark.parametrize("method, bound", [("dop853", 1e-10), ("rk45", 1e-9)])
    def test_a_grid_that_aliases_the_period(self, method, bound):
        # one sample a period over 60 T (61 samples, 3,431 dop853 steps):
        # every sample reads the same phase, so the samples bracket no
        # crossing, while the step starts bracket each one
        t, t_quad = kharlamova_period_n3_measured(method, 1.0, periods=60)
        assert t is not None and abs(t - t_quad) <= bound * t_quad


def kharlamova_period_n3_measured(method, output_dt, periods=None):
    """``detect_period`` of Omega_13 on the run of ``kharlamova_period_n3``
    under ``method``, sampled every ``output_dt``, and the closed-form
    period ``T``.  The run spans the scenario's ``t_end`` or, given
    ``periods``, that many periods, with ``output_dt`` then in periods
    too."""
    config = load_config(SCENARIO_DIR / "kharlamova_period_n3.cfg")
    cfg = dataclasses.replace(config.integrator, method=method)
    t_quad, t_end = closed_form_period(config), config.t_end
    if periods is not None:
        t_end, output_dt = periods * t_quad, output_dt * t_quad
    traj = integrate(build_field(config.case_spec)[0], config.initial_state,
                     (0.0, t_end), cfg, output_dt=output_dt)
    return detect_period(traj, lambda s: s.omega.mat[0, 2]), t_quad


class TestStepRecords:
    @pytest.mark.parametrize("method", ["dop853", "rk45"])
    def test_a_step_evaluated_again_gives_its_samples_bit_for_bit(self, method):
        # without renormalization the stepper's first stage is f at the
        # recorded start, so each step's stages come back with their bits
        spec, config, cfg, (field, _) = scenario_run("kharlamova_period_n3", method)
        cfg = dataclasses.replace(cfg, renormalize_gamma=False)
        traj = integrate(field, config.initial_state, (0.0, config.t_end), cfg,
                         output_dt=config.output_dt)
        pair, f, rows = traj._steps
        assert len(rows) == traj.stats.accepted
        assert rows[:, 1].max() == traj.stats.h_max
        ends = np.append(rows[1:, 0], traj.times[-1])
        checked = 0
        for row, end in zip(rows, ends):
            inside = (traj.times > row[0]) & (traj.times <= end)
            if inside.any():
                x = ((traj.times[inside] - row[0]) / row[1]).tolist()
                assert np.array_equal(bits(_restep(pair, f, row)(x)),
                                      bits(traj.ys[inside]))
                checked += int(inside.sum())
        assert checked == len(traj) - 1

    def test_only_adaptive_integrations_keep_steps(self):
        spec, config, cfg, (field, _) = scenario_run("kharlamova_period_n3", "rk4")
        traj = integrate(field, config.initial_state, (0.0, 1.0), cfg)
        assert traj._steps is None
        assert reparametrize(traj, lambda y: y[..., -1])._steps is None


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
                return [("one", lambda ys: np.ones(len(ys)))]

        assert drift_report(traj, Const())["one"] == 0.0

        # perturbing an integral coefficient must blow the drift up
        scale = (inertia.diag[:3] + inertia.diag[3]) / pot.b[:3]

        def wrong(ys):
            col = ys[:, layout(n).column]
            return 1.01 * scale[0] * col[:, 0] - scale[1] * col[:, 1]

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
        traj = states_trajectory([0.0, 1.0], [s, s], aux={})
        with pytest.raises(ValueError, match="diagnostics"):
            write_csv(traj, tmp_path / "x.csv")
