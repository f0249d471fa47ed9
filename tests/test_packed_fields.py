"""The packed field contract: ``build_field`` returns ``field(y) -> ydot`` on
the flat coordinates of ``integrate``, equal bit for bit to the case's field
on states taken through pack/unpack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import bits, random_canonical_state, state_from_vec3
from suslov.algebra import layout, pack, skew_to_vector, vector_to_skew
from suslov.cases import _3D_KINDS, CaseKind, CaseSpec, build_field
from suslov.integrate import (
    IntegrationError,
    IntegratorConfig,
    integrate,
    state_field,
)
from suslov.model import (
    DGJPotential,
    LinearPotential,
    MassTensor,
    QuadraticPotential,
    ZeroPotential,
    packed_reduced_field,
    vector_field_3d,
    vector_field_reduced,
)


def dgj_potential():
    return DGJPotential(
        lambda x, y: np.sin(x) + 0.5 * y,
        lambda x, y: (np.cos(x), 0.5),
        lambda x, y: 0.5 * x * x + 0.25 * y * y,
        lambda x, y: (x, 0.5 * y),
    )


def make_spec(kind, n, rng):
    """A valid spec of ``kind`` with random moments and coefficients."""
    diag = 0.5 + 2.0 * rng.random(n)
    b = rng.normal(size=n)
    axis = None
    gyro = 0.0
    if kind is CaseKind.LAGRANGE_ND:
        diag[:-1] = diag[0]
        b[:-1] = 0.0
    elif kind is CaseKind.KHARLAMOVA_ND:
        b[-1] = 0.0
    elif kind is CaseKind.LAGRANGE_3D:
        diag[1] = diag[0]
        b[:2] = 0.0
    elif kind is CaseKind.KHARLAMOVA_3D:
        b[2] = 0.0
    elif kind is CaseKind.CLEBSCH_TISSERAND_3D:
        b = 0.7 * np.array([diag[1] + diag[2], diag[0] + diag[2], diag[0] + diag[1]])
    elif kind is CaseKind.GYROSCOPIC_3D:
        gyro = 0.3
        b[2] = 0.0
    elif kind is CaseKind.SUSLOV_FREE and n == 3:
        axis = rng.normal(size=3)
    pot = {
        CaseKind.SUSLOV_FREE: ZeroPotential(),
        CaseKind.CLEBSCH_TISSERAND_ND: QuadraticPotential(b),
        CaseKind.CLEBSCH_TISSERAND_3D: QuadraticPotential(b),
        CaseKind.DGJ_3D: dgj_potential(),
    }.get(kind, LinearPotential(b))
    return CaseSpec(kind, n, MassTensor(diag=diag), pot, gyro_eps=gyro,
                    constraint_axis=axis)


def state_level_field(spec):
    """The case's field on states, ``state -> (omega_dot, gamma_dot)``."""
    if spec.kind in _3D_KINDS or spec.constraint_axis is not None:
        axis = spec.constraint_axis
        axis = np.array([0.0, 0.0, 1.0]) if axis is None else axis

        def field(state):
            w_dot, g_dot = vector_field_3d(
                skew_to_vector(state.omega), state.gamma, spec.j_diag,
                spec.potential, spec.gyro_eps, axis,
            )
            return vector_to_skew(w_dot), g_dot

        return field
    return lambda state: vector_field_reduced(state, spec.inertia, spec.potential)


# (kind, n): every reduced kind, every 3D kind and the free case with a
# custom axis (drawn for n = 3).  The n = 5-7 entries cover d/dt Gamma_n as
# a left-to-right sum of four or more terms, whose order the state field and
# the packed field must share.
CASES = [
    (CaseKind.SUSLOV_FREE, 4),
    (CaseKind.LAGRANGE_ND, 4),
    (CaseKind.KHARLAMOVA_ND, 3),
    (CaseKind.KHARLAMOVA_ND, 4),
    (CaseKind.CLEBSCH_TISSERAND_ND, 3),
    (CaseKind.CLEBSCH_TISSERAND_ND, 4),
    (CaseKind.CLEBSCH_TISSERAND_ND, 5),
    (CaseKind.CLEBSCH_TISSERAND_ND, 6),
    (CaseKind.CLEBSCH_TISSERAND_ND, 7),
    (CaseKind.LAGRANGE_3D, 3),
    (CaseKind.KHARLAMOVA_3D, 3),
    (CaseKind.CLEBSCH_TISSERAND_3D, 3),
    (CaseKind.DGJ_3D, 3),
    (CaseKind.GYROSCOPIC_3D, 3),
    (CaseKind.SUSLOV_FREE, 3),
]


def pack_state(state):
    return np.concatenate((pack(state.omega), state.gamma))


class TestPackedField:
    @pytest.mark.parametrize("kind, n", CASES, ids=lambda v: getattr(v, "value", v))
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_equals_state_field_bit_for_bit(self, kind, n, seed, data):
        spec = make_spec(kind, n, np.random.default_rng(seed))
        packed, _ = build_field(spec)
        size = n * (n - 1) // 2 + n
        y = data.draw(arrays(np.float64, size,
                             elements=st.floats(-10.0, 10.0, width=64)))
        expected = state_field(state_level_field(spec), n)(y)
        got = packed(y)
        assert got.shape == (size,)
        assert np.array_equal(bits(got), bits(expected))

    @pytest.mark.parametrize("kind, n", CASES, ids=lambda v: getattr(v, "value", v))
    def test_list_in_list_out_with_the_bits_of_the_array_call(self, kind, n):
        # integrate's adaptive loop passes lists of floats; an array in
        # still gives an array out
        rng = np.random.default_rng(17 * n)
        field, _ = build_field(make_spec(kind, n, rng))
        for y in rng.normal(size=(200, n * (n - 1) // 2 + n)):
            from_list, from_array = field(y.tolist()), field(y)
            assert isinstance(from_list, list)
            assert isinstance(from_array, np.ndarray)
            assert np.array_equal(bits(np.array(from_list)), bits(from_array))

    @pytest.mark.parametrize("lead", [(40,), (5, 8)], ids=["rows", "grid"])
    @pytest.mark.parametrize("kind, n", CASES, ids=lambda v: getattr(v, "value", v))
    def test_block_rows_have_the_bits_of_list_calls(self, kind, n, lead):
        # the measure check's charts call the field on blocks of points
        rng = np.random.default_rng(31 * n + len(kind.value))
        field, _ = build_field(make_spec(kind, n, rng))
        ys = rng.normal(size=lead + (n * (n - 1) // 2 + n,))
        ys.reshape(-1, ys.shape[-1])[0] = -0.0  # signed zeros keep their bits too
        block = field(ys)
        assert isinstance(block, np.ndarray) and block.shape == ys.shape
        for idx in np.ndindex(lead):
            assert np.array_equal(bits(block[idx]), bits(np.array(field(ys[idx].tolist()))))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_reduced_field_leaves_block_exactly_zero(self, n):
        rng = np.random.default_rng(n)
        spec = make_spec(CaseKind.CLEBSCH_TISSERAND_ND, n, rng)
        lay = layout(n)
        ydot = build_field(spec)[0](rng.normal(size=lay.k + n))
        block = np.setdiff1d(np.arange(lay.k), lay.column)
        assert np.all(bits(ydot[block]) == 0)  # +0.0 exactly

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 7))
    def test_reduced_forms_share_one_formula(self, seed, n):
        # the packed chart of the measure check, build_field's field and
        # the state field agree bit for bit at every n
        rng = np.random.default_rng(seed)
        spec = make_spec(CaseKind.KHARLAMOVA_ND, n, rng)
        state = random_canonical_state(rng, n)
        lay = layout(n)
        ydot = build_field(spec)[0](pack_state(state))
        f, _ = packed_reduced_field(spec.inertia, spec.potential)
        chart = f(np.concatenate([state.omega.mat[: n - 1, n - 1], state.gamma]))
        assert np.array_equal(bits(chart),
                              bits(np.concatenate([ydot[lay.column],
                                                   ydot[lay.k:]])))
        om_dot, g_dot = vector_field_reduced(state, spec.inertia, spec.potential)
        assert np.array_equal(bits(ydot),
                              bits(np.concatenate((pack(om_dot), g_dot))))


def test_packing_is_shared_and_read_only():
    # build_field and integrate share one layout per n
    packing = layout(5)
    assert layout(5) is packing
    for index in (packing.upper, packing.lower, packing.column):
        with pytest.raises(ValueError, match="read-only"):
            index[0] = 0


class TestIntegrateContract:
    @pytest.mark.parametrize(
        "kind, n", [(CaseKind.KHARLAMOVA_ND, 4), (CaseKind.DGJ_3D, 3)]
    )
    @pytest.mark.parametrize("method", ["rk45", "rk4"])
    def test_packed_and_adapted_runs_are_identical(self, kind, n, method):
        rng = np.random.default_rng(7)
        spec = make_spec(kind, n, rng)
        if n == 3:
            state0 = state_from_vec3([0.4, -0.3, 0.0], [0.0, 0.6, 0.8])
        else:
            state0 = random_canonical_state(rng, n)
        cfg = IntegratorConfig(method=method, step=0.05, rel_tol=1e-10,
                               abs_tol=1e-12)
        packed, _ = build_field(spec)
        adapted = state_field(state_level_field(spec), n)
        a = integrate(packed, state0, (0.0, 5.0), cfg, output_dt=0.1)
        b = integrate(adapted, state0, (0.0, 5.0), cfg, output_dt=0.1)
        assert a.stats == b.stats
        for sa, sb in zip(a.states, b.states):
            assert np.array_equal(bits(sa.omega.mat), bits(sb.omega.mat))
            assert np.array_equal(bits(sa.gamma), bits(sb.gamma))


@pytest.mark.parametrize("method", ["rk4", "dop853", "rk45"])
def test_every_method_hands_the_field_lists(method):
    # one calling convention: every stage point of the step loop, the first
    # included, is a list of Python floats; DOP853's dense-output stages
    # come as (m, d) blocks, a row per accepted step, and rhs_evals counts
    # their rows
    rng = np.random.default_rng(5)
    field, _ = build_field(make_spec(CaseKind.KHARLAMOVA_ND, 4, rng))
    handed, points = set(), [0]

    def spy(y):
        if isinstance(y, list):
            handed.add(list)
            points[0] += 1
        else:
            handed.add((type(y), y.ndim, y.shape[1]))
            points[0] += len(y)
        return field(y)

    cfg = IntegratorConfig(method=method, step=0.1)
    traj = integrate(spy, random_canonical_state(rng, 4), (0.0, 1.0), cfg, output_dt=0.5)
    blocks = {(np.ndarray, 2, layout(4).k + 4)} if method == "dop853" else set()
    assert handed == {list} | blocks
    assert traj.stats.rhs_evals == points[0] > 0


class TestLastAcceptedPoint:
    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    def test_max_steps_carries_last_point(self, method):
        spec = make_spec(CaseKind.KHARLAMOVA_ND, 4, np.random.default_rng(3))
        state0 = random_canonical_state(np.random.default_rng(4), 4)
        cfg = IntegratorConfig(method=method, step=1e-3, max_steps=10)
        field, _ = build_field(spec)
        with pytest.raises(IntegrationError, match="max_steps") as err:
            integrate(field, state0, (0.0, 10.0), cfg, output_dt=10.0)
        y_last, t_last = err.value.y_last, err.value.t_last
        assert y_last.shape == (layout(4).k + 4,)
        assert 0.0 < t_last < 10.0
        # the reported point is the solution at the reported time
        ref = integrate(field, state0, (0.0, t_last),
                        IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14),
                        output_dt=t_last).states[-1]
        expect = pack_state(ref)
        assert np.max(np.abs(y_last - expect)) <= 1e-9
