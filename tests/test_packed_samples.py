"""A trajectory stores its samples as one packed block ``ys``; energies,
first integrals, angles and CSV rows are array operations on it.  These
checks pin that every block result has the bits of the same formula on one
row (or one state), and that the states built from the block match it."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bits, state_with_sizable_integrals
from suslov.algebra import layout, pack, unpack
from suslov.cases import build_field, first_integrals
from suslov.clebsch import angle_coords, integrals_f, packed_integrals_f
from suslov.integrate import (
    IntegratorConfig,
    Trajectory,
    _csv_rows,
    integrate,
    reparametrize,
    write_csv,
)
from suslov.model import (
    BodyState,
    CustomPotential,
    DGJPotential,
    LinearPotential,
    MassTensor,
    QuadraticPotential,
    ZeroPotential,
    energies,
    energy,
)
from test_cases import catalog_instances


def case_trajectory(spec, seed, t_end=6.0):
    rng = np.random.default_rng(seed)
    state0 = state_with_sizable_integrals(rng, spec, first_integrals(spec))
    field, constraints = build_field(spec)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
    return integrate(field, state0, (0.0, t_end), cfg, output_dt=0.05,
                     inertia=spec.inertia, potential=spec.potential,
                     constraints=constraints)


@pytest.mark.parametrize(
    "spec", catalog_instances(), ids=lambda s: f"{s.kind.value}-n{s.n}"
)
def test_block_values_match_rows_bit_for_bit(spec):
    traj = case_trajectory(spec, spec.n * 7)
    ys = traj.ys
    inertia, pot = spec.inertia, spec.potential
    per_state = np.array([energy(s, inertia, pot) for s in traj.states])
    assert np.array_equal(bits(traj.aux["energy"]), bits(per_state))
    assert np.array_equal(bits(energies(ys, inertia, pot)), bits(per_state))
    for label, fn in first_integrals(spec).items():
        block = fn(ys)
        assert block.shape == (len(traj),), label
        rows = np.array([fn(y) for y in ys])
        assert np.array_equal(bits(block), bits(rows)), label


@pytest.mark.parametrize(
    "spec", catalog_instances(), ids=lambda s: f"{s.kind.value}-n{s.n}"
)
def test_states_rebuilt_from_ys_match_it_exactly(spec):
    traj = case_trajectory(spec, spec.n * 11, t_end=2.0)
    ys, k = traj.ys, layout(spec.n).k
    assert isinstance(traj.states, tuple) and len(traj.states) == len(traj)
    for y, s in zip(ys, traj.states):
        assert s.n == spec.n
        assert np.array_equal(bits(pack(s.omega)), bits(y[:k]))
        assert np.array_equal(bits(s.gamma), bits(y[k:]))
        assert np.array_equal(bits(s.omega.mat), bits(unpack(y[:k], spec.n).mat))
    assert traj.states is traj.states  # built once
    assert not ys.flags.writeable


def test_trajectory_lengths_must_agree():
    with pytest.raises(ValueError, match="lengths"):
        Trajectory([0.0, 1.0], np.zeros((3, 6)))


def test_reversed_reparametrize_keeps_ys_and_states_aligned():
    spec = [s for s in catalog_instances() if s.kind.value == "ClebschTisserandND"][0]
    traj = case_trajectory(spec, 5, t_end=3.0)
    n, k = spec.n, layout(spec.n).k

    def phi(s):  # single-signed and negative: the samples get reversed
        return -1.0 - s.gamma[-1] ** 2

    out = reparametrize(traj, phi)
    assert np.all(np.diff(out.times) > 0)
    assert np.array_equal(bits(out.ys), bits(traj.ys[::-1]))
    for key, val in traj.aux.items():
        assert np.array_equal(bits(out.aux[key]), bits(val[::-1])), key
    for y, s, s_orig in zip(out.ys, out.states, traj.states[::-1]):
        assert np.array_equal(bits(pack(s.omega)), bits(y[:k]))
        assert np.array_equal(bits(s.gamma), bits(y[k:]))
        assert np.array_equal(bits(s.omega.mat), bits(s_orig.omega.mat))
    # the F values from the block are those of each state
    block = packed_integrals_f(out.ys, spec.inertia, spec.potential.b)
    rows = np.array([integrals_f(s, spec.inertia, spec.potential.b)
                     for s in out.states])
    assert np.array_equal(bits(block), bits(rows))
    assert out.n == n


def test_angle_coords_rows_match_block():
    from suslov.clebsch import _packed_angles

    spec = [s for s in catalog_instances() if s.kind.value == "ClebschTisserandND"][0]
    b = spec.potential.b  # sorted descending, so every B_i > B_n
    traj = case_trajectory(spec, 9, t_end=2.0)
    block = _packed_angles(traj.ys, spec.inertia, b)
    rows = np.array([angle_coords(s, spec.inertia, b) for s in traj.states])
    assert np.array_equal(bits(block), bits(rows))


def _potentials(n):
    rng = np.random.default_rng(n)
    out = [ZeroPotential(), LinearPotential(rng.normal(size=n)),
           QuadraticPotential(rng.normal(size=n))]
    b = rng.normal(size=n)

    def fn(g):
        return float(np.dot(b, g) + np.sum(g**4)), b + 4.0 * g**3

    out.append(CustomPotential(fn, n))
    if n == 3:
        out.append(DGJPotential(
            lambda x, y: np.sin(x) + 0.5 * y, lambda x, y: (np.cos(x), 0.5),
            lambda x, y: 0.5 * x * x + 0.25 * y * y, lambda x, y: (x, 0.5 * y),
        ))
    return out


@pytest.mark.parametrize("n", [3, 4, 5])
def test_potential_values_broadcast_over_leading_axes(n):
    rng = np.random.default_rng(100 + n)
    gammas = rng.normal(size=(2, 7, n))
    for pot in _potentials(n):
        block = np.broadcast_to(pot.value(gammas), (2, 7))
        rows = np.array([[pot.value(g) for g in row] for row in gammas])
        assert np.array_equal(bits(block), bits(rows)), type(pot).__name__


@pytest.mark.parametrize("n", [3, 4, 5])
def test_energies_with_a_full_mass_tensor_match_rows(n):
    # a non-diagonal mass tensor takes the batched matmul I @ Omega; on this
    # numpy it reproduces the product of each matrix alone bit for bit
    rng = np.random.default_rng(200 + n)
    a = rng.normal(size=(n, n))
    inertia = MassTensor(matrix=a @ a.T + n * np.eye(n))
    k = layout(n).k
    ys = rng.normal(size=(64, k + n))
    for pot in _potentials(n):
        block = energies(ys, inertia, pot)
        rows = np.array([energy(BodyState(unpack(y[:k], n), y[k:]), inertia, pot)
                         for y in ys])
        assert np.array_equal(bits(block), bits(rows)), type(pot).__name__


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            math.inf, -math.inf, math.nan, 1e308, -1e308, 1.7976931348623157e308,
            0.1, 1 / 3, 123456789.0, 1e-5, 1e16, 1e17]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=st.lists(
    st.lists(st.one_of(st.floats(), st.sampled_from(_SPECIAL)),
             min_size=3, max_size=3),
    min_size=1, max_size=4,
))
@example(rows=[_SPECIAL[i : i + 3] for i in range(0, len(_SPECIAL) - 2, 3)])
def test_csv_rows_format_like_str_format(rows):
    block = np.array(rows, dtype=float)
    expect = "".join(",".join("{:.17g}".format(v) for v in row) + "\n"
                     for row in block)
    assert _csv_rows(block) == expect


def test_csv_blocks_join_seamlessly(tmp_path, monkeypatch):
    # the package exports a function named integrate, so fetch the module
    integrate_mod = importlib.import_module("suslov.integrate")
    spec = [s for s in catalog_instances() if s.kind.value == "KharlamovaND"][0]
    traj = case_trajectory(spec, 4)
    write_csv(traj, tmp_path / "one.csv")
    monkeypatch.setattr(integrate_mod, "_CSV_BLOCK", 7)
    write_csv(traj, tmp_path / "many.csv")
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "many.csv").read_bytes()
