"""Shared helpers for the test suite."""

import numpy as np

from suslov import kharlamova
from suslov.algebra import SkewMatrix, from_column
from suslov.integrate import Trajectory
from suslov.model import BodyState, pack_state

# reference integrator tolerances used across the conservation suites
RTOL = 1e-10
ATOL = 1e-12


def bits(x):
    """The IEEE bit patterns of a float array, for bit-for-bit comparisons."""
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def random_skew(rng, n):
    return SkewMatrix(rng.normal(size=(n, n)))


def random_unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_canonical_state(rng, n, speed=1.0):
    """State satisfying the canonical constraints: only the Omega_in column."""
    col = speed * rng.normal(size=n - 1)
    return BodyState(from_column(col), random_unit(rng, n))


def canonical_state(col, gamma):
    return BodyState(from_column(col), np.asarray(gamma, dtype=float))


def states_trajectory(times, states, aux=None):
    """Trajectory whose packed samples ``ys`` are those of ``states``."""
    ys = np.array([pack_state(s.omega, s.gamma) for s in states])
    return Trajectory(times, ys, aux=aux)


def state_from_vec3(omega_vec, gamma):
    """3D state from the vector form of the angular velocity."""
    from suslov.algebra import vector_to_skew

    return BodyState(vector_to_skew(omega_vec), np.asarray(gamma, dtype=float))


def state_with_sizable_integrals(rng, spec, integrals, min_abs=0.05, speed=0.7):
    """Random canonical state whose integral values are all well away from
    zero; relative drift is meaningless against a vanishing reference."""
    for _ in range(100):
        state = random_canonical_state(rng, spec.n, speed=speed)
        y = pack_state(state.omega, state.gamma)
        if all(abs(fn(y)) >= min_abs for fn in integrals.values()):
            return state
    raise RuntimeError("could not draw a state with sizable integrals")


def closed_form_period(config):
    """The closed-form period ``T`` of the Kharlamova case of a loaded
    scenario ``config``, from its initial state."""
    inertia, b = config.case_spec.inertia, config.case_spec.potential.b
    coords = kharlamova.to_kharlamova(config.initial_state, inertia, b)
    poly = kharlamova.trajectory_polynomial(coords, inertia, b)
    return kharlamova.period(poly, kharlamova.orbit_interval(poly, coords.omega[0]))
