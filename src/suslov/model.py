"""Physical model of the constrained rigid body.

State is a pair ``(Omega, Gamma)``: the angular velocity ``Omega`` in so(n)
and the unit Poisson vector ``Gamma`` (the space-fixed axis seen from the
body).  The momentum is ``M = I Omega + Omega I`` for a mass tensor ``I``;
with diagonal ``I`` this is entrywise ``M_ij = (I_i + I_j) Omega_ij``.

Equations of motion with constraints ``<a^i, Omega> = 0`` and a potential
``V(Gamma)``::

    d/dt M     = [M, Omega] + dV/dGamma ^ Gamma + sum_i lambda_i a^i
    d/dt Gamma = -Omega Gamma

where the multipliers are the unique reaction making the flow tangent to the
admissible distribution.  For the canonical constraints (only rotations in
planes containing e_n) and diagonal mass tensor the equations close on the
``(Omega_in, Gamma)`` coordinates; that reduced form is implemented
separately and doubles as a cross-check of the general one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    ConstraintSet,
    SkewMatrix,
    commutator,
    inner,
    wedge,
)

__all__ = [
    "MassTensor",
    "BodyState",
    "Potential",
    "ZeroPotential",
    "LinearPotential",
    "QuadraticPotential",
    "DGJPotential",
    "CustomPotential",
    "check_gradient",
    "multipliers",
    "vector_field_general",
    "general_field",
    "vector_field_reduced",
    "vector_field_3d",
    "lagrange_full_field",
    "energy",
    "divergence_fd",
    "packed_reduced_field",
    "packed_suslov3d_field",
]


class MassTensor:
    """Symmetric positive-definite mass tensor; diagonal in most cases.

    The induced inertia map ``J(Omega) = I Omega + Omega I`` acts entrywise
    as ``(I_i + I_j) Omega_ij`` when I is diagonal; the full symmetric case
    goes through the n(n-1)/2-dimensional linear system on the upper
    triangle.
    """

    __slots__ = ("n", "diag", "matrix", "_pair", "_op")

    def __init__(self, diag=None, matrix=None):
        if (diag is None) == (matrix is None):
            raise ValueError("provide exactly one of diag= or matrix=")
        if diag is not None:
            diag = np.asarray(diag, dtype=float)
            if diag.ndim != 1 or diag.size < 2:
                raise ValueError("diag must be a vector of length n >= 2")
            if np.any(diag <= 0.0):
                bad = int(np.argmin(diag))
                raise ValueError(f"mass tensor must be positive: I_{bad + 1} <= 0")
            n = diag.size
            matrix = np.diag(diag)
            pair = diag[:, None] + diag[None, :]
            op = None
        else:
            matrix = np.asarray(matrix, dtype=float)
            if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
                raise ValueError("matrix must be square")
            if not np.allclose(matrix, matrix.T, rtol=0, atol=1e-12):
                raise ValueError("mass tensor must be symmetric")
            if np.linalg.eigvalsh(matrix)[0] <= 0.0:
                raise ValueError("mass tensor must be positive definite")
            n = matrix.shape[0]
            diag = None
            pair = None
            op = _inertia_operator(matrix)
        matrix = matrix.copy()
        matrix.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_pair", pair)
        object.__setattr__(self, "_op", op)

    def __setattr__(self, name, value):
        raise AttributeError("MassTensor is immutable")

    def apply(self, omega: SkewMatrix) -> SkewMatrix:
        """M = I Omega + Omega I."""
        if omega.n != self.n:
            raise ValueError(f"dimension mismatch: {omega.n} vs {self.n}")
        if self.diag is not None:
            return SkewMatrix._wrap(self._pair * omega.mat)
        m = self.matrix @ omega.mat
        return SkewMatrix._wrap(m - m.T)

    def invert(self, m: SkewMatrix) -> SkewMatrix:
        """Solve I Omega + Omega I = M for Omega."""
        if m.n != self.n:
            raise ValueError(f"dimension mismatch: {m.n} vs {self.n}")
        if self.diag is not None:
            return SkewMatrix._wrap(m.mat / self._pair)
        iu, ju = np.triu_indices(self.n, k=1)
        try:
            sol = np.linalg.solve(self._op, m.mat[iu, ju])
        except np.linalg.LinAlgError:
            raise ValueError("inertia map is singular for this mass tensor")
        out = np.zeros((self.n, self.n))
        out[iu, ju] = sol
        out[ju, iu] = -sol
        return SkewMatrix._wrap(out)


def _inertia_operator(matrix):
    """Matrix of Omega -> I Omega + Omega I in the E_ij basis (full case)."""
    n = matrix.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    dim = iu.size
    op = np.zeros((dim, dim))
    for col in range(dim):
        e = np.zeros((n, n))
        e[iu[col], ju[col]] = 1.0
        e[ju[col], iu[col]] = -1.0
        me = matrix @ e
        me = me - me.T
        op[:, col] = me[iu, ju]
    return op


@dataclass(frozen=True)
class BodyState:
    """Point of the phase space: angular velocity and Poisson vector."""

    omega: SkewMatrix
    gamma: np.ndarray

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=float)
        if gamma.shape != (self.omega.n,):
            raise ValueError(
                f"gamma has shape {gamma.shape}, expected ({self.omega.n},)"
            )
        gamma = gamma.copy()
        gamma.flags.writeable = False
        object.__setattr__(self, "gamma", gamma)

    @classmethod
    def _wrap(cls, omega: SkewMatrix, gamma: np.ndarray) -> "BodyState":
        """Wrap a float array of length ``omega.n`` without checking or
        copying it (internal fast path); ``gamma`` becomes read-only."""
        obj = object.__new__(cls)
        gamma.flags.writeable = False
        object.__setattr__(obj, "omega", omega)
        object.__setattr__(obj, "gamma", gamma)
        return obj

    @property
    def n(self) -> int:
        return self.omega.n


class Potential:
    """Interface: a potential on the sphere with value and gradient."""

    def value(self, gamma) -> float:
        raise NotImplementedError

    def gradient(self, gamma) -> np.ndarray:
        raise NotImplementedError


class ZeroPotential(Potential):
    def value(self, gamma):
        return 0.0

    def gradient(self, gamma):
        return np.zeros(len(gamma))


class LinearPotential(Potential):
    """V = <B, Gamma>."""

    def __init__(self, b):
        self.b = np.asarray(b, dtype=float)

    def value(self, gamma):
        return float(np.dot(self.b, gamma))

    def gradient(self, gamma):
        return self.b.copy()


class QuadraticPotential(Potential):
    """V = 1/2 sum_i B_i Gamma_i^2."""

    def __init__(self, b):
        self.b = np.asarray(b, dtype=float)

    def value(self, gamma):
        return float(0.5 * np.dot(self.b, np.asarray(gamma) ** 2))

    def gradient(self, gamma):
        return self.b * np.asarray(gamma)


class DGJPotential(Potential):
    """V = v1(G1, G2^2 + G3^2) + v2(G2, G1^2 + G3^2) on the 3-sphere case.

    ``v1``/``v2`` take two scalars; ``v1_grad``/``v2_grad`` return the pair
    of partial derivatives.  The analytic gradients are finite-difference
    checked on construction.
    """

    def __init__(self, v1, v1_grad, v2, v2_grad):
        self.v1, self.v1_grad = v1, v1_grad
        self.v2, self.v2_grad = v2, v2_grad
        check_gradient(self, 3)

    def value(self, gamma):
        g1, g2, g3 = gamma
        return float(self.v1(g1, g2 * g2 + g3 * g3) + self.v2(g2, g1 * g1 + g3 * g3))

    def gradient(self, gamma):
        g1, g2, g3 = gamma
        d1x, d1y = self.v1_grad(g1, g2 * g2 + g3 * g3)
        d2x, d2y = self.v2_grad(g2, g1 * g1 + g3 * g3)
        return np.array(
            [
                d1x + 2.0 * g1 * d2y,
                2.0 * g2 * d1y + d2x,
                2.0 * g3 * (d1y + d2y),
            ]
        )


class CustomPotential(Potential):
    """Wraps a callable returning ``(value, gradient)``; gradient is
    finite-difference checked on construction."""

    def __init__(self, fn, n):
        self.fn = fn
        self.n = n
        check_gradient(self, n)

    def value(self, gamma):
        return float(self.fn(np.asarray(gamma, dtype=float))[0])

    def gradient(self, gamma):
        return np.asarray(self.fn(np.asarray(gamma, dtype=float))[1], dtype=float)


def check_gradient(potential: Potential, n: int, tol: float = 1e-6, seed: int = 0):
    """Central-difference consistency check of the gradient evaluator."""
    rng = np.random.default_rng(seed)
    h = 1e-6
    for _ in range(5):
        g = rng.normal(size=n)
        g /= np.linalg.norm(g)
        grad = np.asarray(potential.gradient(g), dtype=float)
        fd = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd[i] = (potential.value(g + e) - potential.value(g - e)) / (2 * h)
        scale = max(1.0, np.linalg.norm(grad))
        if np.linalg.norm(grad - fd) > tol * scale:
            raise ValueError(
                "potential gradient disagrees with finite differences "
                f"(|diff| = {np.linalg.norm(grad - fd):.3e})"
            )


def _torque(state: BodyState, inertia: MassTensor, potential: Potential) -> SkewMatrix:
    """Unconstrained momentum derivative [M, Omega] + dV/dGamma ^ Gamma."""
    m = inertia.apply(state.omega)
    k = commutator(m, state.omega)
    grad = potential.gradient(state.gamma)
    return k + wedge(grad, state.gamma)


def multipliers(
    state: BodyState,
    inertia: MassTensor,
    potential: Potential,
    constraints: ConstraintSet,
) -> np.ndarray:
    """Reaction coefficients lambda keeping <a^i, Omega> constant.

    Solves the r-by-r system ``<a^i, J^-1 (K + sum_k lambda_k a^k)> = 0``
    with K the unconstrained momentum derivative.
    """
    k = _torque(state, inertia, potential)
    jinv_gens = [inertia.invert(g) for g in constraints.generators]
    gram = np.array(
        [[inner(a, jg) for jg in jinv_gens] for a in constraints.generators]
    )
    rhs = np.array([inner(a, inertia.invert(k)) for a in constraints.generators])
    try:
        return np.linalg.solve(gram, -rhs)
    except np.linalg.LinAlgError:
        raise ValueError(
            "degenerate constraint/inertia combination: weighted Gram matrix singular"
        )


def vector_field_general(
    state: BodyState,
    inertia: MassTensor,
    potential: Potential,
    constraints: ConstraintSet,
):
    """Constrained equations of motion for any constraint set.

    Returns ``(omega_dot, gamma_dot)`` with the multiplier reaction included,
    so ``<a^i, omega_dot> = 0`` for every generator.
    """
    lam = multipliers(state, inertia, potential, constraints)
    k = _torque(state, inertia, potential)
    mat = k.mat.copy()
    for c, g in zip(lam, constraints.generators):
        mat += c * g.mat
    omega_dot = inertia.invert(SkewMatrix._wrap(mat))
    gamma_dot = -(state.omega.mat @ state.gamma)
    return omega_dot, gamma_dot


def general_field(inertia: MassTensor, potential: Potential, constraints: ConstraintSet):
    """Closure over :func:`vector_field_general` with the weighted Gram
    matrix factored once (it does not depend on the state)."""
    jinv_gens = [inertia.invert(g) for g in constraints.generators]
    gram = np.array(
        [[inner(a, jg) for jg in jinv_gens] for a in constraints.generators]
    )
    gram_inv = np.linalg.inv(gram)
    gen_mats = [g.mat for g in constraints.generators]

    def field(state: BodyState):
        k = _torque(state, inertia, potential)
        jinv_k = inertia.invert(k)
        rhs = np.array([inner(a, jinv_k) for a in constraints.generators])
        lam = gram_inv @ (-rhs)
        mat = k.mat.copy()
        for c, g in zip(lam, gen_mats):
            mat += c * g
        omega_dot = inertia.invert(SkewMatrix._wrap(mat))
        gamma_dot = -(state.omega.mat @ state.gamma)
        return omega_dot, gamma_dot

    return field


def vector_field_reduced(state: BodyState, inertia: MassTensor, potential: Potential):
    """Equations of motion for the canonical constraints and diagonal mass
    tensor, where only the ``Omega_in`` column evolves::

        (I_i + I_n) d/dt Omega_in = dV/dG_i G_n - G_i dV/dG_n
        d/dt G_i = -G_n Omega_in          (i < n)
        d/dt G_n = sum_i G_i Omega_in

    The so(n-1) block of ``Omega`` is ignored (it is constrained to zero).
    """
    if inertia.diag is None:
        raise ValueError("reduced field needs a diagonal mass tensor; "
                         "use vector_field_general instead")
    n = state.n
    gamma = state.gamma
    grad = potential.gradient(gamma)
    col = state.omega.mat[: n - 1, n - 1]
    pair = inertia.diag[: n - 1] + inertia.diag[n - 1]
    col_dot = (grad[: n - 1] * gamma[n - 1] - gamma[: n - 1] * grad[n - 1]) / pair
    dmat = np.zeros((n, n))
    dmat[: n - 1, n - 1] = col_dot
    dmat[n - 1, : n - 1] = -col_dot
    gamma_dot = np.empty(n)
    gamma_dot[: n - 1] = -gamma[n - 1] * col
    gamma_dot[n - 1] = float(np.dot(gamma[: n - 1], col))
    return SkewMatrix._wrap(dmat), gamma_dot


_E3 = np.array([0.0, 0.0, 1.0])


def _cross(x, y) -> np.ndarray:
    """Cross product of two 3-vectors from explicit components.

    Same products and differences as ``np.cross``, so the result is
    bit-identical, without its per-call dispatch cost, which dominates the
    arithmetic at this size.
    """
    return np.array(
        [
            x[1] * y[2] - x[2] * y[1],
            x[2] * y[0] - x[0] * y[2],
            x[0] * y[1] - x[1] * y[0],
        ]
    )


def _plane_basis(a):
    """Orthonormal basis ``(u, v)`` of the plane perpendicular to the unit
    vector ``a``, with ``(u, v, a)`` right-handed."""
    pick = np.zeros(3)
    pick[int(np.argmin(np.abs(a)))] = 1.0
    u = _cross(a, pick)
    u /= np.linalg.norm(u)
    return u, _cross(a, u)


def vector_field_3d(omega, gamma, j_diag, potential: Potential, gyro_eps: float = 0.0,
                    axis=None):
    """Classical 3D form in vector variables (independent of the matrix
    implementation)::

        J w' = Jw x w + G x dV/dG + eps (G x w) + lambda a,   G' = G x w

    with lambda chosen so <a, w> stays constant.  ``j_diag`` holds the three
    principal moments; ``axis`` defaults to e3.
    """
    omega = np.asarray(omega, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    j = np.asarray(j_diag, dtype=float)
    if omega.shape != (3,) or gamma.shape != (3,) or j.shape != (3,):
        raise ValueError("vector_field_3d expects 3-vectors")
    a = _E3 if axis is None else np.asarray(axis, dtype=float)
    gamma_dot = _cross(gamma, omega)
    k = _cross(j * omega, omega) + _cross(gamma, potential.gradient(gamma))
    if gyro_eps != 0.0:
        k = k + gyro_eps * gamma_dot
    lam = -np.dot(a, k / j) / np.dot(a, a / j)
    omega_dot = (k + lam * a) / j
    return omega_dot, gamma_dot


def lagrange_full_field(state: BodyState, inertia: MassTensor, b_n: float):
    """Unconstrained rigid body with axially symmetric mass tensor
    ``I = diag(I1, ..., I1, In)`` and potential ``B_n Gamma_n``.

    The so(n-1) block has identically zero derivative, so the constrained
    motion sits inside this system as an invariant subspace.
    """
    if inertia.diag is None:
        raise ValueError("symmetric-form field needs a diagonal mass tensor")
    head = inertia.diag[:-1]
    if np.max(head) - np.min(head) > 1e-12 * max(1.0, np.max(np.abs(head))):
        raise ValueError("mass tensor must have the form diag(I1, ..., I1, In)")
    n = state.n
    m = inertia.apply(state.omega)
    k = commutator(m, state.omega)
    e_n = np.zeros(n)
    e_n[n - 1] = b_n
    k = k + wedge(e_n, state.gamma)
    omega_dot = inertia.invert(k)
    gamma_dot = -(state.omega.mat @ state.gamma)
    return omega_dot, gamma_dot


def energy(state: BodyState, inertia: MassTensor, potential: Potential) -> float:
    """E = 1/2 <J(Omega), Omega> + V(Gamma); conserved by every field here."""
    m = inertia.apply(state.omega)
    return 0.5 * inner(m, state.omega) + potential.value(state.gamma)


def divergence_fd(f, x, h_fd: float) -> float:
    """Central-difference divergence of a packed vector field at x."""
    x = np.asarray(x, dtype=float)
    if h_fd <= 0:
        raise ValueError("h_fd must be positive")
    total = 0.0
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h_fd
        total += (f(x + e)[i] - f(x - e)[i]) / (2.0 * h_fd)
    return float(total)


def packed_reduced_field(inertia: MassTensor, potential: Potential):
    """Reduced field as a function of the flat coordinates
    ``(Omega_1n..Omega_{n-1,n}, Gamma_1..Gamma_n)`` of the reduced phase
    space; this is the chart in which the standard measure is dOmega dGamma.
    """
    if inertia.diag is None:
        raise ValueError("reduced chart needs a diagonal mass tensor")
    n = inertia.n
    pair = inertia.diag[: n - 1] + inertia.diag[n - 1]

    def f(x):
        col = x[: n - 1]
        gamma = x[n - 1 :]
        grad = potential.gradient(gamma)
        col_dot = (grad[: n - 1] * gamma[n - 1] - gamma[: n - 1] * grad[n - 1]) / pair
        gamma_dot = np.empty(n)
        gamma_dot[: n - 1] = -gamma[n - 1] * col
        gamma_dot[n - 1] = np.dot(gamma[: n - 1], col)
        return np.concatenate([col_dot, gamma_dot])

    return f, 2 * n - 1


def packed_suslov3d_field(j_diag, axis, potential: Potential | None = None,
                          gyro_eps: float = 0.0):
    """3D constrained field in intrinsic coordinates: two coefficients on an
    orthonormal basis of the admissible plane plus the ambient Gamma."""
    j = np.asarray(j_diag, dtype=float)
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    u, v = _plane_basis(a)
    pot = potential if potential is not None else ZeroPotential()

    def f(x):
        omega = x[0] * u + x[1] * v
        gamma = x[2:]
        omega_dot, gamma_dot = vector_field_3d(omega, gamma, j, pot, gyro_eps, a)
        return np.concatenate(
            [[np.dot(omega_dot, u), np.dot(omega_dot, v)], gamma_dot]
        )

    return f, 5, (u, v)
