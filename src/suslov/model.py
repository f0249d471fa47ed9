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

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .algebra import (
    ConstraintSet,
    SkewMatrix,
    commutator,
    layout,
    pack,
    packed_to_vector,
    unpack,
    unpack_mats,
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
    "general_field",
    "vector_field_reduced",
    "vector_field_3d",
    "lagrange_full_field",
    "energy",
    "energies",
    "pack_state",
    "divergence_fd",
    "packed_reduced_field",
    "packed_suslov3d_field",
]

_GRADIENT_CHECK_TOL = 1e-6  # |gradient - central difference| / max(1, |gradient|)
_GRADIENT_CHECK_SEED = 0  # check_gradient's random unit vectors
_GRADIENT_CHECK_STEP = 1e-6  # check_gradient's central-difference step
_DIVERGENCE_STEP = 1e-5  # divergence_fd's central-difference step


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
            valid = np.isfinite(diag) & (diag > 0.0)
            if not np.all(valid):
                bad = int(np.argmin(valid))
                raise ValueError(
                    f"mass tensor must be positive and finite: I_{bad + 1} = "
                    f"{diag[bad]!r}"
                )
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
        return SkewMatrix._wrap(self._apply_mats(omega.mat))

    def _apply_mats(self, mats):
        """``I Omega + Omega I`` of skew matrices ``(..., n, n)``."""
        if self.diag is not None:
            return self._pair * mats
        m = self.matrix @ mats
        return m - np.swapaxes(m, -1, -2)

    def invert(self, m: SkewMatrix) -> SkewMatrix:
        """Solve I Omega + Omega I = M for Omega."""
        if m.n != self.n:
            raise ValueError(f"dimension mismatch: {m.n} vs {self.n}")
        if self.diag is not None:
            return SkewMatrix._wrap(m.mat / self._pair)
        try:
            sol = np.linalg.solve(self._op, pack(m))
        except np.linalg.LinAlgError:
            raise ValueError("inertia map is singular for this mass tensor")
        return unpack(sol, self.n)


def _inertia_operator(matrix):
    """Matrix of Omega -> I Omega + Omega I in the E_ij basis (full case),
    acting on packed vectors."""
    n = matrix.shape[0]
    basis = np.eye(n * (n - 1) // 2)
    op = np.empty_like(basis)
    for col, e in enumerate(basis):
        me = matrix @ unpack(e, n).mat
        op[:, col] = pack(SkewMatrix._wrap(me - me.T))
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

    @classmethod
    def _wrap_block(cls, omegas, gammas) -> tuple:
        """:meth:`_wrap` of each pair of ``omegas`` and the rows of the
        float block ``gammas``, as views of it; the block is made read-only
        once, and its views inherit that."""
        gammas.flags.writeable = False
        new, put = object.__new__, object.__setattr__
        out = []
        for omega, gamma in zip(omegas, gammas):
            obj = new(cls)
            put(obj, "omega", omega)
            put(obj, "gamma", gamma)
            out.append(obj)
        return tuple(out)

    @property
    def n(self) -> int:
        return self.omega.n


class Potential:
    """Interface: a potential on the sphere with value and gradient.

    ``value`` and ``gradient`` also take a block ``(..., n)`` of Poisson
    vectors and return the values over its leading axes, and the gradients
    as a block of the same shape, each row with the bits of the row alone.
    """

    def value(self, gamma) -> float:
        raise NotImplementedError

    def gradient(self, gamma) -> np.ndarray:
        raise NotImplementedError

    def _point_gradient(self, g):
        """The gradient from and as a sequence of ``n`` components: a point's
        Python floats, with the bits of ``gradient(np.array(g)).tolist()``,
        or a block's columns, each entry with the bits of its point's floats;
        the fields of :func:`suslov.cases.build_field` call it once per
        evaluation.  The result may be shared between calls: read it, do
        not change it."""
        grad = self.gradient(np.stack(g, axis=-1))
        return grad.tolist() if grad.ndim == 1 else list(np.moveaxis(grad, -1, 0))


class ZeroPotential(Potential):
    def value(self, gamma):
        return np.zeros(np.shape(gamma)[:-1])

    def gradient(self, gamma):
        return np.zeros(np.shape(gamma))

    def _point_gradient(self, g):
        return (0.0,) * len(g)


def _frozen(b):
    """A read-only float copy of coefficients, so that the floats a potential
    keeps of them cannot go stale."""
    b = np.array(b, dtype=float)
    b.flags.writeable = False
    return b


class LinearPotential(Potential):
    """V = <B, Gamma>; ``b`` is a read-only copy of ``B``."""

    def __init__(self, b):
        self.b = _frozen(b)
        self._grad = tuple(self.b.tolist())  # the constant gradient, as floats

    def value(self, gamma):
        return np.vecdot(self.b, gamma)

    def gradient(self, gamma):
        if np.ndim(gamma) > 1:
            return np.broadcast_to(self.b, np.shape(gamma)).copy()
        return self.b.copy()

    def _point_gradient(self, g):
        return self._grad


class QuadraticPotential(Potential):
    """V = 1/2 sum_i B_i Gamma_i^2; ``b`` is a read-only copy of ``B``."""

    def __init__(self, b):
        self.b = _frozen(b)
        self._b = self.b.tolist()

    def value(self, gamma):
        return 0.5 * np.vecdot(self.b, np.asarray(gamma) ** 2)

    def gradient(self, gamma):
        return self.b * np.asarray(gamma)

    def _point_gradient(self, g):
        return [bi * gi for bi, gi in zip(self._b, g)]


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
        gamma = np.asarray(gamma, dtype=float)
        g1, g2, g3 = gamma[..., 0], gamma[..., 1], gamma[..., 2]
        return self.v1(g1, g2 * g2 + g3 * g3) + self.v2(g2, g1 * g1 + g3 * g3)

    def gradient(self, gamma):
        gamma = np.asarray(gamma, dtype=float)
        return np.stack(self._formula(*np.moveaxis(gamma, -1, 0)), axis=-1)

    def _point_gradient(self, g):
        return self._formula(*g)

    def _formula(self, g1, g2, g3):
        d1x, d1y = self.v1_grad(g1, g2 * g2 + g3 * g3)
        d2x, d2y = self.v2_grad(g2, g1 * g1 + g3 * g3)
        return (d1x + 2.0 * g1 * d2y, 2.0 * g2 * d1y + d2x, 2.0 * g3 * (d1y + d2y))


class CustomPotential(Potential):
    """Wraps a callable returning ``(value, gradient)``; gradient is
    finite-difference checked on construction."""

    def __init__(self, fn, n):
        self.fn = fn
        self.n = n
        check_gradient(self, n)

    def value(self, gamma):
        gamma = np.asarray(gamma, dtype=float)
        if gamma.ndim > 1:  # the callable takes one vector: loop over rows
            rows = gamma.reshape(-1, gamma.shape[-1])
            return np.array([self.value(g) for g in rows]).reshape(gamma.shape[:-1])
        return float(self.fn(gamma)[0])

    def gradient(self, gamma):
        gamma = np.asarray(gamma, dtype=float)
        if gamma.ndim > 1:  # the callable takes one vector: loop over rows
            rows = gamma.reshape(-1, gamma.shape[-1])
            return np.array([self.gradient(g) for g in rows]).reshape(gamma.shape)
        return np.asarray(self.fn(gamma)[1], dtype=float)


def check_gradient(potential: Potential, n: int):
    """Central-difference consistency check of the gradient evaluator at five
    random unit vectors, with one ``value`` call on each one's perturbed points."""
    rng = np.random.default_rng(_GRADIENT_CHECK_SEED)
    for _ in range(5):
        g = rng.normal(size=n)
        g /= np.linalg.norm(g)
        grad = np.asarray(potential.gradient(g), dtype=float)
        fd = _central_differences(potential.value, g, _GRADIENT_CHECK_STEP)
        scale = max(1.0, np.linalg.norm(grad))
        if np.linalg.norm(grad - fd) > _GRADIENT_CHECK_TOL * scale:
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


def _reaction(inertia: MassTensor, constraints: ConstraintSet):
    """``k -> lambda``: reaction coefficients for the unconstrained momentum
    derivative ``k``, solving ``<a^i, J^-1 (k + sum_j lambda_j a^j)> = 0``
    with the weighted Gram matrix, built once (it does not depend on state).
    Every pairing is a product with the packed constraint rows."""
    rows, n = constraints.rows, constraints.n
    gram = rows @ np.array([pack(inertia.invert(unpack(a, n))) for a in rows]).T

    def solve(k):
        rhs = rows @ pack(inertia.invert(k))
        try:
            return np.linalg.solve(gram, -rhs)
        except np.linalg.LinAlgError:
            raise ValueError("degenerate constraint/inertia combination: "
                             "weighted Gram matrix singular")

    return solve


def multipliers(
    state: BodyState,
    inertia: MassTensor,
    potential: Potential,
    constraints: ConstraintSet,
) -> np.ndarray:
    """Reaction coefficients lambda keeping <a^i, Omega> constant."""
    return _reaction(inertia, constraints)(_torque(state, inertia, potential))


def general_field(inertia: MassTensor, potential: Potential, constraints: ConstraintSet):
    """Constrained equations of motion for any constraint set, as a closure
    ``state -> (omega_dot, gamma_dot)`` with the weighted Gram matrix built
    once: the multiplier reaction is included, so ``<a^i, omega_dot> = 0``
    for every generator."""
    reaction = _reaction(inertia, constraints)
    rows, n = constraints.rows, constraints.n

    def field(state: BodyState):
        k = _torque(state, inertia, potential)
        omega_dot = inertia.invert(k + unpack(reaction(k) @ rows, n))
        return omega_dot, -(state.omega.mat @ state.gamma)

    return field


def _reduced_rates(col, g, d, pair):
    """The one copy of the reduced equations: ``(d/dt Omega_in, d/dt
    Gamma)`` as two lists, of ``n - 1`` and ``n`` entries, from the column
    ``col = Omega_in``, ``g = Gamma`` and ``d = dV/dGamma``, and ``pair =
    I_i + I_n``.

    It is elementwise: the entries of ``col``, ``g``, ``d`` may be Python
    floats or arrays of one shape (a block's columns), and an array entry
    gets the bits of the same floats alone.  The products, differences and
    quotients are the ones the array formula forms, and ``d/dt Gamma_n =
    sum_i Gamma_i Omega_in`` is summed left to right from 0.0.
    """
    gn, dn = g[-1], d[-1]
    col_dot = [(di * gn - gi * dn) / p for di, gi, p in zip(d, g, pair)]
    g_dot = [-gn * c for c in col]
    gn_dot = 0.0
    for gi, c in zip(g, col):
        gn_dot = gn_dot + gi * c
    g_dot.append(gn_dot)
    return col_dot, g_dot


def _on_columns(field, y):
    """``field``'s statements on the columns of an array ``y`` ``(..., d)``,
    a point or a block: the list of its ``d`` columns goes through the list
    body, and the entries that body returns, arrays or floats, are stacked
    back as the last axis.  Every operation is elementwise, so each row gets
    the bits of its point's list."""
    out = field(list(np.moveaxis(np.asarray(y, dtype=float), -1, 0)))
    return np.stack(np.broadcast_arrays(*out), axis=-1)


def _reduced_field(inertia: MassTensor, potential: Potential):
    """The reduced equations on the packed points of ``integrate``, with
    exact zeros in the so(n-1) block: the one caller of :func:`_reduced_rates`.
    A list of Python floats gives a list, the gradient on floats too (at this
    size numpy's per-call dispatch costs more than the arithmetic); an array
    ``(..., d)`` runs the same statements on its columns (:func:`_on_columns`)."""
    if inertia.diag is None:
        raise ValueError("reduced field needs a diagonal mass tensor; "
                         "use general_field instead")
    lay, gradient = layout(inertia.n), potential._point_gradient
    n, k, slots = inertia.n, lay.k, lay.column
    cols = slots.tolist()
    # Omega_in from the entries of a packed point, and the packed Omega rates
    # from [*col_dot, 0.0]: a column slot takes its rate, every other slot
    # the trailing zero; at n = 2 a slice, as itemgetter(0) gives no tuple
    column = itemgetter(*cols) if n > 2 else itemgetter(slice(0, 1))
    scatter = itemgetter(*(cols.index(p) if p in cols else n - 1
                           for p in range(k))) if n > 2 else column
    pair = (inertia.diag[:-1] + inertia.diag[-1]).tolist()

    def field(y):
        if not isinstance(y, list):
            return _on_columns(field, y)
        g = y[k:]
        col_dot, g_dot = _reduced_rates(column(y), g, gradient(g), pair)
        col_dot.append(0.0)
        return [*scatter(col_dot), *g_dot]

    return field


def vector_field_reduced(state: BodyState, inertia: MassTensor, potential: Potential):
    """Equations of motion for the canonical constraints and diagonal mass
    tensor, where only the ``Omega_in`` column evolves::

        (I_i + I_n) d/dt Omega_in = dV/dG_i G_n - G_i dV/dG_n
        d/dt G_i = -G_n Omega_in          (i < n)
        d/dt G_n = sum_i G_i Omega_in

    The so(n-1) block of ``Omega`` is ignored (it is constrained to zero):
    this is the field of :func:`_reduced_field`, which the canonical cases
    integrate, at the floats of the state's packed point.
    """
    y = pack_state(state.omega, state.gamma).tolist()
    ydot = np.array(_reduced_field(inertia, potential)(y))
    return unpack(ydot[: -state.n], state.n), ydot[-state.n :]


_E3 = np.array([0.0, 0.0, 1.0])  # the canonical 3D constraint axis
_E3.flags.writeable = False


def _unit_axis(axis):
    """``axis / |axis|``, the norm checked finite and nonzero before it divides."""
    norm = np.linalg.norm(axis)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"expected a finite, nonzero constraint axis, not {axis!r}")
    return np.asarray(axis, dtype=float) / norm


def _plane_basis(a):
    """Orthonormal basis ``(u, v)`` of the plane perpendicular to the unit
    vector ``a``, with ``(u, v, a)`` right-handed."""
    pick = np.zeros(3)
    pick[int(np.argmin(np.abs(a)))] = 1.0
    u = np.cross(a, pick)
    u /= np.linalg.norm(u)
    return u, np.cross(a, u)


def _checked_3d(j_diag, axis, potential: Potential):
    """The principal moments and the constraint axis of the 3D form as float
    lists, with ``<a, J^-1 a>``, once they and the potential's gradient pass
    the checks that do not depend on the state."""
    j = np.asarray(j_diag, dtype=float)
    a = np.asarray(axis, dtype=float)
    if j.shape != (3,) or a.shape != (3,):
        raise ValueError("vector_field_3d expects 3-vectors")
    j1, j2, j3 = j = j.tolist()
    if not (0.0 < j1 < math.inf and 0.0 < j2 < math.inf and 0.0 < j3 < math.inf):
        raise ValueError(
            f"principal moments must be positive and finite: {j1!r}, {j2!r}, {j3!r}"
        )
    a1, a2, a3 = a = a.tolist()
    den = a1 * (a1 / j1) + a2 * (a2 / j2) + a3 * (a3 / j3)
    if not 0.0 < den < math.inf:  # a zero, NaN or infinite axis
        raise ValueError("vector_field_3d needs a finite, nonzero constraint axis")
    if np.shape(potential.gradient(_E3)) != (3,):
        raise ValueError("vector_field_3d expects 3-vectors")
    return j, a, den


def _field_3d(w, g, d, j, a, den, eps):
    """The one copy of the 3D formula: ``(w', G')`` as two triples from the
    components of ``w``, ``G`` and ``dV/dG`` (``d``), the moments ``j``, the
    axis ``a``, ``den = <a, J^-1 a>`` and the gyroscopic ``eps``.

    It is elementwise: the components of ``w``, ``g`` and ``d`` may be Python
    floats or arrays of one shape, and an array entry gets the bits of the
    same floats alone.  Each product and difference is the one ``np.cross``
    forms; the two pairings with ``a`` sum left to right.
    """
    w1, w2, w3 = w
    g1, g2, g3 = g
    d1, d2, d3 = d
    j1, j2, j3 = j
    a1, a2, a3 = a
    gd1 = g2 * w3 - g3 * w2  # G x w
    gd2 = g3 * w1 - g1 * w3
    gd3 = g1 * w2 - g2 * w1
    p1, p2, p3 = j1 * w1, j2 * w2, j3 * w3  # Jw
    k1 = (p2 * w3 - p3 * w2) + (g2 * d3 - g3 * d2)
    k2 = (p3 * w1 - p1 * w3) + (g3 * d1 - g1 * d3)
    k3 = (p1 * w2 - p2 * w1) + (g1 * d2 - g2 * d1)
    if eps != 0.0:
        k1, k2, k3 = k1 + eps * gd1, k2 + eps * gd2, k3 + eps * gd3
    lam = -(a1 * (k1 / j1) + a2 * (k2 / j2) + a3 * (k3 / j3)) / den
    w_dot = ((k1 + lam * a1) / j1, (k2 + lam * a2) / j2, (k3 + lam * a3) / j3)
    return w_dot, (gd1, gd2, gd3)


def _vector3d_field(j_diag, axis, potential: Potential, gyro_eps: float):
    """The 3D vector form on the packed points ``(X_12, X_13, X_23, Gamma)``
    of ``integrate``, with ``w = (-X_23, X_13, -X_12)`` as in ``packed_to_vector``:
    the one caller of :func:`_field_3d`, checked once by :func:`_checked_3d`;
    lists and arrays as in :func:`_reduced_field`."""
    j, a, den = _checked_3d(j_diag, axis, potential)
    gradient, eps = potential._point_gradient, float(gyro_eps)

    def field(y):
        if not isinstance(y, list):
            return _on_columns(field, y)
        # packed <-> vector, as in packed_to_vector, both ways
        x12, x13, x23, g1, g2, g3 = y
        (w1, w2, w3), (gd1, gd2, gd3) = _field_3d(
            (-x23, x13, -x12), (g1, g2, g3), gradient((g1, g2, g3)), j, a, den, eps)
        return [-w3, w2, -w1, gd1, gd2, gd3]

    return field


def vector_field_3d(omega, gamma, j_diag, potential: Potential, gyro_eps: float = 0.0,
                    axis=None):
    """Classical 3D form in vector variables (independent of the matrix
    implementation)::

        J w' = Jw x w + G x dV/dG + eps (G x w) + lambda a,   G' = G x w

    with lambda chosen so <a, w> stays constant.  ``j_diag`` holds the three
    principal moments, which must be positive and finite; ``axis`` defaults
    to e3.  Returns ``(omega_dot, gamma_dot)`` as two arrays.

    This is the field of :func:`_vector3d_field`, which the 3D cases
    integrate, at the floats of the packed point; :func:`_field_3d` is
    elementwise, so a block gets these bits in each row.  Each product and
    difference is the one ``np.cross`` forms.
    The two pairings with ``a`` in ``lambda = -<a, J^-1 k> / <a, J^-1 a>``
    are summed left to right, in the order of BLAS ``ddot``.  With e3 the
    zeros make every sum exact, so the result has the bits of the
    ``np.cross``/``np.dot`` form.  For a custom axis it may differ from that
    form in the last bit, because ``ddot`` fuses each product into the
    running sum.
    """
    omega = np.asarray(omega, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if omega.shape != (3,) or gamma.shape != (3,):
        raise ValueError("vector_field_3d expects 3-vectors")
    field = _vector3d_field(j_diag, _E3 if axis is None else axis, potential, gyro_eps)
    ydot = np.array(field(packed_to_vector(omega).tolist() + gamma.tolist()))
    return packed_to_vector(ydot[:3]), ydot[3:]


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
    b = np.zeros(state.n)
    b[-1] = b_n
    omega_dot = inertia.invert(_torque(state, inertia, LinearPotential(b)))
    return omega_dot, -(state.omega.mat @ state.gamma)


def energy(state: BodyState, inertia: MassTensor, potential: Potential) -> float:
    """E = 1/2 <J(Omega), Omega> + V(Gamma); conserved by every field here."""
    return float(_energy(state.omega.mat, state.gamma, inertia, potential))


def energies(y, inertia: MassTensor, potential: Potential) -> np.ndarray:
    """:func:`energy` of packed points ``y`` of shape ``(..., k + n)``, over
    the leading axes; each value has the bits of :func:`energy` of its
    state."""
    n = inertia.n
    k = layout(n).k
    return _energy(unpack_mats(y[..., :k], n), y[..., k:], inertia, potential)


def _energy(mats, gamma, inertia, potential):
    """The one copy of the energy: ``mats`` ``(..., n, n)`` and ``gamma``
    ``(..., n)``.  The pairing ``1/2 sum_ij M_ij Omega_ij`` sums over the
    trailing two axes, the order of one matrix alone."""
    m = inertia._apply_mats(mats)
    return 0.5 * (0.5 * np.sum(m * mats, axis=(-2, -1))) + potential.value(gamma)


def pack_state(omega: SkewMatrix, gamma) -> np.ndarray:
    """The packed point ``(pack(Omega), Gamma)`` of a state, the coordinates
    of :func:`suslov.integrate.integrate`; also packs a field's
    ``(Omega_dot, Gamma_dot)``."""
    return np.concatenate((pack(omega), gamma))


def _central_differences(f, x, h, slots=None):
    """``(f(x + h e_i) - f(x - h e_i)) / (2 h)`` along each coordinate ``i``
    of a point ``x`` ``(d,)``, or of each row of a block ``(m, d)``, or only
    along the packed ``slots`` given: an array ``(..., s) + shape`` for ``s``
    coordinates and values ``f`` of that shape.  ``f`` takes a block ``(j,
    d)`` and is called once, on the ``2 s`` perturbed points of every row."""
    x = np.asarray(x, dtype=float)
    step = h * np.eye(x.shape[-1])[... if slots is None else slots]
    ends = np.stack((x[..., None, :] + step, x[..., None, :] - step))  # (2, ..., s, d)
    out = np.asarray(f(ends.reshape(-1, x.shape[-1])))
    plus, minus = out.reshape(ends.shape[:-1] + out.shape[1:])
    return (plus - minus) / (2.0 * h)


def divergence_fd(f, x):
    """Central-difference divergence, of step 1e-5, of a packed vector field
    at a point ``x`` of shape ``(dim,)``, or at each row of a block ``(m, dim)``.

    :func:`_central_differences` calls ``f`` once, on a block ``(k, dim)`` of
    the ``2 dim`` perturbed points of every row.  Each point sums its ``dim``
    terms in order from 0.0, so a row of a block gets the bits of the point
    alone.  Returns a float for a point and an array of ``m`` values for a block.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError(f"x must have shape (dim,) or (m, dim), not {x.shape}")
    d = _central_differences(f, x, _DIVERGENCE_STEP)
    total = sum(np.diagonal(d, axis1=-2, axis2=-1).T, 0.0)  # in order, from 0.0
    return float(total) if x.ndim == 1 else total


def packed_reduced_field(inertia: MassTensor, potential: Potential):
    """Reduced field as a function of the flat coordinates
    ``(Omega_1n..Omega_{n-1,n}, Gamma_1..Gamma_n)`` of the reduced phase
    space; this is the chart in which the standard measure is dOmega dGamma.

    The field takes a point or a block ``(..., 2n - 1)``, scatters it into
    packed points and gathers their rates under :func:`_reduced_field`
    back, so each row gets the bits of the point alone.
    """
    field, n = _reduced_field(inertia, potential), inertia.n
    lay = layout(n)

    def f(x):
        x = np.asarray(x, dtype=float)
        y = np.zeros((lay.k + n,) + x.shape[:-1])  # by slot, read contiguously
        y[lay.reduced] = np.moveaxis(x, -1, 0)
        return field(np.moveaxis(y, 0, -1))[..., lay.reduced]

    return f, 2 * n - 1


def packed_suslov3d_field(j_diag, axis, potential: Potential | None = None,
                          gyro_eps: float = 0.0):
    """3D constrained field in intrinsic coordinates: two coefficients on an
    orthonormal basis of the admissible plane plus the ambient Gamma.

    The field takes a point or a block ``(..., 5)``, maps it to the packed
    points of ``w = x_0 u + x_1 v`` and Gamma, and projects their ``w'``
    under :func:`_vector3d_field` onto ``u`` and ``v``, so each row gets the
    bits of the point alone; the checks are made once, when it is built.
    """
    a = _unit_axis(axis)
    pot = ZeroPotential() if potential is None else potential
    field = _vector3d_field(j_diag, a, pot, gyro_eps)
    u, v = _plane_basis(a)

    def f(x):
        x0, x1, *g = np.moveaxis(np.asarray(x, dtype=float), -1, 0)
        w1, w2, w3 = (x0 * ui + x1 * vi for ui, vi in zip(u.tolist(), v.tolist()))
        ydot = field(np.moveaxis(np.array((-w3, w2, -w1, *g)), 0, -1))  # by slot
        w_dot = packed_to_vector(ydot[..., :3])
        return np.stack((np.vecdot(w_dot, u), np.vecdot(w_dot, v),
                         *np.moveaxis(ydot[..., 3:], -1, 0)), axis=-1)

    return f, 5, (u, v)
