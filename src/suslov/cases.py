"""Catalog of integrable cases with their first integrals.

Each case fixes a constraint geometry (canonical, i.e. only rotations in
planes containing e_n, unless a custom 3D axis is supplied), a mass tensor
shape and a potential family.  ``first_integrals`` returns the conserved
quantities that define the case; ``build_field`` returns the matching
equations of motion.

Derived integrals of the axially symmetric linear case
------------------------------------------------------

For ``I = diag(I1, ..., I1, In)`` and ``V = B_n Gamma_n`` the reduced
equations are, with ``m = I1 + In`` and ``W_i = Omega_in``::

    m W_i' = -B_n G_i,   G_i' = -G_n W_i,   G_n' = sum_k G_k W_k .

Differentiating ``K_ij = G_j W_i - G_i W_j`` gives

    K_ij' = (-G_n W_j) W_i + G_j (-B_n G_i / m)
          - (-G_n W_i) W_j - G_i (-B_n G_j / m) = 0,

so the K_ij are genuine angular momenta of the reduced flow (they generate
the rotations mixing the first n-1 axes).  On the invariant set where every
``K_ij = 0`` (the velocity column parallel to the horizontal part of Gamma)
the curve ``Gamma(t)`` satisfies the spherical-pendulum equation

    m Gamma'' = -B_n (e_n - G_n Gamma) - m |Gamma'|^2 Gamma ,

which is checked numerically by the test suite.  Off that set the pendulum
motion lives in the group reconstruction, not in Gamma alone, and
``G_n K_ij`` (the pendulum momentum pulled through the naive substitution)
is visibly not conserved.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from . import clebsch
from .algebra import ConstraintSet, layout, packed_to_vector
from .model import (
    _E3,
    BodyState,
    DGJPotential,
    LinearPotential,
    MassTensor,
    Potential,
    QuadraticPotential,
    ZeroPotential,
    _central_differences,
    _reduced_field,
    _unit_axis,
    _vector3d_field,
    energies,
    pack_state,
    vector_field_3d,  # noqa: F401  kept as a public name of this module
    vector_field_reduced,  # noqa: F401  kept as a public name of this module
)

__all__ = [
    "CaseKind",
    "CaseError",
    "CaseSpec",
    "first_integrals",
    "build_field",
    "pendulum_reference_field",
    "asymptotic_points",
    "jacobian_rank",
]

_RANK_THRESHOLD = 1e-8  # singular value / largest one that jacobian_rank counts
_RANK_FD_STEP = 1e-6  # jacobian_rank's central-difference step


class CaseKind(enum.Enum):
    SUSLOV_FREE = "SuslovFree"
    LAGRANGE_3D = "Lagrange3D"
    KHARLAMOVA_3D = "Kharlamova3D"
    CLEBSCH_TISSERAND_3D = "ClebschTisserand3D"
    DGJ_3D = "DGJ3D"
    GYROSCOPIC_3D = "Gyroscopic3D"
    LAGRANGE_ND = "LagrangeND"
    KHARLAMOVA_ND = "KharlamovaND"
    CLEBSCH_TISSERAND_ND = "ClebschTisserandND"


_3D_KINDS = {
    CaseKind.LAGRANGE_3D,
    CaseKind.KHARLAMOVA_3D,
    CaseKind.CLEBSCH_TISSERAND_3D,
    CaseKind.DGJ_3D,
    CaseKind.GYROSCOPIC_3D,
}


class CaseError(ValueError):
    """A case specification violates the hypotheses of its kind."""


@dataclass(frozen=True)
class CaseSpec:
    """Declarative description of one catalog case.

    ``constraint_axis`` optionally replaces the canonical 3D constraint
    direction e3 (used for the free case with a non-eigenvector axis, which
    is the measure-free asymptotic regime).
    """

    kind: CaseKind
    n: int
    inertia: MassTensor
    potential: Potential
    gyro_eps: float = 0.0
    constraint_axis: np.ndarray | None = None

    def __post_init__(self):
        if self.constraint_axis is not None:
            axis = np.asarray(self.constraint_axis, dtype=float)
            norm = np.linalg.norm(axis)
            if not (np.isfinite(norm) and norm > 0.0):
                raise CaseError("constraint axis must be finite and nonzero")
            object.__setattr__(self, "constraint_axis", axis / norm)
        self.validate()

    @property
    def vector_axis(self) -> np.ndarray | None:
        """Constraint axis of the 3D vector form (e3 unless a custom axis is
        set), or None for the cases on the canonical reduced form."""
        if self.constraint_axis is not None:
            return self.constraint_axis
        return _E3 if self.kind in _3D_KINDS else None

    @property
    def j_diag(self) -> np.ndarray:
        """Principal moments for the 3D vector form: J_i = I_j + I_k."""
        if self.inertia.diag is None or self.n != 3:
            raise CaseError("principal moments need a diagonal 3D mass tensor")
        d = self.inertia.diag
        return np.array([d[1] + d[2], d[0] + d[2], d[0] + d[1]])

    def validate(self):
        kind, n = self.kind, self.n
        if self.inertia.n != n:
            raise CaseError(f"mass tensor dimension {self.inertia.n} != n = {n}")
        if kind in _3D_KINDS and n != 3:
            raise CaseError(f"{kind.value} requires n = 3")
        if n < 3:
            raise CaseError("cases require n >= 3")
        if self.gyro_eps != 0.0 and kind is not CaseKind.GYROSCOPIC_3D:
            raise CaseError(f"{kind.value} does not admit a gyroscopic term")
        if self.constraint_axis is not None:
            if kind is not CaseKind.SUSLOV_FREE or n != 3:
                raise CaseError(
                    "a custom constraint axis is only supported for the free 3D case"
                )
        if self.inertia.diag is None:  # every kind; build_field relies on it
            raise CaseError(f"{kind.value} requires a diagonal mass tensor")
        diag = self.inertia.diag
        pot = self.potential
        if not np.all(np.isfinite([self.gyro_eps, *getattr(pot, "b", ())])):
            raise CaseError("gyro_eps and the potential coefficients must be finite")

        if kind is CaseKind.SUSLOV_FREE:
            if not isinstance(pot, ZeroPotential):
                raise CaseError("SuslovFree requires V = 0")
        elif kind is CaseKind.LAGRANGE_ND:
            head = diag[:-1]
            if np.max(head) - np.min(head) > 1e-12 * max(1.0, float(np.max(head))):
                raise CaseError(
                    "LagrangeND requires I = diag(I1, ..., I1, In)"
                )
            if not isinstance(pot, LinearPotential) or np.any(pot.b[:-1] != 0.0):
                raise CaseError("LagrangeND requires V = B_n Gamma_n")
        elif kind is CaseKind.KHARLAMOVA_ND:
            if not isinstance(pot, LinearPotential):
                raise CaseError("KharlamovaND requires a linear potential")
            if pot.b[-1] != 0.0:
                raise CaseError("KharlamovaND requires B_n = 0")
            if np.any(pot.b[:-1] == 0.0):
                raise CaseError("KharlamovaND requires B_i != 0 for i < n")
        elif kind is CaseKind.CLEBSCH_TISSERAND_ND:
            if not isinstance(pot, QuadraticPotential):
                raise CaseError("ClebschTisserandND requires a quadratic potential")
        elif kind is CaseKind.LAGRANGE_3D:
            j = self.j_diag
            if abs(j[0] - j[1]) > 1e-12 * max(1.0, abs(j[0])):
                raise CaseError("Lagrange3D requires J1 = J2 (equivalently I1 = I2)")
            if not isinstance(pot, LinearPotential) or np.any(pot.b[:2] != 0.0):
                raise CaseError("Lagrange3D requires V = B_3 Gamma_3")
        elif kind is CaseKind.KHARLAMOVA_3D:
            if not isinstance(pot, LinearPotential) or pot.b[2] != 0.0:
                raise CaseError("Kharlamova3D requires V = B_1 Gamma_1 + B_2 Gamma_2")
        elif kind is CaseKind.CLEBSCH_TISSERAND_3D:
            if not isinstance(pot, QuadraticPotential):
                raise CaseError("ClebschTisserand3D requires a quadratic potential")
            j = self.j_diag
            eps = pot.b[0] / j[0]
            if not np.allclose(pot.b, eps * j, rtol=1e-10, atol=0.0):
                raise CaseError(
                    "ClebschTisserand3D requires B proportional to the principal "
                    "moments (V = eps/2 <J Gamma, Gamma>)"
                )
        elif kind is CaseKind.DGJ_3D:
            if not isinstance(pot, DGJPotential):
                raise CaseError("DGJ3D requires the two-function potential family")
            j = self.j_diag
            if abs(j[0] - j[1]) <= 1e-12 * max(1.0, abs(j[0])):
                raise CaseError("DGJ3D requires J1 != J2")
        elif kind is CaseKind.GYROSCOPIC_3D:
            if not isinstance(
                pot, (ZeroPotential, LinearPotential, QuadraticPotential)
            ):
                raise CaseError(
                    "Gyroscopic3D supports zero, linear or quadratic potentials"
                )
            if isinstance(pot, LinearPotential) and pot.b[2] != 0.0:
                raise CaseError("Gyroscopic3D linear potential requires B_3 = 0")


def first_integrals(spec: CaseSpec) -> dict:
    """Energy plus the case-specific conserved quantities: label -> fn(y).

    Each ``fn`` is one formula on packed points ``y`` of shape ``(..., k +
    n)`` (the coordinates of :func:`suslov.integrate.integrate`), so it
    maps a trajectory's ``ys`` to all its values at once, and a single
    state to its value through ``fn(pack_state(state.omega,
    state.gamma))``; a row of a block gets the bits of the row alone.
    """
    spec.validate()
    inertia, pot = spec.inertia, spec.potential
    integrals = {"energy": lambda y: energies(y, inertia, pot)}
    kind, n = spec.kind, spec.n
    lay = layout(n)
    cols = lay.column  # slots of Omega_in in the packed point
    k = lay.k

    if kind is CaseKind.SUSLOV_FREE:
        if spec.constraint_axis is None:
            # admissible velocities are frozen, so each column entry is conserved
            for i in range(n - 1):
                integrals[f"Omega_{i + 1}_{n}"] = lambda y, c=cols[i]: y[..., c]
    elif kind is CaseKind.LAGRANGE_3D:
        j = spec.j_diag
        # momentum <J Omega, Gamma> about the space-fixed axis
        integrals["lagrange_momentum"] = (
            lambda y: np.vecdot(j * packed_to_vector(y[..., :3]), y[..., 3:])
        )
    elif kind is CaseKind.KHARLAMOVA_3D:
        j, b = spec.j_diag, pot.b

        def kharlamova_momentum(y):
            w = packed_to_vector(y[..., :3])
            return j[0] * w[..., 0] * b[0] + j[1] * w[..., 1] * b[1]

        integrals["kharlamova_momentum"] = kharlamova_momentum
    elif kind is CaseKind.CLEBSCH_TISSERAND_3D:
        j = spec.j_diag
        a = pot.b[0] / j[0] * np.prod(j) / j

        def clebsch_quadratic(y):
            w = j * packed_to_vector(y[..., :3])
            return 0.5 * np.vecdot(w, w) - 0.5 * np.vecdot(a, y[..., 3:] ** 2)

        integrals["clebsch_quadratic"] = clebsch_quadratic
    elif kind is CaseKind.DGJ_3D:
        j = spec.j_diag

        def dgj_integral(y):
            w = j * packed_to_vector(y[..., :3])
            g1, g2, g3 = y[..., 3], y[..., 4], y[..., 5]
            return (
                0.5 * np.vecdot(w, w)
                + j[1] * pot.v1(g1, g2 * g2 + g3 * g3)
                + j[0] * pot.v2(g2, g1 * g1 + g3 * g3)
            )

        integrals["dgj_integral"] = dgj_integral
    elif kind is CaseKind.LAGRANGE_ND:
        # angular momenta mixing two horizontal axes
        for i, j in itertools.combinations(range(n - 1), 2):

            def momentum(y, i=i, j=j):
                g, col = y[..., k:], y[..., cols]
                return g[..., j] * col[..., i] - g[..., i] * col[..., j]

            integrals[f"L_{i + 1}_{j + 1}"] = momentum
    elif kind is CaseKind.KHARLAMOVA_ND:
        scale = (inertia.diag[: n - 1] + inertia.diag[n - 1]) / pot.b[: n - 1]
        for i, j in itertools.combinations(range(n - 1), 2):

            def fij(y, i=i, j=j):
                return scale[i] * y[..., cols[i]] - scale[j] * y[..., cols[j]]

            integrals[f"F_{i + 1}_{j + 1}"] = fij
    elif kind is CaseKind.CLEBSCH_TISSERAND_ND:
        # circle radius in each (Omega_in, Gamma_i) plane
        for i in range(n - 1):
            integrals[f"F_{i + 1}"] = (
                lambda y, i=i: clebsch.packed_integrals_f(y, inertia, pot.b)[..., i]
            )
    # GYROSCOPIC_3D keeps only the energy
    return integrals


def build_field(spec: CaseSpec):
    """The equations of motion for a case; returns ``(field, constraints)``
    with ``field(y) -> ydot`` on the packed coordinates of ``integrate``
    (upper triangle of Omega, then Gamma): the reduced equations for the
    canonical cases, with exact zeros in the so(n-1) block, and the vector
    form, checked once, for the 3D ones.  Given a list of floats, as every
    method of ``integrate`` hands it each point, a field returns a list;
    given an array ``(..., d)``, a point or a block, it returns an array,
    each row with the bits of its point's list."""
    spec.validate()
    axis = spec.vector_axis
    if axis is not None:
        return (_vector3d_field(spec.j_diag, axis, spec.potential, spec.gyro_eps),
                ConstraintSet.single_3d(axis))
    return (_reduced_field(spec.inertia, spec.potential),
            ConstraintSet.canonical_suslov(spec.n))


def pendulum_reference_field(gamma, gamma_dot, mass: float, b_n: float) -> np.ndarray:
    """Spherical-pendulum acceleration on the unit sphere.

    Derived from the Lagrangian ``1/2 mass |Gamma'|^2 - b_n Gamma_n`` with the
    unit-norm constraint: the multiplier is ``b_n Gamma_n - mass |Gamma'|^2``,
    giving::

        Gamma'' = -(b_n / mass) (e_n - Gamma_n Gamma) - |Gamma'|^2 Gamma .

    Tangency is preserved: d/dt <Gamma, Gamma'> = 0 along solutions.
    """
    gamma = np.asarray(gamma, dtype=float)
    gamma_dot = np.asarray(gamma_dot, dtype=float)
    # loose bound: embedded stepper stages sit O(h^2) off the sphere
    if abs(np.linalg.norm(gamma) - 1.0) > 1e-3:
        raise ValueError("pendulum reference needs |Gamma| = 1")
    n = gamma.size
    e_n = np.zeros(n)
    e_n[n - 1] = 1.0
    speed2 = float(np.dot(gamma_dot, gamma_dot))
    return -(b_n / mass) * (e_n - gamma[n - 1] * gamma) - speed2 * gamma


def asymptotic_points(j_diag, axis, energy_level: float):
    """Rest points of the free 3D constrained motion on its energy ellipse.

    For a constraint axis ``a`` that is not an eigenvector of the inertia
    form, the angular velocity moves along the ellipse ``1/2 <J w, w> = h``
    inside the admissible plane ``w . a = 0`` and converges to one of two
    opposite rest points.  There ``J w x w`` is parallel to ``a``, that is
    ``<J w, a> = 0``, so the rest points lie on the line ``d = a x J a``.
    On the plane ``d/dt <J w, a> = <J w, a> <w, a x J^-1 a> / <a, J^-1 a>``,
    so the attractor is the point with ``<w, a x J^-1 a> < 0``; as
    ``<d, a x J^-1 a> = 1 - <a, J a> <a, J^-1 a> < 0`` (Cauchy-Schwarz),
    that is ``d`` itself.  Returns ``(w_minus, w_plus)`` with ``w_plus`` the
    forward-time attractor and ``w_minus = -w_plus``.
    """
    j = np.asarray(j_diag, dtype=float)
    a = _unit_axis(axis)
    if not 0.0 < energy_level < np.inf:
        raise ValueError(f"energy level must be positive and finite: {energy_level!r}")
    ja = j * a
    d = np.cross(a, ja)
    if np.linalg.norm(d) <= 1e-12 * np.linalg.norm(ja):
        raise ValueError("no asymptotic line; solutions are constants")
    w_plus = d * np.sqrt(2.0 * energy_level / np.dot(j * d, d))
    return -w_plus, w_plus


def jacobian_rank(evaluators, state: BodyState) -> int:
    """Numerical rank of the Jacobian of scalar functions of the packed
    point (such as the functions of :func:`first_integrals`) at ``state``.

    Differentiates in the reduced chart (Omega_in column, ambient Gamma: the
    slots ``layout(n).reduced``) with central differences of step 1e-6, from
    one call of each evaluator on a block of the ``2 (2n - 1)`` perturbed
    points, and counts singular values above 1e-8 times the largest.
    """
    lay = layout(state.n)
    y0 = np.zeros(lay.k + state.n)  # the so(n-1) block stays zero
    y0[lay.reduced] = pack_state(state.omega, state.gamma)[lay.reduced]
    sv = np.linalg.svd([_central_differences(fn, y0, _RANK_FD_STEP, lay.reduced)
                        for fn in evaluators], compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > _RANK_THRESHOLD * sv[0]))
