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
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .algebra import ConstraintSet, SkewMatrix, skew_to_vector, vector_to_skew
from .model import (
    BodyState,
    DGJPotential,
    LinearPotential,
    MassTensor,
    Potential,
    QuadraticPotential,
    ZeroPotential,
    _cross,
    _plane_basis,
    energy,
    vector_field_3d,
    vector_field_reduced,
)

__all__ = [
    "CaseKind",
    "CaseError",
    "CaseSpec",
    "IntegralSet",
    "first_integrals",
    "build_field",
    "pendulum_reference_field",
    "asymptotic_points",
    "jacobian_rank",
]


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
            axis = axis / np.linalg.norm(axis)
            object.__setattr__(self, "constraint_axis", axis)
        self.validate()

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
        if kind in (_3D_KINDS | {CaseKind.SUSLOV_FREE, CaseKind.LAGRANGE_ND,
                                 CaseKind.KHARLAMOVA_ND,
                                 CaseKind.CLEBSCH_TISSERAND_ND}):
            if self.inertia.diag is None:
                raise CaseError(f"{kind.value} requires a diagonal mass tensor")
        diag = self.inertia.diag
        pot = self.potential

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


class IntegralSet:
    """Ordered collection of labelled conserved quantities."""

    def __init__(self, entries):
        # entries: list of (label, fn, description)
        self._entries = list(entries)
        labels = [e[0] for e in self._entries]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate integral labels")

    @property
    def labels(self):
        return [e[0] for e in self._entries]

    def items(self):
        return [(label, fn) for label, fn, _ in self._entries]

    def __iter__(self):
        return iter(self.items())

    def __len__(self):
        return len(self._entries)

    def function(self, label):
        for lab, fn, _ in self._entries:
            if lab == label:
                return fn
        raise KeyError(label)

    def description(self, label):
        for lab, _, desc in self._entries:
            if lab == label:
                return desc
        raise KeyError(label)

    def evaluate(self, state: BodyState) -> dict:
        return {label: fn(state) for label, fn, _ in self._entries}


def _omega_col(state: BodyState) -> np.ndarray:
    n = state.n
    return state.omega.mat[: n - 1, n - 1]


def first_integrals(spec: CaseSpec) -> IntegralSet:
    """Energy plus the case-specific conserved quantities."""
    spec.validate()
    inertia, pot = spec.inertia, spec.potential
    entries = [
        (
            "energy",
            lambda s, inertia=inertia, pot=pot: energy(s, inertia, pot),
            "kinetic energy plus potential",
        )
    ]
    kind, n = spec.kind, spec.n

    if kind is CaseKind.SUSLOV_FREE:
        if spec.constraint_axis is None:
            # admissible velocities are frozen, so each column entry is conserved
            for i in range(n - 1):
                entries.append(
                    (
                        f"Omega_{i + 1}_{n}",
                        lambda s, i=i, n=n: float(s.omega.mat[i, n - 1]),
                        "constant angular velocity component of the free case",
                    )
                )
    elif kind is CaseKind.LAGRANGE_3D:
        j = spec.j_diag

        def lagrange_momentum(s, j=j):
            return float(np.dot(j * skew_to_vector(s.omega), s.gamma))

        entries.append(
            (
                "lagrange_momentum",
                lagrange_momentum,
                "momentum <J Omega, Gamma> about the space-fixed axis",
            )
        )
    elif kind is CaseKind.KHARLAMOVA_3D:
        j = spec.j_diag
        b = pot.b

        def kharlamova_momentum(s, j=j, b=b):
            w = skew_to_vector(s.omega)
            return float(j[0] * w[0] * b[0] + j[1] * w[1] * b[1])

        entries.append(
            (
                "kharlamova_momentum",
                kharlamova_momentum,
                "linear combination J1 Omega1 B1 + J2 Omega2 B2",
            )
        )
    elif kind is CaseKind.CLEBSCH_TISSERAND_3D:
        j = spec.j_diag
        eps = pot.b[0] / j[0]
        a = eps * np.prod(j) / j

        def clebsch_quadratic(s, j=j, a=a):
            w = j * skew_to_vector(s.omega)
            return float(0.5 * np.dot(w, w) - 0.5 * np.dot(a, s.gamma**2))

        entries.append(
            (
                "clebsch_quadratic",
                clebsch_quadratic,
                "quadratic integral 1/2 |J Omega|^2 - 1/2 <A Gamma, Gamma>",
            )
        )
    elif kind is CaseKind.DGJ_3D:
        j = spec.j_diag

        def dgj_integral(s, j=j, pot=pot):
            w = j * skew_to_vector(s.omega)
            g1, g2, g3 = s.gamma
            return float(
                0.5 * np.dot(w, w)
                + j[1] * pot.v1(g1, g2 * g2 + g3 * g3)
                + j[0] * pot.v2(g2, g1 * g1 + g3 * g3)
            )

        entries.append(
            (
                "dgj_integral",
                dgj_integral,
                "1/2 |J Omega|^2 weighted-sum integral of the two-function family",
            )
        )
    elif kind is CaseKind.LAGRANGE_ND:
        for i in range(n - 1):
            for j in range(i + 1, n - 1):

                def momentum(s, i=i, j=j):
                    col = _omega_col(s)
                    return float(s.gamma[j] * col[i] - s.gamma[i] * col[j])

                entries.append(
                    (
                        f"L_{i + 1}_{j + 1}",
                        momentum,
                        "angular momentum mixing two horizontal axes "
                        "(Gamma_j Omega_in - Gamma_i Omega_jn)",
                    )
                )
    elif kind is CaseKind.KHARLAMOVA_ND:
        b = pot.b
        scale = (inertia.diag[: n - 1] + inertia.diag[n - 1]) / b[: n - 1]
        for i in range(n - 1):
            for j in range(i + 1, n - 1):

                def fij(s, i=i, j=j, scale=scale):
                    col = _omega_col(s)
                    return float(scale[i] * col[i] - scale[j] * col[j])

                entries.append(
                    (
                        f"F_{i + 1}_{j + 1}",
                        fij,
                        "difference of rescaled velocity components",
                    )
                )
    elif kind is CaseKind.CLEBSCH_TISSERAND_ND:
        b = pot.b
        pair = inertia.diag[: n - 1] + inertia.diag[n - 1]
        gap = b[: n - 1] - b[n - 1]
        for i in range(n - 1):

            def fi(s, i=i, pair=pair, gap=gap):
                col = _omega_col(s)
                return float(gap[i] * s.gamma[i] ** 2 + pair[i] * col[i] ** 2)

            entries.append(
                (
                    f"F_{i + 1}",
                    fi,
                    "circle radius in one (Omega_in, Gamma_i) plane",
                )
            )
    # GYROSCOPIC_3D keeps only the energy
    return IntegralSet(entries)


def build_field(spec: CaseSpec):
    """The equations of motion for a case; returns (field, constraints)."""
    spec.validate()
    if spec.kind in _3D_KINDS or (
        spec.kind is CaseKind.SUSLOV_FREE and spec.constraint_axis is not None
    ):
        axis = spec.constraint_axis
        axis = np.array([0.0, 0.0, 1.0]) if axis is None else axis
        j = spec.j_diag
        pot = spec.potential
        eps = spec.gyro_eps
        constraints = ConstraintSet.single_3d(axis)

        def field(state, j=j, pot=pot, eps=eps, axis=axis):
            w = skew_to_vector(state.omega)
            w_dot, g_dot = vector_field_3d(w, state.gamma, j, pot, eps, axis)
            return vector_to_skew(w_dot), g_dot

        return field, constraints

    inertia, pot = spec.inertia, spec.potential
    constraints = ConstraintSet.canonical_suslov(spec.n)

    def field(state, inertia=inertia, pot=pot):
        return vector_field_reduced(state, inertia, pot)

    return field, constraints


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

    For a constraint axis that is not an eigenvector of the inertia form,
    the angular velocity moves along the ellipse ``1/2 <J w, w> = h`` inside
    the admissible plane and converges to one of two opposite rest points.
    Returns ``(w_minus, w_plus)`` with ``w_plus`` the forward-time attractor
    and ``w_minus = -w_plus``.
    """
    j = np.asarray(j_diag, dtype=float)
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    if energy_level <= 0.0:
        raise ValueError("energy level must be positive")
    ja = j * a
    if np.linalg.norm(ja - np.dot(a, ja) * a) <= 1e-12 * np.linalg.norm(ja):
        raise ValueError("no asymptotic line; solutions are constants")
    u, v = _plane_basis(a)

    def omega_of(psi):
        d = np.cos(psi) * u + np.sin(psi) * v
        return d * np.sqrt(2.0 * energy_level / np.dot(j * d, d))

    def omega_dot(w):
        k = _cross(j * w, w)
        lam = -np.dot(a, k / j) / np.dot(a, a / j)
        return (k + lam * a) / j

    def speed(psi):
        # signed speed along the ellipse; zero exactly at rest points
        h = 1e-7
        tangent = (omega_of(psi + h) - omega_of(psi - h)) / (2.0 * h)
        tangent /= np.linalg.norm(tangent)
        return float(np.dot(omega_dot(omega_of(psi)), tangent))

    psis = np.linspace(0.0, np.pi, 361)
    values = np.array([speed(p) for p in psis])
    roots = []
    for i in range(psis.size - 1):
        if values[i] == 0.0:
            roots.append(psis[i])
        elif values[i] * values[i + 1] < 0.0:
            roots.append(brentq(speed, psis[i], psis[i + 1], xtol=1e-14))
    if not roots:
        raise ValueError("no rest direction found on the energy ellipse")
    psi_star = roots[0]
    slope = (speed(psi_star + 1e-6) - speed(psi_star - 1e-6)) / 2e-6
    w = omega_of(psi_star)
    w_plus = w if slope < 0.0 else -w
    return -w_plus, w_plus


def jacobian_rank(evaluators, state: BodyState, threshold: float = 1e-8,
                  step: float = 1e-6) -> int:
    """Numerical rank of the Jacobian of scalar state functions.

    Differentiates in the reduced chart (Omega_in column, ambient Gamma)
    with central differences and counts singular values above ``threshold``
    times the largest.
    """
    n = state.n
    col0 = state.omega.mat[: n - 1, n - 1].copy()
    gamma0 = state.gamma.copy()
    x0 = np.concatenate([col0, gamma0])

    def make_state(x):
        mat = np.zeros((n, n))
        mat[: n - 1, n - 1] = x[: n - 1]
        mat[n - 1, : n - 1] = -x[: n - 1]
        return BodyState(SkewMatrix._wrap(mat), x[n - 1 :])

    rows = []
    for fn in evaluators:
        grad = np.empty(x0.size)
        for i in range(x0.size):
            e = np.zeros(x0.size)
            e[i] = step
            grad[i] = (fn(make_state(x0 + e)) - fn(make_state(x0 - e))) / (2 * step)
        rows.append(grad)
    sv = np.linalg.svd(np.array(rows), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > threshold * sv[0]))
