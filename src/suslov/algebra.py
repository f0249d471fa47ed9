"""Dense skew-symmetric matrix algebra on so(n).

Conventions used throughout the package:

* the pairing on so(n) is ``<A, B> = -1/2 tr(A B) = sum_{i<j} A_ij B_ij``,
  which makes the basis matrices ``E_ij`` orthonormal and turns the n=3
  vector identification into an isometry;
* the wedge of two vectors is ``u ^ v = u v^T - v u^T``;
* for n=3 a skew matrix corresponds to the vector
  ``(-A_23, A_13, -A_12)`` (the classical hat map), under which the matrix
  commutator becomes the cross product and the pairing the dot product.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SkewMatrix",
    "ConstraintSet",
    "commutator",
    "wedge",
    "inner",
    "vector_to_skew",
    "skew_to_vector",
    "project_admissible",
    "distribution_basis",
    "is_nonholonomic",
]


class SkewMatrix:
    """An element of so(n), stored as a full read-only n-by-n array.

    The constructor antisymmetrizes its argument, ``(A - A^T) / 2``, so the
    skew invariant holds exactly no matter what is passed in.
    """

    __slots__ = ("mat", "n")

    def __init__(self, mat):
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        if mat.shape[0] < 2:
            raise ValueError("so(n) requires n >= 2")
        skew = 0.5 * (mat - mat.T)
        skew.flags.writeable = False
        object.__setattr__(self, "mat", skew)
        object.__setattr__(self, "n", mat.shape[0])

    @classmethod
    def _wrap(cls, mat):
        """Wrap an array that is already exactly skew (internal fast path)."""
        obj = object.__new__(cls)
        mat.flags.writeable = False
        object.__setattr__(obj, "mat", mat)
        object.__setattr__(obj, "n", mat.shape[0])
        return obj

    @classmethod
    def zeros(cls, n: int) -> "SkewMatrix":
        return cls._wrap(np.zeros((n, n)))

    @classmethod
    def basis(cls, n: int, i: int, j: int) -> "SkewMatrix":
        """E_ij: +1 at (i, j), -1 at (j, i), zero-based indices, i != j."""
        if i == j:
            raise ValueError("basis element requires i != j")
        mat = np.zeros((n, n))
        mat[i, j] = 1.0
        mat[j, i] = -1.0
        return cls._wrap(mat)

    @classmethod
    def from_entries(cls, n: int, entries) -> "SkewMatrix":
        """Build from a sparse list of ``(i, j, value)`` upper-triangle entries."""
        mat = np.zeros((n, n))
        for i, j, v in entries:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"invalid entry index ({i}, {j}) for n={n}")
            mat[i, j] = v
            mat[j, i] = -v
        return cls._wrap(mat)

    def entry(self, i: int, j: int) -> float:
        return float(self.mat[i, j])

    def norm(self) -> float:
        """Norm induced by the pairing: sqrt(sum_{i<j} A_ij^2)."""
        return float(np.sqrt(0.5) * np.linalg.norm(self.mat))

    def __setattr__(self, name, value):
        raise AttributeError("SkewMatrix is immutable")

    def __add__(self, other: "SkewMatrix") -> "SkewMatrix":
        return SkewMatrix._wrap(self.mat + other.mat)

    def __sub__(self, other: "SkewMatrix") -> "SkewMatrix":
        return SkewMatrix._wrap(self.mat - other.mat)

    def __neg__(self) -> "SkewMatrix":
        return SkewMatrix._wrap(-self.mat)

    def __mul__(self, scalar: float) -> "SkewMatrix":
        return SkewMatrix._wrap(self.mat * float(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"SkewMatrix(n={self.n})\n{self.mat!r}"


def _check_same_dim(a: SkewMatrix, b: SkewMatrix):
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")


def commutator(a: SkewMatrix, b: SkewMatrix) -> SkewMatrix:
    """Matrix bracket [A, B] = AB - BA; skew whenever A, B are."""
    _check_same_dim(a, b)
    ab = a.mat @ b.mat
    return SkewMatrix._wrap(ab - ab.T)


def wedge(u, v) -> SkewMatrix:
    """u v^T - v u^T for two n-vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError(f"length mismatch: {u.shape} vs {v.shape}")
    return SkewMatrix._wrap(np.outer(u, v) - np.outer(v, u))


def inner(a: SkewMatrix, b: SkewMatrix) -> float:
    """<A, B> = -1/2 tr(AB) = sum_{i<j} A_ij B_ij; positive definite."""
    _check_same_dim(a, b)
    return float(0.5 * np.sum(a.mat * b.mat))


def vector_to_skew(u) -> SkewMatrix:
    """n=3 identification: vector u to the matrix with u x r = (hat u) r."""
    u = np.asarray(u, dtype=float)
    if u.shape != (3,):
        raise ValueError("vector_to_skew expects a 3-vector")
    x, y, z = u.tolist()
    # exactly skew as written, so no antisymmetrizing pass is needed
    return SkewMatrix._wrap(np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]]))


def skew_to_vector(a: SkewMatrix):
    """Inverse of :func:`vector_to_skew`: (-A_23, A_13, -A_12)."""
    if a.n != 3:
        raise ValueError("skew_to_vector expects so(3)")
    m = a.mat
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


class ConstraintSet:
    """Left-invariant constraint covectors a^1..a^r spanning the annihilator
    of the admissible distribution D = {X : <a^i, X> = 0 for all i}."""

    __slots__ = ("generators", "n", "r", "_gram")

    def __init__(self, generators):
        generators = tuple(generators)
        if not generators:
            raise ValueError("constraint set needs at least one generator")
        n = generators[0].n
        for g in generators:
            if g.n != n:
                raise ValueError("constraint generators have mixed dimensions")
        gram = np.array([[inner(a, b) for b in generators] for a in generators])
        eig = np.linalg.eigvalsh(gram)
        if eig[0] <= 1e-12 * max(eig[-1], 1.0):
            raise ValueError("constraint generators are linearly dependent")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", len(generators))
        object.__setattr__(self, "_gram", gram)

    def __setattr__(self, name, value):
        raise AttributeError("ConstraintSet is immutable")

    @classmethod
    def canonical_suslov(cls, n: int) -> "ConstraintSet":
        """Generators E_ij for i < j <= n-2 (zero-based), i.e. the so(n-1)
        block: only rotations in planes containing e_n remain admissible."""
        if n < 3:
            raise ValueError("canonical constraints need n >= 3")
        gens = [
            SkewMatrix.basis(n, i, j)
            for i in range(n - 1)
            for j in range(i + 1, n - 1)
        ]
        return cls(gens)

    @classmethod
    def single_3d(cls, a) -> "ConstraintSet":
        """Single 3D constraint <a, omega> = 0 written in matrix form."""
        return cls([vector_to_skew(a)])

    def residual(self, x: SkewMatrix) -> float:
        """max_i |<a^i, X>|, the distance of X from satisfying the constraints."""
        return max(abs(inner(g, x)) for g in self.generators)


def project_admissible(x: SkewMatrix, constraints: ConstraintSet) -> SkewMatrix:
    """Orthogonal projection of X onto D with respect to the pairing."""
    if x.n != constraints.n:
        raise ValueError(f"dimension mismatch: {x.n} vs {constraints.n}")
    rhs = np.array([inner(g, x) for g in constraints.generators])
    coeff = np.linalg.solve(constraints._gram, rhs)
    mat = x.mat.copy()
    for c, g in zip(coeff, constraints.generators):
        mat = mat - c * g.mat
    return SkewMatrix._wrap(mat)


def distribution_basis(constraints: ConstraintSet):
    """Orthonormal basis of D, built by projecting the E_ij basis and
    Gram-Schmidt pruning."""
    n = constraints.n
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            cand = project_admissible(SkewMatrix.basis(n, i, j), constraints)
            mat = cand.mat.copy()
            for b in basis:
                mat = mat - inner(SkewMatrix._wrap(mat.copy()), b) * b.mat
            nrm = np.sqrt(0.5) * np.linalg.norm(mat)
            if nrm > 1e-10:
                basis.append(SkewMatrix._wrap(mat / nrm))
    expected = n * (n - 1) // 2 - constraints.r
    if len(basis) != expected:
        raise RuntimeError(
            f"distribution basis has {len(basis)} elements, expected {expected}"
        )
    return basis


def is_nonholonomic(constraints: ConstraintSet, rel_tol: float = 1e-10) -> bool:
    """True iff D fails to close under the bracket.

    Checks every pair of an orthonormal basis of D; a bracket component
    orthogonal to D counts as nonzero when it exceeds ``rel_tol`` times the
    norm of the inputs.
    """
    basis = distribution_basis(constraints)
    for p in range(len(basis)):
        for q in range(p + 1, len(basis)):
            br = commutator(basis[p], basis[q])
            leak = br - project_admissible(br, constraints)
            if leak.norm() > rel_tol * max(1.0, br.norm()):
                return True
    return False
