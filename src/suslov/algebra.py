"""Skew-symmetric matrix algebra on so(n) and its packed layout.

Conventions used throughout the package:

* the packed vector of ``X`` in so(n) is its upper triangle in row-major
  order, ``(X_12, X_13, ..., X_1n, X_23, ..., X_{n-1,n})``, of length
  ``k = n(n-1)/2``; :func:`layout` holds its index table, and
  :func:`pack`/:func:`unpack` convert exactly, with no rounding;
* the pairing on so(n) is ``<A, B> = -1/2 tr(A B) = sum_{i<j} A_ij B_ij``,
  the dot product of the packed vectors, which makes the basis matrices
  ``E_ij`` orthonormal and turns the n=3 vector identification into an
  isometry;
* a constraint set is stored as packed rows, so pairing a state with every
  constraint covector is one matrix-vector product;
* the wedge of two vectors is ``u ^ v = u v^T - v u^T``;
* for n=3 a skew matrix corresponds to the vector
  ``(-A_23, A_13, -A_12)`` (the classical hat map), under which the matrix
  commutator becomes the cross product and the pairing the dot product.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "SkewMatrix",
    "Layout",
    "layout",
    "pack",
    "unpack",
    "unpack_mats",
    "from_column",
    "ConstraintSet",
    "commutator",
    "wedge",
    "inner",
    "vector_to_skew",
    "skew_to_vector",
    "packed_to_vector",
    "project_admissible",
    "distribution_basis",
    "is_nonholonomic",
]

_BRACKET_LEAK_TOL = 1e-10  # bracket component off D / max(1, |bracket|)


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


class Layout(NamedTuple):
    """Packed so(n): slot ``p`` holds ``X[iu[p], ju[p]]``, at flat row-major
    index ``upper[p]`` (``lower[p]`` for ``X[ju[p], iu[p]]``); ``column``
    lists the slots ``X_in``.  The index arrays are read-only."""

    k: int
    iu: np.ndarray
    ju: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    column: np.ndarray


@lru_cache(maxsize=32)
def layout(n: int) -> Layout:
    """The packed layout of so(n), built once per n and shared."""
    iu, ju = np.triu_indices(n, k=1)
    index = (iu, ju, iu * n + ju, ju * n + iu, np.flatnonzero(ju == n - 1))
    for a in index:
        a.flags.writeable = False
    return Layout(iu.size, *index)


def pack(x: SkewMatrix) -> np.ndarray:
    """The packed vector of ``X`` (a new array)."""
    return x.mat.ravel()[layout(x.n).upper]


def unpack(v, n: int) -> SkewMatrix:
    """The element of so(n) with packed vector ``v``; exactly skew."""
    lay = layout(n)
    mat = np.zeros(n * n)
    mat[lay.upper] = v
    mat[lay.lower] = -v
    return SkewMatrix._wrap(mat.reshape(n, n))


def unpack_mats(v, n: int) -> np.ndarray:
    """The n-by-n matrices of packed vectors ``v`` of shape ``(..., k)``, as
    one ``(..., n, n)`` array filled by two index assignments: the same
    entries as :func:`unpack` of each vector.  (``unpack`` keeps its own
    one-vector fill, which indexes about twice as fast as the ``...`` form.)"""
    v = np.asarray(v, dtype=float)
    lay = layout(n)
    mat = np.zeros(v.shape[:-1] + (n * n,))
    mat[..., lay.upper] = v
    mat[..., lay.lower] = -v
    return mat.reshape(v.shape[:-1] + (n, n))


def from_column(col) -> SkewMatrix:
    """The element of so(n), ``n = len(col) + 1``, whose packed vector holds
    ``col`` in the ``layout(n).column`` slots (``X_in = col[i]``) and zero
    elsewhere: the velocity of the canonical Suslov cases."""
    col = np.asarray(col, dtype=float)
    n = col.size + 1
    lay = layout(n)
    v = np.zeros(lay.k)
    v[lay.column] = col
    return unpack(v, n)


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
    return packed_to_vector(pack(a))


_HAT_SIGNS = np.array([-1.0, 1.0, -1.0])
_HAT_SIGNS.flags.writeable = False


def packed_to_vector(v) -> np.ndarray:
    """The so(3) vectors ``(-X_23, X_13, -X_12)`` of packed vectors ``v`` of
    shape ``(..., 3)``: the packed layout ``(X_12, X_13, X_23)`` reversed,
    with two signs flipped (exactly).  The map is its own inverse, so it
    also packs vectors."""
    return v[..., ::-1] * _HAT_SIGNS


class ConstraintSet:
    """Left-invariant constraint covectors a^1..a^r spanning the annihilator
    of the admissible distribution D = {X : <a^i, X> = 0 for all i}.

    The covectors are stored as the rows of the read-only r-by-k matrix
    ``rows`` (packed layout), with their Gram matrix ``gram = rows @ rows.T``.
    """

    __slots__ = ("rows", "gram", "n", "r")

    def __init__(self, generators):
        generators = tuple(generators)
        if not generators:
            raise ValueError("constraint set needs at least one generator")
        n = generators[0].n
        for g in generators:
            if g.n != n:
                raise ValueError("constraint generators have mixed dimensions")
        self._fill(n, np.array([pack(g) for g in generators]))

    def _fill(self, n, rows):
        gram = rows @ rows.T
        eig = np.linalg.eigvalsh(gram)
        if eig[0] <= 1e-12 * max(eig[-1], 1.0):
            raise ValueError("constraint generators are linearly dependent")
        rows.flags.writeable = False
        gram.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", rows.shape[0])

    def __setattr__(self, name, value):
        raise AttributeError("ConstraintSet is immutable")

    @classmethod
    def canonical_suslov(cls, n: int) -> "ConstraintSet":
        """Generators E_ij for i < j <= n-2 (zero-based), i.e. the so(n-1)
        block: only rotations in planes containing e_n remain admissible."""
        if n < 3:
            raise ValueError("canonical constraints need n >= 3")
        lay = layout(n)
        obj = object.__new__(cls)
        obj._fill(n, np.eye(lay.k)[lay.ju < n - 1])
        return obj

    @classmethod
    def single_3d(cls, a) -> "ConstraintSet":
        """Single 3D constraint <a, omega> = 0 written in matrix form."""
        return cls([vector_to_skew(a)])

    def residual(self, x: SkewMatrix) -> float:
        """max_i |<a^i, X>|, the distance of X from satisfying the constraints."""
        return float(np.max(np.abs(self.rows @ pack(x))))


def project_admissible(x: SkewMatrix, constraints: ConstraintSet) -> SkewMatrix:
    """Orthogonal projection of X onto D with respect to the pairing."""
    if x.n != constraints.n:
        raise ValueError(f"dimension mismatch: {x.n} vs {constraints.n}")
    rows, v = constraints.rows, pack(x)
    coeff = np.linalg.solve(constraints.gram, rows @ v)
    return unpack(v - rows.T @ coeff, x.n)


def distribution_basis(constraints: ConstraintSet):
    """Orthonormal basis of D: the null space of the packed rows, from the
    right singular vectors (the rows are independent, so it has k - r
    elements)."""
    vt = np.linalg.svd(constraints.rows)[2]
    return [unpack(v, constraints.n) for v in vt[constraints.r :]]


def is_nonholonomic(constraints: ConstraintSet) -> bool:
    """True iff D fails to close under the bracket.

    Checks every pair of an orthonormal basis of D; a bracket component
    orthogonal to D counts as nonzero when it exceeds 1e-10 times the norm
    of the bracket (at least 1).
    """
    basis = distribution_basis(constraints)
    for p in range(len(basis)):
        for q in range(p + 1, len(basis)):
            br = commutator(basis[p], basis[q])
            leak = br - project_admissible(br, constraints)
            if leak.norm() > _BRACKET_LEAK_TOL * max(1.0, br.norm()):
                return True
    return False
