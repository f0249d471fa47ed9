"""Closed-form machinery for the Kharlamova case.

With the canonical constraints, diagonal mass tensor and a linear potential
``V = B_1 G_1 + ... + B_{n-1} G_{n-1}`` (no ``G_n`` term), the change of
variables

    w_1 = c_1 W_1,          w_i = c_i W_i - c_1 W_1          (i >= 2)
    g_1 = -c_1 G_1,         g_i = -c_i G_i + c_1 G_1,        g_n = G_n

with ``c_i = (I_i + I_n) / B_i`` and ``W_i = Omega_in`` turns the equations
into

    w_1' = g_n,   w_i' = 0,   g_i' = g_n w_i,
    g_n' = -k_1^2 g_1 w_1 - sum_{i>=2} k_i^2 (g_1 + g_i)(w_1 + w_i)

with ``k_i = 1 / c_i``.  Eliminating time gives the orbit as a curve over
``w_1``; the unit-sphere identity then yields ``g_n^2 = P(w_1)`` for a
quartic ``P`` with negative leading coefficient, and the motion is either
periodic with period ``T = 2 * integral dw / sqrt(P)`` over the positivity
interval between adjacent roots, or asymptotic when an endpoint root is
double.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .algebra import from_column
from .model import BodyState, MassTensor

__all__ = [
    "KharlamovaCoords",
    "QuarticPolynomial",
    "to_kharlamova",
    "from_kharlamova",
    "reduced_field",
    "orbit_curve",
    "trajectory_polynomial",
    "orbit_interval",
    "period",
]

_BASE_POINT_TOL = 1e-9  # -P(omega1_0) / max(1, |coeffs|) read as roundoff
_REAL_ROOT_TOL = 1e-7  # |Im root| / (1 + |root|) of a real root; also |root - end|
_DOUBLE_ROOT_TOL = 1e-8  # |P'| / derivative_scale at a double root


@dataclass(frozen=True)
class KharlamovaCoords:
    """The (w, g) variables; ``w`` has length n-1, ``g`` has length n and
    ``g[-1]`` plays the role of Gamma_n."""

    omega: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        gamma = np.asarray(self.gamma, dtype=float)
        if gamma.size != omega.size + 1:
            raise ValueError("gamma must have one more entry than omega")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "gamma", gamma)

    @property
    def n(self) -> int:
        return self.gamma.size


def _scales(inertia: MassTensor, b):
    """c_i = (I_i + I_n)/B_i for i < n; validates the case hypotheses."""
    if inertia.diag is None:
        raise ValueError("Kharlamova coordinates need a diagonal mass tensor")
    b = np.asarray(b, dtype=float)
    n = inertia.n
    if b.shape != (n,):
        raise ValueError(f"B must have length {n}")
    if abs(b[n - 1]) > 1e-12:
        raise ValueError("Kharlamova case requires B_n = 0")
    if np.any(b[: n - 1] == 0.0):
        bad = int(np.argmin(np.abs(b[: n - 1])))
        raise ValueError(
            f"coordinate change undefined: B_{bad + 1} = 0 "
            "(integrate the original variables instead)"
        )
    return (inertia.diag[: n - 1] + inertia.diag[n - 1]) / b[: n - 1]


def to_kharlamova(state: BodyState, inertia: MassTensor, b) -> KharlamovaCoords:
    c = _scales(inertia, b)
    n = state.n
    col = state.omega.mat[: n - 1, n - 1]
    w = np.empty(n - 1)
    w[0] = c[0] * col[0]
    w[1:] = c[1:] * col[1:] - w[0]
    g = np.empty(n)
    g[0] = -c[0] * state.gamma[0]
    g[1 : n - 1] = -c[1:] * state.gamma[1 : n - 1] - g[0]
    g[n - 1] = state.gamma[n - 1]
    return KharlamovaCoords(w, g)


def from_kharlamova(coords: KharlamovaCoords, inertia: MassTensor, b) -> BodyState:
    c = _scales(inertia, b)
    n = coords.n
    w, g = coords.omega, coords.gamma
    col = np.empty(n - 1)
    col[0] = w[0] / c[0]
    col[1:] = (w[1:] + w[0]) / c[1:]
    gamma = np.empty(n)
    gamma[0] = -g[0] / c[0]
    gamma[1 : n - 1] = -(g[1 : n - 1] + g[0]) / c[1:]
    gamma[n - 1] = g[n - 1]
    return BodyState(from_column(col), gamma)


def reduced_field(coords: KharlamovaCoords, inertia: MassTensor, b) -> KharlamovaCoords:
    """Time derivative of the (w, g) variables; returned in the same shape."""
    k = 1.0 / _scales(inertia, b)
    n = coords.n
    w, g = coords.omega, coords.gamma
    gn = g[n - 1]
    w_dot = np.zeros(n - 1)
    w_dot[0] = gn
    g_dot = np.empty(n)
    g_dot[0] = gn * w[0]
    g_dot[1 : n - 1] = gn * w[1:]
    g_dot[n - 1] = -(k[0] ** 2) * g[0] * w[0] - float(
        np.sum(k[1:] ** 2 * (g[0] + g[1 : n - 1]) * (w[0] + w[1:]))
    )
    return KharlamovaCoords(w_dot, g_dot)


def orbit_curve(initial: KharlamovaCoords):
    """The g-components as functions of w_1 along the orbit through
    ``initial``: g_1 grows with w_1^2/2, the others linearly."""
    w0 = initial.omega.copy()
    g0 = initial.gamma.copy()
    m = w0.size

    def curve(w1: float) -> np.ndarray:
        out = np.empty(m)
        out[0] = g0[0] + 0.5 * (w1 * w1 - w0[0] * w0[0])
        out[1:] = g0[1:m] + w0[1:] * (w1 - w0[0])
        return out

    return curve


@dataclass(frozen=True)
class QuarticPolynomial:
    """``g_n^2`` as a polynomial in w_1, with the initial snapshot that
    produced it.  Coefficients are ascending (c0..c4)."""

    coeffs: np.ndarray
    omega1_0: float
    gamma_n_0: float

    def __post_init__(self):
        # a read-only copy: roots() are computed once, from these values
        c = np.array(self.coeffs, dtype=float)
        if c.shape != (5,):
            raise ValueError("expected 5 ascending coefficients")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def __call__(self, w):
        return npoly.polyval(w, self.coeffs)

    def derivative(self, w):
        return npoly.polyval(w, npoly.polyder(self.coeffs))

    def derivative_scale(self, w: float) -> float:
        """Magnitude scale of P' near w, for multiplicity thresholds."""
        powers = np.array([max(1.0, abs(w)) ** max(p - 1, 0) for p in range(5)])
        return float(np.sum(np.arange(5) * np.abs(self.coeffs) * powers))

    @property
    def degree(self) -> int:
        """Index of the highest nonzero coefficient (0 for a constant)."""
        c = self.coeffs
        deg = 4
        while deg > 0 and c[deg] == 0.0:
            deg -= 1
        return deg

    def roots(self) -> np.ndarray:
        """Companion-matrix roots of the true degree, Newton polished; read-only,
        computed on the first call."""
        return self._roots

    @functools.cached_property
    def _roots(self) -> np.ndarray:
        # Horner on the roots' own numpy scalars (float64 when every root is
        # real, else complex128), in the order of npoly.polyval, so each
        # value and Newton step has its bits without its per-call overhead
        c = self.coeffs[: self.degree + 1]
        cl, dl = c.tolist(), npoly.polyder(c).tolist()
        polished = []
        for r in npoly.polyroots(c):
            x = r
            for _ in range(3):
                d = _horner(x, dl)
                if d == 0:
                    break
                x = x - _horner(x, cl) / d
            # keep the polish only if it actually reduced the residual
            polished.append(x if abs(_horner(x, cl)) <= abs(_horner(r, cl)) else r)
        roots = np.array(polished)
        roots.flags.writeable = False
        return roots


def _horner(x, c):
    """``npoly.polyval(x, c)`` for a scalar ``x`` and a list ``c`` of
    ascending coefficients, with its operations in its order."""
    v = c[-1] + x * 0
    for ci in c[-2::-1]:
        v = ci + v * x
    return v


def trajectory_polynomial(
    initial: KharlamovaCoords, inertia: MassTensor, b
) -> QuarticPolynomial:
    """Expand ``1 - k_1^2 g_1(w)^2 - sum k_i^2 (g_1(w)+g_i(w))^2`` in w."""
    k = 1.0 / _scales(inertia, b)
    w0 = initial.omega
    g0 = initial.gamma
    m = w0.size
    # g_1(w) = a0 + w^2/2,  g_i(w) = b_i0 + w_i w  (ascending coefficients)
    g1 = np.array([g0[0] - 0.5 * w0[0] ** 2, 0.0, 0.5])
    total = np.zeros(5)
    total[0] = 1.0
    sq = npoly.polymul(g1, g1)
    total[: sq.size] -= k[0] ** 2 * sq
    for i in range(1, m):
        gi = np.array([g0[i] - w0[i] * w0[0], w0[i], 0.0])
        s = npoly.polyadd(g1, gi)
        sq = npoly.polymul(s, s)
        total[: sq.size] -= k[i] ** 2 * sq
    return QuarticPolynomial(total, float(w0[0]), float(g0[m]))


def orbit_interval(poly: QuarticPolynomial, omega1_0: float):
    """Adjacent real roots bracketing ``omega1_0`` with P >= 0 between.

    The endpoints are the turning values of w_1 where ``g_n`` vanishes.  If
    the base point sits on a root, the interval opens toward the positive
    side; a base point where P is negative on both sides degenerates to a
    single point.
    """
    scale = max(1.0, float(np.max(np.abs(poly.coeffs))))
    v0 = float(poly(omega1_0))
    if v0 < -_BASE_POINT_TOL * scale:
        raise ValueError(
            f"inconsistent initial data: P(omega1_0) = {v0:.3e} < 0 "
            "(the induced Gamma is not on the unit sphere)"
        )
    roots = poly.roots()
    if roots.size == 0:
        raise ValueError("polynomial has no roots; positivity interval unbounded")
    real = roots[np.abs(roots.imag) <= _REAL_ROOT_TOL * (1.0 + np.abs(roots))].real
    real = np.sort(real)
    slack = 1e-9 * (1.0 + abs(omega1_0))
    left = real[real <= omega1_0 + slack]
    right = real[real >= omega1_0 - slack]
    if left.size == 0 or right.size == 0:
        raise ValueError("no bracketing roots; positivity interval unbounded")
    xi1 = float(left[-1])
    xi2 = float(right[0])
    if xi2 - xi1 < slack:
        # base point is (numerically) a root: open toward where P > 0
        below = real[real < xi1 - slack]
        above = real[real > xi2 + slack]
        if above.size and poly(0.5 * (xi2 + above[0])) > 0.0:
            return (xi2, float(above[0]))
        if below.size and poly(0.5 * (below[-1] + xi1)) > 0.0:
            return (float(below[-1]), xi1)
        return (xi1, xi1)  # isolated touch point: degenerate interval
    return (xi1, xi2)


def period(poly: QuarticPolynomial, interval, nodes: int | None = None):
    """Period ``T = 2 * integral dw / sqrt(P)`` between the roots of ``P``
    nearest the ends of ``interval``, or ``math.inf`` when one is a double
    root (asymptotic orbit); ``ValueError`` if an end is farther than
    1e-7 (1 + |root|) from every root.

    With ``nodes=None`` the period is the complete elliptic integral
    ``4 Re R_F(0, q3(xi1) q4(xi2), q4(xi1) q3(xi2)) / sqrt(|lead|)``
    (DLMF 19.29; Carlson, Numer. Algorithms 10, 1995) over the remaining
    roots ``r_i``: ``q_i(w) = |w - r_i|`` for a real root, ``w - r_i`` for
    each member of a conjugate pair, and 1 for a root the degree lacks.
    With ``nodes=m`` it is an m-node Gauss-Legendre rule instead, after
    ``w = mid + half * sin(theta)`` cancels the inverse square root at the
    simple endpoints: an independent cross-check of the closed form.
    """
    xi1, xi2 = float(interval[0]), float(interval[1])
    if xi2 <= xi1:
        raise ValueError("degenerate interval: the orbit is an equilibrium point")
    roots = poly.roots()
    # the root nearest each endpoint replaces it; the rest build the smooth
    # factor
    keep, ends = list(range(roots.size)), []
    for xi in (xi1, xi2):
        best = min(keep, key=lambda idx: abs(roots[idx] - xi))
        if abs(roots[best] - xi) > _REAL_ROOT_TOL * (1.0 + abs(roots[best])):
            raise ValueError(f"interval endpoint {xi!r} is not a root of P "
                             f"(nearest root {roots[best]!r})")
        keep.remove(best)
        ends.append(float(roots[best].real))
    xi1, xi2 = ends
    for xi in ends:
        if abs(poly.derivative(xi)) < _DOUBLE_ROOT_TOL * poly.derivative_scale(xi):
            return math.inf
    others = roots[keep]
    lead = poly.coeffs[poly.degree]
    mid = 0.5 * (xi1 + xi2)
    half = 0.5 * (xi2 - xi1)

    # a real root inside the interval would flip the sign of the integrand
    real = np.abs(others.imag) <= _REAL_ROOT_TOL * (1.0 + np.abs(others))
    inside = real & (np.abs(others.real - mid) < half)
    if nodes is None:
        w = np.array([mid])
    else:
        x, wts = np.polynomial.legendre.leggauss(nodes)
        w = mid + half * np.sin(0.5 * np.pi * x)
    # P(w) / ((w - xi1)(xi2 - w))
    smooth = -lead * np.prod(w[:, None] - others, axis=1).real
    if np.any(smooth <= 0.0) or np.any(inside):
        raise ValueError("integrand factor lost positivity on the interval")
    if nodes is not None:
        return float(np.pi * np.sum(wts / np.sqrt(smooth)))

    from scipy.special import elliprf

    pad = np.ones(2 - others.size)
    q1 = np.concatenate([np.where(real, np.abs(xi1 - others.real), xi1 - others), pad])
    q2 = np.concatenate([np.where(real, np.abs(xi2 - others.real), xi2 - others), pad])
    rf = elliprf(0.0, q1[0] * q2[1], q1[1] * q2[0])
    return float(4.0 * rf.real / math.sqrt(abs(lead)))
