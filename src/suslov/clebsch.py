"""Invariant-torus analysis for the quadratic-potential case.

With canonical constraints, diagonal mass tensor and
``V = 1/2 sum_i B_i Gamma_i^2`` the quantities

    F_i = (B_i - B_n) Gamma_i^2 + (I_i + I_n) Omega_in^2,   i < n,

are first integrals.  When every ``B_i > B_n`` each level set ``F_i = c_i``
is a circle in the ``(Omega_in, Gamma_i)`` plane; the joint level set is a
two-sheeted covering of a torus product, branching where ``Gamma_n``
vanishes.  If ``sum_i c_i / (B_i - B_n) < 1`` the sheets are disjoint and, in
the rescaled time ``dtau = Gamma_n dt``, the phase angles advance linearly
with frequencies ``sqrt((B_i - B_n)/(I_i + I_n))`` independent of ``c``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .algebra import layout
from .model import BodyState, MassTensor, pack_state

__all__ = [
    "Classification",
    "TorusSpec",
    "integrals_f",
    "packed_integrals_f",
    "torus_classify",
    "angle_coords",
    "frequencies",
    "rotation_numbers",
    "torus_spec",
    "energy_offset_constant",
]

_LEVEL_TOL = 1e-9  # |sum_i c_i / (B_i - B_n) - 1| or |c_i| of a degenerate level
_ANGLE_RADIUS_TOL = 1e-12  # c_i of a circle too small to carry a phase angle
_OFFSET_MATCH_TOL = 1e-6  # energy offset residual / max(1, |offset|)


class Classification(enum.Enum):
    TWO_DISJOINT_TORI = "two_disjoint_tori"
    BRANCHED_COVERING = "branched_covering"
    DEGENERATE = "degenerate"
    OUTSIDE_HYPOTHESES = "outside_hypotheses"


def _split(inertia: MassTensor, b):
    if inertia.diag is None:
        raise ValueError("torus analysis needs a diagonal mass tensor")
    b = np.asarray(b, dtype=float)
    n = inertia.n
    if b.shape != (n,):
        raise ValueError(f"B must have length {n}")
    pair = inertia.diag[: n - 1] + inertia.diag[n - 1]
    gap = b[: n - 1] - b[n - 1]
    return pair, gap


def integrals_f(state: BodyState, inertia: MassTensor, b) -> np.ndarray:
    """The n-1 values (B_i - B_n) Gamma_i^2 + (I_i + I_n) Omega_in^2."""
    return packed_integrals_f(pack_state(state.omega, state.gamma), inertia, b)


def packed_integrals_f(y, inertia: MassTensor, b) -> np.ndarray:
    """:func:`integrals_f` of packed points ``y`` of shape ``(..., k + n)``:
    the values ``(..., n - 1)``, elementwise the same operations."""
    pair, gap = _split(inertia, b)
    col, gamma = _circle_coords(y, inertia.n)
    return gap * gamma**2 + pair * col**2


def _circle_coords(y, n):
    """``Omega_in`` and ``Gamma_i`` (i < n) of packed points: the two axes
    of each circle."""
    lay = layout(n)
    return y[..., lay.column], y[..., lay.k : lay.k + n - 1]


def torus_classify(c, b) -> Classification:
    """Place the joint level set ``F = c`` on the torus/covering dichotomy.

    Requires every ``B_i > B_n``; outside that regime there is no compact
    circle bundle to classify and an explicit marker is returned.  Vanishing
    components of ``c`` and sums on the critical boundary are reported as
    degenerate rather than guessed to a side.
    """
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    gap = b[:-1] - b[-1]
    if np.any(gap <= 0.0):
        return Classification.OUTSIDE_HYPOTHESES
    s = float(np.sum(c / gap))
    if abs(s - 1.0) <= _LEVEL_TOL or np.any(np.abs(c) <= _LEVEL_TOL):
        return Classification.DEGENERATE
    return (
        Classification.TWO_DISJOINT_TORI if s < 1.0 else Classification.BRANCHED_COVERING
    )


def frequencies(inertia: MassTensor, b) -> np.ndarray:
    """omega_i = sqrt((B_i - B_n)/(I_i + I_n)); independent of c."""
    pair, gap = _split(inertia, b)
    if np.any(gap <= 0.0):
        bad = int(np.argmin(gap))
        raise ValueError(f"frequencies need B_i > B_n; violated at i = {bad + 1}")
    return np.sqrt(gap / pair)


def angle_coords(y, inertia: MassTensor, b) -> np.ndarray:
    """Phase angle on each (Omega_in, Gamma_i) circle, in (-pi, pi], of
    packed points ``y`` of shape ``(..., k + n)``: the values ``(..., n -
    1)``.

    ``phi_i = atan2(sqrt(I_i + I_n) Omega_in, sqrt(B_i - B_n) Gamma_i)``;
    entries with ``c_i`` at or below 1e-12 have no angle and are NaN.
    """
    pair, gap = _split(inertia, b)
    if np.any(gap <= 0.0):
        raise ValueError("angles need B_i > B_n")
    col, gamma = _circle_coords(y, inertia.n)
    u = np.sqrt(pair) * col
    v = np.sqrt(gap) * gamma
    phi = np.arctan2(u, v)
    phi[u * u + v * v <= _ANGLE_RADIUS_TOL] = np.nan
    return phi


def rotation_numbers(traj, inertia: MassTensor, b) -> np.ndarray:
    """Least-squares slope of each unwrapped angle against the trajectory
    times (expected to be the rescaled time tau).

    Raises if consecutive samples jump by ``pi`` or more, which makes the
    unwrap ambiguous; use a finer output grid in that case.
    """
    phis = angle_coords(traj.ys, inertia, b)  # (N, n-1)
    if np.any(np.isnan(phis)):
        raise ValueError("rotation numbers undefined: some c_i vanish "
                         "along the trajectory")
    unwrapped = np.unwrap(phis, axis=0)
    tau = traj.times
    slopes = np.array(
        [np.polyfit(tau, unwrapped[:, i], 1)[0] for i in range(phis.shape[1])]
    )
    # a true angle step of pi or more aliases into a small apparent one, so
    # validate the observed rate against the grid density instead
    max_step = float(np.max(np.diff(tau)))
    if np.max(np.abs(slopes)) * max_step >= 0.25 * np.pi:
        raise ValueError(
            "angle advances too fast for this sampling (rate * step >= pi/4); "
            "refine the output grid to disambiguate the unwrap"
        )
    return slopes


@dataclass(frozen=True)
class TorusSpec:
    """Level-set summary: integral values, classification, exact frequencies
    (None outside the positivity hypotheses) and the active circle indices."""

    c: np.ndarray
    classification: Classification
    frequencies: np.ndarray | None
    active: tuple

    @property
    def dimension(self) -> int:
        return len(self.active)


def torus_spec(state: BodyState, inertia: MassTensor, b) -> TorusSpec:
    c = integrals_f(state, inertia, b)
    cls = torus_classify(c, b)
    freq = None
    if cls is not Classification.OUTSIDE_HYPOTHESES:
        freq = frequencies(inertia, b)
    active = tuple(int(i) for i in np.nonzero(c > _LEVEL_TOL)[0])
    return TorusSpec(c=c, classification=cls, frequencies=freq, active=active)


def energy_offset_constant(value: float, b):
    """Which constant the sampled value of ``E - 1/2 sum F_i`` matches.

    Candidates are ``B_n / 2`` and ``n B_n / 2``; returns the matching label
    and the residual against each candidate.
    """
    b = np.asarray(b, dtype=float)
    n = b.size
    candidates = {"half_Bn": 0.5 * b[-1], "half_nBn": 0.5 * n * b[-1]}
    residuals = {k: abs(value - v) for k, v in candidates.items()}
    label = min(residuals, key=residuals.get)
    # a NaN residual or an infinite value matches nothing
    if not residuals[label] <= _OFFSET_MATCH_TOL * max(1.0, abs(value)) < np.inf:
        label = "neither"
    return label, residuals
