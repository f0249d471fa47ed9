"""ODE propagation with sphere renormalization and trajectory diagnostics.

Two steppers are provided: classical fixed-step RK4 and an embedded
Dormand-Prince 5(4) pair with standard proportional step control.  States
are flattened to ``(upper triangle of Omega, Gamma)`` for stepping; samples
land exactly on the requested output grid.

The Dormand-Prince step stores its seven stage derivatives as the rows of
one 7-by-d array ``K``: stage ``s`` is evaluated at ``y + h A[s, :s] @ K[:s]``
with the strictly lower-triangular tableau ``A``, and the step returns
``y + h B5 @ K`` with the error estimate ``h (B5 - B4) @ K``.  The field sees
a ``BodyState`` built from the flat vector by scattering into precomputed
flat indices of the n-by-n matrix, with no re-validation or copy.

``|Gamma|`` is analytically conserved by every field in this package, so the
optional renormalization only removes truncation roundoff; it rescales, it
never projects, and the constraint residual is recorded rather than
repaired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import ConstraintSet, SkewMatrix
from .model import BodyState, MassTensor, Potential, energy

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "IntegrationError",
    "integrate",
    "reparametrize",
    "detect_period",
    "drift_report",
    "write_csv",
    "rk45_step",
    "solve_fixed_rk4",
    "solve_adaptive_rk45",
]


class IntegrationError(RuntimeError):
    """Propagation failed; ``t_last`` holds the last completed time."""

    def __init__(self, message, t_last):
        super().__init__(f"{message} (last valid time t = {t_last:.6g})")
        self.t_last = t_last


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk45"          # "rk4" fixed step | "rk45" embedded adaptive
    step: float = 1e-2            # RK4 step size / initial adaptive step
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    renormalize_gamma: bool = True
    max_steps: int = 20_000_000

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError("step must be positive and finite")
        for tol in (self.rel_tol, self.abs_tol):
            if not (math.isfinite(tol) and tol > 0):
                raise ValueError("tolerances must be positive and finite")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass
class Trajectory:
    """Sampled solution: strictly increasing times, matching states, and
    per-sample diagnostics in ``aux``."""

    times: np.ndarray
    states: list
    aux: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.states) != self.times.size:
            raise ValueError("times and states lengths differ")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    def __len__(self):
        return self.times.size


# Dormand-Prince 5(4) tableau (Hairer, Norsett and Wanner, Solving ODEs I,
# section II.5); row s of the strictly lower-triangular A feeds stage s
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.array(
    [
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
        [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
        [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
    ]
)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_E = _DP_B5 - _DP_B4


def _rk4_step(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk45_step(f, t, y, h):
    """One Dormand-Prince step; returns (y5, error_estimate).

    The seven stage derivatives fill the rows of one 7-by-d array ``K``, so
    every stage input and both weighted sums are a single matrix product.
    """
    K = np.empty((7, y.size))
    K[0] = f(t, y)
    for s in range(1, 7):
        K[s] = f(t + _DP_C[s] * h, y + h * (_DP_A[s, :s] @ K[:s]))
    return y + h * (_DP_B5 @ K), h * (_DP_E @ K)


def solve_fixed_rk4(f, y0, t_grid, step, post_step=None, max_steps=10**8):
    """RK4 through every grid interval with substeps of size <= step."""
    t_grid = np.asarray(t_grid, dtype=float)
    ys = [np.asarray(y0, dtype=float)]
    count = 0
    for a, b in zip(t_grid[:-1], t_grid[1:]):
        nsub = max(1, int(math.ceil((b - a) / step - 1e-12)))
        h = (b - a) / nsub
        y = ys[-1]
        t = a
        for _ in range(nsub):
            y = _rk4_step(f, t, y, h)
            t += h
            if post_step is not None:
                y = post_step(y)
            count += 1
            if count > max_steps:
                raise IntegrationError("max_steps exceeded", t)
        ys.append(y)
    return np.array(ys)


def solve_adaptive_rk45(f, y0, t_grid, rel_tol, abs_tol, h0=None,
                        post_step=None, max_steps=10**8):
    """Dormand-Prince with proportional control, sampling exactly at t_grid."""
    t_grid = np.asarray(t_grid, dtype=float)
    y = np.asarray(y0, dtype=float)
    ys = [y]
    t = t_grid[0]
    h = h0 if h0 is not None else (t_grid[-1] - t_grid[0]) / 100.0
    count = 0
    for target in t_grid[1:]:
        while t < target - 1e-14 * max(1.0, abs(target)):
            h = min(h, target - t)
            if h < 16.0 * np.finfo(float).eps * max(1.0, abs(t)):
                raise IntegrationError("step size underflow", t)
            y_new, err = rk45_step(f, t, y, h)
            scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
            err_norm = float(np.sqrt(np.mean((err / scale) ** 2)))
            if not math.isfinite(err_norm):
                err_norm = math.inf  # reject and shrink hard
            if err_norm <= 1.0:
                t += h
                y = y_new
                if post_step is not None:
                    y = post_step(y)
            count += 1
            if count > max_steps:
                raise IntegrationError("max_steps exceeded", t)
            if err_norm == 0.0:
                factor = 5.0
            else:
                factor = min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
            h = h * factor
        ys.append(y)
        t = target
    return np.array(ys)


class _Packing:
    """Flat coordinates ``(upper triangle of Omega, Gamma)`` of so(n) x R^n.

    The upper and lower triangles are addressed through precomputed flat
    indices of the row-major n-by-n matrix, and states are rebuilt through
    the unchecked ``_wrap`` constructors: every array written here is exactly
    skew or freshly allocated.
    """

    def __init__(self, n):
        iu, ju = np.triu_indices(n, k=1)
        self.n = n
        self.k = iu.size
        self.size = self.k + n
        self.upper = iu * n + ju
        self.lower = ju * n + iu

    def pack(self, omega: SkewMatrix, gamma) -> np.ndarray:
        y = np.empty(self.size)
        y[: self.k] = omega.mat.ravel()[self.upper]
        y[self.k :] = gamma
        return y

    def unpack(self, y) -> BodyState:
        k = self.k
        mat = np.zeros(self.n * self.n)
        mat[self.upper] = y[:k]
        mat[self.lower] = -y[:k]
        return BodyState._wrap(SkewMatrix._wrap(mat.reshape(self.n, self.n)), y[k:])


def integrate(
    field,
    state0: BodyState,
    t_span,
    cfg: IntegratorConfig,
    output_dt: float | None = None,
    inertia: MassTensor | None = None,
    potential: Potential | None = None,
    constraints: ConstraintSet | None = None,
) -> Trajectory:
    """Propagate ``field(state) -> (omega_dot, gamma_dot)`` over ``t_span``.

    Samples at ``t0, t0 + output_dt, ...`` up to ``t1``.  When the model
    context (inertia/potential/constraints) is supplied, the per-sample
    energy and constraint residual are recorded in ``aux``; the gamma norm
    error is always recorded.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 <= t0:
        raise ValueError("t_span must satisfy t1 > t0")
    packing = _Packing(state0.n)
    k = packing.k
    if output_dt is None:
        output_dt = max(cfg.step, (t1 - t0) / 1000.0)
    n_out = int(round((t1 - t0) / output_dt))
    n_out = max(1, n_out)
    t_grid = t0 + (t1 - t0) * np.arange(n_out + 1) / n_out

    def f(t, y):
        return packing.pack(*field(packing.unpack(y)))

    post = None
    if cfg.renormalize_gamma:

        def post(y):
            nrm = np.linalg.norm(y[k:])
            if nrm > 0:
                y = y.copy()
                y[k:] /= nrm
            return y

    y0 = packing.pack(state0.omega, state0.gamma)
    if cfg.method == "rk4":
        ys = solve_fixed_rk4(f, y0, t_grid, cfg.step, post, cfg.max_steps)
    else:
        ys = solve_adaptive_rk45(
            f, y0, t_grid, cfg.rel_tol, cfg.abs_tol, cfg.step, post, cfg.max_steps
        )

    states = [packing.unpack(y) for y in ys]
    return _finish(t_grid, states, inertia, potential, constraints)


def _finish(t_grid, states, inertia, potential, constraints):
    aux = {
        "gamma_norm_err": np.array(
            [abs(np.linalg.norm(s.gamma) - 1.0) for s in states]
        )
    }
    if inertia is not None and potential is not None:
        aux["energy"] = np.array([energy(s, inertia, potential) for s in states])
    if constraints is not None:
        aux["constraint_residual"] = np.array(
            [constraints.residual(s.omega) for s in states]
        )
    return Trajectory(times=t_grid, states=states, aux=aux)


def reparametrize(traj: Trajectory, observable, inverse: bool = False) -> Trajectory:
    """Re-index a trajectory by the accumulated time ``tau``.

    ``inverse=False`` implements ``dtau = Phi dt`` (the torus-analysis
    convention with ``Phi = Gamma_n``); ``inverse=True`` implements
    ``dtau = dt / Phi``.  ``Phi`` must keep one strict sign along the
    samples.  Increments accumulate through the geometric mean of adjacent
    samples, which makes the two conventions exact inverses of each other;
    accuracy is second order in the sampling step, like the trapezoid rule.

    If ``Phi < 0`` the raw ``tau`` decreases, so the returned samples are
    reversed to keep times increasing.  New times always start at 0.
    """
    vals = np.array([observable(s) for s in traj.states])
    sign = np.sign(vals[0])
    if sign == 0.0 or np.any(np.sign(vals) != sign):
        bad = int(np.argmax(np.sign(vals) != sign)) if sign != 0.0 else 0
        if bad > 0 and vals[bad] != vals[bad - 1]:
            frac = vals[bad - 1] / (vals[bad - 1] - vals[bad])
            t_cross = traj.times[bad - 1] + frac * (
                traj.times[bad] - traj.times[bad - 1]
            )
        else:
            t_cross = traj.times[bad]
        raise ValueError(
            f"observable changes sign near t = {t_cross:.6g}; "
            "reparametrization needs a single-signed observable"
        )
    w = 1.0 / vals if inverse else vals
    dtau = np.diff(traj.times) * sign * np.sqrt(w[:-1] * w[1:])
    tau = np.concatenate([[0.0], np.cumsum(dtau)])
    states = list(traj.states)
    aux = {key: np.asarray(val) for key, val in traj.aux.items()}
    if tau[-1] < 0:
        tau = tau[::-1].copy()
        states = states[::-1]
        aux = {key: val[::-1].copy() for key, val in aux.items()}
    tau = tau - tau[0]
    return Trajectory(times=tau, states=states, aux=aux)


def detect_period(traj: Trajectory, observable):
    """Period estimate from returns of an observable, or None.

    Uses increasing crossings of the observable through the midpoint of its
    sampled range, refined by a local cubic fit; reports the mean gap once
    three consecutive gaps agree to a relative spread of 1e-6.
    """
    from scipy.optimize import brentq

    vals = np.array([observable(s) for s in traj.states])
    if vals.size < 4:
        return None
    lo, hi = float(np.min(vals)), float(np.max(vals))
    if hi - lo < 1e-300:
        return None
    g = vals - 0.5 * (lo + hi)
    times = traj.times
    crossings = []
    for i in range(1, g.size):
        if g[i - 1] < 0.0 <= g[i]:
            i0 = min(max(0, i - 2), g.size - 4)
            ts = times[i0 : i0 + 4]
            # normalize abscissa for conditioning
            t_mid, t_scale = ts[0], ts[-1] - ts[0]
            coef = np.polynomial.polynomial.polyfit(
                (ts - t_mid) / t_scale, g[i0 : i0 + 4], 3
            )

            def cubic(t):
                return np.polynomial.polynomial.polyval((t - t_mid) / t_scale, coef)

            try:
                crossings.append(brentq(cubic, times[i - 1], times[i], xtol=1e-15))
            except ValueError:
                # interpolant lost the sign change; fall back to linear
                frac = g[i - 1] / (g[i - 1] - g[i])
                crossings.append(times[i - 1] + frac * (times[i] - times[i - 1]))
    if len(crossings) < 4:
        return None
    gaps = np.diff(crossings)
    for j in range(gaps.size - 2):
        window = gaps[j : j + 3]
        mean = float(np.mean(window))
        if mean > 0 and (np.max(window) - np.min(window)) / mean < 1e-6:
            return mean
    return None


def drift_report(traj: Trajectory, integrals) -> dict:
    """max_t |F(t) - F(0)| / max(|F(0)|, 1e-12) for each labelled integral."""
    report = {}
    for label, fn in integrals.items():
        vals = np.array([fn(s) for s in traj.states])
        report[label] = float(
            np.max(np.abs(vals - vals[0])) / max(abs(vals[0]), 1e-12)
        )
    return report


def write_csv(traj: Trajectory, path):
    """Trajectory CSV: t, upper-triangle Omega entries, Gamma, diagnostics.

    Floats carry 17 significant digits so round-trips are bit-stable.
    """
    if "energy" not in traj.aux or "constraint_residual" not in traj.aux:
        raise ValueError(
            "trajectory lacks energy/constraint diagnostics; integrate with "
            "the model context to export CSV"
        )
    n = traj.states[0].n
    iu, ju = np.triu_indices(n, k=1)
    header = ["t"]
    header += [f"Omega_{i + 1}_{j + 1}" for i, j in zip(iu, ju)]
    header += [f"Gamma_{i + 1}" for i in range(n)]
    header += ["E", "constraint_residual", "gamma_norm_err"]
    fmt = "{:.17g}"
    lines = [",".join(header)]
    for idx, state in enumerate(traj.states):
        row = [fmt.format(traj.times[idx])]
        row += [fmt.format(v) for v in state.omega.mat[iu, ju]]
        row += [fmt.format(v) for v in state.gamma]
        row.append(fmt.format(traj.aux["energy"][idx]))
        row.append(fmt.format(traj.aux["constraint_residual"][idx]))
        row.append(fmt.format(traj.aux["gamma_norm_err"][idx]))
        lines.append(",".join(row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
