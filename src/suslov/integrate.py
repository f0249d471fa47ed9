"""ODE propagation with sphere renormalization and trajectory diagnostics.

Three steppers are provided: classical fixed-step RK4 and two embedded
pairs with proportional step control, Dormand-Prince 8(5,3) (``dop853``,
the default) and Dormand-Prince 5(4) (``rk45``).  States are flattened to
``(pack(Omega), Gamma)`` in the layout of :mod:`suslov.algebra`.  Every
system here is autonomous, so a field is ``field(y) -> ydot`` on this flat
vector, with no time argument, and the steppers carry no stage nodes.  The
adaptive loop hands the field ``y`` as a list of Python floats and takes a
list or an array back; so does RK4, for each of its four stages.  The
fields of :func:`suslov.cases.build_field` return a list for a list and an
array for an array, with the same bits.

Both pairs run through one adaptive loop; a pair supplies only its tableau,
its error norm, its step-size exponent and its interpolant.  A step stores
its stage derivatives as the rows of one array ``K``, refilled by every
attempt: stage ``s`` is evaluated at ``y + h A[s, :s] @ K[:s]`` with the
strictly lower-triangular tableau ``A``.  The stage sum is one BLAS
product, which sets the bits, and ``y + h dv`` is formed on its floats,
with the bits of the array expression; so is the error scale.  The
solution weights are a row of ``A``, so the last stage is ``f`` at the new
point and is reused as the first stage of the next step (first same as
last): an attempt costs six field calls with DP5 and twelve with DOP853.  The error is the RMS norm of the scaled 5(4)
estimate for DP5 (factor ``err ** -1/5``) and, for DOP853, the blend of
its 5th- and 3rd-order estimates of Hairer, Norsett and Wanner (section
II.10; factor ``err ** -1/8``).  The tolerance alone sets the step
size; only the final step is shortened, so that it lands on the end of the
output grid.  Every output sample inside an accepted step ``[t, t + h]``
comes from the pair's interpolant at ``x = (t_i - t) / h``: the free
4th-order one of DP5, ``y + h (K.T @ P) @ [x, x^2, x^3, x^4]``, or the
7th-order one of DOP853, whose three extra stages are evaluated on every
accepted step, so that the counters depend only on the step sequence.
The ``Trajectory`` keeps each accepted step's start time, size and start
point: :func:`detect_period` brackets crossings between the step starts,
whatever the output grid, and evaluates the stages of a step again to
locate a crossing on its interpolant.
The output samples stay one packed array, the rows of
``Trajectory.ys``; ``BodyState`` objects are built from it only when
``Trajectory.states`` is read.  The per-sample energies, gamma norm errors
and constraint residuals, the drift report and the CSV rows are array
operations on that block.  :func:`state_field` adapts a field on states to
the flat vector.

``|Gamma|`` is analytically conserved by every field in this package, so the
optional renormalization only removes truncation roundoff; it rescales, it
never projects.  The steppers apply it to each step endpoint, in place, so
the next step starts from the unit sphere; :func:`integrate` applies it to
all the interpolated samples at once, after the loop.  That pass is
row-wise, so each sample gets the bits of its own renormalization, and the
step loop does no numpy work per sample beyond the interpolant.  The
constraint residual is recorded rather than repaired.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import _dop853
from .algebra import ConstraintSet, SkewMatrix, layout, unpack, unpack_mats
from .model import BodyState, MassTensor, Potential, energies, pack_state

__all__ = [
    "IntegratorConfig",
    "IntegratorStats",
    "Trajectory",
    "IntegrationError",
    "integrate",
    "state_field",
    "reparametrize",
    "detect_period",
    "drift_report",
    "write_csv",
    "solve_adaptive_rk45",
]

# largest (t1 - t0) / output_dt: integrate allocates every output row
# before the first step
MAX_OUTPUT_INTERVALS = 10**6


class IntegrationError(RuntimeError):
    """Propagation failed; ``t_last`` and ``y_last`` hold the last accepted
    time and point (in the stepper's coordinates), ``h`` the step size of
    the failing attempt and ``attempts`` the number of steps tried so far."""

    def __init__(self, message, t_last, h, attempts, y_last):
        super().__init__(
            f"{message} (last valid time t = {t_last:.6g}, step h = {h:.6g}, "
            f"{attempts} attempts)"
        )
        self.t_last = t_last
        self.y_last = y_last
        self.h = h
        self.attempts = attempts


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "dop853"        # "dop853" | "rk45" embedded adaptive | "rk4"
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
        if not (isinstance(self.max_steps, (int, np.integer)) and self.max_steps > 0):
            raise ValueError(f"max_steps must be a positive int: {self.max_steps!r}")
        if self.method != "rk4" and self.method not in _PAIRS:
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class IntegratorStats:
    """Step counters of one propagation.  ``h_min``, ``h_max`` and
    ``h_last`` are taken over accepted steps; the last step is shortened to
    land on the end of the span, so it can set ``h_min``."""

    accepted: int
    rejected: int
    rhs_evals: int
    h_min: float
    h_max: float
    h_last: float


class Trajectory:
    """Sampled solution: finite, strictly increasing times, the packed samples
    ``ys``, per-sample diagnostics in ``aux`` and, when it came from a
    stepper, the step counters in ``stats``.

    ``ys`` has shape ``(N, k + n)``: the upper triangle of each Omega, then
    Gamma, as :func:`integrate` returns it; it is read-only.  ``states``
    unpacks the whole block at once, on first access, into a tuple of
    read-only ``BodyState`` views: each ``omega.mat`` of one unpacked
    matrix block, each ``gamma`` of ``ys``.

    From :func:`integrate`'s adaptive methods it also holds, for
    :func:`detect_period`, each accepted step's start time, size and start
    point: O(accepted steps x d) memory, with d = ``k + n``, or d + 2 floats
    a step (64 bytes at d = 6), and the field, to evaluate a step's stages
    again.  Other trajectories hold none.
    """

    def __init__(self, times, ys, aux=None, stats=None):
        self.times = np.asarray(times, dtype=float)
        # a read-only view: the caller's own float64 array stays writable
        self._ys = np.asarray(ys, dtype=float).view()
        self._ys.flags.writeable = False
        self.aux = {} if aux is None else aux
        self.stats = stats
        self._states = None
        self._steps = None  # integrate's (pair, field, rows (t, h, *y))
        n = self.n if self._ys.ndim == 2 else 0
        if n < 2 or n * (n + 1) // 2 != self._ys.shape[1]:
            raise ValueError(f"samples of shape {self._ys.shape} are not rows "
                             "of width n (n + 1) / 2 for an n >= 2")
        if len(self._ys) != self.times.size:
            raise ValueError("times and samples lengths differ")
        if not (np.all(np.isfinite(self.times))
                and np.all(np.diff(self.times) > 0)):
            raise ValueError("times must be finite and strictly increasing")

    def __len__(self):
        return self.times.size

    @property
    def n(self) -> int:
        """Dimension of the body; the block width is ``n (n + 1) / 2``."""
        return (math.isqrt(8 * self._ys.shape[1] + 1) - 1) // 2

    @property
    def ys(self) -> np.ndarray:
        return self._ys

    @property
    def states(self) -> tuple:
        if self._states is None:
            n, ys = self.n, self.ys
            k = layout(n).k
            self._states = BodyState._wrap_block(
                SkewMatrix._wrap_block(unpack_mats(ys[:, :k], n)), ys[:, k:]
            )
        return self._states


# Dormand-Prince 5(4) tableau (Hairer, Norsett and Wanner, Solving ODEs I,
# section II.5); row s of the strictly lower-triangular A feeds stage s
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
# free 4th-order dense output (Shampine 1986): the solution at t + x h is
# y + h (K.T @ _DP_P) @ [x, x^2, x^3, x^4]; the rows of _DP_P sum to _DP_B5
_DP_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
         -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
         87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
         -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
         701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883,
         -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423,
         69997945 / 29380423],
    ]
)
_POWERS = np.arange(1, 5)
_EPS = np.finfo(float).eps
_STEP_HEAD = struct.Struct("dd")  # (t, h) before y in an accepted step's row


def _rk4_step(f, y, h):
    k1 = np.asarray(f(y.tolist()))
    k2 = np.asarray(f((y + 0.5 * h * k1).tolist()))
    k3 = np.asarray(f((y + 0.5 * h * k2).tolist()))
    k4 = np.asarray(f((y + h * k3).tolist()))
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _stage_array(pair, d):
    """The array ``K`` whose rows hold one step's stage derivatives, for a
    state of size ``d``, with the terms of each stage sum: ``(A[s, :s],
    K[:s])`` for stage ``s``, the views made once."""
    K = np.empty((len(pair.rows), d))
    return K, tuple((row, K[:s]) for s, row in enumerate(pair.rows))


def _fill_stages(f, y, h, K, terms, start, stop):
    """Evaluate stages ``start..stop-1`` into the rows of ``K``: stage ``s``
    is ``f`` at ``y + h A[s, :s] @ K[:s]``, with ``y`` the step's start as a
    list of Python floats and ``terms`` from :func:`_stage_array`.  The
    stage sum ``dv`` stays one BLAS product, which sets the bits; the
    update ``y + h dv`` is formed on its floats, with the bits of the array
    expression, and ``f`` gets it as a list.  Returns the last stage's sum
    and its input.

    Row ``pair.stages`` of the tableau holds the solution weights, so that
    stage's input is the new point and its derivative is the next step's
    first stage; any later rows are the dense-output stages."""
    dot = np.dot
    for s in range(start, stop):
        row, head = terms[s]
        dv = dot(row, head)
        ys = []
        for a, b in zip(y, dv.tolist()):
            ys.append(a + h * b)
        K[s] = f(ys)
    return dv, ys


def _error_scale(y, y_new, abs_tol, rel_tol):
    """``atol + rtol max(|y|, |y_new|)`` from two lists of floats, as an
    array with the bits of the ``np.maximum`` expression; a NaN in either
    operand gives NaN, as ``np.maximum`` does and ``max`` does not."""
    scale = []
    for a, b in zip(y, y_new):
        a, b = abs(a), abs(b)
        scale.append(abs_tol + rel_tol * (a if a >= b or a != a else b))
    return np.array(scale)


def _dp5_error_norm(K, h, scale):
    """RMS norm of the scaled 5(4) error estimate ``h (B5 - B4) @ K``; the
    sum is ``np.mean``'s own reduction, so the norm has its bits."""
    e = h * (_DP_E @ K) / scale
    return math.sqrt(float(np.add.reduce(e * e)) / e.size)


def _dp5_dense(y, h, K, dv):
    """The free 4th-order interpolant of the step ``[t, t + h]`` from ``y``
    at ``t`` and its stages ``K``, as the function that maps step fractions
    ``x`` (a list of floats) to their states; exact at ``x = 0``, ``y5`` at
    ``x = 1`` up to roundoff.  The solution's stage sum ``dv`` is not
    used."""
    Q = _DP_P.T @ K
    return lambda x: y + h * ((np.array(x)[:, None] ** _POWERS) @ Q)


def _dop853_error_norm(K, h, scale):
    """Blended norm of the 5th- and 3rd-order error estimates,
    ``|h| |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) d)`` on ``e / scale``; both
    weight the 12 stages and ``f(t + h, y_new)``, the rows ``K[:13]``.
    ``np.dot`` runs the BLAS kernels of ``@`` here, with its bits, at less
    dispatch cost."""
    K13 = K[:13]
    e5 = np.dot(_dop853.E5, K13) / scale
    e3 = np.dot(_dop853.E3, K13) / scale
    n5, n3 = float(np.dot(e5, e5)), float(np.dot(e3, e3))
    if n5 == 0.0 and n3 == 0.0:
        return 0.0
    return abs(h) * n5 / math.sqrt((n5 + 0.01 * n3) * scale.size)


def _dop853_dense(y, h, K, dv):
    """The 7th-order interpolant of DOP853 from the 16 stages of an accepted
    step, as the function of the step fractions ``x`` (a list of floats): the
    nested form ``y + x (F0 + (1 - x) (F1 + x (F2 + ... (F5 + x F6))))``
    evaluated as one product with its weights ``x, x (1 - x), x^2 (1 - x),
    ...``, each the product of the one before with ``x`` or ``1 - x``, on
    floats (the running products of ``np.cumprod``).  ``F0`` is the step's
    increment ``h dv``, from the stage sum ``dv = B @ K[:12]`` that formed
    ``y_new``, so ``x = 1`` gives ``y_new`` exactly."""
    F = np.empty((7, y.size))
    dy = np.multiply(h, dv, out=F[0])
    np.subtract(h * K[0], dy, out=F[1])
    np.subtract(2.0 * dy, h * (K[12] + K[0]), out=F[2])
    np.multiply(h, np.dot(_dop853.D, K), out=F[3:])

    def states(x):
        w = []
        for xi in x:
            u = 1.0 - xi
            c1 = xi * u
            c2 = c1 * xi
            c3 = c2 * u
            c4 = c3 * xi
            c5 = c4 * u
            w.append((xi, c1, c2, c3, c4, c5, c5 * xi))
        return y + np.dot(w, F)

    return states


class _Pair(NamedTuple):
    """An embedded Runge-Kutta pair, as :func:`_adaptive_solve` steps it.

    ``rows[s]`` is ``A[s, :s]`` of the stage tableau.  Row ``stages`` holds
    the solution weights, so its stage is ``f`` at the new point (first
    same as last), and any later rows are dense-output stages, evaluated
    once per accepted step.  So a step costs ``stages`` field calls per
    attempt plus ``len(rows) - stages - 1`` per accepted step.  ``error_norm(K, h,
    scale)`` is the scaled error, and the step factor is
    ``0.9 err ** exponent``; ``dense(y, h, K, dv)``, given the solution's
    stage sum ``dv``, is the step's interpolant: the function that gives
    the states at a list of step fractions ``x``.
    """

    rows: tuple
    stages: int
    exponent: float
    error_norm: Callable
    dense: Callable


def _pair(A, stages, exponent, error_norm, dense):
    rows = tuple(np.ascontiguousarray(A[s, :s]) for s in range(A.shape[0]))
    return _Pair(rows, stages, exponent, error_norm, dense)


_DP5 = _pair(_DP_A, 6, -1.0 / 5.0, _dp5_error_norm, _dp5_dense)
_DOP853 = _pair(_dop853.A, _dop853.N_STAGES, -1.0 / 8.0, _dop853_error_norm,
                _dop853_dense)
_PAIRS = {"dop853": _DOP853, "rk45": _DP5}


def _rk4_solve(f, y0, t_grid, step, post_step, max_steps):
    t_grid = np.asarray(t_grid, dtype=float)
    ys = [np.asarray(y0, dtype=float)]
    count = 0
    h_min, h_max, h = math.inf, 0.0, 0.0
    for a, b in zip(t_grid[:-1].tolist(), t_grid[1:].tolist()):
        # capped, so that a step too small to count in a float stops at
        # max_steps instead of overflowing the conversion to int
        nsub = max(1, math.ceil(min((b - a) / step, 1e18) - 1e-12))
        h = (b - a) / nsub
        h_min, h_max = min(h_min, h), max(h_max, h)
        y = ys[-1]
        t = a
        for _ in range(nsub):
            y = _rk4_step(f, y, h)
            t += h
            if post_step is not None:
                y = post_step(y)
            count += 1
            if count > max_steps:
                raise IntegrationError("max_steps exceeded", t, h, count, y)
        ys.append(y)
    stats = IntegratorStats(
        count, 0, 4 * count, float(h_min), float(h_max), float(h)
    )
    return np.array(ys), stats


def _adaptive_solve(pair, f, y0, t_grid, rel_tol, abs_tol, h0, post_step,
                    max_steps):
    """Step ``pair`` over ``t_grid``; returns the samples at the grid times,
    the counters and the accepted steps, one row ``(t, h, *y)`` each: its
    start time, size and start point.  ``post_step`` maps each accepted
    endpoint, in place; the samples are left as the interpolant gives them.
    The grid is walked as Python floats, one time at a time.

    ``f`` gets each point as a list of Python floats and may return a list
    or an array.  The step's start is held both ways: ``y``, an array, for
    the interpolant and ``post_step``, and ``yl``, its floats, for the
    stages and the error scale."""
    t_grid = np.asarray(t_grid, dtype=float)
    size = t_grid.size
    y = np.asarray(y0, dtype=float)
    yl = y.tolist()
    ys = np.empty((size, y.size))
    ys[0] = y
    t, t_end = t_grid.item(0), t_grid.item(-1)
    if h0 is None:
        h0 = (t_end - t) / 100.0
        if size > 1:
            h0 = min(h0, t_grid.item(1) - t)
    h = h0
    land = 1e-14 * max(1.0, abs(t_end))
    S = pair.stages
    extra = len(pair.rows) - S - 1  # dense-output stages per accepted step
    K, terms = _stage_array(pair, y.size)  # one array, refilled per attempt
    K[0] = f(yl)  # the stages write rows 1 on, so row 0 survives a rejection
    nxt = 1  # first grid index not yet sampled
    t_next = t_grid.item(1) if size > 1 else math.inf
    accepted = attempts = 0
    h_min, h_max, h_last = math.inf, 0.0, 0.0
    steps = bytearray()  # the rows of the accepted steps, end to end
    while t < t_end:
        last = t + h >= t_end - land
        if last:
            h = t_end - t
        if h < 16.0 * _EPS * max(1.0, abs(t)):
            raise IntegrationError("step size underflow", t, h, attempts, y)
        dv, y_new = _fill_stages(f, yl, h, K, terms, 1, S + 1)
        err_norm = pair.error_norm(K, h, _error_scale(yl, y_new, abs_tol, rel_tol))
        if not math.isfinite(err_norm):
            err_norm = math.inf  # reject and shrink hard
        attempts += 1
        if err_norm <= 1.0:
            if extra:
                _fill_stages(f, yl, h, K, terms, S + 1, S + 1 + extra)
            t_new = t_end if last else t + h
            if t_next <= t_new:
                stop = size if last else nxt + 1
                while stop < size and t_grid.item(stop) <= t_new:
                    stop += 1
                x = [(t_grid.item(i) - t) / h for i in range(nxt, stop)]
                ys[nxt:stop] = pair.dense(y, h, K, dv)(x)
                nxt = stop
                t_next = t_grid.item(stop) if stop < size else math.inf
            accepted += 1
            h_min, h_max, h_last = min(h_min, h), max(h_max, h), h
            steps += _STEP_HEAD.pack(t, h) + y.tobytes()
            t = t_new
            y = np.array(y_new)
            if post_step is None:
                yl = y_new
            else:
                y = post_step(y)
                yl = y.tolist()
            K[0] = K[S]  # first same as last, once the interpolant is built
        if attempts > max_steps:
            raise IntegrationError("max_steps exceeded", t, h, attempts, y)
        if err_norm == 0.0:
            factor = 5.0
        else:
            factor = min(5.0, max(0.2, 0.9 * err_norm ** pair.exponent))
        h = h * factor
    stats = IntegratorStats(
        accepted, attempts - accepted, S * attempts + extra * accepted + 1,
        float(h_min), float(h_max), float(h_last),
    )
    return ys, stats, np.frombuffer(steps).reshape(-1, y.size + 2)


def solve_adaptive_rk45(f, y0, t_grid, rel_tol, abs_tol, h0=None,
                        max_steps=10**8):
    """Dormand-Prince 5(4) with proportional control for an autonomous
    ``y' = f(y)``; returns the points at ``t_grid`` as a ``(len(t_grid),
    d)`` array.  ``y`` is any flat vector, not only a packed body state;
    ``f`` takes and returns arrays (the shared adaptive loop works on lists
    of floats, and an adapter converts each point for ``f``).

    The tolerance alone sets the steps: only the last one is shortened, to
    end exactly at ``t_grid[-1]``.  Samples inside an accepted step come
    from the pair's free 4th-order interpolant, so a finer grid costs no
    extra field calls.  The last stage ``f(y5)`` is reused as the next
    step's first stage, and after a rejection the first stage is kept, so
    every attempt costs six calls plus one for the start.

    ``h0`` is the first trial step; by default the smaller of a hundredth
    of the span and the first grid interval.  ``max_steps`` bounds the
    attempts, accepted and rejected.  Failures raise ``IntegrationError``
    with the last accepted time, the failing step size and the attempts.
    """
    return _adaptive_solve(
        _DP5, lambda y: f(np.array(y)), y0, t_grid, rel_tol, abs_tol, h0, None,
        max_steps,
    )[0]


def _gamma_norm(y, k):
    """``|Gamma|`` of a packed point or of each row of a block.  ``vecdot``
    sums like the BLAS dot of ``np.linalg.norm`` on one vector, so a row
    of a block gets the same bits as the point alone; ``norm(axis=-1)``
    sums in another order."""
    g = y[..., k:]
    return np.sqrt(np.vecdot(g, g))


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
    """Propagate ``field(y) -> ydot`` from ``state0`` over ``t_span``; ``y``
    is the flat vector of :func:`suslov.cases.build_field` (wrap a field on
    states in :func:`state_field`).  Every method passes ``y`` as a list of
    Python floats and takes a list or an array back; a field of
    ``build_field`` returns a list for a list.

    Samples at ``t0, t0 + output_dt, ...`` up to ``t1``, at most
    ``MAX_OUTPUT_INTERVALS`` intervals.  When the model
    context (inertia/potential/constraints) is supplied, the per-sample
    energy and constraint residual are recorded in ``aux``; the gamma norm
    error and the step counters (``stats``) are always recorded.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not -math.inf < t0 < t1 < math.inf:
        raise ValueError(f"t_span must be finite with t1 > t0: {t_span!r}")
    n = state0.n
    k = layout(n).k
    if output_dt is None:
        output_dt = max(cfg.step, (t1 - t0) / 1000.0)
    elif not 0.0 < output_dt < math.inf:
        raise ValueError(f"output_dt must be positive and finite: {output_dt!r}")
    elif (t1 - t0) / output_dt > MAX_OUTPUT_INTERVALS:
        raise ValueError(f"output_dt = {output_dt!r} gives {(t1 - t0) / output_dt:.6g} "
                         f"output intervals; at most {MAX_OUTPUT_INTERVALS} are allowed")
    n_out = int(round((t1 - t0) / output_dt))
    n_out = max(1, n_out)
    t_grid = t0 + (t1 - t0) * np.arange(n_out + 1) / n_out

    post = None
    if cfg.renormalize_gamma:

        def post(y):
            # a fresh step endpoint, in place; a zero norm is left alone.
            # np.dot and the vecdot of _gamma_norm run the same BLAS ddot
            g = y[k:]
            nrm = math.sqrt(np.dot(g, g))
            if nrm > 0.0:
                g /= nrm
            return y

    y0 = pack_state(state0.omega, state0.gamma)
    steps = None
    if cfg.method == "rk4":
        ys, stats = _rk4_solve(field, y0, t_grid, cfg.step, post,
                               cfg.max_steps)
    else:
        pair = _PAIRS[cfg.method]
        ys, stats, records = _adaptive_solve(
            pair, field, y0, t_grid, cfg.rel_tol, cfg.abs_tol, cfg.step, post,
            cfg.max_steps,
        )
        steps = (pair, field, records)
        if post is not None:
            # the interpolated samples, in one row-wise pass: each row gets
            # the bits of its own renormalization
            nrm = _gamma_norm(ys[1:], k)[:, None]
            ys[1:, k:] /= np.where(nrm > 0.0, nrm, 1.0)

    aux = {"gamma_norm_err": np.abs(_gamma_norm(ys, k) - 1.0)}
    if inertia is not None and potential is not None:
        aux["energy"] = energies(ys, inertia, potential)
    if constraints is not None:
        aux["constraint_residual"] = np.max(
            np.abs(ys[:, :k] @ constraints.rows.T), axis=1
        )
    traj = Trajectory(times=t_grid, ys=ys, aux=aux, stats=stats)
    traj._steps = steps
    return traj


def state_field(fn, n):
    """Packed field ``field(y) -> ydot`` in dimension ``n`` from a field on
    states, ``fn(state) -> (omega_dot, gamma_dot)``, for :func:`integrate`.
    ``y`` may be a list of floats, as every method passes it, or an
    array; ``ydot`` is an array."""
    k = layout(n).k

    def field(y):
        y = np.asarray(y, dtype=float)
        return pack_state(*fn(BodyState._wrap(unpack(y[:k], n), y[k:])))

    return field


def reparametrize(traj: Trajectory, phi) -> Trajectory:
    """Re-index a trajectory by the accumulated time ``tau``, with ``dtau =
    Phi dt`` (the torus-analysis convention with ``Phi = Gamma_n``).

    ``phi`` maps packed points ``(..., d)`` to their values of ``Phi``, as
    the functions of :func:`suslov.cases.first_integrals` do, and is
    evaluated once on the samples ``traj.ys`` (``Gamma_n`` is ``lambda y:
    y[..., -1]``).  ``Phi`` must keep one strict sign along the samples.
    Increments accumulate through the geometric mean of adjacent samples;
    accuracy is second order in the sampling step, like the trapezoid rule.

    If ``Phi < 0`` the raw ``tau`` decreases, so the returned samples are
    reversed to keep times increasing.  New times always start at 0.
    """
    vals = np.asarray(phi(traj.ys), dtype=float)
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
    dtau = np.diff(traj.times) * sign * np.sqrt(vals[:-1] * vals[1:])
    tau = np.concatenate([[0.0], np.cumsum(dtau)])
    ys = traj.ys
    aux = {key: np.asarray(val) for key, val in traj.aux.items()}
    if tau[-1] < 0:
        tau = tau[::-1].copy()
        ys = ys[::-1]
        aux = {key: val[::-1].copy() for key, val in aux.items()}
    tau = tau - tau[0]
    return Trajectory(times=tau, ys=ys, aux=aux, stats=traj.stats)


def detect_period(traj: Trajectory, observable):
    """Period estimate from returns of ``observable(state) -> float``, or
    None: the mean gap between upward crossings of the midpoint of its range
    over the knots, once three consecutive gaps agree to a relative 1e-6.

    On a trajectory from :func:`integrate`'s adaptive methods, the knots
    are the accepted steps' starts and the last point, so two adjacent
    knots bound one step, whatever the output grid; on any other (``rk4``,
    :func:`reparametrize`, hand-built), they are the samples.  Each
    crossing between two knots is located by regula falsi (Anderson-Bjorck)
    from the inverse cubic interpolant of the four nearest knots, until the
    bracket stops shrinking, on the interpolant of that step, whose stages
    are evaluated again (event location: Hairer, Norsett and Wanner,
    section II.6), or, without steps, on the cubic through those four
    knots; both cubics are the one Lagrange form of :func:`_cubic`.
    """
    pair, field, rows = traj._steps or (None, None, None)
    knots = traj if rows is None else Trajectory(
        np.append(rows[:, 0], traj.times[-1]),
        np.vstack((rows[:, 2:], traj.ys[-1])))
    vals = np.array([observable(s) for s in knots.states])
    if vals.size < 4 or np.ptp(vals) < 1e-300:
        return None
    level = 0.5 * (vals.min() + vals.max())
    g = vals - level
    up = (np.flatnonzero((g[:-1] < 0.0) & (g[1:] >= 0.0)) + 1).tolist()
    n, times = traj.n, knots.times
    k = layout(n).k
    crossings = []
    for i in up:
        # the four knots around the crossing, on the abscissa (t - t0) / scale
        i0 = min(max(0, i - 2), g.size - 4)
        t0, scale = times[i0], times[i0 + 3] - times[i0]
        x = (times[i0 : i0 + 4] - t0) / scale
        xl, gl = x.tolist(), g[i0 : i0 + 4].tolist()
        if rows is None:
            def local(t):
                return _cubic(xl, gl, (t - t0) / scale)
        else:
            # the bracket [knot i - 1, knot i] is step i - 1
            start, h = rows.item(i - 1, 0), rows.item(i - 1, 1)
            dense = _restep(pair, field, rows[i - 1])

            def local(t):
                p = dense([(t - start) / h])[0]
                return observable(BodyState._wrap(unpack(p[:k], n), p[k:])) - level

        # the first point: where the cubic through the four knots, as t(g),
        # is at g = 0 (inverse interpolation)
        first = t0 + scale * _cubic(gl, xl, 0.0)
        crossings.append(_regula_falsi(local, times.item(i - 1), times.item(i),
                                       g.item(i - 1), g.item(i), first))
    if len(crossings) < 4:
        return None
    gaps = np.diff(crossings)
    for j in range(gaps.size - 2):
        window = gaps[j : j + 3]
        mean = float(np.mean(window))
        if mean > 0 and (np.max(window) - np.min(window)) / mean < 1e-6:
            return mean
    return None


def _restep(pair, f, row):
    """The interpolant, as ``pair.dense`` returns it, of the accepted step
    ``row = (t, h, *y)``, whose stages are evaluated again (``len(pair.rows)``
    field calls).  ``K[0]`` is ``f`` at ``y``; the stepper reused ``f`` at
    the previous step's end, before its renormalization, so the two agree to
    roundoff."""
    _, h, *yl = row.tolist()
    K, terms = _stage_array(pair, len(yl))
    K[0] = f(yl)
    _fill_stages(f, yl, h, K, terms, 1, len(pair.rows))
    return pair.dense(row[2:], h, K, np.dot(*terms[pair.stages]))


def _cubic(x, y, at):
    """The cubic through the four points ``(x[j], y[j])`` at ``at``
    (Lagrange form), or NaN when two ``x`` are equal; with the roles of
    ``x`` and ``y`` swapped and ``at = 0.0``, the inverse interpolant."""
    try:
        return sum(yj * math.prod((at - xm) / (xj - xm) for xm in x[:j] + x[j + 1:])
                   for j, (xj, yj) in enumerate(zip(x, y)))
    except ZeroDivisionError:
        return math.nan


def _regula_falsi(f, a, b, fa, fb, x):
    """A root of ``f`` in ``[a, b]`` from ``fa = f(a) < 0 <= fb = f(b)``,
    from the point ``x`` if it is strictly inside: regula falsi in the
    Anderson-Bjorck variant, which scales the value kept at an end twice
    running by ``1 - f(x) / f(old end)`` (by 1/2 when that is not
    positive), iterated until the next point is not strictly inside the
    bracket."""
    side = 0
    if not a < x < b:
        x = a - fa * ((b - a) / (fb - fa))
    while a < x < b:
        fx = f(x)
        if fx < 0.0:
            if side < 0:
                m = 1.0 - fx / fa
                fb *= m if m > 0.0 else 0.5
            a, fa, side = x, fx, -1
        else:
            if side > 0:
                m = 1.0 - fx / fb
                fa *= m if m > 0.0 else 0.5
            b, fb, side = x, fx, 1
        x = a - fa * ((b - a) / (fb - fa))
    return min(max(x, a), b)


def drift_report(traj: Trajectory, integrals) -> dict:
    """max_t |F(t) - F(0)| / max(|F(0)|, 1e-12) for each labelled integral;
    each ``F`` maps the packed samples ``traj.ys`` to their values at once
    (as the functions of :func:`suslov.cases.first_integrals` do)."""
    report = {}
    for label, fn in integrals.items():
        vals = fn(traj.ys)
        report[label] = float(
            np.max(np.abs(vals - vals[0])) / max(abs(vals[0]), 1e-12)
        )
    return report


_CSV_BLOCK = 4096  # rows formatted per write; bounds the transient floats


def write_csv(traj: Trajectory, path):
    """Trajectory CSV: t, upper-triangle Omega entries, Gamma, diagnostics.

    Floats carry 17 significant digits so round-trips are bit-stable.  The
    rows are one array, formatted a block at a time with one ``%.17g``
    row format (the text of ``"{:.17g}".format`` for every float).
    """
    if "energy" not in traj.aux or "constraint_residual" not in traj.aux:
        raise ValueError(
            "trajectory lacks energy/constraint diagnostics; integrate with "
            "the model context to export CSV"
        )
    n = traj.n
    lay = layout(n)
    header = ["t"]
    header += [f"Omega_{i + 1}_{j + 1}" for i, j in zip(lay.iu, lay.ju)]
    header += [f"Gamma_{i + 1}" for i in range(n)]
    header += ["E", "constraint_residual", "gamma_norm_err"]
    aux = traj.aux
    table = np.column_stack((
        traj.times, traj.ys, aux["energy"], aux["constraint_residual"],
        aux["gamma_norm_err"],
    ))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), _CSV_BLOCK):
            fh.write(_csv_rows(table[start : start + _CSV_BLOCK]))


def _csv_rows(block) -> str:
    """The CSV text of the rows of a 2D float array, ``%.17g`` per value."""
    row = ",".join(["%.17g"] * block.shape[1])
    return "".join([row % tuple(values) + "\n" for values in block.tolist()])
