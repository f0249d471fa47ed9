"""Config-driven command line: simulation, verification and analysis runs.

Scenario files are flat ``key = value`` text with dotted sections, ``#``
comments and whitespace-separated vectors::

    n = 4
    case.kind = KharlamovaND
    case.inertia = 1.0 2.0 3.0 1.5
    case.b = 1.0 0.7 -0.4 0.0
    initial.omega_1_4 = 0.3
    initial.gamma = 0.1 0.2 0.3 0.93
    integrator.method = dop853
    run.t_end = 100.0
    run.output_dt = 0.05
    run.analyses = verify_integrals measure_check
    run.output_dir = out

Angular velocity entries use 1-based upper-triangle indices.  Outputs are a
trajectory CSV and a structured text report with a stable schema; identical
configs produce byte-identical files.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import clebsch, kharlamova
from .algebra import ConstraintSet, SkewMatrix, packed_to_vector
from .cases import (
    CaseError,
    CaseKind,
    CaseSpec,
    asymptotic_points,
    build_field,
    first_integrals,
)
from .integrate import (
    MAX_OUTPUT_INTERVALS,
    IntegrationError,
    IntegratorConfig,
    detect_period,
    drift_report,
    integrate,
    reparametrize,
    write_csv,
)
from .model import (
    BodyState,
    DGJPotential,
    LinearPotential,
    MassTensor,
    QuadraticPotential,
    ZeroPotential,
    divergence_fd,
    energy,
    packed_reduced_field,
    packed_suslov3d_field,
)

__all__ = ["ConfigError", "ScenarioConfig", "load_config", "run", "main"]

ENV_OUTPUT_DIR = "SUSLOV_OUTPUT_DIR"


def _float_or_array(point, block):
    """``point`` (a ``math`` function) on a Python float, as the fields'
    point path hands the potential, else ``block`` (the numpy ufunc); the
    two give the same bits on this platform's libm and numpy
    (``tests/test_cli.py`` checks a large sample), and ``math`` costs no
    numpy dispatch."""
    return lambda x: point(x) if type(x) is float else block(x)


_SIN = _float_or_array(math.sin, np.sin)
_COS = _float_or_array(math.cos, np.cos)

# two-argument potential fixtures selectable by name in DGJ scenarios; each
# takes floats or arrays of one shape
DGJ_FUNCTIONS = {
    "sin": (lambda x, y: _SIN(x) + 0.5 * y, lambda x, y: (_COS(x), 0.5)),
    "quadratic": (
        lambda x, y: 0.5 * x * x + 0.25 * y * y,
        lambda x, y: (x, 0.5 * y),
    ),
    "cos": (lambda x, y: _COS(x) - 0.3 * y, lambda x, y: (-_SIN(x), -0.3)),
}


class ConfigError(ValueError):
    """Scenario file rejected; message carries the offending line."""


@dataclass
class ScenarioConfig:
    n: int
    case_spec: CaseSpec
    initial_state: BodyState
    integrator: IntegratorConfig
    t_end: float
    output_dt: float
    analyses: list
    output_dir: str


def _parse_lines(text):
    """key = value pairs with line numbers; rejects malformed lines."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = (value, lineno)
    return entries


class _Entries:
    def __init__(self, entries):
        self.entries = entries
        self.used = set()

    def consume(self, key, default=None, required=False):
        if key in self.entries:
            self.used.add(key)
            return self.entries[key][0], self.entries[key][1]
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default, None

    def float_(self, key, default=None, required=False):
        raw, lineno = self.consume(key, required=required)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"line {lineno}: {key} = {raw!r} is not a number")

    def int_(self, key, default=None, required=False):
        raw, lineno = self.consume(key, required=required)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"line {lineno}: {key} = {raw!r} is not an integer")

    def bool_(self, key, default=None):
        raw, lineno = self.consume(key)
        if raw is None:
            return default
        lowered = raw.lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"line {lineno}: {key} = {raw!r} is not a boolean")

    def vector(self, key, length=None, required=False):
        raw, lineno = self.consume(key, required=required)
        if raw is None:
            return None
        try:
            vec = np.array([float(tok) for tok in raw.replace(",", " ").split()])
        except ValueError:
            raise ConfigError(f"line {lineno}: {key} = {raw!r} is not a vector")
        if not np.all(np.isfinite(vec)):
            raise ConfigError(f"line {lineno}: {key} = {raw!r} is not finite")
        if length is not None and vec.size != length:
            raise ConfigError(
                f"line {lineno}: {key} needs {length} entries, got {vec.size}"
            )
        return vec

    def string(self, key, default=None, required=False):
        raw, _ = self.consume(key, required=required)
        return default if raw is None else raw

    def leftover_omega_keys(self):
        return sorted(k for k in self.entries if k.startswith("initial.omega_"))

    def unknown(self):
        return sorted(set(self.entries) - self.used)


def _build_potential(kind, n, e: _Entries):
    if kind in (CaseKind.SUSLOV_FREE,):
        return ZeroPotential()
    if kind in (CaseKind.LAGRANGE_3D, CaseKind.LAGRANGE_ND):
        b_n = e.float_("case.b_n", required=True)
        b = np.zeros(n)
        b[n - 1] = b_n
        return LinearPotential(b)
    if kind in (CaseKind.KHARLAMOVA_3D, CaseKind.KHARLAMOVA_ND):
        return LinearPotential(e.vector("case.b", length=n, required=True))
    if kind in (CaseKind.CLEBSCH_TISSERAND_3D, CaseKind.CLEBSCH_TISSERAND_ND):
        return QuadraticPotential(e.vector("case.b", length=n, required=True))
    if kind is CaseKind.DGJ_3D:
        names = []
        for key in ("case.v1", "case.v2"):
            name, lineno = e.consume(key, required=True)
            if name not in DGJ_FUNCTIONS:
                known = ", ".join(sorted(DGJ_FUNCTIONS))
                raise ConfigError(
                    f"line {lineno}: unknown function {name!r} for {key} "
                    f"(available: {known})"
                )
            names.append(name)
        v1, g1 = DGJ_FUNCTIONS[names[0]]
        v2, g2 = DGJ_FUNCTIONS[names[1]]
        return DGJPotential(v1, g1, v2, g2)
    if kind is CaseKind.GYROSCOPIC_3D:
        family = e.string("case.potential", default="zero")
        if family == "zero":
            return ZeroPotential()
        if family == "linear":
            return LinearPotential(e.vector("case.b", length=n, required=True))
        if family == "quadratic":
            return QuadraticPotential(e.vector("case.b", length=n, required=True))
        raise ConfigError(
            f"case.potential = {family!r} is not one of zero/linear/quadratic"
        )
    raise ConfigError(f"unhandled case kind {kind}")


def load_config(path, overrides=None) -> ScenarioConfig:
    """Parse and validate a scenario file; overrides come from CLI flags."""
    overrides = overrides or {}
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    e = _Entries(_parse_lines(text))

    n = e.int_("n", required=True)
    if n < 3:
        raise ConfigError("n must be at least 3")
    kind_raw, kind_line = e.consume("case.kind", required=True)
    try:
        kind = CaseKind(kind_raw)
    except ValueError:
        known = ", ".join(k.value for k in CaseKind)
        raise ConfigError(
            f"line {kind_line}: unknown case kind {kind_raw!r} (one of: {known})"
        )
    inertia_vec = e.vector("case.inertia", length=n, required=True)
    try:
        inertia = MassTensor(diag=inertia_vec)
    except ValueError as exc:
        raise ConfigError(f"case.inertia invalid: {exc}")
    potential = _build_potential(kind, n, e)
    gyro_eps = e.float_("case.gyro_eps", default=0.0)
    axis = e.vector("case.constraint_axis", length=3)

    try:
        case_spec = CaseSpec(
            kind, n, inertia, potential, gyro_eps=gyro_eps, constraint_axis=axis
        )
    except CaseError as exc:
        raise ConfigError(f"case specification rejected: {exc}")

    gamma = e.vector("initial.gamma", length=n, required=True)
    norm = np.linalg.norm(gamma)
    if abs(norm - 1.0) > 1e-6:
        raise ConfigError(
            f"initial.gamma has norm {norm:.9g}; must be within 1e-6 of 1"
        )
    gamma = gamma / norm

    entries, seen = [], {}
    for key in e.leftover_omega_keys():
        lineno = e.entries[key][1]
        tail = key.removeprefix("initial.omega_")
        parts = tail.split("_")
        # isdecimal, not isdigit: int() parses exactly the decimal digits
        if len(parts) != 2 or not all(p.isdecimal() for p in parts):
            raise ConfigError(
                f"line {lineno}: malformed key {key!r}; use initial.omega_<i>_<j>"
            )
        i, j = int(parts[0]), int(parts[1])
        if not (1 <= i < j <= n):
            raise ConfigError(
                f"line {lineno}: omega indices ({i},{j}) out of range for n={n}"
            )
        if (i, j) in seen:  # spellings such as omega_1_3 and omega_01_03
            (a, key_a), (b, key_b) = sorted([seen[i, j], (lineno, key)])
            raise ConfigError(
                f"lines {a} and {b}: {key_a!r} and {key_b!r} both set Omega_{i}_{j}"
            )
        seen[i, j] = lineno, key
        value = e.float_(key)
        if not math.isfinite(value):
            raise ConfigError(f"line {lineno}: {key} = {value!r} is not finite")
        entries.append((i - 1, j - 1, value))
    omega = SkewMatrix.from_entries(n, entries)
    if case_spec.constraint_axis is None:
        block = [(i, j) for i, j, v in entries if j < n - 1 and v != 0.0]
        if block:
            i, j = block[0]
            raise ConfigError(
                f"initial.omega_{i + 1}_{j + 1} violates the admissibility "
                "constraints (only entries in column n are free)"
            )
    else:
        residual = ConstraintSet.single_3d(case_spec.constraint_axis).residual(omega)
        if residual > 1e-8 * max(1.0, omega.norm()):
            raise ConfigError(
                "initial angular velocity violates <a, Omega> = 0 for the "
                f"configured constraint axis (residual {residual:.3e})"
            )
    state0 = BodyState(omega, gamma)

    defaults = IntegratorConfig  # the dataclass holds each default
    step_cfg = e.float_("integrator.step", default=defaults.step)
    settings = dict(
        method=e.string("integrator.method", default=defaults.method),
        step=step_cfg if overrides.get("step") is None else overrides["step"],
        rel_tol=e.float_("integrator.rel_tol", default=defaults.rel_tol),
        abs_tol=e.float_("integrator.abs_tol", default=defaults.abs_tol),
        renormalize_gamma=e.bool_("integrator.renormalize_gamma",
                                  default=defaults.renormalize_gamma),
        max_steps=e.int_("integrator.max_steps", default=defaults.max_steps),
    )
    try:
        integrator = IntegratorConfig(**settings)
    except ValueError as exc:
        raise ConfigError(f"integrator settings rejected: {exc}")

    t_end_cfg = e.float_("run.t_end", required=overrides.get("t_end") is None)
    t_end = t_end_cfg if overrides.get("t_end") is None else overrides["t_end"]
    if not (math.isfinite(t_end) and t_end > 0):
        raise ConfigError(f"run.t_end = {t_end!r} must be positive and finite")
    t_key = "run.t_end" if overrides.get("t_end") is None else "--t-end"
    output_dt = e.float_("run.output_dt", default=t_end / 1000.0)
    if not (0 < output_dt <= t_end):
        raise ConfigError(
            f"run.output_dt = {output_dt!r} must be positive and at most "
            f"{t_key} = {t_end!r}"
        )
    if t_end / output_dt > MAX_OUTPUT_INTERVALS:  # integrate's bound, by key
        raise ConfigError(
            f"{t_key} = {t_end!r} over run.output_dt = {output_dt!r} is "
            f"{t_end / output_dt:.6g} output intervals; at most "
            f"{MAX_OUTPUT_INTERVALS} are allowed"
        )
    analyses_raw = e.string("run.analyses", default="verify_integrals")
    analyses = analyses_raw.replace(",", " ").split()
    for name in analyses:
        if name not in ANALYSES:
            raise ConfigError(
                f"unknown analysis {name!r} (one of: {', '.join(ANALYSES)})"
            )
    output_dir_cfg = e.string("run.output_dir")
    output_dir = (
        overrides.get("output_dir")
        or output_dir_cfg
        or os.environ.get(ENV_OUTPUT_DIR)
        or "suslov_out"
    )

    unknown = e.unknown()
    if unknown:
        lineno = e.entries[unknown[0]][1]
        raise ConfigError(f"line {lineno}: unknown key {unknown[0]!r}")

    return ScenarioConfig(
        n=n,
        case_spec=case_spec,
        initial_state=state0,
        integrator=integrator,
        t_end=t_end,
        output_dt=output_dt,
        analyses=list(analyses),
        output_dir=output_dir,
    )


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, np.ndarray):
        return " ".join(f"{float(v):.17g}" for v in x)
    return str(x)


class Report:
    """Ordered section/key/value accumulator with stable formatting."""

    def __init__(self):
        self.lines = []

    def section(self, name):
        if self.lines:
            self.lines.append("")
        self.lines.append(f"[{name}]")

    def put(self, key, value):
        self.lines.append(f"{key} = {_fmt(value)}")

    def text(self):
        return "\n".join(self.lines) + "\n"


def _write_atomically(path, write):
    """Have ``write(part)`` write the file ``part`` beside ``path``, then
    move it onto ``path``.  ``part`` is made by ``open``, so every output
    gets the mode the umask gives; a failed write removes it, and an
    ``OSError`` becomes a ``ConfigError`` naming ``path``."""
    part = path + ".part"
    try:
        write(part)
        os.replace(part, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(part)
        if isinstance(exc, OSError):
            raise ConfigError(
                f"cannot write {path}: {exc.strerror or exc}"
            ) from exc
        raise


def _case_section(report: Report, config: ScenarioConfig):
    spec = config.case_spec
    report.section("case")
    report.put("kind", spec.kind.value)
    report.put("n", spec.n)
    report.put("inertia", spec.inertia.diag)
    pot = spec.potential
    report.put("potential", type(pot).__name__.removesuffix("Potential").lower())
    if isinstance(pot, (LinearPotential, QuadraticPotential)):
        report.put("b", pot.b)
    if spec.gyro_eps:
        report.put("gyro_eps", spec.gyro_eps)
    if spec.constraint_axis is not None:
        report.put("constraint_axis", spec.constraint_axis)
    report.put("t_end", config.t_end)
    report.put("output_dt", config.output_dt)


def _analysis_verify_integrals(report, config, traj):
    spec = config.case_spec
    integrals = first_integrals(spec)
    drifts = drift_report(traj, integrals)
    report.section("integrals")
    for label in integrals:
        report.put(f"drift.{label}", drifts[label])
    report.put("max_drift", max(drifts.values()))
    bad = [f"{label} = {drifts[label]:.3g}" for label in integrals
           if not drifts[label] <= 1e-8]
    report.put("pass", not bad)
    return f"integrals (drift above 1e-08: {', '.join(bad)})" if bad else None


def _analysis_measure_check(report, config, traj):
    spec = config.case_spec
    rng = np.random.default_rng(0)
    axis = spec.vector_axis
    if axis is not None:
        f, dim, _ = packed_suslov3d_field(
            spec.j_diag, axis, spec.potential, spec.gyro_eps
        )
    else:
        f, dim = packed_reduced_field(spec.inertia, spec.potential)
    xs = rng.normal(size=(100, dim))  # the draws of 100 points in turn
    for x in xs:
        x[dim - spec.n :] /= np.linalg.norm(x[dim - spec.n :])
    max_div = float(np.max(np.abs(divergence_fd(f, xs))))
    report.section("measure")
    report.put("samples", 100)
    report.put("max_abs_divergence", max_div)
    preserved = max_div <= 1e-6
    report.put("invariant_measure", "yes" if preserved else "no")
    if not preserved and max_div > 1e-3:
        report.put("note", "no invariant measure at generic states")
    return None if preserved or spec.constraint_axis is not None else "measure"


def _analysis_kharlamova(report, config, traj):
    spec = config.case_spec
    inertia, b = spec.inertia, spec.potential.b
    coords = kharlamova.to_kharlamova(config.initial_state, inertia, b)
    poly = kharlamova.trajectory_polynomial(coords, inertia, b)
    interval = kharlamova.orbit_interval(poly, coords.omega[0])
    t_quad = kharlamova.period(poly, interval)
    report.section("kharlamova")
    report.put("omega1_interval", np.array(interval))
    periodic = math.isfinite(t_quad)
    report.put("asymptotic", not periodic)
    if periodic:
        report.put("T_quadrature", t_quad)
        if config.t_end < 5.4 * t_quad or config.integrator.method == "rk4":
            # the main run must span detect_period's three agreeing gaps and
            # keep the steps that bound the crossings (rk4 keeps none),
            # whatever its output grid; else one run, counted here
            field, _ = build_field(spec)
            traj = integrate(field, config.initial_state, (0.0, 5.4 * t_quad),
                             config.integrator, output_dt=t_quad / 600.0)
            _put_stats(report, traj.stats)
    t_measured = detect_period(traj, _omega_1n)
    if not periodic:
        report.put("period_detected", t_measured is not None)
        ok = t_measured is None
    elif t_measured is None:
        report.put("T_measured", "none")
        ok = False
    else:
        rel = abs(t_measured - t_quad) / t_quad
        report.put("T_measured", t_measured)
        report.put("rel_diff", rel)
        ok = rel <= 1e-6
    report.put("pass", ok)
    return None if ok else "kharlamova"


def _put_stats(report, stats):
    for key in ("accepted", "rejected", "rhs_evals", "h_min", "h_max", "h_last"):
        report.put(key, getattr(stats, key))


def _omega_1n(state):
    return state.omega.mat[0, state.n - 1]


def _analysis_clebsch(report, config, traj):
    spec = config.case_spec
    inertia, b = spec.inertia, spec.potential.b
    torus = clebsch.torus_spec(config.initial_state, inertia, b)
    cls, exact = torus.classification, torus.frequencies
    report.section("clebsch")
    report.put("c", torus.c)
    report.put("classification", cls.value)
    ok = True
    if cls is clebsch.Classification.OUTSIDE_HYPOTHESES:
        report.put("pass", True)
        return None
    report.put("frequencies_exact", exact)
    ys = traj.ys
    sums = np.sum(clebsch.packed_integrals_f(ys, inertia, b), axis=1)
    # run() has integrate record each sample's energy in aux
    offsets = traj.aux["energy"] - 0.5 * sums
    report.put("energy_offset", float(offsets[0]))
    report.put("energy_offset_spread", float(np.max(np.abs(offsets - offsets[0]))))
    label, residuals = clebsch.energy_offset_constant(float(offsets[0]), b)
    report.put("energy_offset_matches", label)
    for key in sorted(residuals):
        report.put(f"energy_offset_residual.{key}", residuals[key])

    signs = np.sign(ys[:, -1])
    sign_invariant = bool(np.all(signs == signs[0]) and signs[0] != 0.0)
    report.put("gamma_n_sign_invariant", sign_invariant)
    if cls is clebsch.Classification.TWO_DISJOINT_TORI and sign_invariant:
        tau_traj = reparametrize(traj, lambda y: y[..., -1])
        measured = clebsch.rotation_numbers(tau_traj, inertia, b)
        report.put("frequencies_measured", measured)
        err = float(np.max(np.abs(measured - exact)))
        report.put("frequencies_max_abs_err", err)
        ok = err <= 1e-4 and sign_invariant
    elif cls is clebsch.Classification.TWO_DISJOINT_TORI:
        ok = False
    else:
        report.put("frequencies_measured", "skipped_branched_or_degenerate")
    report.put("pass", ok)
    return None if ok else "clebsch"


def _asymptotic_line(config):
    """The start state's energy and its ``(w_minus, w_plus)``; the
    ``ValueError`` of :func:`asymptotic_points` when the case has none."""
    spec = config.case_spec
    h = energy(config.initial_state, spec.inertia, spec.potential)
    return h, asymptotic_points(spec.j_diag, spec.constraint_axis, h)


def _analysis_asymptotic(report, config, traj):
    h, (w_minus, w_plus) = _asymptotic_line(config)
    report.section("asymptotic")
    report.put("energy_level", h)
    report.put("w_plus", w_plus)
    report.put("w_minus", w_minus)

    # vecdot sums each row like the dot product of np.linalg.norm on it
    d = packed_to_vector(traj.ys[:, :3]) - w_plus
    dist = np.sqrt(np.vecdot(d, d))
    report.put("initial_distance", float(dist[0]))
    report.put("final_distance", float(dist[-1]))
    converged = dist[-1] < 1e-6
    report.put("converged", converged)
    report.put("pass", converged)
    return None if converged else "asymptotic"


def _analysis_period(report, config, traj):
    t = detect_period(traj, _omega_1n)
    report.section("period")
    report.put("observable", f"Omega_1_{config.n}")
    report.put("period", t if t is not None else "none")
    return None


_ANALYSIS_FNS = {
    "verify_integrals": _analysis_verify_integrals,
    "measure_check": _analysis_measure_check,
    "kharlamova_quadrature": _analysis_kharlamova,
    "clebsch_tori": _analysis_clebsch,
    "asymptotic": _analysis_asymptotic,
    "period": _analysis_period,
}
ANALYSES = tuple(_ANALYSIS_FNS)

# analysis -> (test on the CaseSpec, the error when the case fails it)
_CASE_NEEDS = {
    "kharlamova_quadrature": (
        lambda spec: spec.kind in (CaseKind.KHARLAMOVA_ND,
                                   CaseKind.KHARLAMOVA_3D),
        "kharlamova_quadrature needs a Kharlamova case",
    ),
    "clebsch_tori": (
        lambda spec: spec.kind in (CaseKind.CLEBSCH_TISSERAND_ND,
                                   CaseKind.CLEBSCH_TISSERAND_3D),
        "clebsch_tori needs a quadratic-potential case",
    ),
    "asymptotic": (
        lambda spec: (spec.kind is CaseKind.SUSLOV_FREE
                      and spec.constraint_axis is not None),
        "asymptotic analysis needs the free 3D case with case.constraint_axis",
    ),
}


def run(config: ScenarioConfig, analyses=None) -> int:
    """Simulate, write trajectory.csv and report.txt, run the analyses.

    Returns the exit status: 0, or 4 after an ``[error]`` record on stderr
    naming what failed (each analysis returns None or its failure).  An
    analysis the case does not support and an unusable output location
    raise ``ConfigError``, the former before anything is integrated or
    written.  An analysis that raises a numerical error stops the run:
    ``report.txt`` is written with the sections gathered so far and a
    ``[result]`` that names the analysis, and the error is raised again
    with the analysis name in front of its message.
    """
    spec = config.case_spec
    names = analyses if analyses is not None else config.analyses
    for name in names:
        if name in _CASE_NEEDS and not _CASE_NEEDS[name][0](spec):
            raise ConfigError(_CASE_NEEDS[name][1])
    if "asymptotic" in names:
        try:
            _asymptotic_line(config)
        except ValueError as exc:
            raise ConfigError(f"asymptotic: {exc}") from exc
    try:
        os.makedirs(config.output_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create output directory {config.output_dir}: "
            f"{exc.strerror or exc}"
        ) from exc
    field, constraints = build_field(spec)
    traj = integrate(
        field,
        config.initial_state,
        (0.0, config.t_end),
        config.integrator,
        output_dt=config.output_dt,
        inertia=spec.inertia,
        potential=spec.potential,
        constraints=constraints,
    )
    _write_atomically(os.path.join(config.output_dir, "trajectory.csv"),
                      lambda part: write_csv(traj, part))

    report = Report()
    _case_section(report, config)
    report.section("integrator")
    report.put("method", config.integrator.method)
    _put_stats(report, traj.stats)
    failed, error = [], None
    for name in names:
        try:
            fail = _ANALYSIS_FNS[name](report, config, traj)
        except (IntegrationError, ValueError, np.linalg.LinAlgError) as exc:
            error, message = exc, f"{name}: {exc}"
            break
        if fail is not None:
            failed.append(fail)
    report.section("result")
    report.put("pass", not failed and error is None)
    if error is not None:
        report.put("error", message)
    _write_atomically(os.path.join(config.output_dir, "report.txt"),
                      lambda part: Path(part).write_text(report.text()))
    if error is not None:
        raise ValueError(message) from error
    if failed:
        _error_record("verification", "failed sections: " + "; ".join(failed))
    return 4 if failed else 0


# subcommand -> (help text, analyses it runs; None runs the configured ones)
COMMANDS = {
    "simulate": ("run the scenario with its configured analyses", None),
    "verify": ("conservation and measure checks",
               ["verify_integrals", "measure_check"]),
    "kharlamova-period": ("closed-form vs measured period",
                          ["kharlamova_quadrature"]),
    "clebsch-tori": ("torus classification and rotation numbers",
                     ["clebsch_tori"]),
    "suslov-asymptotic": ("limit points of the free non-eigenvector case",
                          ["asymptotic"]),
}


def _error_record(kind, message):
    sys.stderr.write(f"[error]\nkind = {kind}\nmessage = {message}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="suslov",
        description="constrained rigid body simulation and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="scenario file")
        p.add_argument("--t-end", type=float, default=None)
        p.add_argument("--step", type=float, default=None)
        p.add_argument("--output-dir", default=None)
    args = parser.parse_args(argv)

    overrides = {
        "t_end": args.t_end,
        "step": args.step,
        "output_dir": args.output_dir,
    }
    try:
        config = load_config(args.config, overrides)
    except ConfigError as exc:
        _error_record("config", exc)
        return 2

    try:
        return run(config, analyses=COMMANDS[args.command][1])
    except (CaseError, ConfigError) as exc:
        _error_record("config", exc)
        return 2
    except (IntegrationError, ValueError, np.linalg.LinAlgError) as exc:
        _error_record("numerical", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
