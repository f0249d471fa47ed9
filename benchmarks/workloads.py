"""Workload items of the suslov benchmark.

An item is one unit of user work: a scenario file run through the CLI, one
Kharlamova ensemble instance, or one closed-form sweep instance.  The
``reduced`` workload holds every item that runs on the canonical chart: the
four reduced scenarios, the ensemble and the sweep.  ``vector3d`` holds the
three vector-form scenarios.  Items are
built from the workload seed before any timing starts.  ``run()`` is the
timed call into the library.  ``check(result)`` runs afterwards, outside the
timed region, and returns a :class:`Check`.

Library functions are looked up as module attributes at call time
(``lib.cases.build_field``), so the traced run can swap in its wrappers.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

WORKLOADS = ("reduced", "vector3d")

SCENARIOS = {
    "reduced": (
        "kharlamova_verify_n4",
        "lagrange_verify_n4",
        "kharlamova_period_n3",
        "clebsch_tori_n3",
    ),
    "vector3d": ("dgj_3d", "gyroscopic_3d", "suslov_asymptotic_3d"),
}

# RK45 attempts per scenario from the ROADMAP baseline table; the main
# integration should use 7 right-hand-side calls per attempt.
BASELINE_STEPS = {
    "kharlamova_verify_n4": 2289,
    "kharlamova_period_n3": 2282,
    "clebsch_tori_n3": 6086,
    "dgj_3d": 3038,
    "suslov_asymptotic_3d": 4586,
}

ENSEMBLE_DIMS = (3, 4, 5)
# 50 closed-form instances per dimension: about 0.9 s of Kharlamova periods,
# so that the kharlamova layer, under 1% of the scenarios, moves wall_s
SWEEP_PER_DIM = 50
SWEEP_DIMS = (3, 4, 5)

# criterion 3: |T_ode - T_quad| / T <= 1e-6
ENSEMBLE_PERIOD_BOUND = 1e-6
# quadrature period against the independent reference of this file
REFERENCE_PERIOD_BOUND = 1e-8
# instances whose reference rule settles with this many nodes (see
# kharlamova_inputs)
REFERENCE_NODES = 25
FREQ_BOUND = 1e-12


@dataclass
class Check:
    ok: bool
    digest: object
    drift: float = 0.0
    period_rel_err: float = 0.0
    freq_abs_err: float = 0.0
    note: str = ""


@dataclass
class Item:
    id: str
    run: Callable[[], object]
    check: Callable[[object], Check]
    # called once before timing; the first item of each kind has one
    warm: Callable[[], object] | None = None


def library(src: Path):
    """The suslov modules the benchmark calls, by layer name."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    names = ("cli", "cases", "model", "integrate", "kharlamova", "clebsch", "algebra")
    return SimpleNamespace(
        **{name: importlib.import_module(f"suslov.{name}") for name in names}
    )


# ----------------------------------------------------------------- scenarios


_KEY = re.compile(r"^(\S+) = (.*)$")


def parse_report(text):
    """``{section: {key: value}}`` of a report.txt."""
    sections, current = {}, None
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], {})
        elif current is not None:
            m = _KEY.match(line)
            if m:
                current[m.group(1)] = m.group(2)
    return sections


def _float_or_zero(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return 0.0


# warm-up runs of a scenario stop here, with their own output directory
WARM_T_END = "1.0"


def scenario_item(lib, root: Path, name: str, out_dir: Path) -> Item:
    cfg = str(root / "scenarios" / f"{name}.cfg")
    out = out_dir / name
    argv = ["simulate", cfg, "--output-dir", str(out)]
    warm_argv = ["simulate", cfg, "--output-dir", str(out_dir / "warmup" / name),
                 "--t-end", WARM_T_END]

    def run():
        return lib.cli.main(argv)

    def warm():
        return lib.cli.main(warm_argv)

    def check(rc):
        try:
            report = (out / "report.txt").read_text()
            csv = (out / "trajectory.csv").read_bytes()
        except OSError as exc:
            return Check(False, None, note=f"missing output: {exc}")
        sections = parse_report(report)
        passed = sections.get("result", {}).get("pass") == "true"
        digest = hashlib.sha256(csv + report.encode()).hexdigest()
        return Check(
            ok=rc == 0 and passed,
            digest=digest,
            drift=_float_or_zero(sections.get("integrals", {}).get("max_drift")),
            period_rel_err=_float_or_zero(sections.get("kharlamova", {}).get("rel_diff")),
            freq_abs_err=_float_or_zero(
                sections.get("clebsch", {}).get("frequencies_max_abs_err")
            ),
            note="" if rc == 0 else f"exit {rc}",
        )

    return Item(name, run, check, warm=warm)


# --------------------------------------------------- seeded instance inputs


def kharlamova_draw(rng, n):
    """Criterion-3 recipe: inertia, B with B_n = 0, and a canonical state."""
    inertia = 1.0 + 2.0 * rng.random(n)
    b = np.concatenate([0.5 + rng.random(n - 1), [0.0]])
    col = 0.6 * rng.normal(size=n - 1)
    gamma = rng.normal(size=n)
    return inertia, b, col, gamma / np.linalg.norm(gamma)


def clebsch_draw(rng, n):
    """Criterion-4 potential (every B_i > B_n) with a random canonical state."""
    inertia = 1.0 + 2.0 * rng.random(n)
    b = np.sort(2.0 + 3.0 * rng.random(n))[::-1]
    b[-1] -= 1.0
    col = 0.6 * rng.normal(size=n - 1)
    gamma = rng.normal(size=n)
    return inertia, b, col, gamma / np.linalg.norm(gamma)


def kharlamova_spec(lib, inertia_d, b):
    return lib.cases.CaseSpec(
        lib.cases.CaseKind.KHARLAMOVA_ND, b.size,
        lib.model.MassTensor(diag=inertia_d), lib.model.LinearPotential(b),
    )


def clebsch_spec(lib, inertia_d, b):
    return lib.cases.CaseSpec(
        lib.cases.CaseKind.CLEBSCH_TISSERAND_ND, b.size,
        lib.model.MassTensor(diag=inertia_d), lib.model.QuadraticPotential(b),
    )


def body_state(lib, col, gamma):
    n = gamma.size
    mat = np.zeros((n, n))
    mat[: n - 1, n - 1] = col
    mat[n - 1, : n - 1] = -col
    return lib.model.BodyState(lib.algebra.SkewMatrix(mat), gamma)


def reference_period(inertia, b, col, gamma):
    """Kharlamova period without ``suslov.kharlamova``: ``(T, nodes)``.

    ``P(w_1) = Gamma_n^2 = 1 - sum_{i<n} Gamma_i(w_1)^2`` is evaluated from
    the orbit in the original variables, its roots are bracketed on a grid
    and refined with ``brentq``, and ``T = 2 * int dw / sqrt(P)`` uses the
    midpoint rule in ``theta`` after ``w = mid + half * cos(theta)``.
    ``nodes`` is the first rule size that agrees with twice as many nodes to
    1e-10, which grows as other roots of ``P`` approach the orbit interval.
    Returns ``None`` when the rule does not settle to 1e-12.
    """
    from scipy.optimize import brentq

    n = gamma.size
    c = (inertia[: n - 1] + inertia[n - 1]) / b[: n - 1]
    w = np.empty(n - 1)
    w[0] = c[0] * col[0]
    w[1:] = c[1:] * col[1:] - w[0]
    g1_0 = -c[0] * gamma[0]
    gi_0 = -c[1:] * gamma[1 : n - 1] - g1_0

    def p(w1):
        w1 = np.asarray(w1, dtype=float)
        g1 = g1_0 + 0.5 * (w1 * w1 - w[0] ** 2)
        gi = gi_0 + np.multiply.outer(w1 - w[0], w[1:])
        head = np.concatenate(
            [(-g1 / c[0])[..., None], -(gi + g1[..., None]) / c[1:]], axis=-1
        )
        return 1.0 - np.sum(head * head, axis=-1)

    w0 = w[0]
    if p(w0) < 1e-6:
        return None
    span = 20.0 * (1.0 + abs(w0))
    grid = np.linspace(0.0, span, 40001)[1:]
    ends = []
    for sign in (-1.0, 1.0):
        pts = w0 + sign * grid
        neg = np.nonzero(p(pts) < 0.0)[0]
        if neg.size == 0:
            return None
        k = neg[0]
        inner = w0 + sign * (grid[k - 1] if k else 0.0)
        ends.append(brentq(lambda x: float(p(x)), inner, pts[k], xtol=1e-15))
    lo, hi = ends
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def midpoint(m):
        theta = (np.arange(m) + 0.5) * np.pi / m
        vals = p(mid + half * np.cos(theta))
        if np.any(vals <= 0.0):
            return math.nan
        return 2.0 * (np.pi / m) * float(np.sum(half * np.sin(theta) / np.sqrt(vals)))

    m, prev, nodes = 25, midpoint(25), None
    while m < 25600:
        m *= 2
        cur = midpoint(m)
        gap = abs(cur - prev)
        if nodes is None and gap <= 1e-10 * abs(cur):
            nodes = m // 2
        if gap <= 1e-12 * abs(cur):
            return cur, nodes
        prev = cur
    return None


def _period_pipeline(lib, state, inertia, b):
    kh = lib.kharlamova
    coords = kh.to_kharlamova(state, inertia, b)
    poly = kh.trajectory_polynomial(coords, inertia, b)
    interval = kh.orbit_interval(poly, coords.omega[0])
    return kh.period(poly, interval)


def kharlamova_inputs(lib, rng, dims):
    """One well-conditioned instance per entry of ``dims``, as
    (spec, state, reference period) tuples.

    Draws are redrawn until the reference rule settles with
    ``REFERENCE_NODES`` nodes.  Orbits passing near other roots of ``P``
    (close to a separatrix) make ``kharlamova.period`` double its
    Gauss-Legendre rule up to 1024-2048 nodes, costing 0.1-5 s instead of
    about 6 ms; with them, the cost of a pass would depend on the seed.
    About 2% of criterion-3 draws are redrawn.
    """
    out = []
    for n in dims:
        while True:
            inertia_d, b, col, gamma = kharlamova_draw(rng, n)
            ref = reference_period(inertia_d, b, col, gamma)
            if ref is not None and ref[1] <= REFERENCE_NODES:
                t_ref = ref[0]
                break
        out.append((kharlamova_spec(lib, inertia_d, b), body_state(lib, col, gamma), t_ref))
    return out


# ------------------------------------------------------------------ ensemble

ENSEMBLE_INTEGRATOR = dict(method="rk45", rel_tol=1e-10, abs_tol=1e-12)


def ensemble_item(lib, idx, spec, state, t_ref) -> Item:
    inertia, b = spec.inertia, spec.potential.b
    cfg = lib.integrate.IntegratorConfig(**ENSEMBLE_INTEGRATOR)
    n = spec.n

    def observable(s):
        return s.omega.mat[0, n - 1]

    def run():
        t_quad = _period_pipeline(lib, state, inertia, b)
        field_fn, _ = lib.cases.build_field(spec)
        traj = lib.integrate.integrate(
            field_fn, state, (0.0, 5.4 * t_quad), cfg, output_dt=t_quad / 600.0
        )
        return t_quad, lib.integrate.detect_period(traj, observable)

    def check(result):
        t_quad, t_meas = result
        if t_meas is None or not math.isfinite(t_quad):
            return Check(False, result, period_rel_err=math.inf, note="no period")
        rel = abs(t_meas - t_quad) / t_quad
        rel_ref = abs(t_quad - t_ref) / t_ref
        return Check(
            rel <= ENSEMBLE_PERIOD_BOUND and rel_ref <= REFERENCE_PERIOD_BOUND,
            result,
            period_rel_err=max(rel, rel_ref),
        )

    return Item(f"kh{idx:02d}_n{n}", run, check, warm=run if idx == 0 else None)


# --------------------------------------------------------------------- sweep


def sweep_period_item(lib, idx, spec, state, t_ref) -> Item:
    inertia, b = spec.inertia, spec.potential.b

    def run():
        return _period_pipeline(lib, state, inertia, b)

    def check(t_quad):
        rel = abs(t_quad - t_ref) / t_ref if math.isfinite(t_quad) else math.inf
        return Check(rel <= REFERENCE_PERIOD_BOUND, t_quad, period_rel_err=rel)

    return Item(f"T{idx:02d}_n{spec.n}", run, check, warm=run if idx == 0 else None)


def clebsch_inputs(lib, rng, dims):
    out = []
    for n in dims:
        while True:
            inertia_d, b, col, gamma = clebsch_draw(rng, n)
            pair = inertia_d[: n - 1] + inertia_d[n - 1]
            gap = b[: n - 1] - b[n - 1]
            c = gap * gamma[: n - 1] ** 2 + pair * col**2
            s = float(np.sum(c / gap))
            if abs(s - 1.0) > 1e-3 and np.all(c > 1e-6):
                break
        expected = "two_disjoint_tori" if s < 1.0 else "branched_covering"
        out.append((clebsch_spec(lib, inertia_d, b), body_state(lib, col, gamma),
                    expected, np.sqrt(gap / pair)))
    return out


def sweep_torus_item(lib, idx, spec, state, expected, freq_ref) -> Item:
    inertia, b = spec.inertia, spec.potential.b

    def run():
        cl = lib.clebsch
        c = cl.integrals_f(state, inertia, b)
        return cl.torus_classify(c, b).value, cl.frequencies(inertia, b)

    def check(result):
        label, freq = result
        err = float(np.max(np.abs(freq - freq_ref)))
        return Check(
            label == expected and err <= FREQ_BOUND,
            (label, tuple(freq)),
            freq_abs_err=err,
            note="" if label == expected else f"{label} != {expected}",
        )

    return Item(f"C{idx:02d}_n{spec.n}", run, check, warm=run if idx == 0 else None)


# ------------------------------------------------------------------ builders


def _dims(seed_dims, per_dim):
    return [n for n in seed_dims for _ in range(per_dim)]


def build_items(workload, seed, lib, root: Path, out_dir: Path):
    """The fixed items of one pass over ``workload`` for ``seed``."""
    rng = np.random.default_rng(seed)
    if workload not in SCENARIOS:
        raise ValueError(f"unknown workload {workload!r}")
    items = [scenario_item(lib, root, name, out_dir) for name in SCENARIOS[workload]]
    if workload == "reduced":
        ensemble = kharlamova_inputs(lib, rng, ENSEMBLE_DIMS)
        periods = kharlamova_inputs(lib, rng, _dims(SWEEP_DIMS, SWEEP_PER_DIM))
        tori = clebsch_inputs(lib, rng, _dims(SWEEP_DIMS, SWEEP_PER_DIM))
        items += [ensemble_item(lib, i, *args) for i, args in enumerate(ensemble)]
        items += [sweep_period_item(lib, i, *args) for i, args in enumerate(periods)]
        items += [sweep_torus_item(lib, i, *args) for i, args in enumerate(tori)]
    return items


def setup_inputs(workload, seed, lib, root: Path):
    """What a user builds before the first call: configs or case specs and
    their fields.  Used by the set-up probe, without reference screening."""
    rng = np.random.default_rng(seed)
    specs = [
        lib.cli.load_config(str(root / "scenarios" / f"{name}.cfg")).case_spec
        for name in SCENARIOS[workload]
    ]
    if workload == "reduced":
        dims = _dims(SWEEP_DIMS, SWEEP_PER_DIM)
        specs += [kharlamova_spec(lib, *kharlamova_draw(rng, n)[:2])
                  for n in (*ENSEMBLE_DIMS, *dims)]
        specs += [clebsch_spec(lib, *clebsch_draw(rng, n)[:2]) for n in dims]
    for spec in specs:
        lib.cases.build_field(spec)
    return len(specs)
