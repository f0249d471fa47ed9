"""Benchmark of the suslov library and CLI.

Usage::

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout (``src/suslov`` and ``scenarios/`` beside
``benchmarks/``).  One process, one caller, no threads: a closed loop that
runs passes over the workload's fixed items, in a seeded order, for
``--seconds`` seconds and at least three whole passes.  Every item's output
is checked after its timed call.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable record of the run (environment, per-item times and counts,
check figures).

``--trace 0`` reports the end-to-end metrics with no wrappers installed.
``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics; spans are written to ``.bench_out/trace_<workload>.npz``.
See ``benchmarks/README.md`` for the workloads and the layer mapping.
"""

import os

# one BLAS/OpenMP thread: the benchmark measures a single caller
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# three samples per item, so a median rejects one disturbed sample
MIN_PASSES = 3
SETUP_SAMPLES = 5

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

ALL_SCENARIOS = (
    "kharlamova_verify_n4", "lagrange_verify_n4", "kharlamova_period_n3",
    "clebsch_tori_n3", "dgj_3d", "gyroscopic_3d", "suslov_asymptotic_3d",
)
LAYERS = ("cli", "cases", "model", "integrate", "kharlamova", "clebsch")

PER_LAYER = (
    ("integrate.s", "s", "lower"),
    ("integrate.self_s", "s", "lower"),
    ("integrate.self_us_per_rhs", "us", "lower"),
    ("cases.rhs_us", "us", "lower"),
    ("cases.wrap_us", "us", "lower"),
    ("model.field_us.reduced", "us", "lower"),
    ("model.field_us.vector3d", "us", "lower"),
    ("cases.rhs_calls", "count", "lower"),
    ("integrate.output_points", "count", "lower"),
    ("integrate.csv_s", "s", "lower"),
    ("integrate.csv_bytes", "bytes", "lower"),
    ("integrate.drift_s", "s", "lower"),
    ("integrate.period_s", "s", "lower"),
    ("integrate.reparametrize_s", "s", "lower"),
    ("model.divergence_s", "s", "lower"),
    ("model.packed_rhs_calls", "count", "lower"),
    ("kharlamova.period_us", "us", "lower"),
    ("kharlamova.period_calls", "count", "lower"),
    ("kharlamova.quadrature_s", "s", "lower"),
    ("clebsch.rotation_numbers_s", "s", "lower"),
    ("clebsch.classify_s", "s", "lower"),
    ("cli.load_config_s", "s", "lower"),
    ("cases.build_field_s", "s", "lower"),
    *((f"cli.run_s.{name}", "s", "lower") for name in ALL_SCENARIOS),
    *((f"{layer}.layer_self_s", "s", "lower") for layer in LAYERS),
    ("bench.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("check.max_drift", "1", "lower"),
    ("check.period_rel_err_max", "1", "lower"),
    ("check.freq_abs_err_max", "1", "lower"),
    ("check.failed_ratio", "1", "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}
UNITS.update(dict(END_TO_END))

# exact counts checked for repetition, per item and traced pass
COUNT_SPANS = {
    "cases.rhs_calls": "cases.rhs",
    "model.packed_rhs_calls": "model.packed_rhs",
    "kharlamova.period_calls": "kharlamova.period",
}
COUNTERS = ("integrate.output_points", "integrate.csv_bytes")


def log(text=""):
    print(text, flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(args):
    import numpy
    import scipy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or sha
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": os.environ["OMP_NUM_THREADS"],
    }


def setup_sample(workload, seed):
    """Seconds of one fresh set-up process.  This process has already
    imported the same modules, so bytecode caches are filled."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.strip().splitlines()[-1])


class Checks:
    """Outcome of every item call: pass/fail, repeatability, worst figures."""

    def __init__(self, items):
        self.items = items
        self.attempted = 0
        self.failed = 0
        self.first = {}
        self.notes = []
        self.max_drift = 0.0
        self.period_rel_err_max = 0.0
        self.freq_abs_err_max = 0.0

    def record(self, k, check):
        self.attempted += 1
        ok = check.ok
        if k not in self.first:
            self.first[k] = check.digest
        elif check.digest != self.first[k]:
            ok = False
            check.note = (check.note + " output differs from the first pass").strip()
        if not ok:
            self.failed += 1
            self.notes.append(f"{self.items[k].id}: {check.note or 'check failed'}")
        self.max_drift = max(self.max_drift, check.drift)
        self.period_rel_err_max = max(self.period_rel_err_max, check.period_rel_err)
        self.freq_abs_err_max = max(self.freq_abs_err_max, check.freq_abs_err)

    def flag(self, text):
        self.notes.append(text)
        self.failed += 1

    @property
    def failed_ratio(self):
        return self.failed / max(1, self.attempted)


def run_pass(items, order, times, checks, tracer=None, deadline=None):
    """Run the items in ``order``; stop before an item once ``deadline``
    has passed."""
    from workloads import Check

    for k in order:
        if deadline is not None and perf_counter() >= deadline:
            return
        item = items[k]
        t0 = perf_counter()
        try:
            result = item.run() if tracer is None else tracer.run_item(k, item.run)
        except Exception as exc:  # a failing call counts as a failed item
            times[k].append(perf_counter() - t0)
            checks.record(k, Check(False, None, note=f"raised {exc!r}"))
            continue
        times[k].append(perf_counter() - t0)
        checks.record(k, item.check(result))


def warm_up(items):
    for item in items:
        if item.warm is not None:
            item.warm()


def wall(times):
    """One pass: the sum over items of each item's median time."""
    return sum(statistics.median(t) for t in times if t)


def fmt(x):
    return repr(float(x)) if isinstance(x, float) else str(x)


def untraced_run(args, items, rng, checks):
    """Item times, and SETUP_SAMPLES set-up times.  A set-up sample is taken
    before each pass until there are enough, so that the samples fall in
    different stretches of the run rather than in one; the deadline moves
    by the time they take."""
    times = [[] for _ in items]
    setup = []
    deadline = perf_counter() + args.seconds
    passes = 0
    while passes < MIN_PASSES or perf_counter() < deadline:
        if len(setup) < SETUP_SAMPLES:
            t0 = perf_counter()
            setup.append(setup_sample(args.workload, args.seed))
            deadline += perf_counter() - t0
        # after the whole passes, the run ends at the first item past the
        # deadline, so a long pass does not overrun the run by a whole pass
        run_pass(items, rng.permutation(len(items)), times, checks,
                 deadline=deadline if passes >= MIN_PASSES else None)
        passes += 1
    log(f"# passes = {passes} (the last may be partial)")
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(args.workload, args.seed))
    return times, setup


def traced_run(args, items, rng, checks, lib):
    from tracer import Tracer

    tracer = Tracer()
    traced = [[] for _ in items]
    untraced = [[] for _ in items]
    slices = []
    t_start = perf_counter()
    plan = 0
    # traced, untraced, traced, then alternate: at least two traced passes
    # (for the count repetition check) and one untraced (for the overhead)
    while plan < 3 or perf_counter() - t_start < args.seconds:
        order = rng.permutation(len(items))
        if plan % 2 == 0:
            tracer.pass_index = len(slices)
            first = len(tracer.end)
            tracer.install(lib)
            try:
                run_pass(items, order, traced, checks, tracer)
            finally:
                tracer.uninstall()
            slices.append((first, len(tracer.end)))
        else:
            run_pass(items, order, untraced, checks)
        plan += 1
    log(f"# passes = {plan} (traced {len(slices)})")
    return tracer, slices, wall(traced), wall(untraced)


def per_item_counts(tracer, slices, n_items):
    """counts[pass][item][counter] for the exact counters."""
    import numpy as np

    a = tracer.arrays()
    codes = {key: tracer._index.get(span) for key, span in COUNT_SPANS.items()}
    out = []
    for p, (lo, hi) in enumerate(slices):
        names, items = a["name"][lo:hi], a["item"][lo:hi]
        per = []
        for k in range(n_items):
            mine = names[items == k]
            row = {key: int(np.sum(mine == code)) if code is not None else 0
                   for key, code in codes.items()}
            for counter in COUNTERS:
                row[counter] = tracer.counts.get((p, k, counter), 0)
            per.append(row)
        out.append(per)
    return out


def layer_metrics(tracer, slices, items, counts, checks, wall_traced, wall_untraced):
    """Per-layer metrics, per traced pass; ``counts`` are the first traced
    pass's exact counts per item."""
    import numpy as np

    a = tracer.arrays()
    passes = len(slices)
    index = tracer._index

    def mask(*names):
        codes = [index[n] for n in names if n in index]
        return np.isin(a["name"], codes)

    def total(*names):
        return float(np.sum(a["dur"][mask(*names)])) / passes

    def mean_us(name):
        m = mask(name)
        return 1e6 * float(np.mean(a["dur"][m])) if np.any(m) else 0.0

    def prefix(p):
        return [n for n in tracer.names if n.startswith(p)]

    rhs = mask("cases.rhs")
    integ = mask("integrate.integrate")
    integ_ids = np.nonzero(integ)[0]
    rhs_in_integ = int(np.sum(rhs & np.isin(a["parent"], integ_ids)))
    integ_self = float(np.sum(a["self"][integ]))
    n_rhs = int(np.sum(rhs))

    m = {
        "integrate.s": total("integrate.integrate"),
        "integrate.self_s": integ_self / passes,
        "integrate.self_us_per_rhs": 1e6 * integ_self / rhs_in_integ if rhs_in_integ else 0.0,
        "cases.rhs_us": mean_us("cases.rhs"),
        "cases.wrap_us": 1e6 * float(np.sum(a["self"][rhs])) / n_rhs if n_rhs else 0.0,
        "model.field_us.reduced": mean_us("model.field.reduced"),
        "model.field_us.vector3d": mean_us("model.field.vector3d"),
        "integrate.csv_s": total("integrate.write_csv"),
        "integrate.drift_s": total("integrate.drift_report"),
        "integrate.period_s": total("integrate.detect_period"),
        "integrate.reparametrize_s": total("integrate.reparametrize"),
        "model.divergence_s": total("model.divergence_fd"),
        "kharlamova.period_us": mean_us("kharlamova.period"),
        "kharlamova.quadrature_s": total(*prefix("kharlamova.")),
        "clebsch.rotation_numbers_s": total("clebsch.rotation_numbers"),
        "clebsch.classify_s": total(
            "clebsch.integrals_f", "clebsch.torus_classify", "clebsch.frequencies"
        ),
        "cli.load_config_s": total("cli.load_config"),
        "cases.build_field_s": total("cases.build_field"),
    }
    for key in (*COUNT_SPANS, *COUNTERS):
        m[key] = sum(row[key] for row in counts)
    run_code = index.get("cli.run")
    for name in ALL_SCENARIOS:
        ks = [k for k, item in enumerate(items) if item.id == name]
        sel = (a["name"] == run_code) & np.isin(a["item"], ks)
        m[f"cli.run_s.{name}"] = float(np.mean(a["dur"][sel])) if np.any(sel) else 0.0
    for layer in LAYERS:
        m[f"{layer}.layer_self_s"] = float(
            np.sum(a["self"][mask(*prefix(layer + "."))])
        ) / passes
    m["bench.self_s"] = float(np.sum(a["self"][mask("bench.item")])) / passes
    m["trace.overhead_ratio"] = wall_traced / wall_untraced
    m["check.max_drift"] = checks.max_drift
    m["check.period_rel_err_max"] = checks.period_rel_err_max
    m["check.freq_abs_err_max"] = checks.freq_abs_err_max
    m["check.failed_ratio"] = checks.failed_ratio
    return {name: m[name] for name, _, _ in PER_LAYER}


def report_counts(tracer, slices, items, checks):
    """Per-item exact counts; a count that changes between traced passes
    fails the item.  Prints the RK45 cross-check against the ROADMAP and
    returns the first traced pass's counts."""
    import numpy as np
    from workloads import BASELINE_STEPS

    counts = per_item_counts(tracer, slices, len(items))
    for k, item in enumerate(items):
        rows = [per[k] for per in counts]
        if any(row != rows[0] for row in rows[1:]):
            checks.flag(f"{item.id}: exact counts differ between traced passes")
        log(f"# counts {item.id}: " + " ".join(f"{key}={v}" for key, v in rows[0].items()))

    # main integration of each scenario item: its first integrate span
    a = tracer.arrays()
    integ_code = tracer._index.get("integrate.integrate")
    rhs_code = tracer._index.get("cases.rhs")
    lo, hi = slices[0]
    for k, item in enumerate(items):
        if item.id not in BASELINE_STEPS:
            continue
        ids = np.nonzero((a["name"][lo:hi] == integ_code) & (a["item"][lo:hi] == k))[0]
        if ids.size == 0:
            continue
        main = lo + ids[0]
        calls = int(np.sum((a["name"] == rhs_code) & (a["parent"] == main)))
        expected = 7 * BASELINE_STEPS[item.id]
        log(f"# rk45 {item.id}: rhs_calls = {calls}, steps = {calls / 7:g}, "
            f"baseline 7 x {BASELINE_STEPS[item.id]} = {expected}, "
            f"{'matches' if calls == expected else 'differs'}")
    log("# accepted/rejected steps are not visible from outside the library "
        "until Trajectory carries integrator stats (ROADMAP item 1)")
    return counts[0]


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "suslov" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print("benchmark: src/suslov and scenarios/ are missing from this checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import numpy as np
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    lib = workloads.library(SRC)
    env = environment(args)
    for key, value in env.items():
        log(f"# env {key} = {value}")

    items = workloads.build_items(args.workload, args.seed, lib, ROOT, OUT / args.workload)
    warm_up(items)
    rng = np.random.default_rng(args.seed)
    checks = Checks(items)

    if args.trace:
        tracer, slices, wall_traced, wall_untraced = traced_run(args, items, rng, checks, lib)
        counts = report_counts(tracer, slices, items, checks)
        metrics = layer_metrics(
            tracer, slices, items, counts, checks, wall_traced, wall_untraced
        )
        tracer.save(str(OUT / f"trace_{args.workload}.npz"), [it.id for it in items])
        log(f"# wall_s traced = {wall_traced!r} untraced = {wall_untraced!r}")
    else:
        # set-up is timed in fresh processes; this one only waits for them
        times, setup_samples = untraced_run(args, items, rng, checks)
        log(f"# setup_s samples = {' '.join(fmt(s) for s in setup_samples)}")
        for item, t in zip(items, times):
            log(f"# item {item.id}: median {statistics.median(t)!r} s of "
                + " ".join(fmt(x) for x in t))
        metrics = {
            "wall_s": wall(times),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    log(f"# check attempted = {checks.attempted} failed = {checks.failed} "
        f"failed_ratio = {checks.failed_ratio!r}")
    log(f"# check.max_drift = {checks.max_drift!r} "
        f"check.period_rel_err_max = {checks.period_rel_err_max!r} "
        f"check.freq_abs_err_max = {checks.freq_abs_err_max!r}")
    for note in checks.notes:
        log(f"# FAILED {note}")
    for name, value in metrics.items():
        log(f"# metric {name} = {value!r} {UNITS[name]}")

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
