"""CPU time of ``integrate`` and ``suslov simulate`` against another checkout,
both packages in one process.

Usage::

    python3 tools/ab_integrate.py PARENT_CHECKOUT [--rounds N]

``PARENT_CHECKOUT`` is the root of another suslov checkout (``src/suslov``
and ``scenarios/`` beside each other), typically the parent commit exported
with ``git archive``.  Its ``src/suslov`` is imported as the package
``suslov_parent`` and this checkout's as ``suslov_change``, so both run on
the same interpreter, the same numpy and the same host phase.  Neither
import writes compiled files into its checkout, so a later benchmark run
of either compiles every module as a fresh copy does.  For each of
this checkout's ``scenarios/*.cfg``, each round times, on both sides:

- ``integrate`` alone, as ``suslov simulate`` calls it, once under each
  of ``dop853`` and ``rk45`` (the field is built outside the timed call);
- ``detect_period(traj, lambda s: s.omega.mat[0, s.n - 1])``, with the
  per-state observable of the benchmark's ensemble items, once under each
  method on a fresh trajectory of the scenario's own side, built by an
  untimed ``integrate`` call as above: ``rk45``, as those items integrate,
  and ``dop853``, as the CLI's period analyses read the scenarios' runs.
  Each trajectory holds its steps, so the knots are its step starts, not
  the scenario's output grid.  A call takes a few ms, so one reading
  moves with any hiccup of the host; each round keeps the best of
  ``DETECT_READINGS`` calls on the one trajectory;
- ``suslov simulate`` on the scenario, writing into a temporary directory.

The two sides run one after the other, and the side that goes first
alternates from scenario to scenario and from round to round.  One
untimed warm-up round comes first.  Times are CPU time of this process
(``time.process_time``), so other processes on the host weigh less than
in wall time.  Each row prints both sides' medians, the median of the
per-round ratios change / parent and the rounds the change was faster
in; the ``total`` rows do the same for the sum over scenarios of each
round.  A ratio below 1 means the change is faster.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib.util
import io
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
METHODS = ("dop853", "rk45")
DETECT = tuple(f"detect_period {method}" for method in METHODS)
LABELS = {**{kind: kind for kind in DETECT}, "simulate": "suslov simulate"}
DETECT_READINGS = 3  # detect_period calls per round; the fastest counts


def load_package(name: str, root: Path):
    """Import ``root/src/suslov`` as the package ``name`` and return its
    ``cli``, ``cases`` and ``integrate`` modules; the package's modules
    import each other relatively, so they load under that name too."""
    pkg_dir = root / "src" / "suslov"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return types.SimpleNamespace(**{
        sub: importlib.import_module(f"{name}.{sub}")
        for sub in ("cli", "cases", "integrate")
    })


def integrate_call(lib, path: Path, method: str):
    """A no-argument call of ``integrate`` as ``suslov simulate`` makes it
    for the scenario at ``path``, under ``method``; it returns the
    trajectory.  It passes no model context (inertia, potential,
    constraints), which older checkouts took as optional arguments to
    record per-sample diagnostics and this one does not take: ``suslov
    simulate`` forms the diagnostics in ``write_csv``, so their cost counts
    in the ``suslov simulate`` rows only."""
    config = lib.cli.load_config(path)
    cfg = dataclasses.replace(config.integrator, method=method)
    spec = config.case_spec
    field, _ = lib.cases.build_field(spec)

    def call():
        return lib.integrate.integrate(
            field, config.initial_state, (0.0, config.t_end), cfg,
            output_dt=config.output_dt,
        )

    return call


def simulate_call(lib, path: Path, out_dir: str):
    """A no-argument ``suslov simulate`` of the scenario at ``path``."""
    argv = ["simulate", str(path), "--output-dir", out_dir]

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            status = lib.cli.main(argv)
        if status != 0:
            raise RuntimeError(f"suslov simulate {path.name} exited {status}")

    return call


def cpu_time(call) -> float:
    start = time.process_time()
    call()
    return time.process_time() - start


def timed(call):
    """A no-argument function returning the CPU time of ``call()``."""
    return lambda: cpu_time(call)


def timed_detect_period(lib, path: Path, method: str):
    """A no-argument function that integrates the scenario at ``path``
    under ``method``, untimed, and returns the least CPU time of
    ``DETECT_READINGS`` calls of ``detect_period`` on the fresh trajectory
    (each call builds its own knots, so none reuses another's work)."""
    build = integrate_call(lib, path, method)

    def observable(s):
        return s.omega.mat[0, s.n - 1]

    def run():
        traj = build()
        return min(cpu_time(lambda: lib.integrate.detect_period(traj, observable))
                   for _ in range(DETECT_READINGS))

    return run


def row(label: str, parent: list, change: list) -> str:
    ratios = [c / p for p, c in zip(parent, change)]
    wins = sum(c < p for p, c in zip(parent, change))
    return (
        f"{label:<43} parent {1e3 * statistics.median(parent):8.1f} ms  "
        f"change {1e3 * statistics.median(change):8.1f} ms  "
        f"ratio {statistics.median(ratios):.3f}  wins {wins}/{len(ratios)}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the checkout to compare against")
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args(argv)
    parent_root = Path(args.parent).resolve()
    if not (parent_root / "src" / "suslov").is_dir():
        parser.error(f"{parent_root} holds no src/suslov")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sys.dont_write_bytecode = True  # no __pycache__ in either checkout
    libs = {
        "parent": load_package("suslov_parent", parent_root),
        "change": load_package("suslov_change", HERE),
    }
    paths = sorted((HERE / "scenarios").glob("*.cfg"))

    with tempfile.TemporaryDirectory(prefix="ab_integrate_") as tmp:
        # (kind, scenario) -> side -> a function returning its CPU time
        runs = {}
        for path in paths:
            for method in METHODS:
                runs[method, path.stem] = {
                    side: timed(integrate_call(lib, path, method))
                    for side, lib in libs.items()
                }
            for method, kind in zip(METHODS, DETECT):
                runs[kind, path.stem] = {
                    side: timed_detect_period(lib, path, method)
                    for side, lib in libs.items()
                }
            runs["simulate", path.stem] = {
                side: timed(simulate_call(lib, path,
                                          str(Path(tmp) / side / path.stem)))
                for side, lib in libs.items()
            }
        times = {key: {side: [] for side in SIDES} for key in runs}
        for rnd in range(args.rounds + 1):  # round 0 warms up, untimed
            for index, (key, pair) in enumerate(runs.items()):
                order = SIDES if (rnd + index) % 2 == 0 else SIDES[::-1]
                for side in order:
                    elapsed = pair[side]()
                    if rnd > 0:
                        times[key][side].append(elapsed)

    print(f"parent {parent_root}, change {HERE}, {args.rounds} rounds, "
          "CPU time, ratio = change / parent")
    for kind in (*METHODS, *DETECT, "simulate"):
        label = LABELS.get(kind, "integrate " + kind)
        keys = [key for key in times if key[0] == kind]
        for key in keys:
            print(row(f"{key[1]:<22} {label}", times[key]["parent"],
                      times[key]["change"]))
        total = {side: [sum(times[key][side][r] for key in keys)
                        for r in range(args.rounds)] for side in SIDES}
        print(row(f"{'total':<22} {label}", total["parent"], total["change"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
