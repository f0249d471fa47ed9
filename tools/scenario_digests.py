"""SHA-256 digests of every scenario's outputs, under each adaptive method.

Usage::

    python3 tools/scenario_digests.py [CHECKOUT]

``CHECKOUT`` is the root of a suslov checkout (``src/suslov`` and
``scenarios/`` beside each other); it defaults to the checkout holding this
file.  Each ``scenarios/*.cfg`` runs through ``suslov simulate`` once with
``integrator.method = dop853`` and once with ``rk45``, in a fresh process
that imports the checkout's own ``src``, writing into a temporary
directory.  The children run with ``-B``, so no compiled file lands in the
checkout (one would change what a later benchmark run of that checkout
compiles, and so its ``peak_rss_mb``).  Each run prints one line::

    <scenario> <method> exit=<code> trajectory.csv=<sha256> report.txt=<sha256>
    accepted=<n> rejected=<n> rhs_evals=<n>

(one line, wrapped here), so two checkouts' outputs compare with ``diff``
of the two listings.  The step counters come from the ``[integrator]``
section of ``report.txt``, so a listing tells outputs that moved in their
last bits (same counters) from a changed step sequence.  A file a run did
not write, or a counter its report does not hold, reads ``-``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

METHODS = ("dop853", "rk45")
OUTPUTS = ("trajectory.csv", "report.txt")
COUNTERS = ("accepted", "rejected", "rhs_evals")
_METHOD_LINE = re.compile(r"^integrator\.method\s*=.*$", re.MULTILINE)


def _digest(path: Path) -> str:
    if not path.is_file():
        return "-"
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _counters(report: Path) -> str:
    """The step counters of a report's ``[integrator]`` section."""
    found = {}
    if report.is_file():
        section = None
        for line in report.read_text().splitlines():
            if line.startswith("["):
                section = line.strip()
            elif section == "[integrator]" and "=" in line:
                key, _, value = line.partition("=")
                found[key.strip()] = value.strip()
    return " ".join(f"{key}={found.get(key, '-')}" for key in COUNTERS)


def _with_method(text: str, method: str) -> str:
    """The scenario text with its integrator method set to ``method``."""
    line = f"integrator.method = {method}"
    if _METHOD_LINE.search(text):
        return _METHOD_LINE.sub(line, text)
    return text.rstrip("\n") + "\n" + line + "\n"


def digest_run(root: Path, cfg: Path, method: str, work: Path) -> str:
    """Run one scenario under ``method`` and return its digest line."""
    run_dir = work / f"{cfg.stem}_{method}"
    run_dir.mkdir()
    scenario = run_dir / cfg.name
    scenario.write_text(_with_method(cfg.read_text(), method))
    out = run_dir / "out"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "suslov.cli", "simulate", str(scenario),
         "--output-dir", str(out)],
        cwd=run_dir, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, check=False,
    )
    files = " ".join(f"{name}={_digest(out / name)}" for name in OUTPUTS)
    counters = _counters(out / "report.txt")
    return f"{cfg.stem} {method} exit={proc.returncode} {files} {counters}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?",
                        default=str(Path(__file__).resolve().parent.parent))
    root = Path(parser.parse_args(argv).checkout).resolve()
    cfgs = sorted((root / "scenarios").glob("*.cfg"))
    if not cfgs or not (root / "src" / "suslov").is_dir():
        parser.error(f"{root} holds no scenarios/*.cfg and src/suslov")
    with tempfile.TemporaryDirectory(prefix="scenario_digests_") as tmp:
        for cfg in cfgs:
            for method in METHODS:
                print(digest_run(root, cfg, method, Path(tmp)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
