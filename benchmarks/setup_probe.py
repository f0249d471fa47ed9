"""Set-up time of one workload, in a fresh interpreter.

Usage: ``python3 benchmarks/setup_probe.py <workload> <seed>``.  Times the
import of ``suslov`` (with the scipy module it imports lazily), then the
configs or case specs of the workload and ``build_field`` for each, and
prints the seconds on the last line.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(ROOT / "src"))
    import suslov  # noqa: F401
    from scipy.optimize import brentq  # noqa: F401  (detect_period imports it)

    sys.path.insert(0, str(HERE))
    import workloads

    lib = workloads.library(ROOT / "src")
    workloads.setup_inputs(workload, seed, lib, ROOT)
    print(f"{time.perf_counter() - T0:.9f}")


if __name__ == "__main__":
    main()
