"""Run the benchmark over several seeds and summarize each metric.

Usage::

    python3 benchmarks/spread.py --workload vector3d --seeds 1-10 [--seconds 52] [--trace 0]

For each metric it prints the median over the runs and the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median.  Each run's output is kept in
``.bench_out/spread/<workload>_<seed>_trace<t>.txt``.  Exits 1 if any run
fails or reports ``correct: false``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
LOGS = HERE.parent / ".bench_out" / "spread"


def seeds(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True)
    parser.add_argument("--seconds", default="52")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args(argv)

    values = {}
    ok = True
    LOGS.mkdir(parents=True, exist_ok=True)
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=False,
        )
        (LOGS / f"{args.workload}_{seed}_trace{args.trace}.txt").write_text(
            proc.stdout + proc.stderr
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode} {proc.stderr.strip()[-300:]}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v:.6g}" for k, v in row.items() if not k.startswith("cli.run_s")),
              flush=True)
        for key, value in row.items():
            values.setdefault(key, []).append(value)

    for key, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / med:.4f}"
        else:
            spread = "n/a"
        print(f"{key}: median {med:.6g} spread {spread} (n={len(vals)})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
