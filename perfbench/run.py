"""Benchmark of record: paper-scale RAM64 grading plus a service job mix.

Run from the repository root::

    python3 perfbench/run.py --workload fig1_ram64_concurrent --seed 1 \\
        --seconds 15 --trace 0

Workloads: fig1_ram64_concurrent, fig2_ram64_concurrent_mixed,
fig1_ram64_sharded2, service_small_jobs (see README.md for why each
exists and which layers it loads).  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones from a traced run.

The first run in a checkout grades every fault pool with the serial
reference (several minutes on two CPUs) and caches it under
``.perfbench_work/``; later runs only look it up.  Each measurement then
runs in a fresh interpreter, so no memo, pool or peak-RSS figure
carries over from another run.  The last line of standard output is the
JSON result; the exit status is 1 when any detection set differs from
the serial reference.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    built = subprocess.run(
        [sys.executable, str(HERE / "reference.py")], cwd=ROOT
    )
    if built.returncode != 0:
        return built.returncode
    measured = subprocess.run(
        [
            sys.executable, str(HERE / "measure.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        cwd=ROOT,
    )
    return measured.returncode


if __name__ == "__main__":
    sys.exit(main())
