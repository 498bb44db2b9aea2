"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs from the root of a checkout.  Each run measures in a fresh worker
process (perfbench/worker.py) that imports ds4 from the checkout's src/
with BLAS threads pinned to one, and prints that worker's JSON result as
the last line of standard output.  --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer ones.  Exits 2 when the checkout has no
ds4 sources, and with the worker's code otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("orbits-check", "decompose-roundtrip", "orbit-emit")
#: Seconds the worker may run beyond --seconds: set-up, checks and tracing.
GRACE_S = 120.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0.0 < args.seconds <= 600.0:
        parser.error("--seconds must be in (0, 600]")
    if not (ROOT / "src" / "ds4" / "__init__.py").is_file():
        print(f"perfbench: no ds4 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + GRACE_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker ran past {args.seconds + GRACE_S:.0f} s and was killed",
              file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
