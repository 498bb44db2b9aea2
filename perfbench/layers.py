"""Print every per-layer metric by name for each workload.

    python3 perfbench/layers.py [--seed N] [--seconds S]

Makes one traced run (run.py --trace 1) per workload, one after another,
and prints a table with a row per metric and a column per workload.
Spans of each run are left in perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: outputs failed their checks")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/layers.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    results = {w: traced_run(w, args.seed, args.seconds) for w in WORKLOADS}

    metrics = results[WORKLOADS[0]]["metrics"]
    width = max(len(m) for m in metrics)
    print(f"{'metric':<{width}}  {'unit':<11}" + "".join(f"{w:>21}" for w in WORKLOADS))
    for m, v in metrics.items():
        row = "".join(f"{results[w]['metrics'][m]['value']:>21.4f}" for w in WORKLOADS)
        print(f"{m:<{width}}  {v['unit']:<11}{row}")
    fails = "".join(f"{results[w]['failed']:>10}/{results[w]['attempted']:<10}" for w in WORKLOADS)
    print(f"{'failed/attempted':<{width}}  {'':<11}{fails}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
