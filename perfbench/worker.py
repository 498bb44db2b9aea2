"""One benchmark run in a fresh interpreter.

Started by run.py as `python -m perfbench.worker ...`.  Prints one JSON
object and exits 0, or 1 when an output of ds4 failed its check.

Everything runs inside refjob.Probes, so the reference job's probes
sample the CPU's speed every 20 ms, during ds4's work as well, and times
are read on a clock that stops while a probe runs.  A batch of n verified
trials scores n over the refs its time was worth (Probes.refs); a run
reports the median score of its batches as `trials_per_ref`.

`setup_s` is ds4's cold set-up in this fresh interpreter: `import ds4` and
the submodules the workloads use (numpy is already imported), plus the
workload's first call.  It lasts only a few probes, so it is scaled by
refjob.NOMINAL_S over the mean of whole passes run just before and just
after it: it reads as seconds on a machine where one pass of the
reference job takes NOMINAL_S.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time

from perfbench import OUT, SRC, refjob
from perfbench.tracing import COUNTED, SPANNED, Tracer, installed

#: End-to-end metrics, printed with --trace 0: name -> unit.
END_TO_END = {"trials_per_ref": "trials/ref", "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics, printed with --trace 1: name -> unit.  Counts and
#: self times are per verified trial of the traced batches.
PER_LAYER = {f"{name}_calls": "calls/trial" for name in COUNTED}
for _name in SPANNED:
    PER_LAYER[f"{_name}_calls"] = "calls/trial"
    PER_LAYER[f"{_name}_us"] = "us/trial"
PER_LAYER.update({
    "cli.bytes_per_record": "B/record",
    "batch.peak_alloc_kb": "KB",
    "setup.ds4_import_s": "s",
    "setup.first_call_s": "s",
    "ref.pass_ms": "ms",
    "untraced.trials_per_s": "trials/s",
    "untraced.trials_per_ref": "trials/ref",
    "traced.trials_per_ref": "trials/ref",
    "tracing.slowdown": "ratio",
})


class Loop:
    """Totals and per-batch scores of one phase of the measured loop."""

    def __init__(self):
        self.scores: list[float] = []
        self.trials = self.attempted = self.failed = self.out_bytes = 0
        self.busy = 0.0

    def count(self, tally) -> None:
        self.attempted += tally.attempted
        self.failed += tally.failed

    def add(self, tally, seconds: float, refs: float) -> None:
        self.count(tally)
        self.scores.append(tally.trials / refs)
        self.trials += tally.trials
        self.out_bytes += tally.out_bytes
        self.busy += seconds

    def trials_per_ref(self) -> float:
        return statistics.median(self.scores)


def measure(wl, seconds: float, probes, loop: Loop, tracer=None) -> None:
    """Run whole batches for `seconds`, each scored in refs."""
    deadline = time.perf_counter() + seconds
    while True:
        inputs = wl.inputs()
        with tracer.batch_span(len(loop.scores)) if tracer else contextlib.nullcontext():
            start = probes.clock()
            outputs = wl.run(inputs)
            end = probes.clock()
        loop.add(wl.check(inputs, outputs), end - start, probes.refs(start, end))
        if time.perf_counter() >= deadline:
            return


def peak_alloc_kb(wl, loop: Loop) -> float:
    """Python-heap growth over one batch, numpy buffers included."""
    import tracemalloc

    inputs = wl.inputs()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        outputs = wl.run(inputs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    loop.count(wl.check(inputs, outputs))
    return peak / 1024.0


def layer_metrics(tracer, loop: Loop) -> dict[str, float]:
    trials = max(1, loop.trials)
    out = {f"{name}_calls": calls / trials for name, calls in tracer.call_counts().items()}
    for name, (calls, busy) in tracer.layer_totals().items():
        out[f"{name}_calls"] = calls / trials
        out[f"{name}_us"] = busy * 1e6 / trials
    out["cli.bytes_per_record"] = loop.out_bytes / trials
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    with refjob.Probes() as probes:
        return run(args, probes)


def run(args, probes: refjob.Probes) -> int:
    pass_before = probes.timed_pass()
    t_import = probes.clock()
    import ds4
    from ds4 import cli, group, orbits, suites  # noqa: F401  (what the workloads use)
    t_ds4 = probes.clock()
    from perfbench import workloads

    if not ds4.__file__.startswith(str(SRC)):
        print(f"perfbench: ds4 imported from {ds4.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    metrics: dict[str, float] = {}
    untraced, traced = Loop(), Loop()
    correct = True
    try:
        t_call = probes.clock()
        wl.first_call()
        t_setup = probes.clock()
        pass_after = probes.timed_pass()
        if args.trace:
            metrics["setup.ds4_import_s"] = t_ds4 - t_import
            metrics["setup.first_call_s"] = t_setup - t_call
            measure(wl, args.seconds / 3.0, probes, untraced)
            tracer = Tracer(probes.clock)
            with installed(tracer):
                measure(wl, args.seconds * 2.0 / 3.0, probes, traced, tracer)
            metrics.update(layer_metrics(tracer, traced))
            metrics["ref.pass_ms"] = probes.pass_s() * 1e3  # before tracemalloc slows probes
            metrics["batch.peak_alloc_kb"] = peak_alloc_kb(wl, traced)
            metrics["untraced.trials_per_s"] = untraced.trials / untraced.busy
            metrics["untraced.trials_per_ref"] = untraced.trials_per_ref()
            metrics["traced.trials_per_ref"] = traced.trials_per_ref()
            metrics["tracing.slowdown"] = untraced.trials_per_ref() / traced.trials_per_ref()
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            measure(wl, args.seconds, probes, untraced)
            metrics["trials_per_ref"] = untraced.trials_per_ref()
            setup = (t_ds4 - t_import) + (t_setup - t_call)
            metrics["setup_s"] = setup * refjob.NOMINAL_S / (0.5 * (pass_before + pass_after))
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except workloads.CheckError as err:
        print(f"perfbench: {args.workload}: wrong output: {err}", file=sys.stderr)
        correct = False

    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
