"""Tests of the benchmark itself: its checkers reject wrong outputs, its
tracer accounts time correctly, and every workload runs in a short smoke
mode.  Run with `python3 -m pytest perfbench`.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from perfbench import ROOT, SRC

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from ds4 import group, orbits, suites  # noqa: E402
from ds4.gamma import QMat2  # noqa: E402
from ds4.quaternion import Quaternion  # noqa: E402

from perfbench import oracle, refjob, run, tracing, worker, workloads  # noqa: E402
from perfbench.workloads import CheckError  # noqa: E402


def _bump(q: Quaternion, delta: float) -> Quaternion:
    return Quaternion(q.s + delta, q.x, q.y, q.z)


def test_orbits_report_checker_rejects_perturbed_reports():
    report = suites.run_suite("orbits", trials=2, seed=7)
    workloads.check_suite_report(report, 2, 7)
    for bad in (dataclasses.replace(report, trials=report.trials - 1),
                dataclasses.replace(report, passed=False),
                dataclasses.replace(report, max_residual=1.5),
                dataclasses.replace(report, max_residual=float("nan")),
                dataclasses.replace(report, seed=8)):
        with pytest.raises(CheckError):
            workloads.check_suite_report(bad, 2, 7)
    with pytest.raises(CheckError):
        workloads.OrbitsCheck(7).check(7, RuntimeError("run_suite raised"))
    # A failed verdict that agrees with its residual is ds4's known
    # near-degenerate massless fault, not a wrong report.
    workloads.check_suite_report(dataclasses.replace(report, max_residual=2.7, passed=False), 2, 7)


def test_adjoint_checker_rejects_perturbed_transport():
    rng = np.random.default_rng(3)
    g = group.random_member(rng, "exp")
    X = orbits.base_element(10.0)
    Y = orbits.adjoint(g, X).m
    workloads.check_adjoint(g.m, X.m, Y, 10.0)
    with pytest.raises(CheckError):
        workloads.check_adjoint(g.m, X.m, QMat2(Y.a, _bump(Y.b, 1e-6), Y.c, Y.d), 10.0)
    with pytest.raises(CheckError):  # right matrix, wrong orbit
        workloads.check_adjoint(g.m, X.m, Y, 10.001)


def test_roundtrip_checker_rejects_perturbed_outputs():
    wl = workloads.DecomposeRoundtrip(5)
    op = workloads.RoundTrip(wl._factors(), *wl._point())
    _, (g, f, rebuilt, y) = wl._one(op, None)
    workloads.check_roundtrip(op, g, f, rebuilt, y)
    flipped = f._replace(w=-f.w, v=-f.v)  # the documented sign ambiguity
    workloads.check_roundtrip(op, g, flipped, rebuilt, y)
    wrong = [
        (g, f._replace(w=-f.w), rebuilt, y),
        (g, f._replace(psi=f.psi + 1e-7), rebuilt, y),
        (g, f, group.GroupElement(QMat2(_bump(rebuilt.m.a, 1e-8), *rebuilt.m[1:])), y),
        (g, f, rebuilt, y + np.array([0.0, 1e-7, 0.0, 0.0, 0.0])),
    ]
    for outputs in wrong:
        with pytest.raises(CheckError):
            workloads.check_roundtrip(op, *outputs)


def test_roundtrip_tolerances_grow_only_for_large_rapidity_members():
    f = workloads.LARGE_RAPIDITY[0]
    x, R = workloads.DecomposeRoundtrip(2)._point()
    g = group.reconstruct(f)
    off = group.GroupElement(QMat2(_bump(g.m.a, 1e-6), *g.m[1:]))
    outputs = (g, f, off, oracle.act(g.m, x))
    workloads.check_roundtrip(workloads.RoundTrip(f, x, R, True), *outputs)
    with pytest.raises(CheckError):
        workloads.check_roundtrip(workloads.RoundTrip(f, x, R), *outputs)


def test_only_large_rapidity_members_may_fail():
    wl = workloads.DecomposeRoundtrip(1)
    exp_seed, ops = wl.inputs()
    results = wl.run((exp_seed, ops))
    tally = wl.check((exp_seed, ops), results)
    assert tally.attempted == wl.ROUNDS_PER_BATCH * (2 * wl.PAIRS_PER_ROUND + 1)
    assert tally.trials + tally.failed == tally.attempted
    failed = [op for op, res in results if isinstance(res, Exception)]
    assert len(failed) == tally.failed
    assert all(op.expected_failure for op in failed)
    regular = next(i for i, (op, _) in enumerate(results) if not op.expected_failure)
    results[regular] = (results[regular][0], ValueError("injected"))
    with pytest.raises(CheckError):
        wl.check((exp_seed, ops), results)


def test_emit_checker_rejects_perturbed_output():
    rc, text = workloads.emit(["orbit", "--kappa", "10", "-n", "5", "--seed", "4"])
    workloads.check_emit(10.0, 5, 50.0, rc, text)
    lines = text.splitlines(keepends=True)
    rec = json.loads(lines[2])
    rec["coords"]["d0"] += 1e-6
    moved = "".join(lines[:2] + [json.dumps(rec) + "\n"] + lines[3:])
    rec = json.loads(lines[2])
    rec["residuals"]["r2"] = float("nan")
    nan = "".join(lines[:2] + [json.dumps(rec) + "\n"] + lines[3:])
    for args in ((10.0, 5, 50.0, 3, text),      # nonzero exit
                 (10.0, 5, 50.0, rc, "".join(lines[:-1])),  # a record missing
                 (10.0, 5, 50.0, rc, moved),     # coordinates off
                 (10.0, 5, 50.0, rc, nan),       # NaN token
                 (10.0, 5, 1.0, rc, text),       # |p| above the window
                 (1.0, 5, 50.0, rc, text)):      # wrong kappa
        with pytest.raises(CheckError):
            workloads.check_emit(*args)


def test_tracer_counts_calls_and_self_time():
    tracer = tracing.Tracer()

    def inner():
        return sum(range(1000))

    traced_inner = tracer.span("orbits.adjoint", inner)

    def outer():
        return traced_inner() + traced_inner()

    traced_outer = tracer.span("suites.run_suite", outer)
    traced_outer()  # inactive: not recorded
    with tracer.batch_span(0):
        traced_outer()
    totals = tracer.layer_totals()
    assert totals["suites.run_suite"][0] == 1 and totals["orbits.adjoint"][0] == 2
    batch_len = tracer.spans[0][3] - tracer.spans[0][2]
    assert 0.0 < totals["suites.run_suite"][1] + totals["orbits.adjoint"][1] <= batch_len


def test_installed_wraps_internal_references_and_restores_them():
    before = (group.decompose, suites.decompose, QMat2.__matmul__)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert suites.decompose is group.decompose is not before[0]
        with tracer.batch_span(0):
            suites.run_suite("decomposition", trials=1, seed=0)
    assert (group.decompose, suites.decompose, QMat2.__matmul__) == before
    assert tracer.layer_totals()["group.decompose"][0] == 6
    assert tracer.call_counts()["gamma.qmat_matmul"] > 0


def test_probes_turn_clock_spans_into_refs():
    probes = refjob.Probes()
    probes.log = [(0.0, 0.001), (1.0, 0.002)]  # 1 ms per probe, then 2 ms
    per_ref = refjob.PROBES_PER_REF
    assert probes.refs(0.5, 1.5) == pytest.approx((500 + 250) / per_ref)
    assert probes.refs(1.2, 1.4) == pytest.approx(100 / per_ref)
    assert probes.refs(-1.0, 0.0) == pytest.approx(1000 / per_ref)  # before the first probe


def test_probes_sample_while_entered_and_stop_after():
    before = signal.getsignal(signal.SIGALRM)
    with refjob.Probes() as probes:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    taken = len(probes.log)
    assert taken >= 4 and probes.spent > 0.0
    time.sleep(0.05)
    assert len(probes.log) == taken and signal.getsignal(signal.SIGALRM) is before


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == worker.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)


def _run(cwd, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def _check_result(stdout: str, trace: str) -> None:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["attempted"] >= 1
    units = worker.PER_LAYER if trace == "1" else worker.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run(name, trace, monkeypatch, capsys):
    """The worker in-process, for 0.2 s, with a 20-trial orbits suite."""
    monkeypatch.setattr(workloads.OrbitsCheck, "TRIALS", 20)
    args = ["--workload", name, "--seed", "0", "--seconds", "0.2", "--trace", trace]
    assert worker.main(args) == 0
    _check_result(capsys.readouterr().out, trace)


def test_run_py_prints_the_result():
    proc = _run(ROOT, "--workload", "orbit-emit", "--seed", "0", "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    _check_result(proc.stdout, "0")


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "orbit-emit", "--seed", "0", "--seconds", "1")
    assert proc.returncode != 0 and proc.stdout == ""
