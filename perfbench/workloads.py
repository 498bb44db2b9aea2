"""The three workloads: their inputs, their timed batches and the checks
that their outputs are correct.

Every workload is driven through ds4's public functions, looked up on the
module at call time so that the tracer's wrappers see the calls.  A
workload hands out one batch of inputs at a time (`inputs`), runs it under
the timer (`run`) and checks what came back outside the timer (`check`),
which returns a Tally or raises CheckError.  Inputs come from the
workload's seed only.  `first_call` is the set-up call that ends the
timed cold start.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from ds4 import cli, group, orbits, suites
from ds4.group import DecompositionFactors
from ds4.quaternion import Quaternion

from . import oracle


class CheckError(Exception):
    """An output of ds4 disagrees with the benchmark's own computation."""


@dataclass
class Tally:
    """Outcome of one batch: verified trials, operations tried and failed."""

    trials: int
    attempted: int
    failed: int
    out_bytes: int = 0


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _draw_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        v = rng.normal(size=n)
        norm = float(np.linalg.norm(v))
        if norm > 1e-6:
            return v / norm


def _max_abs(blocks) -> float:
    return max(float(np.abs(np.asarray(q, dtype=float)).max()) for q in blocks)


# ---------------------------------------------------------------------------
# orbits-check

def suite_trial_count(trials: int) -> int:
    """Transports the orbits suite makes for `trials`: three massive families,
    one massless family and the quartic-energy sample."""
    return 4 * trials + max(1, trials // 5)


def check_suite_report(report, trials: int, seed: int) -> None:
    _require(report.suite == "orbits", f"report names suite {report.suite!r}")
    _require(report.seed == seed, f"report seed {report.seed} != {seed}")
    _require(report.trials == suite_trial_count(trials),
             f"report counts {report.trials} trials, expected {suite_trial_count(trials)}")
    _require(report.tol == 1.0, f"report tolerance {report.tol}")
    _require(math.isfinite(report.max_residual) and report.max_residual >= 0.0,
             f"worst residual fraction {report.max_residual!r}")
    _require(report.passed is (report.max_residual <= report.tol),
             "report's verdict disagrees with its worst residual")
    # The verdict itself is not required: about one suite run of 2000 trials
    # in 80 fails on a correct transport, because conservation_residuals
    # divides by d0 and a massless point with |d0| ~ 1e-6 blows its
    # round-off past the absolute budget.  check_adjoint checks transports.
    if not report.passed:
        print(f"orbits-check: run_suite seed {seed} reports worst residual fraction "
              f"{report.max_residual:.3g}", file=sys.stderr)


def check_adjoint(g_blocks, X_blocks, Y_blocks, kappa: float) -> None:
    """Y = g X g^-1 against the embedding route, and the Casimir of Y."""
    want = oracle.adjoint(g_blocks, X_blocks)
    got = oracle.mat4(Y_blocks)
    scale = max(1.0, _max_abs(g_blocks)) ** 2 * max(1.0, _max_abs(X_blocks))
    err = float(np.abs(got - want).max())
    _require(err <= 1e-12 * scale, f"adjoint differs from G X G^-1 by {err:.3e}")
    casimir = oracle.casimir_defect(oracle.coadjoint_coords(Y_blocks), kappa)
    _require(abs(casimir) <= 1e-9 * max(1.0, kappa * kappa),
             f"kappa^2 relation off by {casimir:.3e} at kappa = {kappa}")


class OrbitsCheck:
    """`ds4 check orbits --trials 2000`, the run the package README shows:
    one suite run per batch."""

    name = "orbits-check"
    TRIALS = 2000
    KAPPAS = (0.1, 1.0, 10.0)

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 1])
        self.check_rng = np.random.default_rng([seed, 1, 1])
        self.samples = 0

    def first_call(self) -> None:
        seed = int(self.rng.integers(2**31))
        check_suite_report(suites.run_suite("orbits", trials=1, seed=seed), 1, seed)

    def inputs(self) -> int:
        return int(self.rng.integers(2**31))

    def run(self, seed: int):
        try:
            return suites.run_suite("orbits", trials=self.TRIALS, seed=seed)
        except Exception as err:  # reported by check
            return err

    def check(self, seed: int, report) -> Tally:
        _require(not isinstance(report, Exception), f"run_suite seed {seed} raised {report!r}")
        check_suite_report(report, self.TRIALS, seed)
        self._check_sample()
        return Tally(report.trials, report.trials, 0)

    def _check_sample(self) -> None:
        """Transport one seed per family with orbits.adjoint, outside the timer."""
        rng = self.check_rng
        seeds = [(k, orbits.base_element(k)) for k in self.KAPPAS]
        z = Quaternion(*_draw_unit(rng, 4))
        p = _draw_unit(rng, 3) * rng.uniform(0.1, 2.0)
        seeds.append((0.0, orbits.orbit_matrix(z, p, 0.0)))
        for kappa, X in seeds:
            self.samples += 1
            g = group.random_member(rng, "exp" if self.samples % 2 else "factors")
            check_adjoint(g.m, X.m, orbits.adjoint(g, X).m, kappa)


# ---------------------------------------------------------------------------
# decompose-roundtrip

#: Exactly built members at rapidities psi, phi in [10, 14].  decompose
#: rejects every one with NonMemberError: is_member's absolute 1e-10
#: tolerance is below the round-off of the determinant, which grows like
#: eps |g|^4.  They are the only operations the benchmark lets fail.
LARGE_RAPIDITY = [
    DecompositionFactors(Quaternion(*_unit(w)), psi, Quaternion(*_unit(v)), phi,
                         Quaternion(0.0, *_unit(u)))
    for w, psi, v, phi, u in [
        ((0.8, 0.1, -0.5, 0.3), 10.0, (0.2, 0.9, 0.1, -0.4), 14.0, (1.0, 0.0, 0.0)),
        ((0.3, -0.6, 0.7, 0.2), 11.0, (-0.5, 0.5, 0.5, 0.5), 13.0, (0.0, 1.0, 0.0)),
        ((0.5, 0.5, 0.5, 0.5), 12.0, (0.9, -0.1, 0.3, 0.3), 12.0, (0.0, 0.0, 1.0)),
        ((-0.2, 0.4, 0.4, 0.8), 13.0, (0.1, 0.2, -0.9, 0.4), 11.0, (0.6, 0.8, 0.0)),
        ((0.7, -0.1, 0.1, -0.7), 14.0, (0.6, 0.6, -0.3, 0.4), 10.0, (0.0, 0.6, -0.8)),
        ((0.1, 0.9, -0.3, 0.3), 10.5, (0.4, -0.4, 0.6, 0.6), 12.5, (-0.48, 0.6, 0.64)),
        ((0.6, 0.2, 0.2, 0.75), 12.5, (-0.3, 0.8, 0.3, 0.4), 10.5, (0.36, -0.48, 0.8)),
        ((0.4, -0.4, -0.6, 0.6), 13.5, (0.7, 0.1, 0.7, -0.1), 13.5, (0.8, 0.0, -0.6)),
    ]
]


@dataclass
class RoundTrip:
    """One operation: build g (from `factors`, or exp when None), then
    decompose, reconstruct, and act on the point x of radius R."""

    factors: DecompositionFactors | None
    x: np.ndarray
    R: float
    expected_failure: bool = False


def check_factors(want: DecompositionFactors, got: DecompositionFactors,
                  tol: float = 1e-10) -> None:
    """The generating factors come back up to the (w, v) -> (-w, -v) sign."""
    w, v = np.array(want.w), np.array(want.v)
    sign = 1.0 if float(np.dot(np.array(got.w), w)) >= 0.0 else -1.0
    errs = {
        "w": float(np.abs(np.array(got.w) - sign * w).max()),
        "psi": abs(got.psi - want.psi),
        "v": float(np.abs(np.array(got.v) - sign * v).max()),
        "phi": abs(got.phi - want.phi),
        "u": float(np.abs(np.array(got.u) - np.array(want.u)).max()),
    }
    bad = {k: e for k, e in errs.items() if not e <= tol}
    _require(not bad, f"decompose misses generating factors: {bad}")


def check_roundtrip(op: RoundTrip, g, factors, rebuilt, y) -> None:
    norm2 = max(1.0, _max_abs(g.m)) ** 2
    # A large-rapidity member reaches here only once ds4 accepts it.  Its
    # round-off grows like |g|^2 in the round trip and the factors, and like
    # |g|^4 in the action (the embedding route's inverse included) and the
    # hyperboloid, so its tolerances grow with it.
    k = norm2 if op.expected_failure else 1.0
    if op.factors is not None:
        check_factors(op.factors, factors, 1e-10 * k)
    gap = float(np.abs(oracle.mat4(rebuilt.m) - oracle.mat4(g.m)).max())
    _require(gap <= 1e-9 * k, f"reconstruct(decompose(g)) is {gap:.3e} from g")
    want = oracle.act(g.m, op.x)
    err = float(np.abs(np.asarray(y) - want).max())
    _require(err <= 1e-12 * op.R * norm2 * k,
             f"act_vector differs from G slash(x) G^-1 by {err:.3e}")
    shell = abs(oracle.minkowski(y) + op.R * op.R)
    _require(shell <= 1e-8 * op.R * op.R * k * k, f"image is {shell:.3e} off the hyperboloid")


class DecomposeRoundtrip:
    """Round trips and actions on members built from factors and from exp."""

    name = "decompose-roundtrip"
    PAIRS_PER_ROUND = 12  # one factor-built and one exp-built member each
    ROUNDS_PER_BATCH = 4  # every round also takes one LARGE_RAPIDITY member

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 2])
        self.rounds = 0

    def _point(self) -> tuple[np.ndarray, float]:
        rng = self.rng
        R = float(rng.uniform(0.5, 2.0))
        psi = float(rng.uniform(-2.0, 2.0))
        n = _draw_unit(rng, 4)
        return np.concatenate(([R * math.sinh(psi)], R * math.cosh(psi) * n)), R

    def _factors(self) -> DecompositionFactors:
        rng = self.rng
        w = _draw_unit(rng, 4)
        while abs(w[0]) < 0.01:  # keep w away from the pure-vector branch cut
            w = _draw_unit(rng, 4)
        return DecompositionFactors(
            Quaternion(*w), float(rng.uniform(-3.0, 3.0)), Quaternion(*_draw_unit(rng, 4)),
            float(rng.uniform(0.05, 3.0)), Quaternion(0.0, *_draw_unit(rng, 3)))

    def first_call(self) -> None:
        self._check_op(*self._one(RoundTrip(self._factors(), *self._point()),
                                  np.random.default_rng(self.rng.integers(2**31))))

    def inputs(self) -> tuple[int, list[RoundTrip]]:
        ops = []
        for _ in range(self.ROUNDS_PER_BATCH):
            for _ in range(self.PAIRS_PER_ROUND):
                ops.append(RoundTrip(self._factors(), *self._point()))
                ops.append(RoundTrip(None, *self._point()))
            x, R = self._point()
            ops.append(RoundTrip(LARGE_RAPIDITY[self.rounds % len(LARGE_RAPIDITY)], x, R, True))
            self.rounds += 1
        return int(self.rng.integers(2**31)), ops

    @staticmethod
    def _one(op: RoundTrip, exp_rng):
        try:
            g = (group.reconstruct(op.factors) if op.factors is not None
                 else group.random_member(exp_rng, "exp"))
            f = group.decompose(g)
            return op, (g, f, group.reconstruct(f), group.act_vector(g, op.x))
        except (ValueError, ArithmeticError, RuntimeError) as err:
            return op, err

    def run(self, inputs) -> list:
        exp_seed, ops = inputs
        exp_rng = np.random.default_rng(exp_seed)
        return [self._one(op, exp_rng) for op in ops]

    def _check_op(self, op: RoundTrip, result) -> bool:
        """True if the operation succeeded (and checked), False if it is a
        LARGE_RAPIDITY member that failed.  Any other failure is an error."""
        if isinstance(result, Exception):
            _require(op.expected_failure, f"{result!r} for factors {op.factors}")
            return False
        check_roundtrip(op, *result)
        return True

    def check(self, inputs, results) -> Tally:
        ok = sum(self._check_op(op, res) for op, res in results)
        return Tally(ok, len(results), len(results) - ok)


# ---------------------------------------------------------------------------
# orbit-emit

def _reject_constant(token: str):
    raise CheckError(f"non-JSON token {token}")


def check_emit(kappa: float, n: int, pmax: float, rc: int, text: str) -> int:
    """Check one `ds4 orbit` output; returns the number of records."""
    _require(rc == 0, f"ds4 orbit exited {rc}")
    _require(text.endswith("\n"), "output does not end in a newline")
    lines = text[:-1].split("\n")
    _require(len(lines) == n, f"{len(lines)} records, expected {n}")
    budget = 1e-9 * max(1.0, kappa * kappa)
    for line in lines:
        try:
            rec = json.loads(line, parse_constant=_reject_constant)
        except ValueError as err:
            raise CheckError(f"record is not JSON: {err}") from None
        try:
            z = np.array([rec["z"]["s"], *rec["z"]["v"]], dtype=float)
            p = np.array(rec["p"], dtype=float)
            c = rec["coords"]
            got = (np.array(c["a"], dtype=float), np.array(c["j"], dtype=float),
                   float(c["d0"]), np.array(c["d"], dtype=float))
            r1, r2 = np.array(rec["residuals"]["r1"], dtype=float), float(rec["residuals"]["r2"])
            degenerate = rec["residuals"]["degenerate"]
            rec_kappa = rec["kappa"]
        except (KeyError, TypeError, ValueError) as err:
            raise CheckError(f"record lacks a field: {err!r}") from None
        _require(z.shape == (4,) and p.shape == (3,), "z or p has the wrong length")
        _require(rec_kappa == kappa, f"record kappa {rec_kappa} != {kappa}")
        _require(abs(float(np.linalg.norm(z)) - 1.0) <= 1e-12, "|z| != 1")
        norm_p = float(np.linalg.norm(p))
        _require(norm_p <= pmax * (1.0 + 1e-12), f"|p| = {norm_p} above pmax {pmax}")
        _require(kappa > 0.0 or norm_p > 0.0, "massless record with p = 0")
        want = oracle.orbit_coords(z, p, kappa)
        scale = max(1.0, math.hypot(kappa, norm_p))
        err = max(float(np.max(np.abs(np.asarray(g) - np.asarray(w)))) for g, w in zip(got, want))
        _require(err <= 1e-12 * scale, f"coordinates differ from R(z) recomputation by {err:.3e}")
        a, j, d0, d = got
        law1 = float(np.abs(d0 * j - np.cross(d, a)).max())
        law2 = abs(oracle.casimir_defect(got, kappa))
        _require(law1 <= budget and law2 <= budget,
                 f"conservation laws off by {law1:.3e}, {law2:.3e}")
        _require(degenerate is (d0 == 0.0), "degenerate flag disagrees with d0")
        # r1 is j - d x a / d0 off the degenerate set; times d0 it is the
        # first law, whose round-off does not grow as d0 goes to 0.
        law1_emitted = float(np.abs(r1 if degenerate else d0 * r1).max())
        _require(abs(r2) <= budget and law1_emitted <= budget,
                 "emitted residuals exceed the budget")
    return len(lines)


@dataclass
class Emission:
    kappa: float
    pmax: float
    argv: list


def emit(argv: list) -> tuple[int, str]:
    """In-process `ds4 <argv>` with stdout captured in memory."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except (ValueError, ArithmeticError, RuntimeError):
        rc = 1
    return rc, buf.getvalue()


class OrbitEmit:
    """`ds4 orbit` for kappa = 1 and 10 at the default window, and the
    massless family with an explicit --pmax; N records per call, as in the
    package README's `ds4 orbit --kappa 1 -n 100`."""

    name = "orbit-emit"
    N = 100
    REPEAT_EVERY = 4  # batches between byte-identity re-runs

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 3])
        self.batches = 0

    def _emission(self, kappa: float, n: int) -> Emission:
        seed = str(int(self.rng.integers(2**31)))
        if kappa == 0.0:
            pmax = round(float(self.rng.uniform(0.5, 4.0)), 3)
            return Emission(0.0, pmax, ["orbit", "--kappa", "0", "--pmax", repr(pmax),
                                        "-n", str(n), "--seed", seed])
        return Emission(kappa, 5.0 * kappa, ["orbit", "--kappa", repr(kappa),
                                             "-n", str(n), "--seed", seed])

    def first_call(self) -> None:
        em = self._emission(1.0, 1)
        check_emit(em.kappa, 1, em.pmax, *emit(em.argv))

    def inputs(self) -> list[Emission]:
        return [self._emission(k, self.N) for k in (1.0, 10.0, 0.0)]

    def run(self, emissions: list[Emission]) -> list:
        return [emit(em.argv) for em in emissions]

    def check(self, emissions: list[Emission], outputs: list) -> Tally:
        trials = size = 0
        for em, (rc, text) in zip(emissions, outputs):
            _require(rc == 0, f"ds4 {' '.join(em.argv)} exited {rc}")
            trials += check_emit(em.kappa, self.N, em.pmax, rc, text)
            size += len(text.encode())
        if self.batches % self.REPEAT_EVERY == 0:
            k = (self.batches // self.REPEAT_EVERY) % len(emissions)
            _require(emit(emissions[k].argv) == outputs[k],
                     f"repeating {' '.join(emissions[k].argv)} changed the output")
        self.batches += 1
        return Tally(trials, trials, 0, size)


WORKLOADS = {w.name: w for w in (OrbitsCheck, DecomposeRoundtrip, OrbitEmit)}
