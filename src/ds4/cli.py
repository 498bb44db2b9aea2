"""Command-line interface.

Machine-readable output only: JSON (reports, factor data, orbit records) or
CSV (contraction sweeps) on stdout, diagnostics on stderr.  Exit codes are a
stable contract: 0 pass, 1 suite failure, 2 usage or parse error, 3
certification failure.  Identical commands with identical seeds produce
byte-identical stdout.  This module alone reads and writes JSON, all strict.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import algebra, orbits
from .gamma import QMat2
from .group import GroupElement, NonMemberError, decompose, reconstruct
from .quaternion import Quaternion
from .suites import SUITES, run_suite

_RECONSTRUCTION_TOL = 1e-8
#: Raises ValueError on NaN or inf, which strict JSON cannot carry.
_STRICT_JSON = json.JSONEncoder(allow_nan=False)


def _default_seed() -> int:
    """DS4_SEED, or 0 when it is unset or not an integer.  A negative value
    is a usage error (exit 2), as a negative --seed is."""
    try:
        seed = int(os.environ.get("DS4_SEED", "0"))
    except ValueError:
        return 0
    if seed < 0:
        print(f"ds4: DS4_SEED must be a nonnegative integer, got {seed}", file=sys.stderr)
        raise SystemExit(2)
    return seed


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = _finite(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative number, got {text!r}")
    return value


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON token {token}")


def _quaternion_json(q) -> dict:
    """{"s", "v"} of four components (s, x, y, z)."""
    s, x, y, z = q
    return {"s": s, "v": [x, y, z]}


def _field(obj, key: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"expected an object with a {key!r} member")
    return obj[key]


def _number(x) -> float:
    """A JSON number as a finite float: strings, booleans and null are not numbers."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"expected a number, got {json.dumps(x)[:40]}")
    value = float(x)  # OverflowError for an integer beyond float64
    if not np.isfinite(value):
        raise ValueError("a block component is not finite in float64")
    return value


def _read_element(obj) -> GroupElement:
    """The `ds4 decompose` input: {"blocks": {"a", "b", "c", "d"}}, each block {"s", "v"}."""
    blocks = []
    for k in "abcd":
        q = _field(_field(obj, "blocks"), k)
        v = _field(q, "v")
        if not isinstance(v, list) or len(v) != 3:
            raise ValueError("expected 'v' to be a list of three numbers")
        blocks.append(Quaternion(*map(_number, [_field(q, "s"), *v])))
    return GroupElement(QMat2(*blocks))


def _triple(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated values, got {text!r}")
    return np.array([_finite(p) for p in parts])


@functools.cache  # once per process: parsing leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ds4",
        description="Sp(2,2) verification suites, decomposition, orbits and flat-limit sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a named verification suite")
    p_check.add_argument("suite", choices=sorted(SUITES))
    p_check.add_argument("--trials", type=_count, default=None)
    p_check.add_argument("--seed", type=_count, default=None)
    p_check.add_argument("--tol", type=_tolerance, default=1.0,
                         help="budget multiplier; 1.0 uses the compiled limits")

    p_dec = sub.add_parser("decompose", help="factor a group element read as JSON")
    p_dec.add_argument("--file", default=None, help="input path (default: stdin)")

    p_orb = sub.add_parser("orbit", help="sample an orbit and emit JSON lines")
    p_orb.add_argument("--kappa", type=_finite, default=1.0)
    p_orb.add_argument("-n", "--samples", type=int, default=10)
    p_orb.add_argument("--pmax", type=_finite, default=None,
                       help="momentum window (default 5 kappa)")
    p_orb.add_argument("--seed", type=_count, default=None)
    p_orb.add_argument("--matrix", action="store_true", help="also emit the matrix blocks")

    p_con = sub.add_parser("contract", help="mass-shell defect along a radius grid")
    p_con.add_argument("--m", type=_finite, default=1.0)
    p_con.add_argument("--c", type=_finite, default=1.0)
    p_con.add_argument("--p", type=_triple, default="1,0,0")
    p_con.add_argument("--q", type=_triple, default="0,1,0")
    p_con.add_argument("--rmin", type=_finite, default=10.0)
    p_con.add_argument("--rmax", type=_finite, default=1e6)
    p_con.add_argument("--steps", type=int, default=25)
    p_con.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _cmd_check(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    report = run_suite(args.suite, trials=args.trials, seed=seed, tol=args.tol)
    worst = report.max_residual  # inf when the suite fails a condition that must hold exactly
    print(_STRICT_JSON.encode({"suite": report.suite, "trials": report.trials,
                               "max_residual": worst if np.isfinite(worst) else None,
                               "pass": report.passed, "seed": report.seed, "tol": report.tol}))
    return 0 if report.passed else 1


def _cmd_decompose(args) -> int:
    try:
        if args.file is not None:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
        g = _read_element(json.loads(text, parse_constant=_reject_constant))
    except (OSError, ArithmeticError, ValueError, RecursionError) as err:
        print(f"ds4 decompose: cannot parse input: {err}", file=sys.stderr)
        return 2
    try:
        factors = decompose(g, member_tol=_RECONSTRUCTION_TOL)
    except NonMemberError as err:
        r = err.report
        out, status = {"det_defect": r.det_defect, "pseudo_unitarity_defect": r.pseudo_unitarity_defect,
                       "tol": r.tol, "pass": r.passed}, 3
    except (ArithmeticError, RuntimeError, ValueError) as err:
        # A member at the tolerance can still fail a check of the factorization.
        print(f"ds4 decompose: the input cannot be factored: {err}", file=sys.stderr)
        return 3
    else:
        residual = (reconstruct(factors).m - g.m).max_norm()
        out = {"w": _quaternion_json(factors.w), "psi": factors.psi,
               "v": _quaternion_json(factors.v), "phi": factors.phi,
               "u": _quaternion_json(factors.u), "residual": residual}
        status = 0 if residual <= _RECONSTRUCTION_TOL else 1
    try:
        line = _STRICT_JSON.encode(out)
    except ValueError as err:
        print(f"ds4 decompose: the input is too large for float64: {err}", file=sys.stderr)
        return 2
    print(line)
    if status == 3:
        print("ds4 decompose: input is not an Sp(2,2) element", file=sys.stderr)
    return status


def _cmd_orbit(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    p_max = args.pmax if args.pmax is not None else 5.0 * args.kappa
    if args.kappa < 0 or args.samples <= 0 or p_max <= 0:
        print("ds4 orbit: need kappa >= 0, n > 0 and a positive momentum window "
              "(set --pmax explicitly when kappa = 0)", file=sys.stderr)
        return 2
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            lines = _orbit_lines(orbits.sample_orbit(args.kappa, args.samples, p_max, seed), args.matrix)
    except (ArithmeticError, ValueError):  # every one of them is a value that left float64
        print("ds4 orbit: kappa or the momentum window is too large for float64", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"ds4 orbit: {args.samples} samples do not fit in memory", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


def _orbit_lines(points: orbits.OrbitPoint, matrix: bool) -> list[str]:
    """One strict JSON record per row of the sampled stack, the same at any
    chunk size.  Orbit matrices, coordinates and residuals are computed as
    arrays, one pass per batch.CHUNK rows, which bounds what is held."""
    from . import batch  # the array route; the other commands start without it

    kappa, lines = points.kappa, []
    for start in range(0, len(points.z), batch.CHUNK):
        z, p = points.z[start:start + batch.CHUNK], points.p[start:start + batch.CHUNK]
        X = orbits.orbit_matrix(z, p, kappa)
        a, j, d0, d = algebra.to_coords(X)
        r1, r2, degenerate = orbits.conservation_residuals((a, j, d0, d), kappa)
        matrices = X.reshape(-1, 4, 4).tolist() if matrix else [None] * len(z)
        for zk, pk, ak, jk, d0k, dk, r1k, r2k, degk, mk in zip(
                z.tolist(), p.tolist(), a.tolist(), j.tolist(), d0.tolist(), d.tolist(),
                r1.tolist(), r2.tolist(), degenerate.tolist(), matrices):
            record = {"z": _quaternion_json(zk), "p": pk, "kappa": kappa,
                      "coords": {"a": ak, "j": jk, "d0": d0k, "d": dk},
                      "residuals": {"r1": r1k, "r2": r2k, "degenerate": degk}}
            if matrix:
                record["matrix"] = {"blocks": dict(zip("abcd", map(_quaternion_json, mk)))}
            lines.append(_STRICT_JSON.encode(record))
    return lines


def _cmd_contract(args) -> int:
    if args.steps < 2 or args.rmin <= 0 or args.rmax <= args.rmin:
        print("ds4 contract: need steps >= 2 and 0 < rmin < rmax", file=sys.stderr)
        return 2
    try:
        grid = np.logspace(np.log10(args.rmin), np.log10(args.rmax), args.steps)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            table = orbits.contraction_sweep(args.m, args.c, args.p, args.q, grid)
        if not np.isfinite(table).all():
            raise OverflowError
    except OverflowError:  # a Python float's c**2 raises it, with errno text
        print("ds4 contract: the inputs are too large for float64", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError) as err:
        print(f"ds4 contract: {err}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"ds4 contract: {args.steps} steps do not fit in memory", file=sys.stderr)
        return 2
    slope = orbits.defect_slope(table)
    if args.format == "json":
        for R, E, defect in table:
            print(_STRICT_JSON.encode({"R": float(R), "E": float(E),
                                       "mass_shell_defect": float(defect)}))
        print(_STRICT_JSON.encode({"slope": None if np.isnan(slope) else slope}))
    else:
        print("R,E,mass_shell_defect")
        for R, E, defect in table:
            print(f"{float(R)!r},{float(E)!r},{float(defect)!r}")
        print(f"# slope={float(slope)!r}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"check": _cmd_check, "decompose": _cmd_decompose,
                "orbit": _cmd_orbit, "contract": _cmd_contract}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
