import contextlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ds4
from ds4 import algebra, batch, cli, group, orbits, suites
from ds4.cli import main
from ds4.gamma import QMat2, anticommutator, gamma
from ds4.group import (
    DecompositionFactors,
    GroupElement,
    random_member,
    reconstruct,
    t_time_translation,
)
from ds4.quaternion import Quaternion
from ds4.suites import run_suite
from oracles import element_json, orbit_lines_pointwise


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


# ---------------------------------------------------------------------------
# check

def test_check_brackets_single_trial(capsys):
    code, out, _ = run_cli(capsys, "check", "brackets", "--trials", "1")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] and report["suite"] == "brackets"


def test_check_clifford_residual_zero(capsys):
    code, out, _ = run_cli(capsys, "check", "clifford")
    assert code == 0
    assert json.loads(out)["max_residual"] == 0.0


def test_check_report_roundtrips(capsys):
    # the report carries run_suite's fields, in this order, and nothing else
    code, out, _ = run_cli(capsys, "check", "mirror", "--trials", "20", "--seed", "3")
    assert code == 0
    r = run_suite("mirror", trials=20, seed=3)
    assert out == json.dumps({"suite": r.suite, "trials": r.trials, "max_residual": r.max_residual,
                              "pass": r.passed, "seed": r.seed, "tol": r.tol}) + "\n"


def test_failing_report_writes_a_non_finite_residual_as_null(capsys, monkeypatch):
    nan = float("nan")
    monkeypatch.setattr(orbits, "casimir_defect",
                        lambda a, j, d0, d, kappa: np.full(np.shape(d0), nan))
    code, out, _ = run_cli(capsys, "check", "orbits", "--trials", "10")
    report = json.loads(out, parse_constant=_reject_constant)
    assert code == 1 and report["max_residual"] is None and report["pass"] is False


def test_check_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["check", "nonsense"])
    assert err.value.code == 2


def test_check_small_fuzz_suites(capsys):
    for suite in ("membership", "decomposition", "orbits"):
        code, out, _ = run_cli(capsys, "check", suite, "--trials", "20")
        assert code == 0, (suite, out)


@pytest.mark.parametrize("argv", [
    ("orbit", "--kappa", "nan"),
    ("orbit", "--kappa", "inf"),
    ("orbit", "--pmax", "nan"),
    ("orbit", "--kappa", "0", "--pmax", "inf"),
    ("contract", "--m", "nan"),
    ("contract", "--c", "-inf"),
    ("contract", "--rmin", "nan"),
    ("contract", "--rmax", "inf"),
    ("contract", "--p", "1,nan,0"),
    ("contract", "--q", "0,inf,0"),
    ("check", "membership", "--trials", "-3"),
    ("check", "clifford", "--seed", "-1"),
    ("orbit", "-n", "1", "--seed", "-5"),
    ("check", "clifford", "--tol", "-1"),
    ("contract", "--m", "-2"),
    ("contract", "--c", "-1"),
    ("contract", "--c", "0"),
])
def test_invalid_numeric_flag_is_usage_error(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and captured.err != ""


@pytest.mark.parametrize("argv", [
    ("orbit", "--kappa", "1", "--pmax", "1e308", "-n", "2", "--seed", "3"),
    ("orbit", "--kappa", "1e154", "-n", "1"),
    ("orbit", "--kappa", "1e308", "-n", "1"),
    ("contract", "--m", "1e200", "--steps", "3"),
    ("contract", "--rmin", "1e-300", "--rmax", "1e300", "--steps", "5"),
])
def test_overflowing_value_is_usage_error(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would reach stderr
        code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err != "" and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("orbit", "--kappa", "2e153", "-n", "50"),
    ("orbit", "--kappa", "1", "--pmax", "1e154", "-n", "50"),
    ("contract", "--m", "1e76", "--steps", "3", "--format", "json"),
])
def test_large_value_inside_float64_range_still_works(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    for line in out.strip().split("\n"):
        json.loads(line, parse_constant=_reject_constant)


def test_negative_seed_from_environment_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("DS4_SEED", "-5")
    with pytest.raises(SystemExit) as exc:
        main(["orbit", "-n", "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == "" and captured.err != ""


def test_run_suite_rejects_negative_trials():
    with pytest.raises(ValueError):
        run_suite("membership", trials=-1)


def test_run_suite_rejects_a_negative_tolerance():
    with pytest.raises(ValueError):
        run_suite("clifford", tol=-1.0)
    assert run_suite("clifford", tol=0.0).passed  # an exact suite passes at zero tolerance


_TRIAL_COUNTS = {
    "clifford": lambda t: 30,
    "membership": lambda t: 2 * t,
    "decomposition": lambda t: t + 5,
    "brackets": lambda t: 90,
    "homomorphism": lambda t: 55,
    "orbits": lambda t: 4 * t + max(1, t // 5),
    "contraction": lambda t: 26,
    "mirror": lambda t: 2 * t + 10,
}


@pytest.mark.parametrize("trials", [0, 1, 7])
@pytest.mark.parametrize("suite", sorted(_TRIAL_COUNTS))
def test_every_suite_reports_its_trial_count(suite, trials):
    report = run_suite(suite, trials=trials, seed=2)
    assert report.trials == _TRIAL_COUNTS[suite](trials) and report.passed


#: `ds4 check` stdout at seed 0: default trials for the fixed-table suites,
#: --trials 200 for the random ones.  A change to one of these lines is a
#: change to the seeded output, and is named as such where it is made.
_PINNED_CHECK = {
    "clifford": ((), '{"suite": "clifford", "trials": 30, "max_residual": 0.0, "pass": true, '
                     '"seed": 0, "tol": 1.0}'),
    "brackets": ((), '{"suite": "brackets", "trials": 90, "max_residual": 0.0, "pass": true, '
                     '"seed": 0, "tol": 1.0}'),
    "homomorphism": ((), '{"suite": "homomorphism", "trials": 55, "max_residual": 0.0, '
                         '"pass": true, "seed": 0, "tol": 1.0}'),
    "contraction": ((), '{"suite": "contraction", "trials": 26, "max_residual": 0.050026649489609554, '
                        '"pass": true, "seed": 0, "tol": 1.0}'),
    "membership": (("--trials", "200"), '{"suite": "membership", "trials": 400, '
                   '"max_residual": 0.0003774758283725532, "pass": true, "seed": 0, "tol": 1.0}'),
    "decomposition": (("--trials", "200"), '{"suite": "decomposition", "trials": 205, '
                      '"max_residual": 9.742207041085749e-06, "pass": true, "seed": 0, "tol": 1.0}'),
    "orbits": (("--trials", "200"), '{"suite": "orbits", "trials": 840, '
               '"max_residual": 0.00019895196601282805, "pass": true, "seed": 0, "tol": 1.0}'),
    "mirror": (("--trials", "200"), '{"suite": "mirror", "trials": 410, "max_residual": 0.0, '
               '"pass": true, "seed": 0, "tol": 1.0}'),
}


@pytest.mark.parametrize("suite", sorted(_PINNED_CHECK))
def test_check_output_is_pinned(capsys, suite):
    flags, line = _PINNED_CHECK[suite]
    code, out, err = run_cli(capsys, "check", suite, *flags, "--seed", "0")
    assert (code, out, err) == (0, line + "\n", "")


def test_check_failing_tolerance_exits_one(capsys):
    # contraction has a genuinely nonzero budget fraction; shrinking the
    # budget far enough must flip the verdict and the exit code
    code, out, _ = run_cli(capsys, "check", "contraction", "--tol", "1e-9")
    assert code == 1
    assert json.loads(out)["pass"] is False


def _with_a_nan(m):
    """m with a NaN in one component of one block, which QMat2.max_norm drops."""
    return m._replace(d=m.d._replace(z=float("nan")))


def test_a_nan_residual_fails_its_suite(monkeypatch):
    # Python's max drops a NaN that does not come first; the fold counts it as inf
    nan = float("nan")
    with monkeypatch.context() as m:
        m.setattr(orbits, "casimir_defect", lambda a, j, d0, d, kappa: np.full(np.shape(d0), nan))
        report = run_suite("orbits", 300, 1)
    assert report.max_residual == float("inf") and not report.passed
    with monkeypatch.context() as m:
        m.setattr(suites, "is_member", lambda g: group.MembershipReport(nan, nan, 1e-10, False))
        report = run_suite("membership", 5, 1)
    assert report.max_residual == float("inf") and not report.passed
    with monkeypatch.context() as m:
        m.setattr(suites, "reconstruct", lambda f: GroupElement(_with_a_nan(reconstruct(f).m)))
        report = run_suite("decomposition", 5, 1)
    assert report.max_residual == float("inf") and not report.passed
    with monkeypatch.context() as m:
        m.setattr(suites, "anticommutator", lambda a, b: _with_a_nan(anticommutator(a, b)))
        report = run_suite("clifford")
    assert report.max_residual == float("inf") and not report.passed
    with monkeypatch.context() as m:
        dagger = QMat2.dagger
        m.setattr(QMat2, "dagger", lambda self: _with_a_nan(dagger(self)))
        report = run_suite("clifford")
    assert report.max_residual == float("inf") and not report.passed
    with monkeypatch.context() as m:
        bracket = algebra.bracket
        m.setattr(algebra, "bracket", lambda X, Y: algebra.AlgebraElement(_with_a_nan(bracket(X, Y).m)))
        report = run_suite("brackets")
    assert report.max_residual == float("inf") and not report.passed
    with monkeypatch.context() as m:
        induced, spot = algebra.slash_induced_matrix, np.zeros((5, 5))
        spot[2, 3] = nan
        m.setattr(algebra, "slash_induced_matrix", lambda X: induced(X) + spot)
        report = run_suite("homomorphism")
    assert report.max_residual == float("inf") and not report.passed
    with monkeypatch.context() as m:
        generator = algebra.generator
        m.setattr(algebra, "generator", lambda label: algebra.AlgebraElement(
            _with_a_nan(generator(label).m)) if label == "X1" else generator(label))
        report = run_suite("mirror", 2)
    assert report.max_residual == float("inf") and not report.passed


# ---------------------------------------------------------------------------
# decompose

def _feed(monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


def _factors(obj) -> DecompositionFactors:
    """The factors of a `ds4 decompose` report."""
    def q(o):
        return Quaternion(o["s"], *o["v"])
    return DecompositionFactors(q(obj["w"]), obj["psi"], q(obj["v"]), obj["phi"], q(obj["u"]))


def test_decompose_identity(capsys, monkeypatch):
    _feed(monkeypatch, json.dumps(element_json(GroupElement.identity())))
    code, out, _ = run_cli(capsys, "decompose")
    assert code == 0
    obj = json.loads(out)
    f = _factors(obj)
    assert f.w.s == 1.0 and f.psi == 0.0 and f.v.s == 1.0 and f.phi == 0.0
    assert f.u.x == 1.0
    assert obj["residual"] == 0.0


def test_decompose_roundtrip_from_file(capsys, tmp_path):
    g = random_member(np.random.default_rng(99))
    path = tmp_path / "element.json"
    path.write_text(json.dumps(element_json(g)))
    code, out, _ = run_cli(capsys, "decompose", "--file", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["residual"] < 1e-9
    f = _factors(obj)
    assert (reconstruct(f).m - g.m).max_norm() < 1e-9


def test_decompose_non_member_exits_three(capsys, monkeypatch):
    _feed(monkeypatch, json.dumps(element_json(GroupElement(gamma(4)))))
    code, out, err = run_cli(capsys, "decompose")
    assert code == 3
    report = json.loads(out)  # stdout stays machine readable
    assert report["pass"] is False
    assert report["pseudo_unitarity_defect"] > 1.0
    assert err != ""


def test_decompose_determinant_failure_exits_three(capsys, monkeypatch):
    # pseudo-unitarity and the determinant both fail on diag(2, 1)
    two = {"s": 2, "v": [0, 0, 0]}
    one = {"s": 1, "v": [0, 0, 0]}
    zero = {"s": 0, "v": [0, 0, 0]}
    _feed(monkeypatch, json.dumps({"blocks": {"a": two, "b": zero, "c": zero, "d": one}}))
    code, out, err = run_cli(capsys, "decompose")
    assert code == 3 and err != ""
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["pass"] is False and report["det_defect"] > 1.0


def test_decompose_certifies_once(capsys, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    real = group.is_member
    monkeypatch.setattr(group, "is_member", counted)
    monkeypatch.setattr(cli, "is_member", counted, raising=False)  # a copy imported by name
    _feed(monkeypatch, json.dumps(element_json(random_member(np.random.default_rng(98)))))
    code, _, _ = run_cli(capsys, "decompose")
    assert code == 0 and len(calls) == 1


def test_decompose_member_that_cannot_be_factored_exits_three(capsys, monkeypatch):
    # T_tt(1) with a.s raised by 3e-10 passes membership at 1e-8, but its
    # action leaves the slash image by more than unslash accepts
    m = t_time_translation(1.0).m
    g = GroupElement(m._replace(a=m.a._replace(s=m.a.s + 3e-10)))
    _feed(monkeypatch, json.dumps(element_json(g)))
    code, out, err = run_cli(capsys, "decompose")
    assert code == 3 and out == ""
    assert len(err.strip().split("\n")) == 1 and "Traceback" not in err


def test_decompose_parse_error_exits_two(capsys, monkeypatch):
    _feed(monkeypatch, "this is not json")
    code, out, err = run_cli(capsys, "decompose")
    assert code == 2 and out == "" and err != ""


def _diag_with_a_s(token: str, v: str = "[0, 0, 0]") -> str:
    """diag(2, 1) with a.s spelled as the given JSON token, and a.v as v."""
    zero = '{"s": 0, "v": [0, 0, 0]}'
    return (f'{{"blocks": {{"a": {{"s": {token}, "v": {v}}}, "b": {zero}, '
            f'"c": {zero}, "d": {{"s": 1, "v": [0, 0, 0]}}}}}}')


@pytest.mark.parametrize("text", [
    pytest.param(_diag_with_a_s('"1"'), id="string-s"),
    pytest.param(_diag_with_a_s("true"), id="bool-s"),
    pytest.param(_diag_with_a_s("null"), id="null-s"),
    pytest.param(_diag_with_a_s("1", '"000"'), id="string-v"),
    pytest.param(_diag_with_a_s("1", '"123"'), id="digit-string-v"),
    pytest.param(_diag_with_a_s("1", "[0, 0]"), id="short-v"),
    pytest.param(_diag_with_a_s("1", "[[0], 0, 0]"), id="nested-v"),
    pytest.param("[1, 2]", id="top-level-list"),
    pytest.param("[" * 100_000, id="deep-nesting"),
])
def test_decompose_input_of_the_wrong_type_exits_two(capsys, monkeypatch, text):
    # only JSON numbers are numbers, and v is a list of three of them
    _feed(monkeypatch, text)
    code, out, err = run_cli(capsys, "decompose")
    assert code == 2 and out == "" and "cannot parse input" in err
    assert "Traceback" not in err and "indices" not in err


@pytest.mark.parametrize("token", ["NaN", "-Infinity", "1e400",
                                   pytest.param("1" + "0" * 400, id="10**400")])
def test_decompose_non_finite_token_exits_two(capsys, monkeypatch, token):
    # tokens that strict JSON does not have, and numbers beyond float64
    _feed(monkeypatch, _diag_with_a_s(token))
    code, out, err = run_cli(capsys, "decompose")
    assert code == 2 and out == "" and "cannot parse input" in err and "Traceback" not in err


def test_decompose_report_beyond_float64_exits_two(capsys, monkeypatch):
    # a finite input whose membership defects overflow
    _feed(monkeypatch, _diag_with_a_s("1e200"))
    code, out, err = run_cli(capsys, "decompose")
    assert code == 2 and out == "" and "too large for float64" in err


def test_decompose_starts_without_the_array_route(tmp_path):
    # cli imports ds4.batch only where an array route runs; a fresh process shows it
    path = tmp_path / "g.json"
    path.write_text(json.dumps(element_json(t_time_translation(0.3))))
    code = ("import sys, ds4\n"
            "print('ds4.batch' in sys.modules)\n"
            "from ds4 import cli\n"
            f"status = cli.main(['decompose', '--file', {str(path)!r}])\n"
            "print(status, 'ds4.batch' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(ds4.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    first, report, last = done.stdout.splitlines()
    assert (first, last) == ("False", "0 False") and "residual" in json.loads(report)


_SENTINEL = "@mutated@"
#: Leaf values no valid input holds (no 3-element list: that is a valid v).
_BAD_TOKENS = ['"1"', '"000"', "true", "false", "null", "{}", "[]", "[1]", "[0, 0]",
               "[0, 0, 0, 0]", "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400]
#: Paths to every number of a block, and to every v list.
_LEAVES = ([(k, "s") for k in "abcd"] + [(k, "v") for k in "abcd"]
           + [(k, "v", i) for k in "abcd" for i in range(3)])
#: Paths to every key, "blocks" itself included.
_KEYS = [()] + [(k,) for k in "abcd"] + [(k, f) for k in "abcd" for f in "sv"]


def _mutated(obj: dict, path: tuple, token: str | None) -> str:
    """obj as JSON with the value at path spelled as token, or its key deleted."""
    node = obj["blocks"] if path else obj
    for step in path[:-1]:
        node = node[step]
    last = path[-1] if path else "blocks"
    if token is None:
        del node[last]
        return json.dumps(obj)
    node[last] = _SENTINEL
    return json.dumps(obj).replace(json.dumps(_SENTINEL), token)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["exp", "factors"]),
       mutation=st.one_of(st.tuples(st.sampled_from(_LEAVES), st.sampled_from(_BAD_TOKENS)),
                          st.tuples(st.sampled_from(_KEYS), st.none())))
def test_decompose_mutated_input_exits_two(seed, kind, mutation):
    # one leaf or key of a valid element goes wrong: a clean exit 2, never a traceback
    text = _mutated(element_json(random_member(np.random.default_rng(seed), kind)), *mutation)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["decompose"])
    assert code == 2 and out.getvalue() == "", (text, out.getvalue())
    assert "cannot parse input" in err.getvalue() and "Traceback" not in err.getvalue()


def test_decompose_missing_file_exits_two(capsys):
    code, _, err = run_cli(capsys, "decompose", "--file", "/nonexistent/path.json")
    assert code == 2 and err != ""


# ---------------------------------------------------------------------------
# the JSON formats

def test_only_the_cli_knows_json():
    # the math modules hold arithmetic; the wire format is written and read in ds4.cli
    for path in Path(ds4.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert "to_json" not in text and "from_json" not in text, path.name
        imports_json = re.search(r"^\s*(import|from) json\b", text, re.M) is not None
        assert imports_json == (path.name == "cli.py"), path.name


# ---------------------------------------------------------------------------
# orbit

def test_orbit_records(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--kappa", "1", "-n", "3", "--seed", "7")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"z", "p", "kappa", "coords", "residuals"}
        assert max(abs(r) for r in rec["residuals"]["r1"]) < 1e-9
        assert abs(rec["residuals"]["r2"]) < 1e-9


def test_orbit_determinism(capsys):
    args = ("orbit", "--kappa", "2", "-n", "5", "--seed", "21")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_orbit_matrix_flag(capsys):
    code, out, _ = run_cli(capsys, "orbit", "-n", "1", "--seed", "3", "--matrix")
    assert code == 0
    rec = json.loads(out.strip())
    assert "matrix" in rec and set(rec["matrix"]["blocks"]) == {"a", "b", "c", "d"}


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert cli._build_parser() is cli._build_parser()
    run_cli(capsys, "orbit", "-n", "2", "--seed", "3", "--matrix")
    code, out, _ = run_cli(capsys, "orbit", "-n", "2", "--seed", "3")
    assert code == 0
    assert not any("matrix" in json.loads(line) for line in out.strip().split("\n"))


def _orbit_records_equal_the_pointwise_route(capsys, kappa, pmax, seed, n, matrix) -> list[dict]:
    """`ds4 orbit`'s records, once its stdout equals the point-by-point oracle's."""
    argv = ["orbit", "--kappa", repr(kappa), "-n", str(n), "--seed", str(seed)]
    argv += ["--pmax", repr(pmax)] if pmax is not None else []
    argv += ["--matrix"] if matrix else []
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    want = orbit_lines_pointwise(kappa, n, 5.0 * kappa if pmax is None else pmax, seed, matrix)
    assert out.split("\n") == want.split("\n")
    return [json.loads(line) for line in out.split("\n") if line]


@pytest.mark.parametrize("kappa,pmax,seed", [(0.0, 2.0, 0), (0.1, None, 14), (1.0, None, 12),
                                             (10.0, None, 7)])
@pytest.mark.parametrize("n", [1, 100, 257, batch.CHUNK + 1])  # the last spans two chunks
@pytest.mark.parametrize("matrix", [False, True])
def test_orbit_records_equal_the_pointwise_route(capsys, kappa, pmax, seed, n, matrix):
    _orbit_records_equal_the_pointwise_route(capsys, kappa, pmax, seed, n, matrix)


# At n = 100 each of these seeds holds a record whose d0 ** 2, taken by pow()
# on a float, differs in the last bit from d0 * d0: a single-point route that
# squared a float d0 by pow() would part from the stack's product there.
@pytest.mark.parametrize("kappa,pmax,seed", [(0.0, 2.0, 42), (0.1, None, 0), (1.0, None, 8),
                                             (10.0, None, 17)])
def test_orbit_records_where_pow_and_product_differ(capsys, kappa, pmax, seed):
    records = _orbit_records_equal_the_pointwise_route(capsys, kappa, pmax, seed, 100, False)
    assert any(r["coords"]["d0"] ** 2 != r["coords"]["d0"] * r["coords"]["d0"] for r in records)


def test_orbit_massless(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--kappa", "0", "--pmax", "2",
                           "-n", "4", "--seed", "13")
    assert code == 0
    for line in out.strip().split("\n"):
        rec = json.loads(line)
        assert rec["kappa"] == 0.0
        assert abs(rec["residuals"]["r2"]) < 1e-9


def test_orbit_massless_without_window_is_rejected(capsys):
    code, out, err = run_cli(capsys, "orbit", "--kappa", "0", "-n", "2")
    assert code == 2 and out == "" and err != ""


def test_orbit_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("DS4_SEED", "77")
    _, via_env, _ = run_cli(capsys, "orbit", "-n", "2")
    monkeypatch.delenv("DS4_SEED")
    _, explicit, _ = run_cli(capsys, "orbit", "-n", "2", "--seed", "77")
    assert via_env == explicit


# ---------------------------------------------------------------------------
# contract

def test_contract_rest_defects_vanish(capsys):
    code, out, _ = run_cli(capsys, "contract", "--p", "0,0,0", "--q", "0,0,0",
                           "--steps", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "R,E,mass_shell_defect"
    assert lines[-1].startswith("# slope=")
    for line in lines[1:-1]:
        r, e, defect = line.split(",")
        assert float(defect) == 0.0
        assert float(e) == 1.0


def test_contract_default_slope(capsys):
    code, out, _ = run_cli(capsys, "contract")
    assert code == 0
    slope_line = out.strip().split("\n")[-1]
    slope = float(slope_line.removeprefix("# slope="))
    assert abs(slope + 2.0) < 0.05


def test_contract_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "contract", "--steps", "4")
    lines = out.strip().split("\n")
    assert code == 0 and len(lines) == 6  # header + 4 rows + slope comment
    for line in lines[1:-1]:
        assert len(line.split(",")) == 3


def test_contract_json_format(capsys):
    code, out, _ = run_cli(capsys, "contract", "--steps", "3", "--format", "json")
    assert code == 0
    lines = out.strip().split("\n")
    rows = [json.loads(line) for line in lines]
    assert all(set(r) == {"R", "E", "mass_shell_defect"} for r in rows[:-1])
    assert set(rows[-1]) == {"slope"}


def test_contract_undefined_slope_spellings(capsys):
    # p = q = 0 leaves every defect zero, so no slope is defined
    argv = ("contract", "--p", "0,0,0", "--q", "0,0,0")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    rows = [json.loads(line, parse_constant=_reject_constant) for line in out.splitlines()]
    assert rows[-1] == {"slope": None}
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out.splitlines()[-1] == "# slope=nan"


def test_contract_massless_particle_at_rest(capsys):
    # m = 0 and p = 0 make E^2 exactly 0: every row is (R, 0, 0) and no slope is defined
    argv = ("contract", "--m", "0", "--p", "0,0,0", "--steps", "3")
    code, out, err = run_cli(capsys, *argv)
    lines = out.splitlines()
    assert (code, err, lines[0], lines[-1]) == (0, "", "R,E,mass_shell_defect", "# slope=nan")
    assert [line.split(",")[1:] for line in lines[1:-1]] == [["0.0", "0.0"]] * 3
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    rows = [json.loads(line, parse_constant=_reject_constant) for line in out.splitlines()]
    assert code == 0 and rows[-1] == {"slope": None}
    assert [(r["E"], r["mass_shell_defect"]) for r in rows[:-1]] == [(0.0, 0.0)] * 3
    # with m > 0, an energy that underflows to 0 is still no positive root
    code, out, err = run_cli(capsys, "contract", "--m", "1e-200", "--p", "0,0,0", "--steps", "3")
    assert (code, out) == (2, "") and "no positive energy root" in err
    # and so is a moving massless particle's, E = c|p| = 1e-300
    code, out, err = run_cli(capsys, "contract", "--m", "0", "--c", "1e-300", "--p", "1,0,0")
    assert (code, out) == (2, "") and "no positive energy root" in err


def test_contract_overflow_message(capsys):
    # a Python float's c**2 overflows here and raised OverflowError with errno text
    for argv in (("--c", "1e200"), ("--m", "1e200", "--steps", "3")):
        code, out, err = run_cli(capsys, "contract", *argv)
        assert (code, out, err) == (2, "", "ds4 contract: the inputs are too large for float64\n")


def test_orbit_overflow_message(capsys):
    # each line ended in internal text: a Python float's kappa**2 errno text,
    # the shape defect of a NaN orbit matrix, and p_max = 5 kappa = inf
    for argv in (("--kappa", "1e300", "--pmax", "1", "-n", "2"), ("--kappa", "1e154", "-n", "1"),
                 ("--kappa", "1", "--pmax", "1e308", "-n", "2", "--seed", "3"),
                 ("--kappa", "1e308", "-n", "1")):
        code, out, err = run_cli(capsys, "orbit", *argv)
        assert (code, out, err) == (2, "", "ds4 orbit: kappa or the momentum window is too large for float64\n")


def test_huge_counts_exit_two(capsys, monkeypatch):
    # numpy refuses an array that does not fit with MemoryError; no test asks for one
    def refuse(*args, **kwargs):
        raise MemoryError
    with monkeypatch.context() as m:
        m.setattr(batch, "random_unit", refuse)
        code, out, err = run_cli(capsys, "orbit", "-n", "1000000000000")
    assert (code, out, err) == (2, "", "ds4 orbit: 1000000000000 samples do not fit in memory\n")
    with monkeypatch.context() as m:
        m.setattr(np, "logspace", refuse)
        code, out, err = run_cli(capsys, "contract", "--steps", "1000000000000")
    assert (code, out, err) == (2, "", "ds4 contract: 1000000000000 steps do not fit in memory\n")


def test_contract_determinism(capsys):
    _, first, _ = run_cli(capsys, "contract")
    _, second, _ = run_cli(capsys, "contract")
    assert first == second


def test_contract_bad_grid_exits_two(capsys):
    code, out, err = run_cli(capsys, "contract", "--rmin", "100", "--rmax", "10")
    assert code == 2 and out == "" and err != ""
    code, _, _ = run_cli(capsys, "contract", "--steps", "1")
    assert code == 2


def test_contract_bad_triple_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["contract", "--p", "1,2"])
    assert err.value.code == 2
