import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import ds4
from ds4.gamma import (
    DSPoint,
    ETA,
    QMat2,
    anticommutator,
    gamma,
    minkowski_square,
    origin,
    slash,
    unslash,
)
from ds4.quaternion import E2, ONE, ZERO, Quaternion
from oracles import gamma_lower, random_quaternion, slash_via_summation, unslash_via_traces


def test_gamma_block_forms():
    assert gamma(0) == QMat2(ONE, ZERO, ZERO, -ONE)
    assert gamma(4) == QMat2(ZERO, ONE, -ONE, ZERO)
    assert gamma(2) == QMat2(ZERO, E2, E2, ZERO)


def test_gamma_index_range():
    with pytest.raises(ValueError):
        gamma(5)
    with pytest.raises(ValueError):
        gamma(-1)


def test_gamma_lower_signs():
    assert gamma_lower(0) == gamma(0)
    for a in range(1, 5):
        assert (gamma_lower(a) + gamma(a)).max_norm() == 0.0


def test_clifford_table_exact():
    ident = np.eye(4)
    for a in range(5):
        for b in range(5):
            lhs = anticommutator(a, b).embed()
            want = 2.0 * ETA[a] * ident if a == b else np.zeros((4, 4))
            assert np.array_equal(lhs, want), (a, b)


def test_anticommutator_examples():
    assert (anticommutator(0, 0) - QMat2.identity().scale(2.0)).max_norm() == 0.0
    assert (anticommutator(1, 1) + QMat2.identity().scale(2.0)).max_norm() == 0.0
    assert anticommutator(0, 4).max_norm() == 0.0


def test_dagger_identities():
    for a in range(5):
        assert np.array_equal(gamma(a).dagger(), gamma(0) @ gamma(a) @ gamma(0)), a


def test_qmat2_dagger_properties():
    rng = np.random.default_rng(21)
    for _ in range(100):
        M = QMat2(*(random_quaternion(rng) for _ in range(4)))
        N = QMat2(*(random_quaternion(rng) for _ in range(4)))
        assert (M.dagger().dagger() - M).max_norm() == 0.0
        assert ((M @ N).dagger() - N.dagger() @ M.dagger()).max_norm() < 1e-14


def test_matmul_is_bitwise_the_term_by_term_product():
    rng = np.random.default_rng(22)
    signed_zeros = QMat2(Quaternion(-0.0, 0.0, -0.0, 1.0), ZERO, -ONE, Quaternion(0.0, -0.0, 2.0, -0.0))
    ms = [QMat2(*(random_quaternion(rng, 3.0) for _ in range(4))) for _ in range(200)]
    ms += [gamma(a) for a in range(5)] + [signed_zeros]
    pairs = list(zip(ms, ms[1:] + ms[:1])) + [(m, n) for m in ms[-6:] for n in ms[-6:]]
    for m, n in pairs:
        want = QMat2(m.a * n.a + m.b * n.c, m.a * n.b + m.b * n.d,
                     m.c * n.a + m.d * n.c, m.c * n.b + m.d * n.d)
        assert np.array(m @ n).tobytes() == np.array(want).tobytes()


def test_slash_origin_blocks():
    R = 2.5
    m = slash(origin(R).x)
    assert m.a == ZERO and m.d == ZERO
    assert m.b == Quaternion(-R, 0.0, 0.0, 0.0)
    assert m.c == Quaternion(R, 0.0, 0.0, 0.0)
    # independent route: lower-index contraction in the embedding
    assert np.abs(m.embed() - slash_via_summation(origin(R).x)).max() == 0.0


def test_slash_unit_time_vector():
    m = slash([1.0, 0.0, 0.0, 0.0, 0.0])
    assert (m - gamma(0)).max_norm() == 0.0


def test_slash_matches_summation_oracle():
    rng = np.random.default_rng(22)
    for _ in range(200):
        x = rng.uniform(-3.0, 3.0, 5)
        assert np.abs(slash(x).embed() - slash_via_summation(x)).max() < 1e-14


def test_unslash_roundtrip():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(-5.0, 5.0, 5)
        worst = max(worst, np.abs(unslash(slash(x)) - x).max())
    assert worst < 1e-13


def test_unslash_examples():
    assert np.array_equal(unslash(slash([1.0, 2.0, 3.0, 4.0, 5.0])),
                          [1.0, 2.0, 3.0, 4.0, 5.0])
    assert np.array_equal(unslash(gamma(0)), [1.0, 0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(unslash(QMat2(ZERO, ZERO, ZERO, ZERO)), np.zeros(5))


def test_unslash_matches_trace_oracle():
    rng = np.random.default_rng(24)
    for _ in range(100):
        x = rng.uniform(-2.0, 2.0, 5)
        m = slash(x)
        assert np.abs(unslash(m) - unslash_via_traces(m.embed())).max() < 1e-14


def test_unslash_rejects_off_image():
    with pytest.raises(ValueError):
        unslash(QMat2.identity())  # diagonal blocks with equal sign
    # a NaN in any of the 16 components; max would drop all but the first
    with pytest.raises(ValueError, match="defect nan"):
        unslash(QMat2(Quaternion(1.0, np.nan, 0.0, 0.0), ZERO, ZERO, -ONE))
    m = slash([0.5, 0.1, -0.2, 0.3, 1.2])
    flat = [c for q in m for c in q]
    for k in range(16):
        v = flat[:k] + [np.nan] + flat[k + 1:]
        with pytest.raises(ValueError, match="defect nan"):
            unslash(QMat2(*(Quaternion(*v[i:i + 4]) for i in range(0, 16, 4))))
    # the slash-image tolerance, 1e-10 of max(1, max-norm), here 1.2
    unslash(m._replace(a=m.a._replace(x=0.5e-10 * 1.2)))
    with pytest.raises(ValueError, match="slash image"):
        unslash(m._replace(a=m.a._replace(x=2e-10 * 1.2)))


def test_det_matches_square_of_quadratic_form():
    rng = np.random.default_rng(25)
    for _ in range(300):
        x = rng.uniform(-3.0, 3.0, 5)
        det = np.linalg.det(slash(x).embed())
        target = minkowski_square(x) ** 2
        assert abs(det.imag) < 1e-10 * max(1.0, abs(target))
        assert abs(det.real - target) < 1e-10 * max(1.0, abs(target))


def test_minkowski_square_signature():
    assert minkowski_square([1, 0, 0, 0, 0]) == 1.0
    for k in range(1, 5):
        x = np.zeros(5)
        x[k] = 1.0
        assert minkowski_square(x) == -1.0


def test_ds_point_validation():
    p = origin(3.0)
    assert minkowski_square(p.x) == pytest.approx(-9.0)
    with pytest.raises(ValueError):
        DSPoint(np.array([0.0, 0.0, 0.0, 0.0, 1.0]), 2.0)
    with pytest.raises(ValueError):
        DSPoint(np.zeros(4), 1.0)
    with pytest.raises(ValueError):
        DSPoint(np.zeros(5), -1.0)
    for x, R, why in (([np.nan] * 5, np.nan, "radius"), (p.x, np.nan, "radius"),
                      ([np.nan, 0.0, 0.0, 0.0, 3.0], 3.0, "hyperboloid"),
                      (np.zeros(5), np.inf, "finite"), ([0.0, 0.0, 0.0, 0.0, 1e300], 1e300, "too large"),
                      (np.zeros(5), np.float64(1e300), "too large")):
        with pytest.raises(ValueError, match=why):
            DSPoint(np.array(x), R)
    # tolerance is relative to R^2, so large radii accept the same
    # relative defect that small radii do
    R = 1e6
    x = np.array([0.0, 0.0, 0.0, 0.0, R * (1.0 + 1e-12)])
    DSPoint(x, R)


def test_only_matmul_expands_the_block_product():
    # the 2x2 block product is written once, in gamma._matmul; the one other
    # _mul_add call is tr(N^2)/4 in algebra._expm, a single entry of N^2
    calls, lines, written = Counter(), [], 0
    for path in Path(ds4.__file__).parent.glob("*.py"):
        text = path.read_text()
        written += text.count("_mul_add(")
        for fn in ast.walk(ast.parse(text)):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_mul_add":
                        calls[f"{path.stem}.{fn.name}"] += 1
                        lines.append(text.splitlines()[node.lineno - 1])
    assert calls == {"gamma._matmul": 4, "algebra._expm": 1}
    assert sum("tr(N^2)/4" in line for line in lines) == 1
    assert written == 6  # the five calls and the definition in ds4.quaternion
