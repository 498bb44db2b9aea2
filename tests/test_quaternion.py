import math

import numpy as np
import pytest

from ds4.quaternion import (
    E1,
    E2,
    E3,
    ONE,
    Quaternion,
    embed,
    ensure_pure_unit,
    ensure_unit,
    random_unit,
    sqrt_unit,
)
from oracles import extract, mul_via_embedding, random_quaternion


def test_identity_element():
    q = Quaternion(0.3, -1.2, 0.5, 2.0)
    assert ONE * q == q
    assert q * ONE == q


def test_basis_products_match_embedding():
    # e1 e1 = -1 and e1 e2 = e3, both checked against the complex oracle
    assert E1 * E1 == Quaternion(-1.0, 0.0, 0.0, 0.0)
    assert E1 * E2 == E3
    for q1, q2 in [(E1, E1), (E1, E2), (E2, E3), (E3, E1), (E2, E1)]:
        direct = q1 * q2
        via = mul_via_embedding(q1, q2)
        assert max(abs(a - b) for a, b in zip(direct, via)) < 1e-15


def test_conjugation():
    assert ONE.conj() == ONE
    assert E2.conj() == -E2
    q = Quaternion(1.5, -0.2, 0.7, 0.1)
    prod = q * q.conj()
    assert prod.s == pytest.approx(q.norm2(), rel=1e-15)
    assert abs(prod.x) < 1e-15 and abs(prod.y) < 1e-15 and abs(prod.z) < 1e-15


def test_conj_antihomomorphism():
    rng = np.random.default_rng(11)
    for _ in range(200):
        q1, q2 = random_quaternion(rng), random_quaternion(rng)
        lhs = (q1 * q2).conj()
        rhs = q2.conj() * q1.conj()
        assert (lhs - rhs).max_abs() < 1e-14


def test_norm_multiplicativity():
    rng = np.random.default_rng(12)
    for _ in range(500):
        q1, q2 = random_quaternion(rng, 3.0), random_quaternion(rng, 3.0)
        lhs = (q1 * q2).norm()
        rhs = q1.norm() * q2.norm()
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, rhs)


def test_associativity():
    rng = np.random.default_rng(13)
    for _ in range(500):
        q1, q2, q3 = (random_quaternion(rng, 2.0) for _ in range(3))
        lhs = (q1 * q2) * q3
        rhs = q1 * (q2 * q3)
        scale = max(1.0, q1.norm() * q2.norm() * q3.norm())
        assert (lhs - rhs).max_abs() <= 1e-13 * scale


def test_embedding_is_homomorphism():
    rng = np.random.default_rng(14)
    for _ in range(300):
        q1, q2 = random_quaternion(rng), random_quaternion(rng)
        lhs = embed(q1 * q2)
        rhs = embed(q1) @ embed(q2)
        assert np.abs(lhs - rhs).max() < 1e-13


def test_embedding_basis():
    assert np.array_equal(embed(ONE), np.eye(2))
    sigma3 = np.array([[1.0, 0.0], [0.0, -1.0]])
    assert np.array_equal(embed(E3), 1j * sigma3)


def test_extract_roundtrip():
    rng = np.random.default_rng(15)
    for _ in range(1000):
        q = random_quaternion(rng, 5.0)
        back = extract(embed(q))
        assert np.abs(np.array(q) - back).max() < 1e-14 * max(1.0, q.norm())


def test_extract_rejects_non_image():
    bad = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    with pytest.raises(ValueError):
        extract(bad)


def test_sqrt_unit_conventions():
    assert sqrt_unit(ONE) == ONE
    # e1 has angle pi/2, so the root sits at pi/4
    r = sqrt_unit(E1)
    assert r.s == pytest.approx(math.cos(math.pi / 4), abs=1e-15)
    assert r.x == pytest.approx(math.sin(math.pi / 4), abs=1e-15)
    assert (r * r - E1).max_abs() < 1e-15
    # the axis of -1 is undefined; the fixed convention picks e1
    minus_one = Quaternion(-1.0, 0.0, 0.0, 0.0)
    assert sqrt_unit(minus_one) == E1
    assert E1 * E1 == minus_one


def test_sqrt_unit_squares_back():
    rng = np.random.default_rng(16)
    worst = 0.0
    for _ in range(1000):
        z = random_unit(rng)
        w = sqrt_unit(z)
        assert w.s >= 0.0  # canonical branch
        worst = max(worst, (w * w - z).max_abs())
    assert worst < 1e-12


def test_ensure_unit():
    q = Quaternion(1.0 + 3e-10, 0.0, 0.0, 0.0)
    assert ensure_unit(q).norm() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        ensure_unit(Quaternion(1.1, 0.0, 0.0, 0.0))
    # the one unit tolerance 1e-9, which batch.unit, and orbits.orbit_matrix through it, read too
    ensure_unit(Quaternion(1.0 - 0.5e-9, 0.0, 0.0, 0.0))
    for e in (2e-9, -2e-9):
        with pytest.raises(ValueError, match="not a unit quaternion"):
            ensure_unit(Quaternion(1.0 + e, 0.0, 0.0, 0.0))
    for q in (Quaternion(math.nan, 0.0, 0.0, 0.0), Quaternion(1.0, 0.0, math.nan, 0.0)):
        with pytest.raises(ValueError):
            ensure_unit(q)
        with pytest.raises(ValueError):
            sqrt_unit(q)


def test_ensure_pure_unit():
    u = ensure_pure_unit(Quaternion(0.0, 0.0, 1.0 + 1e-10, 0.0))
    assert u.s == 0.0
    assert abs(math.hypot(u.x, u.y, u.z) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        ensure_pure_unit(Quaternion(0.5, 0.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        ensure_pure_unit(Quaternion(0.0, 0.0, 2.0, 0.0))
    for e in (0.5e-9, -0.5e-9):  # the unit tolerance 1e-9 bounds both parts
        ensure_pure_unit(Quaternion(e, 0.0, 1.0 + e, 0.0))
    for e in (2e-9, -2e-9):
        with pytest.raises(ValueError, match="vector part not unit"):
            ensure_pure_unit(Quaternion(0.0, 0.0, 1.0 + e, 0.0))
        with pytest.raises(ValueError, match="not a pure vector"):
            ensure_pure_unit(Quaternion(e, 0.0, 1.0, 0.0))
    for u in (Quaternion(math.nan, 0.0, 1.0, 0.0), Quaternion(0.0, 0.0, math.nan, 0.0)):
        with pytest.raises(ValueError):
            ensure_pure_unit(u)
