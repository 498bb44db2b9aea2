import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ds4
from ds4 import algebra, batch, gamma, orbits
from ds4.algebra import (
    GENERATOR_LABELS,
    K_INDEX,
    AlgebraElement,
    bracket,
    exp,
    from_coords,
    generator,
    k_generator,
    random_element,
    shape_residual,
    slash_induced_matrix,
    so14_matrix,
    structure_rhs,
    to_coords,
)
from ds4.gamma import ETA, QMat2, embed_blocks
from ds4.group import is_member, t_boost, t_space_rotation, t_space_translation, t_time_translation
from ds4.quaternion import E1, E2, E3, ONE, ZERO, Quaternion
from oracles import expm_tolerance, expm_via_pade, expm_via_taylor, squarings, structure_rhs_oracle

_PLANES = [(a, b) for a in range(5) for b in range(a + 1, 5)]


# ---------------------------------------------------------------------------
# generators and the K labeling

def test_generator_matrices():
    half = 0.5
    assert generator("X0").m == QMat2(ZERO, ONE.scale(half), ONE.scale(half), ZERO)
    assert generator("Y2").m == QMat2(E2.scale(half), ZERO, ZERO, E2.scale(half))
    assert generator("Z1").m == QMat2(ZERO, E1.scale(half), E1.scale(-half), ZERO)
    assert generator("X3").m == QMat2(E3.scale(half), ZERO, ZERO, E3.scale(-half))


def test_generator_unknown_label():
    with pytest.raises(ValueError):
        generator("W1")


def test_k_generator_labeling():
    assert (k_generator(0, 4).m - generator("X0").m).max_norm() == 0.0
    assert (k_generator(1, 2).m - generator("Y3").m).max_norm() == 0.0
    assert (k_generator(4, 1).m - generator("X1").m).max_norm() == 0.0
    assert (k_generator(1, 4).m + generator("X1").m).max_norm() == 0.0
    for a, b in _PLANES:
        assert (k_generator(a, b).m + k_generator(b, a).m).max_norm() == 0.0
    with pytest.raises(ValueError):
        k_generator(2, 2)


# ---------------------------------------------------------------------------
# brackets

def test_bracket_examples():
    x1, y1 = generator("X1"), generator("Y1")
    assert bracket(x1, y1).m.max_norm() == 0.0
    x0 = generator("X0")
    for k in range(1, 4):
        zk, xk = generator(f"Z{k}"), generator(f"X{k}")
        assert (bracket(x0, zk).m + xk.m).max_norm() == 0.0  # [X0, Zk] = -Xk
    # the rotation sector closes cyclically: [Y1, Y2] = +Y3 by direct
    # block multiplication, in step with the structure-constant table
    got = bracket(generator("Y1"), generator("Y2"))
    assert (got.m - generator("Y3").m).max_norm() == 0.0


_QZERO = QMat2(ZERO, ZERO, ZERO, ZERO)


def _k_qmat(p, q):
    return _QZERO if p == q else k_generator(p, q).m


def _k_so14(p, q):
    return np.zeros((5, 5), dtype=int) if p == q else so14_matrix(p, q)


def test_full_bracket_table_quaternionic():
    worst = 0.0
    for i, (a, b) in enumerate(_PLANES):
        for (r, d) in _PLANES[i:]:
            lhs = bracket(k_generator(a, b), k_generator(r, d)).m
            rhs = structure_rhs_oracle(a, b, r, d, _k_qmat, _QZERO)
            worst = max(worst, (lhs - rhs).max_norm())
    assert worst < 1e-12


def test_bracket_closure_on_random_elements():
    rng = np.random.default_rng(51)
    for _ in range(200):
        X, Y = random_element(rng), random_element(rng)
        Z = bracket(X, Y)  # raises if the shape check fails
        assert shape_residual(Z.m) <= 1e-11 * max(1.0, Z.m.max_norm())


# ---------------------------------------------------------------------------
# coordinates

def test_from_coords_base_cases():
    elt = from_coords((0, 0, 0), (0, 0, 0), 1.0, (0, 0, 0))
    assert (elt.m - generator("X0").m.scale(2.0)).max_norm() == 0.0
    assert from_coords((0, 0, 0), (0, 0, 0), 0.0, (0, 0, 0)).m.max_norm() == 0.0
    for bad in ((1.0,), (0, 0, 0, 0)):  # a length-1 a once broadcast against j
        for args in ((bad, (0, 0, 0), 0.0, (0, 0, 0)), ((0, 0, 0), (0, 0, 0), 0.0, bad)):
            with pytest.raises(ValueError):
                from_coords(*args)


def test_coords_roundtrip():
    # the d0/d channel is copied verbatim and must survive exactly; the a/j
    # channel mixes sums and differences, so it rounds at the last ulp
    rng = np.random.default_rng(52)
    for _ in range(1000):
        c = rng.uniform(-5.0, 5.0, 10)
        a, j, d0, d = to_coords(from_coords(c[0:3], c[3:6], c[6], c[7:10]))
        assert d0 == c[6] and np.array_equal(d, c[7:10])
        assert np.abs(a - c[0:3]).max() <= 4e-16 * np.abs(c).max()
        assert np.abs(j - c[3:6]).max() <= 4e-16 * np.abs(c).max()


def test_coords_match_generator_expansion():
    rng = np.random.default_rng(53)
    c = rng.uniform(-1.0, 1.0, 10)
    elt = from_coords(c[0:3], c[3:6], c[6], c[7:10])
    acc = _QZERO
    coeffs = {"X1": c[0], "X2": c[1], "X3": c[2], "Y1": c[3], "Y2": c[4],
              "Y3": c[5], "X0": c[6], "Z1": c[7], "Z2": c[8], "Z3": c[9]}
    for lab, coeff in coeffs.items():
        acc = acc + generator(lab).m.scale(2.0 * coeff)
    assert (elt.m - acc).max_norm() < 1e-15


def test_shape_check_rejects_off_shape():
    with pytest.raises(ValueError):
        AlgebraElement.from_qmat(QMat2.identity())
    X = from_coords([0.1, 0.2, 0.3], [0.4, 0.5, 0.6], 0.7, [0.8, 0.9, 1.0]).m  # max-norm 1
    m = np.reshape(X, 16)
    for k in range(16):  # a NaN fails wherever it sits, diagonal vector parts included
        bad = m.copy()
        bad[k] = np.nan
        bad = QMat2(*map(Quaternion._make, bad.reshape(4, 4).tolist()))
        with pytest.raises(ValueError, match="algebra shape"):
            AlgebraElement.from_qmat(bad)
        # the residual holds a NaN in a.s, b, c or d.s, which it constrains
        assert math.isnan(shape_residual(bad)) == (k in (0, *range(4, 13)))
    # the one shape tolerance, 1e-12 of max(1, max-norm), read by the array route too
    for scale in (1.0, 100.0):
        m = X.scale(scale)
        AlgebraElement.from_qmat(m._replace(a=m.a._replace(s=0.5e-12 * scale)))
        with pytest.raises(ValueError, match="algebra shape"):
            AlgebraElement.from_qmat(m._replace(a=m.a._replace(s=2e-12 * scale)))


# ---------------------------------------------------------------------------
# the 5x5 realization

def test_so14_eta_antisymmetry():
    eta = np.diag(ETA)
    for a, b in _PLANES:
        K = so14_matrix(a, b)
        etaK = eta @ K
        assert np.array_equal(etaK, -etaK.T)


def test_so14_bracket_table_exact():
    for i, (a, b) in enumerate(_PLANES):
        for (r, d) in _PLANES[i:]:
            Ka, Kb = so14_matrix(a, b), so14_matrix(r, d)
            lhs = Ka @ Kb - Kb @ Ka
            rhs = structure_rhs_oracle(a, b, r, d, _k_so14,
                                       np.zeros((5, 5), dtype=int))
            assert np.array_equal(lhs, rhs), (a, b, r, d)


def _refusing_equal_indices(k_of):
    def k(p, q):
        if p == q:
            raise AssertionError(f"k_of called at equal indices ({p}, {q})")
        return k_of(p, q)
    return k


def test_structure_rhs_calls_k_only_at_distinct_indices():
    # every ordered pair of planes, a plane with itself and with its reverse
    # included, so that some terms are K_{alpha alpha} and some sums are empty
    planes = [(a, b) for a in range(5) for b in range(5) if a != b]
    k_qmat = _refusing_equal_indices(lambda p, q: k_generator(p, q).m)
    k_so14 = _refusing_equal_indices(so14_matrix)
    for a, b in planes:
        for r, d in planes:
            want = structure_rhs_oracle(a, b, r, d, _k_qmat, _QZERO)
            assert np.array_equal(structure_rhs(a, b, r, d, k_qmat), want), (a, b, r, d)
            want = structure_rhs_oracle(a, b, r, d, _k_so14, np.zeros((5, 5), dtype=int))
            assert np.array_equal(structure_rhs(a, b, r, d, k_so14), want), (a, b, r, d)


def test_so14_time_generator_at_origin():
    # K_{04} moves the base point along the time axis; the sign is part of
    # the documented convention (positive with the axis signs used here)
    R = 2.0
    x = np.array([0.0, 0.0, 0.0, 0.0, R])
    assert np.array_equal(so14_matrix(0, 4) @ x, [R, 0.0, 0.0, 0.0, 0.0])


def test_so14_invalid_plane():
    with pytest.raises(ValueError):
        so14_matrix(1, 1)
    with pytest.raises(ValueError):
        so14_matrix(0, 5)


# ---------------------------------------------------------------------------
# the quaternionic <-> 5x5 bridge

def test_homomorphism_per_generator():
    for lab in GENERATOR_LABELS:
        L = slash_induced_matrix(generator(lab))
        assert np.abs(L - so14_matrix(*K_INDEX[lab])).max() < 1e-12, lab


def test_homomorphism_scale_is_unity():
    # the proportionality constant between the slash-induced matrices and
    # the 5x5 family, measured on a generator with a nonzero entry
    L = slash_induced_matrix(generator("X0"))
    K = so14_matrix(*K_INDEX["X0"])
    idx = np.unravel_index(np.abs(K).argmax(), K.shape)
    assert L[idx] / K[idx] == 1.0


def test_slash_induced_linearity():
    rng = np.random.default_rng(54)
    X, Y = random_element(rng), random_element(rng)
    lhs = slash_induced_matrix(AlgebraElement(X.m + Y.m))
    rhs = slash_induced_matrix(X) + slash_induced_matrix(Y)
    assert np.abs(lhs - rhs).max() < 1e-13


def test_bracket_intertwining():
    for i, l1 in enumerate(GENERATOR_LABELS):
        for l2 in GENERATOR_LABELS[i + 1:]:
            G1, G2 = generator(l1), generator(l2)
            L1, L2 = slash_induced_matrix(G1), slash_induced_matrix(G2)
            left = slash_induced_matrix(bracket(G1, G2))
            assert np.abs(left - (L1 @ L2 - L2 @ L1)).max() < 1e-12, (l1, l2)


# ---------------------------------------------------------------------------
# exponential map

def test_exp_zero_is_identity():
    zero = from_coords((0, 0, 0), (0, 0, 0), 0.0, (0, 0, 0))
    assert (exp(zero).m - QMat2.identity()).max_norm() < 1e-15


def test_exp_reproduces_one_parameter_subgroups():
    # each generator integrates to its subgroup in the natural parameter
    params = (-1.5, -0.4, 0.0, 0.8, 2.0)
    es = (E1, E2, E3)
    for t in params:
        assert (exp(generator("X0"), t).m - t_time_translation(t).m).max_norm() < 1e-11
        half = Quaternion(math.cos(0.5 * t), 0.0, 0.0, 0.0)
        for k in range(1, 4):
            wk = half + es[k - 1].scale(math.sin(0.5 * t))
            assert (exp(generator(f"X{k}"), t).m
                    - t_space_translation(wk).m).max_norm() < 1e-11
            assert (exp(generator(f"Y{k}"), t).m
                    - t_space_rotation(wk).m).max_norm() < 1e-11
            assert (exp(generator(f"Z{k}"), t).m
                    - t_boost(t, es[k - 1]).m).max_norm() < 1e-11


def test_exp_group_law():
    rng = np.random.default_rng(55)
    for _ in range(50):
        X = random_element(rng)
        s, t = rng.uniform(-2.0, 2.0, 2)
        lhs = exp(X, s).m @ exp(X, t).m
        rhs = exp(X, s + t).m
        assert (lhs - rhs).max_norm() < 1e-10


def test_exp_derivative_at_zero():
    rng = np.random.default_rng(56)
    h = 1e-5
    for _ in range(20):
        X = random_element(rng)
        diff = (exp(X, h).m - exp(X, -h).m).scale(1.0 / (2.0 * h))
        assert (diff - X.m).max_norm() < 1e-9


def test_exp_lands_in_the_group():
    rng = np.random.default_rng(57)
    for _ in range(100):
        rep = is_member(exp(random_element(rng)), 1e-10)
        assert rep.passed


def test_invariants_at_the_orbit_seeds():
    # X^2 = sigma I + N, N^2 = rho I: (1, 0) on the scalar seed 2 X0, where
    # X^2 = I, and (0.75, -1) on the spinning seed 2 X0 + Y3, where N = (0, e3; e3, 0)
    x0, y3 = generator("X0").m.scale(2.0), generator("Y3").m
    for X, want in ((x0, (1.0, 0.0)), (x0 + y3, (0.75, -1.0))):
        sigma, _, rho = algebra._invariants(gamma._matmul(X, X))
        assert (sigma, rho) == want


def test_invariants_square_to_rho():
    # With s = max(1, max |X^2| component), a block of N has norm at most 2 s.  A
    # component of N^2, or rho, sums at most 12 products whose sizes add to at
    # most 2 |N|^2 <= 8 s^2, so it is within 12 (EPS/2) 8 s^2 = 48 EPS s^2 of the
    # exact value for the computed N; N's own rounding in X^2 - sigma I adds a few
    # EPS s^2.  64 EPS s^2 bounds both; the worst seen over 2000 draws is 2.6 EPS s^2.
    rng = np.random.default_rng(58)
    for _ in range(200):
        X = random_element(rng)
        x2 = gamma._matmul(X.m, X.m)
        sigma, N, rho = algebra._invariants(x2)
        err = np.array(gamma._matmul(N, N)) - rho * np.array([ONE, ZERO, ZERO, ONE])
        assert np.abs(err).max() <= 64 * np.finfo(float).eps * max(1.0, np.abs(x2).max()) ** 2


def _scalar_expm(m) -> np.ndarray:
    """algebra._expm, the uncertified scalar core, on each of a stack of blocks."""
    m = np.asarray(m)
    out = [np.reshape(algebra._expm(a.reshape(4, 4).tolist()), (2, 2, 4)) for a in m.reshape(-1, 2, 2, 4)]
    return np.reshape(out, m.shape)


def _assert_expm_within_tolerance(m):
    """Both routes' exp of a stack m against scipy's, relative to its largest entry."""
    m = np.asarray(m, dtype=float)
    want = expm_via_pade(embed_blocks(m))
    tol = expm_tolerance(m)
    for got in (batch._expm(m), _scalar_expm(m)):
        err = np.abs(embed_blocks(got) - want).max(axis=(-2, -1)) / np.abs(want).max(axis=(-2, -1))
        assert (err <= tol).all(), (err / tol).max()


def _expm_cases() -> list[np.ndarray]:
    """Stacks of random elements at the Taylor oracle's scaling threshold and
    scaled x1, x10 and x40, and one of the zero matrix and the ten
    generators at t = +-2."""
    rng = np.random.default_rng(59)
    raw = np.array([np.reshape(random_element(rng).m, (2, 2, 4)) for _ in range(4 * 64)])
    raw = raw.reshape(4, 64, 2, 2, 4)
    threshold = raw[0] * (0.5 / np.abs(raw[0]).max(axis=(-3, -2, -1)))[:, None, None, None]
    special = [np.zeros((2, 2, 4))]
    special += [np.reshape(generator(lab).m.scale(t), (2, 2, 4))
                for lab in GENERATOR_LABELS for t in (-2.0, 2.0)]
    return [threshold, raw[1], 10.0 * raw[2], 40.0 * raw[3], np.array(special)]


def test_expm_against_scipy():
    # compared in the complex embedding, on scipy's Pade exponential there;
    # measured: a worst err/tol of 0.041 on the two routes
    cases = _expm_cases()
    assert squarings(cases[0]).max() <= 1 and squarings(cases[3]).max() >= 5
    for m in cases:
        _assert_expm_within_tolerance(m)


def test_expm_against_the_taylor_oracle():
    # a second, scipy-free oracle: both sit within expm_tolerance of exp
    for m in _expm_cases():
        want = expm_via_taylor(m)
        scale = np.abs(want).max(axis=(-3, -2, -1))
        for got in (batch._expm(m), _scalar_expm(m)):
            assert (np.abs(got - want).max(axis=(-3, -2, -1)) <= 2.0 * expm_tolerance(m) * scale).all()


def test_expm_single_matrix_equals_its_stacked_row():
    for m in _expm_cases():
        stacked = batch._expm(m)
        for a, row in zip(m, stacked):
            assert np.array_equal(batch._expm(a), row)


# Elements whose roots s_1, s_2 meet, vanish or nearly meet, where a closed
# form of the divided differences would cancel: each family goes through the
# branches of _exp_coefficients and must meet expm_tolerance on both routes.

def _blocks(X) -> np.ndarray:
    return np.reshape(getattr(X, "m", X), (2, 2, 4))


_X0, _Y3, _X3 = (_blocks(generator(lab)) for lab in ("X0", "Y3", "X3"))


def test_exp_of_generators_with_equal_roots():
    _assert_expm_within_tolerance([t * _blocks(generator(lab))
                                   for lab in GENERATOR_LABELS for t in (-2.0, -0.5, 0.5, 2.0)])


@pytest.mark.parametrize("kappa, p_max", [(0.0, 2.0), (0.1, 0.5), (1.0, 5.0), (10.0, 50.0)])
def test_exp_of_orbit_elements(kappa, p_max):
    # X^2 = kappa^2 I: equal roots, or X^2 = 0 on the massless orbit
    _assert_expm_within_tolerance(orbits.orbit_matrix(*orbits.sample_orbit(kappa, 64, p_max, 61)))


def test_exp_of_commuting_boost_and_rotation():
    # 2 X0 + 2 s Y3 has the complex pair of roots (1 +- i s)^2
    _assert_expm_within_tolerance([2.0 * _X0 + 2.0 * s * _Y3 for s in (1e-8, 1e-3, 0.5, 2.0)])


def test_exp_of_a_null_rotation_and_a_commuting_rotation():
    # Z1 + Y3 is a null rotation (its square is 0) and commutes with X3, so
    # X = a (Z1 + Y3) + theta X3 has equal roots -theta^2/4 while N = X^2 -
    # sigma I is of size a theta: the divided differences meet at a small
    # root, where only the series does not cancel
    nil = _blocks(generator("Z1")) + _blocks(generator("Y3"))
    _assert_expm_within_tolerance([a * nil + th * _X3 for a in (1.0, 10.0)
                                   for th in (1e-1, 1e-3, 1e-6, 1e-9)])


def test_exp_of_perturbed_elements():
    # eps Y and 2 X0 + eps Y for eps from 1e-1 down to 1e-12
    rng = np.random.default_rng(62)
    Y = [_blocks(random_element(rng)) for _ in range(8)]
    eps = np.logspace(-1, -12, 12)
    _assert_expm_within_tolerance([e * y for e in eps for y in Y])
    _assert_expm_within_tolerance([2.0 * _X0 + e * y for e in eps for y in Y])


def test_exp_across_each_branch_switch():
    # each switch of _exp_coefficients, straddled at relative offsets down to
    # 1e-15: the series radius |s| = 1 at 2 X0 (roots 1, 1) and 2 Y3 (roots
    # -1, -1); the isoclinic switch 4 c4 = sigma^2 at 2 a Y3 + 2 b X3 with
    # a^2 = 3 b^2, which has roots -(a +- b)^2; and a root at 0, a = b
    rng = np.random.default_rng(63)
    Y = _blocks(random_element(rng))
    offsets = [k * 10.0**-e for e in (3, 6, 9, 12, 15) for k in (-1.0, 1.0)] + [0.0]
    cases = []
    for o in offsets:
        cases += [2.0 * (1.0 + o) * _X0, 2.0 * (1.0 + o) * _Y3]
        for b in (0.3, 1.0, 3.0):
            for a in (math.sqrt(3.0) * b * (1.0 + o), b * (1.0 + o)):
                cases += [2.0 * a * _Y3 + 2.0 * b * _X3, 2.0 * a * _Y3 + 2.0 * b * _X3 + 1e-6 * Y]
    _assert_expm_within_tolerance(cases)


_COORDS = st.lists(st.floats(-3.0, 3.0), min_size=10, max_size=10)


@settings(max_examples=40, deadline=None)
@given(c=_COORDS, s=st.floats(-1.0, 1.0), t=st.floats(-1.0, 1.0))
def test_exp_group_law_on_both_routes(c, s, t):
    # exp(s X) exp(t X) = exp((s + t) X), and exp(X) exp(-X) = exp(0) = I.
    # A component of each exp is within sqrt(2) tau |exp| of the truth, tau
    # its expm_tolerance and |.| the largest component, as an entry of the
    # embedding holds two components; a block of a product sums 8 component
    # products, so the product is within 8 (sqrt(2) (tau_a + tau_b) + 16 eps) |a| |b|
    x = _blocks(from_coords(c[0:3], c[3:6], c[6], c[7:10]))
    eps, root2 = np.finfo(float).eps, math.sqrt(2.0)
    for expm in (batch._expm, lambda y: _scalar_expm(y[None])[0]):
        for p, q in ((s, t), (1.0, -1.0)):
            a, b, ab = expm(p * x), expm(q * x), expm((p + q) * x)
            ta, tb, tab = (float(expm_tolerance(r * x)) for r in (p, q, p + q))
            size = [np.abs(y).max() for y in (a, b, ab)]
            bound = 8.0 * (root2 * (ta + tb) + 16.0 * eps) * size[0] * size[1] + root2 * tab * size[2]
            assert np.abs(batch.matmul(a, b) - ab).max() <= bound


def test_exp_rejects_a_non_finite_input():
    X = from_coords([0.3, 0.0, 0.0], [0.0, 0.2, 0.0], 0.5, [0.0, 0.0, 0.4])
    for t in (math.nan, math.inf):  # t = inf holds 0 inf = NaN next to inf
        with pytest.raises(ValueError, match="NaN or infinite"):
            exp(X, t)
    with pytest.raises(ValueError, match="overflows float64"):  # finite input, overflow inside
        exp(X, 1e6)


def test_exp_overflow_is_named_on_both_routes():
    # cosh overflows at t = 1e6; at 1e200 the product X^2 overflows first,
    # and for a double rotation (sigma < 0) that takes cos to inf
    X = from_coords([0.3, 0.0, 0.0], [0.0, 0.2, 0.0], 0.5, [0.0, 0.0, 0.4])
    rotations = AlgebraElement(QMat2(*map(Quaternion._make, (2.0 * _Y3 + 3.0 * _X3).reshape(4, 4).tolist())))
    for Y, t in ((X, 1e6), (X, 1e200), (rotations, 1e200)):
        with pytest.raises(ValueError, match="overflows float64"):
            exp(Y, t)
        chunk = np.array([_X0, t * _blocks(Y), _Y3])  # one element of a chunk
        with pytest.raises(ValueError, match="overflows float64"):
            batch.exp(chunk)
    assert is_member(exp(rotations, 1e6)).passed  # a rotation by a large angle stays bounded


def test_scipy_and_the_oracles_stay_out_of_the_package():
    # scipy.linalg.expm is exp's oracle; a fresh process shows what the package imports
    code = ("import sys, ds4\n"
            "from ds4 import algebra\n"
            "algebra.exp(algebra.from_coords([0.3, 0, 0], [0, 0.2, 0], 0.5, [0, 0, 0.4]))\n"
            "ds4.run_suite('orbits', trials=1)\n"
            "print(sorted({'scipy', 'oracles'} & set(sys.modules)))\n")
    path = [str(Path(ds4.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout == "[]\n"
