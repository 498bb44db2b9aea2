import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ds4 import group
from ds4.gamma import QMat2, gamma, minkowski_square, origin, slash, unslash
from ds4.group import (
    DecompositionFactors,
    GroupElement,
    NonMemberError,
    _lorentz_factor,
    act,
    act_vector,
    compose,
    decompose,
    inverse,
    involution,
    is_member,
    random_ds_point,
    random_member,
    reconstruct,
    t_boost,
    t_space_rotation,
    t_space_translation,
    t_time_translation,
)
from ds4.algebra import GENERATOR_LABELS, from_coords, generator, random_element, to_coords
from ds4.orbits import adjoint, base_element, conservation_residuals, orbit_matrix, to_coadjoint_coords
from ds4.quaternion import (
    E1,
    E2,
    E3,
    ONE,
    ZERO,
    Quaternion,
    random_unit,
    random_unit_vector,
    sqrt_unit,
)
from oracles import (
    act_vector_via_qmat,
    act_via_embedding,
    det_via_embedding,
    inverse_via_embedding,
    is_member_via_qmat,
    lorentz_factor_via_products,
    random_quaternion,
    reconstruct_via_products,
    unslash_via_qmat,
)

EPS = np.finfo(float).eps

EXPECTED_MIRROR_SIGNS = {
    "X1": +1, "X2": +1, "X3": +1, "X0": -1,
    "Y1": +1, "Y2": +1, "Y3": +1, "Z1": -1, "Z2": -1, "Z3": -1,
}


def _mixed(rng, i):
    return random_member(rng, "exp" if i % 2 else "factors")


# ---------------------------------------------------------------------------
# membership

def test_identity_membership():
    rep = is_member(QMat2.identity())
    assert rep.passed and rep.det_defect == 0.0 and rep.pseudo_unitarity_defect == 0.0


def test_gamma0_is_the_sole_member():
    assert is_member(gamma(0)).passed
    for a in range(1, 5):
        rep = is_member(gamma(a))
        assert not rep.passed
        assert rep.pseudo_unitarity_defect > 1.0


def test_det_defect_matches_embedding_oracle_on_general_matrices():
    # against exact rational arithmetic the closed form erred by up to
    # 25 eps |m|^4 and the embedding by up to 59 eps |m|^4 (6000 draws)
    rng = np.random.default_rng(37)
    # gamma^1..gamma^4 have a = 0; (0 1; 0 1) has a = c = 0 and det 0
    cases = [gamma(a) for a in range(5)] + [QMat2(ZERO, ONE, ZERO, ONE)]
    for _ in range(200):
        a, b, c, d = (random_quaternion(rng, 2.0) for _ in range(4))
        cases += [QMat2(a, b, c, d), QMat2(a.scale(0.1), b, c, d)]  # pivots on c
    for m in cases:
        want = abs(det_via_embedding(m) - 1.0)
        assert abs(is_member(m).det_defect - want) < 1e-13 * max(1.0, m.max_norm()) ** 4


def test_det_defect_matches_embedding_oracle_on_members():
    # on members the two routes differed by at most 8 eps |g|^2 for psi,
    # phi up to 20 (400 draws per band); the bound leaves a factor of 5
    rng = np.random.default_rng(38)
    for _ in range(200):
        f = DecompositionFactors(random_unit(rng), float(rng.uniform(-6.0, 6.0)),
                                 random_unit(rng), float(rng.uniform(0.0, 6.0)),
                                 random_unit_vector(rng))
        g = reconstruct(f).m
        want = abs(det_via_embedding(g) - 1.0)
        assert abs(is_member(g).det_defect - want) < 1e-14 * g.max_norm() ** 2


def test_group_routes_avoid_the_embedding(monkeypatch):
    def refuse(*args):
        raise AssertionError("embedding route taken")

    monkeypatch.setattr(QMat2, "embed", refuse)
    monkeypatch.setattr(np.linalg, "det", refuse)
    g = reconstruct(DecompositionFactors(random_unit(np.random.default_rng(39)), 0.8,
                                         ONE, 1.3, E2))
    assert is_member(g).passed
    assert (compose(g, inverse(g)).m - QMat2.identity()).max_norm() < 1e-12
    assert abs(minkowski_square(act_vector(g, origin(1.0).x)) + 1.0) < 1e-12
    assert (reconstruct(decompose(g)).m - g.m).max_norm() < 1e-12
    adjoint(g, base_element(1.0))


def test_compose_inverse_identity():
    rng = np.random.default_rng(31)
    for i in range(50):
        g = _mixed(rng, i)
        assert (compose(g, inverse(g)).m - QMat2.identity()).max_norm() < 1e-12


def test_inverse_of_gamma0():
    # gamma0 squares to the identity (its own anticommutator halves to it)
    g0 = GroupElement(gamma(0))
    assert (inverse(g0).m - gamma(0)).max_norm() == 0.0
    assert ((gamma(0) @ gamma(0)) - QMat2.identity()).max_norm() == 0.0


def test_inverse_matches_embedding_oracle():
    rng = np.random.default_rng(32)
    for i in range(50):
        g = _mixed(rng, i)
        assert (inverse(g).m - inverse_via_embedding(g)).max_norm() < 1e-12


def test_closure_of_factor_products():
    rng = np.random.default_rng(33)
    for i in range(200):
        g = compose(_mixed(rng, i), _mixed(rng, i + 1))
        assert is_member(g).passed


# ---------------------------------------------------------------------------
# action on the hyperboloid

def test_act_identity():
    p = origin(2.0)
    q = act(GroupElement.identity(), p)
    assert np.array_equal(q.x, p.x)


def test_act_gamma0_is_the_mirror_map():
    rng = np.random.default_rng(34)
    g0 = GroupElement(gamma(0))
    for _ in range(100):
        x = random_ds_point(rng).x
        y = act_vector(g0, x)
        assert np.array_equal(y, np.concatenate(([x[0]], -x[1:])))
        assert np.array_equal(act_vector(g0, y), x)


def test_time_translation_moves_origin():
    for psi in (-0.7, 0.3, 1.0, 2.2):
        got = act_vector(t_time_translation(psi), origin(1.0).x)
        want = np.array([math.sinh(psi), 0.0, 0.0, 0.0, math.cosh(psi)])
        assert np.abs(got - want).max() < 1e-15
        # same answer through generic complex linear algebra
        oracle = act_via_embedding(t_time_translation(psi), origin(1.0).x)
        assert np.abs(got - oracle).max() < 1e-13


def test_act_matches_embedding_oracle():
    rng = np.random.default_rng(35)
    for i in range(100):
        g = _mixed(rng, i)
        x = random_ds_point(rng).x
        assert np.abs(act_vector(g, x) - act_via_embedding(g, x)).max() < 1e-11


def test_act_is_a_homomorphism():
    rng = np.random.default_rng(36)
    for i in range(100):
        g1, g2 = _mixed(rng, i), _mixed(rng, i + 1)
        x = random_ds_point(rng).x
        lhs = act_vector(compose(g1, g2), x)
        rhs = act_vector(g1, act_vector(g2, x))
        assert np.abs(lhs - rhs).max() < 1e-10


def test_act_preserves_hyperboloid():
    rng = np.random.default_rng(37)
    for R in (0.01, 1.0, 1000.0):
        for i in range(100):
            g = _mixed(rng, i)
            p = act(g, random_ds_point(rng, R))  # DSPoint constructor revalidates
            assert abs(minkowski_square(p.x) + R * R) < 1e-8 * R * R


# ---------------------------------------------------------------------------
# factor subgroups

def test_factor_conventions():
    assert (t_space_translation(ONE).m - QMat2.identity()).max_norm() == 0.0
    for u in (E1, E2, E3):
        assert (t_boost(0.0, u).m - QMat2.identity()).max_norm() == 0.0


def test_factors_are_members():
    rng = np.random.default_rng(38)
    for _ in range(50):
        for g in (t_space_translation(random_unit(rng)),
                  t_time_translation(rng.uniform(-3, 3)),
                  t_space_rotation(random_unit(rng)),
                  t_boost(rng.uniform(0, 3), random_unit_vector(rng))):
            rep = is_member(g, 1e-12)
            assert rep.passed, rep


def test_time_translation_additivity():
    for p1, p2 in [(0.4, 0.9), (-1.2, 0.5), (2.0, 2.0)]:
        lhs = compose(t_time_translation(p1), t_time_translation(p2)).m
        rhs = t_time_translation(p1 + p2).m
        assert (lhs - rhs).max_norm() < 1e-15


def test_factor_parameter_validation():
    with pytest.raises(ValueError):
        t_space_translation(Quaternion(2.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        t_boost(1.0, Quaternion(0.3, 1.0, 0.0, 0.0))


def test_reconstruct_keeps_the_factor_checks():
    rng = np.random.default_rng(48)
    w, v, u = random_unit(rng), random_unit(rng), random_unit_vector(rng)
    for bad in (DecompositionFactors(w.scale(1.1), 0.5, v, 1.0, u),
                DecompositionFactors(w, 0.5, v.scale(0.9), 1.0, u),
                DecompositionFactors(w, 0.5, v, 1.0, Quaternion(0.3, *u.v.tolist())),
                DecompositionFactors(w, 0.5, v, 1.0, u.scale(1.1)),
                DecompositionFactors(Quaternion(math.nan, 0.0, 0.0, 0.0), 0.5, v, 1.0, u),
                DecompositionFactors(w, 0.5, v, 1.0, Quaternion(0.0, math.nan, 0.0, 0.0))):
        with pytest.raises(ValueError):
            reconstruct(bad)


# Error analysis for the closed forms against the generic products, fixed
# before measuring.  Inputs w, v, u are unit and the cosh/sinh values are the
# same calls in both routes.  A rounded quaternion product of norms p, q errs by
# at most 4 eps p q per component; every entry of reconstruct's product, and
# of each route's intermediates, has norm at most E = e^(|psi|/2 + |phi|/2).
# Each route rounds through at most three such products, a scaling and an
# add, under 32 eps E per component, so the routes differ by under 64 eps E.
# The peel scales products of the unit w with blocks of norm at most M by
# cosh and sinh of psi/2 and adds two: under 8 eps e^(|psi|/2) M for either
# route, so 32 eps e^(|psi|/2) M bounds their difference with room.

@settings(max_examples=80, deadline=None)
@given(psi=st.floats(-6.0, 6.0), phi=st.floats(-6.0, 6.0), seed=st.integers(0, 2**32 - 1))
def test_closed_forms_match_the_generic_products(psi, phi, seed):
    rng = np.random.default_rng(seed)
    f = DecompositionFactors(random_unit(rng), psi, random_unit(rng), phi, random_unit_vector(rng))
    g = reconstruct(f).m
    E = math.exp(0.5 * (abs(psi) + abs(phi)))
    assert (g - reconstruct_via_products(f)).max_norm() <= 64 * EPS * E
    M = max(q.norm() for q in g)
    L = _lorentz_factor(g, f.w, psi)
    assert (L - lorentz_factor_via_products(g, f.w, psi)).max_norm() <= 32 * EPS * math.exp(0.5 * abs(psi)) * M


def test_membership_checks_switch_at_1e_10():
    # the one membership tolerance, which batch.certified reads too; scaling
    # a member by 1 + e moves its Study determinant by about 4 e
    m = t_time_translation(0.3).m
    rep = is_member(m.scale(1.0 + 0.5e-10 / 4.0))
    assert rep.passed and rep.det_defect == pytest.approx(0.5e-10, rel=1e-3)
    group.certified(m.scale(1.0 + 0.5e-10 / 4.0))
    rep = is_member(m.scale(1.0 + 2e-10 / 4.0))
    assert not rep.passed and rep.det_defect == pytest.approx(2e-10, rel=1e-3)
    with pytest.raises(NonMemberError):
        group.certified(m.scale(1.0 + 2e-10 / 4.0))


def test_scalar_route_runs_on_python_floats(monkeypatch):
    # factors and points built from numpy arrays, as a caller holding arrays would
    rng = np.random.default_rng(49)
    unit = [x / np.linalg.norm(x) for x in rng.normal(size=(3, 4))]
    f = DecompositionFactors(Quaternion(*unit[0]), np.float64(0.7), Quaternion(*unit[1]),
                             np.float64(1.3), Quaternion(0.0, *unit[2][1:] / np.linalg.norm(unit[2][1:])))
    x = np.array([0.5, 0.1, -0.2, 0.3, math.sqrt(1.0 + 0.5**2 - 0.14)])
    g = reconstruct(f)
    d = decompose(g)
    X = orbit_matrix(Quaternion(*unit[0]), unit[1][1:], np.float64(0.5))
    c = rng.uniform(-1.0, 1.0, 10)
    elements = (from_coords(c[0:3], c[3:6], c[6], c[7:10]), random_element(rng))
    # act_vector hands its product to unslash; x enters as an array and as np.float64 items
    moved = []
    monkeypatch.setattr(group, "unslash", lambda m: moved.append(m) or unslash(m))
    act_vector(g, x)
    act_vector(g, list(x.astype(np.float32)))
    components = [*(c for q in g.m for c in q), *(c for q in slash(x) for c in q),
                  *d.w, d.psi, *d.v, d.phi, *d.u, *(c for q in X.m for c in q),
                  *(c for m in moved for q in m for c in q),
                  *(c for Y in elements for q in Y.m for c in q)]
    assert len(moved) == 2
    assert all(type(c) is float for c in components), [type(c) for c in components]
    # one element's chart and orbit residuals hold Python scalars, which JSON encodes;
    # z.s = 0 puts d0 = p0 z.s at 0, the degenerate form of r1
    for Y in (X, orbit_matrix(Quaternion(0.0, 0.6, 0.8, 0.0), unit[1][1:], np.float64(0.5))):
        coords = to_coadjoint_coords(Y)
        res = conservation_residuals(coords, 0.5)
        assert type(to_coords(Y)[2]) is float and type(coords.d0) is float
        assert type(res.r2) is float and type(res.degenerate) is bool
        assert res.degenerate == (Y is not X)
        json.dumps([Y.m, coords.d0, res.r1.tolist(), res.r2, res.degenerate], allow_nan=False)


# ---------------------------------------------------------------------------
# the one-pass routes against their QMat2 compositions (tests/oracles.py),
# bit for bit: the same operations in the same order, signed zeros included

def _bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


def _outcome(fn, *args):
    """The result's bytes, or the message of the ValueError it raised."""
    try:
        out = fn(*args)
    except ValueError as err:
        return str(err)
    if isinstance(out, tuple):  # a MembershipReport
        return _bits(out[:2]), out.tol, out.passed
    return _bits(out)


def _general_matrices(rng, n):
    """Random matrices off the group, half with |c| > |a| (the row swap), the
    gamma matrices (a = 0), and one with a = c = 0 (n == 0)."""
    out = [gamma(k) for k in range(5)] + [QMat2(ZERO, ONE, ZERO, ONE), QMat2.identity()]
    for _ in range(n):
        a, b, c, d = (random_quaternion(rng, 2.0) for _ in range(4))
        out += [QMat2(a, b, c, d), QMat2(a.scale(0.1), b, c, d)]
    return out


def _bitwise_members(rng, n):
    gs = [random_member(rng, "exp" if i % 2 else "factors").m for i in range(n)]
    return gs + [compose(t_time_translation(15.0), t_boost(1.0, E2)).m, gamma(0),
                 QMat2.identity(), t_time_translation(1.3).m, t_boost(2.0, E2).m]


def test_one_pass_routes_are_bitwise_the_qmat_routes():
    rng = np.random.default_rng(53)
    members, general = _bitwise_members(rng, 200), _general_matrices(rng, 100)
    assert any(m.c.norm2() > m.a.norm2() for m in general)
    for m in members + general:
        assert _outcome(is_member, m) == _outcome(is_member_via_qmat, m)
        assert _outcome(unslash, m) == _outcome(unslash_via_qmat, m)
        for x in (random_ds_point(rng, 2.0).x, rng.normal(size=5), origin(1.0).x, np.zeros(5)):
            assert _outcome(act_vector, m, x) == _outcome(act_vector_via_qmat, m, x)
            assert _outcome(unslash, slash(x)) == _outcome(unslash_via_qmat, slash(x))
    assert sum(is_member(m).passed for m in members) == len(members) - 1  # T_tt(15) T_bt(1, e2)
    # off the group the conjugation leaves the slash image, and both routes say so
    raised = [_outcome(act_vector, m, origin(1.0).x) for m in general]
    assert sum(isinstance(r, str) for r in raised) >= 100


def test_decompose_is_bitwise_the_qmat_routes(monkeypatch):
    members = _bitwise_members(np.random.default_rng(54), 100)

    def factors():  # T_tt(15) T_bt(1, e2) fails certification at 1e-10, so its message
        return [_outcome(lambda g: [*(f := decompose(g)).w, f.psi, *f.v, f.phi, *f.u], m)
                for m in members]

    want = factors()
    monkeypatch.setattr(group, "is_member", is_member_via_qmat)
    monkeypatch.setattr(group, "act_vector", act_vector_via_qmat)
    assert factors() == want


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), method=st.sampled_from(["factors", "exp"]),
       x=st.lists(st.floats(-1e6, 1e6), min_size=5, max_size=5))
def test_member_and_vector_property_is_bitwise_the_qmat_routes(seed, method, x):
    g = random_member(np.random.default_rng(seed), method)
    assert _outcome(is_member, g) == _outcome(is_member_via_qmat, g)
    assert _outcome(act_vector, g, x) == _outcome(act_vector_via_qmat, g, x)
    assert _outcome(unslash, slash(x)) == _outcome(unslash_via_qmat, slash(x))


def test_nan_anywhere_fails_membership_and_the_action():
    g = random_member(np.random.default_rng(55), "exp").m
    flat = [c for q in g for c in q]
    for k in range(16):
        v = flat[:k] + [math.nan] + flat[k + 1:]
        m = QMat2(*(Quaternion(*v[i:i + 4]) for i in range(0, 16, 4)))
        rep = is_member(m)
        assert math.isnan(rep.pseudo_unitarity_defect) and not rep.passed, k
        with pytest.raises(NonMemberError):
            decompose(m)
    for k in range(5):
        x = [0.0, 0.0, 0.0, 0.0, 1.0]
        x[k] = math.nan
        with pytest.raises(ValueError, match="slash image"):
            act_vector(g, x)


# ---------------------------------------------------------------------------
# decomposition

def test_decompose_identity():
    f = decompose(GroupElement.identity())
    assert f.w == ONE and f.psi == 0.0 and f.v == ONE and f.phi == 0.0 and f.u == E1


def test_decompose_space_time_product():
    rng = np.random.default_rng(39)
    for _ in range(20):
        w0 = random_unit(rng)
        g = compose(t_space_translation(w0), t_time_translation(1.3))
        f = decompose(g)
        assert f.psi == pytest.approx(1.3, abs=1e-12)
        assert f.phi == pytest.approx(0.0, abs=1e-12)
        # w is recovered on the canonical branch of the square root, and the
        # rotation factor soaks up the sign: v = 1 when the branch matches
        # w0, v = -1 when it lands on -w0.
        branch = sqrt_unit(w0 * w0)
        sign = 1.0 if (branch - w0).max_abs() < 1e-9 else -1.0
        assert (f.w - w0.scale(sign)).max_abs() < 1e-9
        assert (f.v - ONE.scale(sign)).max_abs() < 1e-9
        assert (reconstruct(f).m - g.m).max_norm() < 1e-10


def test_decompose_roundtrip_fuzz():
    rng = np.random.default_rng(40)
    worst = 0.0
    for i in range(300):
        g = _mixed(rng, i)
        f = decompose(g)
        worst = max(worst, (reconstruct(f).m - g.m).max_norm())
    assert worst < 1e-9


def test_decompose_degenerate_cases():
    cases = [
        GroupElement.identity(),
        t_time_translation(1.3),                                    # pure time translation
        t_boost(2.0, E2),                                           # pure boost
        compose(t_space_translation(E3), t_time_translation(0.7)),  # z = -1 branch
        GroupElement(gamma(0)),                                     # z = -1 at psi = 0
    ]
    for g in cases:
        f = decompose(g)
        assert (reconstruct(f).m - g.m).max_norm() < 1e-12
        assert f.phi >= 0.0


def test_decompose_member_whose_boost_block_is_scalar_round_off():
    # T_tt(1) with a.s raised by 1e-11 is certified at 1e-10; its peeled
    # boost block b is a round-off scalar of about 1e-11 with no vector part
    m = t_time_translation(1.0).m
    g = GroupElement(m._replace(a=m.a._replace(s=m.a.s + 1e-11)))
    assert is_member(g).passed
    f = decompose(g)
    assert f.phi == 0.0 and f.u == E1
    assert (reconstruct(f).m - g.m).max_norm() < 1e-10


def test_decompose_z_minus_one_uses_e1_axis():
    g = compose(t_space_translation(E3), t_time_translation(0.7))
    x = act_vector(g, origin(1.0).x)
    ch = math.cosh(math.asinh(x[0]))
    z = Quaternion(x[4] / ch, x[1] / ch, x[2] / ch, x[3] / ch)
    assert (z - Quaternion(-1.0, 0.0, 0.0, 0.0)).max_abs() < 1e-12
    f = decompose(g)
    assert (f.w - E1).max_abs() < 1e-12


def test_decompose_is_a_projection():
    # re-decomposing a reconstruction returns the same canonical factors
    rng = np.random.default_rng(41)
    for i in range(50):
        f1 = decompose(_mixed(rng, i))
        f2 = decompose(reconstruct(f1))
        for a, b in zip(f1, f2):
            if isinstance(a, Quaternion):
                assert (a - b).max_abs() < 1e-9
            else:
                assert abs(a - b) < 1e-9


def test_decompose_rejects_non_members():
    with pytest.raises(NonMemberError):
        decompose(GroupElement(gamma(4)))


# ---------------------------------------------------------------------------
# involution and mirror symmetry

def test_involution_identity_and_square():
    assert (involution(GroupElement.identity()) - QMat2.identity()).max_norm() == 0.0
    rng = np.random.default_rng(42)
    for i in range(100):
        g = _mixed(rng, i)
        twice = involution(GroupElement(involution(g)))
        assert (twice - g.m).max_norm() < 1e-13


def test_involution_on_factors():
    # space and time translations are fixed; rotations and boosts invert
    rng = np.random.default_rng(43)
    for _ in range(20):
        w, v = random_unit(rng), random_unit(rng)
        u = random_unit_vector(rng)
        psi, phi = rng.uniform(-2, 2), rng.uniform(0, 2)
        assert (involution(t_space_translation(w))
                - t_space_translation(w).m).max_norm() == 0.0
        assert (involution(t_time_translation(psi))
                - t_time_translation(psi).m).max_norm() == 0.0
        assert (involution(t_space_rotation(v))
                - t_space_rotation(v.conj()).m).max_norm() == 0.0
        assert (involution(t_boost(phi, u))
                - inverse(t_boost(phi, u)).m).max_norm() == 0.0


def test_mirror_generator_signs():
    # conjugation by gamma^0 maps each generator to plus or minus itself
    signs = {}
    for label in GENERATOR_LABELS:
        G = generator(label).m
        ad = gamma(0) @ G @ gamma(0)
        if (ad - G).max_norm() <= 1e-12:
            signs[label] = +1
        elif (ad + G).max_norm() <= 1e-12:
            signs[label] = -1
    assert signs == EXPECTED_MIRROR_SIGNS


# ---------------------------------------------------------------------------
# random generators and serialization

def test_random_members_are_members():
    rng = np.random.default_rng(44)
    for method in ("factors", "exp"):
        for _ in range(100):
            assert is_member(random_member(rng, method)).passed
    with pytest.raises(ValueError):
        random_member(rng, "bogus")


def test_random_ds_point_is_on_hyperboloid():
    rng = np.random.default_rng(45)
    for R in (1.0, 50.0):
        for _ in range(100):
            p = random_ds_point(rng, R)
            assert abs(minkowski_square(p.x) + R * R) <= 1e-9 * R * R
