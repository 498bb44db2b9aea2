"""The batched array route against its scalar twins, and the orbit matrix
and the adjoint transport against independent oracles.

Tolerances come from float64 round-off: a product entry is a sum of at
most 8 terms, so two summation orders differ by at most 16 eps times the
sum of their magnitudes, bounded below by the factors' max-norms.  Where
both routes do the same operations on the same inputs (quaternion products)
the results must be equal.  reconstruct does the same products as
group.reconstruct, but on numpy's cosh, sinh and normalization, which round
differently in the last bits; its bound is derived in its test.  The orbit
matrix and the adjoint transport have one body for one element and for
stacks (orbits.orbit_matrix, orbits.adjoint), held here to the rotation-matrix
form of conj(z) p z and to G X G^-1 in the 4x4 embedding; the algebra-shape
check, the chart and the orbit residuals have one body too.  Here they run
on stacks.
"""

import ast
import importlib
import pkgutil
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ds4
from ds4 import algebra, batch, gamma, group, orbits, quaternion, suites
from ds4.gamma import QMat2
from ds4.group import DecompositionFactors, NonMemberError
from ds4.quaternion import ONE, ZERO, Quaternion, random_unit, random_unit_vector
from oracles import adjoint_via_embedding, left_matrices_via_swap, orbit_coords_via_rotation

EPS = np.finfo(float).eps
KAPPAS = (0.1, 1.0, 10.0)


def _arr(m) -> np.ndarray:
    return np.reshape(getattr(m, "m", m), (2, 2, 4))


def _qmat(a) -> QMat2:
    return QMat2(*map(Quaternion._make, np.reshape(a, (4, 4)).tolist()))


def _scale(a) -> float:
    return max(1.0, float(np.abs(a).max()))


def _members(seed: int, n: int = 64):
    rng = np.random.default_rng(seed)
    gs = [group.random_member(rng, "exp" if i % 2 else "factors") for i in range(n)]
    return gs, np.array([_arr(g) for g in gs])


def _massless(seed: int, n: int = 8):
    rng = np.random.default_rng(seed)
    return [orbits.orbit_matrix(random_unit(rng), random_unit_vector(rng).v * rng.uniform(0.1, 2.0), 0.0)
            for _ in range(n)]


def test_products_and_inverse_match_scalar():
    gs, G = _members(401)
    H = G[::-1]
    for g, h, got, q in zip(gs, gs[::-1], batch.matmul(G, H), batch.mul(G[:, 0, 1], H[:, 1, 0])):
        assert np.abs(got - _arr(g.m @ h.m)).max() <= 128 * EPS * _scale(_arr(g)) * _scale(_arr(h))
        assert np.array_equal(q, g.m.b * h.m.c)
    inv = batch.inverse(G)
    assert np.array_equal(inv, [_arr(group.inverse(g)) for g in gs])


def _bitwise(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_left_matrices_equal_the_swap_route(monkeypatch):
    # Each entry of a left-multiplication matrix is one block component times
    # +-1 plus exact zeros, whichever product writes it, so the constant-table
    # product and the swap-and-copy route agree bit for bit, signed zeros too.
    rng = np.random.default_rng(412)
    edge = rng.choice([0.0, -0.0, 1e150, -1e150, 3e-151, -2.5], size=(64, 2, 2, 4))
    stacks = [rng.normal(size=(n, 2, 2, 4)) for n in (1, 255, batch.CHUNK, 1025)]
    cases = [(s, rng.normal(size=s.shape)) for s in stacks]
    cases += [(rng.normal(size=(2, 2, 4)),) * 2, (edge, edge[::-1])]
    for m, n in cases:
        got = batch.left_matrices(m)
        assert got.shape == m.shape[:-3] + (8, 8) and _bitwise(got, left_matrices_via_swap(m))
        product = batch.matmul(m, n)
        with monkeypatch.context() as patched:
            patched.setattr(batch, "left_matrices", left_matrices_via_swap)
            assert _bitwise(product, batch.matmul(m, n))


#: IEEE specials, subnormals, values whose products overflow, and normal values.
_EDGE = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 1e150, -1e150, 1.5, -0.75)


def _same_bits(a, b) -> bool:
    """Equal shapes, NaN at the same places and the same bits elsewhere, signed
    zeros included; a NaN's sign and payload are not compared."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and _bitwise(a[~nan], b[~nan]))


def test_shared_products_agree_on_edge_values():
    # quaternion._mul, _mul_add, gamma._matmul, group.factor_blocks, _study_det
    # and algebra._invariants run the same IEEE operations on Python floats and
    # on component-major arrays, so they agree bit for bit on any input, as
    # Quaternion.__mul__ and batch.mul do
    rng = np.random.default_rng(414)
    n = 512

    def draw(*shape):  # edge values, and normal draws whose products round
        return np.where(rng.random(shape) < 0.3, rng.normal(size=shape), rng.choice(_EDGE, size=shape))

    p, q, r, t = draw(4, n, 4)
    p[:64], q[:64] = rng.choice((0.0, -0.0, 5e-324, -2.5e-310), size=(2, 64, 4))  # signed underflow
    w, v, u, (ch, sh, cb, sb) = draw(n, 4), draw(n, 4), draw(n, 3), draw(4, n)
    o = draw(4, n, 4)  # the right factor of the block product (p, q; r, t) o
    with np.errstate(all="ignore"):  # inf - inf, 0 * inf and overflow, as on floats
        prod = batch.mul(p, q)
        mul_add = np.array(quaternion._mul_add(p.T, q.T, r.T, t.T)).T
        matmul = np.array(gamma._matmul((p.T, q.T, r.T, t.T), o.swapaxes(1, 2))).transpose(2, 0, 1)
        fb = np.array(group.factor_blocks(w.T, v.T, u.T, ch, sh, cb, sb)).transpose(2, 0, 1)
        det = group._study_det(p.T, q.T, r.T, t.T)  # (p, q; r, t) as the blocks, unpivoted
        sigma, N, rho = algebra._invariants((p.T, q.T, r.T, t.T))  # ... and as those of X^2
        N = np.array(N).transpose(2, 0, 1)
    for k in range(n):
        pk, qk, rk, tk = p[k].tolist(), q[k].tolist(), r[k].tolist(), t[k].tolist()
        assert _same_bits(Quaternion(*pk) * Quaternion(*qk), prod[k])
        assert _same_bits(quaternion._mul_add(pk, qk, rk, tk), mul_add[k])
        ok = o[:, k].tolist()
        assert _same_bits(gamma._matmul((pk, qk, rk, tk), ok), matmul[k])
        assert _same_bits(QMat2(*map(Quaternion._make, (pk, qk, rk, tk))) @ QMat2(*map(Quaternion._make, ok)),
                          matmul[k])
        blocks = group.factor_blocks(w[k].tolist(), v[k].tolist(), u[k].tolist(),
                                     float(ch[k]), float(sh[k]), float(cb[k]), float(sb[k]))
        assert _same_bits(blocks, fb[k])
        assert _same_bits(group._study_det(pk, qk, rk, tk), det[k])
        sigma_k, N_k, rho_k = algebra._invariants((pk, qk, rk, tk))
        assert _same_bits((sigma_k, rho_k), (sigma[k], rho[k])) and _same_bits(N_k, N[k])
    assert np.isnan(prod).any() and np.isinf(prod).any() and (np.signbit(prod) & (prod == 0.0)).any()
    assert ((np.abs(prod) < 2.3e-308) & (prod != 0.0)).any()  # subnormal products


def test_membership_defects_match_scalar():
    gs, G = _members(402)
    det, unit = batch.is_member(G)
    for g, d, u in zip(gs, det, unit):
        rep = group.is_member(g)
        assert _same_bits(d, rep.det_defect)  # both routes run group._study_det
        assert abs(u - rep.pseudo_unitarity_defect) <= 128 * EPS * _scale(_arr(g)) ** 2
    assert batch.certified(G) is G
    m = QMat2(ZERO, ONE, ZERO, ONE)  # a = c = 0: the determinant is 0 on both routes
    assert group.is_member(m).det_defect == batch.is_member(_arr(m)[None])[0][0] == 1.0


def test_each_invariant_has_one_body():
    # sigma, N and rho of X^2 are written once, in algebra._invariants, and the
    # Study determinant once, in group._study_det; each route's exp and
    # membership check calls them, and nothing else does
    calls = Counter()
    for path in Path(ds4.__file__).parent.glob("*.py"):
        text = path.read_text()
        for fn in ast.walk(ast.parse(text)):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    name = getattr(node.func, "id", None) if isinstance(node, ast.Call) else None
                    if name in ("_invariants", "_study_det"):
                        calls[f"{name} in {path.stem}.{fn.name}"] += 1
        assert text.count("_mul(_mul(") == (path.name == "group.py"), path.name  # c conj(a) b
    assert calls == {"_invariants in algebra._expm": 1, "_invariants in batch._expm": 1,
                     "_study_det in group.is_member": 1, "_study_det in batch.is_member": 1}


def test_reconstruct_matches_scalar():
    # Both routes form w v p, w v q, conj(w) v conj(q), conj(w) v conj(p) with the
    # same products, on inputs that differ in the last bits.  With u = EPS/2, and
    # each entry's norm |p| or |q| since w and v are unit:
    # - numpy's and math's cosh and sinh differ by at most 2 ulp = 4u on [-1, 1]
    #   (seen on 10^5 arguments), so ch cb, sh sb, ... differ by at most 10u with
    #   the two roundings, and the vector parts of p, q by 17.5u: u's two
    #   normalizations differ by 5.5u, the products round twice;
    # - the normalizations of w and of v differ by at most 7u each;
    # - each route rounds its two products within 4u + 8u of exact per component
    #   (a component sums four terms whose magnitudes sum to at most |x| |y|).
    # So a component differs by at most (17.5 + 14 + 2 * 12)u < 28 EPS times the
    # entries' norm.  The worst seen over 200 seeds of 64 elements is 3.5 EPS.
    rng = np.random.default_rng(403)
    w, v = [random_unit(rng) for _ in range(64)], [random_unit(rng) for _ in range(64)]
    u = [random_unit_vector(rng) for _ in range(64)]
    psi, phi = rng.uniform(-2.0, 2.0, 64), rng.uniform(0.0, 2.0, 64)
    got = batch.reconstruct(np.array(w), psi, np.array(v), phi, np.array(u)[:, 1:])
    for k in range(64):
        want = _arr(group.reconstruct(DecompositionFactors(w[k], psi[k], v[k], phi[k], u[k])))
        assert np.abs(got[k] - want).max() <= 28 * EPS * np.linalg.norm(want, axis=-1).max()


def test_reconstruct_takes_no_matrix_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("matrix product taken")

    for name in ("matmul", "left_matrices"):
        monkeypatch.setattr(batch, name, refuse)
    rng = np.random.default_rng(410)
    g = batch.reconstruct(batch.random_unit(rng, 8), rng.uniform(-2.0, 2.0, 8), batch.random_unit(rng, 8),
                          rng.uniform(0.0, 2.0, 8), batch.random_unit(rng, 8, 3))
    assert g.shape == (8, 2, 2, 4)


def test_exp_matches_scalar():
    c = np.random.default_rng(404).uniform(-1.0, 1.0, (64, 10))
    x = batch.from_coords(c[:, 0:3], c[:, 3:6], c[:, 6], c[:, 7:10])
    got = batch.exp(x)
    for k, row in enumerate(c):
        X = algebra.from_coords(row[0:3], row[3:6], row[6], row[7:10])
        assert np.array_equal(x[k], _arr(X))
        want = _arr(algebra.exp(X))
        assert np.abs(got[k] - want).max() <= 64 * EPS * _scale(want)


def test_each_submodule_attribute_is_the_module():
    # a re-export named like its module (the function gamma.gamma, say) would
    # shadow the module, and a monkeypatch of it would miss the module
    for info in pkgutil.iter_modules(ds4.__path__):
        module = importlib.import_module(f"ds4.{info.name}")
        assert getattr(ds4, info.name) is module is sys.modules[f"ds4.{info.name}"], info.name


def test_exp_routes_avoid_the_embedding(monkeypatch):
    def refuse(*args):
        raise AssertionError("embedding route taken")

    for module in (quaternion, gamma, algebra, batch):  # and each copy imported by name
        for name in ("embed", "embed_blocks"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    monkeypatch.setattr(QMat2, "embed", refuse)
    c = np.random.default_rng(405).uniform(-1.0, 1.0, (8, 10))
    x = batch.from_coords(c[:, 0:3], c[:, 3:6], c[:, 6], c[:, 7:10])
    assert batch.exp(x).shape == x.shape
    assert group.is_member(algebra.exp(algebra.AlgebraElement(_qmat(x[0])))).passed


def test_adjoint_matches_the_embedding_oracle():
    # The two 8x8 products are within 16 eps s^2 |X| of exact, s the max-norm
    # of g.  np.linalg.inv's error grows like eps cond(G) |G^-1| (Higham,
    # Accuracy and Stability of Numerical Algorithms, 2002, ch. 14), and the
    # inverse of a member is as large as the member, so the oracle's error is
    # of order eps s^4 |X|.  The worst seen over 40 seeds of 64 members, and
    # over 300 members at rapidities up to 6, is 16 EPS s^4 |X|.
    gs, G = _members(405)
    s4 = np.array([_scale(_arr(g)) ** 4 for g in gs])
    seeds = [(k, orbits.base_element(k)) for k in KAPPAS]
    seeds += [(0.0, X) for X in _massless(406)]
    for kappa, X in seeds:
        Y = orbits.adjoint(G, _arr(X))
        err = np.abs(Y - adjoint_via_embedding(G, _arr(X))).max(axis=(-3, -2, -1))
        assert (err <= 64 * EPS * s4 * _scale(_arr(X))).all()
        assert np.array_equal(_arr(orbits.adjoint(gs[7], X)), Y[7])  # one element, the same body
        worst = 0.0
        for y in Y:
            c = orbits.to_coadjoint_coords(algebra.AlgebraElement(_qmat(y)))
            r1 = c.d0 * c.j - np.cross(c.d, c.a)
            r2 = orbits.conservation_residuals(c, kappa).r2
            worst = max(worst, float(np.abs(r1).max()), abs(r2))
        assert suites._fold(suites._conservation_rows(Y, kappa)) == worst / (1e-9 * max(1.0, kappa**2))


def test_orbit_matrix_matches_the_rotation_oracle():
    # With u = EPS/2: the rotation form rounds each entry of R(z) within 3u and
    # each component of R^T p within 6u of |p|; the quaternion route's two
    # products round within 8u of |p| each, and its normalization of z and
    # its p0 within 2u.  So every coordinate is within 16 EPS max(1, p0) of the
    # oracle's, |p| <= p0.  The worst seen over 50 seeds of 256 points with
    # |p| up to 20 is 2.8 EPS max(1, p0).
    rng = np.random.default_rng(407)
    z = batch.random_unit(rng, 32)
    z[5] = (0.0, 0.6, 0.8, 0.0)  # d0 = p0 z.s = 0: the degenerate form of r1
    p = rng.normal(size=(32, 3)) * rng.uniform(0.0, 20.0, (32, 1))
    for kappa in (0.0, *KAPPAS):
        got = orbits.orbit_matrix(z, p, kappa)
        assert np.array_equal(got[:, 0, 0, 1:], p) and not got[:, 0, 0, 0].any()
        bound = 16 * EPS * np.maximum(1.0, np.sqrt(kappa**2 + (p * p).sum(-1)))
        for c, want in zip(algebra.to_coords(got), orbit_coords_via_rotation(z, p, kappa)):
            assert (np.abs(c - want).reshape(32, -1).max(-1) <= bound).all()
        res = orbits.conservation_residuals(algebra.to_coords(got), kappa)
        assert res.degenerate.tolist() == [k == 5 for k in range(32)]
        for k in (0, 5):  # one point, the same body
            assert np.array_equal(_arr(orbits.orbit_matrix(Quaternion(*z[k]), p[k], kappa)), got[k])


def test_energy_quartic_reads_a_stack_point_by_point():
    gs, G = _members(408, 32)
    Y = orbits.adjoint(G, _arr(orbits.base_element(1.0)))
    st_batch = orbits.physicalize(orbits.to_coadjoint_coords(Y), 1.0, 1.0, 10.0)
    res = orbits.energy_quartic_residual(st_batch)
    for k, y in enumerate(Y):
        c = orbits.to_coadjoint_coords(algebra.AlgebraElement(_qmat(y)))
        assert res[k] == orbits.energy_quartic_residual(orbits.physicalize(c, 1.0, 1.0, 10.0))


@settings(max_examples=60, deadline=None)
@given(psi=st.floats(-6.0, 6.0), phi=st.floats(-6.0, 6.0), seed=st.integers(0, 2**32 - 1))
def test_wide_rapidity_members_match_scalar(psi, phi, seed):
    rng = np.random.default_rng(seed)
    w, v, u = random_unit(rng), random_unit(rng), random_unit_vector(rng)
    g = group.reconstruct(DecompositionFactors(w, psi, v, phi, u))
    s = _scale(_arr(g))
    G = batch.reconstruct(np.array([w]), np.array([psi]), np.array([v]), np.array([phi]),
                          np.array([u.v]))
    assert np.abs(G[0] - _arr(g)).max() <= 512 * EPS * s
    rep = group.is_member(g)
    det, unit = batch.is_member(G)
    assert abs(det[0] - rep.det_defect) <= 256 * EPS * s**4
    assert abs(unit[0] - rep.pseudo_unitarity_defect) <= 128 * EPS * s**2
    assert np.array_equal(batch.inverse(G)[0], _arr(group.inverse(_qmat(G[0]))))
    X = _arr(orbits.base_element(1.0))  # the bound of test_adjoint_matches_the_embedding_oracle
    assert np.abs(orbits.adjoint(G, X) - adjoint_via_embedding(G, X)).max() <= 64 * EPS * s**4


def test_one_perturbed_member_in_a_chunk_is_rejected():
    M = batch.members(np.random.default_rng(409), batch.CHUNK)
    assert batch.certified(M) is M
    M[137, 0, 1, 2] += 1e-6
    with pytest.raises(NonMemberError) as err:
        batch.certified(M)
    want = group.is_member(_qmat(M[137]))
    assert not want.passed
    assert err.value.report.det_defect == pytest.approx(want.det_defect, rel=1e-6)
    assert err.value.report.pseudo_unitarity_defect == pytest.approx(
        want.pseudo_unitarity_defect, rel=1e-6)
    M[137, 0, 1, 2] -= 1e-6
    M[200, 1, 1, 0] = np.nan
    with pytest.raises(NonMemberError):
        batch.certified(M)
    with pytest.raises(NonMemberError):
        group.certified(_qmat(M[200]))


def test_every_batched_check_rejects_a_single_bad_element():
    gs, G = _members(410, 16)
    X = _arr(orbits.base_element(10.0))
    Y = orbits.adjoint(G, X)
    for k in range(16):  # a NaN fails wherever it sits, diagonal vector parts included
        bad = Y.reshape(16, 16).copy()
        bad[3, k] = np.nan
        with pytest.raises(ValueError, match="algebra shape"):
            algebra.shape_checked(bad.reshape(Y.shape))
    Y[3, 0, 0, 0] += 1e-9
    with pytest.raises(ValueError):
        algebra.shape_checked(Y)
    X[0, 0, 0] = 1e-6  # conjugation keeps the identity part off the algebra shape
    with pytest.raises(ValueError):
        orbits.adjoint(G, X)
    with pytest.raises(ValueError):
        orbits.adjoint(gs[0], algebra.AlgebraElement(_qmat(X)))
    c = np.random.default_rng(411).uniform(-1.0, 1.0, (8, 10))
    x = batch.from_coords(c[:, 0:3], c[:, 3:6], c[:, 6], c[:, 7:10])
    x[2, 0, 0, 0] = 0.5  # a scalar part scales the Study determinant
    with pytest.raises(NonMemberError):
        batch.exp(x)
    with pytest.raises(NonMemberError):
        algebra.exp(algebra.AlgebraElement(_qmat(x[2])))
    x[2, 0, 0, 0] = 0.0
    for bad in (np.nan, np.inf):  # one non-finite element fails its chunk, and says so
        x[5, 0, 1, 2] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            batch.exp(x)
    z = np.array([random_unit(np.random.default_rng(k)) for k in range(8)])
    z[6] *= 1.0 + 1e-8
    with pytest.raises(ValueError):
        orbits.orbit_matrix(z, np.ones((8, 3)), 0.0)
    nan = z / np.linalg.norm(z, axis=-1)[:, None]
    nan[6, 2] = np.nan  # NaN fails the unit check, as in ensure_unit
    for bad in (nan, nan[:, 1:]):
        with pytest.raises(ValueError, match="not a unit quaternion"):
            batch.unit(bad)
    with pytest.raises(ValueError, match="not a unit quaternion"):
        orbits.orbit_matrix(nan, np.ones((8, 3)), 0.0)
    with pytest.raises(ValueError):
        batch.reconstruct(z, np.zeros(8), z / np.linalg.norm(z, axis=-1)[:, None],
                          np.zeros(8), np.ones((8, 3)) / np.sqrt(3.0))


def test_batched_checks_switch_at_the_scalar_tolerances():
    # membership 1e-10, unit norm 1e-9 and algebra shape 1e-12 of the scale,
    # the edges tests/test_group.py, test_quaternion.py and test_algebra.py pin
    G = np.array([_arr(group.t_time_translation(0.3))] * 4)
    X = np.array([_arr(algebra.from_coords([0.1, 0.2, 0.3], [0.4, 0.5, 0.6], 0.7, [0.8, 0.9, 1.0]))] * 4)
    z = np.array([[1.0, 0.0, 0.0, 0.0]] * 4)
    for k, passes in ((0.5, True), (2.0, False)):
        g, y, w = G.copy(), 100.0 * X, z.copy()
        g[2] *= 1.0 + k * 1e-10 / 4.0  # the Study determinant moves by about 4 times that
        w[1, 0] += k * 1e-9
        y[3, 0, 0, 0] = k * 1e-10
        for check, args in ((batch.certified, (g,)), (batch.unit, (w,)),
                            (orbits.orbit_matrix, (w, np.ones((4, 3)), 1.0)),
                            (algebra.shape_checked, (y,))):
            if passes:
                check(*args)
            else:
                with pytest.raises(ValueError):
                    check(*args)


def test_unit_rejection_reads_the_same_on_both_routes():
    q = Quaternion(1.1, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError) as scalar:
        quaternion.ensure_unit(q)
    assert str(scalar.value) == "not a unit quaternion: |q| = 1.1"
    for check, args in ((batch.unit, (np.array([q]),)), (orbits.orbit_matrix, (q, np.ones(3), 1.0)),
                        (orbits.orbit_matrix, (np.array([q]), np.ones((1, 3)), 1.0))):
        with pytest.raises(ValueError) as err:
            check(*args)
        assert str(err.value) == str(scalar.value)


class _TinyFirstDraw(np.random.Generator):
    """A generator whose first normal draw has a row of norm 1e-13; it stops
    a redraw loop that does not end."""

    draws = 0

    def normal(self, loc=0.0, scale=1.0, size=None):
        self.draws += 1
        assert self.draws <= 2, "the redraw loop did not end"
        g = super().normal(loc, scale, size)
        if self.draws == 1:
            g[1] *= 1e-13 / np.linalg.norm(g[1])
        return g


@pytest.mark.parametrize("dim", [4, 3])
def test_random_unit_redraws_a_tiny_draw(dim):
    got = batch.random_unit(_TinyFirstDraw(np.random.PCG64(413)), 3, dim)
    plain = np.random.Generator(np.random.PCG64(413))
    g = plain.normal(size=(3, dim))
    g[1] = plain.normal(size=(1, dim))
    assert _bitwise(got, g / np.linalg.norm(g, axis=-1)[:, None])


@pytest.mark.parametrize("trials", sorted({0, 1, 2, 255, 256, 257, 513, batch.CHUNK - 1, batch.CHUNK,
                                             batch.CHUNK + 1}))
def test_orbits_suite_trial_count(trials):
    report = suites.run_suite("orbits", trials=trials, seed=11)
    assert report.trials == 4 * trials + max(1, trials // 5)
    assert report.passed


def test_orbits_suite_is_deterministic():
    assert suites.run_suite("orbits", trials=300, seed=12) == suites.run_suite("orbits", trials=300, seed=12)
