"""The group Sp(2,2): membership certification, hyperboloid action and the
space-time-Lorentz factorization.

An element is a 2x2 quaternionic matrix g with unit Study determinant, taken
in closed form on the blocks, and dagger(g) gamma^0 g = gamma^0.  The factor
subgroups are space translations (w, 0; 0, conj(w)), time translations built
from cosh/sinh of psi/2, space rotations (v, 0; 0, v) and boosts built from a
unit pure-vector direction u and rapidity phi.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .gamma import DSPoint, QMat2, _matmul, _slash, _unslash, unslash
from .quaternion import (
    E1,
    ZERO,
    Quaternion,
    _max_abs,
    _mul,
    _quaternion,
    ensure_pure_unit,
    ensure_unit,
    random_unit,
    random_unit_vector,
    sqrt_unit,
)

#: Default bound on both membership defects (batch.certified too).
MEMBER_TOL = 1e-10


class NonMemberError(ValueError):
    """Raised when a matrix fails the Sp(2,2) membership predicates."""

    def __init__(self, report: "MembershipReport"):
        self.report = report
        super().__init__(
            f"not an Sp(2,2) element: det defect {report.det_defect:.3e}, "
            f"pseudo-unitarity defect {report.pseudo_unitarity_defect:.3e}"
        )


class MembershipReport(NamedTuple):
    """Residuals of the two membership predicates and the verdict at tol."""

    det_defect: float
    pseudo_unitarity_defect: float
    tol: float
    passed: bool


class GroupElement(NamedTuple):
    m: QMat2

    @classmethod
    def identity(cls) -> "GroupElement":
        return cls(QMat2.identity())


def _qmat(g) -> QMat2:
    return g.m if isinstance(g, GroupElement) else g


def is_member(m, tol: float = MEMBER_TOL) -> MembershipReport:
    """Certify the unimodular and pseudo-unitarity conditions in one pass
    over the 16 block floats; never raises, the report carries failure.

    The Study determinant is _study_det on the blocks, with the block rows
    swapped first when |c| > |a|, which leaves it unchanged.  The other
    defect is the largest |component| of _inverse(m) m - I, which is gamma^0
    (dagger(m) gamma^0 m - gamma^0): its bottom row is the sandwich's negated
    term by term, so the defect keeps the sandwich's bits; NaN if it holds one.
    """
    m = _qmat(m)
    t11, t12, t21, t22 = _matmul(_inverse(m), m)
    unit_defect = float(_max_abs((t11[0] - 1.0, *t11[1:], *t12, *t21, t22[0] - 1.0, *t22[1:])))
    a, b, c, d = m
    if c.norm2() > a.norm2():  # swap the block rows
        a, b, c, d = c, d, a, b
    det_defect = float(abs(_study_det(a, b, c, d) - 1.0))
    return MembershipReport(det_defect, unit_defect, tol,
                            bool(det_defect <= tol and unit_defect <= tol))


def _study_det(a, b, c, d):
    """The Study determinant |a|^2 |d - c conj(a) b / |a|^2|^2 (Aslaksen,
    "Quaternionic determinants", 1996) of blocks pivoted to |a| >= |c|, as
    the unpivoted expansion cancels like eps |m|^4; Python floats or
    component-major arrays, as in _mul.  At a = 0 the divisor is 1: det = 0."""
    (a0, a1, a2, a3), (d0, d1, d2, d3) = a, d
    n = a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3
    k = 1.0 / (n + (n == 0.0))
    y0, y1, y2, y3 = _mul(_mul(c, (a0, -a1, -a2, -a3)), b)
    e0, e1, e2, e3 = d0 - k * y0, d1 - k * y1, d2 - k * y2, d3 - k * y3
    return n * (e0 * e0 + e1 * e1 + e2 * e2 + e3 * e3)


def certified(m, tol: float = MEMBER_TOL) -> GroupElement:
    """Wrap a matrix as a group element, raising NonMemberError on failure."""
    report = is_member(m, tol)
    if not report.passed:
        raise NonMemberError(report)
    return GroupElement(_qmat(m))


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    return GroupElement(_qmat(g1) @ _qmat(g2))


def _inverse(m) -> tuple:
    """Blocks (conj a, -conj c; -conj b, conj d) of the closed-form inverse
    gamma^0 dagger(m) gamma^0, for m given as four 4-sequences, as 4-tuples."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = m
    return ((a0, -a1, -a2, -a3), (-c0, c1, c2, c3), (-b0, b1, b2, b3), (d0, -d1, -d2, -d3))


def inverse(g: GroupElement) -> GroupElement:
    """Closed-form inverse (_inverse), which pseudo-unitarity makes exact."""
    return GroupElement(QMat2(*map(_quaternion, _inverse(_qmat(g)))))


def involution(g) -> QMat2:
    """The map g -> gamma^0 gamma^4 dagger(g) gamma^0 gamma^4, in closed form
    (conj d, conj b; conj c, conj a), as gamma^0 gamma^4 = (0 1; 1 0).

    Applying it twice returns g.  It fixes space and time translations
    and sends rotations and boosts to their inverses, which is what makes
    the four-factor splitting well posed.
    """
    a, b, c, d = _qmat(g)
    return QMat2(d.conj(), b.conj(), c.conj(), a.conj())


def act_vector(g, x) -> np.ndarray:
    """Action on a raw 5-vector: unslash(g slash(x) g^-1), by two _matmul
    calls on the blocks of g, _slash(x) on x's floats and _inverse(g)."""
    m = _qmat(g)
    return unslash(_matmul(_matmul(m, _slash(np.asarray(x, dtype=float).tolist())), _inverse(m)))


def _act_origin(m) -> tuple:
    """act_vector(m, e4), the image of the origin, as five floats, for m
    given as four 4-sequences of finite floats.

    With S = slash(e4) = (0, -1; 1, 0), m S is the signed permutation
    (b, -a; d, -c), read off in place of the first product.  The read-off
    holds for finite m only, as the product turns an inf into NaN.  Its
    zeros are written +0, the sign the product gives them on group members;
    on sparse +-0/+-1 matrices off the group a zero of the result can take
    the other sign, so callers certify m first, as decompose does.  The
    slash-image check of _unslash runs in full.
    """
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = m
    ms = ((b0 + 0.0, b1 + 0.0, b2 + 0.0, b3 + 0.0), (0.0 - a0, 0.0 - a1, 0.0 - a2, 0.0 - a3),
          (d0 + 0.0, d1 + 0.0, d2 + 0.0, d3 + 0.0), (0.0 - c0, 0.0 - c1, 0.0 - c2, 0.0 - c3))
    return _unslash(_matmul(ms, _inverse(m)))


def act(g, p: DSPoint) -> DSPoint:
    """Action on a hyperboloid point; the radius is preserved."""
    return DSPoint(act_vector(g, p.x), p.R)


def t_space_translation(w: Quaternion) -> GroupElement:
    w = ensure_unit(w)
    return GroupElement(QMat2(w, ZERO, ZERO, w.conj()))


def t_time_translation(psi: float) -> GroupElement:
    ch = Quaternion(math.cosh(0.5 * psi), 0.0, 0.0, 0.0)
    sh = Quaternion(math.sinh(0.5 * psi), 0.0, 0.0, 0.0)
    return GroupElement(QMat2(ch, sh, sh, ch))


def t_space_rotation(v: Quaternion) -> GroupElement:
    v = ensure_unit(v)
    return GroupElement(QMat2(v, ZERO, ZERO, v))


def t_boost(phi: float, u: Quaternion) -> GroupElement:
    u = ensure_pure_unit(u)
    ch = Quaternion(math.cosh(0.5 * phi), 0.0, 0.0, 0.0)
    su = u.scale(math.sinh(0.5 * phi))
    return GroupElement(QMat2(ch, su, -su, ch))


class DecompositionFactors(NamedTuple):
    """Canonical section (w, psi, v, phi, u) of the four-factor splitting."""

    w: Quaternion
    psi: float
    v: Quaternion
    phi: float
    u: Quaternion


def factor_blocks(w, v, u, ch, sh, cb, sb) -> tuple:
    """Blocks (a, b, c, d) of T_st(w) T_tt(psi) T_sr(v) T_bt(phi, u) in closed
    form, from unit quaternions w, v, a unit direction u = (u1, u2, u3), ch, sh
    = cosh, sinh(psi/2) and cb, sb = cosh, sinh(phi/2): with p = (ch cb, -sh sb u)
    and q = (sh cb, ch sb u) they are (w v p, w v q; conj(w) v conj(q),
    conj(w) v conj(p)).  Components are Python floats (reconstruct) or
    component-major arrays (batch.reconstruct), through quaternion._mul."""
    (u1, u2, u3), (w0, w1, w2, w3) = u, w
    t, k = -sh * sb, ch * sb
    p0, p1, p2, p3 = ch * cb, t * u1, t * u2, t * u3
    q0, q1, q2, q3 = sh * cb, k * u1, k * u2, k * u3
    wv, wbv = _mul(w, v), _mul((w0, -w1, -w2, -w3), v)
    return (_mul(wv, (p0, p1, p2, p3)), _mul(wv, (q0, q1, q2, q3)),
            _mul(wbv, (q0, -q1, -q2, -q3)), _mul(wbv, (p0, -p1, -p2, -p3)))


def reconstruct(f: DecompositionFactors) -> GroupElement:
    """Product T_st(w) T_tt(psi) T_sr(v) T_bt(phi, u) by factor_blocks."""
    w, v, u = ensure_unit(f.w), ensure_unit(f.v), ensure_pure_unit(f.u)
    ch, sh = math.cosh(0.5 * f.psi), math.sinh(0.5 * f.psi)
    cb, sb = math.cosh(0.5 * f.phi), math.sinh(0.5 * f.phi)
    return GroupElement(QMat2(*map(_quaternion, factor_blocks(w, v, u[1:], ch, sh, cb, sb))))


def _lorentz_factor(m, w, psi: float) -> QMat2:
    """T_tt(-psi) T_st(conj(w)) m in closed form (decompose, step 2) on
    floats: p, q, r, t = conj(w) a, conj(w) b, w c, w d through _mul, for m
    and w given as 4-sequences, then ch x - sh y per component."""
    a, b, c, d = m
    wc = (w[0], -w[1], -w[2], -w[3])
    (p0, p1, p2, p3), (q0, q1, q2, q3) = _mul(wc, a), _mul(wc, b)
    (r0, r1, r2, r3), (t0, t1, t2, t3) = _mul(w, c), _mul(w, d)
    ch, sh = math.cosh(0.5 * psi), math.sinh(0.5 * psi)
    return QMat2(_quaternion((ch * p0 - sh * r0, ch * p1 - sh * r1, ch * p2 - sh * r2, ch * p3 - sh * r3)),
                 _quaternion((ch * q0 - sh * t0, ch * q1 - sh * t1, ch * q2 - sh * t2, ch * q3 - sh * t3)),
                 _quaternion((ch * r0 - sh * p0, ch * r1 - sh * p1, ch * r2 - sh * p2, ch * r3 - sh * p3)),
                 _quaternion((ch * t0 - sh * q0, ch * t1 - sh * q1, ch * t2 - sh * q2, ch * t3 - sh * q3)))


def decompose(g, member_tol: float = MEMBER_TOL) -> DecompositionFactors:
    """Split g into space translation, time translation, rotation and boost.

    The factorization is not unique; this routine fixes one canonical
    section.  Steps:

    1. Move the origin: x = g . origin (_act_origin) gives psi = asinh(x0)
       and a unit quaternion z from the spatial part, with w the principal
       square root of z (scalar part >= 0; z = -1 resolves to e1).
    2. Peel the translations off: L = T_tt(-psi) T_st(conj(w)) g =
       (ch p - sh r, ch q - sh t; ch r - sh p, ch t - sh q), with ch, sh =
       cosh, sinh(psi/2) and p, q, r, t = conj(w) a, conj(w) b, w c, w d
       (_lorentz_factor), must stabilize the origin and have the Lorentz
       block structure a = d, b = -c; violations signal an implementation or
       conditioning fault.
    3. Read the boost off the Lorentz factor: v = a/|a| and, since
       membership forces |a|^2 - |b|^2 = 1, sinh(phi/2) = |b|.  phi is
       recovered as 2 asinh(|b|), which stays fully conditioned at small
       rapidity where acosh(|a|) would lose half the digits.  The boost
       direction is the vector part of conj(v) b over its norm, the
       round-off scalar part dropped; a vector part of norm <= 1e-12
       degenerates to phi = 0, u = e1.

    Every step runs on the block floats, through quaternion._mul and
    gamma._matmul, with no Quaternion or QMat2 arithmetic; Quaternion
    objects only hold z, the blocks of L and the factors returned.
    Reconstructing the factors reproduces g to near round-off for any
    certified member.
    """
    gm = certified(g, member_tol).m

    x0, x1, x2, x3, x4 = _act_origin(gm)
    psi = math.asinh(x0)
    ch = math.cosh(psi)
    z = ensure_unit(Quaternion(x4 / ch, x1 / ch, x2 / ch, x3 / ch))
    w = sqrt_unit(z)

    L = _lorentz_factor(gm, w, psi)
    x0, x1, x2, x3, x4 = _act_origin(L)
    stab = _max_abs((x0, x1, x2, x3, x4 - 1.0))
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = L
    structure = _max_abs((a0 - d0, a1 - d1, a2 - d2, a3 - d3, b0 + c0, b1 + c1, b2 + c2, b3 + c3))
    if stab > 1e-9 or structure > 1e-9:
        raise RuntimeError(
            f"Lorentz factor fails the stabilizer check "
            f"(origin defect {stab:.3e}, block defect {structure:.3e})"
        )

    na = math.hypot(a0, a1, a2, a3)
    if na < 1.0 - 1e-12:
        raise RuntimeError(f"|a| = {na!r} below 1 beyond clamp tolerance")
    k = 1.0 / na
    v0, v1, v2, v3 = k * a0, k * a1, k * a2, k * a3
    us, ux, uy, uz = _mul((v0, -v1, -v2, -v3), L.b)
    # The scalar part is membership round-off at matrix scale; checking
    # it after the 1/|b| amplification would misfire for tiny boosts.
    if abs(us) > 1e-8 * max(1.0, _max_abs((*L.a, *L.b, *L.c, *L.d))):
        raise RuntimeError(f"boost direction has scalar part {us!r}")
    # Branch on the vector part alone: |b| also counts the scalar round-off,
    # which can pass 1e-12 in a certified member whose boost vanishes.
    nv = math.hypot(ux, uy, uz)
    if nv > 1e-12:
        phi = 2.0 * math.asinh(math.hypot(b0, b1, b2, b3))
        u = ensure_pure_unit(Quaternion(0.0, ux / nv, uy / nv, uz / nv))
    else:
        phi, u = 0.0, E1
    return DecompositionFactors(w, psi, Quaternion(v0, v1, v2, v3), phi, u)


#: Ranges of the seeded rapidities psi and phi, here and in batch.members.
PSI_RANGE = (-2.0, 2.0)
PHI_RANGE = (0.0, 2.0)


def random_member(rng: np.random.Generator, method: str = "factors") -> GroupElement:
    """Seeded random group element.

    Two independent distributions are provided so fuzz suites do not
    inherit the blind spots of a single generator: "factors" multiplies
    random one-parameter factors (psi uniform in PSI_RANGE, phi in
    PHI_RANGE), "exp" exponentiates algebra.random_element.
    """
    if method == "factors":  # drawn in the order w, psi, v, phi, u
        w, psi = random_unit(rng), float(rng.uniform(*PSI_RANGE))
        v, phi = random_unit(rng), float(rng.uniform(*PHI_RANGE))
        return reconstruct(DecompositionFactors(w, psi, v, phi, random_unit_vector(rng)))
    if method == "exp":
        from .algebra import exp, random_element

        return exp(random_element(rng))
    raise ValueError(f"unknown method {method!r}")


def random_ds_point(rng: np.random.Generator, R: float = 1.0) -> DSPoint:
    """Seeded random hyperboloid point, psi uniform in PSI_RANGE."""
    psi = rng.uniform(*PSI_RANGE)
    z = random_unit(rng)
    ch = R * math.cosh(psi)
    x = np.array([R * math.sinh(psi), ch * z.x, ch * z.y, ch * z.z, ch * z.s])
    return DSPoint(x, R)
