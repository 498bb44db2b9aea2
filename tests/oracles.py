"""Independent oracle routes used to derive expected values, and the
random inputs the tests feed them.

The routes go through the 4x4 complex embedding and generic numpy or scipy
linear algebra, through generic QMat2 products of the factor matrices, or
through a Taylor polynomial on real 8x8 matrices, never through the
quaternionic closed forms under test.
"""

import json
import math

import numpy as np
from scipy.linalg import expm

from ds4 import orbits
from ds4.batch import _T
from ds4.gamma import ETA, QMat2, embed_blocks, gamma, slash
from ds4.group import (
    DecompositionFactors,
    MembershipReport,
    NonMemberError,
    inverse,
    t_boost,
    t_space_rotation,
    t_space_translation,
    t_time_translation,
)
from ds4.quaternion import _BASIS, E1, Quaternion, embed, ensure_pure_unit, ensure_unit, sqrt_unit


def extract(m, tol: float = 1e-10) -> np.ndarray:
    """Inverse of embed over leading axes, (..., 2, 2) -> (..., 4).

    Rejects the input if any matrix is outside the quaternion image, at
    tol relative to that matrix's own largest entry.
    """
    m = np.ascontiguousarray(m, dtype=complex)
    q = 0.5 * (m.reshape(-1, 4).view(float) @ _BASIS.T).reshape(m.shape[:-2] + (4,))
    defect = np.abs(m - embed(q)).max(axis=(-2, -1))
    if np.any(defect > tol * np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))):
        raise ValueError(f"matrix is not in the quaternion image (defect {defect.max():.3e})")
    return q


def extract_blocks(m, tol: float = 1e-10) -> np.ndarray:
    """Inverse of gamma.embed_blocks; each 2x2 block is checked on its own scale."""
    m = np.asarray(m, dtype=complex)
    return extract(m.reshape(m.shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -2), tol)


def qmat_from_embedding(m, tol: float = 1e-10) -> QMat2:
    """Inverse of QMat2.embed."""
    return QMat2(*map(Quaternion._make, extract_blocks(m, tol).reshape(4, 4).tolist()))


def random_quaternion(rng: np.random.Generator, scale: float = 1.0) -> Quaternion:
    """Components uniform in [-scale, scale]."""
    return Quaternion(*rng.uniform(-scale, scale, 4).tolist())


def gamma_lower(alpha: int) -> QMat2:
    """Lower-index gamma_alpha = eta_aa gamma^alpha (no sum)."""
    g = gamma(alpha)
    return g if ETA[alpha] > 0 else -g


_GAMMA_EMB = [gamma(a).embed() for a in range(5)]
_GAMMA_LOWER_EMB = [gamma_lower(a).embed() for a in range(5)]


def mul_via_embedding(q1: Quaternion, q2: Quaternion) -> Quaternion:
    """Quaternion product computed in the 2x2 complex representation."""
    return Quaternion(*extract(embed(q1) @ embed(q2)))


def slash_via_summation(x) -> np.ndarray:
    """Sum x^a gamma_a in the embedding (lower-index contraction)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((4, 4), dtype=complex)
    for a in range(5):
        out += x[a] * _GAMMA_LOWER_EMB[a]
    return out


def unslash_via_traces(m4: np.ndarray) -> np.ndarray:
    """Components (1/4) Re tr(gamma^a m) straight from the 4x4 matrix."""
    return np.array([0.25 * np.trace(_GAMMA_EMB[a] @ m4).real for a in range(5)])


def act_via_embedding(g, x) -> np.ndarray:
    """Conjugate the slashed vector with generic complex linear algebra."""
    G = (g.m if hasattr(g, "m") else g).embed()
    moved = G @ slash_via_summation(x) @ np.linalg.inv(G)
    return unslash_via_traces(moved)


def det_via_embedding(m: QMat2) -> float:
    """Study determinant as the complex determinant of the 4x4 embedding."""
    return float(np.linalg.det(m.embed()).real)


def inverse_via_embedding(g) -> QMat2:
    G = (g.m if hasattr(g, "m") else g).embed()
    return qmat_from_embedding(np.linalg.inv(G))


def adjoint_via_embedding(g, X) -> np.ndarray:
    """G X G^-1 of (..., 2, 2, 4) blocks in the 4x4 embedding, G^-1 by
    np.linalg.inv, read back as blocks."""
    G = embed_blocks(g)
    return extract_blocks(G @ embed_blocks(X) @ np.linalg.inv(G))


def rotation(z) -> np.ndarray:
    """(..., 3, 3) matrices R with R v = z v conj(z), for (..., 4) unit quaternions z."""
    s, x, y, w = np.moveaxis(np.asarray(z, dtype=float), -1, 0)
    R = np.array([
        [1 - 2 * (y * y + w * w), 2 * (x * y - s * w), 2 * (x * w + s * y)],
        [2 * (x * y + s * w), 1 - 2 * (x * x + w * w), 2 * (y * w - s * x)],
        [2 * (x * w - s * y), 2 * (y * w + s * x), 1 - 2 * (x * x + y * y)],
    ])
    return np.moveaxis(R, (0, 1), (-2, -1))


def orbit_coords_via_rotation(z, p, kappa: float):
    """(a, j, d0, d) of the orbit matrix (p, p0 z; p0 conj(z), -conj(z) p z)
    over leading axes, with conj(z) p z = R(z)^T p and p0 = sqrt(kappa^2 + p.p):
    a = (p + R^T p)/2, j = (p - R^T p)/2, d0 = p0 z_s and d = p0 z_v."""
    z, p = np.asarray(z, dtype=float), np.asarray(p, dtype=float)
    back = (np.swapaxes(rotation(z), -2, -1) @ p[..., None])[..., 0]
    p0 = np.sqrt(kappa * kappa + (p * p).sum(-1))
    return 0.5 * (p + back), 0.5 * (p - back), p0 * z[..., 0], p0[..., None] * z[..., 1:]


def is_member_via_qmat(m, tol: float = 1e-10) -> MembershipReport:
    """group.is_member as Quaternion and QMat2 expressions: the pivoted Schur
    complement and the sandwich dagger(m) gamma^0 m - gamma^0 as QMat2 objects."""
    m = m.m if hasattr(m, "m") else m
    a, b, c, d = (m.c, m.d, m.a, m.b) if m.c.norm2() > m.a.norm2() else m
    n = a.norm2()
    det = 0.0 if n == 0.0 else n * (d - (c * a.conj() * b).scale(1.0 / n)).norm2()
    det_defect = float(abs(det - 1.0))
    sandwich = m.dagger() @ QMat2(m.a, m.b, -m.c, -m.d)
    unit_defect = float((sandwich - gamma(0)).max_norm())
    return MembershipReport(det_defect, unit_defect, tol,
                            bool(det_defect <= tol and unit_defect <= tol))


def unslash_via_qmat(m: QMat2, tol: float = 1e-10) -> np.ndarray:
    """gamma.unslash checked by rebuilding slash(x) and subtracting m."""
    bx = (m.c.conj() - m.b).scale(0.5)
    x = np.array([0.5 * (m.a.s - m.d.s), bx.x, bx.y, bx.z, bx.s])
    defect = (slash(x) - m).max_norm()
    if defect > tol * max(1.0, m.max_norm()):
        raise ValueError(f"matrix is not in the slash image (defect {defect:.3e})")
    return x


def act_vector_via_qmat(g, x) -> np.ndarray:
    """group.act_vector as the QMat2 products g @ slash(x) @ inverse(g)."""
    m = g.m if hasattr(g, "m") else g
    return unslash_via_qmat(m @ slash(x) @ inverse(g).m)


def reconstruct_via_products(f) -> QMat2:
    """T_st(w) T_tt(psi) T_sr(v) T_bt(phi, u) as three generic QMat2 products."""
    return (t_space_translation(f.w).m @ t_time_translation(f.psi).m
            @ t_space_rotation(f.v).m @ t_boost(f.phi, f.u).m)


def lorentz_factor_via_products(m: QMat2, w: Quaternion, psi: float) -> QMat2:
    """T_tt(-psi) T_st(conj(w)) m as two generic QMat2 products."""
    return t_time_translation(-psi).m @ t_space_translation(w.conj()).m @ m


def decompose_via_qmat(g, tol: float = 1e-10) -> DecompositionFactors:
    """group.decompose as Quaternion and QMat2 expressions: certification by
    is_member_via_qmat, g . origin by act_vector_via_qmat, the Lorentz factor
    by Quaternion products, scale and subtraction, and the stabilizer check
    on numpy arrays."""
    m = g.m if hasattr(g, "m") else g
    report = is_member_via_qmat(m, tol)
    if not report.passed:
        raise NonMemberError(report)
    e4 = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    x0, x1, x2, x3, x4 = act_vector_via_qmat(m, e4).tolist()
    psi = math.asinh(x0)
    ch = math.cosh(psi)
    w = sqrt_unit(ensure_unit(Quaternion(x4 / ch, x1 / ch, x2 / ch, x3 / ch)))
    p, q, r, t = w.conj() * m.a, w.conj() * m.b, w * m.c, w * m.d
    ch, sh = math.cosh(0.5 * psi), math.sinh(0.5 * psi)
    L = QMat2(p.scale(ch) - r.scale(sh), q.scale(ch) - t.scale(sh),
              r.scale(ch) - p.scale(sh), t.scale(ch) - q.scale(sh))
    stab = np.abs(act_vector_via_qmat(L, e4) - e4).max()
    structure = max((L.a - L.d).max_abs(), (L.b + L.c).max_abs())
    if stab > 1e-9 or structure > 1e-9:
        raise RuntimeError(f"Lorentz factor fails the stabilizer check "
                           f"(origin defect {stab:.3e}, block defect {structure:.3e})")
    na = L.a.norm()
    if na < 1.0 - 1e-12:
        raise RuntimeError(f"|a| = {na!r} below 1 beyond clamp tolerance")
    v = L.a.scale(1.0 / na)
    u_raw = v.conj() * L.b
    if abs(u_raw.s) > 1e-8 * max(1.0, L.max_norm()):
        raise RuntimeError(f"boost direction has scalar part {u_raw.s!r}")
    nv = math.hypot(u_raw.x, u_raw.y, u_raw.z)
    if nv > 1e-12:
        phi = 2.0 * math.asinh(L.b.norm())
        u = ensure_pure_unit(Quaternion(0.0, u_raw.x / nv, u_raw.y / nv, u_raw.z / nv))
    else:
        phi, u = 0.0, E1
    return DecompositionFactors(w, psi, v, phi, u)


def element_json(g) -> dict:
    """The {"blocks"} record of a group or algebra element (`ds4 decompose`'s
    input, `ds4 orbit --matrix`'s matrix), written without ds4.cli."""
    return {"blocks": {k: {"s": q.s, "v": [q.x, q.y, q.z]} for k, q in zip("abcd", g.m)}}


def orbit_lines_pointwise(kappa: float, n: int, p_max: float, seed: int, matrix: bool) -> str:
    """`ds4 orbit` stdout built record by record, one row of the sampled stack
    at a time, through the single-point forms of orbit_matrix,
    to_coadjoint_coords and conservation_residuals."""
    lines = []
    pts = orbits.sample_orbit(kappa, n, p_max, seed)
    for z, p in zip(pts.z, pts.p):
        pt = orbits.OrbitPoint(z, p, pts.kappa)
        X = orbits.orbit_matrix(*pt)
        coords = orbits.to_coadjoint_coords(X)
        res = orbits.conservation_residuals(coords, pt.kappa)
        s, x, y, w = map(float, pt.z)
        record = {"z": {"s": s, "v": [x, y, w]}, "p": [float(c) for c in pt.p],
                  "kappa": pt.kappa,
                  "coords": {"a": [float(c) for c in coords.a], "j": [float(c) for c in coords.j],
                             "d0": coords.d0, "d": [float(c) for c in coords.d]},
                  "residuals": {"r1": [float(c) for c in res.r1], "r2": res.r2,
                                "degenerate": res.degenerate}}
        if matrix:
            record["matrix"] = element_json(X)
        lines.append(json.dumps(record, allow_nan=False))
    return "\n".join(lines) + "\n"


def left_matrices_via_swap(m) -> np.ndarray:
    """The real 8x8 left-multiplication matrices of (..., 2, 2, 4) blocks m,
    as 4x4 blocks (one product by the basis table) moved into place by a
    swap of axes and a copy."""
    left = (m @ _T.reshape(4, 16)).reshape(m.shape[:-1] + (4, 4))
    return left.swapaxes(-3, -2).reshape(m.shape[:-3] + (8, 8))


def expm_via_pade(A) -> np.ndarray:
    """scipy's scaling-and-squaring Pade exponential of each 4x4 matrix."""
    A = np.asarray(A)
    return np.array([expm(a) for a in A.reshape(-1, 4, 4)]).reshape(A.shape)


#: _TAYLOR[j, i] = 1/(4j + i)! up to degree 17 and 0 beyond, so that the
#: Taylor polynomial sum_k B^k/k! is sum_j (sum_i _TAYLOR[j, i] B^i) (B^4)^j.
_TAYLOR = np.array([[1.0 / math.factorial(k) if k <= 17 else 0.0 for k in range(4 * j, 4 * j + 4)]
                    for j in range(5)])


def squarings(m) -> np.ndarray:
    """Squarings of expm_via_taylor: the power of two that takes the largest
    block component of each (..., 2, 2, 4) matrix to at most 1/2."""
    return np.ceil(np.log2(np.maximum(np.abs(m).max(axis=(-3, -2, -1)), 0.5) / 0.5))


def expm_via_taylor(m) -> np.ndarray:
    """exp of (..., 2, 2, 4) quaternionic matrices by scaling and squaring the
    degree-17 Taylor polynomial of their real 8x8 left-multiplication
    matrices, evaluated by Paterson-Stockmeyer (the powers B .. B^4, five
    chunk sums and a Horner loop in B^4: 7 real 8x8 products).  The blocks
    are read off the first column of each 4x4 block, since L(q) e_0 = q."""
    s = squarings(m)
    B = left_matrices_via_swap(m) / (2.0 ** s)[..., None, None]
    P = np.stack((np.broadcast_to(np.eye(8), B.shape), B, B @ B, B @ B @ B), -3)
    B4 = P[..., 2, :, :] @ P[..., 2, :, :]
    C = (_TAYLOR @ P.reshape(P.shape[:-3] + (4, 64))).reshape(P.shape[:-3] + (5, 8, 8))
    E = C[..., 4, :, :]
    for j in (3, 2, 1, 0):
        E = E @ B4 + C[..., j, :, :]
    for i in range(int(s.max(initial=0.0))):
        E = np.where((s > i)[..., None, None], E @ E, E)
    return E[..., ::4].reshape(E.shape[:-2] + (2, 4, 2)).swapaxes(-2, -1)


#: The error bound of expm_via_taylor, which the closed-form exponential is
#: held to: its 7 real 8x8 products are each within gamma_8 = 8 eps of their
#: terms' magnitudes, so the polynomial at B = L/2^s is within 7 gamma_8 <
#: 64 eps of exp(B) relative to its scale, plus the Taylor remainder, at most
#: sum_{k>=18} ||B||_2^k/k!.  Each of the s squarings doubles a relative
#: error.  scipy's Pade route carries an error of the same order.
EXPM_EPS = 64


def expm_tolerance(m) -> np.ndarray:
    """Bound on the max-entry error of exp(m) relative to its largest entry."""
    s = squarings(m)
    theta = np.linalg.norm(embed_blocks(m) / (2.0 ** s)[..., None, None], 2, axis=(-2, -1))
    remainder = sum(theta**k / math.factorial(k) for k in range(18, 40))
    return 2.0**s * (EXPM_EPS * np.finfo(float).eps + remainder)


def structure_rhs_oracle(alpha, beta, rho, delta, k_of, zero):
    """Right-hand side -(eta_ar K_bd + eta_bd K_ar - eta_ad K_br - eta_br K_ad)
    written out term by term with explicit metric factors."""
    out = zero
    if alpha == rho:
        out = out + _scaled(k_of(beta, delta), -ETA[alpha])
    if beta == delta:
        out = out + _scaled(k_of(alpha, rho), -ETA[beta])
    if alpha == delta:
        out = out + _scaled(k_of(beta, rho), ETA[alpha])
    if beta == rho:
        out = out + _scaled(k_of(alpha, delta), ETA[beta])
    return out


def _scaled(term, factor):
    if isinstance(term, QMat2):
        return term.scale(factor)
    return factor * term
