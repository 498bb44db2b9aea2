"""The Lie algebra sp(2,2): generators, coordinate chart, brackets, the 5x5
so(1,4) realization and the exponential map back to the group.

Ten generators in the quaternionic representation: X_k (space translations),
X0 (time translation), Y_k (rotations) and Z_k (boosts).  A general element
is parameterized by (a, j, d0, d) in R^10 through

    2 a^k X_k + 2 j^k Y_k + 2 d0 X0 + 2 d^k Z_k
        = ((a+j).e,  d0 + d.e;  d0 - d.e,  (-a+j).e)

where x.e is the pure-vector quaternion with components x.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .gamma import ETA, QMat2, slash, unslash
from .group import GroupElement, certified
from .quaternion import E1, E2, E3, ONE, ZERO, Quaternion

GENERATOR_LABELS = ("X1", "X2", "X3", "X0", "Y1", "Y2", "Y3", "Z1", "Z2", "Z3")

_EK = (E1, E2, E3)


def _pure(vec) -> Quaternion:
    return Quaternion(0.0, float(vec[0]), float(vec[1]), float(vec[2]))


class AlgebraElement(NamedTuple):
    m: QMat2

    @classmethod
    def from_qmat(cls, m: QMat2) -> "AlgebraElement":
        """Wrap m once it passes the algebra-shape check (shape_checked)."""
        shape_checked(m)
        return cls(m)

    def to_json(self) -> dict:
        a, j, d0, d = to_coords(self)
        return {"a": list(a), "j": list(j), "d0": d0, "d": list(d)}

    @classmethod
    def from_json(cls, obj: dict) -> "AlgebraElement":
        return from_coords(obj["a"], obj["j"], obj["d0"], obj["d"])


#: Algebra-shape tolerance, relative to max(1, the matrix's max-norm).
SHAPE_TOL = 1e-12
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def _blocks(X) -> np.ndarray:
    """(..., 2, 2, 4) blocks as given, or those of one QMat2 or AlgebraElement."""
    return np.array(X).reshape(2, 2, 4) if isinstance(X, tuple) else X


def shape_residual(m) -> np.ndarray:
    """Distance from the algebra block pattern over leading axes (pure-vector
    diagonal blocks, lower-left the conjugate of upper-right); NaN propagates."""
    m = _blocks(m)
    res = np.maximum(np.abs(m[..., 0, 0, 0]), np.abs(m[..., 1, 1, 0]))
    return np.maximum(res, np.abs(m[..., 1, 0, :] - m[..., 0, 1, :] * _CONJ).max(-1))


def shape_checked(m):
    """m, or ValueError if a matrix is off the algebra shape by more than
    SHAPE_TOL relative to its scale, which carries a NaN anywhere."""
    b = _blocks(m)
    res = shape_residual(b)
    if not (res <= SHAPE_TOL * np.maximum(1.0, np.abs(b).max(axis=(-3, -2, -1)))).all():
        raise ValueError(f"matrix is not in the algebra shape (defect {res.max():.3e})")
    return m


def from_coords(a, j, d0, d) -> AlgebraElement:
    a, j, d = (np.asarray(x, dtype=float) for x in (a, j, d))
    top = Quaternion(float(d0), *d.tolist())
    return AlgebraElement(QMat2(_pure(a + j), top, top.conj(), _pure(j - a)))


def to_coords(X) -> tuple[np.ndarray, np.ndarray, np.ndarray | float, np.ndarray]:
    """(a, j, d0, d) read off (..., 2, 2, 4) blocks, or off one element with
    d0 a float; the inverse of from_coords, exact on shape-valid elements."""
    m = _blocks(X)
    av, dv, b = m[..., 0, 0, 1:], m[..., 1, 1, 1:], m[..., 0, 1, :]
    d0 = b[..., 0]
    return 0.5 * (av - dv), 0.5 * (av + dv), d0 if np.ndim(d0) else float(d0), b[..., 1:]


_GENERATORS = {}
for _k in range(3):
    _e = _EK[_k].scale(0.5)
    _GENERATORS[f"X{_k + 1}"] = AlgebraElement(QMat2(_e, ZERO, ZERO, -_e))
    _GENERATORS[f"Y{_k + 1}"] = AlgebraElement(QMat2(_e, ZERO, ZERO, _e))
    _GENERATORS[f"Z{_k + 1}"] = AlgebraElement(QMat2(ZERO, _e, -_e, ZERO))
_GENERATORS["X0"] = AlgebraElement(QMat2(ZERO, ONE.scale(0.5), ONE.scale(0.5), ZERO))

#: Plane (alpha, beta) for which K_{alpha beta} equals each labeled generator:
#: K_{4k} = X_k, K_{04} = X0, K_{ki} = eps_{ki}^j Y_j, K_{0k} = Z_k.
K_INDEX = {
    "X1": (4, 1), "X2": (4, 2), "X3": (4, 3),
    "X0": (0, 4),
    "Y1": (2, 3), "Y2": (3, 1), "Y3": (1, 2),
    "Z1": (0, 1), "Z2": (0, 2), "Z3": (0, 3),
}
_K_TABLE = {}
for _lab, (_al, _be) in K_INDEX.items():
    _K_TABLE[(_al, _be)] = (_lab, +1)
    _K_TABLE[(_be, _al)] = (_lab, -1)


def generator(label: str) -> AlgebraElement:
    """One of the ten basis generators by label."""
    try:
        return _GENERATORS[label]
    except KeyError:
        raise ValueError(f"unknown generator label {label!r}") from None


def k_label(alpha: int, beta: int) -> tuple[str, int]:
    """Label and sign such that K_{alpha beta} = sign * generator(label)."""
    if alpha == beta:
        raise ValueError("K indices must differ")
    try:
        return _K_TABLE[(alpha, beta)]
    except KeyError:
        raise ValueError(f"invalid K indices ({alpha}, {beta})") from None


def k_generator(alpha: int, beta: int) -> AlgebraElement:
    """Antisymmetric generator family K_{alpha beta} in the quaternionic rep."""
    label, sign = k_label(alpha, beta)
    g = generator(label)
    return g if sign > 0 else AlgebraElement(-g.m)


def bracket(X: AlgebraElement, Y: AlgebraElement) -> AlgebraElement:
    """Commutator XY - YX; the result is checked against the algebra shape."""
    m = X.m @ Y.m - Y.m @ X.m
    return AlgebraElement.from_qmat(m)


# ---------------------------------------------------------------------------
# 5x5 realization on the ambient space

# Time-axis orientation: the raw matrix of the rotation field x_a @_b - x_b @_a
# intertwines the quaternionic generators only up to a sign on every plane that
# contains the 0 axis.  The sign vector below folds that in, so the 5x5 family
# matches the slash-induced action with unit proportionality (asserted in the
# homomorphism suite) while still satisfying the structure-constant table.
_AXIS_SIGN = (-1, 1, 1, 1, 1)


def so14_matrix(alpha: int, beta: int) -> np.ndarray:
    """Integer 5x5 generator of the plane (alpha, beta); eta K is antisymmetric."""
    if alpha == beta:
        raise ValueError("plane indices must differ")
    if not (0 <= alpha <= 4 and 0 <= beta <= 4):
        raise ValueError(f"invalid plane ({alpha}, {beta})")
    K = np.zeros((5, 5), dtype=int)
    sg = _AXIS_SIGN[alpha] * _AXIS_SIGN[beta]
    K[alpha, beta] = sg * ETA[beta]
    K[beta, alpha] = -sg * ETA[alpha]
    return K


_PLANES = [(a, b) for a in range(5) for b in range(a + 1, 5)]


def _k_qmat_or_zero(alpha: int, beta: int) -> QMat2:
    return QMat2.zero() if alpha == beta else k_generator(alpha, beta).m


def _k_so14_or_zero(alpha: int, beta: int) -> np.ndarray:
    return np.zeros((5, 5), dtype=int) if alpha == beta else so14_matrix(alpha, beta)


def structure_rhs(alpha, beta, rho, delta, k_of):
    """- (eta_ar K_bd + eta_bd K_ar - eta_ad K_br - eta_br K_ad)."""
    out = None
    for sign, (i1, i2), (j1, j2) in (
        (-1, (alpha, rho), (beta, delta)),
        (-1, (beta, delta), (alpha, rho)),
        (+1, (alpha, delta), (beta, rho)),
        (+1, (beta, rho), (alpha, delta)),
    ):
        if i1 != i2:
            continue
        term = sign * ETA[i1] * k_of(j1, j2)
        out = term if out is None else out + term
    if out is None:
        out = k_of(0, 0)  # zero element of the representation
    return out


def bracket_table_residual_quaternionic() -> float:
    """Worst defect of the 45 distinct commutators in the quaternionic rep."""
    worst = 0.0
    for i, (a, b) in enumerate(_PLANES):
        for (r, d) in _PLANES[i + 1:]:
            lhs = bracket(k_generator(a, b), k_generator(r, d)).m
            rhs = structure_rhs(a, b, r, d, _k_qmat_or_zero)
            worst = max(worst, (lhs - rhs).max_norm())
    return worst


def bracket_table_defect_so14() -> int:
    """Worst integer defect of the 45 distinct commutators in the 5x5 rep."""
    worst = 0
    for i, (a, b) in enumerate(_PLANES):
        for (r, d) in _PLANES[i + 1:]:
            Ka, Kb = so14_matrix(a, b), so14_matrix(r, d)
            lhs = Ka @ Kb - Kb @ Ka
            rhs = structure_rhs(a, b, r, d, _k_so14_or_zero)
            worst = max(worst, int(np.abs(lhs - rhs).max()))
    return worst


# ---------------------------------------------------------------------------
# Bridge between the quaternionic and 5x5 pictures

_BASIS5 = np.eye(5)


def slash_induced_matrix(X: AlgebraElement) -> np.ndarray:
    """5x5 matrix of ad_X pushed through the slash isomorphism.

    Column nu is unslash([X, slash(e_nu)]); linear in X by construction.
    """
    cols = [unslash(X.m @ slash(e) - slash(e) @ X.m) for e in _BASIS5]
    return np.column_stack(cols)


def homomorphism_residual(label: str) -> float:
    """Max-norm gap between the slash-induced matrix and so14_matrix."""
    L = slash_induced_matrix(generator(label))
    K = so14_matrix(*K_INDEX[label])
    return float(np.abs(L - K).max())


def intertwining_residual(label1: str, label2: str) -> float:
    """Check L([G1, G2]) = [L(G1), L(G2)] for a generator pair."""
    G1, G2 = generator(label1), generator(label2)
    left = slash_induced_matrix(bracket(G1, G2))
    L1, L2 = slash_induced_matrix(G1), slash_induced_matrix(G2)
    return float(np.abs(left - (L1 @ L2 - L2 @ L1)).max())


# ---------------------------------------------------------------------------
# Exponential map

_I4 = np.eye(4)
#: _T[i] is the 4x4 matrix of left multiplication by the i-th basis unit.
_T = np.array([[Quaternion(*e) * Quaternion(*f) for f in _I4] for e in _I4]).swapaxes(1, 2)


def left_matrices(m) -> np.ndarray:
    """(..., 8, 8) real matrices of n -> m n on the stacked columns of n, for
    (..., 2, 2, 4) blocks m: block (i, j) is the 4x4 matrix of q -> m_ij q."""
    left = (m @ _T.reshape(4, 16)).reshape(m.shape[:-1] + (4, 4))
    return left.swapaxes(-3, -2).reshape(m.shape[:-3] + (8, 8))


#: _TAYLOR[j, i] = 1/(4j + i)! up to degree 17 and 0 beyond, so that the
#: Taylor polynomial sum_k B^k/k! is sum_j (sum_i _TAYLOR[j, i] B^i) (B^4)^j.
_TAYLOR = np.array([[1.0 / math.factorial(k) if k <= 17 else 0.0 for k in range(4 * j, 4 * j + 4)]
                    for j in range(5)])
_I8 = np.eye(8)


def _exp_left(m) -> np.ndarray:
    """Scaling-and-squaring Taylor exponential of the left-multiplication
    matrices of (..., 2, 2, 4) blocks, as (..., 8, 8) arrays.

    Each matrix is scaled by its own power of two 2^s so that its largest
    block component is <= 1/2, the degree-17 Taylor polynomial is evaluated
    there, and the result is squared s times.  The polynomial is evaluated
    by Paterson-Stockmeyer: the powers I, B, B^2, B^3 and B^4, five chunk
    sums from one product with _TAYLOR, and a Horner loop in B^4, 7 real 8x8
    matrix products in all.

    A block L(q) has 2-norm |q| <= 1 when q's components are at most 1/2,
    so ||B||_2 <= 2, where the dropped terms are bounded by
    sum_{k>=18} 2^k/k! = 4.6e-11: a bound far above round-off, not the
    error.  The algebra's elements sit well inside it, and the measured
    error against scipy.linalg.expm is at round-off
    (tests/test_algebra.py::test_expm_against_scipy).  Squaring multiplies
    a relative error by about 2^s.
    """
    s = np.ceil(np.log2(np.maximum(np.abs(m).max(axis=(-3, -2, -1)), 0.5) / 0.5))
    lead = m.shape[:-3]
    P = np.empty(lead + (4, 8, 8))
    P[..., 0, :, :] = _I8
    R = P[..., 1, :, :]
    np.divide(left_matrices(m), (2.0 ** s)[..., None, None], out=R)
    np.matmul(R, R, out=P[..., 2, :, :])
    np.matmul(P[..., 2, :, :], R, out=P[..., 3, :, :])
    B4 = P[..., 2, :, :] @ P[..., 2, :, :]
    C = (_TAYLOR @ P.reshape(lead + (4, 64))).reshape(lead + (5, 8, 8))
    del P, R  # the powers are spent; drop them before the Horner loop
    out = C[..., 4, :, :]
    for j in (3, 2, 1, 0):
        out = out @ B4
        out += C[..., j, :, :]
    for i in range(int(s.max(initial=0.0))):
        out = np.where((s > i)[..., None, None], out @ out, out)
    return out


def _expm(m) -> np.ndarray:
    """exp of (..., 2, 2, 4) quaternionic matrices m, as the blocks q read off
    the first column of each 4x4 block of _exp_left, since L(q) e_0 = q.  A
    non-finite m is rejected, and so is a result with an entry of a 4x4 block
    off L(q) by more than 1e-9 max(1, largest |q_k|), or NaN."""
    if not np.isfinite(m).all():
        raise ValueError("exp of a matrix with a NaN or infinite component")
    E = _exp_left(m)
    q = E[..., ::4].reshape(E.shape[:-2] + (2, 4, 2)).swapaxes(-2, -1).copy()
    a = np.abs(q)
    scale = np.maximum(np.maximum(a[..., 0], a[..., 1]), np.maximum(a[..., 2], a[..., 3]))
    defect = np.abs(E - left_matrices(q)).reshape(E.shape[:-2] + (2, 4, 2, 4))
    if not (defect <= 1e-9 * np.maximum(1.0, scale)[..., :, None, :, None]).all():
        raise ValueError(f"matrix is not in the quaternion image (defect {defect.max():.3e})")
    return q


def exp(X: AlgebraElement, t: float = 1.0) -> GroupElement:
    """Group element exp(t X), computed by _expm on the quaternion blocks and
    certified as a member; exp(theta X_k), exp(psi X0), exp(theta Y_k) and
    exp(phi Z_k) reproduce the corresponding one-parameter subgroups.
    """
    E = _expm(np.reshape(X.m.scale(t), (2, 2, 4)))
    return certified(QMat2(*map(Quaternion._make, E.reshape(4, 4).tolist())))


def random_element(rng: np.random.Generator) -> AlgebraElement:
    """Coordinates uniform in [-1, 1]^10."""
    c = rng.uniform(-1.0, 1.0, 10)
    return from_coords(c[0:3], c[3:6], float(c[6]), c[7:10])
