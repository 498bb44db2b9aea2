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

from .gamma import ETA, QMat2, _matmul, slash, unslash
from .group import GroupElement, certified
from .quaternion import E1, E2, E3, ONE, ZERO, Quaternion, _mul, _mul_add, _quaternion

GENERATOR_LABELS = ("X1", "X2", "X3", "X0", "Y1", "Y2", "Y3", "Z1", "Z2", "Z3")

_EK = (E1, E2, E3)


class AlgebraElement(NamedTuple):
    m: QMat2

    @classmethod
    def from_qmat(cls, m: QMat2) -> "AlgebraElement":
        """Wrap m once it passes the algebra-shape check (shape_checked)."""
        shape_checked(m)
        return cls(m)


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
    a1, a2, a3 = map(float, a)
    j1, j2, j3 = map(float, j)
    d1, d2, d3 = map(float, d)
    top = Quaternion(float(d0), d1, d2, d3)
    return AlgebraElement(QMat2(Quaternion(0.0, a1 + j1, a2 + j2, a3 + j3), top, top.conj(),
                                Quaternion(0.0, j1 - a1, j2 - a2, j3 - a3)))


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
    _K_TABLE[(_al, _be)] = _GENERATORS[_lab]
    _K_TABLE[(_be, _al)] = AlgebraElement(-_GENERATORS[_lab].m)


def generator(label: str) -> AlgebraElement:
    """One of the ten basis generators by label."""
    try:
        return _GENERATORS[label]
    except KeyError:
        raise ValueError(f"unknown generator label {label!r}") from None


def k_generator(alpha: int, beta: int) -> AlgebraElement:
    """Antisymmetric generator family K_{alpha beta} in the quaternionic rep."""
    if alpha == beta:
        raise ValueError("K indices must differ")
    try:
        return _K_TABLE[(alpha, beta)]
    except KeyError:
        raise ValueError(f"invalid K indices ({alpha}, {beta})") from None


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


def structure_rhs(alpha, beta, rho, delta, k_of):
    """- (eta_ar K_bd + eta_bd K_ar - eta_ad K_br - eta_br K_ad), with
    k_of(alpha, beta) the K of a representation.  k_of is called only at
    distinct indices: a term K_{alpha alpha} = 0 is skipped, and the sum
    starts from the representation's zero, 0 * k_of(0, 1)."""
    out = 0 * k_of(0, 1)
    for sign, (i1, i2), (j1, j2) in (
        (-1, (alpha, rho), (beta, delta)),
        (-1, (beta, delta), (alpha, rho)),
        (+1, (alpha, delta), (beta, rho)),
        (+1, (beta, rho), (alpha, delta)),
    ):
        if i1 == i2 and j1 != j2:
            out = out + sign * ETA[i1] * k_of(j1, j2)
    return out


# ---------------------------------------------------------------------------
# Bridge between the quaternionic and 5x5 pictures

_BASIS5 = np.eye(5)


def slash_induced_matrix(X: AlgebraElement) -> np.ndarray:
    """5x5 matrix of ad_X pushed through the slash isomorphism.

    Column nu is unslash([X, slash(e_nu)]); linear in X by construction.
    """
    cols = [unslash(X.m @ slash(e) - slash(e) @ X.m) for e in _BASIS5]
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# Exponential map
#
# X in sp(2,2) has eigenvalues +-mu_1, +-mu_2 in the 4x4 embedding, so the
# roots s_i = mu_i^2 of s^2 + c2 s + c4, c4 = |det X| >= 0, are real or a
# conjugate pair, and X^2 = sigma I + N with N^2 = rho I, sigma their mean and
# rho = (s_1 - s_2)^2/4 (X^4 + c2 X^2 + c4 = 0).  With f0 and f1 the mean and
# the divided difference of f at s_1, s_2, f(X^2) = f0 + f1 N (Higham,
# Functions of Matrices, 2008, ch. 1), so exp X = cosh sqrt(X^2) + X shc
# sqrt(X^2), shc z = sinh z / z, is the cubic alpha I + gamma X + beta X^2 +
# delta X^3 written as c0 I + c1 N + s0 X + s1 X N, where no coefficient is
# a difference of large terms as alpha = c0 - sigma c1 is.

#: Inputs with |s_1|, |s_2| <= _SERIES_RADIUS take the Taylor series.
_SERIES_RADIUS = 1.0
#: (1/(2n)!, 1/(2n+1)!) from n = 9 down to 0: the series of cosh sqrt z and
#: shc sqrt z, whose remainders at |z| <= 1 are below 1e-17.
_SERIES = tuple((1.0 / math.factorial(2 * n), 1.0 / math.factorial(2 * n + 1))
                for n in range(9, -1, -1))
_NOT_FINITE = "exp of a matrix with a NaN or infinite component"
_OVERFLOW = "exp overflows float64"


def _ch_sc(w: float) -> tuple[float, float]:
    """cosh sqrt w and shc sqrt w for real w: cos y and sin y / y at w = -y^2."""
    if w >= 0.0:
        y = math.sqrt(w)
        return math.cosh(y), math.sinh(y) / y if y else 1.0
    y = math.sqrt(-w)
    return math.cos(y), math.sin(y) / y


def _exp_coefficients(sigma: float, rho: float) -> tuple[float, float, float, float]:
    """(c0, c1, s0, s1) with cosh sqrt Z = c0 + c1 N and shc sqrt Z = s0 + s1 N
    at Z = sigma + N, N^2 = rho, by the first of three branches that applies:

    - |s_i| <= _SERIES_RADIUS: the Taylor series by Horner's rule in Z.  The
      divided differences below lose digits at small roots, harmless while N
      is as small as they are, but a null rotation plus a small rotation
      commuting with it has roots meeting near 0 and a large N;
    - u - v >= |sigma|/2 for the roots u >= v of w^2 - sigma w + rho/4, real
      as the discriminant is c4, so u - v = sqrt(c4): the half-angle forms
      (McCurdy, Ng and Parlett, Math. Comp. 43, 1984) c0 = ch(u) ch(v), c1 =
      sc(u) sc(v)/2, s1 = (ch(u) sc(v) - sc(u) ch(v)) / (2 (u - v)) and s0 =
      sc(u) ch(v) - 2 v s1 = ch(u) sc(v) - 2 u s1, on the smaller of |u|, |v|,
      with ch w = cosh sqrt w and sc w = shc sqrt w.  The smaller in size
      is taken as rho/4 over the larger, so equal roots s_1 = s_2 (the
      generators, the scalar orbits) make it an exact 0;
    - else s_1, s_2 are real and at least 0.9 max |s_i| apart: f0, f1 taken
      at them directly, the smaller root as c4 over the larger.

    ValueError if a math function meets an argument that overflowed.
    """
    if abs(sigma) + math.sqrt(abs(rho)) <= _SERIES_RADIUS:
        (c0, s0), c1, s1 = _SERIES[0], 0.0, 0.0
        for c, s in _SERIES[1:]:
            c0, c1 = c0 * sigma + c1 * rho + c, c0 + c1 * sigma
            s0, s1 = s0 * sigma + s1 * rho + s, s0 + s1 * sigma
        return c0, c1, s0, s1
    try:
        c4 = sigma * sigma - rho
        if 4.0 * c4 >= sigma * sigma:
            if sigma >= 0.0:
                u = 0.5 * (sigma + math.sqrt(c4))
                v = 0.25 * rho / u
            else:
                v = 0.5 * (sigma - math.sqrt(c4))
                u = 0.25 * rho / v
            (chu, scu), (chv, scv) = _ch_sc(u), _ch_sc(v)
            s1 = (chu * scv - scu * chv) / (2.0 * (u - v))
            s0 = scu * chv - 2.0 * v * s1 if sigma >= 0.0 else chu * scv - 2.0 * u * s1
            return chu * chv, 0.5 * scu * scv, s0, s1
        r = math.sqrt(rho)
        z1 = sigma + r if sigma >= 0.0 else sigma - r
        z2 = max(c4, 0.0) / z1
        (ch1, sc1), (ch2, sc2) = _ch_sc(z1), _ch_sc(z2)
    except (OverflowError, ValueError):  # math met an argument that had overflowed
        raise ValueError(_OVERFLOW) from None
    return 0.5 * (ch1 + ch2), (ch1 - ch2) / (z1 - z2), 0.5 * (sc1 + sc2), (sc1 - sc2) / (z1 - z2)


def _invariants(x2) -> tuple:
    """(sigma, N, rho) with X^2 = sigma I + N and N^2 = rho I, from the blocks
    of X^2 as four 4-sequences of Python floats or component-major arrays (as
    in gamma._matmul); N as four blocks, and traces of the 4x4 embedding in
    sigma = tr(X^2)/4 and rho = tr(N^2)/4."""
    na, nb, nc, nd = x2
    sigma = 0.5 * (na[0] + nd[0])
    na, nd = (na[0] - sigma, *na[1:]), (nd[0] - sigma, *nd[1:])
    return sigma, (na, nb, nc, nd), 0.5 * _mul_add(na, na, nd, nd)[0] + _mul(nb, nc)[0]  # tr(N^2)/4


def _expm(m) -> QMat2:
    """exp of a quaternionic matrix m = (a, b, c, d), a QMat2 or four
    4-sequences, as c0 I + c1 N + s0 m + s1 m N on Python floats, by
    gamma._matmul, _invariants and _exp_coefficients.  ValueError if m has
    a NaN or infinite component or the result overflows."""
    x = (*m[0], *m[1], *m[2], *m[3])
    if not all(map(math.isfinite, x)):
        raise ValueError(_NOT_FINITE)
    sigma, (na, nb, nc, nd), rho = _invariants(_matmul(m, m))
    c0, c1, s0, s1 = _exp_coefficients(sigma, rho)
    p, q, r, t = _matmul(m, (na, nb, nc, nd))
    e = [c1 * n + s0 * y + s1 * z for n, y, z in zip((*na, *nb, *nc, *nd), x, (*p, *q, *r, *t))]
    e[0] += c0
    e[12] += c0
    if not all(map(math.isfinite, e)):
        raise ValueError(_OVERFLOW)
    return QMat2(*map(_quaternion, (e[0:4], e[4:8], e[8:12], e[12:16])))


def exp(X: AlgebraElement, t: float = 1.0) -> GroupElement:
    """Group element exp(t X) in closed form (_expm), certified as a member;
    exp(theta X_k), exp(psi X0), exp(theta Y_k) and exp(phi Z_k) reproduce
    the corresponding one-parameter subgroups.
    """
    t = float(t)
    return certified(_expm([[t * c for c in q] for q in X.m]))


def random_element(rng: np.random.Generator) -> AlgebraElement:
    """Coordinates uniform in [-1, 1]^10."""
    c = rng.uniform(-1.0, 1.0, 10).tolist()
    return from_coords(c[0:3], c[3:6], c[6], c[7:10])
