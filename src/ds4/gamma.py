"""Gamma matrices over the quaternions and the ambient hyperboloid geometry.

The five gamma matrices generate the Clifford algebra of the 1+4 Minkowski
metric diag(1,-1,-1,-1,-1).  The slash map identifies a 5-vector x with the
2x2 quaternionic matrix x^alpha gamma_alpha; conjugating slashed vectors is
how the group acts on the hyperboloid of radius R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .quaternion import ONE, ZERO, E1, E2, E3, Quaternion, _mul_add, _quaternion, embed

#: Ambient Minkowski metric diag(1,-1,-1,-1,-1) as integer signs.
ETA = (1, -1, -1, -1, -1)
#: Slash-image tolerance of unslash, relative to max(1, the matrix's max-norm).
SLASH_TOL = 1e-10


def minkowski_square(x) -> float:
    """Quadratic form (x0)^2 - (x1)^2 - (x2)^2 - (x3)^2 - (x4)^2."""
    x = np.asarray(x, dtype=float)
    return float(x[0] * x[0] - x[1] * x[1] - x[2] * x[2] - x[3] * x[3] - x[4] * x[4])


@dataclass(frozen=True)
class DSPoint:
    """Point of the radius-R hyperboloid (x)^2 = -R^2 in R^5.

    The constructor tolerance is relative to R^2 so acceptance is scale
    free as R sweeps over orders of magnitude.
    """

    x: np.ndarray
    R: float

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        if x.shape != (5,):
            raise ValueError(f"expected 5 components, got shape {x.shape}")
        if not 0.0 < self.R < math.inf:
            raise ValueError("radius must be positive and finite")
        try:
            R2 = float(self.R) ** 2
        except OverflowError:
            raise ValueError(f"radius {float(self.R)!r} is too large for float64") from None
        defect = abs(minkowski_square(x) + R2)
        if not defect <= 1e-9 * R2:
            raise ValueError(f"point is off the hyperboloid (defect {defect:.3e})")
        object.__setattr__(self, "x", x)


def origin(R: float) -> DSPoint:
    """The base point (0, 0, 0, 0, R)."""
    return DSPoint(np.array([0.0, 0.0, 0.0, 0.0, float(R)]), float(R))


class QMat2(NamedTuple):
    """2x2 matrix with quaternion entries, blocks (a b; c d)."""

    a: Quaternion
    b: Quaternion
    c: Quaternion
    d: Quaternion

    def __matmul__(self, o: "QMat2") -> "QMat2":
        a, b, c, d = self
        oa, ob, oc, od = o
        return QMat2(*map(_quaternion, (_mul_add(a, oa, b, oc), _mul_add(a, ob, b, od),
                                        _mul_add(c, oa, d, oc), _mul_add(c, ob, d, od))))

    def __add__(self, o):
        return QMat2(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    def __sub__(self, o):
        return QMat2(self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d)

    def __neg__(self):
        return QMat2(-self.a, -self.b, -self.c, -self.d)

    def scale(self, t: float) -> "QMat2":
        return QMat2(self.a.scale(t), self.b.scale(t), self.c.scale(t), self.d.scale(t))
    __rmul__ = scale

    def dagger(self) -> "QMat2":
        """Transpose of the entrywise quaternionic conjugate."""
        return QMat2(self.a.conj(), self.c.conj(), self.b.conj(), self.d.conj())

    def max_norm(self) -> float:
        return max(self.a.max_abs(), self.b.max_abs(), self.c.max_abs(), self.d.max_abs())

    def embed(self) -> np.ndarray:
        """Faithful 4x4 complex matrix (2x2 blocks of embedded quaternions)."""
        return embed_blocks(np.reshape(self, (2, 2, 4)))

    @classmethod
    def identity(cls) -> "QMat2":
        return _QID


def embed_blocks(m) -> np.ndarray:
    """4x4 complex embeddings of (..., 2, 2, 4) quaternion blocks [[a, b], [c, d]]."""
    e = embed(m)  # axes (..., row block, column block, row, column)
    return e.swapaxes(-3, -2).reshape(e.shape[:-4] + (4, 4))


_QID = QMat2(ONE, ZERO, ZERO, ONE)

# gamma^0 = (1 0; 0 -1), gamma^k = (0 e_k; e_k 0), gamma^4 = (0 1; -1 0)
_GAMMA = (
    QMat2(ONE, ZERO, ZERO, -ONE),
    QMat2(ZERO, E1, E1, ZERO),
    QMat2(ZERO, E2, E2, ZERO),
    QMat2(ZERO, E3, E3, ZERO),
    QMat2(ZERO, ONE, -ONE, ZERO),
)


def gamma(alpha: int) -> QMat2:
    """Upper-index gamma matrix, alpha in 0..4."""
    if not 0 <= alpha <= 4:
        raise ValueError(f"gamma index out of range: {alpha}")
    return _GAMMA[alpha]


def anticommutator(alpha: int, beta: int) -> QMat2:
    """gamma^a gamma^b + gamma^b gamma^a; equals 2 eta^ab times the identity."""
    ga, gb = gamma(alpha), gamma(beta)
    return ga @ gb + gb @ ga


def slash(x) -> QMat2:
    """Map a 5-vector to x^alpha gamma_alpha.

    With the quaternion bx = (x4, x1, x2, x3) the result has blocks
    (x0, -bx; conj(bx), -x0).
    """
    x0, x1, x2, x3, x4 = np.asarray(x, dtype=float).tolist()
    bx = Quaternion(x4, x1, x2, x3)
    t = Quaternion(x0, 0.0, 0.0, 0.0)
    return QMat2(t, -bx, bx.conj(), -t)


def _max_abs(v) -> float:
    """Largest |v_i|, or NaN if any v_i is NaN (max keeps a NaN only in first place)."""
    v = [abs(c) for c in v]
    total = sum(v)
    return max(v) if total == total else total


def unslash(m: QMat2) -> np.ndarray:
    """Invert the slash map by reading x off the blocks (a, b, c, d) of m, a
    QMat2 or a tuple of four 4-tuples.

    slash(x) has blocks (x0, -bx; conj(bx), -x0), so x0 = (a.s - d.s)/2
    and bx = (conj(c) - b)/2.  One pass over the 16 block floats takes
    each component of slash(x) - m and rejects the matrix unless the
    largest is within SLASH_TOL * max(1, m.max_norm()); a NaN anywhere makes
    that defect NaN, and it is rejected.
    """
    a, b, c, d = m
    v = (*a, *b, *c, *d)
    a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = v
    x0 = 0.5 * (a0 - d0)
    x4, x1, x2, x3 = 0.5 * (c0 - b0), 0.5 * (-c1 - b1), 0.5 * (-c2 - b2), 0.5 * (-c3 - b3)
    defect = _max_abs((x0 - a0, a1, a2, a3, -x4 - b0, -x1 - b1, -x2 - b2, -x3 - b3,
                       x4 - c0, -x1 - c1, -x2 - c2, -x3 - c3, -x0 - d0, d1, d2, d3))
    if not defect <= SLASH_TOL * max(1.0, *map(abs, v)):
        raise ValueError(f"matrix is not in the slash image (defect {defect:.3e})")
    return np.array([x0, x1, x2, x3, x4])
