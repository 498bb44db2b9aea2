"""The benchmark's own arithmetic for checking ds4's outputs.

Nothing here calls ds4.  Quaternions are read from their (s, x, y, z)
fields and mapped into 2x2 complex matrices by the textbook embedding
1 -> I, e1 -> diag(i, -i), e2 -> (0 1; -1 0), e3 -> (0 i; i 0), which is
not the one ds4 uses internally, so agreement is not a shared-code echo.
Products and inverses are generic numpy linear algebra.
"""

from __future__ import annotations

import numpy as np


def quat2(q) -> np.ndarray:
    """2x2 complex matrix of the quaternion s + x e1 + y e2 + z e3."""
    s, x, y, z = (float(c) for c in q)
    return np.array([[s + 1j * x, y + 1j * z],
                     [-y + 1j * z, s - 1j * x]])


def unquat2(m: np.ndarray) -> np.ndarray:
    """Components (s, x, y, z) of a 2x2 matrix in the image of quat2."""
    return np.array([0.5 * (m[0, 0].real + m[1, 1].real),
                     0.5 * (m[0, 0].imag - m[1, 1].imag),
                     0.5 * (m[0, 1].real - m[1, 0].real),
                     0.5 * (m[0, 1].imag + m[1, 0].imag)])


def mat4(blocks) -> np.ndarray:
    """4x4 complex matrix of a 2x2 quaternionic matrix given as (a, b, c, d)."""
    a, b, c, d = blocks
    return np.block([[quat2(a), quat2(b)], [quat2(c), quat2(d)]])


def blocks4(m: np.ndarray) -> list[np.ndarray]:
    """Quaternion components of the four 2x2 blocks (a, b, c, d) of m."""
    return [unquat2(m[0:2, 0:2]), unquat2(m[0:2, 2:4]),
            unquat2(m[2:4, 0:2]), unquat2(m[2:4, 2:4])]


_ONE, _ZERO = (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)
_E = ((0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))
#: Upper-index gamma matrices: gamma^0 = (1 0; 0 -1), gamma^k = (0 e_k; e_k 0),
#: gamma^4 = (0 1; -1 0).
GAMMA4 = [mat4((_ONE, _ZERO, _ZERO, tuple(-c for c in _ONE)))]
GAMMA4 += [mat4((_ZERO, e, e, _ZERO)) for e in _E]
GAMMA4 += [mat4((_ZERO, _ONE, tuple(-c for c in _ONE), _ZERO))]
ETA = (1.0, -1.0, -1.0, -1.0, -1.0)


def slash4(x) -> np.ndarray:
    """x^alpha gamma_alpha (lower index) as a 4x4 complex matrix."""
    return sum(float(x[a]) * ETA[a] * GAMMA4[a] for a in range(5))


def unslash4(m: np.ndarray) -> np.ndarray:
    """x^alpha = (1/4) Re tr(gamma^alpha m)."""
    return np.array([0.25 * np.trace(GAMMA4[a] @ m).real for a in range(5)])


def minkowski(x) -> float:
    return float(x[0] ** 2 - x[1] ** 2 - x[2] ** 2 - x[3] ** 2 - x[4] ** 2)


def act(g_blocks, x) -> np.ndarray:
    """g . x through G slash(x) G^-1 with a generic matrix inverse."""
    G = mat4(g_blocks)
    return unslash4(G @ slash4(x) @ np.linalg.inv(G))


def adjoint(g_blocks, X_blocks) -> np.ndarray:
    """G X G^-1 as a 4x4 complex matrix."""
    G = mat4(g_blocks)
    return G @ mat4(X_blocks) @ np.linalg.inv(G)


def coadjoint_coords(blocks) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """(a, j, d0, d) from the chart ((a+j).e, d0 + d.e; d0 - d.e, (j-a).e)."""
    A, B, _, D = (np.asarray(q, dtype=float) for q in blocks)
    return 0.5 * (A[1:] - D[1:]), 0.5 * (A[1:] + D[1:]), float(B[0]), B[1:].copy()


def casimir_defect(coords, kappa: float) -> float:
    """kappa^2 - (d0^2 + |d|^2 - |a|^2 - |j|^2)."""
    a, j, d0, d = coords
    return kappa * kappa - (d0 * d0 + d @ d - a @ a - j @ j)


def rotation(z) -> np.ndarray:
    """3x3 matrix R with R v = z v conj(z) for a unit quaternion z."""
    s, x, y, w = (float(c) for c in z)
    return np.array([
        [1 - 2 * (y * y + w * w), 2 * (x * y - s * w), 2 * (x * w + s * y)],
        [2 * (x * y + s * w), 1 - 2 * (x * x + w * w), 2 * (y * w - s * x)],
        [2 * (x * w - s * y), 2 * (y * w + s * x), 1 - 2 * (x * x + y * y)],
    ])


def orbit_coords(z, p, kappa: float):
    """Dual coordinates of the orbit point (z, p) at kappa.

    The orbit matrix is (p, p0 z; p0 conj(z), -conj(z) p z), and
    conj(z) p z = R(z)^T p, so a = (p + R^T p)/2, j = (p - R^T p)/2,
    d0 = p0 z_s and d = p0 z_v with p0 = sqrt(kappa^2 + |p|^2).
    """
    z = np.asarray(z, dtype=float)
    p = np.asarray(p, dtype=float)
    back = rotation(z).T @ p
    p0 = float(np.sqrt(kappa * kappa + p @ p))
    return 0.5 * (p + back), 0.5 * (p - back), p0 * float(z[0]), p0 * z[1:]
