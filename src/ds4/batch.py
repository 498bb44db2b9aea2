"""Quaternion-block arithmetic on arrays, for the suites' trial chunks and
the records of `ds4 orbit`.

A quaternion is a (..., 4) float64 array (s, x, y, z) and a 2x2
quaternionic matrix a (..., 2, 2, 4) array of blocks [[a, b], [c, d]].
Matrix products run on the real 8x8 left-multiplication matrices of the
blocks (left_matrices), which one product by a constant table writes in
their final layout, so a call costs a few numpy calls whatever the number
of elements and copies no matrix.  The rest calls the scalar route's own
bodies on component-major arrays (the components moved to the front axes),
so it runs the scalar route's IEEE operations; numpy's cosh, sinh and
normalization may round differently from math's.  Each routine is the twin
of the scalar one it names; the scalar one stays the route for single
elements and the reference the tests hold this one to, and the two read one
tolerance constant.  Every check of the scalar route runs on every element,
and a failure raises the scalar route's exception.  The algebra shape
check, the chart, the orbit matrix, the adjoint transport and the orbit
residuals are not twinned: one body serves one element and a stack.
"""

from __future__ import annotations

import numpy as np

from .algebra import COORD_RANGE, _CONJ, _NOT_FINITE, _OVERFLOW, _SERIES_RADIUS, _half_angle, _invariants
from .algebra import _exp_coefficients as _scalar_exp_coefficients
from .group import MEMBER_TOL, PHI_RANGE, PSI_RANGE, MembershipReport, NonMemberError, _study_det, factor_blocks
from .quaternion import REDRAW_NORM, UNIT_TOL, Quaternion, _mul

#: Trials per array in a suite run; bounds the peak memory.
CHUNK = 512

_I4 = np.eye(4)
_ID = np.eye(2)[..., None] * _I4[0]
#: _T[i] is the 4x4 matrix of left multiplication by the i-th basis unit.
_T = np.array([[Quaternion(*e) * Quaternion(*f) for f in _I4] for e in _I4]).swapaxes(1, 2)
#: delta_jk _T[p, r, q] at (4j + p, 8r + 4k + q): a block row (m_i0, m_i1) as 8
#: floats times _LEFT is rows 4i..4i+3 of its 8x8 left-multiplication matrix.
_LEFT = np.einsum("jk,prq->jprkq", np.eye(2), _T).reshape(8, 32)


def blocks(a, b, c, d) -> np.ndarray:
    """Stack (..., 4) quaternion arrays into (..., 2, 2, 4) matrices."""
    return np.stack((np.stack((a, b), -2), np.stack((c, d), -2)), -3)


def mul(p, q) -> np.ndarray:
    """Quaternion products p q by quaternion._mul, as Quaternion.__mul__."""
    return np.array(_mul(p.T, q.T)).T


def left_matrices(m) -> np.ndarray:
    """(..., 8, 8) real matrices of n -> m n on the stacked columns of n, for
    (..., 2, 2, 4) blocks m: block (i, j) is the 4x4 matrix of q -> m_ij q.
    One product by _LEFT writes them in this layout, so the reshape is a view."""
    return (m.reshape(m.shape[:-3] + (2, 8)) @ _LEFT).reshape(m.shape[:-3] + (8, 8))


def matmul(m, n) -> np.ndarray:
    """Matrix products m n (QMat2.__matmul__): the 8x8 real left-multiplication
    matrix of m times the stacked columns of n."""
    out = left_matrices(m) @ n.swapaxes(-2, -1).reshape(n.shape[:-3] + (8, 2))
    return out.reshape(out.shape[:-2] + (2, 4, 2)).swapaxes(-2, -1)


def conj(q) -> np.ndarray:
    return q * _CONJ


def norm2(q) -> np.ndarray:
    return (q * q).sum(-1)


def inverse(m) -> np.ndarray:
    """Closed form (conj a, -conj c; -conj b, conj d) (group.inverse)."""
    return conj(m).swapaxes(-3, -2) * np.array([[1.0, -1.0], [-1.0, 1.0]])[..., None]


def unit(q) -> np.ndarray:
    """Normalize each q, or ValueError at the first norm off 1 by more than
    UNIT_TOL (ensure_unit)."""
    n = np.sqrt(norm2(q))[..., None]
    bad = ~(np.abs(n - 1.0) <= UNIT_TOL)
    if bad.any():
        raise ValueError(f"not a unit quaternion: |q| = {float(n[bad][0])!r}")
    return q / n


def random_unit(rng: np.random.Generator, n: int, dim: int = 4) -> np.ndarray:
    """n normalized Gaussian draws, each redrawn while its norm is <= REDRAW_NORM
    (quaternion.random_unit, and random_unit_vector's direction for dim 3)."""
    g = rng.normal(size=(n, dim))
    while (small := (norms := np.linalg.norm(g, axis=-1)) <= REDRAW_NORM).any():
        g[small] = rng.normal(size=(int(small.sum()), dim))
    return g / norms[:, None]


def is_member(m) -> tuple[np.ndarray, np.ndarray]:
    """Study-determinant and pseudo-unitarity defects (group.is_member), by
    group._study_det with the block rows swapped where |c| > |a|, and inverse(m) m - I."""
    swap = (norm2(m[..., 1, 0, :]) > norm2(m[..., 0, 0, :]))[..., None, None, None]
    (a, b), (c, d) = np.moveaxis(np.where(swap, m[..., ::-1, :, :], m), (-3, -2, -1), (0, 1, 2))
    return np.abs(_study_det(a, b, c, d) - 1.0), np.abs(matmul(inverse(m), m) - _ID).max(axis=(-3, -2, -1))


def certified(m) -> np.ndarray:
    """m, or NonMemberError with the first failing member's report
    (group.certified at MEMBER_TOL)."""
    det, unit_defect = is_member(m)
    bad = np.flatnonzero(~((det <= MEMBER_TOL) & (unit_defect <= MEMBER_TOL)))  # NaN fails
    if bad.size:
        i = bad[0]
        raise NonMemberError(MembershipReport(float(det[i]), float(unit_defect[i]), MEMBER_TOL, False))
    return m


def reconstruct(w, psi, v, phi, u) -> np.ndarray:
    """T_st(w) T_tt(psi) T_sr(v) T_bt(phi, u) for (n, 4) unit quaternions w, v
    and (n, 3) unit directions u, by group.factor_blocks."""
    w, v, u = unit(w), unit(v), unit(u)
    ch, sh = np.cosh(0.5 * psi), np.sinh(0.5 * psi)
    cb, sb = np.cosh(0.5 * phi), np.sinh(0.5 * phi)
    out = np.array(factor_blocks(w.T, v.T, u.T, ch, sh, cb, sb))  # (4 blocks, 4 components, n)
    return out.reshape(2, 2, 4, -1).transpose(3, 0, 1, 2)


def from_coords(a, j, d0, d) -> np.ndarray:
    """((a+j).e, d0 + d.e; d0 - d.e, (j-a).e) (algebra.from_coords)."""
    zero = np.zeros(np.shape(d0) + (1,))
    top = np.concatenate((np.asarray(d0)[..., None], d), -1)
    return blocks(np.concatenate((zero, a + j), -1), top, conj(top),
                  np.concatenate((zero, j - a), -1))


def _exp_coefficients(sigma, rho) -> np.ndarray:
    """algebra._exp_coefficients on arrays, as a (4, ...) stack: its
    half-angle branch, which most elements take, by algebra._half_angle over
    the arrays, and the function itself on each element that takes another."""
    s, r = np.ravel(sigma), np.ravel(rho)
    c4 = s * s - r
    big = 0.5 * (s + np.where(s >= 0.0, 1.0, -1.0) * np.sqrt(c4))
    small = 0.25 * r / big
    roots = np.array((big, small))
    y, up = np.sqrt(np.abs(roots)), roots >= 0.0
    chb, chs = np.where(up, np.cosh(y), np.cos(y))
    scb, scs = np.where(y == 0.0, 1.0, np.where(up, np.sinh(y), np.sin(y)) / y)  # algebra._ch_sc
    out = np.array(_half_angle(chb, scb, chs, scs, big, small))
    other = np.flatnonzero(~((np.abs(s) + np.sqrt(np.abs(r)) > _SERIES_RADIUS) & (4.0 * c4 >= s * s)))
    for i, si, ri in zip(other, s[other].tolist(), r[other].tolist()):
        out[:, i] = _scalar_exp_coefficients(si, ri)
    return out.reshape((4,) + np.shape(sigma))


def _expm(x) -> np.ndarray:
    """exp of (..., 2, 2, 4) quaternionic matrices (algebra._expm): the
    products x^2 and x N by matmul, sigma, N and rho by algebra._invariants
    on x^2's component-major blocks, the coefficients by _exp_coefficients."""
    if not np.isfinite(x).all():
        raise ValueError(_NOT_FINITE)
    with np.errstate(all="ignore"):  # the branches an element does not take, and overflow
        (a, b), (c, d) = np.moveaxis(matmul(x, x), (-3, -2, -1), (0, 1, 2))
        sigma, n, rho = _invariants((a, b, c, d))
        n = np.moveaxis(np.reshape(n, (2, 2, 4) + sigma.shape), (0, 1, 2), (-3, -2, -1))
        c0, c1, s0, s1 = _exp_coefficients(sigma, rho)[..., None, None, None]
        e = c1 * n + s0 * x + s1 * matmul(x, n) + c0 * _ID
    if not np.isfinite(e).all():
        raise ValueError(_OVERFLOW)
    return e


def exp(x) -> np.ndarray:
    """exp of algebra elements by _expm, certified (algebra.exp)."""
    return certified(_expm(x))


def members(rng: np.random.Generator, n: int) -> np.ndarray:
    """n seeded members from group.random_member's two distributions:
    factors at even indices, exp at odd ones."""
    nf, ne = (n + 1) // 2, n // 2
    w, v = random_unit(rng, nf), random_unit(rng, nf)
    psi, phi = rng.uniform(*PSI_RANGE, nf), rng.uniform(*PHI_RANGE, nf)
    g = reconstruct(w, psi, v, phi, random_unit(rng, nf, 3))
    if ne == 0:  # a chunk of one; exp's fixed cost would dominate its time
        return g
    c = rng.uniform(*COORD_RANGE, (ne, 10))
    out = np.empty((n, 2, 2, 4))
    out[0::2] = g
    out[1::2] = exp(from_coords(c[:, 0:3], c[:, 3:6], c[:, 6], c[:, 7:10]))
    return out
