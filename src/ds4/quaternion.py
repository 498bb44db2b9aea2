"""Real quaternion arithmetic in scalar-vector form.

Quaternions are the scalar field of this package: group elements, algebra
elements and slashed vectors are 2x2 matrices with quaternion entries.
The Hamilton product is written once, in _mul, and fused with a sum in
_mul_add; both take 4-sequences whose components are Python floats or numpy
arrays alike, so the scalar and the array routes that call them run the
same IEEE operations.  _max_abs is the one scalar max-abs, and keeps a NaN.
The scalar route runs on Python floats, since a numpy scalar makes every
product after it slower; components are converted exactly where they enter
and where they leave the array bodies that also serve single elements.
The 2x2 complex embedding (1 -> identity, e_k -> (-1)^(k+1) i sigma_k)
is kept for the independent cross-checks in the test suite; no route of the
package computes in it.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

import numpy as np


class Quaternion(NamedTuple):
    """Quaternion s + x e1 + y e2 + z e3, with e1 e2 = e3 cyclically."""

    s: float
    x: float
    y: float
    z: float

    @property
    def v(self) -> np.ndarray:
        """Vector part as a length-3 array."""
        return np.array([self.x, self.y, self.z])

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return _quaternion(_mul(self, other))
        return self.scale(other)

    def __add__(self, other):
        return Quaternion(self.s + other.s, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        return Quaternion(self.s - other.s, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self):
        return Quaternion(-self.s, -self.x, -self.y, -self.z)

    def scale(self, t: float) -> "Quaternion":
        t = float(t)
        return Quaternion(t * self.s, t * self.x, t * self.y, t * self.z)
    __rmul__ = scale

    def conj(self) -> "Quaternion":
        """Quaternionic conjugate: negate the vector part."""
        return Quaternion(self.s, -self.x, -self.y, -self.z)

    def norm2(self) -> float:
        return self.s * self.s + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.hypot(self.s, self.x, self.y, self.z)

    def max_abs(self) -> float:
        return _max_abs(self)


def _max_abs(v) -> float:
    """Largest |v_i|, or NaN if any v_i is NaN (max keeps a NaN only in first place)."""
    v = [abs(c) for c in v]
    total = sum(v)
    return max(v) if total == total else total


#: Quaternion._make without its length check, for the 4-tuples of _mul and _mul_add.
_quaternion = partial(tuple.__new__, Quaternion)


def _mul(p, q) -> tuple:
    """The Hamilton product p q of quaternions given as 4-sequences, as a
    tuple of 4 components.  Components are Python floats or numpy arrays
    alike (component-major: p[0] holds every scalar part), and the same IEEE
    operations run in the same order on both."""
    (s1, x1, y1, z1), (s2, x2, y2, z2) = p, q
    return (s1 * s2 - x1 * x2 - y1 * y2 - z1 * z2,
            s1 * x2 + s2 * x1 + y1 * z2 - z1 * y2,
            s1 * y2 + s2 * y1 + z1 * x2 - x1 * z2,
            s1 * z2 + s2 * z1 + x1 * y2 - y1 * x2)


def _mul_add(p, q, r, t) -> tuple:
    """p q + r t for quaternions given as 4-sequences, in one pass, with the
    operations of _mul(p, q) + _mul(r, t) in their order."""
    (s1, x1, y1, z1), (s2, x2, y2, z2) = p, q
    (s3, x3, y3, z3), (s4, x4, y4, z4) = r, t
    return (
        (s1 * s2 - x1 * x2 - y1 * y2 - z1 * z2) + (s3 * s4 - x3 * x4 - y3 * y4 - z3 * z4),
        (s1 * x2 + s2 * x1 + y1 * z2 - z1 * y2) + (s3 * x4 + s4 * x3 + y3 * z4 - z3 * y4),
        (s1 * y2 + s2 * y1 + z1 * x2 - x1 * z2) + (s3 * y4 + s4 * y3 + z3 * x4 - x3 * z4),
        (s1 * z2 + s2 * z1 + x1 * y2 - y1 * x2) + (s3 * z4 + s4 * z3 + x3 * y4 - y3 * x4),
    )


ZERO = Quaternion(0.0, 0.0, 0.0, 0.0)
ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
E1 = Quaternion(0.0, 1.0, 0.0, 0.0)
E2 = Quaternion(0.0, 0.0, 1.0, 0.0)
E3 = Quaternion(0.0, 0.0, 0.0, 1.0)


#: Largest |norm - 1| of a unit quaternion or direction, here and in batch.
UNIT_TOL = 1e-9


def ensure_unit(q: Quaternion) -> Quaternion:
    """Normalize q to unit norm; reject a norm off 1 by more than UNIT_TOL."""
    n = q.norm()
    if not abs(n - 1.0) <= UNIT_TOL:
        raise ValueError(f"not a unit quaternion: |q| = {n!r}")
    t = 1.0 / n
    return Quaternion(t * float(q.s), t * float(q.x), t * float(q.y), t * float(q.z))


def ensure_pure_unit(u: Quaternion) -> Quaternion:
    """Validate a unit pure-vector quaternion: |scalar part|, ||v| - 1| <= UNIT_TOL."""
    if not abs(u.s) <= UNIT_TOL:
        raise ValueError(f"not a pure vector quaternion: scalar part {u.s!r}")
    n = math.hypot(u.x, u.y, u.z)
    if not abs(n - 1.0) <= UNIT_TOL:
        raise ValueError(f"vector part not unit: |v| = {n!r}")
    return Quaternion(0.0, float(u.x) / n, float(u.y) / n, float(u.z) / n)


def sqrt_unit(q: Quaternion) -> Quaternion:
    """Principal square root of a unit quaternion.

    Writes q = (cos t, sin t n) with t in [0, pi] and n a unit 3-vector,
    and returns (cos t/2, sin t/2 n); the scalar part of the result is
    always >= 0.  At q = (-1, 0) the axis is undefined and the root is
    fixed to e1 so that downstream results are reproducible.
    """
    q = ensure_unit(q)
    vn = math.hypot(q.x, q.y, q.z)
    if vn == 0.0:
        return ONE if q.s >= 0.0 else E1
    half = 0.5 * math.atan2(vn, q.s)
    f = math.sin(half) / vn
    return Quaternion(math.cos(half), f * q.x, f * q.y, f * q.z)


#: 1, e1, e2, e3 as row-major 2x2 complex matrices, e_k = (-1)^(k+1) i sigma_k,
#: stored as interleaved (re, im) pairs so that embedding is one real product.
_BASIS = np.array([[1, 0, 0, 1], [0, 1j, 1j, 0], [0, -1, 1, 0], [1j, 0, 0, -1j]]).view(float)


def embed(q) -> np.ndarray:
    """2x2 complex matrices of quaternions given as (..., 4) components."""
    q = np.asarray(q, dtype=float)
    return (q.reshape(-1, 4) @ _BASIS).view(complex).reshape(q.shape[:-1] + (2, 2))


#: A Gaussian draw whose norm is at most this is redrawn, here and in batch.
REDRAW_NORM = 1e-12


def _gaussian(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, float]:
    """A standard normal dim-vector and its norm, redrawn while the norm is <= REDRAW_NORM."""
    while True:
        g = rng.normal(size=dim)
        n = math.sqrt(g.dot(g))  # np.linalg.norm's own route for 1-D input
        if n > REDRAW_NORM:
            return g, n


def random_unit(rng: np.random.Generator) -> Quaternion:
    """Uniform draw from the unit 3-sphere (normalized Gaussian 4-vector)."""
    g, n = _gaussian(rng, 4)
    return Quaternion(*(g / n).tolist())


def random_unit_vector(rng: np.random.Generator) -> Quaternion:
    """Uniform unit pure-vector quaternion (direction on the 2-sphere)."""
    g, n = _gaussian(rng, 3)
    return Quaternion(0.0, *(g / n).tolist())
