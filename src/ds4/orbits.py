"""Adjoint orbits of the massive scalar family, their conservation laws,
physical dimensionalization and the flat-limit sweep.

The orbit through 2 kappa X0 is swept out by conjugating with space
translations and boosts; a point is parameterized by a unit quaternion z and
a momentum 3-vector p, with p0 = sqrt(kappa^2 + |p|^2).  In dual coordinates
(a, j, d0, d) the orbit is cut out by j = (d x a)/d0 together with
kappa^2 = d0^2 + d.d - a.a - j.j, which become the conservation laws of the
elementary system once energies and positions are attached.  Each function
from the sampled points to the residuals takes one point or a stack.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .algebra import AlgebraElement, _blocks, from_coords, shape_checked, to_coords
from .gamma import QMat2
from .quaternion import Quaternion, UnitQuaternion, _quaternion, ensure_pure_unit, ensure_unit


class OrbitPoint(NamedTuple):
    """Orbit coordinates (z, p) at the given kappa, for one point (a Quaternion
    or 4 components, and 3 components) or a stack ((..., 4) and (..., 3))."""

    z: Quaternion | np.ndarray
    p: np.ndarray
    kappa: float

    @property
    def p0(self) -> float | np.ndarray:  # as in orbit_matrix
        return np.hypot(self.kappa, np.sqrt(_dot(self.p, self.p)))


class CoadjointCoords(NamedTuple):
    """Cartesian coordinates (a, j, d0, d) on the dual, for one point or over leading axes."""

    a: np.ndarray
    j: np.ndarray
    d0: float | np.ndarray
    d: np.ndarray


class ConservationResiduals(NamedTuple):
    """Defects of the two orbit conditions, for one point or over leading axes.

    When d0 vanishes the first condition cannot be solved for j; r1 is
    then the unscaled residual d0 j - d x a and degenerate is set.
    """

    r1: np.ndarray
    r2: float | np.ndarray
    degenerate: bool | np.ndarray


class PhysicalState(NamedTuple):
    """Energy, momentum, position and angular momentum with their constants."""

    E: float
    p: np.ndarray
    q: np.ndarray
    l: np.ndarray
    m: float
    c: float
    R: float


def _checked_kappa(kappa: float, p_max: float = 1.0) -> float:
    """kappa, or ValueError unless it is finite and nonnegative and p_max finite and positive."""
    if not 0.0 <= kappa < math.inf:
        raise ValueError(f"kappa must be finite and nonnegative, got {kappa!r}")
    if not 0.0 < p_max < math.inf:
        raise ValueError(f"need a finite positive momentum window, got {p_max!r}")
    return float(kappa)


def _element(X) -> AlgebraElement:
    """One matrix's (2, 2, 4) blocks, already shape-checked, on Python floats."""
    return AlgebraElement(QMat2(*map(_quaternion, X.reshape(4, 4).tolist())))


def base_element(kappa: float) -> AlgebraElement:
    """The orbit seed 2 kappa X0."""
    return from_coords((0, 0, 0), (0, 0, 0), _checked_kappa(kappa), (0, 0, 0))


def adjoint(g, X):
    """g X g^-1 by batch.matmul, shape-checked: an AlgebraElement for one GroupElement
    and one AlgebraElement, (..., 2, 2, 4) blocks when either is given as blocks."""
    from . import batch  # the array route; `import ds4` starts without it

    single = isinstance(g, tuple) and isinstance(X, tuple)
    g, X = _blocks(g), _blocks(X)
    Y = shape_checked(batch.matmul(batch.matmul(g, X), batch.inverse(g)))
    return _element(Y) if single else Y


def orbit_point_from_group(kappa: float, w: UnitQuaternion, phi: float,
                           u: Quaternion) -> OrbitPoint:
    """Orbit point reached from the seed by T_st(w) T_bt(phi, u).

    z = w^2 and p = kappa sinh(phi) (w u conj(w)); negative rapidity is
    folded into the direction so phi >= 0 canonically.
    """
    kappa, w, u = _checked_kappa(kappa), ensure_unit(w), ensure_pure_unit(u)
    if phi < 0:
        phi, u = -phi, -u
    direction = w * u * w.conj()
    p = direction.v * (kappa * math.sinh(phi))
    return OrbitPoint(w * w, p, kappa)


def orbit_matrix(z, p, kappa: float):
    """(p, p0 z; p0 conj(z), -conj(z) p z) with p0 = hypot(kappa, |p|) and z
    normalized by batch.unit: an AlgebraElement for one point (4 components
    of z, 3 of p), (..., 2, 2, 4) blocks for (..., 4) z and (..., 3) p."""
    from . import batch  # the array route; `import ds4` starts without it

    kappa = _checked_kappa(kappa)
    z, p = np.asarray(z, dtype=float), np.asarray(p, dtype=float)
    if z.shape[-1:] != (4,) or p.shape != z.shape[:-1] + (3,):
        raise ValueError(f"need z of shape (..., 4) and p of shape (..., 3), got {z.shape} and {p.shape}")
    z = batch.unit(z)
    pq = np.concatenate((np.zeros(p.shape[:-1] + (1,)), p), -1)
    top = z * np.hypot(kappa, np.sqrt(_dot(p, p)))[..., None]
    X = shape_checked(batch.blocks(pq, top, batch.conj(top), -batch.mul(batch.mul(batch.conj(z), pq), z)))
    return X if z.ndim > 1 else _element(X)


def to_coadjoint_coords(X) -> CoadjointCoords:
    """(a, j, d0, d) read off one shape-valid AlgebraElement or (..., 2, 2, 4)
    blocks, or ValueError off the algebra shape (shape_checked)."""
    return CoadjointCoords(*to_coords(shape_checked(X)))


def cross(u, v) -> np.ndarray:
    """u x v for equal-shaped (..., 3) arrays: the IEEE operations of
    np.cross, without its axis handling, which costs more than the product."""
    u0, u1, u2 = u.T
    v0, v1, v2 = v.T
    return np.array((u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0)).T


def _dot(u, v):
    """u . v over leading axes, through the kernel of u @ v on 3-vectors."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def casimir_defect(a, j, d0, d, kappa: float):
    """kappa^2 - (d0^2 + d.d - a.a - j.j) over leading axes; zero on the orbit.
    d0 is squared by a product: a Python float's d0**2 calls pow(), which can
    differ in the last bit from numpy's square of an array."""
    return kappa**2 - (d0 * d0 + _dot(d, d) - _dot(a, a) - _dot(j, j))


def conservation_residuals(coords: CoadjointCoords, kappa: float) -> ConservationResiduals:
    """Defects of the two orbit conditions at the given kappa, over leading
    axes (one point's r2 is a float, its flag a bool).  Off-orbit inputs are
    allowed; the residuals are a diagnostic, never a gate."""
    a, j, d0, d = coords
    d0 = np.asarray(d0)
    dxa = cross(d, a)
    degenerate = d0 == 0.0
    r1 = np.where(degenerate[..., None], d0[..., None] * j - dxa,
                  j - dxa / np.where(degenerate, 1.0, d0)[..., None])
    r2 = casimir_defect(a, j, d0, d, kappa)
    if d0.ndim:
        return ConservationResiduals(r1, r2, degenerate)
    return ConservationResiduals(r1, float(r2), bool(degenerate))


def physicalize(coords: CoadjointCoords, m: float, c: float, R: float) -> PhysicalState:
    """Attach physical dimensions with the normalization kappa = m c^2;
    the coordinates, and so the state, may carry leading axes.

    The dual coordinates carry a = kappa p/(m c), d0 = kappa E/(m c^2)
    and d = kappa q/R; solving with kappa = m c^2 gives E = d0,
    p = a/c and q = d R/(m c^2).  Angular momentum is l = q x p.  ValueError
    unless m, c, R are finite and positive and kappa and the state finite.
    """
    if not (0.0 < m < math.inf and 0.0 < c < math.inf and 0.0 < R < math.inf):
        raise ValueError("mass, speed of light and radius must be finite and positive")
    try:
        kappa = m * c**2
    except OverflowError:  # a Python float's c**2 raises it, with errno text
        kappa = math.inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        p = coords.a * (m * c) / kappa
        q = coords.d * R / kappa
        l = cross(q, p)
    if not (kappa < math.inf and np.isfinite((p, q, l)).all() and np.isfinite(coords.d0).all()):
        raise ValueError(f"kappa = m c^2 = {kappa!r} or the state it gives is not finite in float64")
    return PhysicalState(coords.d0, p, q, l, m, c, R)


def _quartic(m: float, c: float, R: float, p, q, l):
    """B and C of the energy quartic E^4 + B E^2 + C, over leading axes:
    B = -m^2 c^4 - c^2 p.p + (m^2 c^4 / R^2) q.q and C = -(m^2 c^6 / R^2) l.l."""
    B = -(m * c**2) ** 2 - c**2 * _dot(p, p) + (m * c**2 / R) ** 2 * _dot(q, q)
    return B, -(m**2 * c**6 / R**2) * _dot(l, l)


def energy_quartic_residual(st: PhysicalState) -> float:
    """Value of the quartic energy constraint (_quartic) at the state, over
    its leading axes; zero on orbit."""
    B, C = _quartic(st.m, st.c, st.R, st.p, st.q, st.l)
    E2 = st.E**2
    return E2 * E2 + E2 * B + C


def positive_energy(m: float, c: float, p, q, R):
    """Positive root of the quartic constraint, as a quadratic in E^2, at each R.

    The larger E^2 root is the branch that survives the flat limit; the
    sign of E itself is fixed positive by convention.  The quadratic always
    has real roots: C = -(m^2 c^6 / R^2) l.l is never positive, so B^2 - 4C
    is at least B^2 and E^2 >= 0, unless an input is NaN, which gives a NaN
    energy.  Its root is taken as hypot(B, 2 sqrt(-C)), which neither
    underflows nor overflows where B^2 would.  E^2 is exactly 0 for a
    massless particle at rest; anywhere else an E^2 below float64's smallest
    normal has underflowed: ArithmeticError.
    """
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    B, C = _quartic(m, c, R, p, q, cross(q, p))
    E2 = 0.5 * (-B + np.hypot(B, 2.0 * np.sqrt(-C)))
    if (m != 0 or p.any()) and (E2 < np.finfo(float).tiny).any():
        raise ArithmeticError("no positive energy root: E^2 underflows float64")
    return np.sqrt(E2)


def contraction_sweep(m: float, c: float, p, q, R_list) -> np.ndarray:
    """Mass-shell defect along an increasing radius grid.

    The positive energy root is solved at every R at once and the defect
    E^2 - c^2 p.p - m^2 c^4 recorded; rows are (R, E, defect).  The
    defect falls off as 1/R^2, slope -2 on a log-log plot.  ValueError
    unless m >= 0 (m = 0 is the massless limit) and c > 0.
    """
    if not (m >= 0 and c > 0):
        raise ValueError("need mass m >= 0 and speed of light c > 0")
    R_list = np.asarray(R_list, dtype=float)
    if R_list.ndim != 1 or len(R_list) < 1:
        raise ValueError("need a one-dimensional list of radii")
    if not (np.all(R_list > 0) and np.all(np.diff(R_list) > 0)):
        raise ValueError("radii must be positive and increasing")
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    E = positive_energy(m, c, p, q, R_list)
    return np.stack((R_list, E, E * E - (c**2 * (p @ p) + (m * c**2) ** 2)), -1)


def defect_slope(table: np.ndarray) -> float:
    """Least-squares slope of log|defect| against log R; NaN with under two nonzero defects."""
    mask = table[:, 2] != 0.0
    if mask.sum() < 2:
        return float("nan")
    coeffs = np.polyfit(np.log10(table[mask, 0]), np.log10(np.abs(table[mask, 2])), 1)
    return float(coeffs[0])


def sample_orbit(kappa: float, n: int, p_max: float, seed: int) -> OrbitPoint:
    """n independent draws from the truncated invariant measure, as one
    OrbitPoint with (n, 4) z and (n, 3) p.

    z is uniform on the 3-sphere and p uniform in the ball |p| <= p_max
    (the measure factorizes as dmu(z) d^3p; the full momentum measure is
    infinite, so a finite study needs the documented window).  The n z are
    drawn first, then the n directions of p, then their n radii.  Output is
    deterministic under the seed.
    """
    from . import batch  # the array route; `import ds4` starts without it

    if n <= 0:
        raise ValueError("need a positive sample count")
    kappa = _checked_kappa(kappa, p_max)
    rng = np.random.default_rng(seed)
    z = batch.random_unit(rng, n)
    p = batch.random_unit(rng, n, 3) * (p_max * rng.uniform(size=n) ** (1.0 / 3.0))[:, None]
    if kappa == 0.0:
        p[_dot(p, p) == 0.0] = (0.0, 0.0, p_max)  # measure-zero guard for massless draws
    return OrbitPoint(z, p, kappa)


def massless_orbit_point(z: UnitQuaternion, p) -> OrbitPoint:
    """Point of the kappa = 0 family; p0 = |p| and p = 0 is rejected."""
    p = np.asarray(p, dtype=float)
    if np.linalg.norm(p) == 0.0:
        raise ValueError("massless points need a nonzero momentum")
    return OrbitPoint(ensure_unit(z), p, 0.0)
