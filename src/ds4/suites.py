"""Seeded verification suites behind the `check` command.

Every suite folds its conditions into one dimensionless figure: each raw
residual is divided by the budget that condition is allowed, and the suite
reports the worst such fraction.  A report passes when the fraction is at
most the suite tolerance (1.0 by default), so `--tol 2` uniformly doubles
every budget.  Conditions that must hold exactly contribute 0 when they do
and infinity when they do not, and a NaN fraction counts as infinity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra, group, orbits
from .gamma import ETA, QMat2, anticommutator, dagger_identity_check, gamma, minkowski_square
from .group import (
    compose,
    decompose,
    is_member,
    mirror_generator_signs,
    random_ds_point,
    random_member,
    reconstruct,
    t_boost,
    t_space_translation,
    t_time_translation,
)
from .quaternion import E2, E3

_INF = float("inf")

#: Conjugation by gamma^0 flips the off-diagonal generators and fixes the rest.
MIRROR_SIGNS = {
    "X1": +1, "X2": +1, "X3": +1, "X0": -1,
    "Y1": +1, "Y2": +1, "Y3": +1, "Z1": -1, "Z2": -1, "Z3": -1,
}


@dataclass
class RunReport:
    """Outcome of one suite run, the fields of the `ds4 check` report."""

    suite: str
    trials: int
    max_residual: float
    passed: bool
    seed: int
    tol: float


def _exact(defect: float) -> float:
    return 0.0 if defect == 0.0 else _INF


def _worst(*fractions: float) -> float:
    """The largest fraction, NaN as inf (Python's max drops a NaN not first)."""
    return max(f if f == f else _INF for f in fractions)


def _mixed_member(rng, i: int):
    return random_member(rng, "exp" if i % 2 else "factors")


def suite_clifford(trials: int, rng) -> tuple[int, float]:
    """All 25 anticommutators and 5 dagger identities, exact."""
    worst = 0.0
    count = 0
    for a in range(5):
        for b in range(5):
            want = QMat2.identity().scale(2.0 * ETA[a] if a == b else 0.0)
            worst = _worst(worst, _exact((anticommutator(a, b) - want).max_norm()))
            count += 1
    for a in range(5):
        worst = _worst(worst, 0.0 if dagger_identity_check(a) else _INF)
        count += 1
    return count, worst


def suite_membership(trials: int, rng) -> tuple[int, float]:
    """Closure of random products (budget 1e-10) and invariance of the
    hyperboloid under the action (budget 1e-8, relative to R^2)."""
    worst = 0.0
    for i in range(trials):
        g1 = _mixed_member(rng, i)
        g2 = _mixed_member(rng, i + 1)
        rep = is_member(compose(g1, g2))
        worst = _worst(worst, rep.det_defect / 1e-10, rep.pseudo_unitarity_defect / 1e-10)
        x = random_ds_point(rng, R=1.0)
        y = group.act_vector(g1, x.x)
        worst = _worst(worst, abs(minkowski_square(y) + 1.0) / 1e-8)
    return 2 * trials, worst


def _decomposition_cases() -> list:
    return [
        group.GroupElement.identity(),
        t_time_translation(1.3),
        t_boost(2.0, E2),
        compose(t_space_translation(E3), t_time_translation(0.7)),  # z = -1 branch
        group.GroupElement(gamma(0)),
    ]


def suite_decomposition(trials: int, rng) -> tuple[int, float]:
    """Round-trip through decompose/reconstruct, budget 1e-9 in max norm."""
    worst = 0.0
    cases = _decomposition_cases()
    for i in range(trials):
        cases.append(_mixed_member(rng, i))
    for g in cases:
        f = decompose(g)
        res = np.abs(np.subtract(reconstruct(f).m, g.m)).max()  # NaN propagates
        worst = _worst(worst, res / 1e-9)
    return len(cases), worst


def suite_brackets(trials: int, rng) -> tuple[int, float]:
    """Structure-constant table in both representations."""
    worst = algebra.bracket_table_residual_quaternionic() / 1e-12
    worst = _worst(worst, _exact(float(algebra.bracket_table_defect_so14())))
    return 90, worst


def suite_homomorphism(trials: int, rng) -> tuple[int, float]:
    """Slash-induced matrices against the 5x5 family, budget 1e-12."""
    worst = 0.0
    count = 0
    for lab in algebra.GENERATOR_LABELS:
        worst = _worst(worst, algebra.homomorphism_residual(lab) / 1e-12)
        count += 1
    labels = algebra.GENERATOR_LABELS
    for i, l1 in enumerate(labels):
        for l2 in labels[i + 1:]:
            worst = _worst(worst, algebra.intertwining_residual(l1, l2) / 1e-12)
            count += 1
    return count, worst


def _conservation_ratio(X, kappa: float) -> float:
    """Worst orbit-condition defect of the (n, 2, 2, 4) transported points X
    as a fraction of the budget 1e-9 max(1, kappa^2)."""
    # The first orbit condition is held as d0 j - d x a: solving it for j
    # divides the round-off of d x a by d0, which misfires near d0 = 0.
    a, j, d0, d = algebra.to_coords(X)
    r1 = d0[:, None] * j - orbits.cross(d, a)
    r2 = orbits.casimir_defect(a, j, d0, d, kappa)
    budget = 1e-9 * max(1.0, kappa**2)
    return _worst(float(np.abs(r1).max()), float(np.abs(r2).max())) / budget


def suite_orbits(trials: int, rng) -> tuple[int, float]:
    """Conservation laws on transported points for kappa in {0, 0.1, 1, 10}
    (budget 1e-9 max(1, kappa^2)) plus the quartic energy constraint on
    physicalized kappa = 1 points (budget 1e-8 in natural units).

    Each family runs in chunks of up to batch.CHUNK = 512 trials held as arrays,
    which fix the draw order; trial i of a family is transported by a
    factor-built member when i is even and an exp-built one when odd."""
    from . import batch

    def transported(count: int, seed_of):
        for start in range(0, count, batch.CHUNK):
            n = min(batch.CHUNK, count - start)
            x = seed_of(n)
            yield orbits.adjoint(batch.members(rng, n), x)

    def massless(n: int):
        z = batch.random_unit(rng, n)
        p = batch.random_unit(rng, n, 3) * rng.uniform(0.1, 2.0, n)[:, None]
        return orbits.orbit_matrix(z, p, 0.0)

    worst = 0.0
    for kappa in (0.1, 1.0, 10.0):
        x = np.reshape(orbits.base_element(kappa).m, (2, 2, 4))
        for y in transported(trials, lambda n: x):
            worst = _worst(worst, _conservation_ratio(y, kappa))
    for y in transported(trials, massless):
        worst = _worst(worst, _conservation_ratio(y, 0.0))
    quartic_trials = max(1, trials // 5)
    x = np.reshape(orbits.base_element(1.0).m, (2, 2, 4))
    for y in transported(quartic_trials, lambda n: x):
        st = orbits.physicalize(orbits.to_coadjoint_coords(y), 1.0, 1.0, 10.0)
        worst = _worst(worst, float(np.abs(orbits.energy_quartic_residual(st)).max()) / 1e-8)
    return 4 * trials + quartic_trials, worst


def suite_contraction(trials: int, rng) -> tuple[int, float]:
    """Flat-limit sweep in natural units with |p| = |q| = 1, p perp q:
    fitted slope within -2 +- 0.05 and defect below 1e-11 at R = 1e6."""
    grid = np.logspace(1.0, 6.0, 26)
    table = orbits.contraction_sweep(1.0, 1.0, (1, 0, 0), (0, 1, 0), grid)
    slope = orbits.defect_slope(table)
    worst = abs(slope + 2.0) / 0.05
    worst = _worst(worst, abs(table[-1, 2]) / 1e-11)
    return len(grid), worst


def suite_mirror(trials: int, rng) -> tuple[int, float]:
    """Exact mirror action of gamma^0 on random points, its involutivity,
    and the generator sign table."""
    g0 = group.GroupElement(gamma(0))
    worst = 0.0
    for _ in range(trials):
        x = random_ds_point(rng, R=1.0).x
        y = group.act_vector(g0, x)
        mirrored = np.concatenate(([x[0]], -x[1:]))
        worst = _worst(worst, _exact(float(np.abs(y - mirrored).max())))
        worst = _worst(worst, _exact(float(np.abs(group.act_vector(g0, y) - x).max())))
    signs = mirror_generator_signs()
    worst = _worst(worst, 0.0 if signs == MIRROR_SIGNS else _INF)
    return 2 * trials + len(signs), worst


#: suite name -> (runner, default trial count)
SUITES = {
    "clifford": (suite_clifford, 30),
    "membership": (suite_membership, 10_000),
    "decomposition": (suite_decomposition, 1_000),
    "brackets": (suite_brackets, 45),
    "homomorphism": (suite_homomorphism, 55),
    "orbits": (suite_orbits, 10_000),
    "contraction": (suite_contraction, 26),
    "mirror": (suite_mirror, 1_000),
}


def run_suite(name: str, trials: int | None = None, seed: int = 0,
              tol: float = 1.0) -> RunReport:
    """Run a named suite and report the worst budget fraction."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    fn, default_trials = SUITES[name]
    if trials is None:
        trials = default_trials
    elif trials < 0:
        raise ValueError(f"trial count must be nonnegative, got {trials}")
    rng = np.random.default_rng(seed)
    count, worst = fn(trials, rng)
    return RunReport(name, count, float(worst), bool(worst <= tol), seed, tol)
