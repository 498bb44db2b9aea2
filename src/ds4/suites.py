"""Seeded verification suites behind the `check` command.

Each suite yields rows (residual, budget), one per condition it checks.  A
residual is a float or the raw components of a difference (an array, or a
QMat2's blocks), never a maximum taken beforehand; a budget of 0.0 marks a
condition that must hold exactly.  Each row is computed here from the maps
it checks, not by a helper that reduces or pads it.  `run_suite` alone
reduces the rows, with `_fold`, to the worst fraction max |residual| /
budget: an exact row counts 0 when every component is zero and infinity
otherwise, and a NaN counts as infinity.  A report passes when that fraction
is at most the tolerance (1.0 by default), so `--tol 2` uniformly doubles
every budget.  The trial count a report carries is data in SUITES: a function
of the requested trials for the four random suites, and the table size for
the four fixed-table suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from . import algebra, group, orbits
from .gamma import ETA, QMat2, anticommutator, gamma, minkowski_square
from .group import (
    compose,
    decompose,
    is_member,
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


def _mixed_member(rng, i: int):
    return random_member(rng, "exp" if i % 2 else "factors")


def suite_clifford(trials, rng):
    """All 25 anticommutators and the 5 dagger identities
    dagger(gamma^a) = gamma^0 gamma^a gamma^0, exact."""
    for a in range(5):
        for b in range(5):
            want = QMat2.identity().scale(2.0 * ETA[a] if a == b else 0.0)
            yield np.subtract(anticommutator(a, b), want), 0.0
    g0 = gamma(0)
    for g in map(gamma, range(5)):
        yield np.subtract(g.dagger(), g0 @ g @ g0), 0.0


def suite_membership(trials: int, rng):
    """Closure of random products (budget 1e-10) and invariance of the
    hyperboloid under the action (budget 1e-8, relative to R^2)."""
    for i in range(trials):
        g1 = _mixed_member(rng, i)
        g2 = _mixed_member(rng, i + 1)
        rep = is_member(compose(g1, g2))
        yield rep.det_defect, 1e-10
        yield rep.pseudo_unitarity_defect, 1e-10
        y = group.act_vector(g1, random_ds_point(rng, R=1.0).x)
        yield minkowski_square(y) + 1.0, 1e-8


def suite_decomposition(trials: int, rng):
    """Round-trip through decompose/reconstruct, budget 1e-9 in max norm, on
    five fixed members and then the random ones."""
    fixed = (
        group.GroupElement.identity(),
        t_time_translation(1.3),
        t_boost(2.0, E2),
        compose(t_space_translation(E3), t_time_translation(0.7)),  # z = -1 branch
        group.GroupElement(gamma(0)),
    )
    for g in chain(fixed, (_mixed_member(rng, i) for i in range(trials))):
        yield np.subtract(reconstruct(decompose(g)).m, g.m), 1e-9


def suite_brackets(trials, rng):
    """The 45 distinct commutators of plane generators against the structure
    constants: budget 1e-12 in the quaternionic rep, exact in the 5x5."""
    for (a, b), (r, d) in combinations(combinations(range(5), 2), 2):
        lhs = algebra.bracket(algebra.k_generator(a, b), algebra.k_generator(r, d)).m
        rhs = algebra.structure_rhs(a, b, r, d, lambda i, j: algebra.k_generator(i, j).m)
        yield np.subtract(lhs, rhs), 1e-12
        Ka, Kb = algebra.so14_matrix(a, b), algebra.so14_matrix(r, d)
        yield Ka @ Kb - Kb @ Ka - algebra.structure_rhs(a, b, r, d, algebra.so14_matrix), 0.0


def suite_homomorphism(trials, rng):
    """The slash-induced matrix L(G) of each generator against the 5x5 family,
    and the intertwining L([G1, G2]) = [L(G1), L(G2)] of each pair, budget 1e-12."""
    L = {lab: algebra.slash_induced_matrix(algebra.generator(lab)) for lab in algebra.GENERATOR_LABELS}
    for lab, (alpha, beta) in algebra.K_INDEX.items():
        yield L[lab] - algebra.so14_matrix(alpha, beta), 1e-12
    for l1, l2 in combinations(algebra.GENERATOR_LABELS, 2):
        left = algebra.slash_induced_matrix(algebra.bracket(algebra.generator(l1), algebra.generator(l2)))
        yield left - (L[l1] @ L[l2] - L[l2] @ L[l1]), 1e-12


def _conservation_rows(X, kappa: float):
    """The two orbit conditions on the (n, 2, 2, 4) transported points X, each
    with the budget 1e-9 max(1, kappa^2)."""
    # The first orbit condition is held as d0 j - d x a: solving it for j
    # divides the round-off of d x a by d0, which misfires near d0 = 0.
    a, j, d0, d = algebra.to_coords(X)
    budget = 1e-9 * max(1.0, kappa**2)
    return ((d0[:, None] * j - orbits.cross(d, a), budget),
            (orbits.casimir_defect(a, j, d0, d, kappa), budget))


def suite_orbits(trials: int, rng):
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

    for kappa in (0.1, 1.0, 10.0):
        x = np.reshape(orbits.base_element(kappa).m, (2, 2, 4))
        for y in transported(trials, lambda n: x):
            yield from _conservation_rows(y, kappa)
    for y in transported(trials, massless):
        yield from _conservation_rows(y, 0.0)
    x = np.reshape(orbits.base_element(1.0).m, (2, 2, 4))
    for y in transported(max(1, trials // 5), lambda n: x):
        st = orbits.physicalize(orbits.to_coadjoint_coords(y), 1.0, 1.0, 10.0)
        yield orbits.energy_quartic_residual(st), 1e-8


def suite_contraction(trials, rng):
    """Flat-limit sweep in natural units over 26 radii, |p| = |q| = 1, p perp q:
    fitted slope within -2 +- 0.05 and defect below 1e-11 at R = 1e6."""
    table = orbits.contraction_sweep(1.0, 1.0, (1, 0, 0), (0, 1, 0), np.logspace(1.0, 6.0, 26))
    yield orbits.defect_slope(table) + 2.0, 0.05
    yield table[-1, 2], 1e-11


def suite_mirror(trials: int, rng):
    """Exact mirror action of gamma^0 on random points and its involutivity,
    then gamma^0 G gamma^0 = sign G for each generator G of MIRROR_SIGNS,
    budget 1e-12 (gamma^0 is its own inverse)."""
    g0 = gamma(0)
    for _ in range(trials):
        x = random_ds_point(rng, R=1.0).x
        y = group.act_vector(g0, x)
        yield y - np.concatenate(([x[0]], -x[1:])), 0.0
        yield group.act_vector(g0, y) - x, 0.0
    for label, sign in MIRROR_SIGNS.items():
        G = algebra.generator(label).m
        yield np.subtract(g0 @ G @ g0, G.scale(sign)), 1e-12


#: suite name -> (runner, reported trial count of a run of t trials, default t).
#: The fixed-table suites ignore t, report their table size and have no default.
SUITES = {
    "clifford": (suite_clifford, lambda t: 30, None),
    "membership": (suite_membership, lambda t: 2 * t, 10_000),
    "decomposition": (suite_decomposition, lambda t: t + 5, 1_000),
    "brackets": (suite_brackets, lambda t: 90, None),
    "homomorphism": (suite_homomorphism, lambda t: 55, None),
    "orbits": (suite_orbits, lambda t: 4 * t + max(1, t // 5), 10_000),
    "contraction": (suite_contraction, lambda t: 26, None),
    "mirror": (suite_mirror, lambda t: 2 * t + 10, 1_000),
}


def _fold(rows) -> float:
    """The worst fraction max |residual| / budget over the rows; a float row
    stays off numpy, an exact row (budget 0) counts 0 or inf, NaN counts as inf."""
    worst = 0.0
    for residual, budget in rows:
        r = abs(residual) if isinstance(residual, float) else np.abs(residual).max()
        f = r / budget if budget else (0.0 if r == 0.0 else _INF)
        if not f <= worst:  # a NaN fails every comparison
            worst = f if f == f else _INF
    return float(worst)


def run_suite(name: str, trials: int | None = None, seed: int = 0,
              tol: float = 1.0) -> RunReport:
    """Run a named suite and report the worst budget fraction of its rows."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    runner, count, default_trials = SUITES[name]
    if trials is None:
        trials = default_trials
    elif trials < 0:
        raise ValueError(f"trial count must be nonnegative, got {trials}")
    if not tol >= 0.0:
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    worst = _fold(runner(trials, np.random.default_rng(seed)))
    return RunReport(name, count(trials), worst, bool(worst <= tol), seed, tol)
