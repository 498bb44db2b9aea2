"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its worst residual and runtime."""

import time

import numpy as np

from ds4 import algebra, batch, orbits
from ds4.gamma import ETA, QMat2, anticommutator, gamma, minkowski_square
from ds4.group import (
    GroupElement,
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
from ds4.quaternion import E2, E3, ZERO
from oracles import structure_rhs_oracle

_QZERO = QMat2(ZERO, ZERO, ZERO, ZERO)
_PLANES = [(a, b) for a in range(5) for b in range(a + 1, 5)]


def _verdict(name, passed, detail, elapsed, limit):
    line = f"{'PASS' if passed and elapsed < limit else 'FAIL'} {name}: {detail} [{elapsed:.2f}s / limit {limit:.0f}s]"
    print(line)
    assert passed, line
    assert elapsed < limit, line


def _mixed(rng, i):
    return random_member(rng, "exp" if i % 2 else "factors")


def test_criterion_1_clifford_suite():
    t0 = time.perf_counter()
    worst = 0.0
    ident = np.eye(4)
    for a in range(5):
        for b in range(5):
            lhs = anticommutator(a, b).embed()
            want = 2.0 * ETA[a] * ident if a == b else np.zeros((4, 4))
            worst = max(worst, float(np.abs(lhs - want).max()))
    g0 = gamma(0)
    daggers_ok = all(np.array_equal(g.dagger(), g0 @ g @ g0) for g in map(gamma, range(5)))
    elapsed = time.perf_counter() - t0
    _verdict("criterion-1 clifford", worst == 0.0 and daggers_ok,
             f"25 pairs residual {worst}, dagger identities {daggers_ok}", elapsed, 1.0)


def test_criterion_2_membership_closure():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for i in range(10_000):
        g = compose(_mixed(rng, i), _mixed(rng, i + 1))
        rep = is_member(g, tol=1e-10)
        worst = max(worst, rep.det_defect, rep.pseudo_unitarity_defect)
    elapsed = time.perf_counter() - t0
    _verdict("criterion-2 membership closure", worst < 1e-10,
             f"10^4 products, worst residual {worst:.3e} < 1e-10", elapsed, 10.0)


def test_criterion_3_hyperboloid_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(203)
    from ds4.group import act_vector

    worst = 0.0
    R = 1.0
    for i in range(10_000):
        g = _mixed(rng, i)
        x = random_ds_point(rng, R)
        y = act_vector(g, x.x)
        worst = max(worst, abs(minkowski_square(y) + R * R))
    elapsed = time.perf_counter() - t0
    _verdict("criterion-3 hyperboloid invariance", worst < 1e-8 * R * R,
             f"10^4 pairs, worst defect {worst:.3e} < 1e-8 R^2", elapsed, 10.0)


def test_criterion_4_bracket_table():
    t0 = time.perf_counter()
    worst_q = 0.0
    worst_i = 0
    for i, (a, b) in enumerate(_PLANES):
        for (r, d) in _PLANES[i + 1:]:
            lhs = algebra.bracket(algebra.k_generator(a, b), algebra.k_generator(r, d)).m
            rhs = structure_rhs_oracle(
                a, b, r, d,
                lambda p, q: _QZERO if p == q else algebra.k_generator(p, q).m,
                _QZERO)
            worst_q = max(worst_q, (lhs - rhs).max_norm())
            Ka, Kb = algebra.so14_matrix(a, b), algebra.so14_matrix(r, d)
            rhs5 = structure_rhs_oracle(
                a, b, r, d,
                lambda p, q: np.zeros((5, 5), dtype=int) if p == q else algebra.so14_matrix(p, q),
                np.zeros((5, 5), dtype=int))
            worst_i = max(worst_i, int(np.abs(Ka @ Kb - Kb @ Ka - rhs5).max()))
    elapsed = time.perf_counter() - t0
    _verdict("criterion-4 bracket table", worst_q < 1e-12 and worst_i == 0,
             f"45 pairs, quaternionic residual {worst_q:.3e} < 1e-12, "
             f"5x5 integer defect {worst_i}", elapsed, 1.0)


def test_criterion_5_decomposition_roundtrip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(205)
    worst = 0.0
    for i in range(1_000):
        g = _mixed(rng, i)
        worst = max(worst, (reconstruct(decompose(g)).m - g.m).max_norm())
    degenerates = [
        GroupElement.identity(),
        t_time_translation(1.3),
        t_boost(2.0, E2),
        compose(t_space_translation(E3), t_time_translation(0.7)),  # z = -1 branch
        GroupElement(gamma(0)),
    ]
    for g in degenerates:
        worst = max(worst, (reconstruct(decompose(g)).m - g.m).max_norm())
    elapsed = time.perf_counter() - t0
    _verdict("criterion-5 decomposition", worst < 1e-9,
             f"10^3 round-trips plus degenerate cases, worst residual {worst:.3e} < 1e-9",
             elapsed, 5.0)


def test_criterion_6_orbit_conservation():
    # the route of the orbits suite: chunks of members transported by the one
    # adjoint body, which tests/test_batch.py holds to G X G^-1 in the embedding
    t0 = time.perf_counter()
    rng = np.random.default_rng(206)
    n = 10_000

    def worst_fraction(kappa, seed_of):
        budget = 1e-9 * max(1.0, kappa**2)
        worst = 0.0
        for start in range(0, n, batch.CHUNK):
            k = min(batch.CHUNK, n - start)
            x = seed_of(k)
            g = batch.members(rng, k)  # factor-built at even trials, exp-built at odd ones
            r = orbits.conservation_residuals(algebra.to_coords(orbits.adjoint(g, x)), kappa)
            worst = max(worst, float(np.abs(r.r1).max()) / budget, float(np.abs(r.r2).max()) / budget)
        return worst

    def massless(k):
        z = batch.random_unit(rng, k)
        p = batch.random_unit(rng, k, 3) * rng.uniform(0.1, 2.0, k)[:, None]
        return orbits.orbit_matrix(z, p, 0.0)

    worst_frac = 0.0
    for kappa in (0.1, 1.0, 10.0):
        seed_elt = np.reshape(orbits.base_element(kappa).m, (2, 2, 4))
        worst_frac = max(worst_frac, worst_fraction(kappa, lambda k: seed_elt))
    worst_frac = max(worst_frac, worst_fraction(0.0, massless))
    elapsed = time.perf_counter() - t0
    _verdict("criterion-6 orbit conservation", worst_frac < 1.0,
             f"10^4 transports per family (kappa 0.1/1/10 and massless), "
             f"worst residual at {worst_frac:.3f} of the 1e-9 max(1, kappa^2) budget",
             elapsed, 20.0)


def test_criterion_7_energy_quartic():
    t0 = time.perf_counter()
    rng = np.random.default_rng(207)
    worst_frac = 0.0
    for (m, c_light, R) in ((1.0, 1.0, 1.0), (1.0, 1.0, 10.0), (2.0, 3.0, 5.0)):
        kappa = m * c_light**2
        # 1000 members, factor-built at even trials and exp-built at odd ones
        X = orbits.adjoint(batch.members(rng, 1_000), orbits.base_element(kappa))
        st = orbits.physicalize(orbits.to_coadjoint_coords(X), m, c_light, R)
        frac = float(np.abs(orbits.energy_quartic_residual(st)).max()) / (1e-8 * kappa**4)
        worst_frac = max(worst_frac, frac)
    elapsed = time.perf_counter() - t0
    _verdict("criterion-7 energy quartic", worst_frac < 1.0,
             f"3000 physicalized samples, worst residual at {worst_frac:.4f} "
             f"of the 1e-8 (m c^2)^4 budget", elapsed, 5.0)


def test_criterion_8_contraction():
    t0 = time.perf_counter()
    grid = np.logspace(1.0, 6.0, 26)
    table = orbits.contraction_sweep(1.0, 1.0, (1, 0, 0), (0, 1, 0), grid)
    slope = orbits.defect_slope(table)
    far_defect = abs(table[-1, 2])
    elapsed = time.perf_counter() - t0
    _verdict("criterion-8 contraction",
             abs(slope + 2.0) <= 0.05 and far_defect < 1e-11,
             f"slope {slope:.4f} within -2 +- 0.05, defect at R=1e6 "
             f"{far_defect:.3e} < 1e-11", elapsed, 5.0)


def test_criterion_9_mirror_symmetry():
    t0 = time.perf_counter()
    rng = np.random.default_rng(209)
    from ds4.group import act_vector

    g0 = GroupElement(gamma(0))
    exact = True
    for _ in range(1_000):
        x = random_ds_point(rng).x
        y = act_vector(g0, x)
        exact = exact and np.array_equal(y, np.concatenate(([x[0]], -x[1:])))
    expected_signs = {"X1": +1, "X2": +1, "X3": +1, "X0": -1,
                      "Y1": +1, "Y2": +1, "Y3": +1,
                      "Z1": -1, "Z2": -1, "Z3": -1}
    signs = {}
    for label in algebra.GENERATOR_LABELS:
        G = algebra.generator(label).m
        ad = gamma(0) @ G @ gamma(0)
        if (ad - G).max_norm() <= 1e-12:
            signs[label] = +1
        elif (ad + G).max_norm() <= 1e-12:
            signs[label] = -1
    signs_ok = signs == expected_signs
    elapsed = time.perf_counter() - t0
    _verdict("criterion-9 mirror symmetry", exact and signs_ok,
             f"10^3 points mirrored exactly: {exact}, sign table reproduced: {signs_ok}",
             elapsed, 1.0)
