"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion; a pytest failure is the corresponding FAIL line.
"""

import cmath
import itertools
import math
import time

import numpy as np
import pytest

from qmatball.diagramcalc import grid_from_string, synthesize_z
from qmatball.matrixball import (
    MonomialExponent,
    a_m_checks,
    coherent_check,
    contraction_check,
    fock_rep,
    rep_from_string,
    vacuum_annihilation_exact,
    verify_relations,
    z_monomial,
)
from qmatball.permgroup import (
    AdmissibleString,
    Permutation,
    ReducedWord,
    boundary_set,
    compose,
    decompose,
    enumerate_admissible,
    gf_counts,
    l_exponent,
    minimal_coset_rep,
)
from qmatball.qgrouprep import SoibelmanRep, rep_generator, twist_check
from qmatball.qoperator import (
    FACTORS,
    TensorOperator,
    residual_on_window,
    t_block,
    vacuum_matrix_element,
)
from qmatball.relations import zaa4_case_coefficients, zaa4_r_coefficients

from conftest import (
    all_reduced_words,
    brute_force_orbit,
    random_phases_for,
    term_signature,
    vacuum,
)

EXPECTED_COUNTS = [2, 7, 34, 209, 1546]


def report(criterion, message):
    print(f"[criterion {criterion}] PASS: {message}")


def test_criterion_1_counting():
    start = time.perf_counter()
    from_gf = gf_counts(5)
    for n in range(1, 6):
        assert len(enumerate_admissible(n)) == EXPECTED_COUNTS[n - 1]
        assert from_gf[n] == EXPECTED_COUNTS[n - 1]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, f"counts 2,7,34,209,1546 by enumeration and series ({elapsed:.2f}s)")


def test_criterion_2_coset_oracle():
    start = time.perf_counter()
    checked = 0
    for m in (4, 6):
        seen = {}
        for images in itertools.permutations(range(1, m + 1)):
            sigma = Permutation(m, images)
            fact = minimal_coset_rep(sigma)
            assert fact.h * fact.w * fact.g == sigma
            assert sigma.length() == fact.w.length() + fact.g.length() + fact.h.length()
            key = sigma.images
            if key not in seen:
                orbit = brute_force_orbit(sigma)
                best = min(p.length() for p in orbit)
                minimizers = {p for p in orbit if p.length() == best}
                assert len(minimizers) == 1
                winner = next(iter(minimizers))
                for p in orbit:
                    seen[p.images] = winner
            assert fact.w == seen[key]
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"{checked} permutations of S_4 and S_6 match the brute-force "
              f"orbit minimizer ({elapsed:.2f}s)")


def test_criterion_3_bijection_length_boundary():
    for n in range(1, 4):
        for ks in enumerate_admissible(n):
            w = compose(ks)
            assert w.length() == sum(ks)
            assert decompose(w) == list(ks)
    for n in range(1, 5):
        for ks in enumerate_admissible(n):
            w = compose(ks)
            assert w.length() == sum(ks)
            assert boundary_set(ks) == {
                j for j in range(1, n + 1) if 1 <= w(n + j) <= n
            }
    report(3, "compose/decompose round-trip (n <= 3), additive lengths and "
              "boundary rows (n <= 4), zero failures")


def test_criterion_4_relation_suite():
    start = time.perf_counter()
    worst = 0.0
    instances = 0
    for n, q, trunc in [(1, 0.5, 8), (2, 0.5, 6), (2, 0.8, 6), (3, 0.5, 4)]:
        reports = verify_relations(fock_rep(n, q, trunc))
        instances += len(reports)
        worst = max(worst, max(r.residual for r in reports))
        # verify_relations already raises if the R-matrix and case-form
        # coefficient tables differ; re-assert the exact agreement here
        for a, b, alpha, beta in itertools.product(range(1, n + 1), repeat=4):
            assert zaa4_case_coefficients(n, a, b, alpha, beta) == \
                zaa4_r_coefficients(n, a, b, alpha, beta)
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 120.0
    report(4, f"{instances} relation instances across four parameter sets, "
              f"max residual {worst:.2e} ({elapsed:.2f}s)")


SIX_TERMS = [
    ("T21", "T21", "T22", "I", "I", "T12", "I", "I", "T12"),
    ("T21", "T22", "I", "I", "T11", "T22", "I", "I", "T12"),
    ("T22", "I", "I", "T11", "T21", "T22", "I", "I", "T12"),
    ("T21", "T22", "I", "I", "T12", "I", "I", "T11", "T22"),
    ("T22", "I", "I", "T11", "T22", "I", "I", "T11", "T22"),
    ("T22", "I", "I", "T12", "I", "I", "T11", "T21", "T22"),
]


def test_criterion_5_fixture_equality():
    q, trunc = 0.5, 4
    grid = grid_from_string(AdmissibleString(3, (3, 3, 3)))
    op = synthesize_z(grid, 1, 1, q, trunc)
    expected = sorted(
        ((complex(round((-q) ** -2, 12)), tags) for tags in SIX_TERMS), key=repr
    )
    assert term_signature(op) == expected

    phi3, phi1 = 1.1, 0.4
    string = AdmissibleString(3, (1, 2, 1), (phi3, 0.0, phi1))
    g = rep_from_string(string, q, trunc)
    z23 = g.gen(2, 3)
    assert len(z23.terms) == 1
    assert tuple(
        "I" if F is None else F.provenance[0] for F in z23.terms[0].factors
    ) == ("I", "T12", "I", "I")
    # full scalar carries the embedding normalization (-q)^{k-n} = (-q)^{-1};
    # stripped of it, the operator is exactly e^{i phi_3} I x T12 x I x I
    assert z23.terms[0].scalar == pytest.approx((-q) ** -1 * cmath.exp(1j * phi3))
    stripped = z23.scale((-q) ** (3 - 2))
    assert stripped.terms[0].scalar == pytest.approx(cmath.exp(1j * phi3))
    assert g.gen(1, 3).is_zero()
    report(5, "six-term expansion multiset and the reduced single-term / "
              "zero-generator fixtures")


def test_criterion_6_cross_construction(rng):
    worst = 0.0
    for n, trunc in [(2, 6), (3, 4)]:
        for ks in enumerate_admissible(n):
            string = random_phases_for(ks, rng)
            grid = grid_from_string(string)
            g = rep_from_string(string, 0.5, trunc)
            for k in range(1, n + 1):
                for j in range(1, n + 1):
                    alt = synthesize_z(grid, k, j, 0.5, trunc)
                    worst = max(worst, residual_on_window(g.gen(k, j), alt, 1))
    assert worst < 1e-10
    report(6, f"diagram and coproduct constructions agree on all 7 + 34 "
              f"strings, max residual {worst:.2e}")


def _low_degree_exponents(n, max_degree):
    cells = [(k, j) for k in range(1, n + 1) for j in range(1, n + 1)]
    for degree in range(max_degree + 1):
        for combo in itertools.combinations_with_replacement(cells, degree):
            A = [[0] * n for _ in range(n)]
            for k, j in combo:
                A[k - 1][j - 1] += 1
            yield MonomialExponent(tuple(tuple(row) for row in A))


def test_criterion_7_vacuum_properties(rng):
    for n, trunc in [(1, 8), (2, 6), (3, 4)]:
        g = fock_rep(n, 0.5, trunc)
        assert vacuum_annihilation_exact(g)
        vac = vacuum(g.f, g.N)
        for k in range(1, n + 1):
            for j in range(1, n + 1):
                assert np.all(g.gen(k, j).adjoint().apply(vac) == 0)

    g = fock_rep(2, 0.5, 6)
    vac = vacuum(g.f, g.N)
    vectors = [z_monomial(g, A).apply(vac) for A in _low_degree_exponents(2, 2)]
    for i, u in enumerate(vectors):
        assert np.vdot(u, u).real > 1e-10
        for v in vectors[i + 1 :]:
            assert abs(np.vdot(v, u)) < 1e-10

    for phi in rng.uniform(0.0, 2.0 * math.pi, size=5):
        assert coherent_check(0.5, 4, float(phi)) < 1e-10
    report(7, "exact vacuum annihilation (n <= 3), diagonal low-degree Gram "
              "matrix, coherent property for 5 random phases")


def test_criterion_8_matrix_element_formula(rng):
    q, trunc = 0.5, 4
    worst = 0.0
    phase_draws = []
    for _ in range(3):
        phases = rng.uniform(0.0, 2.0 * math.pi, size=3)
        phase_draws.append(
            tuple(phases) + ((-float(sum(phases))) % (2.0 * math.pi),)
        )
    double_worded = 0
    for images in itertools.permutations(range(1, 5)):
        sigma = Permutation(4, images)
        words = all_reduced_words(sigma)[:2]
        if len(words) > 1:
            double_worded += 1
        for phases in phase_draws:
            for letters in words:
                rep = SoibelmanRep(ReducedWord(4, letters), q, trunc, phases)
                for i in range(1, 5):
                    for j in range(1, 5):
                        got = vacuum_matrix_element(rep_generator(rep, i, j))
                        want = (
                            cmath.exp(1j * phases[j - 1])
                            * (-q) ** l_exponent(sigma, j)
                            * (1.0 if i == sigma(j) else 0.0)
                        )
                        worst = max(worst, abs(got - want))
    assert worst < 1e-12
    assert double_worded >= 10  # plenty of elements admit two reduced words

    twist_worst = 0.0
    for images in [(2, 1, 4, 3), (4, 3, 2, 1), (2, 3, 4, 1), (1, 3, 2, 4)]:
        sigma = Permutation(4, images)
        for phases in phase_draws:
            twist_worst = max(twist_worst, twist_check(sigma, list(phases), q, trunc))
    assert twist_worst < 1e-10
    report(8, f"vacuum matrix elements over all of S_4 (two words where "
              f"available, 3 phase draws), max error {worst:.2e}; twist "
              f"residual {twist_worst:.2e}")


def test_criterion_9_operator_identities():
    q, trunc = 0.5, 6
    one = lambda F: TensorOperator.from_ids(1, trunc, [1.0], [[FACTORS.intern(F)]])
    T = {(i, j): one(t_block(i, j, q, trunc)) for i in (1, 2) for j in (1, 2)}
    I = TensorOperator.identity(1, trunc)
    adjoint_ok = residual_on_window(T[(1, 1)], T[(2, 2)].adjoint(), 1)
    fundamental = [
        # quantum-determinant line, asserted equal to the identity
        (T[(1, 1)] * T[(2, 2)] - (T[(1, 2)] * T[(2, 1)]).scale(q), I),
        (T[(1, 2)] * T[(2, 1)], T[(2, 1)] * T[(1, 2)]),
        (T[(1, 1)] * T[(1, 2)], (T[(1, 2)] * T[(1, 1)]).scale(q)),
        (T[(1, 1)] * T[(2, 1)], (T[(2, 1)] * T[(1, 1)]).scale(q)),
        (
            T[(1, 1)] * T[(2, 2)],
            (T[(2, 2)] * T[(1, 1)]).scale(q**2) + I.scale(1 - q**2),
        ),
    ]
    worst = max(residual_on_window(lhs, rhs, 2) for lhs, rhs in fundamental)
    worst = max(worst, adjoint_ok)
    root = np.sqrt(
        np.eye(trunc)
        - t_block(2, 2, q, trunc).entries @ t_block(1, 1, q, trunc).entries
    )
    assert np.allclose(root, t_block(2, 1, q, trunc).entries, atol=1e-12)
    assert worst < 1e-10

    g = fock_rep(2, q, trunc)
    am_worst = max(r.residual for r in a_m_checks(g))
    assert am_worst < 1e-10

    norms = contraction_check(g)
    assert all(norm <= 1.0 + 1e-9 for _, norm in norms)
    report(9, f"fundamental 2x2 relations (determinant line = identity), "
              f"commutation families ({am_worst:.2e}) and contractivity at "
              f"(n, q, N) = (2, 0.5, 6)")
