import cmath
import itertools
import math

import numpy as np
import pytest

from qmatball import matrixball
from qmatball.matrixball import (
    GeneratorImages,
    MonomialExponent,
    a_m_checks,
    classify_case,
    coherent_check,
    contraction_check,
    fock_rep,
    fock_word,
    rep_from_string,
    shilov_eval,
    vacuum_annihilation_exact,
    vacuum_expectation,
    verify_relations,
    z_monomial,
    zaa4_case_coefficients,
    zaa4_r_coefficients,
)
from qmatball.permgroup import (
    AdmissibleString,
    boundary_set,
    compose,
    enumerate_admissible,
    l_exponent,
)
from qmatball.qgrouprep import rep_generator
from qmatball.qoperator import (
    MAX_RESIDUAL_ELEMENTS,
    StateVector,
    TensorOperator,
    residual_on_window,
)

from conftest import random_phases_for, term_signature

Q = 0.5


class TestFockRep:
    def test_n1_is_the_raising_block(self):
        g = fock_rep(1, Q, 8)
        sig = term_signature(g.gen(1, 1))
        assert sig == [(1.0 + 0.0j, ("T22",))]

    def test_word_is_reduced_block_swap(self):
        for n in (1, 2, 3):
            word = fock_word(n)
            w = word.evaluate()
            expected = tuple(range(n + 1, 2 * n + 1)) + tuple(range(1, n + 1))
            assert w.images == expected
            assert len(word) == n * n

    def test_six_term_expansion(self):
        g = fock_rep(3, Q, 4)
        from test_diagramcalc import SIX_TERM_EXPANSION

        expected = sorted(
            (complex(round((-Q) ** -2, 12)), tags) for tags in SIX_TERM_EXPANSION
        )
        assert term_signature(g.gen(1, 1)) == sorted(expected, key=repr)

    @pytest.mark.parametrize("n,trunc", [(1, 8), (2, 6), (3, 4)])
    def test_vacuum_annihilation_structural(self, n, trunc):
        g = fock_rep(n, Q, trunc)
        assert vacuum_annihilation_exact(g)
        vac = StateVector.vacuum(g.f, g.N)
        for k in range(1, n + 1):
            for j in range(1, n + 1):
                image = g.gen(k, j).adjoint().apply(vac)
                assert np.all(image.amplitudes == 0)

    def test_resource_guard(self, monkeypatch):
        # building is cheap at any N; the residual refuses 8^9 window arrays
        # before allocating the first one
        calls = []

        def counted(*args):
            calls.append(args)
            return residual_on_window(*args)

        monkeypatch.setattr(matrixball, "residual_on_window", counted)
        g = fock_rep(3, Q, 10)
        with pytest.raises(ValueError, match=str(MAX_RESIDUAL_ELEMENTS)):
            verify_relations(g)
        assert len(calls) == 1

    def test_n4_builds_past_the_old_state_space_cap(self):
        g = fock_rep(4, Q, 4)
        assert g.f == 16 and g.N == 4
        assert vacuum_annihilation_exact(g)

    def test_sign_convention_at_vacuum(self):
        # through the embedding, the vacuum element of z_k^j is
        # (-q)^{k-n} (-q)^{l_{n+j}} delta_{n+k, s(n+j)} for the block swap s,
        # which vanishes identically since s maps n+j back below n
        for n in (1, 2, 3):
            g = fock_rep(n, Q, 4)
            s = compose([n] * n)
            for k in range(1, n + 1):
                for j in range(1, n + 1):
                    want = (
                        (-Q) ** (k - n)
                        * (-Q) ** l_exponent(s, n + j)
                        * (1.0 if n + k == s(n + j) else 0.0)
                    )
                    assert want == 0.0
                    got = vacuum_expectation(g, g.gen(k, j))
                    assert abs(got - want) < 1e-14


class TestFockRepCache:
    def test_same_arguments_share_one_object(self):
        assert fock_rep(2, Q, 6) is fock_rep(2, Q, 6)

    def test_shared_images_are_read_only(self):
        op = fock_rep(2, Q, 6).gen(1, 1)
        with pytest.raises(ValueError):
            op.scalars[0] = 0.0
        with pytest.raises(ValueError):
            op.ids[0, 0] = 0

    def test_strings_reuse_one_base(self, monkeypatch, rng):
        calls = []

        def counted(*args):
            calls.append(args)
            return rep_generator(*args)

        strings = [random_phases_for(ks, rng) for ks in enumerate_admissible(3)]
        assert len(strings) == 34
        fock_rep.cache_clear()
        monkeypatch.setattr(matrixball, "rep_generator", counted)
        shared = [rep_from_string(s, Q, 4) for s in strings]
        assert len(calls) == 9
        for s, g in zip(strings, shared):
            fock_rep.cache_clear()
            fresh = rep_from_string(s, Q, 4)
            for k in range(1, 4):
                for j in range(1, 4):
                    a, b = g.gen(k, j), fresh.gen(k, j)
                    assert np.array_equal(a.scalars, b.scalars)
                    assert np.array_equal(a.ids, b.ids)

    def test_parameters_are_positional_only(self):
        g = fock_rep(2, Q, 6)
        entries = fock_rep.cache_info().currsize
        with pytest.raises(TypeError):
            fock_rep(n=2, q=Q, N=6)
        with pytest.raises(TypeError):
            fock_rep(2, Q, N=6)
        assert fock_rep(2, Q, 6) is g
        assert fock_rep.cache_info().currsize == entries

    @pytest.mark.parametrize("args", [(0, Q, 6), (2, 1.0, 6), (2, Q, 1)])
    def test_invalid_arguments_raise_on_every_call(self, args):
        for _ in range(2):
            with pytest.raises(ValueError):
                fock_rep(*args)


class TestRepFromString:
    def test_all_white_equals_fock(self):
        s = AdmissibleString(2, (2, 2))
        g = rep_from_string(s, Q, 6)
        base = fock_rep(2, Q, 6)
        for k in (1, 2):
            for j in (1, 2):
                assert term_signature(g.gen(k, j)) == term_signature(base.gen(k, j))

    def test_reduced_fixture(self):
        phi3, phi1 = 1.1, 0.4
        s = AdmissibleString(3, (1, 2, 1), (phi3, 0.0, phi1))
        g = rep_from_string(s, Q, 5)
        assert g.f == 4
        scalar = (-Q) ** -1 * cmath.exp(1j * phi3)
        assert term_signature(g.gen(2, 3)) == [
            (
                complex(round(scalar.real, 12), round(scalar.imag, 12)),
                ("I", "T12", "I", "I"),
            )
        ]
        assert g.gen(1, 3).is_zero()

    def test_one_dimensional_rep(self):
        phi2, phi1 = 0.8, 0.3
        s = AdmissibleString(2, (0, 0), (phi2, phi1))
        g = rep_from_string(s, Q, 6)
        assert g.f == 0
        # diagonal scalars with the embedding normalization
        z11 = sum(t.scalar for t in g.gen(1, 1).terms)
        assert z11 == pytest.approx((-Q) ** -1 * cmath.exp(1j * (phi1 - phi2)))
        z22 = sum(t.scalar for t in g.gen(2, 2).terms)
        assert z22 == pytest.approx(cmath.exp(1j * phi2))
        assert g.gen(1, 2).is_zero() and g.gen(2, 1).is_zero()


class TestRelations:
    def test_fock_n2(self):
        reports = verify_relations(fock_rep(2, Q, 6))
        assert max(r.residual for r in reports) < 1e-10

    def test_fock_n1_single_relation(self):
        reports = verify_relations(fock_rep(1, Q, 8))
        zaa44 = [r for r in reports if r.relation == "zaa44"]
        assert len(zaa44) == 1
        assert zaa44[0].residual < 1e-12

    def test_relation_families_present(self):
        reports = verify_relations(fock_rep(2, Q, 6))
        names = {r.relation for r in reports}
        assert names == {
            "zaa1",
            "zaa1*",
            "zaa2",
            "zaa2*",
            "zaa3",
            "zaa3*",
            "zaa41",
            "zaa42",
            "zaa43",
            "zaa44",
            "R-form",
        }

    @pytest.mark.parametrize("n", [2, 3])
    def test_exchange_coefficient_tables_agree_exactly(self, n):
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                for alpha in range(1, n + 1):
                    for beta in range(1, n + 1):
                        assert zaa4_case_coefficients(
                            n, a, b, alpha, beta
                        ) == zaa4_r_coefficients(n, a, b, alpha, beta)

    def test_adjoint_side_reverses_stars_and_conjugates(self):
        side = [(1, ("z", 1, 2), ("z", 2, 1)), (2 - 1j, ("zs", 1, 1), ("z", 2, 2))]
        assert matrixball._adjoint_side(side) == [
            (1, ("zs", 2, 1), ("zs", 1, 2)),
            (2 + 1j, ("zs", 2, 2), ("z", 1, 1)),
        ]

    def test_adjoint_families_share_the_product_cache(self, monkeypatch):
        g = fock_rep(3, Q, 5)
        calls = {"mul": 0, "adjoint": 0, "residual": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(
            TensorOperator, "__mul__", counted("mul", TensorOperator.__mul__)
        )
        monkeypatch.setattr(
            TensorOperator, "adjoint", counted("adjoint", TensorOperator.adjoint)
        )
        monkeypatch.setattr(
            matrixball, "residual_on_window", counted("residual", residual_on_window)
        )
        reports = verify_relations(g)
        assert len(reports) == 234
        assert calls == {"mul": 306, "adjoint": 9, "residual": 234}

    def test_all_strings_n2(self, rng):
        for ks in enumerate_admissible(2):
            s = random_phases_for(ks, rng)
            reports = verify_relations(rep_from_string(s, Q, 5))
            assert max(r.residual for r in reports) < 1e-10, s

    def test_all_strings_n3(self, rng):
        for ks in enumerate_admissible(3):
            s = random_phases_for(ks, rng)
            reports = verify_relations(rep_from_string(s, Q, 5))
            assert max(r.residual for r in reports) < 1e-10, s


class TestMonomials:
    def test_zero_exponent_is_identity(self):
        g = fock_rep(2, Q, 6)
        op = z_monomial(g, MonomialExponent(((0, 0), (0, 0))))
        assert len(op.terms) == 1 and op.terms[0].scalar == 1.0

    def test_n1_square(self):
        g = fock_rep(1, Q, 6)
        op = z_monomial(g, MonomialExponent(((2,),)))
        assert term_signature(op) == [(1.0 + 0.0j, ("T22*T22",))]

    def test_ordering_subscript_then_superscript(self):
        g = fock_rep(2, Q, 6)
        A = MonomialExponent(((1, 0), (0, 1)))  # z_1^1 and z_2^2
        op = z_monomial(g, A)
        # product order z_2^2 z_1^1: vacuum elements distinguish the order
        explicit = g.gen(2, 2) * g.gen(1, 1)
        assert term_signature(op) == term_signature(explicit)

    def test_degree_cap(self):
        g = fock_rep(2, Q, 6)
        with pytest.raises(ValueError):
            z_monomial(g, MonomialExponent(((3, 2), (0, 0))))

    def test_monomial_vectors_nonzero(self):
        g = fock_rep(2, Q, 6)
        vac = StateVector.vacuum(g.f, g.N)
        for A in _exponents(2, 3):
            vec = z_monomial(g, A).apply(vac)
            assert vec.norm() > 1e-8, A


def _exponents(n, max_degree):
    cells = [(k, j) for k in range(1, n + 1) for j in range(1, n + 1)]
    out = []
    for degree in range(max_degree + 1):
        for combo in itertools.combinations_with_replacement(cells, degree):
            A = [[0] * n for _ in range(n)]
            for k, j in combo:
                A[k - 1][j - 1] += 1
            out.append(MonomialExponent(tuple(tuple(row) for row in A)))
    return out


class TestVacuumFunctional:
    def test_identity(self):
        g = fock_rep(2, Q, 6)
        assert vacuum_expectation(g, g.identity()) == pytest.approx(1.0)

    def test_single_generators_vanish(self):
        g = fock_rep(2, Q, 6)
        for k in (1, 2):
            for j in (1, 2):
                assert abs(vacuum_expectation(g, g.gen(k, j))) < 1e-14

    def test_gram_matrix_diagonal(self):
        g = fock_rep(2, Q, 6)
        vac = StateVector.vacuum(g.f, g.N)
        vectors = [z_monomial(g, A).apply(vac) for A in _exponents(2, 2)]
        for i, u in enumerate(vectors):
            assert u.inner(u).real > 1e-10
            for v in vectors[i + 1 :]:
                assert abs(u.inner(v)) < 1e-10


class TestShilov:
    def test_one_dimensional_annihilates(self):
        s = AdmissibleString(1, (0,), (0.7,))
        g = rep_from_string(s, Q, 6)
        _, residual = shilov_eval(g, 1, 1)
        assert residual < 1e-14

    def test_fock_is_far_from_boundary(self):
        g = fock_rep(2, Q, 6)
        op, residual = shilov_eval(g, 2, 2)
        assert residual > 0.1
        # vacuum expectation alone is already far from zero
        assert abs(vacuum_expectation(g, op)) > 0.5

    @pytest.mark.parametrize("n,trunc", [(2, 6), (3, 4)])
    def test_annihilation_iff_strictly_interior_string(self, n, trunc, rng):
        # brute-force scan: the boundary ideal dies exactly on strings with
        # k_i < i for every row, i.e. with empty boundary set
        for ks in enumerate_admissible(n):
            s = random_phases_for(ks, rng)
            g = rep_from_string(s, Q, trunc)
            worst = max(
                shilov_eval(g, a, b)[1]
                for a in range(1, n + 1)
                for b in range(1, n + 1)
            )
            interior = all(ks[n - i] < i for i in range(1, n + 1))
            assert interior == (not boundary_set(ks))
            if interior:
                assert worst < 1e-10, (ks, worst)
            else:
                assert worst > 1e-6, (ks, worst)


class TestClassifier:
    def test_case_b_examples(self):
        assert classify_case(AdmissibleString(3, (3, 2, 2), (0.0, 0.9, 0.0))) == "B"
        assert classify_case(AdmissibleString(3, (3, 3, 3))) == "B"
        assert classify_case(AdmissibleString(2, (2, 2))) == "B"

    def test_case_a_example(self):
        assert classify_case(AdmissibleString(3, (1, 2, 1), (0.5, 0.0, 0.2))) == "A"

    def test_follows_kernel_condition_combinatorially(self):
        # B exactly when k_n = n and every k_j >= 1
        for ks in enumerate_admissible(3):
            s = AdmissibleString(3, tuple(ks))
            expected = "B" if (ks[0] == 3 and all(k >= 1 for k in ks)) else "A"
            assert classify_case(s) == expected


class TestCoherent:
    def test_zero_phase(self):
        assert coherent_check(Q, 4, 0.0) < 1e-10

    def test_random_phases(self, rng):
        for phi in rng.uniform(0, 2 * math.pi, size=3):
            assert coherent_check(Q, 4, float(phi)) < 1e-10

    @pytest.mark.parametrize("phi", [0.0, 1.3, 4.0])
    def test_matches_dense_vacuum_images(self, phi):
        # oracle: apply every z*_j^i to the dense vacuum vector
        g = rep_from_string(AdmissibleString(3, (3, 3, 2), (0.0, 0.0, phi)), Q, 4)
        omega = StateVector.vacuum(g.f, g.N)
        worst = 0.0
        for i in range(1, 4):
            for j in range(1, 4):
                image = g.gen(j, i).adjoint().apply(omega)
                if (i, j) == (1, 1):
                    image = image - omega.scale(cmath.exp(-1j * phi))
                worst = max(worst, image.norm())
        assert coherent_check(Q, 4, phi) == pytest.approx(worst, abs=1e-15)

    def test_eigenvalue_is_unimodular(self):
        phi = 1.234
        s = AdmissibleString(3, (3, 3, 2), (0.0, 0.0, phi))
        g = rep_from_string(s, Q, 4)
        omega = StateVector.vacuum(g.f, g.N)
        image = g.gen(1, 1).adjoint().apply(omega)
        assert image.norm() == pytest.approx(1.0, abs=1e-12)


class TestAmFamilies:
    def test_fock_n2(self):
        reports = a_m_checks(fock_rep(2, Q, 6))
        assert max(r.residual for r in reports) < 1e-10
        kinds = {r.indices[2] for r in reports}
        assert kinds == {0, 1, 2} or kinds == {1, 2}  # j < m empty at n = 2, m = 1

    def test_specific_families(self):
        reports = {r.indices: r.residual for r in a_m_checks(fock_rep(2, Q, 6))}
        assert reports[(2, 2, 1)] < 1e-10  # q^2 z_n^n A_n = A_n z_n^n
        assert reports[(2, 1, 0)] < 1e-10  # j < m commutes outright
        assert reports[(1, 0, 2)] < 1e-10  # commutator form of A_1
        assert reports[(2, 0, 2)] < 1e-10

    def test_requires_n_at_least_two(self):
        with pytest.raises(ValueError):
            a_m_checks(fock_rep(1, Q, 6))


class TestContractions:
    def test_fock_n1(self):
        checks = contraction_check(fock_rep(1, Q, 8))
        assert all(norm <= 1.0 + 1e-9 for _, norm in checks)

    def test_fock_n2(self):
        checks = contraction_check(fock_rep(2, Q, 6))
        assert len(checks) == 3
        assert all(norm <= 1.0 + 1e-9 for _, norm in checks)

    def test_one_dimensional_boundary_scalars(self):
        s = AdmissibleString(2, (0, 0), (0.8, 0.3))
        g = rep_from_string(s, Q, 6)
        for _, norm in contraction_check(g):
            assert norm <= 1.0 + 1e-9


class TestContractionCertificate:
    @pytest.mark.parametrize("n, trunc", [(1, 12), (2, 4), (2, 5), (2, 7)])
    def test_fock_norms_match_dense_oracle(self, n, trunc):
        from test_qoperator import dense_norm

        g = fock_rep(n, Q, trunc)
        checks = contraction_check(g)
        targets = [(k, n) for k in range(1, n + 1)] + [(n, j) for j in range(n - 1, 0, -1)]
        assert [kj for kj, _ in checks] == targets
        # C_q S, the widest factor, has norm sqrt(1 - q^{2(N-1)})
        closed_form = math.sqrt(1.0 - Q ** (2 * (trunc - 1)))
        for kj, norm in checks:
            assert norm == pytest.approx(dense_norm(g.gen(*kj)), abs=1e-12)
            assert norm == pytest.approx(closed_form, abs=1e-12)

    def test_string_norms_match_dense_oracle(self):
        from test_qoperator import dense_norm

        g = rep_from_string(AdmissibleString(2, (2, 1), (0.0, 0.5)), Q, 5)
        for kj, norm in contraction_check(g):
            assert norm == pytest.approx(dense_norm(g.gen(*kj)), abs=1e-12)

    def test_scaled_generator_fails(self):
        # the true norm of 1.001 z_2^2 is 1.001 sqrt(1 - q^12) = 1.000878; a
        # lower bound such as 40 steps of norm_estimate (0.99941) passes it
        g = fock_rep(2, Q, 7)
        table = [[g.gen(k, j) for j in (1, 2)] for k in (1, 2)]
        table[1][1] = table[1][1].scale(1.001)
        damaged = GeneratorImages(2, Q, 7, tuple(map(tuple, table)), g.provenance)
        norms = dict(contraction_check(damaged))
        assert norms[(2, 2)] == pytest.approx(1.001 * math.sqrt(1.0 - Q**12), abs=1e-12)
        assert norms[(2, 2)] > 1.0 + 1e-9


class TestStructuralInvariants:
    def test_factor_count_equals_total_string_weight(self, rng):
        # white cells per row = k_j, so f = sum(ks) = length of the
        # composed minimal element
        from qmatball.permgroup import compose, length

        for n, trunc in [(1, 6), (2, 5), (3, 4)]:
            for ks in enumerate_admissible(n):
                s = random_phases_for(ks, rng)
                g = rep_from_string(s, Q, trunc)
                assert g.f == sum(ks) == length(compose(ks))

    def test_coherent_rep_keeps_a_vacuum_survivor(self):
        # negative control: the coherent family has z*_1^1 Omega != 0, so
        # structural annihilation must fail there and only there
        s = AdmissibleString(3, (3, 3, 2), (0.0, 0.0, 1.0))
        g = rep_from_string(s, Q, 4)
        assert not vacuum_annihilation_exact(g)
        from qmatball.qoperator import is_exact_zero_on_vacuum

        survivors = [
            (k, j)
            for k in range(1, 4)
            for j in range(1, 4)
            if not is_exact_zero_on_vacuum(g.gen(k, j).adjoint())
        ]
        assert survivors == [(1, 1)]
