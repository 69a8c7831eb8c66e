import cmath
import collections
import hashlib
import itertools
import math
import runpy
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qmatball import matrixball, qoperator, relations
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
    verify_relations,
    z_monomial,
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
    TensorOperator,
    operator_products,
    residual_on_window,
    vacuum_matrix_element,
)
from qmatball.relations import zaa4_case_coefficients, zaa4_r_coefficients

from conftest import random_phases_for, term_signature, vacuum

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
        vac = vacuum(g.f, g.N)
        for k in range(1, n + 1):
            for j in range(1, n + 1):
                image = g.gen(k, j).adjoint().apply(vac)
                assert np.all(image == 0)

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
                    got = vacuum_matrix_element(g.gen(k, j))
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

    def test_numpy_integer_truncation_is_read_as_int(self):
        g = fock_rep(2, Q, np.int64(4))
        assert type(g.N) is int and g.N == 4
        string = AdmissibleString(2, (1, 0), (0.3, 0.0))
        assert type(rep_from_string(string, Q, np.int64(4)).N) is int

    @pytest.mark.parametrize(
        "args",
        [(0, Q, 6), (2, 1.0, 6), (2, Q, 1), (2, Q, 3.5), (2, Q, 4.0), (2, Q, "4"), (2.0, Q, 4)],
    )
    def test_invalid_arguments_raise_on_every_call(self, args):
        # an equal integer entry cached first must not answer for a float
        fock_rep(2, Q, 4)
        entries = fock_rep.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError):
                fock_rep(*args)
        assert fock_rep.cache_info().currsize == entries


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

    def test_images_are_read_only_through_their_bases(self, rng):
        # the images are slices of arrays shared by all n^2 of them, so a
        # writable base would let one image be written through another
        strings = [random_phases_for(ks, rng) for ks in enumerate_admissible(3)]
        for s in strings + [AdmissibleString(2, (2, 2)), AdmissibleString(2, (0, 0))]:
            g = rep_from_string(s, Q, 4)
            for row in g.z:
                for op in row:
                    for array in (op.scalars, op.ids):
                        while array is not None:
                            assert not array.flags.writeable
                            array = array.base


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

    @pytest.mark.parametrize("n", range(1, 7))
    def test_per_case_table_lists_its_words_in_word_order(self, n):
        # the order of the sorted R-matrix table, so that the two exchange
        # right-hand sides are built term for term alike
        for indices in itertools.product(range(1, n + 1), repeat=4):
            case = zaa4_case_coefficients(n, *indices)
            assert list(case) == sorted(zaa4_r_coefficients(n, *indices)), indices

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.6, 0.7, 0.9])
    @pytest.mark.parametrize("n, N, calls", [(2, 6, 28), (3, 5, 153)])
    def test_every_rform_report_reuses_the_per_case_residual(
        self, monkeypatch, n, N, calls, q
    ):
        # one window residual per exchange instance: the R-form side has the
        # per-case side's terms bit for bit, so its report takes the
        # per-case residual, the report right before it
        counted = 0

        def counting(*args):
            nonlocal counted
            counted += 1
            return residual_on_window(*args)

        monkeypatch.setattr(matrixball, "residual_on_window", counting)
        reports = verify_relations(fock_rep(n, q, N))
        assert counted == calls
        rform = [i for i, r in enumerate(reports) if r.relation == "R-form"]
        assert len(rform) == n**4
        for i in rform:
            case = reports[i - 1]
            assert case.relation.startswith("zaa4") and case.indices == reports[i].indices
            assert reports[i].residual.hex() == case.residual.hex()

    def test_adjoint_side_reverses_stars_and_conjugates(self):
        # the coefficients are Laurent polynomials with integer coefficients
        # in the real q, so each is its own conjugate and stays as it is
        lp = relations._lp
        side = [
            (lp((0, 1)), (("z", 1, 2), ("z", 2, 1))),
            (lp((1, 1), (-1, -1)), (("zs", 1, 1), ("z", 2, 2))),
            (lp((0, -1)), (("z", 3, 1),)),
            (lp((2, 1)), ()),
        ]
        assert relations._adjoint_side(side) == [
            (lp((0, 1)), (("zs", 2, 1), ("zs", 1, 2))),
            (lp((1, 1), (-1, -1)), (("zs", 2, 2), ("z", 1, 1))),
            (lp((0, -1)), (("zs", 3, 1),)),
            (lp((2, 1)), ()),
        ]

    def test_adjoint_families_share_the_product_cache(self, monkeypatch):
        g = fock_rep(3, Q, 5)
        calls = {"mul": 0, "adjoint": 0, "residual": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        # the suite builds its products in lists: count each product
        def products(pairs):
            calls["mul"] += len(pairs)
            return operator_products(pairs)

        monkeypatch.setattr(matrixball, "operator_products", products)
        monkeypatch.setattr(
            TensorOperator, "adjoint", counted("adjoint", TensorOperator.adjoint)
        )
        monkeypatch.setattr(
            matrixball, "residual_on_window", counted("residual", residual_on_window)
        )
        reports = verify_relations(g)
        assert len(reports) == 234
        # 153 = 72 holomorphic + 81 exchange: every R-form report reuses the
        # per-case residual
        assert calls == {"mul": 306, "adjoint": 9, "residual": 153}

    def test_rform_report_bits_at_a_q_where_the_corner_rounds(self):
        # written by commit 7bac09d, before the per-case side was built from
        # the relation tables; the R-form route did not change
        reports = [r for r in verify_relations(fock_rep(3, 0.6, 6)) if r.relation == "R-form"]
        assert len(reports) == 81
        digest = "a54847c4191318d46770919b644a66f65f44a2ffed05dbab2327bcaab18f98b5"
        assert report_digest(reports) == digest

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


def case_side(n, indices):
    """The per-case exchange right-hand side at ``indices``, in its table's
    order."""
    return [(c, word) for word, c in zaa4_case_coefficients(n, *indices).items()]


class FullProducts:
    """Operators of relation sides from unrestricted products, ``op(a) *
    op(b)`` for every word: the oracle for ``matrixball._Products``, which
    restricts right operands to the window."""

    def __init__(self, g):
        self.g = g
        self.a_m = {}

    def op(self, name):
        kind, k, j = name
        if kind == "z":
            return self.g.gen(k, j)
        if kind == "zs":
            return self.g.gen(k, j).adjoint()
        if k not in self.a_m:
            self.a_m[k] = self.side(relations.a_m_side(self.g.n, k))
        return self.a_m[k]

    def __call__(self, *word):
        if not word:
            return self.g.identity()
        if len(word) == 1:
            return self.op(word[0])
        return self.op(word[0]) * self.op(word[1])

    def side(self, side):
        return chain_side(self, side)


def chain_side(prod, side):
    """A relation side as a chain of ``scale`` and ``+``, one new operator
    per term: the construction that ``matrixball._Products.side`` replaced,
    kept here as its oracle."""
    q = prod.g.q
    terms = [
        prod(*word) if c == relations._ONE else prod(*word).scale(relations._lp_eval(c, q))
        for c, word in side
    ]
    return sum(terms[1:], terms[0])


class TestOnePassSides:
    """``_Products.side`` builds a side in one pass, with the terms of the
    ``scale``/``+`` chain bit for bit, on the same products."""

    @pytest.mark.parametrize(
        "n,q,N", [(1, 0.3, 6), (2, 0.3, 5), (3, 0.7, 4), (4, 0.3, 3), (4, Q, 4)]
    )
    def test_fock_sides_have_the_chain_terms(self, n, q, N):
        self.check(fock_rep(n, q, N))

    def test_string_sides_have_the_chain_terms(self):
        # complex scalars, from the phases of the light cells
        g = rep_from_string(AdmissibleString(3, (3, 2, 1), (0.0, 0.7, 2.1)), 0.3, 5)
        self.check(g)

    @staticmethod
    def check(g):
        """Compares every side at ``g``."""
        prod = matrixball._Products(g)
        for family, indices, lhs, rhs, _ in relations.instances(g.n):
            sides = [lhs, rhs]
            if family.startswith("zaa4"):
                sides.append(case_side(g.n, indices))
            for side in sides:
                got, want = prod.side(side), chain_side(prod, side)
                assert got.ids.tobytes() == want.ids.tobytes(), (family, indices)
                assert got.scalars.tobytes() == want.scalars.tobytes(), (family, indices)


class TestChunks:
    """``_reports`` builds the products and sides of consecutive instances
    in chunks of at most ``_BATCH_ELEMENTS`` elements, one ``sides`` call
    per chunk."""

    @pytest.mark.parametrize("budget", [1, 1 << 12, 1 << 40])
    def test_the_chunk_size_moves_no_bit(self, monkeypatch, budget):
        # one instance per chunk, several, and one chunk per part
        g = fock_rep(3, 0.7, 5)
        want = report_digest(verify_relations(g) + a_m_checks(g))
        monkeypatch.setattr(matrixball, "_BATCH_ELEMENTS", budget)
        assert report_digest(verify_relations(g) + a_m_checks(g)) == want

    def test_a_chunk_holds_at_most_its_count(self, monkeypatch):
        # every outermost sides call, measured apart from the names it
        # needs and once the factor table holds every factor pair, which
        # it keeps for the process: at most 32 bytes per element counted,
        # 1 kB per operator made (new products and sides) and 4 kB besides
        sizes = [(2, 5), (3, 5), (4, 3)]
        for n, N in sizes:
            verify_relations(fock_rep(n, Q, N))
        monkeypatch.setattr(matrixball, "_BATCH_ELEMENTS", 1 << 12)
        build = matrixball._Products.sides
        calls = []

        def measured(self, sides):
            if calls and calls[-1] is None:
                return build(self, sides)
            calls.append(None)
            elements = self.elements(sides, {})
            products = len(self._products)
            tracemalloc.start()
            try:
                out = build(self, sides)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            made = len(self._products) - products + len(sides)
            calls[-1] = (len(sides), elements, made, peak)
            return out

        monkeypatch.setattr(matrixball._Products, "sides", measured)
        for n, N in sizes:
            g = fock_rep(n, Q, N)
            verify_relations(g)
            if N > relations.A_M_DEPTH:
                a_m_checks(g)
        chunks = [call for call in calls if call[0] > 2]
        assert len(chunks) > 10
        for sides, elements, made, peak in calls:
            # a chunk of one instance may count more
            assert elements <= 1 << 12 or sides <= 2
            assert peak <= 32 * elements + 1024 * made + 4096

    def test_a_product_over_the_limit_is_refused_before_the_chunk(self, monkeypatch):
        g = fock_rep(4, Q, 4)
        prod = matrixball._Products(g)
        chunk = list(itertools.islice(relations.holomorphic_instances(4), 20))
        sides = [side for instance in chunk for side in instance[2:4]]
        planned = {}
        elements = prod.elements(sides, planned)
        assert len(planned) > 10
        largest = max(planned.values())
        held = largest * (qoperator._PRODUCT_PAIR_BYTES + qoperator._PRODUCT_ID_BYTES * g.f)
        monkeypatch.setattr(qoperator, "MAX_PRODUCT_BYTES", held - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"would hold {held} bytes"):
                prod.sides(sides)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # no product was kept, and the scalars of the chunk's new products,
        # 16 bytes per term pair, were never allocated
        assert prod._products == {}
        assert peak < 16 * sum(planned.values()) // 4
        monkeypatch.setattr(qoperator, "MAX_PRODUCT_BYTES", held)
        assert len(prod.sides(sides)) == len(sides)


def full_product_relations(g):
    """The reports of ``verify_relations``, in its order, from full products:
    each exchange instance is checked against both right-hand sides, each by
    a call of its own."""
    full = FullProducts(g)
    out = []
    for family, indices, lhs, rhs, depth in relations.instances(g.n):
        if family == "A_m-comm":
            continue
        left = full.side(lhs)
        if family.startswith("zaa4"):
            case_rhs = full.side(case_side(g.n, indices))
            out.append((family, indices, residual_on_window(left, case_rhs, depth).hex(), depth))
            family = "R-form"
        out.append((family, indices, residual_on_window(left, full.side(rhs), depth).hex(), depth))
    return out


def full_product_a_m(g):
    """The reports of ``a_m_checks``, in its order, from full products."""
    full = FullProducts(g)
    return [
        (family, indices, residual_on_window(full.side(lhs), full.side(rhs), depth).hex(), depth)
        for family, indices, lhs, rhs, depth in relations.instances(g.n)
        if family == "A_m-comm"
    ]


def hexed(reports):
    return [(r.relation, r.indices, r.residual.hex(), r.depth) for r in reports]


def damaged(g, k, j, term, scalar):
    """``g`` with the scalar of term ``term`` of z_k^j replaced."""
    z = [list(row) for row in g.z]
    op = z[k - 1][j - 1]
    scalars = op.scalars.copy()
    scalars[term] = scalar
    z[k - 1][j - 1] = TensorOperator.from_ids(op.f, op.dim, scalars, op.ids)
    return GeneratorImages(g.n, g.q, g.N, tuple(map(tuple, z)), "damaged")


class TestWindowProducts:
    """Relation sides are built from products whose right operands are
    restricted to the window; every report keeps the bits that full
    products give."""

    @pytest.mark.parametrize("n,N", [(2, 4), (3, 4), (3, 5), (4, 3)])
    def test_reports_match_full_products_bit_for_bit(self, n, N):
        g = fock_rep(n, Q, N)
        assert hexed(verify_relations(g)) == full_product_relations(g)
        if N > relations.A_M_DEPTH:
            assert hexed(a_m_checks(g)) == full_product_a_m(g)
        else:
            for run in (a_m_checks, full_product_a_m):
                with pytest.raises(ValueError, match="window is empty"):
                    run(g)

    def test_products_drop_the_terms_dead_on_the_window(self):
        # at N = 3 the window of depth 2 is the vacuum, which every z*
        # kills: each z z* is built empty, and the full one is not
        g = fock_rep(3, Q, 3)
        prod = matrixball._Products(g)
        word = (("z", 1, 1), ("zs", 2, 2))
        assert prod(*word).scalars.size == 0
        assert FullProducts(g)(*word).scalars.size > 0

    @pytest.mark.parametrize(
        "N,k,j,term,scalar",
        [
            (3, 1, 1, 1, 1e200),
            (3, 2, 2, 0, complex(math.inf, 0.0)),
            (4, 1, 1, 0, complex(math.inf, 0.0)),
        ],
    )
    def test_huge_scalars_keep_their_nans(self, N, k, j, term, scalar):
        # an infinite scalar, or one whose products overflow, times a term
        # dead on the window makes NaN, which the residual keeps: such
        # images are multiplied in full.  At N = 3 a restricted product
        # would lose a NaN of zaa44 (1e200) or of zaa42 (inf).
        g = damaged(fock_rep(2, Q, N), k, j, term, scalar)
        with np.errstate(invalid="ignore", over="ignore"):
            reports = hexed(verify_relations(g))
            assert reports == full_product_relations(g)
            if N > relations.A_M_DEPTH:
                assert hexed(a_m_checks(g)) == full_product_a_m(g)
        assert any(residual == "nan" for _, _, residual, _ in reports)


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

    def test_exponents_are_not_truncated(self):
        # int() would read 1.7 as the exponent 1
        with pytest.raises(ValueError, match="exponent must be an integer"):
            MonomialExponent(((1.7,),))
        assert MonomialExponent(((True, np.int64(0)), (0, 2))).A == ((1, 0), (0, 2))

    def test_degree_cap(self):
        g = fock_rep(2, Q, 6)
        with pytest.raises(ValueError):
            z_monomial(g, MonomialExponent(((3, 2), (0, 0))))

    def test_monomial_vectors_nonzero(self):
        g = fock_rep(2, Q, 6)
        vac = vacuum(g.f, g.N)
        for A in _exponents(2, 3):
            vec = z_monomial(g, A).apply(vac)
            assert np.linalg.norm(vec) > 1e-8, A


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
        assert vacuum_matrix_element(g.identity()) == pytest.approx(1.0)

    def test_single_generators_vanish(self):
        g = fock_rep(2, Q, 6)
        for k in (1, 2):
            for j in (1, 2):
                assert abs(vacuum_matrix_element(g.gen(k, j))) < 1e-14

    def test_gram_matrix_diagonal(self):
        g = fock_rep(2, Q, 6)
        vac = vacuum(g.f, g.N)
        vectors = [z_monomial(g, A).apply(vac) for A in _exponents(2, 2)]
        for i, u in enumerate(vectors):
            assert np.vdot(u, u).real > 1e-10
            for v in vectors[i + 1 :]:
                assert abs(np.vdot(v, u)) < 1e-10


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
        assert abs(vacuum_matrix_element(op)) > 0.5

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

    def test_scan_script_stops_at_the_memory_limit(self, monkeypatch, capsys):
        # a string whose residual the limit refuses stops the scan with a
        # plain message and exit code 2, not a traceback
        script = Path(__file__).resolve().parents[1] / "scripts" / "shilov_scan.py"
        monkeypatch.setattr(qoperator, "MAX_RESIDUAL_ELEMENTS", 10)
        monkeypatch.setattr(sys, "argv", [str(script), "3"])
        with pytest.raises(SystemExit) as stopped:
            runpy.run_path(str(script), run_name="__main__")
        assert stopped.value.code == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: string [") and err.count("\n") == 1
        assert "more than the limit 10" in err
        assert "prediction holds" not in out


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
        omega = vacuum(g.f, g.N)
        worst = 0.0
        for i in range(1, 4):
            for j in range(1, 4):
                image = g.gen(j, i).adjoint().apply(omega)
                if (i, j) == (1, 1):
                    image = image - cmath.exp(-1j * phi) * omega
                worst = max(worst, float(np.linalg.norm(image)))
        assert coherent_check(Q, 4, phi) == pytest.approx(worst, abs=1e-15)

    def test_eigenvalue_is_unimodular(self):
        phi = 1.234
        s = AdmissibleString(3, (3, 3, 2), (0.0, 0.0, phi))
        g = rep_from_string(s, Q, 4)
        image = g.gen(1, 1).adjoint().apply(vacuum(g.f, g.N))
        assert np.linalg.norm(image) == pytest.approx(1.0, abs=1e-12)


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


def _recorded_sides(monkeypatch, run):
    """Every side that ``_Products.sides``, which builds every side, a
    single one included, evaluates while ``run()`` runs."""
    sides = []
    evaluate = matrixball._Products.sides

    def recording(self, batch):
        sides.extend(batch)
        return evaluate(self, batch)

    monkeypatch.setattr(matrixball._Products, "sides", recording)
    run()
    monkeypatch.undo()
    return sides


class TestRelationData:
    """Every relation side is a list of (integer Laurent polynomial, word)."""

    def test_exchange_tables_that_disagree_raise(self, monkeypatch):
        # the per-case and R-matrix tables are transcribed independently; a
        # slip in either must stop the enumeration, not pick one of them.
        # This exact comparison is the only cross-check of the two tables,
        # so verify_relations must stop too.  Two slips: an empty R-matrix
        # table, and zaa42's leading q written q^2 at (1, 1, 1, 2)
        zaa4_case = relations._zaa4_case
        word = (("z", 1, 1), ("zs", 1, 2))

        def slipped(n, *indices):
            family, case = zaa4_case(n, *indices)
            if indices == (1, 1, 1, 2):
                assert family == "zaa42" and case[word] == relations._Q
                case = {**case, word: relations._Q2}
            return family, case

        slips = [("zaa4_r_coefficients", lambda *args: {}, "1, 1, 1, 1"),
                 ("_zaa4_case", slipped, "1, 1, 1, 2")]
        for name, table, where in slips:
            with monkeypatch.context() as m:
                m.setattr(relations, name, table)
                with pytest.raises(AssertionError, match=f"disagree at \\({where}\\)"):
                    list(relations.exchange_instances(2))
                with pytest.raises(AssertionError, match=f"disagree at \\({where}\\)"):
                    verify_relations(fock_rep(2, Q, 4))

    @pytest.mark.parametrize("n,N", [(2, 4), (3, 4)])
    def test_every_coefficient_is_an_integer_laurent_polynomial(self, monkeypatch, n, N):
        g = fock_rep(n, Q, N)

        def run():
            verify_relations(g)
            a_m_checks(g)
            for a, b in itertools.product(range(1, n + 1), repeat=2):
                shilov_eval(g, a, b)

        sides = _recorded_sides(monkeypatch, run)
        for family, indices, lhs, rhs, _ in relations.instances(n):
            sides += [lhs, rhs]
            if family.startswith("zaa4"):
                sides.append(case_side(n, indices))
        names = set()
        for side in sides:
            assert side
            for c, word in side:
                assert type(c) is dict and c
                assert all(type(p) is int and type(k) is int for p, k in c.items())
                assert type(word) is tuple and len(word) <= 2
                names.update(name[0] for name in word)
        assert names == {"z", "zs", "A"}

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
    def test_coefficients_evaluate_to_the_inline_floats(self, monkeypatch, q):
        # the floats that the relations used to be written with
        ev = relations._lp_eval
        sides = {(f, i): (lhs, rhs) for f, i, lhs, rhs, _ in relations.instances(2)}
        _, zaa1 = sides["zaa1", (1, 1, 1, 2)]
        assert ev(zaa1[0][0], q).hex() == q.hex()
        zaa3_lhs, zaa3 = sides["zaa3", (1, 2, 1, 2)]
        assert ev(zaa3[0][0], q).hex() == (q - 1.0 / q).hex()
        assert ev(zaa3_lhs[1][0], q) == -1.0

        n = 3
        g = fock_rep(n, q, 4)
        seen = {"q^2": 0, "1 - q^2": 0}
        for side in _recorded_sides(monkeypatch, lambda: a_m_checks(g)):
            for c, word in side:
                if len(word) == 2 and word[1][0] == "A":
                    (_, j, _), (_, m, _) = word
                    if j >= m:
                        assert ev(c, q).hex() == (q**2).hex()
                        seen["q^2"] += 1
                elif len(word) == 1:
                    assert ev(c, q).hex() == (1.0 - q**2).hex()
                    seen["1 - q^2"] += 1
        assert seen == {"q^2": 6, "1 - q^2": 3}

        for alpha, beta in itertools.product(range(1, n + 1), repeat=2):
            (side,) = _recorded_sides(monkeypatch, lambda: shilov_eval(g, alpha, beta))
            want = (q ** (2 * n - alpha - beta)).hex()
            assert [ev(c, q).hex() for c, _ in side[:n]] == [want] * n
            assert side[n:] == ([(relations._lp((0, -1)), ())] if alpha == beta else [])

    @pytest.mark.parametrize("n,N", [(2, 6), (3, 5)])
    def test_damaged_generator_fails_exactly_its_a_m_families(self, n, N):
        # term 0 of z_1^n scaled by 1 + 1e-6: the families that multiply
        # z_1^n by A_1, and the cleared commutator form of A_1, must fail;
        # the other A_m never contain z_1^n
        g = fock_rep(n, Q, N)
        first = g.gen(1, n)
        scalars = first.scalars.copy()
        scalars[0] = complex(scalars[0]) * (1.0 + 1e-6)
        table = [[g.gen(k, j) for j in range(1, n + 1)] for k in range(1, n + 1)]
        table[0][n - 1] = TensorOperator.from_ids(first.f, N, scalars, first.ids)
        damaged = GeneratorImages(
            n, Q, N, tuple(map(tuple, table)), provenance="damaged"
        )
        reports = a_m_checks(damaged)
        failed = {r.indices: r.residual for r in reports if not r.residual < 1e-10}
        assert set(failed) == {(1, 1, 1), (1, 0, 2)}
        # (1 - q^2) times the 2.000001000146412e-06 of the uncleared form
        assert failed[(1, 0, 2)] == pytest.approx(
            (1 - Q**2) * 2.000001000146412e-06, rel=1e-9
        )


def _group(family):
    if family.startswith("zaa4"):
        return "exchange"
    return "A_m" if family == "A_m-comm" else "holomorphic"


class TestRelationInstances:
    """``relations.instances`` lists every relation instance once, and the
    checkers report them in its order."""

    TOTALS = {3: 165, 4: 516, 5: 1255, 6: 2598, 7: 4809, 8: 8200}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_family_counts_follow_the_closed_forms(self, n):
        instances = list(relations.instances(n))
        counts = collections.Counter(_group(family) for family, *_ in instances)
        assert counts["holomorphic"] == 2 * (n * n * (n - 1) + 2 * math.comb(n, 2) ** 2)
        assert counts["exchange"] == n**4
        assert counts["A_m"] == n * (n + 1)
        assert len({(family, indices) for family, indices, *_ in instances}) == len(instances)
        if n in self.TOTALS:
            assert len(instances) == self.TOTALS[n]

    # sha256 of repr([(relation, indices, depth), ...]) over the reports of
    # verify_relations followed by those of a_m_checks (run where N >= 4),
    # written by commit 5545b87, before the instances were enumerated in
    # one place: a change that moves, renames or drops one report fails here
    @pytest.mark.parametrize(
        "n, N, count, digest",
        [
            (2, 4, 50, "2b903f3e50779fc04db3848d74f950f7d05c7b087040b792da2eb79640507605"),
            (3, 5, 246, "4d7759c92c19ac89597db1d75e584c8c43ba9079841ad5e236fc199980593a67"),
            (4, 4, 772, "7b3ad7fd491e8d04b88ef780ddd631fb9bb464353d4416764685238dc4cdcdbe"),
            (5, 3, 1850, "c5a84cf4e6c9add688aa2023f6ceae70ea0bdfe4a341588f1eb0247f49f2e060"),
            (6, 3, 3852, "2cb767e56795358885ea36176945d9d3fec95c310e30363b3765cd73cd0c99d3"),
        ],
    )
    def test_report_order_is_pinned(self, n, N, count, digest):
        g = fock_rep(n, Q, N)
        reports = verify_relations(g) + (a_m_checks(g) if N >= 4 else [])
        order = [(r.relation, r.indices, r.depth) for r in reports]
        assert len(order) == count
        assert hashlib.sha256(repr(order).encode()).hexdigest() == digest


class TestResidualBits:
    # sha256 of " ".join(float.hex) over the residuals of verify_relations
    # followed by those of a_m_checks, written by commit bf8e2c1, before the
    # window residual added its terms row by row in larger chunks: a change
    # of the residual kernel that moves one bit of one report fails here.
    # Fock scalars and amplitudes are real, so fused multiply-adds in numpy's
    # complex loop cannot move these bits.
    # Re-derived when the per-case zaa44 table was written in word order:
    # from the reports of commit 3db3d2c, with every zaa44 residual
    # replaced by that of the R-form report that follows it, so that only
    # the zaa44 reports moved, each to its R-form twin's value.
    @pytest.mark.parametrize(
        "N, digest",
        [
            (5, "8ab16c1887cb65369afc8e4a194366a9e1ec8554a831edea0eef5997127653c0"),
            (6, "0d8f93423a3cf29b4101b3ae8064ee8a2919d662b19da6d00e7f07e682183ab0"),
        ],
    )
    def test_report_bits_are_pinned(self, monkeypatch, N, digest):
        calls = {"residual": 0, "scatter": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(
            matrixball, "residual_on_window", counted("residual", residual_on_window)
        )
        monkeypatch.setattr(
            qoperator, "_scatter_by_class", counted("scatter", qoperator._scatter_by_class)
        )
        g = fock_rep(3, Q, N)
        reports = verify_relations(g) + a_m_checks(g)
        assert len(reports) == 246
        # both paths of the window residual run: some calls scatter, the
        # others sum class by class
        assert 0 < calls["scatter"] < calls["residual"]
        assert report_digest(reports) == digest

    # written by commit 0b54b72, before the window residual skipped the
    # shift classes that cancel exactly.  At q = 0.7 scaling by q rounds, so
    # 209 of the 662 classes of the (3, 5) residuals sum to zero, against
    # 485 at q = 0.5; (3, 7) is the largest routine size at n = 3.
    # Re-derived when the per-case zaa44 table was written in word order:
    # from the reports of commit 3db3d2c, with every zaa44 residual
    # replaced by that of the R-form report that follows it, so that only
    # the zaa44 reports moved, each to its R-form twin's value.
    @pytest.mark.parametrize(
        "q, N, digest",
        [
            (0.7, 5, "c3ee7985cd696c002911257643dcb9308de0b1b4f162d94bcda885eb22e6879a"),
            pytest.param(
                Q,
                7,
                "b69ec6336edb616be5a9059fa2705cca3953c21a9547c100c2670d277b617711",
                marks=pytest.mark.slow,
            ),
        ],
    )
    def test_more_fock3_report_bits_are_pinned(self, q, N, digest):
        g = fock_rep(3, q, N)
        reports = verify_relations(g) + a_m_checks(g)
        assert len(reports) == 246
        assert report_digest(reports) == digest

    # written by commit 2c1b23f, before relation sides were built in one
    # pass and small scalar arrays multiplied as Python complex numbers
    def test_fock4_report_bits_are_pinned(self):
        # the window of depth 2 at N = 3 is the vacuum, and that of the
        # A_m families is empty, so only verify_relations runs
        reports = verify_relations(fock_rep(4, Q, 3))
        assert len(reports) == 752
        digest = "55d41f6bf8d6746599b076010d225402c98e6f7f013a12d755f9bcaa349f56a3"
        assert report_digest(reports) == digest

    @pytest.mark.slow
    def test_fock4_trunc4_report_bits_are_pinned(self):
        # the reports of verify --fock 4 --trunc 4, whose relation windows
        # hold 2^16 vectors and whose A_m windows hold one.  Re-derived when
        # the per-case zaa44 table was written in word order: from the
        # reports of commit 3db3d2c, with every zaa44 residual replaced by
        # that of the R-form report that follows it
        g = fock_rep(4, Q, 4)
        reports = verify_relations(g) + a_m_checks(g)
        assert len(reports) == 772
        digest = "d81ab0c7f5a07278c8d44656af60088f405c0a8039656ae889ba9ab4fb653f81"
        assert report_digest(reports) == digest


def report_digest(reports) -> str:
    """sha256 of the residuals' ``float.hex``, joined by spaces."""
    return hashlib.sha256(" ".join(r.residual.hex() for r in reports).encode()).hexdigest()


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
        from qmatball.permgroup import compose

        for n, trunc in [(1, 6), (2, 5), (3, 4)]:
            for ks in enumerate_admissible(n):
                s = random_phases_for(ks, rng)
                g = rep_from_string(s, Q, trunc)
                assert g.f == sum(ks) == compose(ks).length()

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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: fock_rep(2, Q, 4).gen(3, 1), "generator index \\(3, 1\\) outside 1..2"),
        (lambda: shilov_eval(fock_rep(2, Q, 4), 0, 1), "indices \\(0, 1\\) outside 1..2"),
        (lambda: MonomialExponent(((1, 0), (0,))), "exponent matrix must be square"),
        (lambda: MonomialExponent(((-1,),)), "exponents must be nonnegative"),
        (lambda: z_monomial(fock_rep(2, Q, 4), MonomialExponent(((1,),))),
         "exponent matrix is 1 x 1, representation has n=2"),
        (lambda: coherent_check(Q, 4, None), "phase must be a number, got None"),
        (lambda: coherent_check(Q, 4, "0.5"), "phase must be a number, got '0.5'"),
        # a negative power of q past the float range
        (lambda: fock_rep(3, 1e-200, 4), "q = 1e-200 is too small: \\(-q\\)\\^-2 overflows"),
        (lambda: relations._lp_eval(relations._CORNER, 1e-160), "q = 1e-160 is too small"),
    ],
)
def test_bad_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
