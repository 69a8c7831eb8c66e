import cmath
import itertools
import math

import numpy as np
import pytest

from qmatball.permgroup import (
    Permutation,
    ReducedWord,
    l_exponent,
    reduced_word,
)
from qmatball.qgrouprep import (
    FactorEvaluation,
    SoibelmanRep,
    apply_tau,
    pi_elementary,
    rep_generator,
    tau_factor_value,
    twist_check,
)
from qmatball.qoperator import (
    FACTORS,
    FactorMatrix,
    TensorOperator,
    residual_on_window,
    t_block,
    vacuum_matrix_element,
)

from conftest import all_reduced_words

Q, N = 0.5, 5


def all_perms(m):
    return [Permutation(m, images) for images in itertools.permutations(range(1, m + 1))]


class TestElementary:
    def test_inside_block(self):
        F = pi_elementary(1, 3, Q, N, 1, 2)
        assert F.provenance == ("T12",)
        assert np.allclose(F.entries, t_block(1, 2, Q, N).entries)

    def test_off_block_zero(self):
        assert pi_elementary(1, 3, Q, N, 1, 3) == 0.0

    def test_off_block_identity(self):
        assert pi_elementary(1, 3, Q, N, 3, 3) == 1.0

    def test_index_errors(self):
        with pytest.raises(ValueError):
            pi_elementary(3, 3, Q, N, 1, 1)
        with pytest.raises(ValueError):
            pi_elementary(1, 3, Q, N, 0, 1)


class TestSoibelmanRep:
    def test_size_is_the_words(self):
        rep = SoibelmanRep(ReducedWord(4, (1, 2)), Q, N)
        assert (rep.m, rep.f) == (4, 2)

    @pytest.mark.parametrize(
        "q, trunc", [(1.5, N), (0.0, N), (Q, 1), (Q, 3.5), (Q, 4.0), (Q, "4")]
    )
    def test_checks_q_and_N_as_the_factor_builders_do(self, q, trunc):
        with pytest.raises(ValueError):
            SoibelmanRep(ReducedWord(3, (1,)), q, trunc)

    def test_stores_the_checked_values(self):
        rep = SoibelmanRep(ReducedWord(3, (1,)), np.float64(Q), np.int64(4))
        assert type(rep.q) is float and type(rep.N) is int and rep.N == 4


class TestRepGenerator:
    def test_empty_word_is_counit(self):
        rep = SoibelmanRep(ReducedWord(3, ()), Q, N)
        for k in range(1, 4):
            for l in range(1, 4):
                op = rep_generator(rep, k, l)
                if k == l:
                    assert len(op.terms) == 1 and op.terms[0].scalar == 1.0
                    assert all(F is None for F in op.terms[0].factors)
                else:
                    assert len(op.terms) == 0

    def test_cycle_band_sparsity(self):
        # increasing-run word in an 8-point group: at most one term survives
        # the coproduct sum, and entries two or more steps below the diagonal
        # die out entirely
        rep = SoibelmanRep(ReducedWord(8, (6, 7)), Q, N)
        for k in range(1, 9):
            for l in range(1, 9):
                op = rep_generator(rep, k, l)
                assert len(op.terms) <= 1
                if k - l >= 2:
                    assert len(op.terms) == 0

    def test_vacuum_formula_s3_exhaustive(self):
        phases = (0.3, 0.9, -1.2 + 2 * math.pi)
        for sigma in all_perms(3):
            rep = SoibelmanRep(reduced_word(sigma), Q, N, phases=phases)
            for i in range(1, 4):
                for j in range(1, 4):
                    got = vacuum_matrix_element(rep_generator(rep, i, j))
                    want = (
                        cmath.exp(1j * phases[j - 1])
                        * (-Q) ** l_exponent(sigma, j)
                        * (1.0 if i == sigma(j) else 0.0)
                    )
                    assert abs(got - want) < 1e-13

    def test_reduced_word_independence_at_vacuum(self):
        sigma = Permutation(4, (3, 4, 1, 2))
        words = all_reduced_words(sigma)
        assert len(words) >= 2
        for letters in words[:3]:
            rep = SoibelmanRep(ReducedWord(4, letters), Q, N)
            for i in range(1, 5):
                for j in range(1, 5):
                    got = vacuum_matrix_element(rep_generator(rep, i, j))
                    want = (-Q) ** l_exponent(sigma, j) * (1.0 if i == sigma(j) else 0.0)
                    assert abs(got - want) < 1e-13

    def test_band_term_count_is_path_count(self):
        # binomial bound: entry (n+k, n+j) of the block-swap word has
        # binomial(2n-k-j, n-k) coproduct paths
        from qmatball.matrixball import fock_word

        n = 3
        rep = SoibelmanRep(fock_word(n), Q, N)
        for k in range(1, n + 1):
            for j in range(1, n + 1):
                op = rep_generator(rep, n + k, n + j)
                assert len(op.terms) == math.comb(2 * n - k - j, n - k)


class TestHomomorphismSpotChecks:
    @pytest.mark.parametrize(
        "sigma",
        [s for s in all_perms(4) if s.length() in (2, 3, 4)][::4],
    )
    def test_defining_relations_vanish(self, sigma):
        rep = SoibelmanRep(reduced_word(sigma), Q, N)
        m = 4

        def t(row, col):
            return rep_generator(rep, row, col)

        for a in range(1, m + 1):
            for b in range(1, m + 1):
                for alpha in range(1, m + 1):
                    for beta in range(1, m + 1):
                        if (a == b and alpha < beta) or (a < b and alpha == beta):
                            lhs = t(alpha, a) * t(beta, b)
                            rhs = (t(beta, b) * t(alpha, a)).scale(Q)
                            assert residual_on_window(lhs, rhs, 2) < 1e-10
                        elif alpha < beta and a > b:
                            lhs = t(alpha, a) * t(beta, b)
                            rhs = t(beta, b) * t(alpha, a)
                            assert residual_on_window(lhs, rhs, 2) < 1e-10
                        elif alpha < beta and a < b:
                            lhs = t(alpha, a) * t(beta, b) - t(beta, b) * t(alpha, a)
                            rhs = (t(beta, a) * t(alpha, b)).scale(Q - 1.0 / Q)
                            assert residual_on_window(lhs, rhs, 2) < 1e-10


class TestApplyTau:
    def test_identity_factor_removed(self):
        op = TensorOperator.identity(3, N)
        out = apply_tau(op, FactorEvaluation(((2, 0.7),)))
        assert out.f == 2
        assert len(out.terms) == 1 and out.terms[0].scalar == 1.0

    def test_straight_arrow_dropped(self):
        op = TensorOperator.from_ids(1, N, [1.0], [[FACTORS.intern(t_block(1, 2, Q, N))]])
        out = apply_tau(op, FactorEvaluation(((1, 0.3),)))
        assert out.f == 0 and len(out.terms) == 0

    def test_hook_values(self):
        assert tau_factor_value(t_block(1, 1, Q, N), 0.4) == pytest.approx(
            cmath.exp(-0.4j)
        )
        assert tau_factor_value(t_block(2, 2, Q, N), 0.4) == pytest.approx(
            cmath.exp(0.4j)
        )
        assert tau_factor_value(None, 1.0) == 1.0

    def test_product_provenance_multiplies(self):
        F = t_block(1, 1, Q, N).matmul(t_block(2, 2, Q, N))
        assert tau_factor_value(F, 0.9) == pytest.approx(1.0)

    def test_untagged_factor_rejected(self):
        raw = FactorMatrix(0, np.ones(N))
        op = TensorOperator.from_ids(1, N, [1.0], [[FACTORS.intern(raw)]])
        with pytest.raises(ValueError):
            apply_tau(op, FactorEvaluation(((1, 0.0),)))

    def test_tau_zero_is_counit(self, rng):
        # evaluating every factor at phase 0 collapses any word
        # representation to the counit delta_{ij}
        for images in [(2, 3, 1, 4), (4, 3, 2, 1), (1, 3, 4, 2)]:
            sigma = Permutation(4, images)
            rep = SoibelmanRep(reduced_word(sigma), Q, N)
            ev = FactorEvaluation(tuple((p, 0.0) for p in range(1, rep.f + 1)))
            for i in range(1, 5):
                for j in range(1, 5):
                    out = apply_tau(rep_generator(rep, i, j), ev)
                    total = sum(t.scalar for t in out.terms)
                    assert abs(total - (1.0 if i == j else 0.0)) < 1e-13

    def test_double_assignment_rejected(self):
        with pytest.raises(ValueError):
            FactorEvaluation(((1, 0.0), (1, 0.5)))

    def test_factor_indices_are_not_truncated(self):
        # int() would keep index 1 for 1.9
        with pytest.raises(ValueError, match="factor index must be an integer"):
            FactorEvaluation(((1.9, 0.3),))
        pairs = FactorEvaluation(((True, 0.3), (np.int64(2), 0.0))).assignments
        assert pairs == ((1, 0.3), (2, 0.0))


class TestTwist:
    def test_identity(self):
        s = Permutation.identity(3)
        assert twist_check(s, [0.4, 1.0, 2 * math.pi - 1.4]) < 1e-12

    def test_transposition(self):
        s = Permutation(2, (2, 1))
        assert twist_check(s, [0.7, 2 * math.pi - 0.7]) < 1e-12

    def test_random_s4(self, rng):
        for _ in range(4):
            images = tuple(rng.permutation(4) + 1)
            s = Permutation(4, images)
            phases = rng.uniform(0, 2 * math.pi, size=3)
            phases = list(phases) + [float(-sum(phases) % (2 * math.pi))]
            assert twist_check(s, phases) < 1e-10
