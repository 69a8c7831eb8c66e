import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmatball import matrixball
from qmatball.permgroup import (
    Permutation,
    ReducedWord,
    enumerate_admissible,
    l_exponent,
    reduced_word,
)
from qmatball.qgrouprep import (
    FactorEvaluation,
    SoibelmanRep,
    _tags_value,
    apply_tau,
    evaluate_terms,
    rep_generator,
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

from conftest import all_reduced_words, factor_product, random_phases_for

Q, N = 0.5, 5


def all_perms(m):
    return [Permutation(m, images) for images in itertools.permutations(range(1, m + 1))]


def apply_tau_loop(op, ev):
    """The per-term loop that ``evaluate_terms`` replaced, kept as the
    reference for its bits: each term's scalar is multiplied, as a Python
    complex, by the character value of each assigned factor in assignment
    order, and the term is dropped at its first zero."""
    table = dict(ev.assignments)
    keep = [axis for axis in range(op.f) if (axis + 1) not in table]
    values = {}
    scalars = []
    rows = []
    for scalar, row in zip(op.scalars.tolist(), op.ids.tolist()):
        for index, phi in table.items():
            tid = row[index - 1]
            if (index, tid) not in values:
                values[(index, tid)] = _tags_value(FACTORS.tags[tid], phi)
            scalar *= values[(index, tid)]
            if scalar == 0:
                break
        if scalar == 0:
            continue
        scalars.append(scalar)
        rows.append([row[a] for a in keep])
    return TensorOperator.from_ids(len(keep), op.dim, scalars, rows)


def assert_same_bits(got, want):
    assert (got.f, got.dim) == (want.f, want.dim)
    assert got.ids.shape == want.ids.shape
    assert got.ids.tobytes() == want.ids.tobytes()
    assert got.scalars.tobytes() == want.scalars.tobytes()


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
                            lhs = t(alpha, a) * t(beta, b)
                            rhs = t(beta, b) * t(alpha, a) + (
                                t(beta, a) * t(alpha, b)
                            ).scale(Q - 1.0 / Q)
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
        assert _tags_value(t_block(1, 1, Q, N).provenance, 0.4) == pytest.approx(
            cmath.exp(-0.4j)
        )
        assert _tags_value(t_block(2, 2, Q, N).provenance, 0.4) == pytest.approx(
            cmath.exp(0.4j)
        )
        assert _tags_value((), 1.0) == 1.0

    def test_product_provenance_multiplies(self):
        F = factor_product(t_block(1, 1, Q, N), t_block(2, 2, Q, N))
        assert _tags_value(F.provenance, 0.9) == pytest.approx(1.0)

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


class TestEvaluateTerms:
    """``evaluate_terms`` against the per-term loop: equal factor counts,
    ids bytes and scalars bytes."""

    @pytest.mark.parametrize("trunc", [3, 4])
    def test_string_representations_of_n4_match_the_loop(self, rng, trunc):
        strings = [random_phases_for(ks, rng) for ks in enumerate_admissible(4)]
        assert len(strings) == 209
        base = matrixball.fock_rep(4, Q, trunc)
        for s in strings:
            g = matrixball.rep_from_string(s, Q, trunc)
            ev = matrixball._string_evaluation(s)
            for k in range(1, 5):
                for j in range(1, 5):
                    assert_same_bits(g.gen(k, j), apply_tau_loop(base.gen(k, j), ev))

    def test_stacked_terms_keep_their_indices(self):
        rep = SoibelmanRep(reduced_word(Permutation(3, (3, 2, 1))), Q, N, (0.3, 1.0, 2.0))
        ops = [rep_generator(rep, k, l) for k in (1, 2, 3) for l in (1, 2, 3)]
        ev = FactorEvaluation(((2, 0.7),))
        ids = np.concatenate([op.ids for op in ops])
        scalars, kept, keep = evaluate_terms(
            np.concatenate([op.scalars for op in ops]), ids, ev
        )
        assert keep == [0, 2] and 0 < kept.size < ids.shape[0]
        offsets = np.cumsum([0] + [op.scalars.size for op in ops])
        cuts = np.searchsorted(kept, offsets)
        for op, a, b in zip(ops, cuts, cuts[1:]):
            want = apply_tau_loop(op, ev)
            assert scalars[a:b].tobytes() == want.scalars.tobytes()
            assert ids[kept[a:b]][:, keep].tobytes() == want.ids.tobytes()

    def test_unevaluable_factor_raises_even_on_a_zeroed_term(self):
        # the loop stopped at the straight arrow's zero and never read the
        # untagged factor after it; the table reads every assigned factor
        raw = FACTORS.intern(FactorMatrix(0, np.ones(N)))
        arrow = FACTORS.intern(t_block(1, 2, Q, N))
        op = TensorOperator.from_ids(2, N, [1.0], [[arrow, raw]])
        ev = FactorEvaluation(((1, 0.3), (2, 0.0)))
        assert apply_tau_loop(op, ev).is_zero()
        with pytest.raises(ValueError, match="primitive set"):
            apply_tau(op, ev)

    def test_assignment_beyond_the_factors_rejected(self):
        op = TensorOperator.identity(2, N)
        with pytest.raises(ValueError, match="exceeds factor count 2"):
            apply_tau(op, FactorEvaluation(((3, 0.0),)))


_PHASES = st.sampled_from([0.0, -0.0, math.pi]) | st.floats(-10.0, 10.0)
_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e-320]
_PARTS = st.sampled_from(_SPECIAL) | st.floats(-1e3, 1e3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hypothesis_word_representations_match_the_loop(data):
    m = data.draw(st.integers(1, 4))
    sigma = Permutation(m, tuple(data.draw(st.permutations(range(1, m + 1)))))
    phases = data.draw(st.none() | st.lists(_PHASES, min_size=m, max_size=m))
    rep = SoibelmanRep(reduced_word(sigma), Q, 3, phases)
    axes = data.draw(st.permutations(range(1, rep.f + 1)))
    axes = axes[: data.draw(st.integers(0, rep.f))]
    ev = FactorEvaluation(tuple((axis, data.draw(_PHASES)) for axis in axes))
    for k in range(1, m + 1):
        for l in range(1, m + 1):
            op = rep_generator(rep, k, l)
            if data.draw(st.booleans()):
                size = op.scalars.size
                parts = st.tuples(_PARTS, _PARTS).map(lambda p: complex(*p))
                drawn = data.draw(st.lists(parts, min_size=size, max_size=size))
                op = TensorOperator.from_ids(op.f, op.dim, drawn, op.ids)
            assert_same_bits(apply_tau(op, ev), apply_tau_loop(op, ev))


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SoibelmanRep(ReducedWord(3, (1,)), Q, N, (0.0,)), "expected 3 phases, got 1"),
        (lambda: SoibelmanRep(ReducedWord(2, (1,)), Q, N, (0.0, None)),
         "phase must be a number, got None"),
        (lambda: rep_generator(SoibelmanRep(ReducedWord(3, (1,)), Q, N), 4, 1),
         "matrix entry \\(4, 1\\) outside 1..3"),
        (lambda: FactorEvaluation(((0, 0.0),)), "factor indices are 1-based"),
        (lambda: FactorEvaluation(((1, None),)), "phase must be a number, got None"),
        (lambda: _tags_value(FactorMatrix(0, [1.0] * N, ("X",)).provenance, 0.3),
         "factor tag 'X' has no scalar evaluation"),
        (lambda: twist_check(Permutation(2, (2, 1)), ["0.5", "-0.5"]),
         "phase must be a number, got '0.5'"),
    ],
)
def test_bad_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
