import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmatball import permgroup
from qmatball.permgroup import (
    AdmissibleString,
    CosetFactorization,
    Permutation,
    ReducedWord,
    admissible_bound,
    boundary_set,
    compose,
    cycle_c,
    decompose,
    enumerate_admissible,
    gf_counts,
    is_admissible,
    iter_admissible,
    l_exponent,
    minimal_coset_rep,
    reduced_word,
    twist_phases,
)

from conftest import brute_force_orbit

perm_strategy = st.integers(2, 6).flatmap(
    lambda m: st.permutations(list(range(1, m + 1))).map(
        lambda images: Permutation(m, tuple(images))
    )
)


def all_perms(m):
    return [Permutation(m, images) for images in itertools.permutations(range(1, m + 1))]


class TestLength:
    def test_identity(self):
        assert Permutation.identity(4).length() == 0

    def test_single_transposition(self):
        assert Permutation(2, (2, 1)).length() == 1

    def test_block_swap(self):
        # oracle: straight double loop over index pairs
        sigma = Permutation(4, (3, 4, 1, 2))
        inversions = sum(
            1
            for i in range(1, 5)
            for j in range(i + 1, 5)
            if sigma(j) < sigma(i)
        )
        assert inversions == 4
        assert sigma.length() == 4


class TestReducedWord:
    def test_identity(self):
        assert reduced_word(Permutation.identity(3)).letters == ()

    def test_s1(self):
        assert reduced_word(Permutation(2, (2, 1))).letters == (1,)

    def test_block_swap_evaluates(self):
        sigma = Permutation(4, (3, 4, 1, 2))
        word = reduced_word(sigma)
        assert len(word) == 4
        assert word.evaluate() == sigma

    @pytest.mark.parametrize("m", range(1, 7))
    def test_exhaustive_reducedness(self, m):
        for sigma in all_perms(m):
            word = reduced_word(sigma)
            assert len(word) == sigma.length()
            assert word.evaluate() == sigma

    def test_non_reduced_word_rejected(self):
        with pytest.raises(ValueError):
            ReducedWord(3, (1, 1))

    def test_letters_are_not_truncated(self):
        # int() would read (1.9, 2.2) as the reduced word (1, 2)
        with pytest.raises(ValueError, match="letter must be an integer"):
            ReducedWord(3, (1.9, 2.2))
        assert ReducedWord(3, (True, np.int64(2))).letters == (1, 2)


class TestGroupBasics:
    @given(perm_strategy)
    def test_inverse_involutive(self, sigma):
        assert sigma.inverse().inverse() == sigma
        assert (sigma * sigma.inverse()).is_identity()

    @given(perm_strategy, st.data())
    def test_length_subadditive(self, sigma, data):
        tau_images = data.draw(st.permutations(list(range(1, sigma.m + 1))))
        tau = Permutation(sigma.m, tuple(tau_images))
        assert (sigma * tau).length() <= sigma.length() + tau.length()
        assert sigma.inverse().length() == sigma.length()


class TestCycles:
    def test_zero_is_identity(self):
        assert cycle_c(0, 1, 2).is_identity()

    def test_explicit_product(self):
        assert cycle_c(2, 2, 2).images == (1, 3, 4, 2)

    def test_length_is_k(self):
        for n in range(1, 5):
            for j in range(1, n + 1):
                for k in range(n + 1):
                    assert cycle_c(k, j, n).length() == k

    def test_range_errors(self):
        with pytest.raises(ValueError):
            cycle_c(3, 1, 2)
        with pytest.raises(ValueError):
            cycle_c(1, 0, 2)


class TestAdmissibility:
    def test_listed_examples(self):
        assert is_admissible([2, 2])
        assert not is_admissible([0, 2])
        assert admissible_bound([0, 2], 1) == 1
        assert is_admissible([0]) and is_admissible([1])

    def test_entries_are_not_truncated(self):
        with pytest.raises(ValueError, match="k must be an integer"):
            is_admissible([0.5, 1.7])
        assert is_admissible([np.int64(2), True])

    def test_entries_never_exceed_n(self):
        for n in range(1, 5):
            for ks in enumerate_admissible(n):
                assert all(k <= n for k in ks)

    def test_iterator_yields_the_enumeration_in_order(self):
        counts = gf_counts(6)
        for n in range(7):
            strings = iter_admissible(n)
            assert iter(strings) is strings
            strings = list(strings)
            assert strings == enumerate_admissible(n)
            assert len(strings) == counts[n]
            # strictly increasing, so lexicographic and without repeats
            assert all(x < y for x, y in zip(strings, strings[1:]))
            if n <= 4:
                grid = itertools.product(range(n + 1), repeat=n)
                assert strings == [ks for ks in grid if is_admissible(ks)]

    def test_negative_n_is_refused(self):
        with pytest.raises(ValueError, match="nonnegative"):
            enumerate_admissible(-1)
        with pytest.raises(ValueError, match="nonnegative"):
            next(iter_admissible(-1))


class TestComposeDecompose:
    def test_compose_entries_are_not_truncated(self):
        with pytest.raises(ValueError, match="k must be an integer"):
            compose([1.0, 0])
        assert compose([np.int64(2), True]) == compose([2, 1])

    def test_compose_trivial(self):
        assert compose([0, 0]).is_identity()

    def test_compose_block_swap(self):
        assert compose([2, 2]).images == (3, 4, 1, 2)

    def test_length_additive_n_le_4(self):
        for n in range(1, 5):
            for ks in enumerate_admissible(n):
                assert compose(ks).length() == sum(ks)

    def test_decompose_examples(self):
        assert decompose(Permutation.identity(4)) == [0, 0]
        assert decompose(Permutation(4, (3, 4, 1, 2))) == [2, 2]

    def test_round_trip_n_le_3(self):
        for n in range(1, 4):
            for ks in enumerate_admissible(n):
                assert decompose(compose(ks)) == list(ks)

    def test_decompose_rejects_non_minimal(self):
        sigma = Permutation(4, (2, 1, 3, 4))  # inside the subgroup, not minimal
        with pytest.raises(ValueError):
            decompose(sigma)

    def test_compose_image_is_exactly_the_minimizers(self):
        # bijectivity: images of compose = set of orbit minimizers, injectively
        for n in range(1, 4):
            images = {compose(ks) for ks in enumerate_admissible(n)}
            assert len(images) == len(enumerate_admissible(n))
            minimizers = set()
            seen = set()
            for sigma in all_perms(2 * n):
                if sigma in seen:
                    continue
                orbit = brute_force_orbit(sigma)
                seen.update(orbit)
                best = min(p.length() for p in orbit)
                minimizers.update(p for p in set(orbit) if p.length() == best)
            assert images == minimizers


class TestMinimalCosetRep:
    def test_identity(self):
        fact = minimal_coset_rep(Permutation.identity(4))
        assert fact.w.is_identity() and fact.g.is_identity() and fact.h.is_identity()

    def test_subgroup_elements_minimize_to_identity(self):
        for images in itertools.permutations((1, 2)):
            sigma = Permutation(4, tuple(images) + (3, 4))
            assert minimal_coset_rep(sigma).w.is_identity()

    @pytest.mark.parametrize("n", [1, 2])
    def test_oracle_equivalence(self, n):
        for sigma in all_perms(2 * n):
            fact = minimal_coset_rep(sigma)
            assert fact.h * fact.w * fact.g == sigma
            assert sigma.length() == fact.w.length() + fact.g.length() + fact.h.length()
            orbit = brute_force_orbit(sigma)
            best = min(p.length() for p in orbit)
            assert fact.w.length() == best
            assert {p for p in orbit if p.length() == best} == {fact.w}


class TestBoundarySet:
    def test_examples(self):
        assert boundary_set([2, 2]) == {1, 2}
        assert boundary_set([1, 2, 1]) == {2}
        assert boundary_set([0, 0]) == set()

    def test_entries_are_not_truncated(self):
        with pytest.raises(ValueError, match="k must be an integer"):
            boundary_set([2.5, 2])
        assert boundary_set([np.int64(2), True]) == boundary_set([2, 1])

    def test_matches_window_of_composed_permutation(self):
        for n in range(1, 5):
            for ks in enumerate_admissible(n):
                w = compose(ks)
                via_w = {j for j in range(1, n + 1) if 1 <= w(n + j) <= n}
                assert boundary_set(ks) == via_w


class TestCounting:
    def test_gf_values(self):
        assert gf_counts(5) == [1, 2, 7, 34, 209, 1546]

    def test_gf_recurrence(self):
        # A002720: a(n) = 2n a(n-1) - (n-1)^2 a(n-2)
        a = gf_counts(30)
        for n in range(2, 31):
            assert a[n] == 2 * n * a[n - 1] - (n - 1) ** 2 * a[n - 2]

    def test_enumeration_matches_gf(self):
        counts = gf_counts(5)
        for n in range(6):
            assert len(enumerate_admissible(n)) == counts[n]

    def test_seven_families_at_n2(self):
        # the seven classified families, here as bare (k_2, k_1) strings
        assert enumerate_admissible(2) == [
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
            (2, 0),
            (2, 1),
            (2, 2),
        ]

    def test_lexicographic_order(self):
        strings = enumerate_admissible(3)
        assert strings == sorted(strings)


class TestPhases:
    def test_identity_twist(self):
        phases = [0.5, 1.5, 2 * math.pi - 2.0]
        assert twist_phases(Permutation.identity(3), phases) == phases

    def test_swap(self):
        out = twist_phases(Permutation(2, (2, 1)), [1.0, 2 * math.pi - 1.0])
        assert out == [2 * math.pi - 1.0, 1.0]

    def test_sum_violation(self):
        with pytest.raises(ValueError):
            twist_phases(Permutation.identity(2), [0.1, 0.3])


class TestLExponent:
    def test_identity(self):
        for j in range(1, 5):
            assert l_exponent(Permutation.identity(4), j) == 0

    def test_block_swap(self):
        assert l_exponent(Permutation(4, (3, 4, 1, 2)), 3) == 2

    def test_sums_to_length_over_s4(self):
        for sigma in all_perms(4):
            assert sum(l_exponent(sigma, j) for j in range(1, 5)) == sigma.length()


class TestAdmissibleString:
    def test_boundary_rows_must_have_zero_phase(self):
        with pytest.raises(ValueError):
            AdmissibleString(2, (2, 2), (0.3, 0.0))

    def test_json_round_trip(self):
        s = AdmissibleString(3, (1, 2, 1), (0.25, 0.0, 1.5))
        assert AdmissibleString.from_json(s.to_json()) == s

    def test_pair_order_top_row_first(self):
        s = AdmissibleString(2, (2, 1), (0.0, 0.125))
        assert s.to_json() == {"n": 2, "pairs": [[2, 0.0], [1, 0.125]]}

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError):
            AdmissibleString(2, (0, 2), (0.0, 0.0))


def _decompose_unchecked(images):
    """``decompose`` without its minimality check: a minimal permutation
    always decomposes, so only this reaches its two failures."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(permgroup, "minimal_coset_rep", lambda w: CosetFactorization(w, w, w))
        return decompose(Permutation(len(images), images))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Permutation(3, (1, 2)), "expected 3 images, got 2"),
        (lambda: Permutation(4.0, (1, 2, 3, 4)), "m must be an integer, got 4.0"),
        (lambda: Permutation.transposition(3, 3), "s_3 does not exist in S_3"),
        (lambda: Permutation.identity(3)(4), "argument 4 outside 1..3"),
        (lambda: Permutation.identity(2) * Permutation.identity(3),
         "cannot compose S_2 with S_3"),
        (lambda: Permutation.from_json({"m": 2, "images": [True, 2]}),
         "image must be a number, got true"),
        (lambda: Permutation.from_json({"m": True, "images": [1]}),
         "m must be a number, got true"),
        (lambda: ReducedWord(3, (3,)), "letter s_3 outside S_3"),
        (lambda: ReducedWord(3.0, (1,)), "m must be an integer, got 3.0"),
        (lambda: admissible_bound([0, 0], 3), "row index j=3 outside 1..2"),
        (lambda: compose([0, 2]), "inadmissible string \\[0, 2\\]"),
        (lambda: boundary_set([0, 2]), "inadmissible string \\[0, 2\\]"),
        (lambda: decompose(Permutation.identity(3)), "expected an element of S_"),
        (lambda: minimal_coset_rep(Permutation.identity(3)), "expected an element of S_"),
        (lambda: _decompose_unchecked((2, 3, 4, 1)), "row 2 gives k=3"),
        (lambda: _decompose_unchecked((2, 1, 3, 4)), "nontrivial remainder"),
        (lambda: gf_counts(-1), "n_max must be nonnegative"),
        (lambda: twist_phases(Permutation.identity(2), [0.0]), "expected 2 phases, got 1"),
        (lambda: twist_phases(Permutation.identity(1), ["0"]),
         "phase must be a number, got '0'"),
        (lambda: l_exponent(Permutation.identity(2), 3), "index 3 outside 1..2"),
        (lambda: AdmissibleString(2, (0,), (0.0, 0.0)), "expected 2 pairs, got 1/2"),
        (lambda: AdmissibleString(3, (0,)), "expected 3 pairs, got 1/1"),
        (lambda: AdmissibleString(2.0, (0, 0)), "n must be an integer, got 2.0"),
        (lambda: AdmissibleString(1, (0,), (7.0,)), "phase at row 1 outside"),
        (lambda: AdmissibleString(1, (0,), ("0.5",)), "phase must be a number, got '0.5'"),
        (lambda: AdmissibleString.from_json({"n": 2, "pairs": [[0, 0.0]]}),
         "expected 2 pairs, got 1/1"),
        (lambda: AdmissibleString.from_json({"n": 1, "pairs": [[0, -1.0]]}),
         "phase at row 1 outside"),
    ],
)
def test_bad_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@settings(max_examples=40)
@given(st.integers(1, 4), st.data())
def test_hypothesis_round_trip_random_admissible(n, data):
    ks = []
    for j in range(n, 0, -1):
        bound = admissible_bound(ks + [0] * j, j)  # only entries above row j are read
        ks.append(data.draw(st.integers(0, bound)))
    assert is_admissible(ks)
    assert decompose(compose(ks)) == ks


@pytest.mark.slow
def test_coset_oracle_n4_opt_in():
    # the complete S_8 check: every element against the brute-force orbit
    # minimizer; orbits partition the group, so each is enumerated once
    from conftest import brute_force_orbit

    minimizer_of = {}
    orbits = 0
    for images in itertools.permutations(range(1, 9)):
        sigma = Permutation(8, images)
        fact = minimal_coset_rep(sigma)
        assert sigma.length() == fact.w.length() + fact.g.length() + fact.h.length()
        assert fact.h * fact.w * fact.g == sigma
        if images not in minimizer_of:
            orbit = brute_force_orbit(sigma)
            best = min(p.length() for p in orbit)
            winners = {p for p in orbit if p.length() == best}
            assert len(winners) == 1
            winner = next(iter(winners))
            for p in orbit:
                minimizer_of[p.images] = winner
            orbits += 1
        assert fact.w == minimizer_of[images]
    assert orbits == len(enumerate_admissible(4)) == 209
