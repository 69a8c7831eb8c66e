import gc
import itertools
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmatball import qoperator
from qmatball.qgrouprep import FactorEvaluation, _tags_value, apply_tau
from qmatball.qoperator import (
    FACTORS,
    FactorMatrix,
    FactorTable,
    TensorOperator,
    TensorTerm,
    c_q,
    d_q,
    is_exact_zero_on_vacuum,
    norm_bound,
    norm_estimate,
    operator_from_json,
    operator_products,
    operator_to_json,
    residual_on_window,
    shift,
    t_block,
    t_block_ids,
    vacuum_matrix_element,
)

from conftest import dense_matrix, factor_adjoint, factor_product, from_terms, vacuum

Q, N = 0.5, 6


def single(scalar, factors, dim=N):
    return from_terms(len(factors), dim, [TensorTerm(scalar, tuple(factors))])


def zero_like(op):
    return TensorOperator.zero(op.f, op.dim)


class TestPrimitives:
    def test_cq_kills_ground_state(self):
        assert np.all(c_q(Q, N).entries[:, 0] == 0)

    def test_dq_diagonal(self):
        assert np.allclose(np.diag(d_q(0.5, 4).entries), [1, 0.5, 0.25, 0.125])

    def test_shift_action(self):
        S = shift(4).entries
        assert np.all(S @ np.eye(4)[:, 0] == np.eye(4)[:, 1])
        assert np.all(S @ np.eye(4)[:, 3] == 0)

    def test_dq_equals_defect_sum(self):
        # entrywise identity D = sum_j q^j S^j (I - S S*) S*^j on the truncation
        S = shift(N).entries
        defect = np.eye(N) - S @ S.conj().T
        total = np.zeros((N, N), dtype=complex)
        power = np.eye(N)
        for j in range(N):
            total += Q**j * power @ defect @ power.conj().T
            power = S @ power
        assert np.array_equal(total, d_q(Q, N).entries)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            c_q(1.0, 4)
        with pytest.raises(ValueError):
            shift(1)

    @pytest.mark.parametrize("trunc", [3.5, 4.0, "4"])
    def test_truncation_level_must_be_an_integer(self, trunc):
        # the ids at N = 4 cached first must not answer for N = 4.0
        t_block_ids(Q, 4)
        builders = (
            shift,
            lambda N: c_q(Q, N),
            lambda N: d_q(Q, N),
            lambda N: t_block(1, 1, Q, N),
            lambda N: t_block_ids(Q, N),
        )
        for build in builders:
            with pytest.raises(ValueError, match="truncation level must be an integer"):
                build(trunc)


class TestTBlocks:
    def test_t22_on_ground_state(self):
        v = t_block(2, 2, Q, N).entries[:, 0]
        expected = np.zeros(N, dtype=complex)
        expected[1] = np.sqrt(1 - Q**2)
        assert np.allclose(v, expected)

    def test_t11_is_adjoint_of_t22(self):
        assert np.allclose(
            t_block(1, 1, Q, N).entries, factor_adjoint(t_block(2, 2, Q, N)).entries
        )

    def test_block_index_errors(self):
        with pytest.raises(ValueError):
            t_block(0, 1, Q, N)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("dim", [4, 6, 8])
    def test_fundamental_relations_on_window(self, q, dim):
        T = {
            (i, j): single(1.0, [t_block(i, j, q, dim)], dim)
            for i in (1, 2)
            for j in (1, 2)
        }
        I = TensorOperator.identity(1, dim)
        checks = [
            (T[(1, 1)], T[(2, 2)].adjoint()),
            # the quantum-determinant line: equals the identity, not zero
            (T[(1, 1)] * T[(2, 2)], T[(1, 2)] * T[(2, 1)].scale(q) + I),
            (T[(1, 2)] * T[(2, 1)], T[(2, 1)] * T[(1, 2)]),
            (T[(1, 1)] * T[(1, 2)], (T[(1, 2)] * T[(1, 1)]).scale(q)),
            (T[(1, 1)] * T[(2, 1)], (T[(2, 1)] * T[(1, 1)]).scale(q)),
            (
                T[(1, 1)] * T[(2, 2)],
                (T[(2, 2)] * T[(1, 1)]).scale(q**2) + I.scale(1 - q**2),
            ),
        ]
        for lhs, rhs in checks:
            assert residual_on_window(lhs, rhs, 2) < 1e-10

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
    def test_t21_is_square_root_of_defect(self, q):
        # both sides are diagonal, so compare entrywise on the full truncation
        t2211 = t_block(2, 2, q, N).entries @ t_block(1, 1, q, N).entries
        root = np.sqrt(np.eye(N) - t2211)
        assert np.allclose(root, t_block(2, 1, q, N).entries, atol=1e-14)


class TestApplyAndAlgebra:
    def test_identity_application(self, rng):
        v = rng.standard_normal((N, N)) + 0j
        out = TensorOperator.identity(2, N).apply(v)
        assert np.allclose(out, v)

    def test_single_term_action(self):
        op = single(1.0, [t_block(2, 2, Q, N), None])
        out = op.apply(vacuum(2, N))
        expected = np.zeros((N, N), dtype=complex)
        expected[1, 0] = np.sqrt(1 - Q**2)
        assert np.allclose(out, expected)

    def test_product_matches_composition_on_interior(self, rng):
        A = single(0.7 - 0.1j, [t_block(1, 1, Q, N), t_block(2, 1, Q, N)]) + single(
            1.3j, [None, t_block(2, 2, Q, N)]
        )
        B = single(0.2, [t_block(1, 2, Q, N), None]) + single(
            -1.0, [t_block(2, 2, Q, N), t_block(1, 1, Q, N)]
        )
        v = np.zeros((N, N), dtype=complex)
        v[: N - 2, : N - 2] = rng.standard_normal((N - 2, N - 2))
        lhs = (A * B).apply(v)
        rhs = A.apply(B.apply(v))
        assert np.allclose(lhs, rhs, atol=1e-12)

    @settings(max_examples=25)
    @given(st.integers(0, 10_000))
    def test_addition_is_pointwise(self, seed):
        rng = np.random.default_rng(seed)
        A = single(rng.standard_normal(), [t_block(1, 2, Q, N)], dim=N)
        B = single(rng.standard_normal() * 1j, [t_block(2, 1, Q, N)], dim=N)
        v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        lhs = (A + B).apply(v)
        rhs = A.apply(v) + B.apply(v)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_adjoint_involution(self):
        op = single(2.0 - 1.0j, [t_block(1, 2, Q, N), t_block(2, 2, Q, N)])
        roundtrip = op.adjoint().adjoint()
        for a, b in zip(op.terms, roundtrip.terms):
            assert a.scalar == b.scalar
            for F, G in zip(a.factors, b.factors):
                assert np.allclose(F.entries, G.entries)
                assert F.provenance == G.provenance

    def test_adjoint_pairing(self, rng):
        op = single(0.3 + 2.0j, [t_block(2, 2, Q, N), t_block(1, 1, Q, N)]) + single(
            -1.1, [t_block(2, 1, Q, N), None]
        )
        u = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        v = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        # <op u, v> and <u, op* v>, conjugate-linear in the second argument
        lhs = complex(np.vdot(v, op.apply(u)))
        rhs = complex(np.vdot(op.adjoint().apply(v), u))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_apply_rejects_a_state_of_another_shape(self):
        op = single(1.0, [t_block(2, 2, Q, N), None])
        for shape in [(N * N,), (N,), (N, N - 1), (N, N, 1), ()]:
            with pytest.raises(ValueError, match="shape"):
                op.apply(np.zeros(shape, dtype=complex))

    def test_mul_identity_termwise(self):
        op = single(1.5, [t_block(2, 1, Q, N), None])
        out = op * TensorOperator.identity(2, N)
        assert len(out.terms) == 1
        assert out.terms[0].scalar == 1.5
        assert np.allclose(out.terms[0].factors[0].entries, t_block(2, 1, Q, N).entries)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            TensorOperator.identity(2, N) * TensorOperator.identity(3, N)

    def test_factor_of_wrong_size_rejected(self):
        # operators are built from ids, unchecked, so the size of a factor is
        # checked where factors come in: at the JSON boundary
        entry = {"delta": 0, "amps": [[1.0, 0.0]] * (N + 1)}
        data = {"f": 2, "dim": N, "terms": [{"scalar": [1.0, 0.0], "factors": ["I", entry]}]}
        with pytest.raises(ValueError, match=f"size {N + 1} in an operator of dim {N}"):
            operator_from_json(data)

    def test_factor_equality_is_identity(self):
        F = t_block(1, 1, Q, 3)
        assert F == F
        assert (t_block(1, 1, Q, 3) == t_block(1, 1, Q, 3)) is False
        assert F in {F}


class TestResidualWindow:
    def test_equal_operators(self):
        op = single(1.0, [t_block(2, 2, Q, N), t_block(1, 2, Q, N)])
        assert residual_on_window(op, op, 2) == 0.0

    def test_isometry_asymmetry(self):
        S = single(1.0, [shift(N)])
        I = TensorOperator.identity(1, N)
        assert residual_on_window(S.adjoint() * S, I, 1) == 0.0
        # S S* = I fails: rank deficiency at the ground state
        assert residual_on_window(S * S.adjoint(), I, 1) > 0.9

    def test_empty_window_rejected(self):
        op = TensorOperator.identity(1, 3)
        with pytest.raises(ValueError):
            residual_on_window(op, op, 3)

    def test_scalar_operators(self):
        a = TensorOperator.from_ids(0, N, [1.25], [[]])
        b = TensorOperator.from_ids(0, N, [1.0], [[]])
        assert residual_on_window(a, b, 2) == pytest.approx(0.25)

    def test_scalar_operators_check_the_window(self):
        # an operator on no factors has no axis to window, but d must still
        # leave one: 0 <= d < N
        op = TensorOperator.identity(0, 3)
        for d in (3, 7):
            with pytest.raises(ValueError, match="window is empty"):
                residual_on_window(op, op, d)

    def test_scalar_operators_keep_their_bits(self):
        # the modulus of the scalar sum, as before the window check moved
        a = TensorOperator.from_ids(0, 3, [0.1 + 0.2j, -0.0, 0.3 - 0.7j, 1e-17j], [])
        b = TensorOperator.from_ids(0, 3, [0.2 + 0.1j, 0.05], [])
        for d in (0, 1, 2):
            assert residual_on_window(a, b, d).hex() == "0x1.3ca78e19fe93bp-1"
            assert residual_on_window(b, a, d).hex() == "0x1.3ca78e19fe93bp-1"
            assert residual_on_window(a, a, d).hex() == "0x1.041ee475bc258p-54"

    def test_refused_before_any_array(self, monkeypatch):
        # two shift classes on three axes, and a limit of one class array
        dim, d = 20, 1
        size = (dim - d) ** 3
        monkeypatch.setattr(qoperator, "MAX_RESIDUAL_ELEMENTS", size)
        a = single(1.0, [t_block(1, 1, Q, dim)] * 3, dim=dim)
        b = single(1.0, [t_block(2, 2, Q, dim)] * 3, dim=dim)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=str(size)):
                residual_on_window(a, b, d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < size * np.dtype(np.complex128).itemsize

    def test_refused_on_work_before_any_array(self, monkeypatch):
        # two one-term shift classes on three axes, well within the memory
        # limit: two term blocks and two class squares of the whole window
        dim, d = 20, 1
        size = (dim - d) ** 3
        work = 4 * size
        monkeypatch.setattr(qoperator, "MAX_RESIDUAL_WORK", work - 1)
        a = single(1.0, [t_block(1, 1, Q, dim)] * 3, dim=dim)
        b = single(1.0, [t_block(2, 2, Q, dim)] * 3, dim=dim)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"would take {work} elements of work"):
                residual_on_window(a, b, d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < size * np.dtype(np.complex128).itemsize

    @pytest.mark.parametrize("path", ["scatter", "classes"])
    def test_work_counted_exactly_on_two_classes(self, monkeypatch, path):
        # window 3 on three axes (W = 27): class 0 holds two terms on the
        # first axis only (W_c = 3), class 1 one term on all three.  The
        # scatter path builds every term on W; the class-by-class path
        # builds each class's terms on its own axes.  Both add two squares
        # of W.
        dim, d, size = 4, 1, 27
        t11, t22 = t_block(1, 1, Q, dim), t_block(2, 2, Q, dim)
        a = single(1.0, [t11, None, None], dim=dim) + single(0.5, [t11, None, None], dim=dim)
        b = single(0.25, [t22, t22, t22], dim=dim)
        want = residual_on_window(a, b, d)
        if path == "scatter":
            work = 3 * size + 2 * size
        else:
            monkeypatch.setattr(qoperator, "_CHUNK_ELEMENTS", 3 * size - 1)
            work = 2 * 3 + size + 2 * size
        monkeypatch.setattr(qoperator, "MAX_RESIDUAL_WORK", work - 1)
        with pytest.raises(ValueError, match=f"would take {work} elements of work"):
            residual_on_window(a, b, d)
        monkeypatch.setattr(qoperator, "MAX_RESIDUAL_WORK", work)
        assert residual_on_window(a, b, d) == want

    def test_limit_counts_classes_chunk_and_sum_exactly(self, monkeypatch):
        # window 5 on 6 axes: 5^6 elements per array, four terms in three
        # shift classes.  A chunk setting of two blocks builds the terms in
        # pairs and adds them class by class; one of four blocks builds all
        # of them at once and scatters them into their classes.
        dim, d, window, axes = 6, 1, 5, 6
        size = window**axes
        a = single(1.0, [t_block(1, 1, Q, dim)] * axes, dim=dim) + single(
            0.5, [t_block(2, 2, Q, dim)] * axes, dim=dim
        )
        b = single(0.25, [t_block(2, 1, Q, dim)] * axes, dim=dim) + single(
            1.0, [t_block(1, 2, Q, dim)] * axes, dim=dim
        )
        one_by_one = residual_on_window(a, b, d)
        terms, classes, gathered = 4, 3, axes * window
        chunk = 2
        paths = {
            "chunks": (
                chunk * size,
                (size + 1) // 2
                + size
                + chunk * (size + size // window + gathered)
                + 2 * np.getbufsize(),
            ),
            "scatter": (
                terms * size,
                terms * (2 * size + gathered) + classes * size + 2 * np.getbufsize(),
            ),
        }
        itemsize = np.dtype(np.complex128).itemsize
        for path, (chunk_elements, needed) in paths.items():
            monkeypatch.setattr(qoperator, "_CHUNK_ELEMENTS", chunk_elements)

            monkeypatch.setattr(qoperator, "MAX_RESIDUAL_ELEMENTS", needed - 1)
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=f"would hold {needed} elements"):
                    residual_on_window(a, b, d)
                _, refused_peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert refused_peak < size * itemsize, path

            monkeypatch.setattr(qoperator, "MAX_RESIDUAL_ELEMENTS", needed)
            tracemalloc.start()
            try:
                residual = residual_on_window(a, b, d)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert residual == one_by_one, path
            # beyond the count: numpy's broadcasting buffer of np.getbufsize()
            # elements and the small index arrays
            assert peak <= (needed + np.getbufsize()) * itemsize + 16 * 1024, path

    def test_limit_counts_live_terms_only(self, monkeypatch):
        # a new table whose largest lead is the window, 2: a term holding
        # T11 T11 (lead 2) is zero on the window, so it is dropped before
        # the count, and the limit that runs the other terms runs them with
        # it too, with the same bits
        table = FactorTable()
        monkeypatch.setattr(qoperator, "FACTORS", table)
        dim, d = 4, 2
        t11, t22 = t_block(1, 1, Q, dim), t_block(2, 2, Q, dim)
        a = single(1.0, [t22, t11, t22], dim=dim) + single(0.5, [t11, t22, None], dim=dim)
        b = single(0.25, [t11, t11, t11], dim=dim)
        vanishing = single(2.0, [t22, None, factor_product(t11, t11)], dim=dim)
        assert table.max_lead == dim - d

        def needed(x, y):
            monkeypatch.setattr(qoperator, "MAX_RESIDUAL_ELEMENTS", 0)
            with pytest.raises(ValueError, match="would hold") as refused:
                residual_on_window(x, y, d)
            return int(str(refused.value).split("would hold ")[1].split()[0])

        limit = needed(a, b)
        assert needed(a + vanishing, b) == needed(a, b + vanishing) == limit
        monkeypatch.setattr(qoperator, "MAX_RESIDUAL_ELEMENTS", limit)
        want = residual_on_window(a, b, d).hex()
        assert residual_on_window(vanishing + a, b, d).hex() == want
        assert residual_on_window(a, vanishing + b, d).hex() == want
        # one window wider, the same term is no longer zero there
        assert residual_on_window(vanishing, zero_like(a), d - 1) > 0.0

    def test_non_finite_scalar_of_a_vanishing_term_is_kept(self):
        # T11 is zero on the vacuum, so at a window of one its term is
        # dropped; an infinite scalar makes NaN there, and must not be
        # dropped with it
        T = t_block(1, 1, Q, N)
        assert residual_on_window(single(1e300, [T]), single(0.0, [None]), N - 1) == 0.0
        with np.errstate(invalid="ignore"):
            assert np.isnan(
                residual_on_window(single(np.inf, [T]), single(0.0, [None]), N - 1)
            )
            assert np.isnan(
                residual_on_window(single(1.0, [None]), single(complex(0, np.nan), [T]), N - 1)
            )

    def test_classes_added_in_order_of_first_term(self, monkeypatch):
        # a window of size 1 on one axis of 13 levels: class k holds two terms
        # moving e_0 to e_k.  Class 0 comes first and squares to 1; each of
        # the other eleven squares to 0.72 * 2^-53, less than half a unit in
        # the last place of 1.0, so adding the classes one after another
        # keeps 1.0.  Any grouping that adds two small squares first (a
        # pairwise reduction, say) comes out above 1.
        dim = 13
        vacuum = np.zeros(dim)
        vacuum[0] = 1.0
        op = TensorOperator.zero(1, dim)
        for k in range(dim - 1):
            F = FactorMatrix(k, vacuum)
            half = 0.5 if k == 0 else 0.3 * 2.0**-26
            op = op + single(half, [F], dim=dim) + single(half, [F], dim=dim)
        assert residual_on_window(op, zero_like(op), dim - 1) == 1.0
        monkeypatch.setattr(qoperator, "_CHUNK_ELEMENTS", 1)
        assert residual_on_window(op, zero_like(op), dim - 1) == 1.0

    def test_terms_added_in_order_within_a_class(self, monkeypatch):
        # one class on one axis, window 1: a term of 1 and then forty terms of
        # 0.75 * 2^-53, less than half a unit in the last place of 1.0, so
        # adding the terms one after another keeps 1.0.  Any grouping that
        # adds two small terms first (a pairwise reduction of a chunk, or a
        # chunk summed apart from the running class sum) comes out above 1.
        dim = 3
        vacuum = np.zeros(dim)
        vacuum[0] = 1.0
        F = FactorMatrix(0, vacuum)
        op = single(1.0, [F], dim=dim)
        for _ in range(40):
            op = op + single(0.75 * 2.0**-53, [F], dim=dim)
        assert op.scalars.size == 41
        # 41 one-element blocks: scattered whole, then summed in chunks of
        # one, three and seven terms, each chunk but the first starting on
        # the running sum
        for chunk in (qoperator._CHUNK_ELEMENTS, 1, 3, 7):
            monkeypatch.setattr(qoperator, "_CHUNK_ELEMENTS", chunk)
            assert residual_on_window(op, zero_like(op), dim - 1) == 1.0, chunk

    def test_depth_checked_at_the_boundary(self):
        # d goes through operator.index: a float or a negative depth is
        # refused, and a bool counts as the integer it is (True is depth 1)
        from qmatball.matrixball import RelationReport

        S = single(1.0, [shift(N)])
        I = TensorOperator.identity(1, N)
        for d in (1.5, -1, "1"):
            with pytest.raises(ValueError, match=f"d={d!r} at N={N}"):
                residual_on_window(S * S.adjoint(), I, d)
            with pytest.raises(ValueError, match=f"d={d!r} at N={N}"):
                RelationReport.of("SS*", (), S * S.adjoint(), I, d)
        assert residual_on_window(S * S.adjoint(), I, True) == residual_on_window(
            S * S.adjoint(), I, 1
        )


class TestNormEstimate:
    def test_identity(self):
        assert norm_estimate(TensorOperator.identity(2, N), iters=5) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_diagonal_contraction(self):
        assert norm_estimate(single(1.0, [d_q(Q, N)]), iters=30) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_monotone_and_lower_bound(self):
        op = single(1.0, [t_block(2, 2, Q, N), t_block(1, 1, Q, N)])
        estimates = [norm_estimate(op, iters=k) for k in (1, 3, 10, 40)]
        assert all(b >= a - 1e-13 for a, b in zip(estimates, estimates[1:]))
        assert estimates[-1] <= 1.0 + 1e-9


class TestVacuumHelpers:
    def test_vacuum_matrix_element(self):
        op = single(2.0, [t_block(2, 1, Q, N), t_block(1, 2, Q, N)])
        assert vacuum_matrix_element(op) == pytest.approx(2.0 * 1.0 * (-Q))

    def test_structural_vacuum_annihilation(self):
        killer = single(1.0, [t_block(1, 1, Q, N), t_block(2, 1, Q, N)])
        assert is_exact_zero_on_vacuum(killer)
        survivor = single(1.0, [t_block(2, 1, Q, N), None])
        assert not is_exact_zero_on_vacuum(survivor)


class TestSerialization:
    def test_operator_round_trip(self):
        op = single(1.0 - 2.0j, [t_block(1, 2, Q, 3), None], dim=3) + TensorOperator.identity(2, 3)
        data = json.loads(json.dumps(operator_to_json(op)))
        back = operator_from_json(data)
        assert back.f == op.f and back.dim == op.dim
        v = np.zeros((3, 3), dtype=complex)
        v[1, 1] = 1.0
        assert np.allclose(op.apply(v), back.apply(v))


class TestAssociativity:
    def test_mul_associative_on_interior(self, rng):
        A = single(0.9, [t_block(2, 2, Q, N)], dim=N)
        B = single(1.0j, [t_block(1, 1, Q, N)], dim=N) + single(0.4, [t_block(1, 2, Q, N)], dim=N)
        C = single(-0.7, [t_block(2, 1, Q, N)], dim=N)
        v = np.zeros(N, dtype=complex)
        v[: N - 3] = rng.standard_normal(N - 3)
        lhs = ((A * B) * C).apply(v)
        rhs = (A * (B * C)).apply(v)
        assert np.allclose(lhs, rhs, atol=1e-12)


def dense_norm(op):
    """Spectral norm of the dense Kronecker matrix over the axes some term
    acts on.  Axes where every factor is the identity are dropped, since
    ||A (x) I|| = ||A||; this keeps the oracle small (f = 4, N = 7 would
    otherwise be a 2401 x 2401 SVD)."""
    kept = [
        axis for axis in range(op.f) if any(t.factors[axis] is not None for t in op.terms)
    ]
    reduced = from_terms(
        len(kept),
        op.dim,
        [TensorTerm(t.scalar, tuple(t.factors[a] for a in kept)) for t in op.terms],
    )
    return float(np.linalg.norm(dense_matrix(reduced), 2))


def weighted_shift(rng, dim, k=None):
    """Random complex amplitudes on diagonal k of a dim x dim matrix, random
    unless given (the diagonal np.diag(., k) fills; the shift is -k)."""
    if k is None:
        k = int(rng.integers(-(dim - 1), dim))
    size = dim - abs(k)
    amps = np.zeros(dim, dtype=complex)
    amps[max(k, 0) : max(k, 0) + size] = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return FactorMatrix(-k, amps)


def tag_word(rng, dim, max_length=3):
    """Product of one to ``max_length`` random corner blocks at a random q,
    tagged with its word."""
    q = float(rng.choice([0.3, 0.5, 0.8]))
    blocks = [
        t_block(int(rng.integers(1, 3)), int(rng.integers(1, 3)), q, dim)
        for _ in range(int(rng.integers(1, max_length + 1)))
    ]
    out = blocks[0]
    for block in blocks[1:]:
        out = factor_product(out, block)
    return out


def random_shift_vectors(rng, f, dim, count):
    """``count`` random shift vectors over f axes; None marks an identity
    factor, whose shift is 0 like a diagonal factor's."""
    return [
        [
            None if rng.random() < 0.25 else int(rng.integers(-(dim - 1), dim))
            for _ in range(f)
        ]
        for _ in range(count)
    ]


def operator_on_shifts(rng, dim, shifts, n_terms):
    """Sum of ``n_terms`` random complex multiples of elementary tensors of
    weighted shifts, each term on one of ``shifts``, drawn at random."""
    terms = []
    for _ in range(n_terms):
        vector = shifts[int(rng.integers(len(shifts)))]
        factors = tuple(
            None if k is None else weighted_shift(rng, dim, k) for k in vector
        )
        scalar = complex(rng.standard_normal(), rng.standard_normal())
        terms.append(TensorTerm(scalar, factors))
    return from_terms(len(shifts[0]), dim, terms)


def random_factor(rng, dim, tagged):
    return tag_word(rng, dim) if tagged else weighted_shift(rng, dim)


def random_operator(rng, f, dim, n_terms, factor=weighted_shift):
    """Sum of random complex multiples of elementary tensors of random
    factors (weighted shifts by default), a quarter of them the identity."""
    return from_terms(
        f,
        dim,
        tuple(
            TensorTerm(
                complex(rng.standard_normal(), rng.standard_normal()),
                tuple(
                    None if rng.random() < 0.25 else factor(rng, dim)
                    for _ in range(f)
                ),
            )
            for _ in range(n_terms)
        ),
    )


def bits(z: complex) -> tuple[str, str]:
    """Exact bit pattern of a complex number, signed zeros included."""
    return z.real.hex(), z.imag.hex()


def same_factor(F, G) -> bool:
    """Equal shift, provenance and amplitude bits, signed zeros included."""
    if F is None or G is None:
        return F is None and G is None
    return (
        F.delta == G.delta
        and F.amps.tobytes() == G.amps.tobytes()
        and F.provenance == G.provenance
    )


class TestFactorTable:
    """Products, adjoints and operator algebra by factor id, against the
    factor-by-factor oracle (``factor_product``, ``factor_adjoint``) and
    dense matrices."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5), st.integers(2, 4), st.booleans())
    def test_product_by_id_is_the_matmul_chain(self, seed, dim, length, tagged):
        rng = np.random.default_rng(seed)
        chain = [random_factor(rng, dim, tagged) for _ in range(length)]
        tid, product, dense = FACTORS.intern(chain[0]), chain[0], chain[0].entries
        for G in chain[1:]:
            (tid,) = FACTORS.products(np.array([tid]), np.array([FACTORS.intern(G)]))
            product, dense = factor_product(product, G), dense @ G.entries
            assert same_factor(FACTORS[tid], product)
            assert np.allclose(FACTORS[tid].entries, dense, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5), st.booleans())
    def test_adjoint_by_id_is_the_conjugate_transpose(self, seed, dim, tagged):
        F = random_factor(np.random.default_rng(seed), dim, tagged)
        (adj,) = FACTORS.adjoints(np.array([FACTORS.intern(F)]))
        assert FACTORS.adjoint[FACTORS.intern(F)] == adj
        assert same_factor(FACTORS[adj], factor_adjoint(F))
        assert np.array_equal(FACTORS[adj].entries, F.entries.conj().T)
        (back,) = FACTORS.adjoints(np.array([adj]))
        assert np.array_equal(FACTORS[back].entries, F.entries)

    def test_identity_id(self):
        F = t_block(2, 2, Q, N)
        tid = FACTORS.intern(F)
        assert FACTORS[0] is None and FACTORS.intern(None) == 0
        assert FACTORS.products(np.array([0, tid, 0]), np.array([tid, 0, 0])).tolist() == [
            tid,
            tid,
            0,
        ]
        assert FACTORS.adjoints(np.array([0])).tolist() == [0]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(1, 4),
        st.integers(2, 5),
        st.integers(1, 3),
        st.integers(1, 3),
        st.booleans(),
    )
    def test_operator_product_is_distributive_termwise(
        self, seed, f, dim, ta, tb, tagged
    ):
        rng = np.random.default_rng(seed)
        factor = tag_word if tagged else weighted_shift
        A = random_operator(rng, f, dim, ta, factor)
        B = random_operator(rng, f, dim, tb, factor)
        P = A * B
        pairs = list(itertools.product(A.terms, B.terms))
        assert len(P.terms) == len(pairs)
        for (a, b), term in zip(pairs, P.terms):
            assert bits(term.scalar) == bits(a.scalar * b.scalar)
            for F, G, H in zip(a.factors, b.factors, term.factors):
                want = G if F is None else F if G is None else factor_product(F, G)
                assert same_factor(H, want)
        assert np.allclose(dense_matrix(P), dense_matrix(A) @ dense_matrix(B), atol=1e-12)
        adjoint = A.adjoint()
        for a, term in zip(A.terms, adjoint.terms):
            assert bits(term.scalar) == bits(a.scalar.conjugate())
        assert np.array_equal(dense_matrix(adjoint), dense_matrix(A).conj().T)

    def test_untagged_ids_are_anonymous(self):
        T = t_block(2, 1, Q, N)
        raw = FactorMatrix(T.delta, T.amps)
        tagged_id, raw_id = FACTORS.intern(T), FACTORS.intern(raw)
        assert raw_id != tagged_id and FACTORS[raw_id].provenance is None
        # the key is the content, so an equal untagged factor shares the id
        assert FACTORS.intern(FactorMatrix(T.delta, T.amps)) == raw_id
        (product,) = FACTORS.products(np.array([raw_id]), np.array([tagged_id]))
        (adjoint,) = FACTORS.adjoints(np.array([raw_id]))
        assert FACTORS[product].provenance is None
        assert FACTORS[adjoint].provenance is None
        with pytest.raises(ValueError, match="primitive set"):
            _tags_value(FACTORS[raw_id].provenance, 0.3)

        data = json.loads(json.dumps(operator_to_json(single(1.0, [T]))))
        back = operator_from_json(data)
        assert back.ids.tolist() == [[raw_id]]
        assert back.terms[0].factors[0].provenance is None
        with pytest.raises(ValueError, match="primitive set"):
            apply_tau(back, FactorEvaluation(((1, 0.3),)))
        assert apply_tau(single(1.0, [T]), FactorEvaluation(((1, 0.3),))).f == 0

    def test_new_products_and_adjoints_read_only_the_rows(self, monkeypatch):
        # a pair or id never met is computed from the table's columns; a
        # snapshot, FactorTable.__getitem__, would raise
        rng = np.random.default_rng(29)
        table = FactorTable()
        factors = [random_factor(rng, 4, tagged) for tagged in (True, False) for _ in range(6)]
        factors.append(FactorMatrix(-1, [0.0, 0.5j, -0.25, 0.0], ("T11", "X")))
        ids = np.array([table.intern(F) for F in factors])

        def snapshot(self, tid):
            raise AssertionError("snapshot taken")

        with monkeypatch.context() as m:
            m.setattr(FactorTable, "__getitem__", snapshot)
            products = table.products(ids[:, None], ids[None, :])
            adjoints = table.adjoints(ids)
        for F, adj, row in zip(factors, adjoints, products):
            assert same_factor(table[adj], factor_adjoint(F))
            for G, tid in zip(factors, row):
                assert same_factor(table[tid], factor_product(F, G))

    def test_overflowing_product_is_refused_each_time(self, monkeypatch):
        table = FactorTable()
        monkeypatch.setattr(qoperator, "FACTORS", table)
        big = single(1.0, [FactorMatrix(0, [1e200] * 3)], dim=3)
        stored = (len(table), table._pair_keys.size)
        for _ in range(2):
            # no id was stored, so the second product is computed again
            with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="factor entries must be finite"
            ):
                big * big
            assert (len(table), table._pair_keys.size) == stored

    def test_product_past_the_shift_bound_is_refused(self):
        table = FactorTable()
        tid = table.intern(FactorMatrix(2**31 - 1, np.zeros(3)))
        with pytest.raises(ValueError, match="shift must lie strictly between"):
            table.products(np.array([tid]), np.array([tid]))

    def test_tagged_factor_rebuilt_from_its_fields_shares_its_id(self):
        # interning reads the content only, never the object's identity
        table = FactorTable()
        F = t_block(2, 2, Q, N)
        tid = table.intern(F)
        assert table.intern(FactorMatrix(F.delta, F.amps, F.provenance)) == tid
        assert len(table) == 2 and same_factor(table[tid], F)

    def test_interning_keeps_no_reference_to_the_factor(self):
        table = FactorTable()
        F = FactorMatrix(-1, [0.0, 0.5j, -0.25], ("T11", "T21"))
        alive = weakref.ref(F)
        tid = table.intern(F)
        del F
        gc.collect()
        assert alive() is None
        assert table.tags[tid] == ("T11", "T21") and table.dims[tid] == 3

    def test_snapshot_is_a_new_read_only_copy_of_the_row(self):
        table = FactorTable()
        F = factor_product(t_block(1, 1, Q, N), t_block(2, 1, Q, N))
        tid = table.intern(F)
        G, H = table[tid], table[tid]
        assert G is not F and G is not H
        assert G.delta == F.delta and G.provenance == F.provenance
        assert G.amps.tobytes() == F.amps.tobytes() and G.dim == F.dim
        with pytest.raises(ValueError, match="read-only"):
            G.amps[0] = 1.0
        with pytest.raises(AttributeError):
            G.delta = 0
        assert table[0] is None
        with pytest.raises(IndexError):
            table[len(table)]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(65, 160))
    def test_amplitude_column_holds_each_factor(self, seed, count):
        # a new table starts with 64 rows and no width, so interning more
        # than 64 factors of sizes 2-7 grows both
        rng = np.random.default_rng(seed)
        table = FactorTable()
        factors = [weighted_shift(rng, int(rng.integers(2, 8))) for _ in range(count)]
        ids = [table.intern(F) for F in factors]
        width = max(F.dim for F in factors)
        assert table.amps.shape[0] >= count + 1 > 64 and table.amps.shape[1] == width
        assert table.amps[0].tobytes() == np.ones(width, dtype=np.complex128).tobytes()
        for tid, F in zip(ids, factors):
            assert table.amps[tid, : F.dim].tobytes() == F.amps.tobytes()
            # zero padding, with no negative zero
            assert not table.amps[tid, F.dim :].view(np.uint64).any()
            assert table.deltas[tid] == F.delta
            # the first nonzero column, or the size for a zero factor
            assert table.lead[tid] == next(
                (c for c, z in enumerate(F.amps.tolist()) if z != 0), F.dim
            )

    def test_columns_are_read_only_views(self):
        rng = np.random.default_rng(11)
        table = FactorTable()
        # 70 factors of size 3 grow the rows, then one of size 5 the width
        for F in [weighted_shift(rng, 3) for _ in range(70)] + [weighted_shift(rng, 5)]:
            table.intern(F)
        assert table.amps.shape == (128, 5)
        for columns in (table, FACTORS):
            for name in ("deltas", "dims", "lead", "adjoint", "amps"):
                column = getattr(columns, name)
                with pytest.raises(ValueError, match="read-only"):
                    # the same value, so a write that got through changes nothing
                    column[0] = column[0]
        F = weighted_shift(rng, 4, 1)
        tid = table.intern(F)
        assert same_factor(table[tid], F) and table.intern(F) == tid
        assert table.deltas[tid] == -1 and table.lead[tid] == 1
        assert table.amps[tid, :4].tobytes() == F.amps.tobytes()

    def test_lead_of_every_factor(self):
        # T11 T11 sends e_m to e_{m-2}, so its columns 0 and 1 are zero; a
        # zero factor has no nonzero column, and its lead is its size
        from qmatball.matrixball import a_m_checks, fock_rep

        t11 = t_block(1, 1, Q, N)
        table = FactorTable()
        ids = [
            table.intern(F)
            for F in (
                t_block(2, 2, Q, N), t11, factor_product(t11, t11), FactorMatrix(0, np.zeros(N))
            )
        ]
        assert table.lead[[0] + ids].tolist() == [0, 0, 1, 2, N]
        assert table.max_lead == N and type(table.max_lead) is int
        # every factor of the process table, after the products and adjoints
        # of a relation check have been interned
        a_m_checks(fock_rep(3, Q, 4))
        leads = []
        for tid in range(1, len(FACTORS)):
            amps = FACTORS[tid].amps.tolist()
            leads.append(next((c for c, z in enumerate(amps) if z != 0), len(amps)))
        assert FACTORS.lead[1 : len(FACTORS)].tolist() == leads
        assert FACTORS.lead[0] == 0 and FACTORS.max_lead == max(leads)
        assert max(leads) >= 2

    def test_residual_unchanged_when_the_table_widens(self, monkeypatch):
        # a new table, 3 wide; interning a factor of size 9 widens it
        table = FactorTable()
        monkeypatch.setattr(qoperator, "FACTORS", table)
        rng = np.random.default_rng(3)
        A = random_operator(rng, 3, 3, 4)
        a, b = A * A.adjoint(), A.adjoint() * A

        def residuals():
            # the whole block scattered, then the term-by-term path
            out = []
            for chunk in (qoperator._CHUNK_ELEMENTS, 1):
                with monkeypatch.context() as m:
                    m.setattr(qoperator, "_CHUNK_ELEMENTS", chunk)
                    out.append(residual_on_window(a, b, 1).hex())
            return out

        assert table.amps.shape[1] == 3
        before = residuals()
        assert before[0] == before[1] and float.fromhex(before[0]) > 0.0
        table.intern(weighted_shift(rng, 9))
        assert table.amps.shape[1] == 9
        assert residuals() == before

    def test_operators_are_immutable(self):
        op = single(1.0, [t_block(1, 1, Q, N)])
        with pytest.raises(AttributeError):
            op.f = 2
        with pytest.raises(ValueError):
            op.scalars[0] = 2.0
        with pytest.raises(ValueError):
            op.ids[0, 0] = 0

    def test_product_store(self, monkeypatch):
        # a new table, so that which pairs are stored beforehand is known
        table = FactorTable()
        monkeypatch.setattr(qoperator, "FACTORS", table)
        rng = np.random.default_rng(5)
        a, b, c, d = (table.intern(weighted_shift(rng, 4)) for _ in range(4))
        table.products(np.array([a, c]), np.array([b, a]))
        stored = table._pair_keys.size
        # stored, new, identity-left, identity-right and repeated pairs; the
        # last right row repeats the first
        left = np.array([[a, 0, c], [a, b, 0], [0, 0, a]], dtype=np.int32)[:, None, :]
        right = np.array([[b, d, 0], [a, c, c], [0, a, 0], [b, d, 0]], dtype=np.int32)[None]
        size = len(table)
        ids = table.products(left, right)
        assert ids.shape == (3, 4, 3) and table._pair_keys.size > stored

        # a repeated call interns nothing and stores nothing
        grown, stored = len(table), table._pair_keys.size
        assert np.array_equal(table.products(left, right), ids)
        assert (len(table), table._pair_keys.size) == (grown, stored)

        def product(x, y):
            if x == 0 or y == 0:
                return x | y
            return table.intern(factor_product(table[x], table[y]))

        pairs = list(zip(*(side.ravel().tolist() for side in np.broadcast_arrays(left, right))))
        assert ids.ravel().tolist() == [product(x, y) for x, y in pairs]
        assert len(table) == grown
        # the new factors were interned in ascending (left, right) order
        new = [product(x, y) for x, y in sorted(set(pairs))]
        assert list(dict.fromkeys(t for t in new if t >= size)) == list(range(size, grown))

        # 70 more factors grow the rows past 64; the stored pairs and
        # adjoints keep their ids, and asking again interns nothing
        adjoints = table.adjoints(ids)
        for _ in range(70):
            table.intern(weighted_shift(rng, 4))
        grown = len(table)
        assert table.amps.shape[0] > 64 and table.adjoint.size == table.amps.shape[0]
        assert np.array_equal(table.products(left, right), ids)
        assert np.array_equal(table.adjoints(ids), adjoints)
        assert len(table) == grown

    def test_pairs_with_the_identity_never_reach_the_store(self, monkeypatch):
        # every pair has the identity on one side, or on both: each is the
        # other id, and nothing is interned, looked up or stored
        table = FactorTable()
        monkeypatch.setattr(qoperator, "FACTORS", table)
        rng = np.random.default_rng(9)
        a, b = (table.intern(weighted_shift(rng, 4)) for _ in range(2))
        stored = (len(table), table._pair_keys.size)
        left = np.array([0, a, 0, b, 0], dtype=np.int32)
        right = np.array([b, 0, a, 0, 0], dtype=np.int32)
        assert table.products(left, right).tolist() == [b, a, a, b, 0]
        # broadcast: a column of factors times a row of identities
        column, row = np.array([[a], [b]], dtype=np.int32), np.zeros((1, 3), dtype=np.int32)
        assert table.products(column, row).tolist() == [[a] * 3, [b] * 3]
        # and a one-pair ``*`` whose factors never meet on an axis
        x = TensorOperator.from_ids(2, 4, [1.0, 2.0], [[a, 0], [b, 0]])
        y = TensorOperator.from_ids(2, 4, [3.0], [[0, b]])
        assert (x * y).ids.tolist() == [[a, b], [b, b]]
        assert (len(table), table._pair_keys.size) == stored

    def test_product_with_no_terms(self, monkeypatch):
        monkeypatch.setattr(qoperator, "FACTORS", FactorTable())
        A = random_operator(np.random.default_rng(2), 3, 4, 5)
        empty = TensorOperator.zero(3, 4)

        # an empty operand returns at once, without a product lookup
        def refuse(left, right):
            raise AssertionError("product lookup for an empty operand")

        monkeypatch.setattr(qoperator.FACTORS, "products", refuse)
        for P in (empty * A, A * empty, empty * empty):
            assert P.ids.shape == (0, 3) and P.scalars.shape == (0,)
            assert P.ids.dtype == A.ids.dtype and P.scalars.dtype == A.scalars.dtype
            assert not (P.ids.flags.writeable or P.scalars.flags.writeable)
        # the shapes are still checked first
        for other in (TensorOperator.zero(2, 4), TensorOperator.zero(3, 5)):
            with pytest.raises(ValueError, match="shape mismatch"):
                empty * other


# every float: infinities, NaNs of either sign and signed zeros included
any_parts = st.floats() | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan])
any_complexes = st.builds(complex, any_parts, any_parts)

# product counts from none to 64
LIMIT = 32
SIZES = [0, 1, 32, 33, 64]


def parts_bits(values) -> list[tuple[str, str]]:
    """``bits`` of each complex: the exact parts, signed zeros and
    infinities included, with every NaN read as "nan".  The sign and
    payload of a NaN made from two NaNs follow the operand order the
    compiled loop picks, which differs between numpy's own loops, so they
    are not compared."""
    return [bits(z) for z in values]


def vector(values) -> np.ndarray:
    return np.array(values, dtype=np.complex128).reshape(-1)


class TestScalarProducts:
    """``_cmul``, which computes the scalars of ``scale``, of products and
    of ``evaluate_terms``, against CPython's ``complex * complex``, bit for
    bit (``parts_bits``), at every size from 0 to 64 products."""

    @settings(max_examples=25, deadline=None)
    @given(any_complexes, st.lists(any_complexes, min_size=SIZES[-1], max_size=SIZES[-1]))
    def test_python_complex_times_vector(self, c, drawn):
        # the call ``scale`` makes, on a prefix of each size; CPython
        # overflows to inf silently too
        for values in (drawn[:size] for size in SIZES):
            with np.errstate(over="ignore", invalid="ignore"):
                out = qoperator._cmul(c, vector(values))
                op = TensorOperator.from_ids(1, 2, values, np.zeros((len(values), 1)))
                scaled = op.scale(c).scalars
            want = parts_bits(c * z for z in values)
            assert out.shape == (len(values),)
            assert parts_bits(out.tolist()) == want
            assert parts_bits(scaled.tolist()) == want

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(any_complexes, min_size=LIMIT + 1, max_size=LIMIT + 1),
        st.lists(any_complexes, min_size=8, max_size=8),
    )
    def test_column_times_row(self, drawn_left, drawn_right):
        # a column times a row, broadcast, and ``*`` of the same operands,
        # from 1 to 8 * (LIMIT + 1) products
        for m, n in [(1, 1), (1, 8), (4, 8), (LIMIT + 1, 1), (5, 7), (8, 8), (LIMIT + 1, 8)]:
            left, right = drawn_left[:m], drawn_right[:n]
            A = TensorOperator.from_ids(1, 2, left, np.zeros((m, 1)))
            B = TensorOperator.from_ids(1, 2, right, np.zeros((n, 1)))
            with np.errstate(over="ignore", invalid="ignore"):
                out = qoperator._cmul(vector(left)[:, None], vector(right)[None, :])
                product = (A * B).scalars
            want = parts_bits(x * y for x, y in itertools.product(left, right))
            assert out.shape == (m, n)
            assert parts_bits(out.reshape(-1).tolist()) == want
            assert parts_bits(product.tolist()) == want

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(any_complexes, min_size=SIZES[-1], max_size=SIZES[-1]),
        st.lists(any_complexes, min_size=SIZES[-1], max_size=SIZES[-1]),
    )
    def test_vector_times_vector(self, drawn_left, drawn_right):
        # the call ``evaluate_terms`` makes, once per assigned axis
        for size in SIZES:
            left, right = drawn_left[:size], drawn_right[:size]
            with np.errstate(over="ignore", invalid="ignore"):
                out = qoperator._cmul(vector(left), vector(right))
            assert out.shape == (size,)
            assert parts_bits(out.tolist()) == parts_bits(x * y for x, y in zip(left, right))

    @pytest.mark.parametrize("limit", [0, 10**9])
    def test_each_route_alone_keeps_the_bits(self, limit):
        # every pair of special parts, on each of the three call shapes the
        # package routes to ``_cmul``, with the first ``limit`` of them as
        # the vector operands: none (empty vectors, and a 0 x 0 outer
        # product) or all
        parts = [0.0, -0.0, 1.5, -2.25, 1e308, -5e-324, math.inf, -math.inf, math.nan, -math.nan]
        special = [complex(x, y) for x in parts for y in parts]
        values = special[:limit]
        a = vector(values)
        with np.errstate(over="ignore", invalid="ignore"):
            for c in special:
                out = qoperator._cmul(c, a)
                assert out.shape == (len(values),)
                assert parts_bits(out.tolist()) == parts_bits(c * z for z in values)
            rolled = np.roll(a, 7)
            out = qoperator._cmul(a, rolled)
            assert out.shape == (len(values),)
            assert parts_bits(out.tolist()) == parts_bits(
                x * y for x, y in zip(values, rolled.tolist())
            )
            outer = qoperator._cmul(a[:, None], a[None, :])
            assert outer.shape == (len(values), len(values))
            want = parts_bits(x * y for x, y in itertools.product(values, repeat=2))
            assert parts_bits(outer.reshape(-1).tolist()) == want


def reference_to_json(op: TensorOperator) -> dict:
    """The operator's JSON object built entry by entry from the factor
    table, as ``operator_to_json`` built it before the text encoder: the
    oracle of ``operator_json_text``."""

    def pair(z: complex) -> list[float]:
        return [float(z.real), float(z.imag)]

    def entry(tid: int) -> object:
        if not tid:
            return "I"
        amps = [pair(z) for z in FACTORS.amps[tid, : FACTORS.dims[tid]].tolist()]
        return {"delta": FACTORS.deltas[tid].item(), "amps": amps}

    terms = [
        {"scalar": pair(scalar), "factors": [entry(tid) for tid in row]}
        for scalar, row in zip(op.scalars.tolist(), op.ids.tolist())
    ]
    return {"f": op.f, "dim": op.dim, "terms": terms}


# finite parts, subnormals and signed zeros included: what an amplitude may hold
finite_parts = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e-310]
)
scalar_parts = any_parts | st.sampled_from([5e-324, -2.5e-320, 1e-310])


class TestJsonText:
    """``operator_json_text`` against ``json.dumps`` of the reference dict
    with sorted keys, character for character."""

    @staticmethod
    def json_read_factor(amps: list[complex], delta: int) -> int:
        """The id of an untagged factor read from a one-term JSON operator."""
        dim = len(amps)
        entry = {"delta": delta, "amps": [[z.real, z.imag] for z in amps]}
        data = {"f": 1, "dim": dim, "terms": [{"scalar": [1.0, 0.0], "factors": [entry]}]}
        return int(operator_from_json(json.loads(json.dumps(data))).ids[0, 0])

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(0, 3),
        st.integers(2, 4),
        st.lists(st.builds(complex, scalar_parts, scalar_parts), max_size=5),
        st.lists(st.builds(complex, finite_parts, finite_parts), min_size=4, max_size=4),
    )
    def test_text_is_json_dumps_of_the_reference(self, seed, f, dim, scalars, amps):
        rng = np.random.default_rng(seed)
        delta = int(rng.integers(-(dim - 1), dim))
        # amplitudes beyond the truncation for the shift must be zero
        amps = [z if 0 <= c + delta < dim else 0j for c, z in enumerate(amps[:dim])]
        choices = [0, FACTORS.intern(tag_word(rng, dim)), self.json_read_factor(amps, delta)]
        ids = [[choices[int(rng.integers(3))] for _ in range(f)] for _ in scalars]
        if scalars and rng.random() < 0.5:
            ids[0] = [0] * f
        op = TensorOperator.from_ids(f, dim, scalars, ids)
        text = qoperator.operator_json_text(op)
        assert text == json.dumps(reference_to_json(op), sort_keys=True)
        assert operator_to_json(op) == json.loads(text)

    @pytest.mark.parametrize(
        "op",
        [
            TensorOperator.zero(2, 3),
            TensorOperator.zero(0, 2),
            TensorOperator.identity(3, 4),
            TensorOperator.identity(0, 2),
            TensorOperator.from_ids(1, 2, [math.nan, -math.inf, -0.0, 5e-324j], [[0]] * 4),
        ],
        ids=["zero", "zero-f0", "identity", "identity-f0", "specials"],
    )
    def test_edge_operators(self, op):
        text = qoperator.operator_json_text(op)
        assert text == json.dumps(reference_to_json(op), sort_keys=True)

    def test_factor_text_is_kept_per_id(self):
        op = single(2.0, [t_block(1, 2, Q, 3), None, t_block(1, 2, Q, 3)], dim=3)
        tid = int(op.ids[0, 0])
        first = qoperator.operator_json_text(op)
        kept = FACTORS.json[tid]
        assert kept is not None and f"[{kept}, \"I\", {kept}]" in first
        assert qoperator.operator_json_text(op) == first
        assert FACTORS.json[tid] is kept


class TestWeightedShiftOracle:
    """The factor algebra in (delta, amps) form against dense matrices."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5), st.integers(2, 4))
    def test_products_match_dense(self, seed, dim, length):
        # chains of up to four factors reach offsets beyond the truncation
        rng = np.random.default_rng(seed)
        chain = [weighted_shift(rng, dim) for _ in range(length)]
        product, dense = chain[0], chain[0].entries
        for G in chain[1:]:
            product, dense = factor_product(product, G), dense @ G.entries
            assert np.allclose(product.entries, dense, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 5))
    def test_adjoint_norm_and_round_trip(self, seed, dim):
        rng = np.random.default_rng(seed)
        delta = int(rng.integers(-(dim - 1), dim))
        diagonal = rng.standard_normal(dim - abs(delta)) + 1j * rng.standard_normal(
            dim - abs(delta)
        )
        dense = np.diag(diagonal, k=-delta)
        amps = np.zeros(dim, dtype=complex)
        amps[max(-delta, 0) : max(-delta, 0) + diagonal.size] = diagonal
        F = FactorMatrix(delta, amps)
        assert np.array_equal(F.entries, dense)
        assert np.array_equal(factor_adjoint(F).entries, dense.conj().T)
        op = single(1.0, [F], dim=dim)
        assert norm_bound(op) == pytest.approx(np.linalg.norm(dense, 2), rel=1e-12)
        data = json.loads(json.dumps(operator_to_json(op)))
        if dim < 2:
            # the JSON boundary, like every truncation check, asks for 2 levels
            with pytest.raises(ValueError, match="at least 2"):
                operator_from_json(data)
            return
        (back,) = operator_from_json(data).terms[0].factors
        assert back.delta == F.delta and np.array_equal(back.amps, F.amps)

    def test_primitives_in_closed_form(self):
        # the corner blocks against their defining dense products
        S = np.diag(np.ones(N - 1), k=-1)
        C = np.diag(np.sqrt(1 - Q ** (2.0 * np.arange(N))))
        D = np.diag(Q ** np.arange(N, dtype=float))
        assert np.array_equal(shift(N).entries, S)
        assert np.array_equal(t_block(1, 1, Q, N).entries, S.T @ C)
        assert np.array_equal(t_block(1, 2, Q, N).entries, -Q * D)
        assert np.array_equal(t_block(2, 1, Q, N).entries, D)
        assert np.array_equal(t_block(2, 2, Q, N).entries, C @ S)

    def test_amplitudes_beyond_truncation_rejected(self):
        with pytest.raises(ValueError):
            FactorMatrix(1, [1.0, 1.0, 1.0])  # e_2 would map to e_3
        with pytest.raises(ValueError):
            FactorMatrix(-1, [1.0, 1.0, 0.0])  # e_0 would map to e_{-1}
        with pytest.raises(ValueError):
            FactorMatrix(0, [1.0, np.inf])
        assert not np.any(FactorMatrix(5, np.zeros(3)).entries)

    def test_entries_read_only(self):
        with pytest.raises(ValueError):
            t_block(1, 1, Q, N).entries[0, 1] = 2.0

    def test_non_integer_shift_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            FactorMatrix(-0.5, [1.0, 1.0, 1.0])
        assert FactorMatrix(np.int64(-1), [0.0, 1.0, 1.0]).delta == -1

    def test_non_weighted_shift_input_rejected(self):
        one = [1.0, 0.0]
        malformed = [
            {"delta": 0, "amps": [one, [float("nan"), 0.0], one]},
            {"delta": 1, "amps": [one, one, one]},  # e_2 would map to e_3
            {"delta": -0.5, "amps": [one, one, one]},
            {"delta": 0, "amps": [one, one]},  # dim is 3
            [[one, [0.0, 0.0], [0.0, 0.0]]] * 3,  # dense rows, the old format
            {"amps": [one, one, one]},
            {"delta": 0, "amps": [[1.0], one, one]},
        ]
        for entry in malformed:
            data = operator_to_json(single(1.0, [t_block(2, 1, Q, 3)], dim=3))
            data["terms"][0]["factors"][0] = entry
            with pytest.raises(ValueError):
                operator_from_json(json.loads(json.dumps(data)))
        for key, value in (("f", 1.5), ("dim", "3")):
            data = operator_to_json(single(1.0, [t_block(2, 1, Q, 3)], dim=3))
            data[key] = value
            with pytest.raises(ValueError):
                operator_from_json(data)

    @pytest.mark.parametrize(
        "f, dim, scalar, factors, message",
        [
            (-1, 3, None, None, "f must be at least 0"),
            (1, 0, None, None, "at least 2"),
            (1, -2, [1.0, 0.0], ["I"], "at least 2"),
            (1, 3, [float("nan"), 0.0], ["I"], "finite"),
            (0, 3, [0.0, float("inf")], [], "finite"),
            (1, 3, [1.0, 0.0], [0], '"I" or an object'),
            (1, 3, [1.0, 0.0], [None], '"I" or an object'),
            (1, 3, [1.0, 0.0], [["I"]], '"I" or an object'),
            (2, 3, [1.0, 0.0], ["I"], "1 factors, operator has f=2"),
            (1, 3, [1.0, 0.0], ["I", "I"], "2 factors, operator has f=1"),
            (1, 3, [1.0, 0.0], [{"delta": 2**63, "amps": [[0.0, 0.0]] * 3}], "2\\^31"),
            (1, 3, [1.0, 0.0], [{"delta": -(2**63) - 1, "amps": [[0.0, 0.0]] * 3}], "2\\^31"),
            (True, 3, None, None, "factor count f must be a number, got true"),
            (1, True, None, None, "truncation level must be a number, got true"),
            (1, 3, [True, 0.0], ["I"], "real part must be a number, got true"),
            (1, 3, [1.0, 0.0], [{"delta": True, "amps": [[0.0, 0.0]] * 3}],
             "shift must be a number, got true"),
            (1, 3, [1.0, 0.0], [{"delta": 0, "amps": [[1.0, False]] * 3}],
             "imaginary part must be a number, got false"),
        ],
        ids=[
            "negative-f",
            "dim-0",
            "negative-dim",
            "nan-scalar",
            "inf-scalar",
            "number-factor",
            "null-factor",
            "list-factor",
            "too-few-factors",
            "too-many-factors",
            "delta-2^63",
            "delta-below--2^63",
            "boolean-f",
            "boolean-dim",
            "boolean-scalar",
            "boolean-delta",
            "boolean-amplitude",
        ],
    )
    def test_json_boundary_rejects(self, f, dim, scalar, factors, message):
        terms = [] if scalar is None else [{"scalar": scalar, "factors": factors}]
        with pytest.raises(ValueError, match=message):
            operator_from_json({"f": f, "dim": dim, "terms": terms})

    def test_rejected_json_interns_no_factor(self, monkeypatch):
        # the first term is valid and the second is not: nothing is interned
        table = FactorTable()
        monkeypatch.setattr(qoperator, "FACTORS", table)
        entry = {"delta": 0, "amps": [[0.25, 0.0], [0.5, 0.0], [0.75, 0.0]]}
        terms = [
            {"scalar": [1.0, 0.0], "factors": [entry]},
            {"scalar": [float("nan"), 0.0], "factors": ["I"]},
        ]
        with pytest.raises(ValueError, match="finite"):
            operator_from_json({"f": 1, "dim": 3, "terms": terms})
        assert len(table) == 1
        assert operator_from_json({"f": 1, "dim": 3, "terms": terms[:1]}).ids.tolist() == [[1]]


class TestNormBound:
    def test_identity_and_zero(self):
        assert norm_bound(TensorOperator.identity(3, N)) == 1.0
        assert norm_bound(TensorOperator.zero(3, N)) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10_000), st.integers(1, 3), st.integers(2, 4), st.integers(1, 3)
    )
    def test_sandwiches_dense_norm(self, seed, f, dim, n_terms):
        # norm_estimate <= ||op|| <= norm_bound, with equality on the right
        # for one elementary tensor
        op = random_operator(np.random.default_rng(seed), f, dim, n_terms)
        exact = float(np.linalg.norm(dense_matrix(op), 2))
        bound = norm_bound(op)
        assert norm_estimate(op) <= exact * (1.0 + 1e-9)
        assert exact <= bound * (1.0 + 1e-12)
        if n_terms == 1:
            assert bound == pytest.approx(exact, rel=1e-12)


class TestResidualDenseOracle:
    """Brute-force cross-check of the window residual: build the full matrix,
    take the max norm over window columns, compare."""

    def _window_max(self, a, b, d):
        D = dense_matrix(a) - dense_matrix(b)
        W = a.dim - d
        worst = 0.0
        for m in itertools.product(range(W), repeat=a.f):
            col = 0
            for idx in m:
                col = col * a.dim + idx
            worst = max(worst, float(np.linalg.norm(D[:, col])))
        return worst

    def test_corner_block_mixture(self):
        a = (
            single(0.7, [t_block(2, 2, Q, N), t_block(1, 1, Q, N)])
            + single(-1.2j, [t_block(1, 2, Q, N), None])
            + single(0.3, [None, t_block(2, 1, Q, N)])
        )
        b = single(1.0, [t_block(2, 1, Q, N), t_block(1, 2, Q, N)])
        for d in (1, 2):
            assert residual_on_window(a, b, d) == pytest.approx(
                self._window_max(a, b, d), abs=1e-13
            )

    def test_products_of_blocks(self):
        a = single(1.0, [t_block(1, 1, Q, N), t_block(2, 2, Q, N)]) * single(
            1.0, [t_block(2, 2, Q, N), t_block(1, 1, Q, N)]
        )
        b = single(Q**2, [t_block(2, 2, Q, N), None]) * single(
            1.0, [t_block(1, 1, Q, N), t_block(1, 2, Q, N)]
        )
        assert residual_on_window(a, b, 2) == pytest.approx(
            self._window_max(a, b, 2), abs=1e-13
        )

    def test_real_relation_instance(self):
        # exchange relation of the 2x2 vacuum representation, both sides
        from qmatball.matrixball import _Products, fock_rep
        from qmatball.relations import zaa4_case_coefficients

        g = fock_rep(2, Q, 5)
        lhs = g.gen(1, 1).adjoint() * g.gen(1, 1)
        case = zaa4_case_coefficients(2, 1, 1, 1, 1)
        rhs = _Products(g).side([(c, word) for word, c in case.items()])
        got = residual_on_window(lhs, rhs, 2)
        want = self._window_max(lhs, rhs, 2)
        assert got == pytest.approx(want, abs=1e-13)
        assert got < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10_000), st.integers(1, 3), st.integers(2, 4), st.integers(1, 3)
    )
    def test_random_weighted_shifts(self, seed, f, dim, d):
        # terms on a few shared shift vectors, so that a class holds several
        # terms; d = dim - 1 leaves a window of size 1.  By default every
        # block here is scattered whole; a chunk of one element adds the
        # terms one at a time, which must give the same bits.
        rng = np.random.default_rng(seed)
        shifts = random_shift_vectors(rng, f, dim, int(rng.integers(1, 4)))
        a = operator_on_shifts(rng, dim, shifts, int(rng.integers(1, 7)))
        b = operator_on_shifts(rng, dim, shifts, int(rng.integers(1, 7)))
        d = min(d, dim - 1)
        scattered = residual_on_window(a, b, d)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qoperator, "_CHUNK_ELEMENTS", 1)
            term_by_term = residual_on_window(a, b, d)
        assert scattered == term_by_term
        assert scattered == pytest.approx(
            self._window_max(a, b, d), rel=1e-12, abs=1e-13
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10_000), st.integers(2, 3), st.integers(3, 6), st.integers(1, 2)
    )
    def test_class_by_class_matches_scatter(self, seed, f, dim, d):
        # 24 to 48 terms on one to three shift vectors, so that a class holds
        # many terms.  Chunks of one element, of two blocks of the whole
        # window and the default split classes across chunks (the default
        # may scatter a small call whole); a chunk of 2^30 always scatters.
        rng = np.random.default_rng(seed)
        shifts = random_shift_vectors(rng, f, dim, int(rng.integers(1, 4)))
        a = operator_on_shifts(rng, dim, shifts, int(rng.integers(12, 25)))
        b = operator_on_shifts(rng, dim, shifts, int(rng.integers(12, 25)))
        d = min(d, dim - 1)
        width = (dim - d) ** f
        got = {}
        for chunk in (1, 2 * width + 1, qoperator._CHUNK_ELEMENTS, 1 << 30):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(qoperator, "_CHUNK_ELEMENTS", chunk)
                got[chunk] = residual_on_window(a, b, d).hex()
        assert len(set(got.values())) == 1, got
        assert float.fromhex(got[1]) == pytest.approx(
            self._window_max(a, b, d), rel=1e-12, abs=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10_000), st.integers(1, 3), st.integers(2, 5), st.integers(1, 4)
    )
    def test_terms_that_vanish_on_the_window_change_nothing(self, seed, f, dim, d):
        # terms with a factor that is zero on every column below the window
        # (a weighted shift with its leading amplitudes zeroed, or T11 T11 at
        # a window of at most 2), put anywhere on either side, are dropped
        # before anything is built: the bits stay, term by term and scattered
        rng = np.random.default_rng(seed)
        d = min(d, dim - 1)
        window = dim - d
        a = random_operator(rng, f, dim, int(rng.integers(1, 6)))
        b = random_operator(rng, f, dim, int(rng.integers(1, 6)))

        def vanishing_factor():
            if window <= 2 and rng.random() < 0.5:
                t11 = t_block(1, 1, float(rng.choice([0.3, 0.5])), dim)
                return factor_product(t11, t11)
            F = weighted_shift(rng, dim)
            amps = F.amps.copy()
            amps[: window + int(rng.integers(0, dim - window + 1))] = 0.0
            return FactorMatrix(F.delta, amps)

        def with_vanishing(op):
            terms = list(op.terms)
            for _ in range(int(rng.integers(1, 4))):
                factors = [
                    None if rng.random() < 0.5 else weighted_shift(rng, dim) for _ in range(f)
                ]
                factors[int(rng.integers(f))] = vanishing_factor()
                scalar = complex(rng.standard_normal(), rng.standard_normal())
                terms.insert(int(rng.integers(len(terms) + 1)), TensorTerm(scalar, factors))
            return from_terms(f, dim, terms)

        a2, b2 = with_vanishing(a), with_vanishing(b)
        for chunk in (1, qoperator._CHUNK_ELEMENTS):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(qoperator, "_CHUNK_ELEMENTS", chunk)
                want = residual_on_window(a, b, d).hex()
                assert residual_on_window(a2, b, d).hex() == want, chunk
                assert residual_on_window(a, b2, d).hex() == want, chunk
                assert residual_on_window(a2, b2, d).hex() == want, chunk
        assert float.fromhex(want) == pytest.approx(
            self._window_max(a2, b2, d), rel=1e-12, abs=1e-12
        )

    def test_classes_on_different_axes_match_dense(self):
        # window 3 on three axes, classes on different sets of axes, each
        # factor with its own amplitudes: term by term, each class's squares
        # are broadcast over the axes it does not use, in the block layout
        rng = np.random.default_rng(5)
        dim, d = 4, 1
        terms = []
        for axes in ((0,), (0, 1), (1, 2), (0, 2), (2,), (0, 1, 2)):
            for _ in range(2):
                factors = tuple(
                    weighted_shift(rng, dim, 1 + axis % 2) if axis in axes else None
                    for axis in range(3)
                )
                terms.append(TensorTerm(complex(rng.standard_normal(), 1.0), factors))
        a = from_terms(3, dim, terms)
        b = TensorOperator.identity(3, dim).scale(0.5)
        got = {}
        for chunk in (1, 28, qoperator._CHUNK_ELEMENTS):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(qoperator, "_CHUNK_ELEMENTS", chunk)
                got[chunk] = residual_on_window(a, b, d).hex()
        assert len(set(got.values())) == 1, got
        assert float.fromhex(got[1]) == pytest.approx(
            self._window_max(a, b, d), rel=1e-12, abs=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10_000), st.integers(1, 4), st.integers(2, 5), st.integers(1, 3)
    )
    def test_products_of_tag_words(self, seed, f, dim, d):
        # products reach the residual through the id table; the terms share
        # factor ids and shift classes
        rng = np.random.default_rng(seed)
        a = random_operator(rng, f, dim, 2, tag_word) * random_operator(
            rng, f, dim, 2, tag_word
        )
        b = random_operator(rng, f, dim, 3, tag_word)
        d = min(d, dim - 1)
        assert residual_on_window(a, b, d) == pytest.approx(
            self._window_max(a, b, d), rel=1e-12, abs=1e-13
        )


def leading_zeros(rng, dim):
    """A weighted shift whose first nonzero column varies: a random number
    of leading amplitudes, and now and then all of them, set to zero."""
    F = weighted_shift(rng, dim)
    amps = F.amps.copy()
    amps[: int(rng.integers(0, dim + 1))] = 0.0
    return FactorMatrix(F.delta, amps)


def operator_with_zeros(rng, f, dim, n_terms):
    """``random_operator`` with ``leading_zeros`` factors and a zero scalar
    now and then."""
    op = random_operator(rng, f, dim, n_terms, factor=leading_zeros)
    scalars = np.where(rng.random(n_terms) < 0.2, 0.0, op.scalars)
    return TensorOperator.from_ids(f, dim, scalars, op.ids)


def reference_residual(a, b, d):
    """The window residual as the kernel computed it before it skipped the
    shift classes that cancel: every live class is built, summed in term
    order, squared and added in class order.  The path is picked by
    ``qoperator._CHUNK_ELEMENTS`` as the kernel picks it; the class-by-class
    path builds a class's terms all at once, which gives the bits of any
    chunking, since each term's block and the order of the adds stay the
    same.  No limit is checked."""
    window = a.dim - d
    scalars = np.concatenate((a.scalars, -b.scalars))
    ids = np.concatenate((a.ids, b.ids))
    live = qoperator._live_on_window(scalars, ids, window)
    if not live.any():
        return 0.0
    scalars, ids = scalars[live], ids[live]
    ids = ids[:, ids.any(axis=0)]
    if not ids.shape[1]:
        return abs(sum(scalars.tolist(), 0j))
    terms, axes = ids.shape
    classes, count = qoperator._shift_classes(FACTORS.deltas[ids])
    if terms * window**axes <= qoperator._CHUNK_ELEMENTS:
        block = qoperator._term_blocks(scalars, ids, window)
        square = np.square(np.abs(qoperator._scatter_by_class(block, classes, count)))
        for row in range(1, count):
            np.add(square[row - 1], square[row], out=square[row])
        return float(np.sqrt(square[-1].max()))
    total = np.zeros((window,) * axes)
    for key in range(count):
        rows = [term for term, k in enumerate(classes) if k == key]
        use = ids[rows].any(axis=0)
        block = qoperator._term_blocks(scalars[rows], ids[rows][:, use], window)
        for row in range(1, len(block)):
            np.add(block[row - 1], block[row], out=block[row])
        square = np.square(np.abs(block[-1]))
        total += square.reshape([window if u else 1 for u in reversed(use.tolist())])
    return float(np.sqrt(total.max()))


def residual_on_both_paths(a, b, d):
    """``float.hex`` of the residual and of ``reference_residual``, with every
    block scattered whole and with every class summed on its own."""
    got = []
    for chunk in (1 << 30, 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qoperator, "_CHUNK_ELEMENTS", chunk)
            with np.errstate(all="ignore"):
                got.append((residual_on_window(a, b, d).hex(), reference_residual(a, b, d).hex()))
    return got


# amplitudes: exact, inexact, complex, and one near 1e200
_AMPS = [0.0, 1.0, 0.5, -0.75, 0.1, 1 / 3, 0.6 - 0.8j, 2j, 1e200]
# amplitudes of a factor whose blocks overflow on two axes
_HUGE = [1e200, -3e199 + 1e199j]
# scalars: exact, inexact, complex, huge and not finite
_SCALARS = [1.0, -1.0, 0.5, 0.1 + 0.2j, -2j, 1e200, np.inf, -np.inf, np.nan, complex(0, np.nan)]


def relabelled(F, tag, tail):
    """``F`` with the provenance ``(tag,)``, so another id, and with its
    amplitudes from column ``tail`` on scaled by 3 where the truncation
    lets them be nonzero: equal to ``F`` on any window of at most ``tail``."""
    amps = np.array(F.amps)
    amps[tail:] *= 3
    return FactorMatrix(F.delta, amps, (tag,))


class TestResidualSkips:
    """The residual skips a shift class that sums to zero, and, on the
    class-by-class path, a two-term class whose terms cancel exactly,
    without building it.  Both must keep every bit of the residual that
    builds, squares and adds every class, ``reference_residual``."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_bits_as_the_reference(self, data):
        # b holds copies of terms of a whose factors are the same amplitudes
        # under other tags, or the same up to a column that may lie inside
        # the window or beyond it, with the same scalar (an opposite pair in
        # a - b) or half of it; a and b also hold T11 T12 and T12 T11, which
        # q = 0.5 relates exactly, and b holds fresh terms
        f = data.draw(st.integers(1, 3), "f")
        dim = data.draw(st.integers(2, 4), "dim")
        d = data.draw(st.integers(0, dim - 1), "d")
        window = dim - d
        pool = []
        for _ in range(data.draw(st.integers(1, 3), "factors")):
            delta = data.draw(st.integers(-(dim - 1), dim - 1))
            values = st.sampled_from(_HUGE if data.draw(st.booleans(), "huge") else _AMPS)
            amps = np.array(data.draw(st.lists(values, min_size=dim, max_size=dim)))
            # zero the columns that a shift by delta moves out of the truncation
            amps[max(dim - delta, 0) :] = 0
            amps[: max(-delta, 0)] = 0
            F = FactorMatrix(delta, amps, ("F",))
            tail = data.draw(st.integers(0, dim), "tail")
            pool.append((F, relabelled(F, "G", dim), relabelled(F, "H", tail)))
        t11, t12 = t_block(1, 1, Q, dim), t_block(1, 2, Q, dim)
        pool.append((factor_product(t11, t12), factor_product(t12, t11), None))
        slots = st.sampled_from([None] + list(range(len(pool))))
        scalars = st.sampled_from(_SCALARS)
        a_terms, b_terms = [], []
        for _ in range(data.draw(st.integers(1, 4), "terms of a")):
            picks = [data.draw(slots) for _ in range(f)]
            scalar = data.draw(scalars)
            factors = tuple(None if p is None else pool[p][0] for p in picks)
            a_terms.append(TensorTerm(scalar, factors))
            how = data.draw(st.sampled_from(["twin", "tail", "half", "none"]))
            if how == "none":
                continue
            partners = []
            for p in picks:
                if p is None:
                    partners.append(None)
                elif pool[p][2] is None:
                    # q T12 T11 = T11 T12, and q = 0.5 scales exactly
                    partners.append(pool[p][1])
                    scalar = scalar * Q
                else:
                    partners.append(pool[p][2] if how == "tail" else pool[p][1])
            if how == "half":
                scalar = scalar * 0.5
            b_terms.append(TensorTerm(scalar, tuple(partners)))
        for _ in range(data.draw(st.integers(0, 2), "fresh terms of b")):
            picks = [data.draw(slots) for _ in range(f)]
            factors = tuple(None if p is None else pool[p][0] for p in picks)
            b_terms.append(TensorTerm(data.draw(scalars), factors))
        a, b = from_terms(f, dim, a_terms), from_terms(f, dim, b_terms)
        for got, want in residual_on_both_paths(a, b, d):
            assert got == want

    @staticmethod
    def _huge(value, tag):
        return FactorMatrix(0, np.full(N, value), (tag,))

    @pytest.mark.parametrize(
        "case, want",
        [
            # 1e200 on each of two axes: 1e400 overflows, inf - inf is NaN,
            # and a NaN must not be skipped as a cancelling pair
            ("overflow", "NaN"),
            # 1e200, 1e200, then 1e-300: the product of the three stays
            # below 2^900, but the block builder overflows on the second axis
            ("overflow before a small axis", "NaN"),
            # an infinite scalar and its opposite: inf - inf
            ("infinite scalar", "NaN"),
            # NaN is not the opposite of NaN, and a NaN sum is nonzero
            ("NaN scalar", "NaN"),
            # equal on a window of 5, different beyond it: a pair all the
            # same, and only the other class is left
            ("differ beyond the window", "the other class"),
            # different on the last column of the window: no pair
            ("differ inside the window", "more"),
        ],
    )
    def test_pairs_that_must_not_or_may_be_skipped(self, case, want):
        t22 = t_block(2, 2, Q, N)
        extra = single(0.25, [t22, None, None])
        s = {"infinite scalar": np.inf, "NaN scalar": np.nan}.get(case, 1.0)
        if case == "overflow":
            left = [self._huge(1e200, "A"), self._huge(1e200, "A"), None]
            right = [self._huge(1e200, "B"), self._huge(1e200, "B"), None]
        elif case == "overflow before a small axis":
            left = [self._huge(1e200, "A"), self._huge(1e200, "A"), self._huge(1e-300, "A")]
            right = [self._huge(1e200, "B"), self._huge(1e200, "B"), self._huge(1e-300, "B")]
        elif case.startswith("differ"):
            F = FactorMatrix(0, np.arange(1.0, N + 1), ("A",))
            tail = N - 1 if case == "differ beyond the window" else N - 2
            left, right = [F, F, None], [relabelled(F, "B", tail), F, None]
        else:
            left = right = [t_block(1, 2, Q, N), t_block(2, 1, Q, N), None]
        a = single(s, left) + extra
        b = single(s, right)
        alone = residual_on_window(extra, zero_like(extra), 1)
        for got, reference in residual_on_both_paths(a, b, 1):
            assert got == reference
            got = float.fromhex(got)
            if want == "NaN":
                assert np.isnan(got)
            elif want == "the other class":
                assert got == alone
            else:
                assert got > alone

    @pytest.mark.parametrize("path", ["scatter", "classes"])
    def test_opposite_pair_of_other_tags_builds_nothing(self, monkeypatch, path):
        # T12 T21 and T21 T12 have the same amplitudes under different tags,
        # so the first class is an opposite pair: the class-by-class path
        # skips it unbuilt, the scatter path builds it and skips its zero sum
        t11, t12, t21 = t_block(1, 1, Q, N), t_block(1, 2, Q, N), t_block(2, 1, Q, N)
        x, y = factor_product(t12, t21), factor_product(t21, t12)
        a = single(0.3, [x, t21, x]) + single(1.0, [t11, None, None])
        b = single(0.3, [y, t21, y])
        want = residual_on_window(single(1.0, [t11, None, None]), zero_like(a), 1)
        if path == "classes":
            monkeypatch.setattr(qoperator, "_CHUNK_ELEMENTS", 1)
        built = []
        term_blocks = qoperator._term_blocks

        def counted(scalars, ids, window):
            built.append(len(scalars))
            return term_blocks(scalars, ids, window)

        monkeypatch.setattr(qoperator, "_term_blocks", counted)
        assert residual_on_window(a, b, 1) == want > 0
        assert built == ([3] if path == "scatter" else [1])

    @pytest.mark.parametrize("chunk", [1, 1 << 30])
    def test_limits_count_the_classes_that_cancel(self, monkeypatch, chunk):
        # a cancelling pair is counted as if it did not cancel, so every
        # refusal and its message stay as they were
        t11, t12, t21 = t_block(1, 1, Q, N), t_block(1, 2, Q, N), t_block(2, 1, Q, N)
        a = single(0.3, [factor_product(t12, t21), t21, t11]) + single(1.0, [t11, None, None])
        cancelling = single(0.3, [factor_product(t21, t12), t21, t11])
        not_cancelling = single(0.25, [factor_product(t21, t12), t21, t11])
        monkeypatch.setattr(qoperator, "_CHUNK_ELEMENTS", chunk)
        for limit in ("MAX_RESIDUAL_ELEMENTS", "MAX_RESIDUAL_WORK"):
            messages = []
            with monkeypatch.context() as patch:
                patch.setattr(qoperator, limit, 0)
                for b in (cancelling, not_cancelling):
                    with pytest.raises(ValueError, match="more than the") as refused:
                        residual_on_window(a, b, 1)
                    messages.append(str(refused.value))
            assert messages[0] == messages[1], limit


class TestRestrict:
    """``restrict`` drops only terms that vanish on the window: a product
    with a restricted right operand gives the window residual the same bits
    as the full product, when the scalars are finite."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 3), st.integers(2, 5), st.integers(1, 4))
    def test_residual_of_restricted_product(self, seed, f, dim, d):
        rng = np.random.default_rng(seed)
        d = min(d, dim - 1)
        window = dim - d
        a, b, c = (operator_with_zeros(rng, f, dim, int(rng.integers(1, 6))) for _ in range(3))
        restricted = b.restrict(window)
        # b's terms in order, less those with a zero scalar or a factor
        # whose first ``window`` amplitudes are all zero
        dead = [
            t.scalar == 0 or any(F is not None and not F.amps[:window].any() for F in t.factors)
            for t in b.terms
        ]
        assert restricted.scalars.tolist() == [
            z for z, out in zip(b.scalars.tolist(), dead) if not out
        ]
        assert restricted.ids.tolist() == [row for row, out in zip(b.ids.tolist(), dead) if not out]
        if restricted.scalars.size == b.scalars.size:
            assert restricted is b
        full = residual_on_window(a * b, c, d)
        assert residual_on_window(a * restricted, c, d).hex() == full.hex()
        # and the restriction acts as b on every window column
        columns = [
            sum(m * dim**(f - 1 - axis) for axis, m in enumerate(index))
            for index in itertools.product(range(window), repeat=f)
        ]
        assert np.array_equal(dense_matrix(restricted)[:, columns], dense_matrix(b)[:, columns])

    def test_an_infinite_left_scalar_needs_the_full_product(self):
        # a term of b that is zero on the window, times an infinite scalar,
        # is NaN there, and the residual keeps it: restricting b would lose
        # the NaN, so products restrict only operands whose products with
        # every left term are finite (see matrixball._Products)
        dim, d = 4, 2
        dead = FactorMatrix(0, [0.0, 0.0, 1.0, 1.0])
        a = single(complex(np.inf, 0.0), [t_block(2, 1, Q, dim)], dim)
        b = single(1.0, [dead], dim)
        zero = TensorOperator.zero(1, dim)
        with np.errstate(invalid="ignore"):
            assert np.isnan(residual_on_window(a * b, zero, d))
        assert residual_on_window(a * b.restrict(dim - d), zero, d) == 0.0

    def test_no_term_dropped_returns_self(self):
        op = single(1.0, [t_block(1, 1, Q, N), None]) + single(0.5, [None, t_block(2, 2, Q, N)])
        # T11 kills e_0, so its term is dead on the vacuum and alive on any wider window
        assert op.restrict(2) is op and op.restrict(N) is op
        assert op.restrict(1).scalars.tolist() == [0.5]


class TestProductLimit:
    """A product whose scalars and id lookup would hold more than
    ``MAX_PRODUCT_BYTES`` is refused before any of it is allocated."""

    def operands(self):
        a = single(0.5, [t_block(1, 1, Q, N), None]) + single(2.0, [None, t_block(2, 2, Q, N)])
        b = single(1.0j, [t_block(1, 2, Q, N), t_block(2, 1, Q, N)])
        # 2 x 1 pairs of terms on 2 axes
        return a, b, 2 * (qoperator._PRODUCT_PAIR_BYTES + qoperator._PRODUCT_ID_BYTES * 2)

    def test_refused_one_byte_past_the_limit(self, monkeypatch):
        table = FactorTable()
        monkeypatch.setattr(qoperator, "FACTORS", table)
        a, b, held = self.operands()
        monkeypatch.setattr(qoperator, "MAX_PRODUCT_BYTES", held - 1)
        stored = (len(table), table._pair_keys.size)
        message = f"product of 2 and 1 terms over 2 axes would hold {held} bytes"
        with pytest.raises(ValueError, match=message):
            a * b
        # nothing was looked up, so no pair or product factor was stored
        assert (len(table), table._pair_keys.size) == stored
        monkeypatch.setattr(qoperator, "MAX_PRODUCT_BYTES", held)
        assert (a * b).scalars.tolist() == [0.5j, 2.0j]

    def test_a_product_holds_no_more_than_it_counts(self, monkeypatch, rng):
        # terms over the four corner blocks, with the identity and without
        # it, so every element's pair is unmet on the first product, and
        # few pairs are distinct; without the identity every pair is
        # looked up, the lookup's worst case
        for (terms, f), identity in itertools.product([(60, 36), (200, 1)], [[0], []]):
            table = FactorTable()
            monkeypatch.setattr(qoperator, "FACTORS", table)
            blocks = [t_block(i, j, Q, N) for i in (1, 2) for j in (1, 2)]
            pool = np.array(identity + [table.intern(F) for F in blocks])
            a, b = (
                TensorOperator._of(
                    f,
                    N,
                    rng.standard_normal(terms) + 1j * rng.standard_normal(terms),
                    rng.choice(pool, size=(terms, f)).astype(np.int32),
                )
                for _ in range(2)
            )
            per_pair = qoperator._PRODUCT_PAIR_BYTES + qoperator._PRODUCT_ID_BYTES * f
            counted = terms * terms * per_pair
            # the first product meets its pairs, the second finds them all
            for _ in range(2):
                tracemalloc.start()
                try:
                    a * b
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak <= counted

    def test_an_empty_product_holds_nothing(self, monkeypatch):
        a, _, _ = self.operands()
        monkeypatch.setattr(qoperator, "MAX_PRODUCT_BYTES", 0)
        assert (a * zero_like(a)).scalars.size == 0
        with pytest.raises(ValueError, match="more than the limit 0"):
            a * a


def shift_operator(rng, f, dim, scalars):
    """One term per scalar, each on f random untagged weighted shifts
    (random shifts, about a third of the amplitudes zeroed, a quarter of
    the factors the identity), interned in ``FACTORS`` as it is at call
    time; no two built factors share an id."""
    rows = []
    for _ in scalars:
        row = []
        for _ in range(f):
            if rng.random() < 0.25:
                row.append(0)
                continue
            F = weighted_shift(rng, dim)
            amps = np.where(rng.random(dim) < 0.3, 0, F.amps)
            row.append(qoperator.FACTORS.intern(FactorMatrix(F.delta, amps)))
        rows.append(row)
    ids = np.array(rows, dtype=np.int32).reshape(len(scalars), f)
    return TensorOperator.from_ids(f, dim, scalars, ids)


def gaussian(rng, count):
    return (rng.standard_normal(count) + 1j * rng.standard_normal(count)).tolist()


class TestOperatorProducts:
    """``operator_products``, the one product code path, against each pair
    multiplied alone: scalars with the bits of CPython's ``x * y`` in term
    order, ids those of a one-pair ``FactorTable.products`` lookup, and
    values those of the dense Kronecker matrices."""

    @staticmethod
    def check(a, b, product, dense=False):
        assert (product.f, product.dim) == (a.f, a.dim)
        with np.errstate(over="ignore", invalid="ignore"):
            pairs = itertools.product(a.scalars.tolist(), b.scalars.tolist())
            assert parts_bits(product.scalars.tolist()) == parts_bits(x * y for x, y in pairs)
        lookup = qoperator.FACTORS.products(a.ids[:, None, :], b.ids[None, :, :])
        assert product.ids.dtype == np.int32
        assert product.ids.tolist() == lookup.reshape(product.scalars.size, a.f).tolist()
        assert not (product.scalars.flags.writeable or product.ids.flags.writeable)
        if dense:
            want = dense_matrix(a) @ dense_matrix(b)
            assert np.allclose(dense_matrix(product), want, rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(0, 3),
        st.integers(2, 4),
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=6),
        st.lists(any_complexes, min_size=40, max_size=40),
    )
    def test_each_product_has_the_bits_of_its_pair(self, seed, f, dim, shapes, drawn):
        # every float for a scalar, non-finite and signed zeros included
        rng = np.random.default_rng(seed)
        values = itertools.cycle(drawn)
        pairs = [
            tuple(shift_operator(rng, f, dim, [next(values) for _ in range(k)]) for k in shape)
            for shape in shapes
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            products = operator_products(pairs)
        assert len(products) == len(pairs)
        for (a, b), product in zip(pairs, products):
            self.check(a, b, product)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(1, 3),
        st.integers(2, 4),
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=4),
    )
    def test_dense_values_are_the_matrix_products(self, seed, f, dim, shapes):
        rng = np.random.default_rng(seed)
        pairs = [
            tuple(shift_operator(rng, f, dim, gaussian(rng, k)) for k in shape)
            for shape in shapes
        ]
        for (a, b), product in zip(pairs, operator_products(pairs)):
            self.check(a, b, product, dense=True)

    def test_edge_lists(self):
        # empty operands, one term, and lists of 32 and 33 one-term pairs,
        # each product alone and in its list
        rng = np.random.default_rng(4)
        one = shift_operator(rng, 2, 3, [2.0 - 1.5j])
        empty = TensorOperator.zero(2, 3)
        ops = {k: shift_operator(rng, 2, 3, gaussian(rng, k)) for k in (3, 4, 8, 11)}
        lists = [
            [(ops[3], empty), (empty, ops[3]), (empty, empty)],
            [(one, one)],
            [(one, ops[3]), (empty, one), (ops[3], one)],
            [(ops[4], ops[8])],
            [(ops[3], ops[11])],
            [(ops[4], ops[8]), (empty, ops[3])],
            [(ops[3], ops[11]), (one, empty)],
            [(one, one)] * LIMIT,
            [(one, one)] * (LIMIT + 1),
        ]
        for pairs in lists:
            for (a, b), product in zip(pairs, operator_products(pairs), strict=True):
                self.check(a, b, product, dense=True)
                # the list of one pair is the product
                alone = a * b
                assert alone.scalars.tobytes() == product.scalars.tobytes()
                assert alone.ids.tobytes() == product.ids.tobytes()
        assert operator_products([]) == []

    def test_special_scalars(self):
        # every pair of special parts, one pair of 100-term operators and
        # 100 pairs of one-term operators
        parts = [0.0, -0.0, 1.5, -2.25, 1e308, -5e-324, math.inf, -math.inf, math.nan, -math.nan]
        values = [complex(x, y) for x in parts for y in parts]
        ops = [TensorOperator.from_ids(1, 2, [z], [[0]]) for z in values]
        whole = TensorOperator.from_ids(1, 2, values, np.zeros((100, 1)))
        pairs = [(whole, whole)] + list(zip(ops, reversed(ops)))
        with np.errstate(over="ignore", invalid="ignore"):
            products = operator_products(pairs)
        for (a, b), product in zip(pairs, products, strict=True):
            self.check(a, b, product)

    def test_new_factors_interned_in_ascending_key_order(self, monkeypatch):
        table = FactorTable()
        monkeypatch.setattr(qoperator, "FACTORS", table)
        rng = np.random.default_rng(6)
        ops = [shift_operator(rng, 2, 4, gaussian(rng, k)) for k in (3, 2, 4, 1)]
        pairs = [(ops[0], ops[1]), (ops[2], ops[0]), (ops[3], ops[2]), (ops[1], ops[1])]
        size = len(table)
        products = operator_products(pairs)
        grown = len(table)
        assert grown > size
        met = sorted(
            {
                (x, y)
                for a, b in pairs
                for row, column in itertools.product(a.ids.tolist(), b.ids.tolist())
                for x, y in zip(row, column)
                if x and y
            }
        )
        # one lookup over the whole list: each distinct pair of two factors
        # interned once, in ascending (left, right) order
        new = table.products(np.array([x for x, _ in met]), np.array([y for _, y in met]))
        assert list(dict.fromkeys(t for t in new.tolist() if t >= size)) == list(range(size, grown))
        assert len(table) == grown
        for (a, b), product in zip(pairs, products):
            self.check(a, b, product, dense=True)

    def test_refused_before_any_array(self, monkeypatch):
        # mixed shapes, in a pair or across pairs, and one pair over the
        # limit: nothing is allocated, looked up or interned
        table = FactorTable()
        monkeypatch.setattr(qoperator, "FACTORS", table)
        rng = np.random.default_rng(8)
        big = shift_operator(rng, 2, 4, gaussian(rng, 60))
        ops = {(f, dim): shift_operator(rng, f, dim, [1.0]) for f in (2, 3) for dim in (4, 5)}
        held = 60 * 60 * (qoperator._PRODUCT_PAIR_BYTES + qoperator._PRODUCT_ID_BYTES * 2)
        stored = (len(table), table._pair_keys.size)
        refusals = [
            ([(big, big), (ops[2, 4], ops[3, 4])], "shape mismatch: \\(2, 4\\) vs \\(3, 4\\)"),
            ([(big, big), (ops[2, 5], ops[2, 5])], "shape mismatch: \\(2, 4\\) vs \\(2, 5\\)"),
            ([(big, ops[2, 4]), (big, ops[2, 5])], "shape mismatch: \\(2, 4\\) vs \\(2, 5\\)"),
            ([(big, ops[2, 4]), (big, big)], f"60 and 60 terms over 2 axes would hold {held}"),
        ]
        monkeypatch.setattr(qoperator, "MAX_PRODUCT_BYTES", held - 1)

        def refuse(*args):
            raise AssertionError("computed before the checks")

        monkeypatch.setattr(qoperator, "_cmul", refuse)
        monkeypatch.setattr(table, "products", refuse)
        for pairs, message in refusals:
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=message):
                    operator_products(pairs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # the scalars of the first pair alone would take 57,600 bytes
            assert peak < 60 * 60 * 16 // 4
            assert (len(table), table._pair_keys.size) == stored


class TestApplyDenseOracle:
    def test_apply_matches_dense_matvec(self, rng):
        op = (
            single(0.5 + 0.1j, [t_block(1, 1, Q, 4), t_block(2, 1, Q, 4)], dim=4)
            + single(-1.0, [None, t_block(2, 2, Q, 4)], dim=4)
        )
        v = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        got = op.apply(v).reshape(-1)
        want = dense_matrix(op) @ v.reshape(-1)
        assert np.allclose(got, want, atol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10_000), st.integers(1, 4), st.integers(2, 4), st.integers(1, 3)
    )
    def test_random_weighted_shifts(self, seed, f, dim, n_terms):
        rng = np.random.default_rng(seed)
        op = random_operator(rng, f, dim, n_terms)
        shape = (dim,) * f
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = op.apply(v).reshape(-1)
        assert np.allclose(got, dense_matrix(op) @ v.reshape(-1), rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: FactorMatrix(0, []), "amplitudes must be a nonempty vector"),
        (
            lambda: FACTORS.products(
                np.array([t_block_ids(Q, 3)[1, 1]]), np.array([t_block_ids(Q, 4)[1, 1]])
            ),
            "factor dimension mismatch",
        ),
        (lambda: qoperator._check_q(None), "deformation parameter must be a number, got None"),
        (lambda: c_q("0.5", N), "deformation parameter must be a number, got '0.5'"),
    ],
)
def test_bad_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
