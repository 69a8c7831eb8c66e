import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmatball.qoperator import (
    FactorMatrix,
    StateVector,
    TensorOperator,
    TensorTerm,
    c_q,
    d_q,
    is_exact_zero_on_vacuum,
    norm_bound,
    norm_estimate,
    operator_from_json,
    operator_to_json,
    residual_on_window,
    shift,
    t_block,
    vacuum_matrix_element,
    vector_from_json,
    vector_to_json,
)

Q, N = 0.5, 6


def single(scalar, factors, dim=N):
    return TensorOperator(len(factors), dim, (TensorTerm(scalar, tuple(factors)),))


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


class TestTBlocks:
    def test_t22_on_ground_state(self):
        v = t_block(2, 2, Q, N).entries[:, 0]
        expected = np.zeros(N, dtype=complex)
        expected[1] = np.sqrt(1 - Q**2)
        assert np.allclose(v, expected)

    def test_t11_is_adjoint_of_t22(self):
        assert np.allclose(
            t_block(1, 1, Q, N).entries, t_block(2, 2, Q, N).adjoint().entries
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
            (T[(1, 1)] * T[(2, 2)] - T[(1, 2)] * T[(2, 1)].scale(q), I),
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
        v = StateVector(2, N, rng.standard_normal((N, N)) + 0j)
        out = TensorOperator.identity(2, N).apply(v)
        assert np.allclose(out.amplitudes, v.amplitudes)

    def test_single_term_action(self):
        op = single(1.0, [t_block(2, 2, Q, N), None])
        out = op.apply(StateVector.vacuum(2, N))
        expected = np.zeros((N, N), dtype=complex)
        expected[1, 0] = np.sqrt(1 - Q**2)
        assert np.allclose(out.amplitudes, expected)

    def test_product_matches_composition_on_interior(self, rng):
        A = single(0.7 - 0.1j, [t_block(1, 1, Q, N), t_block(2, 1, Q, N)]) + single(
            1.3j, [None, t_block(2, 2, Q, N)]
        )
        B = single(0.2, [t_block(1, 2, Q, N), None]) + single(
            -1.0, [t_block(2, 2, Q, N), t_block(1, 1, Q, N)]
        )
        v = np.zeros((N, N), dtype=complex)
        v[: N - 2, : N - 2] = rng.standard_normal((N - 2, N - 2))
        state = StateVector(2, N, v)
        lhs = (A * B).apply(state)
        rhs = A.apply(B.apply(state))
        assert np.allclose(lhs.amplitudes, rhs.amplitudes, atol=1e-12)

    @settings(max_examples=25)
    @given(st.integers(0, 10_000))
    def test_addition_is_pointwise(self, seed):
        rng = np.random.default_rng(seed)
        A = single(rng.standard_normal(), [t_block(1, 2, Q, N)], dim=N)
        B = single(rng.standard_normal() * 1j, [t_block(2, 1, Q, N)], dim=N)
        v = StateVector(1, N, rng.standard_normal(N) + 1j * rng.standard_normal(N))
        lhs = (A + B).apply(v).amplitudes
        rhs = A.apply(v).amplitudes + B.apply(v).amplitudes
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
        u = StateVector(2, N, rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
        v = StateVector(2, N, rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
        lhs = op.apply(u).inner(v)
        rhs = u.inner(op.adjoint().apply(v))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_mul_identity_termwise(self):
        op = single(1.5, [t_block(2, 1, Q, N), None])
        out = op * TensorOperator.identity(2, N)
        assert len(out.terms) == 1
        assert out.terms[0].scalar == 1.5
        assert np.allclose(out.terms[0].factors[0].entries, t_block(2, 1, Q, N).entries)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            TensorOperator.identity(2, N) * TensorOperator.identity(3, N)


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

    def test_generic_fallback_agrees_with_structured(self, rng):
        dense = FactorMatrix(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
        a = single(1.0, [dense, t_block(2, 2, Q, N)])
        b = single(0.5, [dense, t_block(2, 2, Q, N)])
        # brute: 0.5 * ||dense col|| * ||T22 col|| maximized over the window
        want = 0.0
        for m1 in range(N - 2):
            for m2 in range(N - 2):
                w = 0.5 * np.linalg.norm(dense.entries[:, m1]) * np.linalg.norm(
                    t_block(2, 2, Q, N).entries[:, m2]
                )
                want = max(want, w)
        assert residual_on_window(a, b, 2) == pytest.approx(want, rel=1e-12)

    def test_scalar_operators(self):
        a = TensorOperator(0, N, (TensorTerm(1.25, ()),))
        b = TensorOperator(0, N, (TensorTerm(1.0, ()),))
        assert residual_on_window(a, b, 2) == pytest.approx(0.25)


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
        v = StateVector.basis(2, 3, (1, 1))
        assert np.allclose(op.apply(v).amplitudes, back.apply(v).amplitudes)

    def test_vector_round_trip(self):
        v = StateVector.basis(2, 3, (2, 1)).scale(0.5j)
        back = vector_from_json(json.loads(json.dumps(vector_to_json(v))))
        assert np.allclose(back.amplitudes, v.amplitudes)


class TestAssociativity:
    def test_mul_associative_on_interior(self, rng):
        A = single(0.9, [t_block(2, 2, Q, N)], dim=N)
        B = single(1.0j, [t_block(1, 1, Q, N)], dim=N) + single(0.4, [t_block(1, 2, Q, N)], dim=N)
        C = single(-0.7, [t_block(2, 1, Q, N)], dim=N)
        v = np.zeros(N, dtype=complex)
        v[: N - 3] = rng.standard_normal(N - 3)
        state = StateVector(1, N, v)
        lhs = ((A * B) * C).apply(state).amplitudes
        rhs = (A * (B * C)).apply(state).amplitudes
        assert np.allclose(lhs, rhs, atol=1e-12)


def dense_matrix(op):
    """Full matrix of a tensor operator; oracle use only, tiny sizes."""
    size = op.dim**op.f
    mat = np.zeros((size, size), dtype=complex)
    for term in op.terms:
        block = np.array([[term.scalar]], dtype=complex)
        for F in term.factors:
            entries = np.eye(op.dim) if F is None else F.entries
            block = np.kron(block, entries)
        mat += block
    return mat


def dense_norm(op):
    """Spectral norm of the dense Kronecker matrix over the axes some term
    acts on.  Axes where every factor is the identity are dropped, since
    ||A (x) I|| = ||A||; this keeps the oracle small (f = 4, N = 7 would
    otherwise be a 2401 x 2401 SVD)."""
    kept = [
        axis for axis in range(op.f) if any(t.factors[axis] is not None for t in op.terms)
    ]
    reduced = TensorOperator(
        len(kept),
        op.dim,
        tuple(TensorTerm(t.scalar, tuple(t.factors[a] for a in kept)) for t in op.terms),
    )
    return float(np.linalg.norm(dense_matrix(reduced), 2))


def weighted_shift(rng, dim):
    """Random complex amplitudes on one random diagonal of a dim x dim matrix."""
    delta = int(rng.integers(-(dim - 1), dim))
    size = dim - abs(delta)
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return FactorMatrix(np.diag(amps, k=delta))


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
        rng = np.random.default_rng(seed)
        terms = tuple(
            TensorTerm(
                complex(rng.standard_normal(), rng.standard_normal()),
                tuple(
                    None if rng.random() < 0.25 else weighted_shift(rng, dim)
                    for _ in range(f)
                ),
            )
            for _ in range(n_terms)
        )
        op = TensorOperator(f, dim, terms)
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
        from qmatball.matrixball import _case_rhs, fock_rep

        g = fock_rep(2, Q, 5)
        lhs = g.gen(1, 1).adjoint() * g.gen(1, 1)
        rhs = _case_rhs(g, 1, 1, 1, 1)
        got = residual_on_window(lhs, rhs, 2)
        want = self._window_max(lhs, rhs, 2)
        assert got == pytest.approx(want, abs=1e-13)
        assert got < 1e-12

    def test_dense_fallback_path(self, rng):
        dense = FactorMatrix(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
        a = single(0.9, [dense, t_block(2, 2, Q, N)]) + single(
            -0.4j, [t_block(1, 1, Q, N), dense]
        )
        b = single(0.2, [dense, dense])
        assert residual_on_window(a, b, 2) == pytest.approx(
            self._window_max(a, b, 2), abs=1e-12
        )


class TestApplyDenseOracle:
    def test_apply_matches_dense_matvec(self, rng):
        op = (
            single(0.5 + 0.1j, [t_block(1, 1, Q, 4), t_block(2, 1, Q, 4)], dim=4)
            + single(-1.0, [None, t_block(2, 2, Q, 4)], dim=4)
        )
        v = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        state = StateVector(2, 4, v)
        got = op.apply(state).amplitudes.reshape(-1)
        want = dense_matrix(op) @ v.reshape(-1)
        assert np.allclose(got, want, atol=1e-13)
