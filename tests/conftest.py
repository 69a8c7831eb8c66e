import itertools

import numpy as np
import pytest

from qmatball import qoperator
from qmatball.permgroup import AdmissibleString, Permutation, admissible_bound


def subgroup_on_first_half(m: int) -> list[Permutation]:
    """All permutations moving only 1..m/2 (the double-coset subgroup)."""
    n = m // 2
    tail = tuple(range(n + 1, m + 1))
    return [
        Permutation(m, perm + tail) for perm in itertools.permutations(range(1, n + 1))
    ]


def brute_force_orbit(sigma: Permutation) -> list[Permutation]:
    sub = subgroup_on_first_half(sigma.m)
    return [g * sigma * h for g in sub for h in sub]


def all_reduced_words(sigma: Permutation) -> list[tuple[int, ...]]:
    """Every reduced word of sigma, via recursion on right descents."""
    if sigma.is_identity():
        return [()]
    words = []
    for i in range(1, sigma.m):
        if sigma(i) > sigma(i + 1):
            shorter = sigma * Permutation.transposition(sigma.m, i)
            words.extend(word + (i,) for word in all_reduced_words(shorter))
    return sorted(set(words))


def random_phases_for(ks, rng) -> AdmissibleString:
    """Admissible string over ks with a random phase on every free row."""
    n = len(ks)
    phases = []
    for j in range(n, 0, -1):
        if ks[n - j] == admissible_bound(ks, j):
            phases.append(0.0)
        else:
            phases.append(float(rng.uniform(0.0, 2.0 * np.pi * 0.999)))
    return AdmissibleString(n, tuple(ks), tuple(phases))


def vacuum(f: int, dim: int) -> np.ndarray:
    """The dense vacuum state e_0 of (C^dim)^{tensor f}, for ``apply``."""
    state = np.zeros((dim,) * f, dtype=np.complex128)
    state[(0,) * f] = 1.0
    return state


def from_terms(f: int, dim: int, terms) -> qoperator.TensorOperator:
    """The operator summing ``terms``, ``TensorTerm`` objects whose factors
    are interned in ``qoperator.FACTORS`` (looked up at call time, so a
    test that swaps in a new table gets its ids from that table)."""
    scalars = [term.scalar for term in terms]
    ids = [[qoperator.FACTORS.intern(F) for F in term.factors] for term in terms]
    return qoperator.TensorOperator.from_ids(f, dim, scalars, ids)


def dense_matrix(op):
    """Full matrix of a tensor operator, the sum over terms of the Kronecker
    products of their factors' matrices; oracle use only, tiny sizes."""
    size = op.dim**op.f
    mat = np.zeros((size, size), dtype=complex)
    for term in op.terms:
        block = np.array([[term.scalar]], dtype=complex)
        for F in term.factors:
            entries = np.eye(op.dim) if F is None else F.entries
            block = np.kron(block, entries)
        mat += block
    return mat


# the adjoint of each corner block: T11* = T22, T12* = T12, T21* = T21
ADJOINT_TAG = {"T11": "T22", "T22": "T11", "T12": "T12", "T21": "T21"}


def factor_product(F, G) -> qoperator.FactorMatrix:
    """The factor ``F @ G``, computed on the two objects; the oracle for
    ``FactorTable.products``.  Column c of G lands on row c + G.delta, where
    F's column amplitude applies; where c + G.delta wraps around, G's own
    zero amplitude at c cancels the wrapped entry."""
    if F.dim != G.dim:
        raise ValueError("factor dimension mismatch")
    prov = None
    if F.provenance is not None and G.provenance is not None:
        prov = F.provenance + G.provenance
    amps = G.amps * np.roll(F.amps, -G.delta)
    return qoperator.FactorMatrix(F.delta + G.delta, amps, prov)


def factor_adjoint(F) -> qoperator.FactorMatrix:
    """The adjoint of ``F``, computed on the object; the oracle for
    ``FactorTable.adjoints``.  Column c of the adjoint is row c of F, hit by
    column c - delta; where c - delta wraps around, the adjoint's column c
    leaves the truncation, and F's zero amplitude there cancels it."""
    prov = None
    if F.provenance is not None and all(t in ADJOINT_TAG for t in F.provenance):
        prov = tuple(ADJOINT_TAG[t] for t in reversed(F.provenance))
    return qoperator.FactorMatrix(-F.delta, np.roll(F.amps, F.delta).conj(), prov)


def term_signature(op):
    """Multiset of (scalar, factor-tag-tuple) pairs, scalars rounded."""
    sig = []
    for term in op.terms:
        tags = tuple(
            "I" if F is None else "*".join(F.provenance or ("?",))
            for F in term.factors
        )
        sig.append((complex(round(term.scalar.real, 12), round(term.scalar.imag, 12)), tags))
    return sorted(sig, key=repr)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
