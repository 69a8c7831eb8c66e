"""Representations of the quantized special unitary coordinate algebra.

A generator matrix entry t_{kl} is sent, for a reduced word s_{j_1}...s_{j_f},
to the coproduct sum over intermediate indices of per-letter factors: letter a
contributes the 2x2 corner block T when both neighbouring indices lie in
{a, a+1} and a Kronecker-delta identity otherwise.  One-dimensional character
twists multiply by e^{i phi_l}.  Scalar evaluation of chosen tensor factors
(the map sending the underlying shift to e^{i phi}) reduces a representation
to fewer factors.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .permgroup import Permutation, ReducedWord, _index, _real, reduced_word, twist_phases
from .qoperator import (
    FACTORS,
    TensorOperator,
    _check_dim,
    _check_q,
    _cmul,
    t_block_ids,
    vacuum_matrix_element,
)

__all__ = [
    "SoibelmanRep",
    "FactorEvaluation",
    "rep_generator",
    "apply_tau",
    "evaluate_terms",
    "twist_check",
]


@dataclass(frozen=True)
class SoibelmanRep:
    """Tensor-product representation attached to a reduced word, with an
    optional character twist on the right.  Its size ``m`` is the word's.
    ``q`` and ``N`` are checked and stored as the engine's factor builders
    read them: q a float in (0, 1), N an integer of at least 2 read by
    ``permgroup._index``; anything else raises ``ValueError``."""

    word: ReducedWord
    q: float
    N: int
    phases: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _check_q(self.q))
        object.__setattr__(self, "N", _check_dim(self.N))
        if self.phases is not None:
            phases = tuple(_real(x, "phase") for x in self.phases)
            if len(phases) != self.m:
                raise ValueError(f"expected {self.m} phases, got {len(phases)}")
            object.__setattr__(self, "phases", phases)

    @property
    def m(self) -> int:
        return self.word.m

    @property
    def f(self) -> int:
        return len(self.word)


def rep_generator(rep: SoibelmanRep, k: int, l: int) -> TensorOperator:
    """Image of t_{kl}: sum over admissible intermediate index sequences.

    The sum is pruned to sequences where each letter either acts through its
    corner block or matches a Kronecker delta, so the nonzero terms are in
    bijection with staircase paths through the word; term order follows the
    lexicographic order of the intermediate sequences.
    """
    if not (1 <= k <= rep.m and 1 <= l <= rep.m):
        raise ValueError(f"matrix entry ({k}, {l}) outside 1..{rep.m}")
    letters = rep.word.letters
    f = len(letters)
    blocks = t_block_ids(rep.q, rep.N)
    scalar = 1.0 + 0.0j
    if rep.phases is not None:
        scalar = cmath.exp(1j * rep.phases[l - 1])

    rows: list[list[int]] = []
    row = [0] * f

    def descend(pos: int, r: int) -> None:
        if pos == f:
            if r == l:
                rows.append(row.copy())
            return
        a = letters[pos]
        if r in (a, a + 1):
            for r_next in (a, a + 1):
                row[pos] = blocks[(r - a + 1, r_next - a + 1)]
                descend(pos + 1, r_next)
            row[pos] = 0
        else:
            descend(pos + 1, r)

    descend(0, k)
    return TensorOperator.from_ids(f, rep.N, [scalar] * len(rows), rows)


@dataclass(frozen=True)
class FactorEvaluation:
    """Assignment of scalar-evaluation phases to tensor-factor positions.

    ``assignments`` maps 1-based factor indices to the phase used for that
    factor; each index may appear at most once.
    """

    assignments: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        pairs = tuple(
            (_index(i, "factor index"), _real(phi, "phase")) for i, phi in self.assignments
        )
        object.__setattr__(self, "assignments", pairs)
        indices = [i for i, _ in pairs]
        if len(set(indices)) != len(indices):
            raise ValueError("factor assigned more than once")
        if any(i < 1 for i in indices):
            raise ValueError("factor indices are 1-based")


# character values of the primitive tags at phase phi: the underlying shift
# goes to e^{i phi}, so its defect projection (hence both straight-arrow
# blocks) goes to 0; ``tags`` is a factor's provenance, None if untagged and
# () for the identity
def _tags_value(tags: tuple[str, ...] | None, phi: float) -> complex:
    if tags is None:
        raise ValueError("factor not expressible in the primitive set")
    value = 1.0 + 0.0j
    for tag in tags:
        if tag == "T11":
            value *= cmath.exp(-1j * phi)
        elif tag == "T22":
            value *= cmath.exp(1j * phi)
        elif tag in ("T12", "T21"):
            return 0.0 + 0.0j
        else:
            raise ValueError(f"factor tag {tag!r} has no scalar evaluation")
    return value


def evaluate_terms(
    scalars: np.ndarray, ids: np.ndarray, ev: FactorEvaluation
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Scalar-evaluates the assigned factors of a term list in one pass.

    ``scalars`` (T,) and ``ids`` (T, f) are the terms, as in a
    ``TensorOperator``; any number of operators on the same factors may be
    stacked into one list.  Returns the surviving scalars, the indices of
    their terms (ascending) and the kept axes (0-based, ascending).  For
    each assigned axis, in assignment order, every scalar is multiplied by
    the character value of its term's factor on that axis, read from a table
    that ``_tags_value`` fills once per distinct id and axis; a term whose
    product is 0 is dropped at the end.

    The bits are those of a per-term loop that computes ``scalar *= value``
    as Python complex numbers in assignment order and drops a term at its
    first zero: ``_cmul`` rounds each step as CPython's ``complex *
    complex`` does (numpy's own complex multiply may fuse), and character
    values are finite (unit-modulus exponentials, 1 or 0), so a product
    that reaches 0 stays 0 and a non-finite one never becomes 0.  Where that
    loop raised only for a term not yet zeroed, the table raises
    ``ValueError`` whenever any term holds an untagged factor, or one with a
    tag without a scalar evaluation, on an assigned axis.
    """
    f = ids.shape[1]
    axes = [i - 1 for i, _ in ev.assignments]
    if any(axis >= f for axis in axes):
        raise ValueError(f"assignment index exceeds factor count {f}")
    assigned = set(axes)
    keep = [axis for axis in range(f) if axis not in assigned]
    block = ids[:, axes]
    distinct = np.unique(block)
    table = np.array(
        [[_tags_value(FACTORS.tags[tid], phi) for _, phi in ev.assignments]
         for tid in distinct.tolist()],
        dtype=np.complex128,
    ).reshape(distinct.size, len(axes))
    values = table[distinct.searchsorted(block), np.arange(len(axes))]
    # an inf or NaN scalar may meet a value of 0 (giving NaN) or overflow,
    # as in the loop, which numpy would otherwise warn about
    with np.errstate(invalid="ignore", over="ignore"):
        for column in values.T:
            scalars = _cmul(scalars, column)
        kept = np.flatnonzero(scalars != 0)
    return scalars[kept], kept, keep


def apply_tau(op: TensorOperator, ev: FactorEvaluation) -> TensorOperator:
    """Scalar-evaluate the assigned factors and drop them from the tensor.

    Terms acquiring scalar zero are removed; the factor count shrinks by the
    number of assignments.  One pass of ``evaluate_terms`` over the terms,
    whose docstring states why the bits are a per-term loop's and when an
    unevaluable factor raises.
    """
    scalars, kept, keep = evaluate_terms(op.scalars, op.ids, ev)
    ids = op.ids.take(kept, axis=0).take(keep, axis=1)
    return TensorOperator._of(len(keep), op.dim, scalars, ids)


def twist_check(
    s: Permutation, phases: Sequence[float], q: float = 0.5, N: int = 4
) -> float:
    """Residual of the phase-twist law relating the two character placements.

    The law identifies the representation twisted on the right by phases phi
    with the one twisted on the left by s^{-1}(phi).  The two sides agree as
    representations; operator by operator they only need to share vacuum
    matrix elements (which determine the equivalence class uniquely), so the
    comparison is made there, over all generator entries.
    """
    word = reduced_word(s)
    right = SoibelmanRep(word, q, N, tuple(phases))
    plain = SoibelmanRep(word, q, N)
    permuted = twist_phases(s, right.phases)
    worst = 0.0
    for i in range(1, s.m + 1):
        for j in range(1, s.m + 1):
            lhs = vacuum_matrix_element(rep_generator(right, i, j))
            rhs = cmath.exp(1j * permuted[i - 1]) * vacuum_matrix_element(
                rep_generator(plain, i, j)
            )
            worst = max(worst, abs(lhs - rhs))
    return worst
