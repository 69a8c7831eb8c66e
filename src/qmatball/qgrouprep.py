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

from .permgroup import Permutation, ReducedWord, reduced_word, twist_phases
from .qoperator import (
    FACTORS,
    FactorMatrix,
    TensorOperator,
    t_block,
    t_block_ids,
    vacuum_matrix_element,
)

__all__ = [
    "SoibelmanRep",
    "FactorEvaluation",
    "pi_elementary",
    "rep_generator",
    "apply_tau",
    "tau_factor_value",
    "twist_check",
]


def pi_elementary(i: int, m: int, q: float, N: int, k: int, l: int):
    """Image of t_{kl} under the i-th elementary representation of size m.

    Returns a FactorMatrix for (k, l) in {i, i+1}^2 and the Kronecker scalar
    otherwise.
    """
    if not 1 <= i <= m - 1:
        raise ValueError(f"elementary index {i} outside 1..{m - 1}")
    if not (1 <= k <= m and 1 <= l <= m):
        raise ValueError(f"matrix entry ({k}, {l}) outside 1..{m}")
    if k in (i, i + 1) and l in (i, i + 1):
        return t_block(k - i + 1, l - i + 1, q, N)
    return 1.0 + 0.0j if k == l else 0.0 + 0.0j


@dataclass(frozen=True)
class SoibelmanRep:
    """Tensor-product representation attached to a reduced word, with an
    optional character twist on the right."""

    m: int
    word: ReducedWord
    q: float
    N: int
    phases: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.word.m != self.m:
            raise ValueError("word size differs from representation size")
        if not 0.0 < self.q < 1.0:
            raise ValueError("deformation parameter must lie in (0, 1)")
        if self.N < 2:
            raise ValueError("truncation level must be at least 2")
        if self.phases is not None:
            phases = tuple(float(x) for x in self.phases)
            if len(phases) != self.m:
                raise ValueError(f"expected {self.m} phases, got {len(phases)}")
            object.__setattr__(self, "phases", phases)

    @property
    def f(self) -> int:
        return len(self.word)

    @classmethod
    def from_permutation(
        cls,
        s: Permutation,
        q: float,
        N: int,
        phases: Sequence[float] | None = None,
    ) -> "SoibelmanRep":
        return cls(s.m, reduced_word(s), q, N, tuple(phases) if phases else None)


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
        pairs = tuple((int(i), float(phi)) for i, phi in self.assignments)
        object.__setattr__(self, "assignments", pairs)
        indices = [i for i, _ in pairs]
        if len(set(indices)) != len(indices):
            raise ValueError("factor assigned more than once")
        if any(i < 1 for i in indices):
            raise ValueError("factor indices are 1-based")

    def as_dict(self) -> dict[int, float]:
        return dict(self.assignments)


# character values of the primitive tags at phase phi: the underlying shift
# goes to e^{i phi}, so its defect projection (hence both straight-arrow
# blocks) goes to 0
def tau_factor_value(factor: FactorMatrix | None, phi: float) -> complex:
    if factor is None:
        return 1.0 + 0.0j
    if factor.provenance is None:
        raise ValueError("factor not expressible in the primitive set")
    value = 1.0 + 0.0j
    for tag in factor.provenance:
        if tag == "I":
            continue
        elif tag == "T11":
            value *= cmath.exp(-1j * phi)
        elif tag == "T22":
            value *= cmath.exp(1j * phi)
        elif tag in ("T12", "T21"):
            return 0.0 + 0.0j
        else:
            raise ValueError(f"factor tag {tag!r} has no scalar evaluation")
    return value


def apply_tau(op: TensorOperator, ev: FactorEvaluation) -> TensorOperator:
    """Scalar-evaluate the assigned factors and drop them from the tensor.

    Terms acquiring scalar zero are removed; the factor count shrinks by the
    number of assignments.
    """
    table = ev.as_dict()
    if any(i > op.f for i in table):
        raise ValueError(f"assignment index exceeds factor count {op.f}")
    keep = [axis for axis in range(op.f) if (axis + 1) not in table]
    # character value of each (assigned position, factor id) met so far
    values: dict[tuple[int, int], complex] = {}
    scalars = []
    rows = []
    for scalar, row in zip(op.scalars.tolist(), op.ids.tolist()):
        for index, phi in table.items():
            tid = row[index - 1]
            value = values.get((index, tid))
            if value is None:
                value = values[(index, tid)] = tau_factor_value(FACTORS[tid], phi)
            scalar *= value
            if scalar == 0:
                break
        if scalar == 0:
            continue
        scalars.append(scalar)
        rows.append([row[a] for a in keep])
    return TensorOperator.from_ids(len(keep), op.dim, scalars, rows)


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
    phases = [float(x) for x in phases]
    permuted = twist_phases(s, phases)
    right = SoibelmanRep.from_permutation(s, q, N, phases)
    plain = SoibelmanRep.from_permutation(s, q, N)
    worst = 0.0
    for i in range(1, s.m + 1):
        for j in range(1, s.m + 1):
            lhs = vacuum_matrix_element(rep_generator(right, i, j))
            rhs = cmath.exp(1j * permuted[i - 1]) * vacuum_matrix_element(
                rep_generator(plain, i, j)
            )
            worst = max(worst, abs(lhs - rhs))
    return worst
