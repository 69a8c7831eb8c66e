"""Truncated shift-operator engine on (C^N)^{tensor f}.

Operators are kept as sums of scalar-weighted elementary tensors of N x N
factor matrices; application, products and adjoints act factor-wise and the
full N^f x N^f matrix is never materialized.  Identities of the untruncated
algebra are certified on a truncation-safe window: a word of d generators
moves any occupation index by at most d, so basis vectors whose indices do
not exceed N-1-d see the exact infinite-dimensional action.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FactorMatrix",
    "TensorTerm",
    "TensorOperator",
    "StateVector",
    "shift",
    "c_q",
    "d_q",
    "t_block",
    "residual_on_window",
    "norm_bound",
    "norm_estimate",
    "vacuum_matrix_element",
    "operator_to_json",
    "operator_from_json",
    "vector_to_json",
    "vector_from_json",
]

# self-adjointness pattern of the four corner operators: T11* = T22, the two
# off-diagonal blocks are real diagonal
_ADJOINT_TAG = {"I": "I", "T11": "T22", "T22": "T11", "T12": "T12", "T21": "T21"}


@dataclass(frozen=True)
class FactorMatrix:
    """One N x N tensor factor, optionally tagged with how it was built.

    The provenance tuple lists primitive tags ("T11", "T12", "T21", "T22",
    "I") in product order; scalar evaluation of a factor multiplies the
    character values of its tags.
    """

    entries: np.ndarray
    provenance: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=np.complex128)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"factor must be square, got shape {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("factor entries must be finite")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        if self.provenance is not None:
            object.__setattr__(self, "provenance", tuple(self.provenance))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def adjoint(self) -> "FactorMatrix":
        prov = None
        if self.provenance is not None and all(t in _ADJOINT_TAG for t in self.provenance):
            prov = tuple(_ADJOINT_TAG[t] for t in reversed(self.provenance))
        return FactorMatrix(self.entries.conj().T, prov)

    def matmul(self, other: "FactorMatrix") -> "FactorMatrix":
        if self.dim != other.dim:
            raise ValueError("factor dimension mismatch")
        prov = None
        if self.provenance is not None and other.provenance is not None:
            prov = self.provenance + other.provenance
        return FactorMatrix(self.entries @ other.entries, prov)


def shift(N: int) -> FactorMatrix:
    """Isometric shift truncated to N levels: e_k -> e_{k+1}, e_{N-1} -> 0."""
    if N < 2:
        raise ValueError("truncation level must be at least 2")
    entries = np.zeros((N, N), dtype=np.complex128)
    for k in range(N - 1):
        entries[k + 1, k] = 1.0
    return FactorMatrix(entries)


def _check_q(q: float) -> float:
    q = float(q)
    if not 0.0 < q < 1.0:
        raise ValueError(f"deformation parameter must lie in (0, 1), got {q}")
    return q


def c_q(q: float, N: int) -> FactorMatrix:
    """Diagonal operator e_m -> sqrt(1 - q^{2m}) e_m; kills e_0."""
    q = _check_q(q)
    if N < 2:
        raise ValueError("truncation level must be at least 2")
    diag = np.sqrt(1.0 - q ** (2.0 * np.arange(N)))
    return FactorMatrix(np.diag(diag.astype(np.complex128)))


def d_q(q: float, N: int) -> FactorMatrix:
    """Diagonal operator e_m -> q^m e_m."""
    q = _check_q(q)
    if N < 2:
        raise ValueError("truncation level must be at least 2")
    diag = q ** np.arange(N, dtype=np.float64)
    return FactorMatrix(np.diag(diag.astype(np.complex128)))


def t_block(i: int, j: int, q: float, N: int) -> FactorMatrix:
    """Corner operators of the 2x2 fundamental representation.

    T11 = S* C_q, T12 = -q D_q, T21 = D_q, T22 = C_q S.
    """
    if i not in (1, 2) or j not in (1, 2):
        raise ValueError(f"block index ({i}, {j}) outside {{1,2}}^2")
    S = shift(N).entries
    C = c_q(q, N).entries
    D = d_q(q, N).entries
    if (i, j) == (1, 1):
        entries = S.conj().T @ C
    elif (i, j) == (1, 2):
        entries = -q * D
    elif (i, j) == (2, 1):
        entries = D
    else:
        entries = C @ S
    return FactorMatrix(entries, provenance=(f"T{i}{j}",))


@dataclass(frozen=True)
class TensorTerm:
    """One elementary tensor: scalar * F_1 (x) ... (x) F_f, None meaning I."""

    scalar: complex
    factors: tuple[FactorMatrix | None, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "scalar", complex(self.scalar))
        object.__setattr__(self, "factors", tuple(self.factors))
        dims = {F.dim for F in self.factors if F is not None}
        if len(dims) > 1:
            raise ValueError(f"factors have mixed dimensions {dims}")


@dataclass(frozen=True)
class TensorOperator:
    """Finite sum of elementary tensors on (C^dim)^{tensor f}.

    Addition concatenates term lists (no automatic merging of proportional
    terms); multiplication distributes with factor-wise matrix products;
    adjoints conjugate scalars and adjoint the factors without any order
    reversal, since the terms are elementary.
    """

    f: int
    dim: int
    terms: tuple[TensorTerm, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        for term in self.terms:
            if len(term.factors) != self.f:
                raise ValueError(
                    f"term has {len(term.factors)} factors, operator has f={self.f}"
                )
            for F in term.factors:
                if F is not None and F.dim != self.dim:
                    raise ValueError("factor dimension differs from operator dim")

    @classmethod
    def identity(cls, f: int, dim: int) -> "TensorOperator":
        return cls(f, dim, (TensorTerm(1.0, (None,) * f),))

    @classmethod
    def zero(cls, f: int, dim: int) -> "TensorOperator":
        return cls(f, dim, ())

    def is_zero(self) -> bool:
        return all(term.scalar == 0 for term in self.terms)

    def _check_compatible(self, other: "TensorOperator") -> None:
        if self.f != other.f or self.dim != other.dim:
            raise ValueError(
                f"shape mismatch: ({self.f}, {self.dim}) vs ({other.f}, {other.dim})"
            )

    def __add__(self, other: "TensorOperator") -> "TensorOperator":
        self._check_compatible(other)
        return TensorOperator(self.f, self.dim, self.terms + other.terms)

    def __sub__(self, other: "TensorOperator") -> "TensorOperator":
        return self + other.scale(-1.0)

    def scale(self, c: complex) -> "TensorOperator":
        c = complex(c)
        return TensorOperator(
            self.f,
            self.dim,
            tuple(TensorTerm(c * t.scalar, t.factors) for t in self.terms),
        )

    def __mul__(self, other: "TensorOperator") -> "TensorOperator":
        self._check_compatible(other)
        terms = []
        for a in self.terms:
            for b in other.terms:
                factors = []
                for F, G in zip(a.factors, b.factors):
                    if F is None:
                        factors.append(G)
                    elif G is None:
                        factors.append(F)
                    else:
                        factors.append(F.matmul(G))
                terms.append(TensorTerm(a.scalar * b.scalar, tuple(factors)))
        return TensorOperator(self.f, self.dim, tuple(terms))

    def adjoint(self) -> "TensorOperator":
        return TensorOperator(
            self.f,
            self.dim,
            tuple(
                TensorTerm(
                    t.scalar.conjugate(),
                    tuple(F.adjoint() if F is not None else None for F in t.factors),
                )
                for t in self.terms
            ),
        )

    def apply(self, v: "StateVector") -> "StateVector":
        if v.f != self.f or v.dim != self.dim:
            raise ValueError("state shape does not match operator shape")
        out = np.zeros_like(v.amplitudes)
        for term in self.terms:
            w = v.amplitudes
            for axis, F in enumerate(term.factors):
                if F is None:
                    continue
                w = np.moveaxis(np.tensordot(F.entries, w, axes=([1], [axis])), 0, axis)
            out = out + term.scalar * w
        return StateVector(self.f, self.dim, out)


@dataclass(frozen=True)
class StateVector:
    """Amplitudes indexed by occupation multi-indices in {0..dim-1}^f."""

    f: int
    dim: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.array(self.amplitudes, dtype=np.complex128)
        if amp.shape != (self.dim,) * self.f:
            raise ValueError(f"amplitudes must have shape {(self.dim,) * self.f}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @classmethod
    def basis(cls, f: int, dim: int, index: tuple[int, ...]) -> "StateVector":
        amp = np.zeros((dim,) * f, dtype=np.complex128)
        amp[tuple(index)] = 1.0
        return cls(f, dim, amp)

    @classmethod
    def vacuum(cls, f: int, dim: int) -> "StateVector":
        return cls.basis(f, dim, (0,) * f)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes.ravel()))

    def inner(self, other: "StateVector") -> complex:
        """<self, other>, conjugate-linear in ``other``."""
        return complex(np.vdot(other.amplitudes, self.amplitudes))

    def __add__(self, other: "StateVector") -> "StateVector":
        return StateVector(self.f, self.dim, self.amplitudes + other.amplitudes)

    def __sub__(self, other: "StateVector") -> "StateVector":
        return StateVector(self.f, self.dim, self.amplitudes - other.amplitudes)

    def scale(self, c: complex) -> "StateVector":
        return StateVector(self.f, self.dim, complex(c) * self.amplitudes)


def vacuum_matrix_element(op: TensorOperator) -> complex:
    """<op e_0, e_0> without applying the operator: product of (0,0) entries."""
    total = 0.0 + 0.0j
    for term in op.terms:
        value = term.scalar
        for F in term.factors:
            if F is not None:
                value *= F.entries[0, 0]
        total += value
    return total


def _column_shift(F: FactorMatrix, window: int):
    """Decompose a factor as columns ``F[:, c] = amps[c] * e_{c+delta}``.

    Returns (delta, amps-over-the-window) when every column has at most one
    nonzero entry at a common diagonal offset, else None.  The corner
    operators and all their products are of this shape.
    """
    entries = F.entries
    rows, cols = np.nonzero(entries)
    if len(rows) == 0:
        return 0, np.zeros(window, dtype=np.complex128)
    if len(set(cols.tolist())) != len(cols):
        return None
    deltas = rows - cols
    if deltas.min() != deltas.max():
        return None
    delta = int(deltas[0])
    amps = np.zeros(window, dtype=np.complex128)
    for r, c in zip(rows, cols):
        if c < window:
            amps[c] = entries[r, c]
    return delta, amps


def _column_supports(F: FactorMatrix | None, window: int):
    """Per-column nonzero (row, value) lists for the generic residual path."""
    out = []
    for col in range(window):
        if F is None:
            out.append([(col, 1.0 + 0.0j)])
        else:
            column = F.entries[:, col]
            out.append([(int(r), complex(column[r])) for r in np.nonzero(column)[0]])
    return out


def residual_on_window(a: TensorOperator, b: TensorOperator, d: int) -> float:
    """max over window basis vectors e_m of ``|| (a - b) e_m ||``.

    The window keeps every component m_i <= N-1-d, where d bounds the length
    of the generator words involved, so an identity of the untruncated
    algebra must come out zero up to floating point.
    """
    a._check_compatible(b)
    dim = a.dim
    f = a.f
    terms = list(a.terms) + [TensorTerm(-t.scalar, t.factors) for t in b.terms]
    terms = [t for t in terms if t.scalar != 0]
    if f == 0:
        return abs(sum(t.scalar for t in terms))
    window = dim - int(d)
    if window <= 0:
        raise ValueError(f"window is empty: N={dim}, d={d}")
    # axes that every term treats as identity do not affect any column norm
    kept = [
        axis for axis in range(f) if any(t.factors[axis] is not None for t in terms)
    ]
    if not terms:
        return 0.0
    if not kept:
        return abs(sum(t.scalar for t in terms))

    shifts: dict[tuple[int, ...], np.ndarray] = {}
    structured = True
    for term in terms:
        deltas = []
        amp_arrays = []
        for axis in kept:
            F = term.factors[axis]
            if F is None:
                deltas.append(0)
                amp_arrays.append(np.ones(window, dtype=np.complex128))
                continue
            decomposition = _column_shift(F, window)
            if decomposition is None:
                structured = False
                break
            deltas.append(decomposition[0])
            amp_arrays.append(decomposition[1])
        if not structured:
            break
        block = np.array(term.scalar, dtype=np.complex128)
        for vec in amp_arrays:
            block = np.multiply.outer(block, vec)
        key = tuple(deltas)
        if key in shifts:
            shifts[key] = shifts[key] + block
        else:
            shifts[key] = block
    if structured:
        # distinct shift vectors hit distinct basis vectors, so the squared
        # column norm splits as a sum of |amplitude|^2 over shift classes
        total = np.zeros((window,) * len(kept), dtype=np.float64)
        for block in shifts.values():
            total += np.abs(block) ** 2
        return float(np.sqrt(total.max()))

    # generic fallback for factors without the single-diagonal structure
    supports = [
        [_column_supports(t.factors[axis], window) for axis in kept]
        for t in terms
    ]
    worst = 0.0
    for m in np.ndindex(*(window,) * len(kept)):
        bucket: dict[tuple[int, ...], complex] = {}
        for t_idx, term in enumerate(terms):
            partial = [(term.scalar, ())]
            for axis_pos in range(len(kept)):
                entries = supports[t_idx][axis_pos][m[axis_pos]]
                partial = [
                    (val * v, idx + (r,)) for val, idx in partial for r, v in entries
                ]
            for val, idx in partial:
                bucket[idx] = bucket.get(idx, 0.0) + val
        worst = max(worst, float(np.sqrt(sum(abs(v) ** 2 for v in bucket.values()))))
    return worst


def norm_bound(op: TensorOperator) -> float:
    """Upper bound on the operator norm: sum over terms of
    ``|c_t| * prod_i ||F_{t,i}||_2``, identity factors counting 1.

    The norm of a Kronecker product is the product of the factor norms, so
    the bound is exact for a single elementary tensor; for a sum it follows
    from the triangle inequality.  No state vector is built.
    """
    total = 0.0
    for term in op.terms:
        value = abs(term.scalar)
        for F in term.factors:
            if F is not None:
                value *= float(np.linalg.norm(F.entries, 2))
        total += value
    return total


def norm_estimate(op: TensorOperator, iters: int = 60, seed: int = 7) -> float:
    """Power-iteration lower bound on the operator norm via op* op.

    The Rayleigh quotients are nondecreasing in the iteration count and never
    exceed the true largest singular value.
    """
    if iters < 1:
        raise ValueError("iters must be at least 1")
    gram = op.adjoint() * op
    rng = np.random.default_rng(seed)
    shape = (op.dim,) * op.f
    v = StateVector(
        op.f,
        op.dim,
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
    )
    nv = v.norm()
    if nv == 0.0:
        return 0.0
    v = v.scale(1.0 / nv)
    best = 0.0
    for _ in range(iters):
        w = gram.apply(v)
        best = max(best, float(w.inner(v).real))
        nw = w.norm()
        if nw < 1e-300:
            break
        v = w.scale(1.0 / nw)
    return float(np.sqrt(max(best, 0.0)))


def _complex_to_json(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def operator_to_json(op: TensorOperator) -> dict:
    terms = []
    for term in op.terms:
        factors = []
        for F in term.factors:
            if F is None:
                factors.append("I")
            else:
                factors.append(
                    [[_complex_to_json(z) for z in row] for row in F.entries.tolist()]
                )
        terms.append({"scalar": _complex_to_json(term.scalar), "factors": factors})
    return {"f": op.f, "dim": op.dim, "terms": terms}


def operator_from_json(data: dict) -> TensorOperator:
    f = int(data["f"])
    dim = int(data["dim"])
    terms = []
    for raw in data["terms"]:
        scalar = complex(raw["scalar"][0], raw["scalar"][1])
        factors: list[FactorMatrix | None] = []
        for entry in raw["factors"]:
            if entry == "I":
                factors.append(None)
            else:
                entries = np.array(
                    [[complex(z[0], z[1]) for z in row] for row in entry],
                    dtype=np.complex128,
                )
                factors.append(FactorMatrix(entries))
        terms.append(TensorTerm(scalar, tuple(factors)))
    return TensorOperator(f, dim, tuple(terms))


def vector_to_json(v: StateVector) -> dict:
    amplitudes = []
    for index in np.ndindex(*(v.dim,) * v.f):
        z = v.amplitudes[index]
        if z != 0:
            amplitudes.append([list(index), _complex_to_json(z)])
    return {"f": v.f, "dim": v.dim, "amplitudes": amplitudes}


def vector_from_json(data: dict) -> StateVector:
    f = int(data["f"])
    dim = int(data["dim"])
    amp = np.zeros((dim,) * f, dtype=np.complex128)
    for index, z in data["amplitudes"]:
        amp[tuple(index)] = complex(z[0], z[1])
    return StateVector(f, dim, amp)


def is_exact_zero_on_vacuum(op: TensorOperator) -> bool:
    """Structural vacuum annihilation: every term has a factor killing e_0."""
    for term in op.terms:
        if term.scalar == 0:
            continue
        if not any(
            F is not None and not np.any(F.entries[:, 0]) for F in term.factors
        ):
            return False
    return True
