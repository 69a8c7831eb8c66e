"""Truncated shift-operator engine on (C^N)^{tensor f}.

Operators are kept as sums of scalar-weighted elementary tensors of
weighted-shift factors (`delta`, amplitudes); application, products, adjoints,
norms and the JSON form act on the amplitudes, and dense matrices appear only
in the ``entries`` view that test oracles compare against.  Identities of the
untruncated algebra are certified on a truncation-safe window: a word of d
generators moves any occupation index by at most d, so basis vectors whose
indices do not exceed N-1-d see the exact infinite-dimensional action.
"""

from __future__ import annotations

import operator
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
]

# most array elements one residual call may hold: one window-sized array per
# shift class, plus the term being built and the running sum of squares
MAX_RESIDUAL_ELEMENTS = 64_000_000

# self-adjointness pattern of the four corner operators: T11* = T22, the two
# off-diagonal blocks are real diagonal
_ADJOINT_TAG = {"I": "I", "T11": "T22", "T22": "T11", "T12": "T12", "T21": "T21"}


@dataclass(frozen=True, eq=False)
class FactorMatrix:
    """One N x N tensor factor, a weighted shift: column c is
    ``amps[c] * e_{c+delta}``, with ``amps[c] = 0`` wherever c + delta falls
    outside 0..N-1.  The corner operators and all their products have this
    shape, so products, adjoints and norms act on the amplitude vector.

    The provenance tuple lists primitive tags ("T11", "T12", "T21", "T22",
    "I") in product order; scalar evaluation of a factor multiplies the
    character values of its tags.

    Equality and hashing are by identity: two separately built factors with
    equal amplitudes compare unequal.
    """

    delta: int
    amps: np.ndarray
    provenance: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        amps = np.array(self.amps, dtype=np.complex128)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError(f"amplitudes must be a nonempty vector, got shape {amps.shape}")
        if not np.isfinite(amps).all():
            raise ValueError("factor entries must be finite")
        try:
            delta = operator.index(self.delta)
        except TypeError:
            raise ValueError(f"shift must be an integer, got {self.delta!r}") from None
        # columns whose image would leave the truncation
        outside = amps[max(amps.size - delta, 0):] if delta > 0 else amps[:-delta]
        if np.count_nonzero(outside):
            raise ValueError(f"amplitudes beyond the truncation for shift {delta}")
        amps.setflags(write=False)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "amps", amps)
        if self.provenance is not None:
            object.__setattr__(self, "provenance", tuple(self.provenance))

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """The dense N x N matrix, read-only; for oracles."""
        if abs(self.delta) >= self.dim:
            out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        else:
            inside = self.amps[max(-self.delta, 0) : self.dim - max(self.delta, 0)]
            out = np.diag(inside, -self.delta)
        out.setflags(write=False)
        return out

    def norm(self) -> float:
        """Exact spectral norm: the nonzero columns are orthogonal."""
        return float(np.abs(self.amps).max())

    def adjoint(self) -> "FactorMatrix":
        prov = None
        if self.provenance is not None and all(t in _ADJOINT_TAG for t in self.provenance):
            prov = tuple(_ADJOINT_TAG[t] for t in reversed(self.provenance))
        # column c of the adjoint is row c of self, hit by column c - delta
        return FactorMatrix(-self.delta, _rolled(self.amps, -self.delta).conj(), prov)

    def matmul(self, other: "FactorMatrix") -> "FactorMatrix":
        if self.dim != other.dim:
            raise ValueError("factor dimension mismatch")
        prov = None
        if self.provenance is not None and other.provenance is not None:
            prov = self.provenance + other.provenance
        # column c of other lands on row c + other.delta, where self's column
        # amplitude applies
        amps = other.amps * _rolled(self.amps, other.delta)
        return FactorMatrix(self.delta + other.delta, amps, prov)


def _rolled(amps: np.ndarray, k: int) -> np.ndarray:
    """``amps[(c + k) mod N]`` for every column c.  Wherever c + k wraps
    around, the caller's column c leaves the truncation, so its own zero
    amplitude cancels the wrapped entry."""
    k %= amps.size
    return np.concatenate((amps[k:], amps[:k]))


def _check_dim(N: int) -> None:
    if N < 2:
        raise ValueError("truncation level must be at least 2")


def shift(N: int) -> FactorMatrix:
    """Isometric shift truncated to N levels: e_k -> e_{k+1}, e_{N-1} -> 0."""
    _check_dim(N)
    amps = np.ones(N)
    amps[-1] = 0.0
    return FactorMatrix(1, amps)


def _check_q(q: float) -> float:
    q = float(q)
    if not 0.0 < q < 1.0:
        raise ValueError(f"deformation parameter must lie in (0, 1), got {q}")
    return q


def _c_amps(q: float, N: int) -> np.ndarray:
    return np.sqrt(1.0 - q ** (2.0 * np.arange(N)))


def _d_amps(q: float, N: int) -> np.ndarray:
    return q ** np.arange(N, dtype=np.float64)


def c_q(q: float, N: int) -> FactorMatrix:
    """Diagonal operator e_m -> sqrt(1 - q^{2m}) e_m; kills e_0."""
    q = _check_q(q)
    _check_dim(N)
    return FactorMatrix(0, _c_amps(q, N))


def d_q(q: float, N: int) -> FactorMatrix:
    """Diagonal operator e_m -> q^m e_m."""
    q = _check_q(q)
    _check_dim(N)
    return FactorMatrix(0, _d_amps(q, N))


def t_block(i: int, j: int, q: float, N: int) -> FactorMatrix:
    """Corner operators of the 2x2 fundamental representation.

    T11 = S* C_q, T12 = -q D_q, T21 = D_q, T22 = C_q S.
    """
    if i not in (1, 2) or j not in (1, 2):
        raise ValueError(f"block index ({i}, {j}) outside {{1,2}}^2")
    q = _check_q(q)
    _check_dim(N)
    if (i, j) == (1, 1):
        # S* C_q sends e_m to sqrt(1 - q^{2m}) e_{m-1}; the e_0 amplitude is 0
        delta, amps = -1, _c_amps(q, N)
    elif (i, j) == (1, 2):
        delta, amps = 0, -q * _d_amps(q, N)
    elif (i, j) == (2, 1):
        delta, amps = 0, _d_amps(q, N)
    else:
        # C_q S sends e_m to sqrt(1 - q^{2(m+1)}) e_{m+1}
        delta, amps = 1, np.append(_c_amps(q, N)[1:], 0.0)
    return FactorMatrix(delta, amps, provenance=(f"T{i}{j}",))


@dataclass(frozen=True)
class TensorTerm:
    """One elementary tensor: scalar * F_1 (x) ... (x) F_f, None meaning I."""

    scalar: complex
    factors: tuple[FactorMatrix | None, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "scalar", complex(self.scalar))
        object.__setattr__(self, "factors", tuple(self.factors))


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
                # scale along the axis, then move index c to c + delta; the
                # entries that wrap around were scaled by zero amplitudes
                along = F.amps.reshape((-1,) + (1,) * (self.f - axis - 1))
                w = np.roll(along * w, F.delta, axis=axis)
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
                value *= F.amps[0] if F.delta == 0 else 0.0
        total += value
    return total


def residual_on_window(a: TensorOperator, b: TensorOperator, d: int) -> float:
    """max over window basis vectors e_m of ``|| (a - b) e_m ||``.

    The window keeps every component m_i <= N-1-d, where d bounds the length
    of the generator words involved, so an identity of the untruncated
    algebra must come out zero up to floating point.  Raises ``ValueError``,
    before allocating any array, when the window-sized arrays (one per shift
    class, plus the term being built and the running sum of squares) would
    hold more than ``MAX_RESIDUAL_ELEMENTS`` elements.
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

    factor_lists = [[t.factors[axis] for axis in kept] for t in terms]
    keys = [tuple(0 if F is None else F.delta for F in fs) for fs in factor_lists]
    classes = len(set(keys))
    if (classes + 2) * window ** len(kept) > MAX_RESIDUAL_ELEMENTS:
        raise ValueError(
            f"residual at N={dim}, d={d} over {len(kept)} axes would hold "
            f"({classes} shift classes + 2) x {window}^{len(kept)} elements, more "
            f"than the limit {MAX_RESIDUAL_ELEMENTS}"
        )
    ones = np.ones(window, dtype=np.complex128)
    shifts: dict[tuple[int, ...], np.ndarray] = {}
    for term, factors, key in zip(terms, factor_lists, keys):
        block = np.array(term.scalar, dtype=np.complex128)
        for F in factors:
            block = np.multiply.outer(block, ones if F is None else F.amps[:window])
        if key in shifts:
            shifts[key] += block
        else:
            shifts[key] = block
    # distinct shift vectors hit distinct basis vectors, so the squared
    # column norm splits as a sum of |amplitude|^2 over shift classes
    total = np.zeros((window,) * len(kept), dtype=np.float64)
    for block in shifts.values():
        total += np.abs(block) ** 2
    return float(np.sqrt(total.max()))


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
                value *= F.norm()
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
    """``{"f", "dim", "terms"}``; each term is ``{"scalar": [re, im],
    "factors": [...]}``, a factor being ``"I"`` or ``{"delta": d, "amps":
    [[re, im], ...]}`` with ``dim`` amplitude pairs."""
    terms = []
    for term in op.terms:
        factors = []
        for F in term.factors:
            if F is None:
                factors.append("I")
            else:
                amps = [_complex_to_json(z) for z in F.amps.tolist()]
                factors.append({"delta": F.delta, "amps": amps})
        terms.append({"scalar": _complex_to_json(term.scalar), "factors": factors})
    return {"f": op.f, "dim": op.dim, "terms": terms}


def _complex_from_json(z) -> complex:
    re, im = z
    return complex(re, im)


def operator_from_json(data: dict) -> TensorOperator:
    """Inverse of ``operator_to_json``; malformed input raises ``ValueError``."""
    try:
        f = operator.index(data["f"])
        dim = operator.index(data["dim"])
        terms = []
        for raw in data["terms"]:
            scalar = _complex_from_json(raw["scalar"])
            factors: list[FactorMatrix | None] = []
            for entry in raw["factors"]:
                if entry == "I":
                    factors.append(None)
                else:
                    amps = [_complex_from_json(z) for z in entry["amps"]]
                    factors.append(FactorMatrix(entry["delta"], amps))
            terms.append(TensorTerm(scalar, tuple(factors)))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed operator JSON: {exc!r}") from exc
    return TensorOperator(f, dim, tuple(terms))


def is_exact_zero_on_vacuum(op: TensorOperator) -> bool:
    """Structural vacuum annihilation: every term has a factor killing e_0."""
    for term in op.terms:
        if term.scalar == 0:
            continue
        if not any(
            F is not None and F.amps[0] == 0 for F in term.factors
        ):
            return False
    return True
