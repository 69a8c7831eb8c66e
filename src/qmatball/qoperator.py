"""Truncated shift-operator engine on (C^N)^{tensor f}.

Operators are sums of scalar-weighted elementary tensors of weighted-shift
factors (`delta`, amplitudes).  A `TensorOperator` stores its terms as two
read-only arrays: a complex scalar vector of shape (T,) and an integer id
matrix of shape (T, f).  Id 0 is the identity; every other id names one
factor in `FACTORS`, the process-wide factor table, which also caches the
product id of each pair of ids and the adjoint id of each id.  A product of
operators is then one sorted-key lookup over term pairs, an adjoint a
gather from the table's adjoint column, and the window residual reads
shift keys and amplitudes from the table by id.  Dense matrices and states
appear only in ``entries`` and ``apply``, which test oracles compare
against.

Identities of the untruncated algebra are certified on a truncation-safe
window: a word of d generators moves any occupation index by at most d, so
basis vectors whose indices do not exceed N-1-d see the exact
infinite-dimensional action.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FactorMatrix",
    "FactorTable",
    "FACTORS",
    "TensorTerm",
    "TensorOperator",
    "shift",
    "c_q",
    "d_q",
    "t_block",
    "t_block_ids",
    "residual_on_window",
    "norm_bound",
    "norm_estimate",
    "vacuum_matrix_element",
    "operator_to_json",
    "operator_from_json",
]

# most complex128 elements one residual call may hold at once; see
# residual_on_window for what it counts
MAX_RESIDUAL_ELEMENTS = 64_000_000

# elements in one chunk of term blocks that a residual call builds at once;
# a term whose block is larger is built alone
_CHUNK_ELEMENTS = 1 << 12

# dtype of factor ids; a table never nears 2^31 factors
_ID = np.int32

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


class FactorTable:
    """Interned tensor factors, addressed by integer id.

    Key: a factor's content, ``(provenance, delta, amplitude bytes)``.
    Factors with equal content share one id, whichever object they came
    from; a factor without provenance (read from JSON or built by hand) gets
    an anonymous id that no tagged factor shares.  Id 0 is the identity.

    Lifetime: the process (the module keeps one table, ``FACTORS``).  Entries
    are never removed, so an id stays valid for every operator holding it;
    the table grows with the distinct factors put into operators and with
    the products and adjoints taken of them.  The product id of each pair of
    ids and the adjoint id of each id are computed once, on first use; a
    call whose pairs and ids are all known runs no Python loop over them.

    Products are stored as two arrays of equal length: the pair keys
    ``left << 32 | right`` in ascending order, and the product id of each.
    A lookup is one ``np.searchsorted`` of the broadcast keys and a gather.
    The pairs not found are added in ascending (left, right) order, their
    factor products interned in that order, and merged in; a pair with the
    identity is stored with the other id ((0, b) gives b, (a, 0) gives a)
    and interns nothing.  So the store grows with the distinct pairs met,
    12 bytes each, not with the square of the table's size, as a
    capacity x capacity id matrix would (256 MB of int32 at 8192 rows).

    Four per-id columns serve indexing with id arrays: ``deltas`` (the
    shift), ``lead`` (the first column ``c`` with ``amps[c] != 0``, or
    ``dim`` for a zero factor; 0 for the identity, so a factor kills the
    vacuum exactly when its lead is positive, and is zero on every column
    below ``window`` when its lead is at least ``window``), ``adjoint`` (the
    id of the factor's adjoint, -1 until first asked for; 0 for the
    identity) and ``amps``, a complex128 array of shape (capacity, width)
    whose row ``tid`` holds ``F.amps`` padded with zeros to ``width``, the
    size of the widest factor interned so far; row 0, the identity, is ones
    across the full width.  They live as long as the table.  Each is a
    read-only view of a private array that only ``intern`` and ``adjoints``
    write; when the rows run out they double, and when a wider factor
    arrives ``amps`` widens, and the views are made again then, so a view
    kept from before goes stale.  Rows past ``len(table)`` are unused.
    ``max_lead``, a plain int, is the largest lead interned so far.
    """

    def __init__(self) -> None:
        self._factors: list[FactorMatrix | None] = [None]
        self._by_content: dict[tuple, int] = {}
        # no pair key reaches the sentinel, since ids stay below 2^31
        self._pair_keys = np.array([np.iinfo(np.int64).max])
        self._pair_ids = np.array([-1], dtype=_ID)
        self._deltas = np.zeros(0, dtype=np.int64)
        self._lead = np.zeros(0, dtype=np.int64)
        self._adjoint = np.zeros(0, dtype=_ID)
        self.max_lead = 0
        self._amps = np.zeros((0, 0), dtype=np.complex128)
        self._grow(64, 0)

    def _grow(self, rows: int, width: int) -> None:
        """Copies the columns into arrays of ``rows`` rows and ``amps`` of
        ``width`` columns, and rebinds the public read-only views."""
        self._deltas, self._lead, self._adjoint = (
            np.concatenate((column, np.full(rows - column.size, fill, column.dtype)))
            for column, fill in ((self._deltas, 0), (self._lead, 0), (self._adjoint, -1))
        )
        self._adjoint[0] = 0
        amps = np.zeros((rows, width), dtype=np.complex128)
        amps[: self._amps.shape[0], : self._amps.shape[1]] = self._amps
        amps[0] = 1.0
        self._amps = amps
        for name in ("deltas", "lead", "adjoint", "amps"):
            view = getattr(self, "_" + name).view()
            view.setflags(write=False)
            setattr(self, name, view)

    def __len__(self) -> int:
        return len(self._factors)

    def __getitem__(self, tid: int) -> FactorMatrix | None:
        return self._factors[tid]

    def intern(self, F: FactorMatrix | None) -> int:
        """The id of ``F``, adding it when no factor with its content is stored."""
        if F is None:
            return 0
        key = (F.provenance, F.delta, F.amps.tobytes())
        tid = self._by_content.get(key)
        if tid is not None:
            return tid
        tid = len(self._factors)
        rows, width = self._amps.shape
        if tid == rows or F.dim > width:
            self._grow(2 * rows if tid == rows else rows, max(width, F.dim))
        self._deltas[tid] = F.delta
        nonzero = np.flatnonzero(F.amps)
        lead = int(nonzero[0]) if nonzero.size else F.dim
        self._lead[tid] = lead
        self.max_lead = max(self.max_lead, lead)
        self._amps[tid, : F.dim] = F.amps
        self._factors.append(F)
        self._by_content[key] = tid
        return tid

    def products(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Ids of the factor products ``left[i] @ right[i]``, the two id
        arrays broadcast against each other."""
        keys = left.astype(np.int64) << 32 | right
        at = np.searchsorted(self._pair_keys, keys)
        # the last stored key is a sentinel above every pair key, so ``at``
        # is always a valid index
        hit = self._pair_keys[at] == keys
        if not hit.all():
            self._add_products(sorted(set(keys[~hit].tolist())))
            return self.products(left, right)
        return self._pair_ids[at]

    def _add_products(self, keys: list[int]) -> None:
        """Stores the products of the pair ``keys``, ascending and none
        stored yet, interning the factor products in that order."""
        ids = []
        for key in keys:
            a, b = key >> 32, key & 0xFFFFFFFF
            if a and b:
                ids.append(self.intern(self._factors[a].matmul(self._factors[b])))
            else:
                # a pair with the identity (0 on either side) is the other id
                ids.append(a | b)
        # the positions of the new keys in the merged store: stored keys
        # below each, plus the new keys before it (merged by hand, since
        # np.insert sorts its positions, and the table runs no numpy sort)
        at = np.searchsorted(self._pair_keys, keys) + np.arange(len(keys))
        old = np.ones(self._pair_keys.size + len(keys), dtype=bool)
        old[at] = False
        merged_keys = np.empty(old.size, dtype=np.int64)
        merged_keys[at], merged_keys[old] = keys, self._pair_keys
        merged_ids = np.empty(old.size, dtype=_ID)
        merged_ids[at], merged_ids[old] = ids, self._pair_ids
        self._pair_keys, self._pair_ids = merged_keys, merged_ids

    def adjoints(self, ids: np.ndarray) -> np.ndarray:
        """Ids of the adjoints of the factors ``ids``."""
        found = self._adjoint[ids]
        missing = found < 0
        if missing.any():
            for tid in sorted(set(ids[missing].tolist())):
                adj = self.intern(self._factors[tid].adjoint())
                # read the column after interning, which may have regrown it
                self._adjoint[tid] = adj
            found = self._adjoint[ids]
        return found


FACTORS = FactorTable()


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


@functools.cache
def t_block_ids(q: float, N: int) -> dict[tuple[int, int], int]:
    """Factor-table ids of the four corner blocks at (q, N), built once, so
    every representation at (q, N) shares its base factors."""
    return {(i, j): FACTORS.intern(t_block(i, j, q, N)) for i in (1, 2) for j in (1, 2)}


def _cmul(a: complex | np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise complex product of a Python complex or complex128 array
    and a complex128 array, broadcast, computed as CPython computes
    ``complex * complex`` (each part rounded after every operation, no fused
    multiply-add), so that it does not depend on the loop numpy picks."""
    real = a.real * b.real - a.imag * b.imag
    out = np.empty(real.shape, dtype=np.complex128)
    out.real = real
    out.imag = a.real * b.imag + a.imag * b.real
    return out


@dataclass(frozen=True)
class TensorTerm:
    """One elementary tensor: scalar * F_1 (x) ... (x) F_f, None meaning I."""

    scalar: complex
    factors: tuple[FactorMatrix | None, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "scalar", complex(self.scalar))
        object.__setattr__(self, "factors", tuple(self.factors))


class TensorOperator:
    """Finite sum of elementary tensors on (C^dim)^{tensor f}.

    Term t is ``scalars[t] * F[ids[t, 0]] (x) ... (x) F[ids[t, f-1]]``, with
    factors from ``FACTORS`` and id 0 meaning I.  Addition concatenates term
    lists (no automatic merging of proportional terms); multiplication
    distributes, term ``a * len(other) + b`` of ``self * other`` being the
    product of term a of self and term b of other; adjoints conjugate scalars
    and adjoint the factors without any order reversal, since the terms are
    elementary.  Scalars multiply as Python complex numbers do.

    ``TensorOperator(f, dim, terms)`` interns the factors of ``TensorTerm``
    objects; ``from_ids`` takes the arrays directly.  ``terms`` is a
    read-only view built on first use.  Operators are immutable.
    """

    __slots__ = ("f", "dim", "scalars", "ids", "_terms")

    def __init__(self, f: int, dim: int, terms=()) -> None:
        terms = tuple(terms)
        rows = []
        for term in terms:
            if len(term.factors) != f:
                raise ValueError(
                    f"term has {len(term.factors)} factors, operator has f={f}"
                )
            for F in term.factors:
                if F is not None and F.dim != dim:
                    raise ValueError("factor dimension differs from operator dim")
            rows.append([FACTORS.intern(F) for F in term.factors])
        scalars = np.array([term.scalar for term in terms], dtype=np.complex128)
        self._init(f, dim, scalars, np.array(rows, dtype=_ID).reshape(len(terms), f))

    def _init(self, f: int, dim: int, scalars: np.ndarray, ids: np.ndarray) -> None:
        scalars.setflags(write=False)
        ids.setflags(write=False)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "scalars", scalars)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "_terms", None)

    @classmethod
    def _of(cls, f: int, dim: int, scalars: np.ndarray, ids: np.ndarray):
        """Wraps arrays that are valid by construction, without checks."""
        op = object.__new__(cls)
        op._init(f, dim, scalars, ids)
        return op

    @classmethod
    def from_ids(cls, f: int, dim: int, scalars, ids) -> "TensorOperator":
        """Operator with the given scalars (T,) and ids (T, f), which must be
        ``FACTORS`` ids of factors of size ``dim``; only the shapes are checked."""
        scalars = np.array(scalars, dtype=np.complex128).reshape(-1)
        ids = np.array(ids, dtype=_ID).reshape(scalars.size, f)
        return cls._of(f, dim, scalars, ids)

    def __setattr__(self, name, value):
        raise AttributeError("TensorOperator is immutable")

    def __repr__(self) -> str:
        return f"TensorOperator(f={self.f}, dim={self.dim}, terms={self.scalars.size})"

    @property
    def terms(self) -> tuple[TensorTerm, ...]:
        if self._terms is None:
            terms = tuple(
                TensorTerm(scalar, tuple(FACTORS[tid] for tid in row))
                for scalar, row in zip(self.scalars.tolist(), self.ids.tolist())
            )
            object.__setattr__(self, "_terms", terms)
        return self._terms

    @classmethod
    def identity(cls, f: int, dim: int) -> "TensorOperator":
        return cls.from_ids(f, dim, [1.0], [[0] * f])

    @classmethod
    def zero(cls, f: int, dim: int) -> "TensorOperator":
        return cls.from_ids(f, dim, [], [])

    def is_zero(self) -> bool:
        return not np.any(self.scalars)

    def _check_compatible(self, other: "TensorOperator") -> None:
        if self.f != other.f or self.dim != other.dim:
            raise ValueError(
                f"shape mismatch: ({self.f}, {self.dim}) vs ({other.f}, {other.dim})"
            )

    def __add__(self, other: "TensorOperator") -> "TensorOperator":
        self._check_compatible(other)
        return TensorOperator._of(
            self.f,
            self.dim,
            np.concatenate((self.scalars, other.scalars)),
            np.concatenate((self.ids, other.ids)),
        )

    def __sub__(self, other: "TensorOperator") -> "TensorOperator":
        return self + other.scale(-1.0)

    def scale(self, c: complex) -> "TensorOperator":
        scalars = _cmul(complex(c), self.scalars)
        return TensorOperator._of(self.f, self.dim, scalars, self.ids)

    def __mul__(self, other: "TensorOperator") -> "TensorOperator":
        self._check_compatible(other)
        scalars = _cmul(self.scalars[:, None], other.scalars[None, :]).reshape(-1)
        ids = FACTORS.products(self.ids[:, None, :], other.ids[None, :, :])
        ids = ids.reshape(scalars.size, self.f)
        return TensorOperator._of(self.f, self.dim, scalars, ids)

    def adjoint(self) -> "TensorOperator":
        return TensorOperator._of(
            self.f, self.dim, self.scalars.conj(), FACTORS.adjoints(self.ids)
        )

    def apply(self, v: np.ndarray) -> np.ndarray:
        """The operator applied to a dense state, a complex array of shape
        ``(dim,) * f`` (any other shape raises ``ValueError``): a test oracle
        on no certified path, kept while ``perfbench/tracing.py`` wraps it by
        name (ROADMAP item 4)."""
        v = np.asarray(v, dtype=np.complex128)
        if v.shape != (self.dim,) * self.f:
            raise ValueError(f"state shape {v.shape} is not {(self.dim,) * self.f}")
        out = np.zeros_like(v)
        for scalar, row in zip(self.scalars.tolist(), self.ids.tolist()):
            w = v
            for axis, tid in enumerate(row):
                if tid == 0:
                    continue
                F = FACTORS[tid]
                # scale along the axis, then move index c to c + delta; the
                # entries that wrap around were scaled by zero amplitudes
                along = F.amps.reshape((-1,) + (1,) * (self.f - axis - 1))
                w = np.roll(along * w, F.delta, axis=axis)
            out = out + scalar * w
        return out


def vacuum_matrix_element(op: TensorOperator) -> complex:
    """<op e_0, e_0> without applying the operator: product of (0,0) entries."""
    total = 0.0 + 0.0j
    for scalar, row in zip(op.scalars.tolist(), op.ids.tolist()):
        value = scalar
        for tid in row:
            if tid:
                F = FACTORS[tid]
                value *= F.amps[0] if F.delta == 0 else 0.0
        total += value
    return total


def _shift_classes(keys: np.ndarray) -> tuple[list[int], int]:
    """Class of each row of ``keys`` (T, k), classes numbered in order of
    first appearance, and the number of classes.  Rows are compared by
    their bytes, which are equal exactly when the integer rows are."""
    keys = np.ascontiguousarray(keys)
    rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1])))
    index: dict[bytes, int] = {}
    classes = [index.setdefault(row, len(index)) for row in rows.ravel().tolist()]
    return classes, len(index)


def _term_blocks(scalars: np.ndarray, ids: np.ndarray, window: int) -> np.ndarray:
    """Each term's action on the window, on every axis of ``ids``: its
    scalar times the outer product of its factors' first ``window``
    amplitudes, read from the ``amps`` column of ``FACTORS`` by id (row 0,
    the identity, being ones), as a (terms, window^axes) array.

    Callers drop the axes on which every term is the identity: multiplying
    by ones could change only the sign of a zero.  The product grows one
    axis at a time, left to right, each element the running product times
    the new axis's amplitude.  Each new axis is put outermost, so that
    numpy's inner loop runs over the whole previous product; in the result
    the last axis varies slowest.  Besides the result it holds the
    gathered amplitudes, a (terms, axes, window) array (``axes * window``
    per term), and the previous axis's product.
    """
    terms, axes = ids.shape
    along = FACTORS.amps[:, :window][ids]
    # a copy even on no axis, since callers sum into the result in place
    block = scalars[:, None].copy()
    for axis in range(axes):
        # the running product stays the left operand: numpy's complex loop
        # may use fused multiply-adds, so a * b and b * a can differ in the
        # last bit of the imaginary part
        block = (block[:, None, :] * along[:, axis, :, None]).reshape(terms, -1)
    return block


def _scatter_by_class(block: np.ndarray, classes: list[int], count: int) -> np.ndarray:
    """The sum of the term blocks in each class, as a (count, W) array.
    ``np.bincount`` adds its weights in input order from 0.0, so every class
    is summed in term order, as ``+=`` would sum it; the real and imaginary
    parts are scattered as the two halves of each complex value.  Holds an
    int64 scatter index of two entries per block element."""
    parts = block.view(np.float64)
    width = parts.shape[1]
    index = np.asarray(classes, dtype=np.int64)[:, None] * width + np.arange(width)
    sums = np.bincount(index.reshape(-1), parts.reshape(-1), minlength=count * width)
    return sums.view(np.complex128).reshape(count, width // 2)


def residual_on_window(a: TensorOperator, b: TensorOperator, d: int) -> float:
    """max over window basis vectors e_m of ``|| (a - b) e_m ||``.

    The window keeps every component m_i <= N-1-d, where d bounds the length
    of the generator words involved, so an identity of the untruncated
    algebra must come out zero up to floating point.  ``d`` is taken through
    ``operator.index`` (so ``True`` is depth 1) and must satisfy 0 <= d < N,
    or ``ValueError`` is raised.

    First the terms that vanish on the window are dropped: those with a
    zero scalar, and those with a finite scalar and a factor whose ``lead``
    in ``FACTORS`` is at least the window, which are +-0 at every window
    element; adding +-0 changes only the sign of a zero, which the modulus
    removes.  The lead check runs only when some factor in the table has a
    lead of at least the window.
    Every count below is of the live terms that remain, and of the axes on
    which one of them is not the identity.

    Terms are grouped by shift vector, classes numbered by first term.
    Every class is summed in term order from zero, and the squared column
    norm adds the classes' squared moduli in class order, so both paths
    below give the same bits.  A term's block has its last axis varying
    slowest (see ``_term_blocks``), and so has the sum of squares.

    With W = window^axes and G = axes * window (the amplitudes the block
    builder gathers per term by id from ``FACTORS.amps``, the only copy of
    them a call makes), a call's block is ``terms * W`` elements.  A block
    of at most ``_CHUNK_ELEMENTS`` is built whole and scattered into its
    classes by one ``np.bincount``: the call holds the gathered
    amplitudes, the block, the scatter index (two int64 per block element,
    so W per term) and the class sums, ``terms * (2W + G) + classes * W``
    elements; the squares then fill half of what the block and index held.

    A larger block is summed one class at a time, in class order.  A
    class's terms are built only on the axes the class uses, ``W_c`` and
    ``G_c`` per term, in chunks of at most ``_CHUNK_ELEMENTS`` elements (one
    term, if a single term is larger).  Each chunk takes the running class
    sum into its first term and is summed in place by
    ``np.add.accumulate``, which, unlike a reduction, adds the terms one
    after another.  The class's squared moduli are then added, broadcast
    over the axes it does not use, into a float64 sum of squares of W.  The
    call holds that sum (W / 2), the class sum, and the chunk being built
    with its previous axis and gathered amplitudes (``W_c + W_c / window +
    G_c`` per term); a class's squares (W_c / 2) come once its last chunk
    is freed.  The class sum is counted at W whatever axes its class uses,
    so that a window too wide for two W arrays is refused at its first
    call, and the chunk of the class whose chunk is largest is counted:
    ``W / 2 + W + chunk * (W_c + W_c / window + G_c)`` elements.

    Both counts add numpy's two iteration buffers of ``np.getbufsize()``
    elements, and are in complex128 elements.  Before allocating any of
    these arrays the call raises ``ValueError`` when the count of its path
    exceeds ``MAX_RESIDUAL_ELEMENTS``.
    """
    a._check_compatible(b)
    dim = a.dim
    try:
        d = operator.index(d)
    except TypeError:
        raise ValueError(
            f"window depth d must be an integer, got d={d!r} at N={dim}"
        ) from None
    if d < 0:
        raise ValueError(f"window depth d must be at least 0, got d={d} at N={dim}")
    window = dim - d
    if window <= 0:
        raise ValueError(f"window is empty: N={dim}, d={d}")
    scalars = np.concatenate((a.scalars, -b.scalars))
    ids = np.concatenate((a.ids, b.ids))
    live = scalars != 0
    if window <= FACTORS.max_lead:
        # drop terms that are +-0 on the whole window; a non-finite scalar
        # makes NaN there, so its term stays
        live &= (FACTORS.lead[ids] < window).all(axis=1) | ~np.isfinite(scalars)
    scalars, ids = scalars[live], ids[live]
    # axes that every term treats as identity do not affect any column norm
    ids = ids[:, ids.any(axis=0)]
    if not scalars.size:
        return 0.0
    if not ids.shape[1]:
        return abs(sum(scalars.tolist(), 0j))

    terms, axes = ids.shape
    classes, count = _shift_classes(FACTORS.deltas[ids])
    size = window**axes
    # the amplitudes the block builder gathers from FACTORS.amps, per term
    gathered = axes * window
    # numpy's two iteration buffers for a broadcast multiply
    buffers = 2 * np.getbufsize()
    scatter = terms * size <= _CHUNK_ELEMENTS
    if scatter:
        needed = terms * (2 * size + gathered) + count * size + buffers
    else:
        # each class's scalars and ids in term order, on the axes it uses,
        # and how many of its blocks are built at once
        members: list[list[int]] = [[] for _ in range(count)]
        for term, key in enumerate(classes):
            members[key].append(term)
        plan = []
        chunk, build = 0, 0
        for rows in members:
            own = ids[rows]
            use = own.any(axis=0)
            own = own[:, use]
            width = window ** own.shape[1]
            part = min(len(rows), max(1, _CHUNK_ELEMENTS // width))
            plan.append((scalars[rows], own, use, part))
            elements = part * (width + width // window + own.shape[1] * window)
            if elements > build:
                chunk, build = part, elements
        needed = (size + 1) // 2 + size + build + buffers
    if needed > MAX_RESIDUAL_ELEMENTS:
        if scatter:
            held = f"{terms} term blocks, their scatter index, {count} class sums"
        else:
            held = f"the sum of squares, a class sum, {chunk} term blocks at a time"
        raise ValueError(
            f"residual at N={dim}, d={d} over {axes} axes would hold {needed} "
            f"elements ({held}; {window}^{axes} per term or class), more than "
            f"the limit {MAX_RESIDUAL_ELEMENTS}"
        )
    # distinct shift vectors hit distinct basis vectors, so the squared
    # column norm splits as a sum of |amplitude|^2 over shift classes
    if scatter:
        block = _term_blocks(scalars, ids, window)
        square = np.abs(_scatter_by_class(block, classes, count))
        del block
        np.square(square, out=square)
        # accumulate, unlike a reduction, adds the classes one after another
        total = np.add.accumulate(square, axis=0, out=square)[-1]
    else:
        total = np.zeros((window,) * axes, dtype=np.float64)
        for own_scalars, own, use, part in plan:
            for start in range(0, len(own), part):
                block = _term_blocks(
                    own_scalars[start : start + part], own[start : start + part], window
                )
                if start:
                    np.add(running, block[0], out=block[0])
                    del running
                if len(block) > 1:
                    # accumulate, unlike a reduction, adds the terms one after another
                    np.add.accumulate(block, axis=0, out=block)
                # the class sum so far: a chunk of one term is that sum, and
                # a longer one is let go, so that the next is built without it
                running = block[0] if len(block) == 1 else block[-1].copy()
                del block
            square = np.abs(running)
            del running
            np.square(square, out=square)
            # a block's last axis varies slowest, and so does the sum's
            total += square.reshape([window if u else 1 for u in reversed(use.tolist())])
    return float(np.sqrt(total.max()))


def norm_bound(op: TensorOperator) -> float:
    """Upper bound on the operator norm: sum over terms of
    ``|c_t| * prod_i ||F_{t,i}||_2``, identity factors counting 1.

    The norm of a Kronecker product is the product of the factor norms, so
    the bound is exact for a single elementary tensor; for a sum it follows
    from the triangle inequality.  No state vector is built.
    """
    total = 0.0
    for scalar, row in zip(op.scalars.tolist(), op.ids.tolist()):
        value = abs(scalar)
        for tid in row:
            if tid:
                value *= FACTORS[tid].norm()
        total += value
    return total


def norm_estimate(op: TensorOperator, iters: int = 60) -> float:
    """Power-iteration lower bound on the operator norm via op* op, from a
    fixed random start.

    The Rayleigh quotients are nondecreasing in the iteration count and never
    exceed the true largest singular value.  Like ``apply``, on no certified
    path, kept while ``perfbench/tracing.py`` wraps it (ROADMAP item 4).
    """
    if iters < 1:
        raise ValueError("iters must be at least 1")
    gram = op.adjoint() * op
    rng = np.random.default_rng(7)
    shape = (op.dim,) * op.f
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        return 0.0
    v = complex(1.0 / nv) * v
    best = 0.0
    for _ in range(iters):
        w = gram.apply(v)
        best = max(best, complex(np.vdot(v, w)).real)
        nw = float(np.linalg.norm(w))
        if nw < 1e-300:
            break
        v = complex(1.0 / nw) * w
    return float(np.sqrt(max(best, 0.0)))


def _complex_to_json(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def operator_to_json(op: TensorOperator) -> dict:
    """``{"f", "dim", "terms"}``; each term is ``{"scalar": [re, im],
    "factors": [...]}``, a factor being ``"I"`` or ``{"delta": d, "amps":
    [[re, im], ...]}`` with ``dim`` amplitude pairs."""
    # each factor's entry is built once, when its id is first met
    factors: dict[int, object] = {0: "I"}

    def entry(tid: int) -> object:
        if tid not in factors:
            F = FACTORS[tid]
            amps = [_complex_to_json(z) for z in F.amps.tolist()]
            factors[tid] = {"delta": F.delta, "amps": amps}
        return factors[tid]

    terms = [
        {"scalar": _complex_to_json(scalar), "factors": [entry(tid) for tid in row]}
        for scalar, row in zip(op.scalars.tolist(), op.ids.tolist())
    ]
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
    live = op.ids[op.scalars != 0]
    return bool((FACTORS.lead[live] > 0).any(axis=1).all())
