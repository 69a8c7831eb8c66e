"""Truncated shift-operator engine on (C^N)^{tensor f}.

Operators are sums of scalar-weighted elementary tensors of weighted-shift
factors (`delta`, amplitudes).  A `TensorOperator` stores its terms as two
read-only arrays: a complex scalar vector of shape (T,) and an integer id
matrix of shape (T, f).  Id 0 is the identity; every other id names one
row of `FACTORS`, the process-wide factor table, which also caches the
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
import json
import math
from dataclasses import dataclass

import numpy as np

from .permgroup import _index, _json_number, _real

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
    "operator_json_text",
    "operator_to_json",
    "operator_from_json",
]

# most complex128 elements one residual call may hold at once; see
# residual_on_window for what it counts
MAX_RESIDUAL_ELEMENTS = 64_000_000

# most elements one residual call may compute: the term blocks it builds and
# the squares it adds; see residual_on_window
MAX_RESIDUAL_WORK = 1 << 30

# most bytes one operator product may hold at once, checked before any of
# it is allocated: per pair of terms its complex128 scalar (16), and per
# pair and axis ``_PRODUCT_ID_BYTES``; see TensorOperator.__mul__.  The
# largest product of verify at n = 6 (252 x 252 terms on 36 axes) counts
# 74 MB; the first of verify --fock 8 --trunc 4 (3432 x 1716 terms on 64
# axes) would count 12 GB.  Not counted: the factor rows that a product's
# new pairs intern in the table, which stay there (one row per distinct new
# pair; 6.9 MB against 0.6 MB counted for 100 x 100 terms on 1 axis over
# 2000 distinct random factors)
MAX_PRODUCT_BYTES = 1 << 30

# bytes per pair of terms and axis that the id lookup
# ``FactorTable.products`` holds at once: the int64 pair key and store
# position and the mask of pairs found, and, where pairs are met for the
# first time, the unmet keys, copied and sorted in place, before the store
# is searched once more and the int32 product ids gathered.  tracemalloc
# measured at most 27.3 over a whole product, first and repeated, of 3000 x
# 1 and 300 x 300 terms on 20 axes, 60 x 60 on 36, 200 x 200 on 1 and 2 and
# 100 x 100 on 64 (numpy 2.4)
_PRODUCT_ID_BYTES = 32

# elements in one chunk of term blocks that a residual call builds at once;
# a term whose block is larger is built alone.  2^14 builds the classes on
# 7 or 8 axes at window 3 (3^7 or 3^8 elements per term) seven or two
# terms at a time, with one call per chunk instead of one per term
_CHUNK_ELEMENTS = 1 << 14

# most products ``_cmul`` computes as Python complex numbers: below about 32
# a list of CPython products is faster than the six numpy calls of the array
# route (about 4 us at any small size), above it slower (timeit, CPython
# 3.11, numpy 2.4)
_PYTHON_PRODUCTS = 32

# dtype of factor ids; a table never nears 2^31 factors
_ID = np.int32

# self-adjointness pattern of the four corner operators: T11* = T22, the two
# off-diagonal blocks are real diagonal
_ADJOINT_TAG = {"T11": "T22", "T22": "T11", "T12": "T12", "T21": "T21"}


@dataclass(frozen=True, eq=False)
class FactorMatrix:
    """One N x N tensor factor, a weighted shift: column c is
    ``amps[c] * e_{c+delta}``, with ``amps[c] = 0`` wherever c + delta falls
    outside 0..N-1.  The corner operators and all their products have this
    shape, so products, adjoints and norms act on the amplitude vector;
    ``FactorTable`` takes products and adjoints on its rows, and builds a
    ``FactorMatrix`` only to validate and intern each new one.

    The provenance tuple lists primitive tags ("T11", "T12", "T21", "T22")
    in product order; scalar evaluation of a factor multiplies the character
    values of its tags.  The identity is no factor: operators give it id 0,
    whose tags are ``()``.

    The shift must satisfy ``|delta| < 2^31``, or ``ValueError`` is raised:
    no truncation a run can hold comes near it, and the shift of a product,
    the sum of two stored shifts, then fits the table's int64 column.

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
        delta = _index(self.delta, "shift")
        if not -(2**31) < delta < 2**31:
            raise ValueError(f"shift must lie strictly between -2^31 and 2^31, got {delta}")
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


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of the 1-D ``keys``, ascending: the first of each
    run once ``keys`` is sorted in place, so a caller passes a copy.  The one
    way the package finds distinct ids, for ``FactorTable.products`` (unmet
    pair keys), ``FactorTable.adjoints`` (ids without an adjoint yet),
    ``TensorOperator.terms`` and ``qgrouprep.evaluate_terms``; unlike
    ``np.unique``, it imports no ``numpy.ma``."""
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


class FactorTable:
    """Interned tensor factors, addressed by integer id.  A factor is one
    row of the per-id columns below: the table keeps no ``FactorMatrix``,
    and a row is the only array copy of a factor besides its content key,
    ``(provenance, delta, amplitude bytes)``.  Factors with equal content
    share one id, whichever object they came from; a factor without
    provenance (read from JSON or built by hand) gets an anonymous id that
    no tagged factor shares.  Id 0 is the identity.  ``table[tid]`` is a
    snapshot, a new read-only ``FactorMatrix`` rebuilt from the row (None
    for id 0), for tests and ``TensorOperator.terms``.

    Lifetime: the process (the module keeps one table, ``FACTORS``).  Entries
    are never removed, so an id stays valid for every operator holding it;
    the table grows with the distinct factors put into operators and with
    the products and adjoints taken of them.  The product id of each pair of
    ids and the adjoint id of each id are computed once, on first use, from
    the operands' rows (see ``_add_products`` and ``adjoints``); a call
    whose pairs and ids are all known runs no Python loop over them.

    Products are stored as two arrays of equal length: the pair keys
    ``left << 32 | right`` in ascending order, and the product id of each.
    A lookup is one ``np.searchsorted`` of the broadcast keys and a gather.
    When pairs are not found, ``_distinct`` takes a copy of their keys:
    those distinct pairs are added in ascending (left, right) order, their
    factor products interned in that order, and merged in, and the store is
    searched once more.  An adjoint lookup that misses finds its distinct
    ids the same way, by ``_distinct``, and interns their adjoints in
    ascending id order.  A pair with the identity is stored with the other
    id ((0, b) gives b, (a, 0) gives a) and interns nothing.  So the store
    grows with the distinct pairs met, 12 bytes each, not with the square
    of the table's size, as a capacity x capacity id matrix would (256 MB
    of int32 at 8192 rows).

    Columns, indexed by id: ``deltas`` (the shift), ``dims`` (the size, 0
    for the identity), ``lead`` (the first column ``c`` with ``amps[c] !=
    0``, or ``dim`` for a zero factor, 0 for the identity: a factor kills
    the vacuum exactly when its lead is positive, and is zero on every
    column below ``window`` when its lead is at least ``window``),
    ``adjoint`` (the adjoint's id, -1 until first asked for, 0 for the
    identity), ``amps`` (complex128 of shape (capacity, width), row ``tid``
    the amplitudes padded with zeros to the widest size interned so far,
    row 0 ones) and ``tags`` (a list of provenances, None for an untagged
    factor, ``()`` for the identity).  The arrays are read-only views of
    private arrays that only ``intern`` and ``adjoints`` write; when the
    rows run out they double and when a wider factor arrives ``amps``
    widens, and the views are made again, so a view kept from before goes
    stale.  Rows past ``len(table)`` are unused.  ``max_lead``, an int, is
    the largest lead interned so far.  ``json`` is a list, filled on first
    use by ``json_texts``: the factor's entry as ``operator_json_text``
    writes it, ``{"amps": [[re, im], ...], "delta": d}``, or ``"I"`` for the
    identity, None until asked for.  A row never changes once interned, so
    its text stays valid for the life of the process.  ``vacuum`` is a
    list, filled by ``intern``: the factor's (0, 0) entry, the numpy
    complex128 ``amps[tid, 0]`` when its shift is 0 and the float ``0.0``
    otherwise (1.0 for the identity), read by ``vacuum_matrix_element``.
    """

    def __init__(self) -> None:
        self.tags: list[tuple[str, ...] | None] = [()]
        self.json: list[str | None] = ['"I"']
        self.vacuum: list[complex] = [1.0]
        self._by_content: dict[tuple, int] = {}
        # no pair key reaches the sentinel, since ids stay below 2^31
        self._pair_keys = np.array([np.iinfo(np.int64).max])
        self._pair_ids = np.array([-1], dtype=_ID)
        self._deltas, self._dims, self._lead = (np.zeros(0, dtype=np.int64) for _ in range(3))
        self._adjoint = np.zeros(0, dtype=_ID)
        self.max_lead = 0
        self._amps = np.zeros((0, 0), dtype=np.complex128)
        self._grow(64, 0)

    def _grow(self, rows: int, width: int) -> None:
        """Copies the columns into arrays of ``rows`` rows and ``amps`` of
        ``width`` columns, and rebinds the public read-only views."""
        fills = ((self._deltas, 0), (self._dims, 0), (self._lead, 0), (self._adjoint, -1))
        self._deltas, self._dims, self._lead, self._adjoint = (
            np.concatenate((column, np.full(rows - column.size, fill, column.dtype)))
            for column, fill in fills
        )
        self._adjoint[0] = 0
        amps = np.zeros((rows, width), dtype=np.complex128)
        amps[: self._amps.shape[0], : self._amps.shape[1]] = self._amps
        amps[0] = 1.0
        self._amps = amps
        for name in ("deltas", "dims", "lead", "adjoint", "amps"):
            view = getattr(self, "_" + name).view()
            view.setflags(write=False)
            setattr(self, name, view)

    def __len__(self) -> int:
        return len(self.tags)

    def __getitem__(self, tid: int) -> FactorMatrix | None:
        tags = self.tags[tid]
        if not tid:
            return None
        return FactorMatrix(int(self._deltas[tid]), self._amps[tid, : self._dims[tid]], tags)

    def intern(self, F: FactorMatrix | None) -> int:
        """The id of ``F``, its fields copied into a new row if none has its content."""
        if F is None:
            return 0
        key = (F.provenance, F.delta, F.amps.tobytes())
        tid = self._by_content.get(key)
        if tid is not None:
            return tid
        tid = len(self.tags)
        rows, width = self._amps.shape
        if tid == rows or F.dim > width:
            self._grow(2 * rows if tid == rows else rows, max(width, F.dim))
        self._deltas[tid], self._dims[tid] = F.delta, F.dim
        nonzero = F.amps != 0
        lead = int(nonzero.argmax()) if nonzero.any() else F.dim
        self._lead[tid] = lead
        self.max_lead = max(self.max_lead, lead)
        self._amps[tid, : F.dim] = F.amps
        self.tags.append(F.provenance)
        self.json.append(None)
        self.vacuum.append(self._amps[tid, 0] if F.delta == 0 else 0.0)
        self._by_content[key] = tid
        return tid

    def json_texts(self, ids: np.ndarray) -> list[str | None]:
        """The ``json`` column, with the rows of ``ids`` filled in."""
        for tid in set(ids.ravel().tolist()):
            if self.json[tid] is None:
                amps = map(_complex_json, self._amps[tid, : self._dims[tid]].tolist())
                self.json[tid] = f'{{"amps": [{", ".join(amps)}], "delta": {self._deltas[tid]}}}'
        return self.json

    def products(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Ids of the factor products ``left[i] @ right[i]``, the two id
        arrays broadcast against each other."""
        keys = left.astype(np.int64) << 32 | right
        at = np.searchsorted(self._pair_keys, keys)
        # the last stored key is a sentinel above every pair key, so ``at``
        # is always a valid index
        hit = self._pair_keys[at] == keys
        if not hit.all():
            self._add_products(_distinct(keys[~hit]))
            at = np.searchsorted(self._pair_keys, keys)
        return self._pair_ids[at]

    def _add_products(self, keys: np.ndarray) -> None:
        """Stores the products of the int64 pair ``keys``, ascending and
        none stored yet, interning the factor products in that order."""
        ids = []
        for key in keys.tolist():
            a, b = key >> 32, key & 0xFFFFFFFF
            if a and b:
                dim, db = int(self._dims[a]), int(self._deltas[b])
                if dim != self._dims[b]:
                    raise ValueError("factor dimension mismatch")
                # column c of b lands on row c + db, where a's column amplitude
                # applies; where c + db wraps around, b's own zero amplitude at
                # c cancels it.  Read before intern, which may regrow the rows
                amps = self._amps[b, :dim] * np.roll(self._amps[a, :dim], -db)
                ta, tb = self.tags[a], self.tags[b]
                tags = None if ta is None or tb is None else ta + tb
                ids.append(self.intern(FactorMatrix(int(self._deltas[a]) + db, amps, tags)))
            else:
                # a pair with the identity (0 on either side) is the other id
                ids.append(a | b)
        # ascending keys get nondecreasing positions, and np.insert puts the
        # keys that share a position in the order given
        at = np.searchsorted(self._pair_keys, keys)
        self._pair_keys = np.insert(self._pair_keys, at, keys)
        self._pair_ids = np.insert(self._pair_ids, at, ids)

    def adjoints(self, ids: np.ndarray) -> np.ndarray:
        """Ids of the adjoints of the factors ``ids``."""
        found = self._adjoint[ids]
        missing = found < 0
        if missing.any():
            for tid in _distinct(ids[missing]).tolist():
                delta, tags = int(self._deltas[tid]), self.tags[tid]
                if tags is not None and all(t in _ADJOINT_TAG for t in tags):
                    tags = tuple(_ADJOINT_TAG[t] for t in reversed(tags))
                else:
                    tags = None
                # column c of the adjoint is row c of the factor, hit by
                # column c - delta; where that wraps around, the adjoint's
                # column leaves the truncation and the zero amplitude there
                # cancels it
                amps = np.roll(self._amps[tid, : self._dims[tid]], delta).conj()
                adjoint = self.intern(FactorMatrix(-delta, amps, tags))
                self._adjoint[tid] = adjoint
            found = self._adjoint[ids]
        return found


FACTORS = FactorTable()


def _check_dim(N: int) -> int:
    """N read by ``permgroup._index`` (so 3.5, 4.0 and "4" raise
    ``ValueError``), checked to be at least 2."""
    N = _index(N, "truncation level")
    if N < 2:
        raise ValueError("truncation level must be at least 2")
    return N


def shift(N: int) -> FactorMatrix:
    """Isometric shift truncated to N levels: e_k -> e_{k+1}, e_{N-1} -> 0."""
    N = _check_dim(N)
    amps = np.ones(N)
    amps[-1] = 0.0
    return FactorMatrix(1, amps)


def _check_q(q: float) -> float:
    q = _real(q, "deformation parameter")
    if not 0.0 < q < 1.0:
        raise ValueError(f"deformation parameter must lie in (0, 1), got {q}")
    return q


# in place in one vector: sqrt(1 - q^{2m}) for m = start .. start + N - 1, q^m
def _c_amps(q: float, N: int, start: int = 0) -> np.ndarray:
    x = np.arange(2 * start, 2 * (start + N), 2, dtype=np.float64)
    return np.sqrt(np.subtract(1.0, np.power(q, x, out=x), out=x), out=x)


def _d_amps(q: float, N: int) -> np.ndarray:
    x = np.arange(N, dtype=np.float64)
    return np.power(q, x, out=x)


def c_q(q: float, N: int) -> FactorMatrix:
    """Diagonal operator e_m -> sqrt(1 - q^{2m}) e_m; kills e_0."""
    q = _check_q(q)
    N = _check_dim(N)
    return FactorMatrix(0, _c_amps(q, N))


def d_q(q: float, N: int) -> FactorMatrix:
    """Diagonal operator e_m -> q^m e_m."""
    q = _check_q(q)
    N = _check_dim(N)
    return FactorMatrix(0, _d_amps(q, N))


def t_block(i: int, j: int, q: float, N: int) -> FactorMatrix:
    """Corner operators of the 2x2 fundamental representation.

    T11 = S* C_q, T12 = -q D_q, T21 = D_q, T22 = C_q S.
    """
    if i not in (1, 2) or j not in (1, 2):
        raise ValueError(f"block index ({i}, {j}) outside {{1,2}}^2")
    q = _check_q(q)
    N = _check_dim(N)
    if (i, j) == (1, 1):
        # S* C_q sends e_m to sqrt(1 - q^{2m}) e_{m-1}; the e_0 amplitude is 0
        delta, amps = -1, _c_amps(q, N)
    elif (i, j) == (1, 2):
        delta, amps = 0, _d_amps(q, N)
        amps *= -q
    elif (i, j) == (2, 1):
        delta, amps = 0, _d_amps(q, N)
    else:
        # C_q S sends e_m to sqrt(1 - q^{2(m+1)}) e_{m+1}
        delta, amps = 1, _c_amps(q, N, start=1)
        amps[-1] = 0.0
    return FactorMatrix(delta, amps, provenance=(f"T{i}{j}",))


@functools.lru_cache(maxsize=None, typed=True)
def t_block_ids(q: float, N: int) -> dict[tuple[int, int], int]:
    """Factor-table ids of the four corner blocks at (q, N), built once, so
    every representation at (q, N) shares its base factors.  The cache is
    typed, so N = 4.0 reaches the check of ``t_block`` even once N = 4 is
    cached."""
    return {(i, j): FACTORS.intern(t_block(i, j, q, N)) for i in (1, 2) for j in (1, 2)}


def _cmul(a: complex | np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise complex product of a Python complex or complex128 array
    and a complex128 array, computed as CPython computes ``complex *
    complex`` (each part rounded after every operation, no fused
    multiply-add), so that it does not depend on the loop numpy picks.

    Three call shapes are served: a Python complex times a vector
    (``scale``), a column (m, 1) times a row (1, n), giving (m, n)
    (``__mul__``), and two vectors of one length (``evaluate_terms``).
    Up to ``_PYTHON_PRODUCTS`` products are computed as Python complex
    numbers, one ``*`` each; more are computed by the array route, which
    evaluates each part with the formula CPython's complex multiply
    evaluates, ``a.real * b.real - a.imag * b.imag`` and ``a.real * b.imag
    + a.imag * b.real``, in float64 ufuncs that round each operation.  Both
    routes round the same operations in the same order, so a product has
    the same bits on either, signed zeros and infinities included; a part
    is NaN on one exactly when it is on the other, though a NaN made from
    two NaNs may take its sign and payload from either, as it may between
    numpy's own loops.  The route is picked by comparing sizes, before any
    array is made."""
    if a.__class__ is complex:
        if b.size <= _PYTHON_PRODUCTS:
            return np.array([a * z for z in b.tolist()], dtype=np.complex128)
    elif a.ndim == 1:
        if b.size <= _PYTHON_PRODUCTS:
            return np.array([x * y for x, y in zip(a.tolist(), b.tolist())], dtype=np.complex128)
    elif a.size * b.size <= _PYTHON_PRODUCTS:
        products = [x * y for x in a.ravel().tolist() for y in b.ravel().tolist()]
        return np.array(products, dtype=np.complex128).reshape(a.size, b.size)
    real = a.real * b.real - a.imag * b.imag
    out = np.empty(real.shape, dtype=np.complex128)
    out.real = real
    out.imag = a.real * b.imag + a.imag * b.real
    return out


@dataclass(frozen=True)
class TensorTerm:
    """One elementary tensor: scalar * F_1 (x) ... (x) F_f, None meaning I;
    the record ``TensorOperator.terms`` yields, taken as given."""

    scalar: complex
    factors: tuple[FactorMatrix | None, ...]


class TensorOperator:
    """Finite sum of elementary tensors on (C^dim)^{tensor f}.

    Term t is ``scalars[t] * F[ids[t, 0]] (x) ... (x) F[ids[t, f-1]]``, with
    factors from ``FACTORS`` and id 0 meaning I.  Addition concatenates term
    lists (no automatic merging of proportional terms); multiplication
    distributes, term ``a * len(other) + b`` of ``self * other`` being the
    product of term a of self and term b of other; adjoints conjugate scalars
    and adjoint the factors without any order reversal, since the terms are
    elementary.  Scalars multiply as Python complex numbers do.

    ``from_ids`` is the only constructor, and ``terms`` a read-only view
    built on first use.  Operators are immutable.
    """

    __slots__ = ("f", "dim", "scalars", "ids", "_terms")

    @classmethod
    def _of(cls, f: int, dim: int, scalars: np.ndarray, ids: np.ndarray):
        """Wraps arrays that are valid by construction, without checks."""
        scalars.setflags(write=False)
        ids.setflags(write=False)
        op = object.__new__(cls)
        _set_f(op, f)
        _set_dim(op, dim)
        _set_scalars(op, scalars)
        _set_ids(op, ids)
        _set_terms(op, None)
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
        """``TensorTerm`` objects sharing one snapshot per distinct factor
        id, the ids found by ``_distinct`` and snapshotted in ascending order."""
        if self._terms is None:
            factors = {tid: FACTORS[tid] for tid in _distinct(self.ids.flatten()).tolist()}
            terms = tuple(
                TensorTerm(scalar, tuple(factors[tid] for tid in row))
                for scalar, row in zip(self.scalars.tolist(), self.ids.tolist())
            )
            _set_terms(self, terms)
        return self._terms

    @classmethod
    def identity(cls, f: int, dim: int) -> "TensorOperator":
        return cls.from_ids(f, dim, [1.0], [[0] * f])

    @classmethod
    def zero(cls, f: int, dim: int) -> "TensorOperator":
        return cls._of(f, dim, np.zeros(0, dtype=np.complex128), np.zeros((0, f), dtype=_ID))

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

    def scale(self, c: complex) -> "TensorOperator":
        scalars = _cmul(complex(c), self.scalars)
        return TensorOperator._of(self.f, self.dim, scalars, self.ids)

    def __mul__(self, other: "TensorOperator") -> "TensorOperator":
        self._check_compatible(other)
        if not (self.scalars.size and other.scalars.size):
            # what the lookup below would give, without it
            return TensorOperator.zero(self.f, self.dim)
        pairs = self.scalars.size * other.scalars.size
        held = pairs * (16 + _PRODUCT_ID_BYTES * self.f)
        if held > MAX_PRODUCT_BYTES:
            raise ValueError(
                f"product of {self.scalars.size} and {other.scalars.size} terms over "
                f"{self.f} axes would hold {held} bytes ({pairs} term pairs), more "
                f"than the limit {MAX_PRODUCT_BYTES}"
            )
        scalars = _cmul(self.scalars[:, None], other.scalars[None, :]).reshape(-1)
        ids = FACTORS.products(self.ids[:, None, :], other.ids[None, :, :])
        ids = ids.reshape(scalars.size, self.f)
        return TensorOperator._of(self.f, self.dim, scalars, ids)

    def restrict(self, window: int) -> "TensorOperator":
        """The operator without its terms that vanish on every column whose
        indices all lie below ``window`` (see ``_live_on_window``), so that
        it acts as ``self`` on those columns; ``self`` itself when no term
        vanishes there."""
        live = _live_on_window(self.scalars, self.ids, window)
        if live.all():
            return self
        return TensorOperator._of(self.f, self.dim, self.scalars[live], self.ids[live])

    def adjoint(self) -> "TensorOperator":
        return TensorOperator._of(
            self.f, self.dim, self.scalars.conj(), FACTORS.adjoints(self.ids)
        )

    def apply(self, v: np.ndarray) -> np.ndarray:
        """The operator applied to a dense state, a complex array of shape
        ``(dim,) * f`` (any other shape raises ``ValueError``): a test oracle
        on no certified path, kept while ``perfbench/tracing.py`` wraps it by
        name (ROADMAP item 1)."""
        v = np.asarray(v, dtype=np.complex128)
        if v.shape != (self.dim,) * self.f:
            raise ValueError(f"state shape {v.shape} is not {(self.dim,) * self.f}")
        out = np.zeros_like(v)
        for scalar, row in zip(self.scalars.tolist(), self.ids.tolist()):
            w = v
            for axis, tid in enumerate(row):
                if tid == 0:
                    continue
                # scale along the axis, then move index c to c + delta; the
                # entries that wrap around were scaled by zero amplitudes
                along = FACTORS.amps[tid, : self.dim].reshape((-1,) + (1,) * (self.f - axis - 1))
                w = np.roll(along * w, int(FACTORS.deltas[tid]), axis=axis)
            out = out + scalar * w
        return out


# the setters of the slots, which ``_of`` calls past the ``__setattr__``
# that keeps operators immutable
_set_f, _set_dim, _set_scalars, _set_ids, _set_terms = (
    TensorOperator.__dict__[name].__set__ for name in TensorOperator.__slots__
)


def vacuum_matrix_element(op: TensorOperator) -> complex:
    """<op e_0, e_0> without applying the operator: product of (0,0) entries."""
    total = 0.0 + 0.0j
    vacuum = FACTORS.vacuum
    for scalar, row in zip(op.scalars.tolist(), op.ids.tolist()):
        value = scalar
        for tid in row:
            if tid:
                value *= vacuum[tid]
        total += value
    return total


def _live_on_window(scalars: np.ndarray, ids: np.ndarray, window: int) -> np.ndarray:
    """Which terms may be nonzero on a column whose indices all lie below
    ``window``.  A term is dead there when its scalar is zero, or when its
    scalar is finite and one of its factors has a ``lead`` in ``FACTORS``
    of at least the window: it is then +-0 at every such column.  A
    non-finite scalar makes NaN there, so its term stays live.  The leads
    are gathered only when some factor in the table has a lead of at least
    the window."""
    live = scalars != 0
    if window <= FACTORS.max_lead:
        live &= (FACTORS.lead[ids] < window).all(axis=1) | ~np.isfinite(scalars)
    return live


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


def _cancelling_pairs(
    scalars: np.ndarray, ids: np.ndarray, pairs: list[list[int]], window: int
) -> np.ndarray:
    """Which two-term classes, each given by its two term indices, sum to
    +-0 at every window element, as a bool per class, decided without
    building a block.

    The two terms must have equal amplitudes on the window on every axis
    and opposite scalars.  Each element of a block is then built from
    operands equal in value, but for the sign of the scalar; an operation
    rounds its exact result, which depends on the operands' values alone
    and changes sign with one of them, and round-to-nearest is symmetric.
    So, with fused multiply-adds or without, the second block is the first
    negated, but for the signs of zeros, as long as nothing overflows.  To
    that end ``|s|`` times the product over the axes of ``max(1, max
    |amplitude|)`` must stay below 2^900: that bounds the modulus of every
    partial product the block builder forms, left to right, and so every
    part it rounds, far below overflow, and the sum is +-0, not the NaN of
    an infinity minus itself.  A NaN or infinite scalar fails the bound.
    Gathers ``2 * axes * window`` amplitudes per class."""
    terms = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    along = FACTORS.amps[:, :window][ids[terms]]
    first = scalars[terms[:, 0]]
    equal = (along[:, 0] == along[:, 1]).all(axis=(1, 2))
    opposite = scalars[terms[:, 1]] == -first
    with np.errstate(over="ignore"):
        bound = np.abs(first) * np.abs(along[:, 0]).max(axis=2, initial=1.0).prod(axis=1)
    return equal & opposite & (bound < 2.0**900)


def residual_on_window(a: TensorOperator, b: TensorOperator, d: int) -> float:
    """max over window basis vectors e_m of ``|| (a - b) e_m ||``.

    The window keeps every component m_i <= N-1-d, where d bounds the length
    of the generator words involved, so an identity of the untruncated
    algebra must come out zero up to floating point.  ``d`` is read by
    ``permgroup._index`` (so ``True`` is depth 1) and must satisfy 0 <= d < N,
    or ``ValueError`` is raised.

    First the terms that vanish on the window are dropped (those that
    ``_live_on_window`` finds dead), which are +-0 at every window element;
    adding +-0 changes only the sign of a zero, which the modulus removes.
    When no term is live the call returns 0.0 at once, before any count
    or limit below.  Every count below is of the live terms that remain,
    and of the axes on which one of them is not the identity.

    Terms are grouped by shift vector, classes numbered by first term.
    Every class is summed in term order from zero, and the squared column
    norm adds the classes' squared moduli in class order, so both paths
    below give the same bits.  A term's block has its last axis varying
    slowest (see ``_term_blocks``), and so has the sum of squares.

    A class that sums to zero at every window element is skipped once
    summed: its squares are all +0.0, and adding +0.0 to a sum of
    nonnegative squares changes no bit, so the other classes keep their
    order and their bits.  A NaN or an infinity is nonzero, and is added.
    The class-by-class path also skips a class of two terms that cancel
    exactly before building it (see ``_cancelling_pairs``): equal
    amplitudes on the window on every axis, opposite scalars, and a bound
    of 2^900 on every partial product, so that no block overflows and the
    class sums to +-0, not to NaN.  Every count and limit below is taken
    before any class is skipped: it counts every live term and class, so a
    call is refused, with the same message, whatever cancels.

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
    sum into its first term and is summed in place, one row add per term:
    like an axis-0 ``np.add.accumulate``, and unlike a reduction, this adds
    the terms one after another, but it runs numpy's inner loop along a row
    rather than down each column, about six times faster on eight rows of
    3^8 elements.  The scatter path adds its class squares the same way.
    The class's squared moduli are then added, broadcast
    over the axes it does not use, into a float64 sum of squares of W.  The
    call holds that sum (W / 2), the class sum, and the chunk being built
    with its previous axis and gathered amplitudes (``W_c + W_c / window +
    G_c`` per term); a class's squares (W_c / 2) come once its last chunk
    is freed.  The class sum is counted at W whatever axes its class uses,
    so that a window too wide for two W arrays is refused at its first
    call, and the chunk of the class whose chunk is largest is counted:
    ``W / 2 + W + chunk * (W_c + W_c / window + G_c)`` elements.

    Both counts add numpy's two iteration buffers of ``np.getbufsize()``
    elements, and are in complex128 elements.  Neither counts the
    amplitudes that the test for cancelling pairs gathers, ``2 * G`` per
    class of two terms, freed before the sum of squares is allocated.
    Before allocating any of these arrays the call raises ``ValueError``
    when the count of its path exceeds ``MAX_RESIDUAL_ELEMENTS``.

    Time is limited by the work, the elements of all the term blocks the
    call builds (W per term on the scatter path, W_c per term of a class on
    the class-by-class path) plus ``classes * W`` for the squares added over
    the window.  After the memory limit, and still before allocating any
    of these arrays, the call raises ``ValueError`` when the work exceeds
    ``MAX_RESIDUAL_WORK``: a call within the memory limit can still take
    hours, such as the first of ``verify --fock 5 --trunc 4`` (25 axes at
    window 2, 3748 terms in 939 classes, 3.2e10 elements of work).
    """
    a._check_compatible(b)
    dim = a.dim
    d = _index(d, f"window depth d={d!r} at N={dim}")
    if d < 0:
        raise ValueError(f"window depth d must be at least 0, got d={d} at N={dim}")
    window = dim - d
    if window <= 0:
        raise ValueError(f"window is empty: N={dim}, d={d}")
    scalars = np.concatenate((a.scalars, -b.scalars))
    ids = np.concatenate((a.ids, b.ids))
    live = _live_on_window(scalars, ids, window)
    kept = np.count_nonzero(live)
    if not kept:
        return 0.0
    if kept < live.size:
        scalars, ids = scalars[live], ids[live]
    # axes that every term treats as identity do not affect any column norm
    used = ids.any(axis=0)
    if np.count_nonzero(used) < used.size:
        ids = ids[:, used]
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
        work = (terms + count) * size
    else:
        # each class's scalars and ids in term order, on the axes it uses,
        # and how many of its blocks are built at once
        members: list[list[int]] = [[] for _ in range(count)]
        for term, key in enumerate(classes):
            members[key].append(term)
        plan = []
        chunk, build, work = 0, 0, count * size
        for rows in members:
            own = ids[rows]
            use = own.any(axis=0)
            own = own[:, use]
            width = window ** own.shape[1]
            part = min(len(rows), max(1, _CHUNK_ELEMENTS // width))
            plan.append((scalars[rows], own, use, part))
            work += len(rows) * width
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
    if work > MAX_RESIDUAL_WORK:
        raise ValueError(
            f"residual at N={dim}, d={d} over {axes} axes would take {work} "
            f"elements of work ({terms} term blocks of at most {window}^{axes}, "
            f"{count} class squares of {window}^{axes}), more than the work limit "
            f"{MAX_RESIDUAL_WORK}"
        )
    # distinct shift vectors hit distinct basis vectors, so the squared
    # column norm splits as a sum of |amplitude|^2 over shift classes
    if scatter:
        block = _term_blocks(scalars, ids, window)
        sums = _scatter_by_class(block, classes, count)
        del block
        # a class that sums to zero adds +0.0 to every square; a NaN or an
        # infinity is nonzero, and stays
        nonzero = sums.any(axis=1)
        count = np.count_nonzero(nonzero)
        if not count:
            return 0.0
        if count < nonzero.size:
            sums = sums[nonzero]
        square = np.abs(sums)
        del sums
        np.square(square, out=square)
        # row by row, unlike a reduction, adds the classes one after another
        for row in range(1, count):
            np.add(square[row - 1], square[row], out=square[row])
        total = square[-1]
    else:
        # one flag per class of two terms, in class order
        pairs = [rows for rows in members if len(rows) == 2]
        cancels = iter(_cancelling_pairs(scalars, ids, pairs, window).tolist())
        total = np.zeros((window,) * axes, dtype=np.float64)
        for own_scalars, own, use, part in plan:
            if len(own) == 2 and next(cancels):
                continue
            for start in range(0, len(own), part):
                block = _term_blocks(
                    own_scalars[start : start + part], own[start : start + part], window
                )
                if start:
                    np.add(running, block[0], out=block[0])
                    del running
                # row by row, unlike a reduction, adds the terms one after another
                for row in range(1, len(block)):
                    np.add(block[row - 1], block[row], out=block[row])
                # the class sum so far: a chunk of one term is that sum, and
                # a longer one is let go, so that the next is built without it
                running = block[0] if len(block) == 1 else block[-1].copy()
                del block
            # a class that sums to zero would add +0.0 to every square
            if not running.any():
                del running
                continue
            square = np.abs(running)
            del running
            np.square(square, out=square)
            # a block's last axis varies slowest, and so does the sum's
            total += square.reshape([window if u else 1 for u in reversed(use.tolist())])
            # the count holds a class's squares only until the next is built
            del square
    return float(np.sqrt(total.max()))


def norm_bound(op: TensorOperator) -> float:
    """Upper bound on the operator norm: sum over terms of
    ``|c_t| * prod_i ||F_{t,i}||_2``, identity factors counting 1.

    The norm of a Kronecker product is the product of the factor norms, so
    the bound is exact for a single elementary tensor; for a sum it follows
    from the triangle inequality.  No state vector is built.
    """
    # a factor's norm is its largest amplitude modulus; the identity's is 1.0
    ids = op.ids.tolist()
    norms = {t: float(np.abs(FACTORS.amps[t, : op.dim]).max()) for t in set().union(*ids)}
    total = 0.0
    for scalar, row in zip(op.scalars.tolist(), ids):
        value = abs(scalar)
        for tid in row:
            value *= norms[tid]
        total += value
    return total


def norm_estimate(op: TensorOperator, iters: int = 60) -> float:
    """Power-iteration lower bound on the operator norm via op* op, from a
    fixed random start.

    The Rayleigh quotients are nondecreasing in the iteration count and never
    exceed the true largest singular value.  Like ``apply``, on no certified
    path, kept while ``perfbench/tracing.py`` wraps it (ROADMAP item 1).
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


def _float_json(x: float) -> str:
    """``json.dumps(x)``: the repr of a finite float, else NaN or +-Infinity."""
    return repr(x) if math.isfinite(x) else json.dumps(x)


def _complex_json(z: complex) -> str:
    return f"[{_float_json(z.real)}, {_float_json(z.imag)}]"


def operator_json_text(op: TensorOperator) -> str:
    """The JSON text of ``op``, as ``json.dumps(..., sort_keys=True)`` writes
    the object ``{"dim", "f", "terms"}``; each term is ``{"factors": [...],
    "scalar": [re, im]}``, a factor being ``"I"`` or ``{"amps": [[re, im],
    ...], "delta": d}`` with ``dim`` amplitude pairs.  A non-finite scalar
    is written ``NaN``, ``Infinity`` or ``-Infinity``, as ``json.dumps``
    does.  Each factor's text is made once per process (``FactorTable``'s
    ``json`` column) and joined here."""
    texts = FACTORS.json_texts(op.ids)
    terms = ", ".join(
        f'{{"factors": [{", ".join([texts[tid] for tid in row])}], "scalar": {_complex_json(z)}}}'
        for z, row in zip(op.scalars.tolist(), op.ids.tolist())
    )
    return f'{{"dim": {op.dim}, "f": {op.f}, "terms": [{terms}]}}'


def operator_to_json(op: TensorOperator) -> dict:
    """``operator_json_text`` read back: the schema is stated once, there."""
    return json.loads(operator_json_text(op))


def _complex_from_json(z) -> complex:
    re, im = z
    return complex(_json_number(re, "real part"), _json_number(im, "imaginary part"))


def _factor_from_json(entry, dim: int) -> FactorMatrix | None:
    if entry == "I":
        return None
    if not isinstance(entry, dict):
        raise ValueError(f'factor entry must be "I" or an object, got {entry!r}')
    delta = _json_number(entry["delta"], "shift")
    F = FactorMatrix(delta, [_complex_from_json(z) for z in entry["amps"]])
    if F.dim != dim:
        raise ValueError(f"factor of size {F.dim} in an operator of dim {dim}")
    return F


def operator_from_json(data: dict) -> TensorOperator:
    """Inverse of ``operator_to_json``, by interning each factor entry.
    Malformed input raises ``ValueError``: f < 0, dim < 2, a non-finite
    scalar, a term without f factors, a factor not "I" or of size dim, a
    shift of modulus 2^31 or more, a JSON boolean where a number belongs."""
    try:
        f = _index(_json_number(data["f"], "factor count f"), "factor count f")
        if f < 0:
            raise ValueError(f"factor count f must be at least 0, got {f}")
        dim = _check_dim(_json_number(data["dim"], "truncation level"))
        scalars, rows = [], []
        for raw in data["terms"]:
            scalars.append(_complex_from_json(raw["scalar"]))
            if not np.isfinite(scalars[-1]):
                raise ValueError(f"term scalars must be finite, got {scalars[-1]!r}")
            if len(raw["factors"]) != f:
                raise ValueError(f"term has {len(raw['factors'])} factors, operator has f={f}")
            rows.append([_factor_from_json(entry, dim) for entry in raw["factors"]])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed operator JSON: {exc!r}") from exc
    # interned only once the whole input is read, so a rejected one adds none
    return TensorOperator.from_ids(f, dim, scalars, [list(map(FACTORS.intern, r)) for r in rows])


def is_exact_zero_on_vacuum(op: TensorOperator) -> bool:
    """Structural vacuum annihilation: every term has a factor killing e_0."""
    live = op.ids[op.scalars != 0]
    return bool((FACTORS.lead[live] > 0).any(axis=1).all())
