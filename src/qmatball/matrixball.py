"""The quantized matrix ball layer: Fock representation, representations from
admissible strings, the float evaluation of the relation instances of
``relations``, vacuum and monomial checks, and the kernel-based case split.

Generators z_k^j (k = bottom-edge entry column, j = right-edge exit row) are
realized as (-q)^{k-n} times the corresponding entry of the block-swap word
representation on n^2 truncated shift factors; reduced representations apply
scalar factor evaluations according to the grid coloring of a string.
"""

from __future__ import annotations

import cmath
import functools
import itertools
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .diagramcalc import _z_prefactor, factor_index, grid_from_string
from .permgroup import AdmissibleString, ReducedWord, _index, _real
from .qgrouprep import (
    FactorEvaluation,
    SoibelmanRep,
    # unused here; kept because perfbench/tracing.py wraps matrixball.apply_tau
    apply_tau,  # noqa: F401
    evaluate_terms,
    rep_generator,
)
from .qoperator import (
    TensorOperator,
    _cmul,
    is_exact_zero_on_vacuum,
    norm_bound,
    # unused here; kept because perfbench/tracing.py wraps matrixball.norm_estimate
    norm_estimate,  # noqa: F401
    operator_products,
    residual_on_window,
)
from .relations import (
    _ONE,
    Instance,
    _Name,
    _Side,
    _lp_eval,
    a_m_instances,
    a_m_side,
    boundary_side,
    exchange_instances,
    holomorphic_instances,
)

__all__ = [
    "GeneratorImages",
    "MonomialExponent",
    "RelationReport",
    "fock_word",
    "fock_rep",
    "rep_from_string",
    "verify_relations",
    "z_monomial",
    "shilov_eval",
    "classify_case",
    "coherent_check",
    "a_m_checks",
    "contraction_check",
    "vacuum_annihilation_exact",
]

# monomials are kept inside the exact region of the truncation
DEFAULT_DEGREE_MARGIN = 2

@dataclass(frozen=True)
class GeneratorImages:
    """Images of all z_k^j under one representation, plus its provenance."""

    n: int
    q: float
    N: int
    z: tuple[tuple[TensorOperator, ...], ...]
    provenance: str

    @property
    def f(self) -> int:
        return self.z[0][0].f

    def gen(self, k: int, j: int) -> TensorOperator:
        if not (1 <= k <= self.n and 1 <= j <= self.n):
            raise ValueError(f"generator index ({k}, {j}) outside 1..{self.n}")
        return self.z[k - 1][j - 1]

    def identity(self) -> TensorOperator:
        return TensorOperator.identity(self.f, self.N)

    @functools.cached_property
    def _stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The terms of all n^2 images in one list, row-major by (k, j):
        scalars (T,), ids (T, f), and the n^2 + 1 offsets that cut it into
        images.  Stacked on first use and kept with the images, so a
        memoized ``fock_rep`` stacks once for every ``rep_from_string``."""
        images = [op for row in self.z for op in row]
        scalars = np.concatenate([op.scalars for op in images])
        ids = np.concatenate([op.ids for op in images])
        offsets = np.cumsum([0] + [op.scalars.size for op in images])
        for array in (scalars, ids, offsets):
            array.setflags(write=False)
        return scalars, ids, offsets


@dataclass(frozen=True)
class MonomialExponent:
    """n x n exponent matrix A; entry (k, j) is the power of z_k^j."""

    A: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(_index(x, "exponent") for x in row) for row in self.A)
        object.__setattr__(self, "A", rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("exponent matrix must be square")
        if any(x < 0 for row in rows for x in row):
            raise ValueError("exponents must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.A)

    def degree(self) -> int:
        return sum(sum(row) for row in self.A)

    def power(self, k: int, j: int) -> int:
        return self.A[k - 1][j - 1]


@dataclass(frozen=True)
class RelationReport:
    """One verified relation instance with its window residual, checked on
    the window of depth ``depth`` (indices 0..N-1-depth on every axis)."""

    relation: str
    indices: tuple[int, ...]
    residual: float
    depth: int

    @classmethod
    def of(
        cls,
        relation: str,
        indices: tuple[int, ...],
        lhs: TensorOperator,
        rhs: TensorOperator,
        depth: int,
    ) -> "RelationReport":
        """The report of ``lhs = rhs``, checked on the window of ``depth``."""
        return cls(relation, indices, residual_on_window(lhs, rhs, depth), depth)


def fock_word(n: int) -> ReducedWord:
    """Reduced word of the block swap whose tensor factors follow the
    column-major grid order: the letter at cell (row, col) is s_{row+col-1},
    cells listed up each column starting at the lower left."""
    letters = [row + col - 1 for col in range(1, n + 1) for row in range(n, 0, -1)]
    return ReducedWord(2 * n, tuple(letters))


@functools.lru_cache(maxsize=None, typed=True)
def fock_rep(n: int, q: float, N: int, /) -> GeneratorImages:
    """Vacuum representation on n^2 truncated shift factors.

    z_k^j goes to (-q)^{k-n} times the (n+k, n+j) word-representation entry
    of the block swap; every adjoint image annihilates the vacuum
    structurally.

    Lifetime: the process.  The images are built once per ``(n, q, N)`` and
    the same ``GeneratorImages`` is returned to every later caller,
    ``rep_from_string`` included; sharing is safe because the images are
    frozen and their operator arrays read-only.  The parameters are
    positional-only, so each ``(n, q, N)`` has a single cache entry.  Invalid
    arguments raise on every call (exceptions are not cached); n and N are
    read by ``permgroup._index``, and the cache is typed, so a float
    such as 4.0 is refused even once 4 is cached (an ``np.int64(4)`` gets
    an entry of its own, with ``N == 4`` an int).
    ``fock_rep.cache_clear()`` drops the built images.
    """
    n = _index(n, "n")
    if n < 1:
        raise ValueError("n must be positive")
    rep = SoibelmanRep(fock_word(n), q, N)
    table = tuple(
        tuple(
            rep_generator(rep, n + k, n + j).scale(_z_prefactor(rep.q, k, n))
            for j in range(1, n + 1)
        )
        for k in range(1, n + 1)
    )
    return GeneratorImages(n, rep.q, rep.N, table, provenance=f"fock(n={n})")


def _string_evaluation(string: AdmissibleString) -> FactorEvaluation:
    grid = grid_from_string(string)
    assignments = []
    for row in range(1, grid.n + 1):
        for col in range(1, grid.n + 1):
            cell = grid.cell(row, col)
            if cell.kind == "dark":
                assignments.append((factor_index(grid.n, row, col), 0.0))
            elif cell.kind == "light":
                assignments.append((factor_index(grid.n, row, col), cell.phase))
    return FactorEvaluation(tuple(assignments))


def rep_from_string(string: AdmissibleString, q: float, N: int) -> GeneratorImages:
    """Representation classified by an admissible string: scalar-evaluate the
    colored factors of the memoized vacuum representation ``fock_rep(n, q,
    N)`` (dark at phase 0, light at the row phase); the result acts on the
    white factors only.

    The terms of all n^2 Fock images, stacked into one list once per base
    (not per string), are evaluated by one ``evaluate_terms`` pass, whose
    bits are those of ``apply_tau`` on each image; the surviving terms are
    cut at the images' term offsets, so each image keeps its own terms in
    their order.  The images are slices of two read-only arrays."""
    base = fock_rep(string.n, q, N)
    scalars, ids, offsets = base._stacked
    scalars, kept, keep = evaluate_terms(scalars, ids, _string_evaluation(string))
    ids = ids.take(kept, axis=0).take(keep, axis=1)
    scalars.setflags(write=False)
    ids.setflags(write=False)
    cuts = np.searchsorted(kept, offsets).tolist()
    ops = [
        TensorOperator._of(len(keep), base.N, scalars[a:b], ids[a:b])
        for a, b in zip(cuts, cuts[1:])
    ]
    n = string.n
    table = tuple(tuple(ops[k * n : (k + 1) * n]) for k in range(n))
    return GeneratorImages(n, base.q, base.N, table, provenance=f"string{string.pairs()!r}")


# most elements one chunk of relation instances builds at once, a term
# counting its scalar and its f ids: the term pairs of the chunk's new word
# products and the terms of its sides (see _Products.elements); one
# instance that counts more is a chunk alone.  At 2^16 each part of
# verify_relations at n = 4, N = 3 is one chunk, and n = 7, N = 3 peaks at
# 74 MB, against 72 MB and 20-35% more time at 2^12, 78 MB at 2^18 and
# 169 MB with one chunk per part (warm runs, 2 vCPUs, numpy 2.4)
_BATCH_ELEMENTS = 1 << 16


class _Products:
    """Named operators (adjoints and A_m) and products of two of them, each
    computed once, and the operators of relation sides, all built for the
    window of depth 2: the columns whose indices lie below N - 2 on every
    axis.  Every relation side of ``relations`` is built here, by
    ``sides``, so each coefficient is evaluated at q in one place, and
    every word of a side, an exchange left side z*_{b,beta} z_{a,alpha}
    included, is one cached entry; ``forget_products`` empties that cache.
    ``__call__`` and ``side`` are ``sides`` of one side.

    A product X Y is X times Y restricted to the window (``restrict``, held
    once per name): Y acts as its restriction on window columns, so X Y
    does too.  A dropped term of Y has a factor F with zero amplitudes on
    the window, or a zero scalar; every product of it has the factor G F,
    zero wherever F is, and the scalar x y, so the window residual would
    drop it as well, provided x y, times the coefficient of its side, is
    finite.  A non-finite scalar makes NaN, which the residual keeps, so Y
    is restricted only when every generator image scalar is finite with
    modulus below 2^300 and q^-2 is below 2^300.  A side's scalar is then a
    coefficient of modulus at most 4 q^-2 times a product of two image
    scalars, or a coefficient of at most 1 times an image scalar and one of
    A_m, itself a product of two, and stays below 2^1000."""

    def __init__(self, g: GeneratorImages) -> None:
        self.g = g
        self._restrict = g.q > 2.0**-150 and all(
            (abs(z.scalars) < 2.0**300).all() for row in g.z for z in row
        )
        self._named: dict[_Name, TensorOperator] = {}
        self._on_window: dict[_Name, TensorOperator] = {}
        self._products: dict[tuple, TensorOperator] = {}

    def op(self, name: _Name) -> TensorOperator:
        kind, k, j = name
        if kind == "z":
            return self.g.gen(k, j)
        if name not in self._named:
            if kind == "zs":
                self._named[name] = self.g.gen(k, j).adjoint()
            else:  # ("A", m, 0)
                self._named[name] = self.side(a_m_side(self.g.n, k))
        return self._named[name]

    def _operands(self, word: tuple) -> tuple[TensorOperator, TensorOperator]:
        """The two factors of a product word: the left name, and the right
        one restricted to the window."""
        left, right = word
        if right not in self._on_window:
            op = self.op(right)
            self._on_window[right] = op.restrict(self.g.N - 2) if self._restrict else op
        return self.op(left), self._on_window[right]

    def _word(self, word: tuple) -> TensorOperator:
        """The operator of a word, once its product, if it has one, is cached."""
        if len(word) == 2:
            return self._products[word]
        return self.op(*word) if word else self.g.identity()

    def __call__(self, *word: _Name) -> TensorOperator:
        """The operator of a word; a product of two names is computed once,
        as the left name times the right one restricted to the window."""
        return self.sides([[(_ONE, word)]])[0]

    def side(self, side: _Side) -> TensorOperator:
        """The operator of one relation side."""
        return self.sides([side])[0]

    def elements(self, sides: list[_Side], planned: dict) -> int:
        """What building ``sides`` adds to a chunk whose new products are
        ``planned``, in elements of ``_BATCH_ELEMENTS``: the term pairs of
        each product word neither cached nor planned yet, which it plans,
        and the terms of every word of the sides.  Builds the names that
        the sides use, so every A_m is built before a product that uses it."""
        terms = 0
        for side in sides:
            for _, word in side:
                if len(word) < 2:
                    terms += self.op(*word).scalars.size if word else 1
                elif word in self._products:
                    terms += self._products[word].scalars.size
                else:
                    if word not in planned:
                        left, right = self._operands(word)
                        planned[word] = left.scalars.size * right.scalars.size
                        # once as a product, and below as terms of the side
                        terms += planned[word]
                    terms += planned[word]
        return terms * (1 + self.g.f)

    def sides(self, sides: list[_Side]) -> list[TensorOperator]:
        """The operators of relation sides, in order.  First the product
        words the sides use that are not cached yet are built by one
        ``operator_products`` call, in order of first use, and cached.
        Each side is then the sum of its terms ``c * word`` in order, the
        one place where a coefficient is evaluated at q (1 scales nothing);
        a side of a single unscaled word is that word's operator.  The
        scalars and ids of the terms of all other sides are concatenated
        once, and the scaled terms' scalars multiplied by their
        coefficients with one ``_cmul``, which has the bits of the
        ``_cmul(complex(c), op.scalars)`` of ``op.scale(c)`` for each.  So
        each such side is a slice in the layout of the chain ``op.scale(c)
        + ...``, with that chain's terms bit for bit."""
        operands = {}
        for side in sides:
            for _, word in side:
                if len(word) == 2 and word not in self._products:
                    operands[word] = self._operands(word)
        # the products of an A_m operand's own side are cached by now
        new = [word for word in operands if word not in self._products]
        if new:
            self._products.update(zip(new, operator_products([operands[w] for w in new])))
        out: list = []
        spans, parts, scales = [], [], []
        for side in sides:
            terms = [(c, self._word(word)) for c, word in side]
            if len(terms) == 1 and terms[0][0] == _ONE:
                out.append(terms[0][1])
                continue
            spans.append((len(out), len(parts), len(parts) + len(terms)))
            out.append(None)
            for c, op in terms:
                parts.append(op)
                scales.append(None if c == _ONE else _lp_eval(c, self.g.q))
        if parts:
            sizes = [op.scalars.size for op in parts]
            scalars = np.concatenate([op.scalars for op in parts])
            ids = np.concatenate([op.ids for op in parts])
            scaled = [c is not None for c in scales]
            if any(scaled):
                at = np.repeat(scaled, sizes)
                by = np.array([c for c in scales if c is not None], dtype=np.complex128)
                by = np.repeat(by, [size for size, s in zip(sizes, scaled) if s])
                scalars[at] = _cmul(by, scalars[at])
            offsets = list(itertools.accumulate(sizes, initial=0))
            f, dim = parts[0].f, parts[0].dim
            for k, first, stop in spans:
                start, end = offsets[first], offsets[stop]
                out[k] = TensorOperator._of(f, dim, scalars[start:end], ids[start:end])
        return out

    def forget_products(self) -> None:
        """Drops the cached products and keeps the named operators."""
        self._products.clear()


def _reports(prod: _Products, instances: Iterable[Instance]) -> list[RelationReport]:
    """The report of each instance, in order: the window residual of its two
    sides, both built by ``prod``, on the window of its depth: the one loop
    of ``verify_relations`` and ``a_m_checks``.  The instances are taken in
    chunks of consecutive ones that count at most ``_BATCH_ELEMENTS``
    elements (see ``_Products.elements``), one instance alone if it counts
    more; the sides of a chunk are built by one ``prod.sides`` call, its
    new products with them, and each instance then makes one window
    residual call.  A chunk holds its sides until its last residual, and,
    while they are built, the gathered terms and id lookup of its new
    products and the concatenated terms of its sides: at most 32 bytes per
    element counted, 1 kB per operator made (new products and sides) and
    4 kB besides, once the factor table holds its factor pairs (which it
    keeps; tracemalloc read at most 15 bytes per element all told on the
    chunks of over 4096 elements at n = 2 to 4)."""
    reports: list[RelationReport] = []
    chunk, planned, elements = [], {}, 0
    for instance in instances:
        count = prod.elements(instance[2:4], planned)
        if chunk and elements + count > _BATCH_ELEMENTS:
            reports += _chunk_reports(prod, chunk)
            # counted again, now that the words the chunk built are cached
            chunk, planned, elements = [], {}, 0
            count = prod.elements(instance[2:4], planned)
        chunk.append(instance)
        elements += count
    return reports + _chunk_reports(prod, chunk)


def _chunk_reports(prod: _Products, chunk: list[Instance]) -> list[RelationReport]:
    """The reports of one chunk of ``_reports``."""
    built = prod.sides([side for instance in chunk for side in instance[2:4]])
    return [
        RelationReport.of(family, indices, lhs, rhs, depth)
        for (family, indices, _, _, depth), lhs, rhs in zip(chunk, built[::2], built[1::2])
    ]


def verify_relations(g: GeneratorImages, tol: float = 1e-10) -> list[RelationReport]:
    """Window residuals for every defining-relation instance of
    ``relations.holomorphic_instances`` and ``relations.exchange_instances``,
    in their order: the three holomorphic families, each with its adjoint
    family, then per (a, b, alpha, beta) the exchange relation, reported
    twice, under its case's family (zaa41 to zaa44) and as "R-form".  All
    relations are quadratic, hence window depth 2.  Every residual is
    reported, whatever its size: ``tol`` is accepted and ignored, because
    callers such as the benchmark workloads pass it.

    An exchange instance has one right-hand side, built by
    ``_Products.side`` from the sorted R-matrix table that
    ``exchange_instances`` yields, and one window residual, which both of
    its reports carry.  ``exchange_instances`` has compared that table
    exactly with the per-case one, which lists the same words in the same
    order, so the side is the per-case relation's as well: exact agreement
    of the two tables is their cross-check, and the residual checks the
    side against the representation.

    Both parts run through ``_reports``, the report loop shared with
    ``a_m_checks``, on one ``_Products``, whose cached products are dropped
    once, between the holomorphic and the exchange instances; an exchange
    left side is a cached word like any other.
    """
    prod = _Products(g)
    reports = _reports(prod, holomorphic_instances(g.n))
    # the exchange families below share only the products z * z*
    prod.forget_products()
    for report in _reports(prod, exchange_instances(g.n)):
        reports += report, RelationReport("R-form", report.indices, report.residual, report.depth)
    return reports


def z_monomial(g: GeneratorImages, A: MonomialExponent) -> TensorOperator:
    """Ordered monomial: subscripts descend n..1 outermost, superscripts
    descend n..1 within each subscript.  Its degree may be at most
    ``g.N - DEFAULT_DEGREE_MARGIN``."""
    if A.n != g.n:
        raise ValueError(f"exponent matrix is {A.n} x {A.n}, representation has n={g.n}")
    cap = g.N - DEFAULT_DEGREE_MARGIN
    if A.degree() > cap:
        raise ValueError(f"monomial degree {A.degree()} exceeds cap {cap}")
    op = g.identity()
    for k in range(g.n, 0, -1):
        for j in range(g.n, 0, -1):
            for _ in range(A.power(k, j)):
                op = op * g.gen(k, j)
    return op


def vacuum_annihilation_exact(g: GeneratorImages) -> bool:
    """Whether every adjoint generator image kills the vacuum structurally
    (each term contains a factor with an exactly zero first column)."""
    return all(
        is_exact_zero_on_vacuum(g.gen(k, j).adjoint())
        for k in range(1, g.n + 1)
        for j in range(1, g.n + 1)
    )


def shilov_eval(
    g: GeneratorImages, alpha: int, beta: int
) -> tuple[TensorOperator, float]:
    """Boundary-ideal generator sum_j q^{2n-alpha-beta} z_j^alpha z*_j^beta
    minus delta, with its window residual from zero.  The operator is built
    for the window of depth 2 (see ``_Products``): it equals the generator
    on every column with indices below N - 2, and may lack terms that
    vanish there."""
    n = g.n
    if not (1 <= alpha <= n and 1 <= beta <= n):
        raise ValueError(f"indices ({alpha}, {beta}) outside 1..{n}")
    op = _Products(g).side(boundary_side(n, alpha, beta))
    residual = residual_on_window(op, TensorOperator.zero(g.f, g.N), 2)
    return op, residual


def classify_case(string: AdmissibleString) -> str:
    """"B" when the last row and last column of the grid are entirely white
    (all adjoint kernels of the boundary generators are then nontrivial),
    else "A"."""
    grid = grid_from_string(string)
    n = grid.n
    bottom_white = all(grid.cell(n, col).kind == "white" for col in range(1, n + 1))
    right_white = all(grid.cell(row, n).kind == "white" for row in range(1, n + 1))
    return "B" if bottom_white and right_white else "A"


def coherent_check(q: float, N: int, phi: float) -> float:
    """Defining-property residual of the coherent representation (n = 3).

    The string [(3,0), (3,0), (2, phi)] has cyclic vector Omega = e_0 with
    z*_j^i Omega = 0 away from (i, j) = (1, 1) and z*_1^1 Omega =
    e^{-i phi} Omega.
    """
    phi = _real(phi, "phase")
    string = AdmissibleString(3, (3, 3, 2), (0.0, 0.0, phi))
    g = rep_from_string(string, q, N)
    expected = {(1, 1): g.identity().scale(cmath.exp(-1j * phi))}
    zero = TensorOperator.zero(g.f, g.N)
    # the window of depth N - 1 holds only Omega
    return max(
        residual_on_window(g.gen(j, i).adjoint(), expected.get((i, j), zero), N - 1)
        for i, j in itertools.product(range(1, 4), repeat=2)
    )


def a_m_checks(g: GeneratorImages) -> list[RelationReport]:
    """Window residuals of the commutation identities of A_m = I - sum_{j >= m}
    z_j^n z*_j^n, the instances of ``relations.a_m_instances`` in their
    order, checked by ``_reports``, the report loop shared with
    ``verify_relations``.

    One ``_Products`` serves both depths, with the window N - 2 of depth 2,
    the larger one.  Its A_m is built from products restricted to N - 2,
    so it equals the true A_m on columns below N - 2, and is only ever
    applied there: in the depth-2 family directly; in z A_m through its
    own restriction to N - 2; in A_m z after z, which moves each axis by
    at most 1, so a window column below N - 3 lands below N - 2.
    """
    if g.n < 2:
        raise ValueError("the commutation families need n >= 2")
    return _reports(_Products(g), a_m_instances(g.n))


def contraction_check(g: GeneratorImages) -> list[tuple[tuple[int, int], float]]:
    """Norm upper bounds of the boundary generators z_1^n..z_n^n,
    z_n^{n-1}..z_n^1; each must not exceed 1 (these images are compressions
    of contractions).  Every such image is a single elementary tensor, for
    which ``norm_bound`` is the exact norm of the truncated operator, so a
    value at most 1 certifies that it is a contraction."""
    targets = [(k, g.n) for k in range(1, g.n + 1)]
    targets += [(g.n, j) for j in range(g.n - 1, 0, -1)]
    return [(kj, norm_bound(g.gen(*kj))) for kj in targets]
