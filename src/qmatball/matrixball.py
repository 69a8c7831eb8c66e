"""The quantized matrix ball layer: Fock representation, representations from
admissible strings, the full commutation-relation verifier, vacuum and
monomial checks, boundary-ideal generators, and the kernel-based case split.

Generators z_k^j (k = bottom-edge entry column, j = right-edge exit row) are
realized as (-q)^{k-n} times the corresponding entry of the block-swap word
representation on n^2 truncated shift factors; reduced representations apply
scalar factor evaluations according to the grid coloring of a string.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import operator
from dataclasses import dataclass

from .diagramcalc import factor_index, grid_from_string
from .permgroup import AdmissibleString, ReducedWord
from .qgrouprep import FactorEvaluation, SoibelmanRep, apply_tau, rep_generator
from .qoperator import (
    TensorOperator,
    is_exact_zero_on_vacuum,
    norm_bound,
    # unused here; kept because perfbench/tracing.py wraps matrixball.norm_estimate
    norm_estimate,  # noqa: F401
    residual_on_window,
    vacuum_matrix_element,
)

__all__ = [
    "GeneratorImages",
    "MonomialExponent",
    "RelationReport",
    "fock_word",
    "fock_rep",
    "rep_from_string",
    "verify_relations",
    "zaa4_case_coefficients",
    "zaa4_r_coefficients",
    "z_monomial",
    "vacuum_expectation",
    "shilov_eval",
    "classify_case",
    "coherent_check",
    "a_m_checks",
    "contraction_check",
    "vacuum_annihilation_exact",
]

# monomials are kept inside the exact region of the truncation
DEFAULT_DEGREE_MARGIN = 2

# longest generator word in the A_m commutation families; their window keeps
# indices 0..N-1-A_M_DEPTH, so they need N > A_M_DEPTH
A_M_DEPTH = 3


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


@dataclass(frozen=True)
class MonomialExponent:
    """n x n exponent matrix A; entry (k, j) is the power of z_k^j."""

    A: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(x) for x in row) for row in self.A)
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


@functools.cache
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
    arguments raise on every call (exceptions are not cached).
    ``fock_rep.cache_clear()`` drops the built images.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rep = SoibelmanRep(2 * n, fock_word(n), q, N)
    table = tuple(
        tuple(
            rep_generator(rep, n + k, n + j).scale((-q) ** (k - n))
            for j in range(1, n + 1)
        )
        for k in range(1, n + 1)
    )
    return GeneratorImages(n, q, N, table, provenance=f"fock(n={n})")


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
    white factors only."""
    base = fock_rep(string.n, q, N)
    evaluation = _string_evaluation(string)
    table = tuple(
        tuple(apply_tau(base.gen(k, j), evaluation) for j in range(1, string.n + 1))
        for k in range(1, string.n + 1)
    )
    return GeneratorImages(
        string.n, q, N, table, provenance=f"string{string.pairs()!r}"
    )


# ---------------------------------------------------------------------------
# exact Laurent-polynomial bookkeeping for the reflection-equation exchange
# relation; keys are ("z", a', alpha', b', beta') for z_{a'}^{alpha'} z*_{b'}^{beta'}
# and ("I",) for the identity contribution
# ---------------------------------------------------------------------------

LaurentPoly = dict[int, int]


def _lp(*pairs: tuple[int, int]) -> LaurentPoly:
    out: LaurentPoly = {}
    for power, coeff in pairs:
        coeff = operator.index(coeff)
        if coeff:
            out[power] = out.get(power, 0) + coeff
    return {p: c for p, c in out.items() if c}


def _lp_add(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    out = dict(a)
    for p, c in b.items():
        out[p] = out.get(p, 0) + c
    return {p: c for p, c in out.items() if c}


def _lp_mul(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    out: LaurentPoly = {}
    for p1, c1 in a.items():
        for p2, c2 in b.items():
            out[p1 + p2] = out.get(p1 + p2, 0) + c1 * c2
    return {p: c for p, c in out.items() if c}


def _lp_eval(a: LaurentPoly, q: float) -> float:
    return float(sum(float(c) * q**p for p, c in a.items()))


def _r_coefficients(i: int, j: int, n: int) -> dict[tuple[int, int], LaurentPoly]:
    """Nonzero entries (k, l) -> coefficient of the exchange R-matrix row (i, j)."""
    out: dict[tuple[int, int], LaurentPoly] = {}
    if i != j:
        out[(i, j)] = _lp((-1, 1))
    else:
        out[(i, i)] = _lp((0, 1))
        for l in range(j + 1, n + 1):
            out[(l, l)] = _lp((-2, -1), (0, 1))  # -(q^{-2} - 1)
    return out


def zaa4_r_coefficients(
    n: int, a: int, b: int, alpha: int, beta: int
) -> dict[tuple, LaurentPoly]:
    """Right-hand side of the exchange relation for z*_{b,beta} z_{a,alpha},
    expanded through the R-matrix coefficients."""
    out: dict[tuple, LaurentPoly] = {}
    q2 = _lp((2, 1))
    for (b2, a2), left in _r_coefficients(b, a, n).items():
        for (beta2, alpha2), right in _r_coefficients(beta, alpha, n).items():
            key = ("z", a2, alpha2, b2, beta2)
            contribution = _lp_mul(q2, _lp_mul(left, right))
            out[key] = _lp_add(out.get(key, {}), contribution)
    if a == b and alpha == beta:
        out[("I",)] = _lp((0, 1), (2, -1))  # 1 - q^2
    return {k: v for k, v in out.items() if v}


def zaa4_case_coefficients(
    n: int, a: int, b: int, alpha: int, beta: int
) -> dict[tuple, LaurentPoly]:
    """Right-hand side of the exchange relation written per index case."""
    out: dict[tuple, LaurentPoly] = {}
    if a != b and alpha != beta:
        out[("z", a, alpha, b, beta)] = _lp((0, 1))
    elif a == b and alpha != beta:
        out[("z", a, alpha, a, beta)] = _lp((1, 1))
        for j in range(a + 1, n + 1):
            out[("z", j, alpha, j, beta)] = _lp((-1, -1), (1, 1))  # -(q^{-1} - q)
    elif a != b and alpha == beta:
        out[("z", a, alpha, b, alpha)] = _lp((1, 1))
        for j in range(alpha + 1, n + 1):
            out[("z", a, j, b, j)] = _lp((-1, -1), (1, 1))
    else:
        out[("z", a, alpha, a, alpha)] = _lp((2, 1))
        for j in range(alpha + 1, n + 1):
            out[("z", a, j, a, j)] = _lp_add(
                out.get(("z", a, j, a, j), {}), _lp((0, -1), (2, 1))
            )
        for j in range(a + 1, n + 1):
            out[("z", j, alpha, j, alpha)] = _lp_add(
                out.get(("z", j, alpha, j, alpha), {}), _lp((0, -1), (2, 1))
            )
        for j in range(alpha + 1, n + 1):
            for m in range(a + 1, n + 1):
                out[("z", m, j, m, j)] = _lp_add(
                    out.get(("z", m, j, m, j), {}),
                    _lp((-2, 1), (0, -2), (2, 1)),  # q^{-2}(1-q^2)^2
                )
        out[("I",)] = _lp((0, 1), (2, -1))
    return {k: v for k, v in out.items() if v}


# ("z", k, j) names z_k^j and ("zs", k, j) its adjoint
_Name = tuple[str, int, int]

# one side of a quadratic relation: sum of coefficient * left * right
_Side = list[tuple[complex, _Name, _Name]]


def _star(name: _Name) -> _Name:
    return ("zs" if name[0] == "z" else "z",) + name[1:]


def _adjoint_side(side: _Side) -> _Side:
    """The adjoint of a side: each product reversed, each name starred and
    each coefficient conjugated."""
    return [(c.conjugate(), _star(right), _star(left)) for c, left, right in side]


def _holomorphic_relations(
    q: float, a: int, b: int, alpha: int, beta: int
) -> list[tuple[str, _Side, _Side]]:
    """The holomorphic families zaa1, zaa2, zaa3 that hold at (a, b, alpha,
    beta), each as (name, lhs, rhs)."""
    za, zb = ("z", a, alpha), ("z", b, beta)
    relations = []
    if (a == b and alpha < beta) or (a < b and alpha == beta):
        relations.append(("zaa1", [(1, za, zb)], [(q, zb, za)]))
    if alpha < beta and a > b:
        relations.append(("zaa2", [(1, za, zb)], [(1, zb, za)]))
    if alpha < beta and a < b:
        rhs = [(q - 1.0 / q, ("z", a, beta), ("z", b, alpha))]
        relations.append(("zaa3", [(1, za, zb), (-1, zb, za)], rhs))
    return relations


class _Products:
    """Generator adjoints and products of two named generators or adjoints,
    each computed once."""

    def __init__(self, g: GeneratorImages) -> None:
        self.g = g
        self._adjoints: dict[tuple[int, int], TensorOperator] = {}
        self._products: dict[tuple, TensorOperator] = {}

    def op(self, name: _Name) -> TensorOperator:
        star, k, j = name
        if star == "z":
            return self.g.gen(k, j)
        if (k, j) not in self._adjoints:
            self._adjoints[(k, j)] = self.g.gen(k, j).adjoint()
        return self._adjoints[(k, j)]

    def __call__(self, left: _Name, right: _Name) -> TensorOperator:
        if (left, right) not in self._products:
            self._products[(left, right)] = self.op(left) * self.op(right)
        return self._products[(left, right)]

    def side(self, side: _Side) -> TensorOperator:
        """The operator of one relation side, its terms summed in order."""
        terms = [self(a, b) if c == 1 else self(a, b).scale(c) for c, a, b in side]
        return sum(terms[1:], terms[0])

    def forget_products(self) -> None:
        """Drops the cached products and keeps the adjoints."""
        self._products.clear()


def _coefficients_to_operator(
    g: GeneratorImages, coefficients: dict[tuple, LaurentPoly], prod: _Products
) -> TensorOperator:
    op = TensorOperator.zero(g.f, g.N)
    for key, poly in sorted(coefficients.items()):
        value = _lp_eval(poly, g.q)
        if key == ("I",):
            op = op + g.identity().scale(value)
        else:
            _, a2, alpha2, b2, beta2 = key
            op = op + prod(("z", a2, alpha2), ("zs", b2, beta2)).scale(value)
    return op


def _zaa4_case_id(a: int, b: int, alpha: int, beta: int) -> str:
    if a != b and alpha != beta:
        return "zaa41"
    if a == b and alpha != beta:
        return "zaa42"
    if a != b and alpha == beta:
        return "zaa43"
    return "zaa44"


def verify_relations(g: GeneratorImages, tol: float = 1e-10) -> list[RelationReport]:
    """Window residuals for every defining-relation instance.

    Covers the three holomorphic families, each with its adjoint family
    derived through the *-structure, the four-case exchange expansion, and
    the R-matrix form of the exchange relation; the two coefficient tables
    are also compared exactly (raising on any mismatch, which would indicate
    a transcription bug).  All relations are quadratic, hence window depth 2.
    """
    n, q = g.n, g.q
    d = 2
    reports: list[RelationReport] = []
    prod = _Products(g)
    quadruples = list(itertools.product(range(1, n + 1), repeat=4))

    for indices in quadruples:
        for relation, lhs, rhs in _holomorphic_relations(q, *indices):
            adjoint = (relation + "*", _adjoint_side(lhs), _adjoint_side(rhs))
            for name, left, right in ((relation, lhs, rhs), adjoint):
                left_op, right_op = prod.side(left), prod.side(right)
                reports.append(RelationReport.of(name, indices, left_op, right_op, d))

    # the exchange families below share only the products z * z*
    prod.forget_products()
    for indices in quadruples:
        a, b, alpha, beta = indices
        case = zaa4_case_coefficients(n, *indices)
        rform = zaa4_r_coefficients(n, *indices)
        if case != rform:
            raise AssertionError(f"exchange coefficient tables disagree at {indices}")
        # used by this instance only, so not cached
        lhs = prod.op(("zs", b, beta)) * prod.op(("z", a, alpha))
        reports.append(
            RelationReport.of(
                _zaa4_case_id(*indices), indices, lhs, _case_rhs(g, *indices, prod), d
            )
        )
        reports.append(
            RelationReport.of(
                "R-form", indices, lhs, _coefficients_to_operator(g, rform, prod), d
            )
        )
    return reports


def _case_rhs(
    g: GeneratorImages, a: int, b: int, alpha: int, beta: int, prod: _Products
) -> TensorOperator:
    """Exchange right-hand side built directly from the per-case formulas
    (independent of the coefficient-table route used for the R-matrix form)."""
    n, q = g.n, g.q

    def z_zs(k1, j1, k2, j2):
        return prod(("z", k1, j1), ("zs", k2, j2))

    if a != b and alpha != beta:
        return z_zs(a, alpha, b, beta)
    if a == b and alpha != beta:
        op = z_zs(a, alpha, a, beta).scale(q)
        for j in range(a + 1, n + 1):
            op = op + z_zs(j, alpha, j, beta).scale(-(1.0 / q - q))
        return op
    if a != b and alpha == beta:
        op = z_zs(a, alpha, b, alpha).scale(q)
        for j in range(alpha + 1, n + 1):
            op = op + z_zs(a, j, b, j).scale(-(1.0 / q - q))
        return op
    op = z_zs(a, alpha, a, alpha).scale(q**2)
    for j in range(alpha + 1, n + 1):
        op = op + z_zs(a, j, a, j).scale(-(1.0 - q**2))
    for j in range(a + 1, n + 1):
        op = op + z_zs(j, alpha, j, alpha).scale(-(1.0 - q**2))
    for j in range(alpha + 1, n + 1):
        for m in range(a + 1, n + 1):
            op = op + z_zs(m, j, m, j).scale((1.0 - q**2) ** 2 / q**2)
    return op + g.identity().scale(1.0 - q**2)


def z_monomial(
    g: GeneratorImages, A: MonomialExponent, degree_cap: int | None = None
) -> TensorOperator:
    """Ordered monomial: subscripts descend n..1 outermost, superscripts
    descend n..1 within each subscript."""
    if A.n != g.n:
        raise ValueError(f"exponent matrix is {A.n} x {A.n}, representation has n={g.n}")
    cap = g.N - DEFAULT_DEGREE_MARGIN if degree_cap is None else degree_cap
    if A.degree() > cap:
        raise ValueError(f"monomial degree {A.degree()} exceeds cap {cap}")
    op = g.identity()
    for k in range(g.n, 0, -1):
        for j in range(g.n, 0, -1):
            for _ in range(A.power(k, j)):
                op = op * g.gen(k, j)
    return op


def vacuum_expectation(g: GeneratorImages, op: TensorOperator) -> complex:
    if op.f != g.f or op.dim != g.N:
        raise ValueError("operator shape does not match the representation")
    return vacuum_matrix_element(op)


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
    minus delta, with its window residual from zero."""
    n, q = g.n, g.q
    if not (1 <= alpha <= n and 1 <= beta <= n):
        raise ValueError(f"indices ({alpha}, {beta}) outside 1..{n}")
    op = TensorOperator.zero(g.f, g.N)
    weight = q ** (2 * n - alpha - beta)
    for j in range(1, n + 1):
        op = op + (g.gen(j, alpha) * g.gen(j, beta).adjoint()).scale(weight)
    if alpha == beta:
        op = op - g.identity()
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
    string = AdmissibleString(3, (3, 3, 2), (0.0, 0.0, float(phi)))
    g = rep_from_string(string, q, N)
    expected = {(1, 1): g.identity().scale(cmath.exp(-1j * float(phi)))}
    zero = TensorOperator.zero(g.f, g.N)
    # the window of depth N - 1 holds only Omega
    return max(
        residual_on_window(g.gen(j, i).adjoint(), expected.get((i, j), zero), N - 1)
        for i, j in itertools.product(range(1, 4), repeat=2)
    )


def a_m_checks(g: GeneratorImages) -> list[RelationReport]:
    """Commutation identities of A_m = I - sum_{j >= m} z_j^n z*_j^n.

    Family (m, j, 0): plain commutation for j < m (word length 3).
    Family (m, j, 1): q^2 z_j^n A_m = A_m z_j^n for j >= m (word length 3).
    Family (m, 0, 2): A_m equals the scaled commutator of z_m^n (length 2).
    """
    n, q = g.n, g.q
    if n < 2:
        raise ValueError("the commutation families need n >= 2")
    reports: list[RelationReport] = []
    prod = _Products(g)
    for m in range(1, n + 1):
        a_m = g.identity()
        for j in range(m, n + 1):
            a_m = a_m - prod(("z", j, n), ("zs", j, n))
        for j in range(1, n + 1):
            lhs, rhs = g.gen(j, n) * a_m, a_m * g.gen(j, n)
            family = 0 if j < m else 1
            if family:
                lhs = lhs.scale(q**2)
            reports.append(
                RelationReport.of("A_m-comm", (m, j, family), lhs, rhs, A_M_DEPTH)
            )
        commutator = prod(("zs", m, n), ("z", m, n)) - prod(("z", m, n), ("zs", m, n))
        reports.append(
            RelationReport.of(
                "A_m-comm", (m, 0, 2), a_m, commutator.scale(1.0 / (1.0 - q**2)), 2
            )
        )
    return reports


def contraction_check(g: GeneratorImages) -> list[tuple[tuple[int, int], float]]:
    """Norm upper bounds of the boundary generators z_1^n..z_n^n,
    z_n^{n-1}..z_n^1; each must not exceed 1 (these images are compressions
    of contractions).  Every such image is a single elementary tensor, for
    which ``norm_bound`` is the exact norm of the truncated operator, so a
    value at most 1 certifies that it is a contraction."""
    targets = [(k, g.n) for k in range(1, g.n + 1)]
    targets += [(g.n, j) for j in range(g.n - 1, 0, -1)]
    return [(kj, norm_bound(g.gen(*kj))) for kj in targets]
