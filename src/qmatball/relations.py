"""The defining relations of Pol(Mat_n)_q as data, and the one enumeration of
their instances at size n.

A side is a list of ``(LaurentPoly, word)`` terms, a word being a product of
at most two named operators and ``()`` the identity.  A coefficient is an
integer Laurent polynomial in q, ``{power: coefficient}``; this module
evaluates no floats, so the same data can be read exactly as well as
numerically.  Sides and tables share the constant coefficients, so a
coefficient must not be mutated.  ``instances(n)`` lists every relation
instance in report order, chaining the holomorphic, exchange and A_m
instances, and each checker loops over it or over the part it checks.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Iterator

__all__ = [
    "A_M_DEPTH",
    "a_m_instances",
    "a_m_side",
    "boundary_side",
    "exchange_instances",
    "holomorphic_instances",
    "instances",
    "zaa4_case_coefficients",
    "zaa4_r_coefficients",
]

# longest generator word in the A_m commutation families; their window keeps
# indices 0..N-1-A_M_DEPTH, so they need N > A_M_DEPTH
A_M_DEPTH = 3

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
    try:
        return float(sum(float(c) * q**p for p, c in a.items()))
    except OverflowError:
        raise ValueError(f"q = {q!r} is too small: a power of q overflows a float") from None


# the constant coefficients, built once: every side and table that uses one
# shares it, and nothing mutates them (_lp_add and _lp_mul return new dicts).
# Each keeps the term order of the literal it replaced where that order can
# matter, in _lp_eval's sum of three terms or more
_ONE = _lp((0, 1))
_MINUS_ONE = _lp((0, -1))
_Q = _lp((1, 1))
_Q2 = _lp((2, 1))
_Q_INV = _lp((-1, 1))
_Q_MINUS_Q_INV = _lp((1, 1), (-1, -1))
_ONE_MINUS_Q2 = _lp((0, 1), (2, -1))  # 1 - q^2
_Q2_MINUS_ONE = _lp((0, -1), (2, 1))  # -(1 - q^2)
_ONE_MINUS_Q_INV2 = _lp((-2, -1), (0, 1))  # -(q^{-2} - 1)
_CORNER = _lp((-2, 1), (0, -2), (2, 1))  # q^{-2}(1 - q^2)^2

# ("z", k, j) names z_k^j, ("zs", k, j) its adjoint and ("A", m, 0) the A_m
# of the commutation families, which each reader expands through a_m_side
_Name = tuple[str, int, int]
_Word = tuple[_Name, ...]
_Side = list[tuple[LaurentPoly, _Word]]
# (family, indices, lhs, rhs, depth): lhs = rhs on the window of depth
Instance = tuple[str, tuple[int, ...], _Side, _Side, int]


def _z_zs(a: int, alpha: int, b: int, beta: int) -> _Word:
    return (("z", a, alpha), ("zs", b, beta))


@functools.lru_cache(maxsize=None)
def _r_coefficients(i: int, j: int, n: int) -> dict[tuple[int, int], LaurentPoly]:
    """Nonzero entries (k, l) -> coefficient of the exchange R-matrix row
    (i, j), built once per (i, j, n); callers only read it.  Every
    coefficient is one of the three constants ``_R_PRODUCTS`` pairs up."""
    out: dict[tuple[int, int], LaurentPoly] = {}
    if i != j:
        out[(i, j)] = _Q_INV
    else:
        out[(i, i)] = _ONE
        for l in range(j + 1, n + 1):
            out[(l, l)] = _ONE_MINUS_Q_INV2
    return out


# q^2 * x * y for each pair of coefficients an R-matrix row can hold, keyed
# by their ids: they are constants of this module, so an id names one for as
# long as the module lives
_R_PRODUCTS = {
    (id(x), id(y)): _lp_mul(_Q2, _lp_mul(x, y))
    for x in (_Q_INV, _ONE, _ONE_MINUS_Q_INV2)
    for y in (_Q_INV, _ONE, _ONE_MINUS_Q_INV2)
}


def zaa4_r_coefficients(
    n: int, a: int, b: int, alpha: int, beta: int
) -> dict[_Word, LaurentPoly]:
    """Right-hand side of the exchange relation for z*_{b,beta} z_{a,alpha},
    expanded through the R-matrix coefficients, keyed by word."""
    out: dict[_Word, LaurentPoly] = {}
    for (b2, a2), left in _r_coefficients(b, a, n).items():
        for (beta2, alpha2), right in _r_coefficients(beta, alpha, n).items():
            key = _z_zs(a2, alpha2, b2, beta2)
            contribution = _R_PRODUCTS[id(left), id(right)]
            out[key] = _lp_add(out.get(key, {}), contribution)
    if a == b and alpha == beta:
        out[()] = _ONE_MINUS_Q2
    return {k: v for k, v in out.items() if v}


def _zaa4_case(
    n: int, a: int, b: int, alpha: int, beta: int
) -> tuple[str, dict[_Word, LaurentPoly]]:
    """The exchange family (zaa41 to zaa44) that holds at (a, b, alpha,
    beta), and its right-hand side written for that case."""
    out: dict[_Word, LaurentPoly] = {}
    if a != b and alpha != beta:
        family = "zaa41"
        out[_z_zs(a, alpha, b, beta)] = _ONE
    elif a == b and alpha != beta:
        family = "zaa42"
        out[_z_zs(a, alpha, a, beta)] = _Q
        for j in range(a + 1, n + 1):
            out[_z_zs(j, alpha, j, beta)] = _Q_MINUS_Q_INV
    elif a != b and alpha == beta:
        family = "zaa43"
        out[_z_zs(a, alpha, b, alpha)] = _Q
        for j in range(alpha + 1, n + 1):
            out[_z_zs(a, j, b, j)] = _Q_MINUS_Q_INV
    else:
        family = "zaa44"
        # in word order, as the sorted R-matrix table lists them: the
        # identity, then z_m^j z*_m^j by m, then j
        out[()] = _ONE_MINUS_Q2
        for m in range(a, n + 1):
            for j in range(alpha, n + 1):
                if m == a and j == alpha:
                    out[_z_zs(m, j, m, j)] = _Q2
                elif m == a or j == alpha:
                    out[_z_zs(m, j, m, j)] = _Q2_MINUS_ONE
                else:
                    out[_z_zs(m, j, m, j)] = _CORNER
    return family, {k: v for k, v in out.items() if v}


def zaa4_case_coefficients(
    n: int, a: int, b: int, alpha: int, beta: int
) -> dict[_Word, LaurentPoly]:
    """Right-hand side of the exchange relation written per index case, keyed
    as in ``zaa4_r_coefficients`` and listing its words in sorted order, the
    order in which ``exchange_instances`` lists the R-matrix table's."""
    return _zaa4_case(n, a, b, alpha, beta)[1]


def _star(name: _Name) -> _Name:
    return ("zs" if name[0] == "z" else "z",) + name[1:]


def _adjoint_side(side: _Side) -> _Side:
    """The adjoint of a side: each word reversed and each name starred; the
    coefficients stay as they are, since q is real."""
    return [(c, tuple(_star(name) for name in reversed(word))) for c, word in side]


def _holomorphic_relations(
    a: int, b: int, alpha: int, beta: int
) -> list[tuple[str, _Side, _Side]]:
    """The holomorphic families zaa1, zaa2, zaa3 that hold at (a, b, alpha,
    beta), each as (name, lhs, rhs)."""
    za, zb = ("z", a, alpha), ("z", b, beta)
    relations = []
    if (a == b and alpha < beta) or (a < b and alpha == beta):
        relations.append(("zaa1", [(_ONE, (za, zb))], [(_Q, (zb, za))]))
    if alpha < beta and a > b:
        relations.append(("zaa2", [(_ONE, (za, zb))], [(_ONE, (zb, za))]))
    if alpha < beta and a < b:
        lhs = [(_ONE, (za, zb)), (_MINUS_ONE, (zb, za))]
        rhs = [(_Q_MINUS_Q_INV, (("z", a, beta), ("z", b, alpha)))]
        relations.append(("zaa3", lhs, rhs))
    return relations


def a_m_side(n: int, m: int) -> _Side:
    """A_m = I - sum_{i >= m} z_i^n z*_i^n."""
    return [(_ONE, ())] + [(_MINUS_ONE, _z_zs(i, n, i, n)) for i in range(m, n + 1)]


def boundary_side(n: int, alpha: int, beta: int) -> _Side:
    """Boundary-ideal generator sum_j q^{2n-alpha-beta} z_j^alpha z*_j^beta
    minus delta_{alpha beta}."""
    weight = _lp((2 * n - alpha - beta, 1))
    side = [(weight, _z_zs(j, alpha, j, beta)) for j in range(1, n + 1)]
    if alpha == beta:
        side.append((_MINUS_ONE, ()))
    return side


def _quadruples(n: int) -> Iterator[tuple[int, ...]]:
    return itertools.product(range(1, n + 1), repeat=4)


def holomorphic_instances(n: int) -> Iterator[Instance]:
    """The holomorphic families, each instance followed by its adjoint
    (family name with a ``*``), derived through the *-structure; all of
    depth 2."""
    for indices in _quadruples(n):
        for family, lhs, rhs in _holomorphic_relations(*indices):
            yield family, indices, lhs, rhs, 2
            yield family + "*", indices, _adjoint_side(lhs), _adjoint_side(rhs), 2


def exchange_instances(n: int) -> Iterator[Instance]:
    """z*_{b,beta} z_{a,alpha} = its exchange right-hand side, one instance
    per (a, b, alpha, beta), named by its case (zaa41 to zaa44), of depth 2.
    The right-hand side is the R-matrix table with its words sorted.  The
    per-case table, transcribed independently, must equal it exactly: any
    mismatch raises, since it would be a transcription slip in one of them.
    This exact comparison is the only cross-check of the two tables, so the
    checkers build and check the one right-hand side yielded, which is the
    per-case one as well."""
    for indices in _quadruples(n):
        a, b, alpha, beta = indices
        family, case = _zaa4_case(n, *indices)
        rform = zaa4_r_coefficients(n, *indices)
        if case != rform:
            raise AssertionError(f"exchange coefficient tables disagree at {indices}")
        lhs = [(_ONE, (("zs", b, beta), ("z", a, alpha)))]
        yield family, indices, lhs, [(c, word) for word, c in sorted(rform.items())], 2


def a_m_instances(n: int) -> Iterator[Instance]:
    """Commutation identities of A_m = I - sum_{j >= m} z_j^n z*_j^n, all of
    family ``A_m-comm``.

    Indices (m, j, 0): plain commutation for j < m (word length 3).
    Indices (m, j, 1): q^2 z_j^n A_m = A_m z_j^n for j >= m (word length 3).
    Indices (m, 0, 2): (1 - q^2) A_m = z*_m^n z_m^n - z_m^n z*_m^n, the
    commutator form with its denominator cleared (word length 2).
    """
    for m in range(1, n + 1):
        a_m = ("A", m, 0)
        for j in range(1, n + 1):
            z = ("z", j, n)
            lhs = [(_ONE if j < m else _Q2, (z, a_m))]
            yield "A_m-comm", (m, j, int(j >= m)), lhs, [(_ONE, (a_m, z))], A_M_DEPTH
        rhs = [(_ONE, (("zs", m, n), ("z", m, n))), (_MINUS_ONE, _z_zs(m, n, m, n))]
        yield "A_m-comm", (m, 0, 2), [(_ONE_MINUS_Q2, (a_m,))], rhs, 2


def instances(n: int) -> Iterator[Instance]:
    """Every relation instance at size n, in report order: the holomorphic
    families with their adjoints, the exchange relation, and the A_m
    families."""
    yield from holomorphic_instances(n)
    yield from exchange_instances(n)
    yield from a_m_instances(n)
