"""Symmetric-group and Coxeter combinatorics for the quantized matrix ball.

Inversion lengths, canonical reduced words, the staircase cycles ``c_{k,j}``,
minimal representatives of S x S double cosets inside S_{2n}, admissible
integer strings with their phase data, and exact counting of the strings via
the generating function of OEIS A002720.

Conventions used throughout the package:

* permutations are 1-based one-line arrays, so ``Permutation(4, (3, 4, 1, 2))``
  maps 1 -> 3, 2 -> 4, 3 -> 1, 4 -> 2;
* products compose like functions, ``(s * t)(x) == s(t(x))``;
* a string of length n is ordered ``[k_n, k_{n-1}, ..., k_1]`` and row j of
  the associated grid carries the pair ``(k_j, phi_j)``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

TWO_PI = 2.0 * math.pi

# phases are compared modulo 2*pi at this tolerance
PHASE_TOL = 1e-12

__all__ = [
    "Permutation",
    "ReducedWord",
    "CosetFactorization",
    "AdmissibleString",
    "reduced_word",
    "cycle_c",
    "is_admissible",
    "admissible_bound",
    "compose",
    "decompose",
    "minimal_coset_rep",
    "boundary_set",
    "enumerate_admissible",
    "iter_admissible",
    "gf_counts",
    "twist_phases",
    "l_exponent",
]


def _index(value, what: str) -> int:
    """``operator.index(value)``, raising ``ValueError`` instead of truncating."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1..m} in one-line notation: ``images[i-1] = sigma(i)``."""

    m: int
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(_index(x, "image") for x in self.images)
        object.__setattr__(self, "images", images)
        if self.m < 0 or len(images) != self.m:
            raise ValueError(f"expected {self.m} images, got {len(images)}")
        if sorted(images) != list(range(1, self.m + 1)):
            raise ValueError(f"not a bijection of 1..{self.m}: {images}")

    @classmethod
    def identity(cls, m: int) -> "Permutation":
        return cls(m, tuple(range(1, m + 1)))

    @classmethod
    def transposition(cls, m: int, i: int) -> "Permutation":
        """The adjacent transposition s_i = (i, i+1) in S_m."""
        if not 1 <= i <= m - 1:
            raise ValueError(f"s_{i} does not exist in S_{m}")
        images = list(range(1, m + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        return cls(m, tuple(images))

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.m:
            raise ValueError(f"argument {i} outside 1..{self.m}")
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.m != other.m:
            raise ValueError(f"cannot compose S_{self.m} with S_{other.m}")
        return Permutation(self.m, tuple(self.images[x - 1] for x in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.m
        for i, x in enumerate(self.images, start=1):
            inv[x - 1] = i
        return Permutation(self.m, tuple(inv))

    def is_identity(self) -> bool:
        return all(x == i for i, x in enumerate(self.images, start=1))

    def length(self) -> int:
        """Coxeter length, i.e. the number of inversions."""
        images = self.images
        return sum(
            1
            for i in range(self.m)
            for j in range(i + 1, self.m)
            if images[j] < images[i]
        )

    def to_json(self) -> dict:
        return {"m": self.m, "images": list(self.images)}

    @classmethod
    def from_json(cls, data: dict) -> "Permutation":
        return cls(_index(data["m"], "m"), tuple(data["images"]))


@dataclass(frozen=True)
class ReducedWord:
    """Word in adjacent transpositions realizing a permutation minimally.

    Reducedness (word length equals the Coxeter length of the evaluated
    permutation) is enforced at construction.
    """

    m: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        letters = tuple(_index(x, "letter") for x in self.letters)
        object.__setattr__(self, "letters", letters)
        for i in letters:
            if not 1 <= i <= self.m - 1:
                raise ValueError(f"letter s_{i} outside S_{self.m}")
        if self.evaluate().length() != len(letters):
            raise ValueError(f"word {letters} is not reduced in S_{self.m}")

    def evaluate(self) -> Permutation:
        result = Permutation.identity(self.m)
        for i in self.letters:
            result = result * Permutation.transposition(self.m, i)
        return result

    def __len__(self) -> int:
        return len(self.letters)


def reduced_word(sigma: Permutation) -> ReducedWord:
    """Canonical reduced word of ``sigma``.

    Deterministic bubble procedure: repeatedly take the smallest position i
    with ``current(i) > current(i+1)`` and multiply by s_i on the right; the
    emitted letters, reversed, evaluate back to ``sigma``.
    """
    current = list(sigma.images)
    emitted: list[int] = []
    while True:
        descent = next(
            (i for i in range(1, sigma.m) if current[i - 1] > current[i]), None
        )
        if descent is None:
            break
        emitted.append(descent)
        current[descent - 1], current[descent] = current[descent], current[descent - 1]
    return ReducedWord(sigma.m, tuple(reversed(emitted)))


def cycle_c(k: int, j: int, n: int) -> Permutation:
    """The cycle ``c_{k,j} = s_{j+n-k} s_{j+n-k+1} ... s_{j+n-1}`` in S_{2n}.

    ``k = 0`` gives the identity.  The length of the result is exactly k.
    """
    if not 1 <= j <= n:
        raise ValueError(f"row index j={j} outside 1..{n}")
    if not 0 <= k <= n:
        raise ValueError(f"cycle size k={k} outside 0..{n}")
    result = Permutation.identity(2 * n)
    for i in range(j + n - k, j + n):
        result = result * Permutation.transposition(2 * n, i)
    return result


def admissible_bound(ks: Sequence[int], j: int) -> int:
    """Upper bound for k_j given the entries k_i with i > j.

    The bound is ``max(max_{j<i<=n}(k_i + j + 1 - i), j)``; for j = n it
    degenerates to n.
    """
    n = len(ks)
    if not 1 <= j <= n:
        raise ValueError(f"row index j={j} outside 1..{n}")
    best = j
    for i in range(j + 1, n + 1):
        best = max(best, ks[n - i] + j + 1 - i)
    return best


def is_admissible(ks: Sequence[int], n: int | None = None) -> bool:
    """Whether ``[k_n, ..., k_1]`` satisfies every row bound."""
    ks = [_index(x, "k") for x in ks]
    if n is None:
        n = len(ks)
    if n != len(ks):
        raise ValueError(f"expected {n} entries, got {len(ks)}")
    return all(0 <= ks[n - j] <= admissible_bound(ks, j) for j in range(1, n + 1))


def compose(ks: Sequence[int]) -> Permutation:
    """The product ``c_{k_n,n} c_{k_{n-1},n-1} ... c_{k_1,1}`` in S_{2n}.

    For admissible input this is the minimal element of its double-coset
    orbit and has length ``sum(ks)``.
    """
    ks = [_index(x, "k") for x in ks]
    n = len(ks)
    if not is_admissible(ks):
        raise ValueError(f"inadmissible string {ks}")
    result = Permutation.identity(2 * n)
    for idx in range(n):
        result = result * cycle_c(ks[idx], n - idx, n)
    return result


def decompose(w: Permutation) -> list[int]:
    """Recover the admissible ``[k_n, ..., k_1]`` with ``compose(ks) == w``.

    Peels rows top-down: after stripping rows n..j+1 the image of n+j
    determines k_j = n + j - w'(n+j) (the two branches of the recursion,
    w'(n+j) > n and w'(n+j) = j... = n, collapse into this one formula).
    Requires ``w`` minimal in its orbit.
    """
    if w.m % 2 != 0:
        raise ValueError("expected an element of S_{2n}")
    n = w.m // 2
    if minimal_coset_rep(w).w != w:
        raise ValueError("permutation is not minimal in its double-coset orbit")
    ks: list[int] = []
    current = w
    for j in range(n, 0, -1):
        k = n + j - current(n + j)
        if not 0 <= k <= n:
            raise ValueError(f"no cycle decomposition: row {j} gives k={k}")
        ks.append(k)
        current = cycle_c(k, j, n).inverse() * current
    if not current.is_identity():
        raise ValueError("no cycle decomposition: nontrivial remainder")
    return ks


@dataclass(frozen=True)
class CosetFactorization:
    """Factorization sigma = h * w * g with g, h supported on {1..n} and
    w the unique length-minimal element of the orbit {g' sigma h'}."""

    w: Permutation
    g: Permutation
    h: Permutation


def minimal_coset_rep(sigma: Permutation) -> CosetFactorization:
    """Minimal double-coset representative of ``sigma`` in S_{2n}.

    g0 is chosen so that sigma(g0(1)) < ... < sigma(g0(n)); h0 ranks the
    preimages (sigma g0)^{-1}(1..n).  Then w = h0 sigma g0 is the minimizer
    and sigma = h0^{-1} w g0^{-1} with lengths adding up.
    """
    if sigma.m % 2 != 0:
        raise ValueError("expected an element of S_{2n}")
    m = sigma.m
    n = m // 2
    tail = tuple(range(n + 1, m + 1))
    order = sorted(range(1, n + 1), key=sigma)
    g_sort = Permutation(m, tuple(order) + tail)
    sg = sigma * g_sort
    inv = sg.inverse()
    positions = [inv(j) for j in range(1, n + 1)]
    rank_of = {p: r for r, p in enumerate(sorted(positions), start=1)}
    h_sort = Permutation(m, tuple(rank_of[p] for p in positions) + tail)
    w = h_sort * sigma * g_sort
    return CosetFactorization(w=w, g=g_sort.inverse(), h=h_sort.inverse())


def boundary_set(ks: Sequence[int], n: int | None = None) -> set[int]:
    """Rows sitting at their bound: ``{ j : k_j == admissible_bound(ks, j) }``.

    These are exactly the rows j with 1 <= compose(ks)(n+j) <= n.
    """
    ks = [_index(x, "k") for x in ks]
    if n is None:
        n = len(ks)
    if not is_admissible(ks, n):
        raise ValueError(f"inadmissible string {ks}")
    return {j for j in range(1, n + 1) if ks[n - j] == admissible_bound(ks, j)}


def iter_admissible(n: int) -> Iterator[tuple[int, ...]]:
    """The admissible strings ``[k_n, ..., k_1]`` one at a time, in
    lexicographic order, holding only the string being built."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    # an odometer: the entries so far and the bound of each
    ks: list[int] = []
    bounds: list[int] = []
    while True:
        # fill the remaining rows with 0
        while len(ks) < n:
            j = n - len(ks)
            bound = j
            for i in range(j + 1, n + 1):
                bound = max(bound, ks[n - i] + j + 1 - i)
            ks.append(0)
            bounds.append(bound)
        yield tuple(ks)
        # step the last row below its bound, dropping the rows at theirs
        while ks and ks[-1] == bounds[-1]:
            ks.pop()
            bounds.pop()
        if not ks:
            return
        ks[-1] += 1


def enumerate_admissible(n: int) -> list[tuple[int, ...]]:
    """All admissible strings ``[k_n, ..., k_1]`` in lexicographic order."""
    return list(iter_admissible(n))


def gf_counts(n_max: int) -> list[int]:
    """String counts A_0..A_{n_max}, where A_n = n! [x^n] exp(x/(1-x)) / (1-x).

    The series expands as exp(x/(1-x)) / (1-x) = sum_k x^k / (k! (1-x)^(k+1)),
    and [x^n] x^k / (1-x)^(k+1) = C(n, k).  So A_n = sum_k C(n, k) n!/k!, and
    with k -> n - k, since n!/(n-k)! = C(n, k) k!, A_n = sum_k C(n, k)^2 k!:
    a closed form in integers that shares no code with ``iter_admissible``.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return [
        sum(math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1))
        for n in range(n_max + 1)
    ]


def twist_phases(s: Permutation, phases: Sequence[float]) -> list[float]:
    """Permute a phase vector by s^{-1}: entry i becomes phi_{s^{-1}(i)}.

    The phases must sum to 0 modulo 2*pi.
    """
    phases = [float(x) for x in phases]
    if len(phases) != s.m:
        raise ValueError(f"expected {s.m} phases, got {len(phases)}")
    total = math.fmod(sum(phases), TWO_PI)
    slack = PHASE_TOL * max(1, len(phases))
    if min(abs(total), abs(total - TWO_PI), abs(total + TWO_PI)) > slack:
        raise ValueError(f"phases must sum to 0 mod 2*pi, got {sum(phases)}")
    inv = s.inverse()
    return [phases[inv(i) - 1] for i in range(1, s.m + 1)]


def l_exponent(s: Permutation, j: int) -> int:
    """``#{ 1 <= k < j : s(j) < s(k) }``; these sum to the length of s."""
    if not 1 <= j <= s.m:
        raise ValueError(f"index {j} outside 1..{s.m}")
    sj = s(j)
    return sum(1 for k in range(1, j) if sj < s(k))


@dataclass(frozen=True)
class AdmissibleString:
    """Classification datum ``[(k_n, phi_n), ..., (k_1, phi_1)]``.

    Rows at their bound must carry phase 0; all phases live in [0, 2*pi).
    """

    n: int
    ks: tuple[int, ...]
    phases: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        ks = tuple(_index(x, "k") for x in self.ks)
        phases = tuple(float(x) for x in self.phases) if self.phases else (0.0,) * self.n
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "phases", phases)
        if len(ks) != self.n or len(phases) != self.n:
            raise ValueError(f"expected {self.n} pairs, got {len(ks)}/{len(phases)}")
        for j in range(self.n, 0, -1):
            bound = admissible_bound(ks, j)
            kj = ks[self.n - j]
            if not 0 <= kj <= bound:
                raise ValueError(
                    f"inadmissible string: row {j} has k={kj} outside 0..{bound}"
                )
        for j in range(self.n, 0, -1):
            phi = phases[self.n - j]
            if not -PHASE_TOL <= phi < TWO_PI:
                raise ValueError(f"phase at row {j} outside [0, 2*pi): {phi}")
            if self.k(j) == admissible_bound(ks, j) and abs(phi) > PHASE_TOL:
                raise ValueError(f"row {j} sits at its bound, so its phase must be 0")

    def k(self, j: int) -> int:
        return self.ks[self.n - j]

    def phase(self, j: int) -> float:
        return self.phases[self.n - j]

    def pairs(self) -> list[tuple[int, float]]:
        return [(self.k(j), self.phase(j)) for j in range(self.n, 0, -1)]

    def boundary(self) -> set[int]:
        return boundary_set(self.ks, self.n)

    def to_json(self) -> dict:
        return {"n": self.n, "pairs": [[k, phi] for k, phi in self.pairs()]}

    @classmethod
    def from_json(cls, data: dict) -> "AdmissibleString":
        n = _index(data["n"], "n")
        pairs = data["pairs"]
        if len(pairs) != n:
            raise ValueError(f"expected {n} pairs, got {len(pairs)}")
        return cls(n, tuple(p[0] for p in pairs), tuple(float(p[1]) for p in pairs))
