"""Seeded random generators for spaces, tables and elements.

The checks of :mod:`fiberdist.selftest` draw all their inputs from here,
at both scales; everything takes an explicit ``random.Random`` so runs are
reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .core import FiniteMetricSpace, PairTable, validate_space
from .transport import Distribution, distribution
from .words import GroupWord, PointedSpace, reduce_letters

_LABELS = "abcdefghijklmnopqrstuvwxyz"


def labels(n: int) -> list[str]:
    """Point names: single letters up to 26 points, then ``p26``, ``p27``, ..."""
    return [_LABELS[i] if i < len(_LABELS) else f"p{i}" for i in range(n)]


def random_metric_space(rng: random.Random, n: int, den_max: int = 4, method: str = "band") -> FiniteMetricSpace:
    """A random valid metric space with exact rational distances.

    "band" draws entries from [1, 2], where the triangle inequality is
    automatic and denominators stay <= den_max; "closure" draws wider
    entries and takes the all-pairs shortest-path closure.
    """
    mat = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q = rng.randint(1, den_max)
            if method == "band":
                v = Fraction(rng.randint(q, 2 * q), q)
            else:
                v = Fraction(rng.randint(1, 4 * q), q)
            mat[i][j] = mat[j][i] = v
    if method != "band":
        _shortest_path_closure(mat)
    return validate_space(labels(n), mat, "metric")


def random_pseudometric_table(rng: random.Random, n: int, den_max: int = 4, zero_prob: float = 0.2) -> PairTable:
    """A random pseudometric table: symmetric, zero diagonal, triangle via
    shortest-path closure, with some zero off-diagonal entries allowed."""
    mat = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < zero_prob:
                v = Fraction(0)
            else:
                q = rng.randint(1, den_max)
                v = Fraction(rng.randint(1, 3 * q), q)
            mat[i][j] = mat[j][i] = v
    _shortest_path_closure(mat)
    return PairTable(tuple(tuple(row) for row in mat))


def _shortest_path_closure(mat: list[list[Fraction]]) -> None:
    n = len(mat)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = mat[i][k] + mat[k][j]
                if via < mat[i][j]:
                    mat[i][j] = via


def random_distribution(rng: random.Random, n: int, support_max: int = 4, den_max: int = 6) -> Distribution:
    size = rng.randint(1, min(n, support_max))
    support = rng.sample(range(n), size)
    q = rng.randint(size, den_max) if size <= den_max else size
    # A composition of q into `size` positive parts.
    cuts = sorted(rng.sample(range(1, q), size - 1)) if size > 1 else []
    bounds = [0] + cuts + [q]
    parts = [bounds[i + 1] - bounds[i] for i in range(size)]
    return distribution({p: Fraction(k, q) for p, k in zip(support, parts)})


def random_subset(rng: random.Random, n: int):
    from .hyperspace import Subset

    size = rng.randint(1, n)
    return Subset(tuple(rng.sample(range(n), size)))


def random_word(rng: random.Random, pointed: PointedSpace, max_len: int, commutative: bool = False) -> GroupWord:
    length = rng.randint(0, max_len)
    letters = [(rng.randrange(pointed.n), rng.choice((1, -1))) for _ in range(length)]
    word = reduce_letters(letters, commutative, pointed)
    # Reduction may shrink the word below the requested length; that is fine,
    # samples just skew a little shorter.
    return word


def random_word_of_length(rng: random.Random, pointed: PointedSpace, length: int, commutative: bool = False) -> GroupWord:
    """A reduced word of exactly the requested length (requires a non-basepoint
    point to exist; may take a few draws)."""
    for _ in range(200):
        word = random_word(rng, pointed, length + 2, commutative)
        if len(word) == length:
            return word
    # Deterministic fallback: powers of the first non-basepoint point.
    x = next(i for i in range(pointed.n) if i != pointed.basepoint)
    return reduce_letters([(x, 1)] * length, commutative, pointed)


def random_assignment(rng: random.Random, src_n: int, dst_n: int, injective: bool = False) -> tuple[int, ...]:
    if injective:
        if src_n > dst_n:
            raise ValueError("no injective map onto a smaller space")
        return tuple(rng.sample(range(dst_n), src_n))
    return tuple(rng.randrange(dst_n) for _ in range(src_n))


def random_phi(rng: random.Random, n: int, den_max: int = 4) -> list[Fraction]:
    return [Fraction(rng.randint(0, 3 * den_max), rng.randint(1, den_max)) for _ in range(n)]


def dominated_pair(rng: random.Random, n: int, den_max: int = 4) -> tuple[list[Fraction], list[Fraction]]:
    """Tables phi >= psi >= 0 pointwise, for operator axiom sampling."""
    psi = random_phi(rng, n, den_max)
    phi = [v + Fraction(rng.randint(0, 2 * den_max), rng.randint(1, den_max)) for v in psi]
    return phi, psi
