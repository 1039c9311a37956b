"""Seeded input generators, independent of ``fiberdist.sampling``.

Everything here uses only ``random.Random`` and ``fractions.Fraction`` and
returns plain Python data (label lists, rational matrices, letter lists,
index tuples, mass dicts), so a change to the package's own samplers never
changes a benchmark workload.  The workloads turn this data into package
objects during set-up.
"""

from __future__ import annotations

import random
from fractions import Fraction

BASEPOINT = 0


def labels(n: int) -> list[str]:
    """Point labels for any n: "e" for the basepoint, then "p1", "p2", ..."""
    return ["e"] + [f"p{i}" for i in range(1, n)]


def band_matrix(rng: random.Random, n: int, den_max: int = 4) -> list[list[Fraction]]:
    """Distances drawn from [1, 2] with denominators <= den_max.

    Every triangle holds automatically because 2 <= 1 + 1.
    """
    mat = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q = rng.randint(1, den_max)
            mat[i][j] = mat[j][i] = Fraction(rng.randint(q, 2 * q), q)
    return mat


def closure_matrix(rng: random.Random, n: int, den_max: int = 4) -> list[list[Fraction]]:
    """Distances drawn from (0, 4] and closed under shortest paths.

    Wider than the band, so many triangles are tight and transport optima
    are degenerate more often.
    """
    mat = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q = rng.randint(1, den_max)
            mat[i][j] = mat[j][i] = Fraction(rng.randint(1, 4 * q), q)
    for k in range(n):
        row_k = mat[k]
        for i in range(n):
            dik = mat[i][k]
            row_i = mat[i]
            for j in range(n):
                via = dik + row_k[j]
                if via < row_i[j]:
                    row_i[j] = via
    return mat


def space_obj(mat: list[list[Fraction]], basepoint: bool = False) -> dict:
    """A space-file object in the CLI's JSON format."""
    obj = {
        "points": labels(len(mat)),
        "matrix": [[str(v) for v in row] for row in mat],
        "mode": "metric",
    }
    if basepoint:
        obj["basepoint"] = labels(len(mat))[BASEPOINT]
    return obj


def free_word(rng: random.Random, n: int, length: int) -> list[tuple[int, int]]:
    """A freely reduced word of exactly `length` letters avoiding the basepoint."""
    letters: list[tuple[int, int]] = []
    while len(letters) < length:
        letter = (rng.randrange(1, n), rng.choice((1, -1)))
        if letters and letters[-1] == (letter[0], -letter[1]):
            continue
        letters.append(letter)
    return letters


def abelian_word(rng: random.Random, n: int, length: int) -> list[tuple[int, int]]:
    """Letters whose net exponents have total absolute value `length`."""
    sign_of: dict[int, int] = {}
    letters: list[tuple[int, int]] = []
    while len(letters) < length:
        x = rng.randrange(1, n)
        s = sign_of.setdefault(x, rng.choice((1, -1)))
        letters.append((x, s))
    return sorted(letters)


def masses(rng: random.Random, support: list[int]) -> dict[int, Fraction]:
    """Raw masses k/q with k, q <= 12 on `support`, normalised to total 1."""
    raw = {i: Fraction(rng.randint(1, 12), rng.randint(1, 12)) for i in support}
    total = sum(raw.values())
    return {i: w / total for i, w in raw.items()}


def word_text(letters: list[tuple[int, int]], n: int) -> list[str]:
    """CLI element syntax for a word: signed labels such as "p2^-1"."""
    names = labels(n)
    return [names[x] if s == 1 else f"{names[x]}^-1" for x, s in letters]


def reduce_free(letters, basepoint: int = BASEPOINT) -> tuple:
    """Free reduction with the basepoint as identity (benchmark's own copy)."""
    stack: list[tuple[int, int]] = []
    for x, s in letters:
        if x == basepoint:
            continue
        if stack and stack[-1] == (x, -s):
            stack.pop()
        else:
            stack.append((x, s))
    return tuple(stack)


def reduce_abelian(letters, basepoint: int = BASEPOINT) -> tuple:
    """Net exponent per non-basepoint letter, zeros dropped, sorted."""
    net: dict[int, int] = {}
    for x, s in letters:
        if x != basepoint:
            net[x] = net.get(x, 0) + s
    return tuple(sorted((x, v) for x, v in net.items() if v))
