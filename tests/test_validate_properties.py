"""Property tests: ``validate_space``, which checks the axioms on the matrix
scaled to integers, agrees with a plain ``Fraction`` reference."""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from fiberdist.core import MODES, FiniteMetricSpace, SpaceValidationError, validate_space
from fiberdist.sampling import labels


def reference_validate(points, matrix, mode):
    """The axiom loops over ``Fraction`` entries, as the validator had them
    before it scaled to integers (entry types are not checked here)."""
    n = len(points)
    for i in range(n):
        for j in range(n):
            if matrix[i][j] < 0:
                raise SpaceValidationError(
                    "negative_entry", (i, j), f"d({points[i]},{points[j]}) < 0"
                )
    for i in range(n):
        if matrix[i][i] != 0:
            raise SpaceValidationError(
                "nonzero_diagonal", (i,), f"d({points[i]},{points[i]}) != 0"
            )
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                raise SpaceValidationError(
                    "asymmetric", (i, j), f"d({points[i]},{points[j]}) != d({points[j]},{points[i]})"
                )
    if mode == "metric":
        for i in range(n):
            for j in range(i + 1, n):
                if matrix[i][j] == 0:
                    raise SpaceValidationError(
                        "zero_distance_distinct",
                        (i, j),
                        f"distinct points {points[i]!r}, {points[j]!r} at distance 0 (use pseudometric mode)",
                    )
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if matrix[i][k] > matrix[i][j] + matrix[j][k]:
                    raise SpaceValidationError(
                        "triangle_violation",
                        (i, j, k),
                        f"d({points[i]},{points[k]}) > d({points[i]},{points[j]}) + d({points[j]},{points[k]})",
                    )
    return FiniteMetricSpace(tuple(points), tuple(tuple(row) for row in matrix), mode)


def outcome(validate, points, matrix, mode):
    try:
        space = validate(points, matrix, mode)
    except SpaceValidationError as err:
        return ("error", err.axiom, err.witness, str(err))
    return ("space", space, tuple(type(v) for row in space.dist for v in row))


# Small denominators and large primes (the Mersenne prime 2**61 - 1 and
# 10**9 + 7), so the common denominator can get large.
DENOMINATORS = st.sampled_from((1, 2, 3, 4, 6, 7, 10**9 + 7, 2**61 - 1))


@st.composite
def rational(draw, low=0, high=3):
    q = draw(DENOMINATORS)
    value = F(draw(st.integers(low * q, high * q)), q)
    if value.denominator == 1 and draw(st.booleans()):
        return int(value)  # int entries are rational too
    return value


# Planted violations, in the order the validator checks their axioms.
PLANTS = ("sign", "diagonal", "symmetry", "separation", "triangle")


@st.composite
def candidate_spaces(draw):
    """A 1-7 point (pseudo-)metric with zero or one planted violation of each axiom.

    The first planted axiom is drawn uniformly (or none), each later one is
    planted or not, so every axiom is often the one the validator must name.
    """
    n = draw(st.integers(1, 7))
    mode = draw(st.sampled_from(MODES))
    low = 0 if mode == "pseudometric" else 1
    mat = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = draw(rational(low, 3))
    # Shortest-path closure makes the triangle inequality hold.
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if mat[i][k] + mat[k][j] < mat[i][j]:
                    mat[i][j] = mat[i][k] + mat[k][j]
    first = draw(st.sampled_from(PLANTS + (None,)))
    planted = [] if first is None else [first] + [p for p in PLANTS[PLANTS.index(first) + 1 :] if draw(st.booleans())]
    index = st.integers(0, n - 1)
    # Plant the last-checked axiom first, so no plant overwrites an earlier one.
    for plant in reversed(planted):
        i, j = draw(index), draw(index)
        if plant == "sign":
            mat[i][j] = -draw(rational(1, 2))
        elif plant == "diagonal":
            mat[i][i] = draw(rational(1, 2))
        elif i == j:
            continue  # the pair plants need two points
        elif plant == "symmetry":
            mat[i][j] += draw(rational(1, 2))
        elif plant == "separation":
            mat[i][j] = mat[j][i] = F(0)
        else:  # stretch one pair past any detour
            mat[i][j] = mat[j][i] = 3 * (n - 1) + draw(rational(1, 2))
    return labels(n), mat, mode


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(candidate_spaces())
def test_integer_validator_matches_fraction_reference(case):
    points, matrix, mode = case
    assert outcome(validate_space, points, matrix, mode) == outcome(reference_validate, points, matrix, mode)


def test_triangle_violation_among_the_last_points_of_128():
    # Off-diagonal distances in [2, 3] with large denominators, except that
    # the third-to-last point sits at distance 1 from the last two, which
    # are 2 apart, then 7/2: only the detour through it violates the triangle.
    n = 128
    q = 2**61 - 1
    mat = [[F(0) if i == j else F(2 * q + (i * 31 + j * 17) * (i + j) % q, q) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            mat[i][j] = mat[j][i]
    a, b, c = n - 3, n - 2, n - 1
    mat[a][b] = mat[b][a] = mat[a][c] = mat[c][a] = F(1)
    mat[b][c] = mat[c][b] = F(2)
    points = labels(n)
    assert outcome(validate_space, points, mat, "metric")[0] == "space"
    mat[b][c] = mat[c][b] = F(7, 2)
    # The first violating triple in (i, j, k) order; the reference would take
    # seconds to reach it on this matrix.
    message = f"d({points[b]},{points[c]}) > d({points[b]},{points[a]}) + d({points[a]},{points[c]})"
    expected = ("error", "triangle_violation", (b, a, c), message)
    assert outcome(validate_space, points, mat, "metric") == expected
