"""Property tests: the specialized hyperspace, power and transport distances
equal the generic fiber minimum on spaces with mixed denominators."""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from fiberdist.core import validate_space
from fiberdist.extension import extend_generic
from fiberdist.hyperspace import HyperspaceFunctor, Subset
from fiberdist.power import PNorm, PowerFunctor
from fiberdist.sampling import labels
from fiberdist.transport import TransportFunctor, distribution


@st.composite
def spaces(draw):
    """A metric space on 2..6 points whose entries lie in [1, 2], where the
    triangle inequality holds on its own, with denominators 1..7."""
    n = draw(st.integers(2, 6))
    mat = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q = draw(st.integers(1, 7))
            mat[i][j] = mat[j][i] = F(draw(st.integers(q, 2 * q)), q)
    return validate_space(labels(n), mat, "metric")


def subsets(n, max_size):
    return st.lists(st.integers(0, n - 1), min_size=1, max_size=max_size, unique=True).map(Subset)


def distributions(n, max_size):
    """A measure on up to max_size points with masses k/q, q up to 9."""
    support = st.lists(st.integers(0, n - 1), min_size=1, max_size=max_size, unique=True)
    raw = st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9)

    def normalised(points_and_masses):
        points, masses = points_and_masses
        total = sum(masses)
        return distribution({p: w / total for p, w in zip(points, masses)})

    return support.flatmap(lambda pts: st.tuples(st.just(pts), st.lists(raw, min_size=len(pts), max_size=len(pts)))).map(normalised)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.data())
def test_hausdorff_equals_generic(data):
    space = data.draw(spaces())
    # At most 4 x 3 cells, within the 16-cell fiber cap.
    a = data.draw(subsets(space.n, 4))
    b = data.draw(subsets(space.n, 3))
    functor, table = HyperspaceFunctor(), space.pair_table()
    assert functor.distance(space, table, a, b).value == extend_generic(functor, space, table, a, b).value


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.data(), st.sampled_from([None, 1, 2, 3]), st.integers(1, 4))
def test_power_equals_generic(data, p, length):
    space = data.draw(spaces())
    point = st.integers(0, space.n - 1)
    s = tuple(data.draw(st.lists(point, min_size=length, max_size=length)))
    t = tuple(data.draw(st.lists(point, min_size=length, max_size=length)))
    functor, table = PowerFunctor(length, PNorm(p)), space.pair_table()
    assert functor.distance(space, table, s, t).value == extend_generic(functor, space, table, s, t).value


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.data())
def test_kantorovich_equals_generic(data):
    space = data.draw(spaces())
    # At most 3 x 4 cells, within the 20-cell vertex enumeration cap.
    mu = data.draw(distributions(space.n, 3))
    nu = data.draw(distributions(space.n, 4))
    functor, table = TransportFunctor(), space.pair_table()
    assert functor.distance(space, table, mu, nu).value == extend_generic(functor, space, table, mu, nu).value
