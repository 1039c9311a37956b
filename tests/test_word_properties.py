"""Property tests: the word stream and the best-first search, which share one
prefix model, both match the naive oracle, and the exact Graev and
Swierczkowski paths match the search."""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from fiberdist import words
from fiberdist.core import scale_to_integers, validate_space
from fiberdist.extension import EmptyFiberError
from fiberdist.sampling import labels
from fiberdist.words import (
    VARIANTS,
    PointedSpace,
    WordsFunctor,
    enumerate_proper_representations,
    graev_distance,
    naive_word_distance,
    reduce_letters,
    search_word_distance,
)


@st.composite
def pointed_words(draw, max_points=3):
    """A pointed space on 2..max_points points and two reduced words of total
    length <= 3."""
    n = draw(st.integers(2, max_points))
    mat = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            # Entries in [1, 2] satisfy the triangle inequality on their own.
            q = draw(st.integers(1, 3))
            mat[i][j] = mat[j][i] = F(draw(st.integers(q, 2 * q)), q)
    pointed = PointedSpace(validate_space(labels(n), mat, "metric"), draw(st.integers(0, n - 1)))
    commutative = draw(st.booleans())
    letter = st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1)))
    a = reduce_letters(draw(st.lists(letter, max_size=2)), commutative, pointed)
    b = reduce_letters(draw(st.lists(letter, max_size=3 - len(a))), commutative, pointed)
    return pointed, a, b


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(pointed_words(), st.sampled_from(VARIANTS), st.integers(0, 1))
def test_search_value_equals_naive_minimum(case, variant, slack):
    pointed, a, b = case
    cap = len(a) + len(b) + slack
    searched = graev_distance(a, b, pointed, variant, cap)
    naive, count = naive_word_distance(a, b, pointed, cap)
    assert count > 0
    assert searched.value == naive[variant]
    assert WordsFunctor(variant, a.commutative).lift(pointed.space.pair_table(), searched.witness) == naive[variant]


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(pointed_words(), st.integers(0, 1))
def test_stream_is_the_naive_fiber(case, slack):
    pointed, a, b = case
    cap = len(a) + len(b) + slack
    stream = list(enumerate_proper_representations(a, b, pointed, cap))
    assert len(stream) == len(set(stream))
    functor = WordsFunctor(commutative=a.commutative)
    for rep in stream:
        assert functor.marginals(rep, pointed) == (a, b)
    _, count = naive_word_distance(a, b, pointed, cap)
    assert len(stream) == count


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(pointed_words(max_points=4))
def test_exact_graev_equals_the_search(case):
    pointed, a, b = case
    exact = graev_distance(a, b, pointed)
    assert exact.fiber_size_enumerated == 0 and not exact.cap_limited
    for slack in (2, 4):
        assert exact.value == search_word_distance(a, b, pointed, "graev", len(a) + len(b) + slack).value
    rows = exact.witness.rows
    assert len(rows) <= len(a) + len(b)
    assert WordsFunctor(commutative=a.commutative).lift(pointed.space.pair_table(), exact.witness) == exact.value
    assert WordsFunctor(commutative=a.commutative).marginals(exact.witness, pointed) == (a, b)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(pointed_words(max_points=4))
def test_exact_swierczkowski_equals_the_search(case):
    pointed, a, b = case
    denom, idist = scale_to_integers(pointed.space.dist)
    default = len(a) + len(b) + 2
    for cap in (max(len(a), len(b)), default):
        try:
            searched = search_word_distance(a, b, pointed, "swierczkowski", cap)
        except EmptyFiberError:
            with pytest.raises(EmptyFiberError):
                graev_distance(a, b, pointed, "swierczkowski", cap)
            continue
        answered = graev_distance(a, b, pointed, "swierczkowski", cap)
        assert answered.value == searched.value
        bound, rows = words._swierczkowski_forest(a, b, pointed, idist, cap)
        if answered.fiber_size_enumerated == 0:
            assert not answered.cap_limited and len(rows) <= cap
            assert answered.value == F(bound, denom) and answered.witness.rows == tuple(rows)
        else:
            assert rows is None and answered.cap_limited == (answered.value > F(bound, denom))
    # The bound holds below every capped value, not just the default one.
    bound = F(words._swierczkowski_forest(a, b, pointed, idist, default)[0], denom)
    for cap in (default, default + 1, default + 2):
        assert bound <= search_word_distance(a, b, pointed, "swierczkowski", cap).value


def _direct_need(word, target_word, commutative):
    """``(p, q)`` of one side, straight from the need functions."""
    if commutative:
        return words._net_need(words._net_of(word.letters), words._net_of(target_word.letters))
    return words._free_need(word.letters, target_word.letters)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(pointed_words(max_points=5))
def test_joint_bound_never_exceeds_the_rows_left(case):
    # Words reduced from scratch: every prefix pair within 2 rows of the
    # start, and the fewest rows that take it to (a, b) under a cap of 3,
    # found backwards from (a, b) (appending (x, -s) undoes a letter (x, s)).
    pointed, a, b = case
    commutative, cap = a.commutative, 3
    rows = [(x, y, s) for x in range(pointed.n) for y in range(pointed.n) for s in (1, -1)]
    steps: dict = {}

    def step(word, x, s):
        if (word, x, s) not in steps:
            steps[word, x, s] = reduce_letters(word.letters + ((x, s),), commutative, pointed)
        return steps[word, x, s]

    empty = reduce_letters((), commutative, pointed)
    depth = {(empty, empty): 0}
    level = [(empty, empty)]
    for d in range(1, cap):
        level = {nxt for l, r in level for x, y, s in rows if (nxt := (step(l, x, s), step(r, y, s))) not in depth}
        depth.update(dict.fromkeys(level, d))
    rows_left = {}
    level, count = {(a, b)}, 0
    while level:
        rows_left.update(dict.fromkeys(level, count))
        count += 1
        level = {
            prev
            for l, r in level
            for x, y, s in rows
            if (prev := (step(l, x, -s), step(r, y, -s))) not in rows_left and depth.get(prev, cap) + count <= cap
        }
    for (left, right), fewest in rows_left.items():
        lp, lq = _direct_need(left, a, commutative)
        rp, rq = _direct_need(right, b, commutative)
        assert max(lp, rp) + max(lq, rq) <= fewest


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(pointed_words(max_points=5), st.lists(st.tuples(st.integers(0, 4), st.sampled_from((1, -1))), max_size=4))
def test_incremental_tables_match_the_direct_need(case, walk):
    # At every prefix along a walk of letters, each entry of each side's
    # table is the successor prefix and that prefix's own need.
    pointed, a, b = case
    commutative = a.commutative
    tables = words._prefix_tables(a, b, pointed)
    key = (lambda w: words._net_of(w.letters)) if commutative else (lambda w: w.letters)
    for table, target in zip(tables, (a, b)):
        prefix = reduce_letters((), commutative, pointed)
        for letter in [(x % pointed.n, s) for x, s in walk] + [None]:
            for code, (nxt, p, q) in enumerate(table[key(prefix)]):
                successor = reduce_letters(prefix.letters + ((code // 2, -1 if code % 2 else 1),), commutative, pointed)
                assert nxt == key(successor)
                assert (p, q) == _direct_need(successor, target, commutative)
            if letter is not None:
                prefix = reduce_letters(prefix.letters + (letter,), commutative, pointed)
