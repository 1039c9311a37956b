"""Property tests: the word stream and the best-first search, which share one
prefix model, both match the naive oracle, the exact Graev and
Swierczkowski paths match the search, and the generic fold matches the
rational loop over the stream."""

import random
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from fiberdist import words
from fiberdist.core import scale_to_integers, validate_space
from fiberdist.extension import EmptyFiberError, extend_generic
from fiberdist.sampling import labels, random_metric_space
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
from test_extension import reference_extend_generic, sample_tables


@st.composite
def pointed_words(draw, max_points=3, star=False):
    """A pointed space on 2..max_points points and two reduced words of total
    length <= 3.  A ``star`` space has at least 3 points, and every other
    pair's distance runs through the basepoint, so paying each letter to it
    is a cheapest representation, which a cap below the words' summed
    length cuts; each of its words is drawn from at least one letter, none
    of them the basepoint's, which would vanish."""
    n = draw(st.integers(2 + star, max_points))
    mat = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            # Entries in [1, 2] satisfy the triangle inequality on their own.
            q = draw(st.integers(1, 3))
            mat[i][j] = mat[j][i] = F(draw(st.integers(q, 2 * q)), q)
    e = draw(st.integers(0, n - 1))
    if star:
        for i in range(n):
            for j in range(n):
                if i != j and e not in (i, j):
                    mat[i][j] = mat[i][e] + mat[e][j]
    pointed = PointedSpace(validate_space(labels(n), mat, "metric"), e)
    commutative = draw(st.booleans())
    points = st.sampled_from([x for x in range(n) if x != e]) if star else st.integers(0, n - 1)
    letter = st.tuples(points, st.sampled_from((1, -1)))
    a = reduce_letters(draw(st.lists(letter, min_size=star, max_size=2)), commutative, pointed)
    b = reduce_letters(draw(st.lists(letter, min_size=star, max_size=3 - len(a))), commutative, pointed)
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


@st.composite
def folded_pairs(draw):
    """A random 3- or 4-point pointed space, two reduced words from strings of
    up to 3 letters each, and a cap from their longer length to 4, which
    keeps each fiber to a few thousand representations for the rational
    loop."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 4))
    pointed = PointedSpace(random_metric_space(rng, n, den_max=7), draw(st.integers(0, n - 1)))
    commutative = draw(st.booleans())
    letter = st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1)))
    a, b = (reduce_letters(draw(st.lists(letter, max_size=3)), commutative, pointed) for _ in range(2))
    cap = draw(st.integers(max(len(a), len(b)), 4))
    return rng, pointed, a, b, cap


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(folded_pairs(), st.sampled_from(VARIANTS))
def test_fold_matches_the_reference_loop(case, variant):
    # The fold's forward pass over the paid masks and its ``below`` masks
    # only act for Swierczkowski on a table with nonzero entries; the
    # sample tables add zeros, negative entries and asymmetry.
    rng, pointed, a, b, cap = case
    functor = WordsFunctor(variant, a.commutative, cap)
    for table in sample_tables(rng, pointed.space):
        for early_exit in (True, False):
            try:
                reference = reference_extend_generic(functor, pointed, table, a, b, early_exit=early_exit)
            except EmptyFiberError as exc:
                with pytest.raises(EmptyFiberError) as info:
                    extend_generic(functor, pointed, table, a, b, early_exit=early_exit)
                assert str(info.value) == str(exc)
                continue
            result = extend_generic(functor, pointed, table, a, b, early_exit=early_exit)
            assert (result.value, result.witness, result.fiber_size_enumerated, result.cap_limited) == (
                reference.value, reference.witness, reference.fiber_size_enumerated, reference.cap_limited,
            )


def reference_cheapest_partitions(a, b, pointed, terminals, cost):
    """The pruned depth-first walk over the partitions of the terminals that
    the forest tables' ranked walk replaced: ``(bound, partitions)`` as
    :func:`words._cheapest_partitions` returns them.  Terminal i joins each
    earlier block in turn, then opens its own; adding a terminal to a block
    never makes it cheaper, so a partial partition dearer than the best
    feasible one found is cut."""
    e = pointed.basepoint
    found = []
    best = None

    def image(word, rep):
        return reduce_letters([(rep[x], s) for x, s in word.letters], word.commutative, pointed).letters

    stack = [(0, (), 0)]  # (next terminal, blocks so far, their summed cost)
    while stack:
        i, blocks, total = stack.pop()
        if best is not None and total > best:
            continue
        if i == len(terminals):
            rep = {}
            for mask in blocks:
                members = [x for j, x in enumerate(terminals) if mask >> j & 1]
                rep.update(dict.fromkeys(members, e if e in members else members[0]))
            if image(a, rep) == image(b, rep):
                if best is None or total < best:
                    best = total
                    found.clear()
                found.append(blocks)
            continue
        bit = 1 << i
        stack.append((i + 1, blocks + (bit,), total))
        for k in reversed(range(len(blocks))):
            joined = blocks[k] | bit
            stack.append((i + 1, blocks[:k] + (joined,) + blocks[k + 1:], total - cost[blocks[k]] + cost[joined]))
    return best, found


@st.composite
def tied_words(draw):
    """A pointed space on 3..6 points with distances 1 and 2, where many
    partitions cost the same, and two words of 2..4 letters each, reduced."""
    n = draw(st.integers(3, 6))
    mat = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = F(draw(st.integers(1, 2)))
    pointed = PointedSpace(validate_space(labels(n), mat, "metric"), draw(st.integers(0, n - 1)))
    commutative = draw(st.booleans())
    letter = st.tuples(st.sampled_from(range(n)), st.sampled_from((1, -1)))
    a, b = (reduce_letters(draw(st.lists(letter, min_size=2, max_size=4)), commutative, pointed) for _ in "ab")
    return pointed, a, b


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(tied_words())
def test_ranked_partitions_match_the_pruned_walk(case):
    pointed, a, b = case
    e, idist = pointed.basepoint, pointed.space.pair_table().integer_view[1]
    terminals = tuple(sorted({e, *(x for x, _s in a.letters + b.letters)}))
    forest = words._forest_table(idist, e, terminals)
    cost, _tree_edges = words._steiner_trees(terminals, idist)
    assert words._cheapest_partitions(a, b, pointed, forest) == reference_cheapest_partitions(
        a, b, pointed, terminals, cost
    )


@pytest.mark.parametrize("star", [False, True])
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.data())
def test_graev_search_fallbacks_flag_only_values_above_the_closed_form(star, data):
    # The closed form is the cap-free minimum, so a search value that meets
    # it is exact.
    pointed, a, b = data.draw(pointed_words(max_points=4, star=star))
    denom, idist = scale_to_integers(pointed.space.dist)
    closed_form = words._abelian_graev if a.commutative else words._free_graev
    cost, rows = closed_form(a, b, pointed, idist)
    for cap in range(max(len(a), len(b)), len(a) + len(b) + 3):
        try:
            searched = search_word_distance(a, b, pointed, "graev", cap)
        except EmptyFiberError:
            with pytest.raises(EmptyFiberError):
                graev_distance(a, b, pointed, "graev", cap)
            continue
        answered = graev_distance(a, b, pointed, "graev", cap)
        assert answered.value == searched.value
        if answered.fiber_size_enumerated == 0:
            assert not answered.cap_limited and len(rows) <= cap
            assert answered.value == F(cost, denom) and answered.witness.rows == tuple(rows)
        else:
            assert len(rows) > cap and answered.witness == searched.witness
            assert answered.fiber_size_enumerated == searched.fiber_size_enumerated
            assert answered.cap_limited == (answered.value > F(cost, denom))


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
    # table is the successor prefix's id and that prefix's own need; the
    # tables read and give prefixes through their id maps.
    pointed, a, b = case
    commutative = a.commutative
    tables = words._prefix_tables(a, b, pointed)
    key = (lambda w: words._net_of(w.letters)) if commutative else (lambda w: w.letters)
    for table, target in zip(tables, (a, b)):
        assert table.prefixes[table.target] == key(target)
        prefix = reduce_letters((), commutative, pointed)
        for letter in [(x % pointed.n, s) for x, s in walk] + [None]:
            for code, (nxt, p, q) in enumerate(table[table.ids[key(prefix)]]):
                successor = reduce_letters(prefix.letters + ((code // 2, -1 if code % 2 else 1),), commutative, pointed)
                assert table.prefixes[nxt] == key(successor)
                assert (p, q) == _direct_need(successor, target, commutative)
            if letter is not None:
                prefix = reduce_letters(prefix.letters + (letter,), commutative, pointed)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(pointed_words(max_points=5), st.lists(st.tuples(st.integers(0, 4), st.sampled_from((1, -1))), max_size=4))
def test_letter_classes_match_the_direct_filter(case, walk):
    # At every prefix along a walk of letters, the basepoint's two entries
    # keep the prefix and its need, every other letter moves the need by
    # one, and the letters within each number of rows left, kept per class
    # of its slack over that need, are those the direct filter keeps, with
    # either side's scale, asked one after the other.
    pointed, a, b = case
    e = pointed.basepoint
    cap = words.default_cap(a, b)
    for table in words._prefix_tables(a, b, pointed):
        pid = 0
        for letter in [(x % pointed.n, s) for x, s in walk] + [None]:
            entries = table[pid]
            own = entries[2 * e]
            assert own[0] == pid and entries[2 * e + 1] == own
            for code, (_nxt, lp, lq) in enumerate(entries):
                if code // 2 != e:
                    assert abs(lp + lq - own[1] - own[2]) == 1
            for remaining in range(-1, cap + 3):
                for scale in (pointed.n, 1):
                    direct = [
                        [
                            (x * scale, nxt, lp, lq, nxt == table.target)
                            for x, (nxt, lp, lq) in enumerate(entries[neg::2])
                            if lp + lq <= remaining
                        ]
                        for neg in (0, 1)
                    ]
                    assert words._letters_within(table, pid, remaining, scale) == direct
            if letter is not None:
                x, s = letter
                pid = entries[2 * x + (s == -1)][0]
