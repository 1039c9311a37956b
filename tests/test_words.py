import hashlib
import math
import gc
import random
import sys
import types
from fractions import Fraction as F

import pytest

from fiberdist import cli, transport, words
from fiberdist.core import PairTable, validate_space
from fiberdist.extension import VARIANTS, EmptyFiberError, FiberCapExceeded, extend_generic
from fiberdist.sampling import labels, random_metric_space, random_word, random_word_of_length
from fiberdist.selftest import check_word_pseudometric_axioms
from fiberdist.transport import distribution, kantorovich
from fiberdist.words import (
    MAX_STATES,
    CapTooSmallError,
    PointedSpace,
    ProperRepresentationPair,
    WitnessError,
    WordsFunctor,
    enumerate_proper_representations,
    graev_distance,
    naive_word_distance,
    parse_word,
    pointed_space,
    reduce_letters,
    search_word_distance,
)


def format_word(word, pointed):
    points = pointed.space.points
    return [points[x] if s == 1 else f"{points[x]}^-1" for x, s in word.letters]


def wide_space():
    # e far away from x, y; basepoint padding is never worth it.
    return validate_space(
        ["e", "x", "y"],
        [[F(0), F(10), F(10)], [F(10), F(0), F(1)], [F(10), F(1), F(0)]],
        "metric",
    )


@pytest.fixture
def ctx():
    return pointed_space(wide_space(), "e")


def word(ctx, pairs, commutative=False):
    return reduce_letters(pairs, commutative, ctx)


class TestReduce:
    def test_inverse_pair_cancels(self, ctx):
        assert word(ctx, [(1, 1), (1, -1)]).letters == ()

    def test_basepoint_letters_vanish(self, ctx):
        assert word(ctx, [(1, 1), (0, 1), (2, 1)]).letters == ((1, 1), (2, 1))

    def test_commutative_cancellation_at_distance(self, ctx):
        w = word(ctx, [(1, 1), (2, 1), (1, -1)], commutative=True)
        assert w.letters == ((2, 1),)

    def test_free_keeps_order(self, ctx):
        w = word(ctx, [(2, 1), (1, 1)])
        assert w.letters == ((2, 1), (1, 1))

    def test_confluence_against_random_rewrites(self, ctx):
        # Apply basepoint deletions and inverse cancellations in random
        # order; the fixed point must match the canonical reduction.
        rng = random.Random(4)
        for _ in range(500):
            letters = [(rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randint(0, 8))]
            work = list(letters)
            while True:
                moves = []
                for idx, (x, _s) in enumerate(work):
                    if x == 0:
                        moves.append(("drop", idx))
                for idx in range(len(work) - 1):
                    x, s = work[idx]
                    if work[idx + 1] == (x, -s):
                        moves.append(("cancel", idx))
                if not moves:
                    break
                kind, idx = rng.choice(moves)
                if kind == "drop":
                    del work[idx]
                else:
                    del work[idx : idx + 2]
            assert tuple(work) == word(ctx, letters).letters


class TestWordSyntax:
    def test_parse_and_format(self, ctx):
        w = parse_word(["x", "y^-1", "x"], ctx, commutative=False)
        assert w.letters == ((1, 1), (2, -1), (1, 1))
        assert format_word(w, ctx) == ["x", "y^-1", "x"]

    def test_parse_reduces(self, ctx):
        assert parse_word(["x", "e", "y"], ctx, commutative=False).letters == ((1, 1), (2, 1))

    def test_bad_exponent(self, ctx):
        from fiberdist.core import ParseError

        with pytest.raises(ParseError):
            parse_word(["x^2"], ctx, commutative=False)


class TestLetterSumLift:
    def test_empty_word(self, ctx):
        assert WordsFunctor("graev").lift(lambda k: F(1), word(ctx, [])) == 0

    def test_repeated_letter(self, ctx):
        phi = {1: F(3)}
        w = word(ctx, [(1, 1), (1, 1)])
        assert WordsFunctor("graev").lift(lambda k: phi[k], w) == F(6)
        assert WordsFunctor("swierczkowski").lift(lambda k: phi[k], w) == F(3)

    def test_distinct_pair_rule(self, ctx):
        t = ctx.space.pair_table()
        rep = ProperRepresentationPair(((1, 2, 1), (1, 2, 1)))
        assert WordsFunctor("graev").lift(t, rep) == F(2)
        assert WordsFunctor("swierczkowski").lift(t, rep) == F(1)


class TestEnumerateElements:
    @pytest.mark.parametrize("commutative", [False, True], ids=["free", "abelian"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_counts_match_closed_forms(self, n, commutative):
        # k non-basepoint points: free reduced words of length l number
        # 2k (2k - 1)^(l - 1) for l >= 1, and abelian words are the points
        # of Z^k with L1 norm <= cap, sum_i 2^i C(k, i) C(cap, i) of them.
        pointed = PointedSpace(random_metric_space(random.Random(n), n), n - 1)
        functor = WordsFunctor(commutative=commutative)
        k = n - 1
        for cap in range(5):
            elements = list(functor.enumerate_elements(pointed, cap))
            if commutative:
                expected = sum(2**i * math.comb(k, i) * math.comb(cap, i) for i in range(k + 1))
            else:
                expected = 1 + sum(2 * k * (2 * k - 1) ** (length - 1) for length in range(1, cap + 1))
            assert len(elements) == len(set(elements)) == expected
            for w in elements:
                assert len(w) <= cap
                assert reduce_letters(w.letters, commutative, pointed) == w


class TestEnumerateRepresentations:
    def test_single_letter_diagonal(self, ctx):
        a = word(ctx, [(1, 1)])
        reps = list(enumerate_proper_representations(a, a, ctx, 1))
        assert ProperRepresentationPair(((1, 1, 1),)) in reps

    def test_sides_always_reduce_to_targets(self, ctx):
        rng = random.Random(12)
        functor = WordsFunctor("graev")
        for _ in range(8):
            a = random_word(rng, ctx, 2)
            b = random_word(rng, ctx, 2)
            for rep in enumerate_proper_representations(a, b, ctx, len(a) + len(b) + 1):
                left, right = functor.marginals(rep, ctx)
                assert left == a
                assert right == b

    def test_includes_basepoint_paddings(self, ctx):
        a = word(ctx, [(1, 1), (1, 1)])
        b = word(ctx, [(2, 1), (2, 1)])
        reps = list(enumerate_proper_representations(a, b, ctx, 4))
        assert ProperRepresentationPair(((1, 2, 1), (1, 2, 1))) in reps
        assert any(len(rep.rows) == 3 for rep in reps)  # odd-length paddings exist
        assert any(
            (0, 0, 1) in rep.rows or (0, 0, -1) in rep.rows for rep in reps if len(rep.rows) == 3
        )

    def test_count_matches_naive_filter(self, ctx):
        rng = random.Random(18)
        for _ in range(5):
            a = random_word(rng, ctx, 1)
            b = random_word(rng, ctx, 1)
            cap = max(len(a), len(b)) + 2
            stream = list(enumerate_proper_representations(a, b, ctx, cap))
            assert len(stream) == len(set(stream))
            _, count = naive_word_distance(a, b, ctx, cap)
            assert len(stream) == count

    def test_cap_too_small(self, ctx):
        a = word(ctx, [(1, 1), (2, 1)])
        with pytest.raises(CapTooSmallError):
            list(enumerate_proper_representations(a, a, ctx, 1))


class TestDistances:
    def test_equal_words(self, ctx):
        a = word(ctx, [(1, 1), (2, -1)])
        r = graev_distance(a, a, ctx)
        assert r.value == 0
        assert not r.cap_limited

    def test_single_letters_extend_base_distance(self, ctx):
        a, b = word(ctx, [(1, 1)]), word(ctx, [(2, 1)])
        for variant in ("graev", "swierczkowski"):
            assert graev_distance(a, b, ctx, variant).value == F(1)

    def test_squared_letters_both_variants(self, ctx):
        a = word(ctx, [(1, 1), (1, 1)])
        b = word(ctx, [(2, 1), (2, 1)])
        r1 = graev_distance(a, b, ctx, "graev", 6)
        r2 = graev_distance(a, b, ctx, "swierczkowski", 6)
        assert r1.value == F(2)
        assert r2.value == F(1)
        assert not r1.cap_limited  # the exact Graev path
        # The exact Swierczkowski path: the edge {x, y} is the cheapest
        # forest, and two rows on it reach the bound.
        assert (r2.fiber_size_enumerated, r2.cap_limited) == (0, False)
        assert r2.witness.rows == ((1, 2, 1), (1, 2, 1))

    def test_swierczkowski_capped_above_the_bound(self, ctx):
        # x against x^-1 x^-1 y^-1: the cheapest forest the bound builds is
        # the tree {e-x, x-y} of cost 11, whose shortest witness has 7 rows.  The default cap 6
        # leaves the search at 20; at cap + 2 the exact path meets the bound,
        # and the search alone reaches it from cap 7 on.
        a, b = word(ctx, [(1, 1)]), word(ctx, [(1, -1), (1, -1), (2, -1)])
        capped = graev_distance(a, b, ctx, "swierczkowski")
        assert capped == search_word_distance(a, b, ctx, "swierczkowski")
        assert (capped.value, capped.cap_limited) == (F(20), True) and capped.fiber_size_enumerated > 0
        exact = graev_distance(a, b, ctx, "swierczkowski", 8)
        assert (exact.value, exact.fiber_size_enumerated, exact.cap_limited) == (F(11), 0, False)
        assert len(exact.witness.rows) == 7
        assert search_word_distance(a, b, ctx, "swierczkowski", 7).value == F(11)

    def test_swierczkowski_search_at_the_bound_is_not_cap_limited(self, ctx):
        # The empty word against x y y: the bound 11 needs 6 rows, one more
        # than the default cap, and the search meets it there.
        a, b = word(ctx, []), word(ctx, [(1, 1), (2, 1), (2, 1)])
        result = graev_distance(a, b, ctx, "swierczkowski")
        assert result.fiber_size_enumerated > 0 and result.value == F(11)
        assert not result.cap_limited
        assert search_word_distance(a, b, ctx, "swierczkowski").cap_limited

    def test_answers_share_equal_parts_in_a_bounded_table(self, ctx, monkeypatch):
        a, b = word(ctx, [(1, 1), (2, -1)]), word(ctx, [(2, 1)])
        for variant in ("graev", "swierczkowski"):
            first, again = graev_distance(a, b, ctx, variant), graev_distance(a, b, ctx, variant)
            assert first.witness is again.witness and first.value is again.value
        monkeypatch.setattr(words, "_SHARED", {})
        monkeypatch.setattr(words, "_SHARED_LIMIT", 3)
        assert graev_distance(a, b, ctx, "swierczkowski") == first
        assert len(words._SHARED) <= 3

    def test_many_terminals_go_to_the_search(self):
        # Eight letters and the basepoint are nine terminals, one more than
        # the forest bound takes; at cap 4 each row must pair x_i with x_i+4.
        pointed = PointedSpace(random_metric_space(random.Random(9), 9), 0)
        a, b = word(pointed, [(i, 1) for i in range(1, 5)]), word(pointed, [(i, 1) for i in range(5, 9)])
        assert len({0, *range(1, 9)}) > words.MAX_FOREST_TERMINALS
        result = graev_distance(a, b, pointed, "swierczkowski", 4)
        assert result == search_word_distance(a, b, pointed, "swierczkowski", 4)
        assert result.fiber_size_enumerated > 0

    def test_non_pseudometric_table_goes_to_the_generic_minimum(self, ctx):
        # d(x, y) = 5 breaks the triangle through e.  The exact paths and the
        # search read the space's own distances, so any other table takes
        # the generic minimum, at the instance's cap or at the call's.
        table = PairTable([[F(0), F(1), F(1)], [F(1), F(0), F(5)], [F(1), F(5), F(0)]])
        a, b = word(ctx, [(1, 1), (1, 1)]), word(ctx, [(2, 1), (2, 1)])
        functor = WordsFunctor("swierczkowski")
        result = functor.distance(ctx, table, a, b)
        assert result == extend_generic(functor, ctx, table, a, b)
        assert result.fiber_size_enumerated > 0 and result.value == F(2)
        capped = WordsFunctor("swierczkowski", cap=5)
        assert functor.distance(ctx, table, a, b, cap=5) == extend_generic(capped, ctx, table, a, b)

    @pytest.mark.parametrize(
        "matrix, a, b, commutative, value, generic",
        [
            (
                [
                    ["0", "2", "5/4", "3/2", "4/3", "2"],
                    ["2", "0", "4/3", "5/3", "1", "2"],
                    ["5/4", "4/3", "0", "2", "1", "1"],
                    ["3/2", "5/3", "2", "0", "1", "5/3"],
                    ["4/3", "1", "1", "1", "0", "3/2"],
                    ["2", "2", "1", "5/3", "3/2", "0"],
                ],
                [(5, -1), (3, -1), (2, -1)], [(5, 1), (2, -1), (5, -1)], False, F(7, 2),
                {variant: "representation DAG reached 25025 states, over the budget of 25000" for variant in VARIANTS},
            ),
            (
                [
                    ["0", "2", "1", "2", "3/2"],
                    ["2", "0", "2", "1", "7/4"],
                    ["1", "2", "0", "3/2", "1"],
                    ["2", "1", "3/2", "0", "1"],
                    ["3/2", "7/4", "1", "1", "0"],
                ],
                [(1, -1), (2, 1), (4, 1)], [(1, -1), (1, -1), (2, -1)], True, F(4),
                {
                    "graev": (F(11, 2), 60_125_190),
                    "swierczkowski": "generic fold reached 25001 states, over the budget of 25000",
                },
            ),
        ],
        ids=["free", "abelian"],
    )
    def test_searched_pairs_with_a_large_representation_dag(self, matrix, a, b, commutative, value, generic):
        # No forest witness fits the default cap 8, so the search answers.
        # The generic minimum over the same fiber runs out of states here
        # (the free pair's DAG, the abelian pair's Swierczkowski fold); the
        # search's cost order and dominance settle fewer than MAX_STATES.
        # The generic outcomes pin where the DAG and fold budgets bite.
        space = validate_space(labels(len(matrix)), [[F(v) for v in row] for row in matrix], "metric")
        pointed = PointedSpace(space, 0)
        a, b = word(pointed, a, commutative), word(pointed, b, commutative)
        result = graev_distance(a, b, pointed, "swierczkowski")
        assert (result.value, result.cap_limited) == (value, True)
        assert 0 < result.fiber_size_enumerated <= MAX_STATES
        assert WordsFunctor("swierczkowski", commutative).marginals(result.witness, pointed) == (a, b)
        for variant, outcome in generic.items():
            functor = WordsFunctor(variant, commutative)
            if isinstance(outcome, str):
                with pytest.raises(FiberCapExceeded) as info:
                    extend_generic(functor, pointed, space.pair_table(), a, b)
                assert str(info.value) == outcome
            else:
                found = extend_generic(functor, pointed, space.pair_table(), a, b)
                assert (found.value, found.fiber_size_enumerated) == outcome

    def test_witness_reevaluates_to_value(self, ctx):
        rng = random.Random(44)
        t = ctx.space.pair_table()
        for _ in range(10):
            a = random_word(rng, ctx, 2)
            b = random_word(rng, ctx, 2)
            for variant in ("graev", "swierczkowski"):
                r = graev_distance(a, b, ctx, variant)
                functor = WordsFunctor(variant)
                assert functor.lift(t, r.witness) == r.value
                left, right = functor.marginals(r.witness, ctx)
                assert (left, right) == (a, b)

    def test_graev_dominates_swierczkowski(self, ctx):
        rng = random.Random(29)
        for _ in range(25):
            a = random_word(rng, ctx, 2)
            b = random_word(rng, ctx, 2)
            cap = len(a) + len(b) + 2
            d1 = graev_distance(a, b, ctx, "graev", cap).value
            d2 = graev_distance(a, b, ctx, "swierczkowski", cap).value
            assert d1 >= d2

    def test_agrees_with_naive_oracle(self, ctx):
        rng = random.Random(31)
        for _ in range(15):
            a = random_word(rng, ctx, 1)
            b = random_word(rng, ctx, 2)
            cap = len(a) + len(b) + 1
            naive, _ = naive_word_distance(a, b, ctx, cap)
            for variant in ("graev", "swierczkowski"):
                assert graev_distance(a, b, ctx, variant, cap).value == naive[variant]

    def test_empty_fiber_within_forced_cap(self, ctx):
        # x vs y^-1 admits no representation of length 1: the shared sign
        # cannot produce both a positive and a negative reduced letter.
        a, b = word(ctx, [(1, 1)]), word(ctx, [(2, -1)])
        with pytest.raises(EmptyFiberError):
            graev_distance(a, b, ctx, cap=1)
        assert graev_distance(a, b, ctx, cap=2).value == F(20)

    def test_cap_below_the_exact_witness_falls_back_to_the_search(self):
        # With e between x and y, paying every letter to e is optimal: the
        # exact witness of xx vs yy has 4 rows, so cap 2 goes to the search.
        space = validate_space(
            ["e", "x", "y"], [[F(0), F(1), F(1)], [F(1), F(0), F(2)], [F(1), F(2), F(0)]], "metric"
        )
        near = PointedSpace(space, 0)
        a, b = word(near, [(1, 1), (1, 1)]), word(near, [(2, 1), (2, 1)])
        exact = graev_distance(a, b, near)
        assert (exact.value, len(exact.witness.rows), exact.fiber_size_enumerated) == (F(4), 4, 0)
        capped = graev_distance(a, b, near, cap=2)
        searched = search_word_distance(a, b, near, cap=2)
        assert (capped.value, capped.witness, capped.fiber_size_enumerated) == (
            searched.value, searched.witness, searched.fiber_size_enumerated
        )
        # The search meets the closed form, the cap-free minimum, so its
        # value is exact: only the plain search, which has no bound, flags it.
        assert capped.fiber_size_enumerated > 0 and not capped.cap_limited and searched.cap_limited
        assert capped.value == F(4)

    @pytest.mark.parametrize("commutative", [False, True])
    def test_long_words_on_eight_points_need_no_search(self, commutative):
        rng = random.Random(8)
        pointed = PointedSpace(random_metric_space(rng, 8), 0)
        functor = WordsFunctor(commutative=commutative)
        for i in range(5):
            a, b = (random_word_of_length(rng, pointed, 4, commutative=commutative) for _ in range(2))
            result = graev_distance(a, b, pointed)
            assert result.fiber_size_enumerated == 0 and not result.cap_limited
            assert len(result.witness.rows) <= 8
            assert functor.marginals(result.witness, pointed) == (a, b)
            if i == 0:  # the search runs out of states on all five; each takes it 1-4 s
                with pytest.raises(FiberCapExceeded, match=f"word search reached {MAX_STATES + 1} states"):
                    search_word_distance(a, b, pointed)
                # The representation DAG checks its budget after each state's
                # rows, so it stops at most 2 n^2 states past it.
                with pytest.raises(FiberCapExceeded, match="representation DAG reached") as info:
                    extend_generic(functor, pointed, pointed.space.pair_table(), a, b)
                states = int(str(info.value).split()[3])
                assert MAX_STATES < states <= MAX_STATES + 2 * pointed.n**2

    @pytest.mark.parametrize("commutative", [False, True])
    def test_a_broken_witness_is_a_named_error(self, ctx, monkeypatch, commutative):
        # Drop one row from every unit of the transport plan and from the
        # matching's witness: the re-lift and reduce check must refuse it.
        # x against y leaves a two-signed abelian residual, x against the
        # empty word a one-signed one, whose plan is forced.
        free_graev, unit_rows = words._free_graev, words._unit_rows
        monkeypatch.setattr(words, "_free_graev", lambda *args: (free_graev(*args)[0], free_graev(*args)[1][1:]))
        monkeypatch.setattr(words, "_unit_rows", lambda *args: unit_rows(*args)[1:])
        for other in (["y"], []):
            a, b = word(ctx, [(1, 1)], commutative), word(ctx, [(2, 1)] if other else [], commutative)
            with pytest.raises(WitnessError):
                graev_distance(a, b, ctx)
            request = {"command": "dist", "functor": "words", "space": "s", "a": ["x"], "b": other, "abelian": commutative}
            response, code = cli.handle_request(request, lambda _path: (ctx.space, "e"))
            assert code == 2 and "witness" in response["error"]

    def test_a_flow_beyond_the_residual_is_a_named_error(self, ctx, monkeypatch):
        # A flow kernel that moves one unit too many, past a certificate that
        # does not notice, runs out of residual letters: a WitnessError, not
        # an IndexError.
        solve = transport.min_cost_flow

        def one_more(costs, supply, demand):
            value, flow, rows, cols = solve(costs, supply, demand)
            return value, {cell: units + 1 for cell, units in flow.items()}, rows, cols

        monkeypatch.setattr(transport, "min_cost_flow", one_more)
        monkeypatch.setattr(transport, "dual_certificate", lambda *args: None)
        a, b = word(ctx, [(1, 1)], True), word(ctx, [(2, 1)], True)
        with pytest.raises(WitnessError, match="more units"):
            graev_distance(a, b, ctx)

    def test_mixed_flag_rejected(self, ctx):
        a = word(ctx, [(1, 1)])
        b = word(ctx, [(1, 1)], commutative=True)
        with pytest.raises(ValueError):
            graev_distance(a, b, ctx)


def counting_table_builds(monkeypatch) -> list:
    """Start from an empty table cache and record the (prefix, target) of
    every prefix table built from then on."""
    builds = []
    monkeypatch.setattr(words, "_TABLES", words._TableCache())
    for name in ("_free_table", "_net_table"):
        build = getattr(words, name)
        counted = lambda prefix, target, *rest, build=build: (
            builds.append((prefix, target)) or build(prefix, target, *rest)
        )
        monkeypatch.setattr(words, name, counted)
    return builds


def table_users(a, b, pointed):
    """A call of each solver that reads prefix tables: the search, the
    forest A* behind an exact Swierczkowski answer, and the DAG fold."""
    functor = WordsFunctor("swierczkowski", a.commutative)
    return [
        lambda: search_word_distance(a, b, pointed, "graev"),
        lambda: search_word_distance(a, b, pointed, "swierczkowski"),
        lambda: graev_distance(a, b, pointed, "swierczkowski"),
        lambda: functor.fiber_minimum(a, b, pointed, pointed.space.pair_table(), False),
    ]


class TestSharedPrefixTables:
    @pytest.mark.parametrize("commutative", [False, True])
    def test_calls_that_share_a_word_build_its_tables_once(self, ctx, monkeypatch, commutative):
        builds = counting_table_builds(monkeypatch)
        a, b = word(ctx, [(1, 1), (2, -1)], commutative), word(ctx, [(2, 1)], commutative)
        calls = table_users(a, b, ctx)
        first = [call() for call in calls]
        assert builds and len(set(builds)) == len(builds)
        built = len(builds)
        assert [call() for call in calls] == first
        # b again, against another word: its tables are not built again.
        other = word(ctx, [(1, -1)], commutative)
        assert search_word_distance(b, other, ctx).value == graev_distance(b, other, ctx).value
        assert len(set(builds)) == len(builds) > built
        assert [call() for call in calls] == first

    def test_the_cache_holds_at_most_its_limit_of_prefixes(self, monkeypatch):
        rng = random.Random(12)
        pointed = PointedSpace(random_metric_space(rng, 4), 0)
        cases = [
            (random_word(rng, pointed, 3, commutative), random_word(rng, pointed, 3, commutative))
            for commutative in (False, True)
            for _ in range(6)
        ]
        builds = counting_table_builds(monkeypatch)
        unbounded = [[call() for call in table_users(a, b, pointed)] for a, b in cases]
        limit = 20
        assert len(set(builds)) > 4 * limit
        monkeypatch.setattr(words, "_TABLES", words._TableCache())
        monkeypatch.setattr(words, "_TABLES_LIMIT", limit)

        def census():
            """The prefix tables the cache holds, and the prefix ids they interned."""
            tables = list(words._TABLES.values())
            # A table interns at most its 2n successors, a word its empty prefix and target.
            assert all(len(t.prefixes) <= 2 + 2 * pointed.n * len(t) for t in tables)
            return sum(map(len, tables)), sum(len(t.prefixes) for t in tables)

        held = []  # the census as each table is built
        for name in ("_free_table", "_net_table"):
            build = getattr(words, name)
            watched = lambda *args, build=build: held.append(census()) or build(*args)
            monkeypatch.setattr(words, name, watched)
        builds_before = len(builds)
        assert [[call() for call in table_users(a, b, pointed)] for a, b in cases] == unbounded
        assert held and max(tables for tables, _ids in held) < limit  # and the new entry makes at most the limit
        assert census()[0] <= limit
        # The ids go with their tables: bounded by the limit, and dropped when the cache empties.
        assert max(ids for _tables, ids in held + [census()]) <= (2 * pointed.n + 2) * limit
        assert any(after[1] < before[1] for before, after in zip(held, held[1:]))
        assert len(builds) - builds_before > len(set(builds))  # the bound made it build again


def padded_abelian_graev(a, b, pointed):
    """Value and rows of the padded ``kantorovich`` plan of free-abelian
    words: residual units (side, x, sign) per point, basepoint mass padding
    each side to K units, and one or two residual letters spent per unit."""
    e = pointed.basepoint
    net_a, net_b = ({x: sum(s for y, s in w.letters if y == x) for x, _s in w.letters} for w in (a, b))
    rows, plus, minus = [], {}, {}
    for x in sorted(net_a.keys() | net_b.keys()):
        u, v = net_a.get(x, 0), net_b.get(x, 0)
        if u * v > 0:
            s, shared = (1 if u > 0 else -1), min(abs(u), abs(v))
            rows += [(x, x, s)] * shared
            u, v = u - s * shared, v - s * shared
        for is_right, sign, count in ((True, 1, v), (False, -1, -u)):
            if count > 0:
                plus.setdefault(x, []).extend([(is_right, x, sign)] * count)
            elif count < 0:
                minus.setdefault(x, []).extend([(is_right, x, -sign)] * -count)
    total = sum(map(len, plus.values())) + sum(map(len, minus.values()))
    if total == 0:
        return F(0), rows
    supply = {x: F(len(units), total) for x, units in plus.items()}
    demand = {x: F(len(units), total) for x, units in minus.items()}
    supply[e], demand[e] = 1 - sum(supply.values()), 1 - sum(demand.values())
    solved = kantorovich(pointed.space.pair_table(), distribution(supply), distribution(demand))
    for (x, y), mass in solved.plan.items():
        if not x == y == e:
            assert (mass * total).denominator == 1
            for _ in range(int(mass * total)):
                ends = ([plus[x].pop()] if x != e else []) + ([minus[y].pop()] if y != e else [])
                rows += words._unit_rows(ends, e)
    return solved.value * total, rows


class TestAbelian:
    def test_commuted_words_coincide(self, ctx):
        a = word(ctx, [(1, 1), (2, 1)], commutative=True)
        b = word(ctx, [(2, 1), (1, 1)], commutative=True)
        assert a == b
        assert graev_distance(a, b, ctx).value == 0

    def test_single_letters(self, ctx):
        a = word(ctx, [(1, 1)], commutative=True)
        b = word(ctx, [(2, 1)], commutative=True)
        assert graev_distance(a, b, ctx).value == F(1)

    def test_squared_letters(self, ctx):
        a = word(ctx, [(1, 1), (1, 1)], commutative=True)
        b = word(ctx, [(2, 1), (2, 1)], commutative=True)
        assert graev_distance(a, b, ctx, "graev", 6).value == F(2)

    def test_agrees_with_naive_oracle(self, ctx):
        rng = random.Random(37)
        for _ in range(10):
            a = random_word(rng, ctx, 1, commutative=True)
            b = random_word(rng, ctx, 1, commutative=True)
            cap = len(a) + len(b) + 1
            naive, _ = naive_word_distance(a, b, ctx, cap)
            for variant in ("graev", "swierczkowski"):
                assert graev_distance(a, b, ctx, variant, cap).value == naive[variant]

    def test_one_signed_residuals_take_the_padded_plan(self, monkeypatch):
        # When net(b) - net(a) has one sign, the padded transport plan is
        # forced and written without a solve; value and rows must be those
        # the padded plan gives.
        rng = random.Random(43)
        for _ in range(150):
            n = rng.randint(2, 6)
            pointed = PointedSpace(random_metric_space(rng, n, den_max=5), rng.randrange(n))
            points = list(range(n))
            shared = [(x, s) for x in points for s in (1, -1) for _ in range(rng.randint(0, 1))]
            sign = rng.choice((1, -1))
            residual = [(x, sign) for x in rng.sample(points, rng.randint(1, n)) for _ in range(rng.randint(1, 2))]
            letters_a = [(x, s) for x, s in shared if rng.random() < 0.5]
            letters_b = letters_a + residual + [(pointed.basepoint, rng.choice((1, -1)))]
            rng.shuffle(letters_b)
            a, b = (reduce_letters(letters, True, pointed) for letters in (letters_a, letters_b))
            if rng.random() < 0.5:
                a, b = b, a
            value, rows = padded_abelian_graev(a, b, pointed)
            with monkeypatch.context() as patched:
                patched.setattr(transport, "min_cost_flow", None)  # a solve would fail
                result = graev_distance(a, b, pointed)
            assert (result.value, result.witness.rows) == (value, tuple(rows))

    def test_abelian_at_most_free(self, ctx):
        # Extra cancellations can only shrink the minimum.
        rng = random.Random(41)
        for _ in range(10):
            letters_a = [(rng.randrange(3), rng.choice((1, -1))) for _ in range(2)]
            letters_b = [(rng.randrange(3), rng.choice((1, -1))) for _ in range(2)]
            fa, fb = word(ctx, letters_a), word(ctx, letters_b)
            ca = word(ctx, letters_a, commutative=True)
            cb = word(ctx, letters_b, commutative=True)
            cap = max(len(fa) + len(fb), len(ca) + len(cb)) + 2
            free = graev_distance(fa, fb, ctx, "graev", cap).value
            abelian = graev_distance(ca, cb, ctx, "graev", cap).value
            assert abelian <= free


class TestSharedCapProtocol:
    def test_axioms_on_sampled_triples(self, ctx):
        rng = random.Random(50)
        triples = [tuple(random_word(rng, ctx, 2) for _ in range(3)) for _ in range(8)]
        for variant in ("graev", "swierczkowski"):
            report = check_word_pseudometric_axioms(ctx, variant, triples)
            assert report.ok, report.failures

    def test_abelian_axioms(self, ctx):
        rng = random.Random(51)
        triples = [
            tuple(random_word(rng, ctx, 2, commutative=True) for _ in range(3)) for _ in range(6)
        ]
        report = check_word_pseudometric_axioms(ctx, "graev", triples)
        assert report.ok, report.failures


class TestNaturalityScope:
    def test_injective_pointed_maps_commute(self):
        rng = random.Random(61)
        big = random_metric_space(rng, 4)
        small = random_metric_space(rng, 3)
        src = PointedSpace(small, 0)
        functor = WordsFunctor("graev")
        for _ in range(10):
            image = rng.sample(range(4), 3)
            assignment = tuple(image)
            dst = PointedSpace(big, assignment[0])
            phi = [F(rng.randint(0, 8), rng.randint(1, 3)) for _ in range(4)]
            for e in functor.enumerate_elements(src, 2):
                lhs = functor.lift(lambda y: phi[assignment[y]], e)
                pushed = functor.apply_map(lambda y: assignment[y], e, dst)
                assert lhs == functor.lift(lambda x: phi[x], pushed)

    def test_collapsing_map_breaks_letterwise_sums(self, ctx):
        # A map sending x and y to the same point cancels the image of
        # x * y^-1, so the pushed lift loses those letters. This is why
        # naturality harnesses sample injective maps for word instances.
        functor = WordsFunctor("graev")
        two = validate_space(["e", "z"], [[F(0), F(1)], [F(1), F(0)]], "metric")
        dst = PointedSpace(two, 0)
        assignment = (0, 1, 1)
        w = word(ctx, [(1, 1), (2, -1)])
        phi = [F(0), F(5)]
        lhs = functor.lift(lambda y: phi[assignment[y]], w)
        pushed = functor.apply_map(lambda y: assignment[y], w, dst)
        rhs = functor.lift(lambda x: phi[x], pushed)
        assert pushed.letters == ()
        assert lhs == F(10) and rhs == 0


# Spaces for the golden search table: two on 3 points, one on 6 points;
# the basepoint is point 0.
GOLDEN_SPACES = [
    [
        ['0', '2', '2'],
        ['2', '0', '1'],
        ['2', '1', '0'],
    ],
    [
        ['0', '4', '3'],
        ['4', '0', '5/2'],
        ['3', '5/2', '0'],
    ],
    [
        ['0', '2', '3/2', '3/2', '2', '4/3'],
        ['2', '0', '2', '1', '2', '7/4'],
        ['3/2', '2', '0', '2', '7/4', '5/3'],
        ['3/2', '1', '2', '0', '1', '1'],
        ['2', '2', '7/4', '1', '0', '7/4'],
        ['4/3', '7/4', '5/3', '1', '7/4', '0'],
    ],
]
# (space, kind, a letters, b letters, value, witness rows, settled states) at
# the default cap: every pair of lengths 0-3 on each 3-point space and total
# length 2 on the 6-point space, under graev, swierczkowski and abelian-graev.
GOLDEN_SEARCHES = [
    (0, 'graev', (), (), '0', (), 1),
    (0, 'swierczkowski', (), (), '0', (), 1),
    (0, 'abelian', (), (), '0', (), 1),
    (1, 'graev', (), (), '0', (), 1),
    (1, 'swierczkowski', (), (), '0', (), 1),
    (1, 'abelian', (), (), '0', (), 1),
    (0, 'graev', (), ((2, 1),), '2', ((0, 2, 1),), 12),
    (0, 'swierczkowski', (), ((2, -1),), '2', ((0, 2, -1),), 17),
    (0, 'abelian', (), ((1, -1),), '2', ((0, 1, -1),), 15),
    (1, 'graev', (), ((1, -1),), '4', ((0, 1, -1),), 18),
    (1, 'swierczkowski', (), ((2, -1),), '3', ((0, 2, -1),), 14),
    (1, 'abelian', (), ((1, -1),), '4', ((0, 1, -1),), 18),
    (0, 'graev', (), ((2, 1), (1, 1)), '4', ((0, 2, 1), (0, 1, 1)), 34),
    (0, 'swierczkowski', (), ((2, -1), (1, 1)), '1', ((2, 2, -1), (2, 1, 1)), 17),
    (0, 'abelian', (), ((1, 1), (2, 1)), '4', ((0, 1, 1), (0, 2, 1)), 38),
    (1, 'graev', (), ((2, 1), (1, -1)), '5/2', ((2, 2, 1), (2, 1, -1)), 17),
    (1, 'swierczkowski', (), ((2, -1), (1, -1)), '11/2', ((2, 2, 1), (0, 2, -1), (0, 2, -1), (2, 1, -1)), 52),
    (1, 'abelian', (), ((1, 1), (2, 1)), '7', ((0, 2, 1), (0, 1, 1)), 41),
    (0, 'graev', (), ((2, -1), (1, 1), (2, 1)), '2', ((2, 2, -1), (0, 1, 1), (2, 2, 1)), 52),
    (0, 'swierczkowski', (), ((1, 1), (2, 1), (1, 1)), '3', ((0, 1, 1), (2, 2, 1), (0, 1, 1), (0, 1, 1), (2, 1, -1)), 71),
    (0, 'abelian', (), ((1, -1), (1, -1), (2, 1)), '3', ((2, 2, 1), (2, 1, -1), (0, 1, -1)), 70),
    (1, 'graev', (), ((2, 1), (1, -1), (2, 1)), '11/2', ((2, 2, 1), (2, 1, -1), (0, 2, 1)), 59),
    (1, 'swierczkowski', (), ((2, -1), (1, -1), (2, -1)), '11/2', ((0, 2, -1), (1, 1, -1), (0, 2, -1), (0, 2, -1), (1, 2, 1)), 62),
    (1, 'abelian', (), ((2, -1), (2, -1), (2, -1)), '9', ((0, 2, -1), (0, 2, -1), (0, 2, -1)), 52),
    (0, 'graev', ((2, 1),), (), '2', ((2, 0, 1),), 14),
    (0, 'swierczkowski', ((2, 1),), (), '2', ((2, 0, 1),), 15),
    (0, 'abelian', ((2, 1),), (), '2', ((2, 0, 1),), 14),
    (1, 'graev', ((2, -1),), (), '3', ((2, 0, -1),), 14),
    (1, 'swierczkowski', ((1, 1),), (), '4', ((1, 0, 1),), 19),
    (1, 'abelian', ((2, 1),), (), '3', ((2, 0, 1),), 12),
    (0, 'graev', ((2, 1),), ((1, 1),), '1', ((2, 1, 1),), 7),
    (0, 'swierczkowski', ((1, 1),), ((1, -1),), '2', ((1, 1, 1), (0, 1, -1), (0, 1, -1)), 36),
    (0, 'abelian', ((1, -1),), ((1, 1),), '4', ((0, 1, 1), (1, 0, -1)), 35),
    (1, 'graev', ((1, 1),), ((1, -1),), '8', ((1, 0, 1), (0, 1, -1)), 42),
    (1, 'swierczkowski', ((1, -1),), ((2, -1),), '5/2', ((1, 2, -1),), 8),
    (1, 'abelian', ((2, -1),), ((2, 1),), '6', ((0, 2, 1), (2, 0, -1)), 34),
    (0, 'graev', ((2, -1),), ((2, 1), (2, 1)), '6', ((0, 2, 1), (0, 2, 1), (2, 0, -1)), 74),
    (0, 'swierczkowski', ((1, 1),), ((2, 1), (2, 1)), '3', ((1, 2, 1), (0, 2, 1)), 105),
    (0, 'abelian', ((1, -1),), ((1, -1), (2, 1)), '2', ((1, 1, -1), (0, 2, 1)), 46),
    (1, 'graev', ((1, -1),), ((2, -1), (2, -1)), '11/2', ((1, 2, -1), (0, 2, -1)), 70),
    (1, 'swierczkowski', ((1, 1),), ((1, 1), (2, -1)), '3', ((1, 1, 1), (0, 2, -1)), 55),
    (1, 'abelian', ((1, -1),), ((1, -1), (2, 1)), '3', ((1, 1, -1), (0, 2, 1)), 38),
    (0, 'graev', ((2, -1),), ((2, 1), (1, 1), (2, 1)), '8', ((0, 2, 1), (0, 1, 1), (0, 2, 1), (2, 0, -1)), 111),
    (0, 'swierczkowski', ((1, -1),), ((2, 1), (2, 1), (1, -1)), '2', ((0, 2, 1), (0, 2, 1), (1, 1, -1)), 96),
    (0, 'abelian', ((2, 1),), ((1, -1), (2, 1), (2, 1)), '1', ((2, 2, 1), (2, 2, 1), (2, 1, -1)), 32),
    (1, 'graev', ((2, 1),), ((2, 1), (1, -1), (2, -1)), '7', ((2, 2, 1), (1, 1, -1), (0, 2, -1), (1, 0, 1)), 141),
    (1, 'swierczkowski', ((2, 1),), ((1, 1), (2, -1), (1, -1)), '3', ((1, 1, 1), (2, 2, -1), (2, 0, 1), (1, 1, -1), (2, 0, 1)), 86),
    (1, 'abelian', ((1, 1),), ((1, -1), (2, -1), (2, -1)), '14', ((0, 2, -1), (0, 2, -1), (1, 0, 1), (0, 1, -1)), 124),
    (0, 'graev', ((2, -1), (2, -1)), (), '4', ((2, 0, -1), (2, 0, -1)), 41),
    (0, 'swierczkowski', ((1, 1), (2, 1)), (), '3', ((1, 1, 1), (2, 0, 1), (2, 0, 1), (2, 1, -1)), 59),
    (0, 'abelian', ((1, 1), (2, 1)), (), '4', ((1, 0, 1), (2, 0, 1)), 38),
    (1, 'graev', ((1, -1), (2, -1)), (), '7', ((1, 1, -1), (2, 0, -1), (0, 1, 1)), 38),
    (1, 'swierczkowski', ((2, 1), (2, 1)), (), '3', ((2, 0, 1), (2, 0, 1)), 26),
    (1, 'abelian', ((1, -1), (2, -1)), (), '7', ((2, 0, -1), (1, 0, -1)), 44),
    (0, 'graev', ((2, 1), (1, -1)), ((2, 1),), '2', ((2, 2, 1), (1, 0, -1)), 48),
    (0, 'swierczkowski', ((1, -1), (2, -1)), ((2, 1),), '3', ((0, 2, 1), (0, 2, 1), (0, 2, 1), (1, 2, -1), (2, 2, -1)), 95),
    (0, 'abelian', ((1, 1), (1, 1)), ((1, 1),), '2', ((1, 1, 1), (1, 0, 1)), 37),
    (1, 'graev', ((1, -1), (2, 1)), ((2, -1),), '11/2', ((1, 2, -1), (2, 0, 1)), 68),
    (1, 'swierczkowski', ((2, -1), (2, -1)), ((2, -1),), '3', ((2, 2, -1), (2, 0, -1)), 59),
    (1, 'abelian', ((1, 1), (1, 1)), ((1, 1),), '4', ((1, 1, 1), (1, 0, 1)), 47),
    (0, 'graev', ((2, 1), (2, 1)), ((2, -1), (1, -1)), '8', ((2, 0, 1), (2, 0, 1), (0, 2, -1), (0, 1, -1)), 132),
    (0, 'swierczkowski', ((2, 1), (1, 1)), ((2, -1), (1, -1)), '4', ((2, 2, 1), (0, 2, -1), (0, 2, -1), (1, 1, 1), (0, 1, -1), (0, 1, -1)), 195),
    (0, 'abelian', ((1, 1), (1, 1)), ((1, -1), (1, -1)), '8', ((1, 0, 1), (1, 0, 1), (0, 1, -1), (0, 1, -1)), 105),
    (1, 'graev', ((1, -1), (1, -1)), ((2, -1), (1, 1)), '21/2', ((1, 2, -1), (0, 1, 1), (1, 0, -1)), 214),
    (1, 'swierczkowski', ((2, 1), (1, 1)), ((1, -1), (2, -1)), '7', ((2, 2, 1), (0, 2, -1), (1, 1, -1), (0, 2, -1), (1, 0, 1), (1, 0, 1)), 186),
    (1, 'abelian', ((1, -1), (2, -1)), ((1, 1), (2, -1)), '8', ((2, 2, -1), (0, 1, 1), (1, 0, -1)), 154),
    (0, 'graev', ((1, 1), (1, 1)), ((2, 1), (1, 1), (2, -1)), '3', ((1, 2, 1), (1, 1, 1), (0, 2, -1)), 242),
    (0, 'swierczkowski', ((1, 1), (2, -1)), ((2, 1), (2, 1), (2, 1)), '3', ((0, 2, 1), (0, 2, 1), (0, 2, 1), (1, 1, 1), (2, 1, -1)), 386),
    (0, 'abelian', ((2, -1), (2, -1)), ((1, 1), (1, 1), (2, -1)), '6', ((2, 2, -1), (0, 1, 1), (0, 1, 1), (2, 0, -1)), 229),
    (1, 'graev', ((2, 1), (2, 1)), ((2, 1), (1, 1), (2, 1)), '4', ((2, 2, 1), (0, 1, 1), (2, 2, 1)), 183),
    (1, 'swierczkowski', ((1, -1), (1, -1)), ((1, 1), (1, 1), (1, 1)), '4', ((1, 1, -1), (1, 1, -1), (0, 1, 1), (0, 1, 1), (0, 1, 1), (0, 1, 1), (0, 1, 1)), 80),
    (1, 'abelian', ((1, 1), (2, -1)), ((1, -1), (1, -1), (2, 1)), '9', ((1, 2, 1), (2, 1, -1), (0, 1, -1)), 245),
    (0, 'graev', ((1, 1), (2, 1), (2, 1)), (), '6', ((1, 0, 1), (2, 0, 1), (2, 0, 1)), 58),
    (0, 'swierczkowski', ((2, -1), (1, 1), (2, -1)), (), '3', ((2, 2, -1), (1, 2, 1), (2, 0, -1)), 105),
    (0, 'abelian', ((1, 1), (2, 1), (2, 1)), (), '6', ((1, 0, 1), (2, 0, 1), (2, 0, 1)), 67),
    (1, 'graev', ((1, 1), (2, 1), (1, -1)), (), '3', ((1, 1, 1), (2, 0, 1), (1, 1, -1)), 36),
    (1, 'swierczkowski', ((2, 1), (1, 1), (1, 1)), (), '13/2', ((2, 2, 1), (1, 0, 1), (1, 0, 1), (1, 0, 1), (1, 2, -1)), 78),
    (1, 'abelian', ((1, 1), (1, 1), (2, 1)), (), '11', ((2, 0, 1), (1, 0, 1), (1, 0, 1)), 72),
    (0, 'graev', ((1, -1), (2, 1), (2, 1)), ((1, -1),), '4', ((1, 1, -1), (2, 0, 1), (2, 0, 1)), 133),
    (0, 'swierczkowski', ((1, -1), (1, -1), (2, -1)), ((2, -1),), '2', ((1, 0, -1), (1, 0, -1), (2, 2, -1)), 111),
    (0, 'abelian', ((1, -1), (2, 1), (2, 1)), ((2, 1),), '1', ((2, 2, 1), (2, 2, 1), (1, 2, -1)), 31),
    (1, 'graev', ((1, 1), (1, 1), (2, 1)), ((2, 1),), '8', ((1, 0, 1), (1, 0, 1), (2, 2, 1)), 146),
    (1, 'swierczkowski', ((2, -1), (2, -1), (1, 1)), ((2, -1),), '5/2', ((2, 2, -1), (2, 2, -1), (1, 2, 1)), 25),
    (1, 'abelian', ((1, -1), (2, 1), (2, 1)), ((1, 1),), '5', ((2, 2, 1), (2, 1, 1), (1, 2, -1)), 74),
    (0, 'graev', ((2, -1), (1, 1), (2, -1)), ((1, 1), (2, -1)), '2', ((2, 0, -1), (1, 1, 1), (2, 2, -1)), 171),
    (0, 'swierczkowski', ((2, 1), (1, -1), (1, -1)), ((1, -1), (2, 1)), '2', ((1, 1, -1), (1, 0, 1), (2, 2, 1), (1, 0, -1), (1, 0, -1)), 345),
    (0, 'abelian', ((1, 1), (2, -1), (2, -1)), ((1, -1), (2, 1)), '4', ((1, 2, 1), (2, 1, -1), (2, 0, -1)), 230),
    (1, 'graev', ((1, 1), (1, 1), (2, -1)), ((2, -1), (1, -1)), '12', ((1, 0, 1), (1, 0, 1), (2, 2, -1), (0, 1, -1)), 299),
    (1, 'swierczkowski', ((2, 1), (2, 1), (1, -1)), ((1, 1), (1, 1)), '11/2', ((2, 1, 1), (2, 1, 1), (1, 1, -1), (2, 1, 1), (2, 0, -1)), 480),
    (1, 'abelian', ((1, 1), (2, -1), (2, -1)), ((1, -1), (2, 1)), '8', ((1, 2, 1), (2, 1, -1), (2, 0, -1)), 226),
    (0, 'graev', ((2, 1), (1, -1), (2, -1)), ((1, 1), (2, -1), (1, 1)), '5', ((2, 2, 1), (1, 0, -1), (2, 2, -1), (1, 1, 1), (1, 2, -1), (0, 1, 1)), 635),
    (0, 'swierczkowski', ((1, 1), (2, 1), (1, -1)), ((1, 1), (2, -1), (1, -1)), '2', ((1, 1, 1), (2, 2, 1), (0, 2, -1), (0, 2, -1), (1, 1, -1)), 431),
    (0, 'abelian', ((1, 1), (1, 1), (2, -1)), ((1, 1), (2, 1), (2, 1)), '5', ((1, 1, 1), (1, 2, 1), (0, 2, 1), (2, 0, -1)), 352),
    (1, 'graev', ((2, 1), (1, -1), (2, -1)), ((2, -1), (1, -1), (2, -1)), '6', ((2, 0, 1), (0, 2, -1), (1, 1, -1), (2, 2, -1)), 304),
    (1, 'swierczkowski', ((2, -1), (1, 1), (2, 1)), ((2, 1), (1, 1), (2, -1)), '5/2', ((2, 2, -1), (1, 2, 1), (2, 2, 1), (1, 1, 1), (1, 2, -1)), 125),
    (1, 'abelian', ((1, 1), (1, 1), (1, 1)), ((1, 1), (2, 1), (2, 1)), '5', ((1, 1, 1), (1, 2, 1), (1, 2, 1)), 138),
    (2, 'graev', (), ((3, 1), (4, 1)), '7/2', ((0, 3, 1), (0, 4, 1)), 198),
    (2, 'swierczkowski', (), ((3, 1), (1, -1)), '1', ((3, 3, 1), (3, 1, -1)), 41),
    (2, 'abelian', (), ((1, -1), (4, -1)), '4', ((0, 1, -1), (0, 4, -1)), 258),
    (2, 'graev', ((3, -1),), ((4, -1),), '1', ((3, 4, -1),), 20),
    (2, 'swierczkowski', ((4, -1),), ((4, -1),), '0', ((4, 4, -1),), 10),
    (2, 'abelian', ((4, -1),), ((5, 1),), '10/3', ((0, 5, 1), (4, 0, -1)), 183),
    (2, 'graev', ((4, -1), (2, 1)), (), '7/4', ((4, 4, -1), (2, 4, 1)), 129),
    (2, 'swierczkowski', ((5, -1), (5, -1)), (), '4/3', ((5, 0, -1), (5, 0, -1)), 47),
    (2, 'abelian', ((1, -1), (5, -1)), (), '10/3', ((5, 0, -1), (1, 0, -1)), 205),
]


class TestSearchGolden:
    """The search breaks cost ties by push order, so a change to the order in
    which it expands states shows in the witness and the settled-state count
    even when the value stays.  The values and witnesses were recorded from
    the search as it was before its per-prefix transition tables.  The
    settled states were recorded again once the search cut prefix pairs that
    cannot finish within the cap: those pairs lead to no representation, so
    only the counts fell (15,131 to 10,607 in all)."""

    @pytest.mark.parametrize("kind", ["graev", "swierczkowski", "abelian"])
    def test_values_witnesses_and_states(self, kind):
        spaces = [
            PointedSpace(validate_space(labels(len(mat)), [[F(v) for v in row] for row in mat], "metric"), 0)
            for mat in GOLDEN_SPACES
        ]
        cases = [case for case in GOLDEN_SEARCHES if case[1] == kind]
        assert len(cases) == 35
        for sidx, _kind, la, lb, value, rows, states in cases:
            pointed = spaces[sidx]
            commutative = kind == "abelian"
            a = reduce_letters(la, commutative, pointed)
            b = reduce_letters(lb, commutative, pointed)
            assert a.letters == la and b.letters == lb
            result = search_word_distance(a, b, pointed, "swierczkowski" if kind == "swierczkowski" else "graev")
            assert (str(result.value), result.witness.rows, result.fiber_size_enumerated) == (value, rows, states)


# Forest-witness golden data on GOLDEN_SPACES, for pairs whose Steiner-forest
# bound has two cheapest partitions, at the tight and the default cap:
# (space, commutative, a letters, b letters, cap, bound on the integer costs,
# forest rows, and (rows, settled states) of each _shortest_witness call).
GOLDEN_FORESTS = [
    (2, False, ((2, 1), (1, 1)), ((5, -1), (4, 1)), 2, 58, None, ((None, 1), (None, 1))),
    (2, False, ((2, 1), (1, 1)), ((5, -1), (4, 1)), 6, 58, ((2, 0, 1), (0, 5, -1), (1, 4, 1)), ((((0, 5, -1), (2, 4, 1), (0, 5, -1), (1, 5, 1)), 7), (((2, 0, 1), (0, 5, -1), (1, 4, 1)), 4))),
    (2, False, (), ((1, 1), (4, 1), (3, -1)), 3, 36, ((0, 1, 1), (4, 4, 1), (4, 3, -1)), ((((0, 1, 1), (4, 4, 1), (4, 3, -1)), 5), (None, 1))),
    (2, False, (), ((1, 1), (4, 1), (3, -1)), 5, 36, ((0, 1, 1), (4, 4, 1), (4, 3, -1)), ((((0, 1, 1), (4, 4, 1), (4, 3, -1)), 5), (None, 1))),
    (2, True, ((1, -1), (3, -1)), ((2, 1), (3, -1), (4, -1)), 3, 42, ((0, 2, 1), (1, 3, -1), (3, 4, -1)), ((((0, 2, 1), (1, 3, -1), (3, 4, -1)), 6), (None, 1))),
    (2, True, ((1, -1), (3, -1)), ((2, 1), (3, -1), (4, -1)), 7, 42, ((0, 2, 1), (1, 3, -1), (3, 4, -1)), ((((0, 2, 1), (1, 3, -1), (3, 4, -1)), 6), (None, 1))),
    (2, True, ((3, -1),), ((1, -1), (3, -1), (4, -1)), 3, 42, None, ((None, 7), (None, 7))),
    (2, True, ((3, -1),), ((1, -1), (3, -1), (4, -1)), 6, 42, ((1, 1, -1), (3, 4, -1), (0, 3, -1), (0, 3, -1), (1, 3, 1)), ((((1, 1, -1), (3, 4, -1), (0, 3, -1), (0, 3, -1), (1, 3, 1)), 43), (None, 33))),
    (2, False, ((3, -1), (1, -1), (4, 1)), ((3, -1),), 3, 24, ((3, 3, -1), (1, 3, -1), (4, 3, 1)), ((((3, 3, -1), (1, 3, -1), (4, 3, 1)), 5), (None, 1))),
    (2, False, ((3, -1), (1, -1), (4, 1)), ((3, -1),), 6, 24, ((3, 3, -1), (1, 3, -1), (4, 3, 1)), ((((3, 3, -1), (1, 3, -1), (4, 3, 1)), 5), (None, 1))),
]
# The same records for every free and abelian pair of GOLDEN_SEARCHES at its
# tight and default cap: (count, sha256 of their repr, first 16 digits).
GOLDEN_FOREST_DIGEST = (140, '182a327bf337a3c1')


class TestForestGolden:
    """The forest-witness A* breaks ties in its estimate by depth, then by
    push order, and later partitions search under the rows of the best
    witness so far, so a change to the order in which it settles states
    shows in its rows and settled counts.  These were recorded before its
    states were keyed by interned prefix ids."""

    def forests(self, monkeypatch, cases):
        spaces = [
            PointedSpace(validate_space(labels(len(mat)), [[F(v) for v in row] for row in mat], "metric"), 0)
            for mat in GOLDEN_SPACES
        ]
        calls = []
        search = words._shortest_witness

        def recorded(*args):
            rows, states = search(*args)
            calls.append((None if rows is None else tuple(rows), states))
            return rows, states

        monkeypatch.setattr(words, "_shortest_witness", recorded)
        records = []
        for sidx, commutative, la, lb, cap in cases:
            pointed = spaces[sidx]
            a, b = reduce_letters(la, commutative, pointed), reduce_letters(lb, commutative, pointed)
            assert a.letters == la and b.letters == lb
            calls.clear()
            bound, rows = words._swierczkowski_forest(a, b, pointed, pointed.space.pair_table().integer_view[1], cap)
            records.append((sidx, commutative, la, lb, cap, bound, None if rows is None else tuple(rows), tuple(calls)))
        return records

    def test_pairs_with_two_cheapest_forests(self, monkeypatch):
        assert self.forests(monkeypatch, [record[:5] for record in GOLDEN_FORESTS]) == GOLDEN_FORESTS

    def test_golden_search_pairs_by_digest(self, monkeypatch):
        cases = [
            (sidx, kind == "abelian", la, lb, cap)
            for sidx, kind, la, lb, *_ in GOLDEN_SEARCHES
            if kind != "graev"
            for cap in sorted({max(len(la), len(lb)), len(la) + len(lb) + 2})
        ]
        records = self.forests(monkeypatch, cases)
        assert (len(records), hashlib.sha256(repr(records).encode()).hexdigest()[:16]) == GOLDEN_FOREST_DIGEST


def fresh_forests(monkeypatch, limit=None):
    """Start from an empty forest cache, with its limit of partitions."""
    monkeypatch.setattr(words, "_FORESTS", words._TableCache())
    if limit is not None:
        monkeypatch.setattr(words, "_FORESTS_LIMIT", limit)


def forest_of(a, b, pointed, cap=None):
    """``_swierczkowski_forest`` on the space's integer costs, at the default cap unless given."""
    cap = words.default_cap(a, b) if cap is None else cap
    return words._swierczkowski_forest(a, b, pointed, pointed.space.pair_table().integer_view[1], cap)


class TestForestCache:
    def test_the_basepoint_is_part_of_the_key(self, monkeypatch):
        # Both pairs have terminals {0, 1} on the same integer costs; only the
        # basepoint, and so each block's representative, differs.
        cases = []
        for e, x in ((0, 1), (1, 0)):
            pointed = PointedSpace(wide_space(), e)
            cases.append((word(pointed, [(x, 1)]), word(pointed, []), pointed))
        answers = []
        for case in cases:
            fresh_forests(monkeypatch)
            answers.append((forest_of(*case), graev_distance(*case, "swierczkowski")))
        fresh_forests(monkeypatch)
        for (a, b, pointed), (forest, answer) in zip(cases, answers):
            assert forest_of(a, b, pointed) == forest
            assert graev_distance(a, b, pointed, "swierczkowski") == answer
            assert answer.fiber_size_enumerated == 0
            assert answer.value == search_word_distance(a, b, pointed, "swierczkowski").value == 10
        assert sorted(key[1:] for key in words._FORESTS) == [(0, (0, 1)), (1, (0, 1))]

    def test_spaces_with_equal_integer_rows_share_one_table(self, monkeypatch):
        fresh_forests(monkeypatch)
        mat = [[0, 1, 2], [1, 0, 2], [2, 2, 0]]
        spaces = [validate_space(labels(3), [[F(v, den) for v in row] for row in mat], "metric") for den in (1, 3)]
        views = [space.pair_table().integer_view[:2] for space in spaces]
        assert views == [(1, views[0][1]), (3, views[0][1])]
        answers = []
        for space in spaces:
            pointed = PointedSpace(space, 0)
            a, b = word(pointed, [(1, 1), (2, 1)]), word(pointed, [(2, -1)])
            bound, rows = forest_of(a, b, pointed)
            answer = graev_distance(a, b, pointed, "swierczkowski")
            assert answer.fiber_size_enumerated == 0
            assert answer.value == F(bound, space.pair_table().integer_view[0])
            assert answer.witness.rows == tuple(rows)
            answers.append(answer)
        assert len(words._FORESTS) == 1
        assert answers[1].value == answers[0].value / 3 and answers[1].witness == answers[0].witness

    def test_the_cache_holds_at_most_its_limit_of_partitions(self, monkeypatch):
        rng = random.Random(12)
        cases = []
        for e in (0, 1, 0, 1):
            pointed = PointedSpace(random_metric_space(rng, 4), e)  # up to 4 terminals: Bell(4) = 15 partitions
            for commutative in (False, True):
                for _ in range(8):
                    a, b = random_word(rng, pointed, 3, commutative), random_word(rng, pointed, 3, commutative)
                    cases += [(a, b, pointed, cap) for cap in (max(len(a), len(b)), None)]
        fresh_forests(monkeypatch)
        unbounded = [forest_of(*case) for case in cases]
        limit = 20
        assert words._FORESTS.entries > 4 * limit
        assert max(len(forest.partitions) for forest in words._FORESTS.values()) <= limit
        fresh_forests(monkeypatch, limit)
        held = []  # the partitions the cache holds after each call
        answers = []
        for case in cases:
            answers.append(forest_of(*case))
            held.append(sum(len(forest.partitions) for forest in words._FORESTS.values()))
            assert held[-1] == words._FORESTS.entries
        assert answers == unbounded
        assert max(held) <= limit
        assert any(after < before for before, after in zip(held, held[1:]))  # it emptied

    def test_golden_forests_do_not_depend_on_what_the_cache_holds(self, monkeypatch):
        cases = [record[:5] for record in GOLDEN_FORESTS] + [
            (sidx, kind == "abelian", la, lb, cap)
            for sidx, kind, la, lb, *_ in GOLDEN_SEARCHES
            if kind != "graev"
            for cap in sorted({max(len(la), len(lb)), len(la) + len(lb) + 2})
        ]
        golden = TestForestGolden()
        fresh_forests(monkeypatch)
        cold = golden.forests(monkeypatch, cases)
        rest = cold[len(GOLDEN_FORESTS):]
        assert cold[: len(GOLDEN_FORESTS)] == GOLDEN_FORESTS
        assert (len(rest), hashlib.sha256(repr(rest).encode()).hexdigest()[:16]) == GOLDEN_FOREST_DIGEST
        # Warm a fresh cache with each pair's image under swapping the
        # basepoint 0 with another of its terminals, over that basepoint: the
        # same costs and terminals, keyed by another basepoint.
        fresh_forests(monkeypatch)
        spaces = [validate_space(labels(len(mat)), [[F(v) for v in row] for row in mat], "metric") for mat in GOLDEN_SPACES]
        for sidx, commutative, la, lb, _cap in cases:
            for e in sorted({x for x, _s in la + lb}):
                pointed = PointedSpace(spaces[sidx], e)
                swap = {0: e, e: 0}
                a, b = ([(swap.get(x, x), s) for x, s in letters] for letters in (la, lb))
                forest_of(reduce_letters(a, commutative, pointed), reduce_letters(b, commutative, pointed), pointed)
        rng = random.Random(5)
        for n in (3, 5):
            pointed = PointedSpace(random_metric_space(rng, n), 0)
            for _ in range(20):
                forest_of(random_word(rng, pointed, 3), random_word(rng, pointed, 3), pointed)
        warmed_keys = set(words._FORESTS)
        assert golden.forests(monkeypatch, cases) == cold
        # The warm-up built tables for the golden pairs' costs and terminals
        # over other basepoints, which a key without the basepoint would reuse.
        golden_keys = set(words._FORESTS) - warmed_keys
        assert {(idist, t) for idist, e, t in golden_keys} & {(idist, t) for idist, e, t in warmed_keys}


def retained_bytes(obj) -> int:
    """``sys.getsizeof`` summed over every object ``obj`` reaches, each once;
    a function is followed into its closure only, and classes not at all."""
    seen, todo, total = set(), [obj], 0
    while todo:
        x = todo.pop()
        if id(x) in seen or isinstance(x, type):
            continue
        seen.add(id(x))
        total += sys.getsizeof(x)
        if isinstance(x, types.FunctionType):
            todo += [cell.cell_contents for cell in x.__closure__ or ()]
        else:
            todo += gc.get_referents(x)
    return total


def test_a_forest_table_holds_no_more_on_a_larger_space():
    # Padding a space with points far from every point keeps each Steiner
    # tree and partition of the same terminals, so what a table keeps must
    # not grow with the points: the cache's bound counts only partitions.
    base = random_metric_space(random.Random(8), 6, den_max=1).pair_table().integer_view[1]
    terminals = tuple(range(6))
    sizes, tables = [], []
    for n in (8, 64):
        far = 100 * max(map(max, base))
        rows = [[base[i][j] if i < 6 and j < 6 else far * (i != j) for j in range(n)] for i in range(n)]
        idist = validate_space(labels(n), rows, "metric").pair_table().integer_view[1]
        table = words._ForestTable(idist, 0, terminals)
        tables.append((table.partitions, [table.edges(blocks) for _cost, blocks, _rep in table.partitions]))
        sizes.append(retained_bytes(table))
    assert tables[0] == tables[1]
    assert sizes[0] == sizes[1]


# Stream-order golden data on one 3-point space (basepoint 0), recorded from
# the stream as it was before it shared the search's prefix tables:
# (commutative, a letters, b letters, cap, every yielded rows tuple in order).
GOLDEN_STREAM_SPACE = [
    ['0', '3/2', '2'],
    ['3/2', '0', '1'],
    ['2', '1', '0'],
]
GOLDEN_STREAMS = [
    (False, ((2, -1),), ((2, -1),), 2, [
        ((0, 0, 1), (2, 2, -1)), ((0, 0, -1), (2, 2, -1)), ((0, 2, -1), (2, 0, -1)),
        ((2, 0, -1), (0, 2, -1)), ((2, 2, -1),), ((2, 2, -1), (0, 0, 1)), ((2, 2, -1), (0, 0, -1)),
    ]),
    (False, (), (), 1, [(), ((0, 0, 1),), ((0, 0, -1),)]),
    (False, (), ((2, 1),), 2, [
        ((0, 0, 1), (0, 2, 1)), ((0, 2, 1),), ((0, 2, 1), (0, 0, 1)), ((0, 2, 1), (0, 0, -1)),
        ((1, 2, 1), (1, 0, -1)), ((2, 2, 1), (2, 0, -1)), ((0, 0, -1), (0, 2, 1)),
        ((1, 0, -1), (1, 2, 1)), ((2, 0, -1), (2, 2, 1)),
    ]),
    (False, ((1, 1),), ((2, 1),), 2, [
        ((0, 0, 1), (1, 2, 1)), ((0, 2, 1), (1, 0, 1)), ((1, 0, 1), (0, 2, 1)), ((1, 2, 1),),
        ((1, 2, 1), (0, 0, 1)), ((1, 2, 1), (0, 0, -1)), ((0, 0, -1), (1, 2, 1)),
    ]),
    (True, ((1, -1),), ((1, 1),), 2, [((0, 1, 1), (1, 0, -1)), ((1, 0, -1), (0, 1, 1))]),
    (True, (), ((1, -1),), 2, [
        ((0, 0, 1), (0, 1, -1)), ((1, 0, 1), (1, 1, -1)), ((2, 0, 1), (2, 1, -1)),
        ((0, 0, -1), (0, 1, -1)), ((0, 1, -1),), ((0, 1, -1), (0, 0, 1)), ((0, 1, -1), (0, 0, -1)),
        ((1, 1, -1), (1, 0, 1)), ((2, 1, -1), (2, 0, 1)),
    ]),
    (True, (), ((2, -1),), 2, [
        ((0, 0, 1), (0, 2, -1)), ((1, 0, 1), (1, 2, -1)), ((2, 0, 1), (2, 2, -1)),
        ((0, 0, -1), (0, 2, -1)), ((0, 2, -1),), ((0, 2, -1), (0, 0, 1)), ((0, 2, -1), (0, 0, -1)),
        ((1, 2, -1), (1, 0, 1)), ((2, 2, -1), (2, 0, 1)),
    ]),
    (True, (), ((1, 1),), 2, [
        ((0, 0, 1), (0, 1, 1)), ((0, 1, 1),), ((0, 1, 1), (0, 0, 1)), ((0, 1, 1), (0, 0, -1)),
        ((1, 1, 1), (1, 0, -1)), ((2, 1, 1), (2, 0, -1)), ((0, 0, -1), (0, 1, 1)),
        ((1, 0, -1), (1, 1, 1)), ((2, 0, -1), (2, 1, 1)),
    ]),
]
# Longer streams at the default cap, pinned by length and by the first 16 hex
# digits of sha256(repr(list of rows tuples in order)).
GOLDEN_STREAM_DIGESTS = [
    (False, (), ((2, 1), (1, -1)), 4, 419, "d58057570622834f"),
    (False, ((1, -1),), (), 3, 92, "371c6d262c3508b1"),
    (False, ((2, 1), (1, 1)), (), 4, 261, "a6dc231494cd09d2"),
    (False, (), (), 2, 23, "b24149e0c89f50e2"),
    (True, ((1, -1), (2, 1)), ((1, -1),), 5, 8598, "3a146ec199ea4e37"),
    (True, ((1, 1),), (), 3, 102, "871c96c955936664"),
    (True, (), ((1, -1),), 3, 102, "f87457dc85ef3a07"),
    (True, ((2, 1), (2, 1)), (), 4, 311, "5a00131c580ef321"),
    # x y^-1 against x^-1 y: the free DAG holds dead states (see below).
    (False, ((1, 1), (2, -1)), ((1, -1), (2, 1)), 4, 56, "643c7be2e772e5f6"),
    (True, ((1, 1), (2, -1)), ((1, -1), (2, 1)), 4, 482, "83dd84435682dfdd"),
]


class TestStreamGolden:
    """The order ``enumerate_proper_representations`` yields in is the order
    ``extend_generic`` meets couplings, so it fixes the generic path's first
    witness and fiber size; these pin it for free and abelian words."""

    def pointed(self):
        mat = [[F(v) for v in row] for row in GOLDEN_STREAM_SPACE]
        return PointedSpace(validate_space(labels(3), mat, "metric"), 0)

    def stream(self, pointed, commutative, la, lb, cap):
        a = reduce_letters(la, commutative, pointed)
        b = reduce_letters(lb, commutative, pointed)
        assert a.letters == la and b.letters == lb
        return [rep.rows for rep in enumerate_proper_representations(a, b, pointed, cap)]

    def test_rows_in_order(self):
        pointed = self.pointed()
        for commutative, la, lb, cap, rows in GOLDEN_STREAMS:
            assert self.stream(pointed, commutative, la, lb, cap) == rows

    def test_longer_streams_by_digest(self):
        pointed = self.pointed()
        for commutative, la, lb, cap, count, digest in GOLDEN_STREAM_DIGESTS:
            rows = self.stream(pointed, commutative, la, lb, cap)
            assert (len(rows), hashlib.sha256(repr(rows).encode()).hexdigest()[:16]) == (count, digest)

    def test_dead_states(self):
        # The joint need of a free prefix pair is a bound, not exact: x y^-1
        # against x^-1 y at cap 4 reaches states whose rows all lead nowhere,
        # which the stream and the fold must skip.  Free-abelian states are
        # all live, as basepoint letters pad either side in any order.
        pointed = self.pointed()
        for commutative in (False, True):
            a = reduce_letters(((1, 1), (2, -1)), commutative, pointed)
            b = reduce_letters(((1, -1), (2, 1)), commutative, pointed)
            nodes, live = words._live_rows(a, b, pointed, 4)
            dead = [i for i, rows in enumerate(nodes) if rows and not live[i]]
            assert live[0] and bool(dead) == (not commutative)
