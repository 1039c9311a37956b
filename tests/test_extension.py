import itertools
import random
from fractions import Fraction as F

import pytest

from fiberdist.core import PairTable, scale_to_integers
from fiberdist.extension import ElementDomainError, EmptyFiberError, ExtensionResult, extend_generic
from fiberdist.hyperspace import HyperspaceFunctor, Subset
from fiberdist.power import PNorm, PowerFunctor
from fiberdist.sampling import (
    dominated_pair,
    random_assignment,
    random_distribution,
    random_metric_space,
    random_phi,
    random_pseudometric_table,
    random_subset,
    random_word,
)
from fiberdist.selftest import (
    check_extension_property,
    check_lipschitz,
    check_naturality,
    check_operator_axioms,
    check_pseudometric_axioms,
)
from fiberdist.transport import TransportFunctor, distribution
from fiberdist.words import GroupWord, PointedSpace, WordsFunctor, reduce_letters


def functor_instances():
    return [
        HyperspaceFunctor(),
        PowerFunctor(1, PNorm(2)),
        PowerFunctor(2, PNorm(1)),
        PowerFunctor(2, PNorm.max_norm()),
        TransportFunctor(),
        WordsFunctor("graev"),
        WordsFunctor("swierczkowski"),
        WordsFunctor("graev", commutative=True),
    ]


def make_ctx(functor, space):
    return PointedSpace(space, 0) if isinstance(functor, WordsFunctor) else space


def sample_element(rng, functor, ctx):
    if isinstance(functor, HyperspaceFunctor):
        return random_subset(rng, ctx.n)
    if isinstance(functor, PowerFunctor):
        return tuple(rng.randrange(ctx.n) for _ in range(functor.n))
    if isinstance(functor, TransportFunctor):
        return random_distribution(rng, ctx.n, den_max=4)
    return random_word(rng, ctx, 2, commutative=functor.commutative)


class TestEngine:
    def test_embedded_singletons(self):
        sp = random_metric_space(random.Random(0), 3)
        t = sp.pair_table()
        functor = HyperspaceFunctor()
        got = extend_generic(functor, sp, t, Subset((0,)), Subset((0,)))
        assert got.value == 0
        assert got.witness.pairs == ((0, 0),)

    def test_diagonal_tuple_pair(self):
        sp = random_metric_space(random.Random(1), 3)
        functor = PowerFunctor(2, PNorm(1))
        got = extend_generic(functor, sp, sp.pair_table(), (0, 1), (0, 1))
        assert got.value == 0
        assert got.fiber_size_enumerated == 1

    def test_element_domain_errors(self):
        sp = random_metric_space(random.Random(2), 2)
        functor = HyperspaceFunctor()
        with pytest.raises(ElementDomainError):
            extend_generic(functor, sp, sp.pair_table(), Subset((5,)), Subset((0,)))
        with pytest.raises(ElementDomainError):
            extend_generic(functor, sp, sp.pair_table(), (0, 1), Subset((0,)))

    def test_early_exit_counts_less(self):
        sp = random_metric_space(random.Random(3), 3)
        t = sp.pair_table()
        functor = HyperspaceFunctor()
        a = Subset((0, 1, 2))
        eager = extend_generic(functor, sp, t, a, a, early_exit=True)
        full = extend_generic(functor, sp, t, a, a, early_exit=False)
        assert eager.value == full.value == 0
        assert eager.fiber_size_enumerated <= full.fiber_size_enumerated


def reference_extend_generic(functor, ctx, table, a, b, *, early_exit=True):
    """The fiber minimum taken on the rational table itself."""
    functor.validate_element(a, ctx)
    functor.validate_element(b, ctx)
    stop_at_zero = early_exit and table.is_nonnegative()
    best = None
    witness = None
    count = 0
    for coupling in functor.fiber(a, b, ctx):
        value = functor.lift(table, coupling)
        count += 1
        if best is None or value < best:
            best, witness = value, coupling
            if stop_at_zero and best == 0:
                break
    if best is None:
        raise EmptyFiberError(f"{functor.name}: empty fiber for ({a!r}, {b!r})")
    return ExtensionResult(best, witness, count, functor.capped_fiber and best != 0)


def sample_tables(rng, space):
    """The space's own table, a pseudometric with zeros, one with 61-bit
    denominators, and an asymmetric one with negative entries."""
    n = space.n

    def table(entry):
        return PairTable(tuple(tuple(entry(i, j) for j in range(n)) for i in range(n)))

    dens = (1, 2, 3, 2**61 - 1)
    return [
        space.pair_table(),
        random_pseudometric_table(rng, n, den_max=5, zero_prob=0.3),
        table(lambda i, j: F(rng.randint(0, 2), rng.choice(dens)) if i != j else F(0)),
        table(lambda i, j: F(rng.randint(-4, 4), rng.choice(dens))),
    ]


def masses_on(rng, points):
    """A distribution with random positive masses on exactly ``points``."""
    raw = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in points]
    total = sum(raw)
    return distribution({p: w / total for p, w in zip(points, raw)})


def wide_cases(rng, functor):
    """(functor, ctx, a, b) beyond the small random draws: the largest
    grids each fiber walk accepts, degenerate transport vertices, and word
    pairs at the least allowed cap and just above it."""
    if isinstance(functor, HyperspaceFunctor):
        space = random_metric_space(rng, 5, den_max=7)
        yield functor, space, Subset((0, 1, 2, 3)), Subset((1, 2, 3, 4))  # 16 cells
    elif isinstance(functor, TransportFunctor):
        space = random_metric_space(rng, 10, den_max=7)
        uniform = [distribution({i: F(1, len(s)) for i in s}) for s in ((0, 1, 2), (3, 4, 5, 6))]
        yield functor, space, uniform[0], uniform[1]  # degenerate vertices
        yield functor, space, masses_on(rng, range(4)), masses_on(rng, range(5, 10))  # 4x5 cells
        yield functor, space, masses_on(rng, (2, 7)), masses_on(rng, range(10))  # 2x10 cells
    elif isinstance(functor, WordsFunctor):
        space = random_metric_space(rng, 3, den_max=7)
        ctx = PointedSpace(space, 0)
        for _ in range(2):
            a = random_word(rng, ctx, 2, commutative=functor.commutative)
            b = random_word(rng, ctx, 2, commutative=functor.commutative)
            for extra in (0, 1, 2):
                capped = WordsFunctor(functor.variant, functor.commutative, cap=max(len(a), len(b)) + extra)
                yield capped, ctx, a, b


class TestIntegerMinimum:
    """extend_generic ranks couplings on the table scaled to integers, by
    each instance's fiber_minimum, and must agree with the rational loop in
    value, witness, fiber count and cap flag."""

    @staticmethod
    def assert_same(result, reference):
        assert type(result.value) is F
        assert result.value == reference.value
        assert result.witness == reference.witness
        assert result.fiber_size_enumerated == reference.fiber_size_enumerated
        assert result.cap_limited == reference.cap_limited

    @classmethod
    def assert_matches(cls, functor, ctx, table, a, b, early_exit):
        try:
            reference = reference_extend_generic(functor, ctx, table, a, b, early_exit=early_exit)
        except (ValueError, EmptyFiberError) as exc:
            # Power lifts reject a negative coordinate distance, and a
            # capped word fiber may be empty.
            if isinstance(exc, ValueError):
                assert isinstance(functor, PowerFunctor) and not table.is_nonnegative()
            else:
                assert functor.capped_fiber
            with pytest.raises(type(exc)) as info:
                extend_generic(functor, ctx, table, a, b, early_exit=early_exit)
            assert str(info.value) == str(exc)
            return
        cls.assert_same(extend_generic(functor, ctx, table, a, b, early_exit=early_exit), reference)

    @pytest.mark.parametrize("index", range(len(functor_instances())))
    def test_matches_the_rational_loop(self, index):
        functor = functor_instances()[index]
        rng = random.Random(index)
        for _ in range(4):
            space = random_metric_space(rng, 3, den_max=7)
            ctx = make_ctx(functor, space)
            a = sample_element(rng, functor, ctx)
            b = sample_element(rng, functor, ctx)
            for table in sample_tables(rng, space):
                for early_exit in (True, False):
                    self.assert_matches(functor, ctx, table, a, b, early_exit)
        for wide, ctx, a, b in wide_cases(rng, functor):
            for table in sample_tables(rng, wide.space_of(ctx)):
                for early_exit in (True, False):
                    self.assert_matches(wide, ctx, table, a, b, early_exit)

    @pytest.mark.parametrize("commutative", [False, True])
    def test_empty_word_fiber(self, commutative):
        # The empty words' fiber holds the empty representation alone; the
        # fiber of one letter against one of the other sign is empty at
        # cap 1, and both loops refuse it alike.
        rng = random.Random(7)
        space = random_metric_space(rng, 3, den_max=7)
        ctx = PointedSpace(space, 0)
        empty = GroupWord((), commutative)
        functor = WordsFunctor("swierczkowski", commutative=commutative)
        x, y = (reduce_letters([letter], commutative, ctx) for letter in ((1, 1), (2, -1)))
        for table in sample_tables(rng, space):
            for early_exit in (True, False):
                self.assert_matches(functor, ctx, table, empty, empty, early_exit)
                with pytest.raises(EmptyFiberError):
                    reference_extend_generic(WordsFunctor("graev", commutative, cap=1), ctx, table, x, y)
                for variant in ("graev", "swierczkowski"):
                    self.assert_matches(WordsFunctor(variant, commutative, cap=1), ctx, table, x, y, early_exit)
        first = extend_generic(functor, ctx, space.pair_table(), empty, empty)
        assert first.value == 0 and type(first.value) is F
        assert first.witness.rows == () and first.fiber_size_enumerated == 1

    @pytest.mark.parametrize("k", [F(2), F(7, 3)])
    def test_lift_order_survives_positive_scaling(self, k):
        # extend_generic ranks couplings and tests for zero on the table
        # scaled to integers, which is sound only if scaling a table by
        # k > 0 keeps the order of lifts and their zeros.
        rng = random.Random(61)
        for functor in functor_instances():
            space = random_metric_space(rng, 3, den_max=7)
            ctx = make_ctx(functor, space)
            tables = sample_tables(rng, space)
            for table in tables[:3] if isinstance(functor, PowerFunctor) else tables:
                scaled = table.scale(k)
                integer = PairTable(scale_to_integers(table.values)[1])
                for _ in range(3):
                    a = sample_element(rng, functor, ctx)
                    b = sample_element(rng, functor, ctx)
                    couplings = list(itertools.islice(functor.fiber(a, b, ctx), 12))
                    for c1, c2 in itertools.combinations_with_replacement(couplings, 2):
                        plain = functor.lift(table, c1) - functor.lift(table, c2)
                        for other in (scaled, integer):
                            moved = functor.lift(other, c1) - functor.lift(other, c2)
                            assert (plain > 0) == (moved > 0) and (plain < 0) == (moved < 0), functor.name
                            assert (functor.lift(table, c1) == 0) == (functor.lift(other, c1) == 0), functor.name


def reference_check_lipschitz(functor, ctx, table1, table2, element_pairs):
    """The perturbation check lifting both rational tables on every coupling."""
    checked, failures = 0, []
    max_value_gap = max_lift_gap = F(0)
    for a, b in element_pairs:
        lifted = [(functor.lift(table1, c), functor.lift(table2, c)) for c in functor.fiber(a, b, ctx)]
        min1, min2 = min(v1 for v1, _ in lifted), min(v2 for _, v2 in lifted)
        pair_lift_gap = max([F(0)] + [abs(v1 - v2) for v1, v2 in lifted])
        checked += 1
        if abs(min1 - min2) > pair_lift_gap:
            failures.append(f"pair ({a!r},{b!r}): |{min1} - {min2}| > fiber sup {pair_lift_gap}")
        max_value_gap = max(max_value_gap, abs(min1 - min2))
        max_lift_gap = max(max_lift_gap, pair_lift_gap)
    return checked + 1, failures, [f"value gap {max_value_gap} <= lift gap {max_lift_gap}"]


class TestIntegerLipschitz:
    @pytest.mark.parametrize("k", [F(2), F(7, 3)])
    def test_lift_is_homogeneous(self, k):
        # check_lipschitz compares lift gaps on tables scaled to integers,
        # which needs lift(k*t, c) == k**deg * lift(t, c) for a fixed degree.
        rng = random.Random(62)
        for functor in functor_instances():
            deg = functor.norm.p if isinstance(functor, PowerFunctor) and not functor.norm.is_max else 1
            space = random_metric_space(rng, 3, den_max=7)
            ctx = make_ctx(functor, space)
            for table in sample_tables(rng, space)[:3]:
                a = sample_element(rng, functor, ctx)
                b = sample_element(rng, functor, ctx)
                for c in itertools.islice(functor.fiber(a, b, ctx), 12):
                    assert functor.lift(table.scale(k), c) == k**deg * functor.lift(table, c), functor.name


    @pytest.mark.parametrize("index", range(len(functor_instances())))
    def test_matches_the_rational_check(self, index):
        # Same counts and byte-identical notes, with tables of different
        # denominators (61-bit ones among them) as the two sides.
        functor = functor_instances()[index]
        rng = random.Random(100 + index)
        for _ in range(2):
            space = random_metric_space(rng, 3, den_max=7)
            ctx = make_ctx(functor, space)
            if isinstance(functor, WordsFunctor):  # total length <= 3 keeps the rational reference fast
                pairs = [tuple(random_word(rng, ctx, k, functor.commutative) for k in (1, 2))]
            else:
                pairs = [(sample_element(rng, functor, ctx), sample_element(rng, functor, ctx)) for _ in range(2)]
            for t1, t2 in itertools.permutations(sample_tables(rng, space)[:3], 2):
                report = check_lipschitz(functor, ctx, t1, t2, pairs)
                assert (report.checked, report.failures, report.notes) == reference_check_lipschitz(
                    functor, ctx, t1, t2, pairs
                )


class TestMarginalSoundness:
    def test_every_coupling_projects_correctly(self):
        rng = random.Random(10)
        for functor in functor_instances():
            space = random_metric_space(rng, 3)
            ctx = make_ctx(functor, space)
            for _ in range(3):
                a = sample_element(rng, functor, ctx)
                b = sample_element(rng, functor, ctx)
                for coupling in itertools.islice(functor.fiber(a, b, ctx), 50):
                    left, right = functor.marginals(coupling, ctx)
                    assert left == a, functor.name
                    assert right == b, functor.name


class TestSwap:
    def test_involution_and_fiber_bijection(self):
        rng = random.Random(20)
        for functor in functor_instances():
            space = random_metric_space(rng, 3)
            ctx = make_ctx(functor, space)
            a = sample_element(rng, functor, ctx)
            b = sample_element(rng, functor, ctx)
            forward = list(itertools.islice(functor.fiber(a, b, ctx), 40))
            backward = set(itertools.islice(functor.fiber(b, a, ctx), 100000))
            for c in forward:
                swapped = functor.swap_coupling(c, ctx)
                assert functor.swap_coupling(swapped, ctx) == c
                if len(backward) < 100000:
                    assert swapped in backward

    def test_swap_against_transposed_table(self):
        # Lifting a table on the swapped coupling equals lifting the
        # transposed table on the original, also for asymmetric tables.
        rng = random.Random(21)
        asym = PairTable([[F(0), F(2), F(5)], [F(1), F(0), F(3)], [F(4), F(7), F(0)]])
        for functor in functor_instances():
            space = random_metric_space(rng, 3)
            ctx = make_ctx(functor, space)
            a = sample_element(rng, functor, ctx)
            b = sample_element(rng, functor, ctx)
            for c in itertools.islice(functor.fiber(a, b, ctx), 25):
                swapped = functor.swap_coupling(c, ctx)
                assert functor.lift(asym, swapped) == functor.lift(asym.transposed(), c)

    def test_symmetric_table_gives_symmetric_minimum(self):
        rng = random.Random(22)
        for functor in functor_instances():
            space = random_metric_space(rng, 3)
            ctx = make_ctx(functor, space)
            t = space.pair_table()
            a = sample_element(rng, functor, ctx)
            b = sample_element(rng, functor, ctx)
            ab = extend_generic(functor, ctx, t, a, b, early_exit=False)
            ba = extend_generic(functor, ctx, t, b, a, early_exit=False)
            assert ab.value == ba.value, functor.name


class TestDiagonal:
    def test_diagonal_coupling_in_fiber_with_zero_lift(self):
        rng = random.Random(30)
        for functor in functor_instances():
            space = random_metric_space(rng, 3)
            ctx = make_ctx(functor, space)
            t = space.pair_table()
            a = sample_element(rng, functor, ctx)
            diag = functor.diagonal_coupling(a, ctx)
            left, right = functor.marginals(diag, ctx)
            assert left == a and right == a, functor.name
            assert functor.lift(t, diag) == 0


class TestWitness:
    def test_witness_reevaluates_to_value(self):
        rng = random.Random(40)
        for functor in functor_instances():
            space = random_metric_space(rng, 3)
            ctx = make_ctx(functor, space)
            t = space.pair_table()
            a = sample_element(rng, functor, ctx)
            b = sample_element(rng, functor, ctx)
            result = extend_generic(functor, ctx, t, a, b, early_exit=False)
            assert functor.lift(t, result.witness) == result.value


class TestHarnesses:
    def test_extension_property_all_instances(self):
        rng = random.Random(50)
        for functor in functor_instances():
            space = random_metric_space(rng, 3)
            ctx = make_ctx(functor, space)
            method = "specialized" if isinstance(functor, WordsFunctor) else "generic"
            report = check_extension_property(functor, ctx, method=method)
            assert report.ok, (functor.name, report.failures)

    def test_extension_property_skips_non_extension_instance(self):
        sp = random_metric_space(random.Random(51), 2)
        report = check_extension_property(PowerFunctor(2, PNorm(2)), sp)
        assert report.checked == 0
        assert report.notes

    def test_pseudometric_axioms_for_exact_instances(self):
        rng = random.Random(52)
        space = random_metric_space(rng, 3)
        t = space.pair_table()
        cases = [
            (HyperspaceFunctor(), [random_subset(rng, 3) for _ in range(4)]),
            (PowerFunctor(2, PNorm(2)), [(0, 1), (1, 2), (2, 0), (1, 1)]),
            (TransportFunctor(), [random_distribution(rng, 3, den_max=3) for _ in range(4)]),
        ]
        for functor, elements in cases:
            report = check_pseudometric_axioms(functor, space, t, elements)
            assert report.ok, (functor.name, report.failures)
            assert not report.notes

    def test_lipschitz_bound_all_instances(self):
        rng = random.Random(53)
        for functor in functor_instances():
            space = random_metric_space(rng, 3)
            ctx = make_ctx(functor, space)
            t1 = random_pseudometric_table(rng, 3)
            t2 = random_pseudometric_table(rng, 3)
            pairs = [
                (sample_element(rng, functor, ctx), sample_element(rng, functor, ctx))
                for _ in range(3)
            ]
            report = check_lipschitz(functor, ctx, t1, t2, pairs)
            assert report.ok, (functor.name, report.failures)

    def test_lipschitz_equal_tables_zero_gap(self):
        rng = random.Random(54)
        space = random_metric_space(rng, 3)
        t = space.pair_table()
        functor = HyperspaceFunctor()
        pairs = [(random_subset(rng, 3), random_subset(rng, 3)) for _ in range(3)]
        report = check_lipschitz(functor, space, t, t, pairs)
        assert report.ok
        assert "value gap 0" in report.notes[0]

    def test_lipschitz_scaled_table(self):
        rng = random.Random(55)
        space = random_metric_space(rng, 3)
        t1 = space.pair_table()
        t2 = t1.scale(F(2))
        functor = PowerFunctor(2, PNorm(1))
        pairs = [((0, 1), (1, 2)), ((2, 2), (0, 1))]
        report = check_lipschitz(functor, space, t1, t2, pairs)
        assert report.ok, report.failures

    def test_naturality_collapse_for_set_images(self):
        # Collapsing two points is fine for subset images: the sup over an
        # image set equals the sup of the composed function.
        rng = random.Random(56)
        src = random_metric_space(rng, 3)
        dst = random_metric_space(rng, 2)
        phi = random_phi(rng, 2)
        report = check_naturality(HyperspaceFunctor(), src, dst, (0, 1, 1), phi, cap=3)
        assert report.ok, report.failures

    def test_naturality_pushforward(self):
        rng = random.Random(57)
        src = random_metric_space(rng, 3)
        dst = random_metric_space(rng, 3)
        phi = random_phi(rng, 3)
        assignment = random_assignment(rng, 3, 3)
        report = check_naturality(TransportFunctor(), src, dst, assignment, phi, cap=4)
        assert report.ok, report.failures

    def test_naturality_identity_map_all_instances(self):
        rng = random.Random(58)
        space = random_metric_space(rng, 3)
        phi = random_phi(rng, 3)
        for functor in functor_instances():
            ctx = make_ctx(functor, space)
            report = check_naturality(functor, ctx, ctx, (0, 1, 2), phi, cap=2)
            assert report.ok, (functor.name, report.failures)

    def test_operator_axioms_all_instances(self):
        rng = random.Random(59)
        for functor in functor_instances():
            space = random_metric_space(rng, 3)
            ctx = make_ctx(functor, space)
            phi, psi = dominated_pair(rng, 3)
            if isinstance(functor, (WordsFunctor, TransportFunctor)):
                elements = list(functor.enumerate_elements(ctx, 2))
            else:
                elements = list(functor.enumerate_elements(ctx, 0))
            report = check_operator_axioms(functor, ctx, phi, psi, elements)
            assert report.ok, (functor.name, report.failures)

    def test_operator_axioms_reject_bad_inputs(self):
        sp = random_metric_space(random.Random(60), 2)
        with pytest.raises(ValueError):
            check_operator_axioms(HyperspaceFunctor(), sp, [F(0), F(0)], [F(1), F(0)], [])
