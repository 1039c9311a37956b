import random
from fractions import Fraction as F
from itertools import product

import pytest

from fiberdist.core import ParseError, validate_space
from fiberdist.extension import extend_generic
from fiberdist.power import (
    PNorm,
    PowerFunctor,
    ValueTooLargeError,
    int_nth_root,
    nth_root_interval,
    root_decimal_str,
    rooted_le,
)
from fiberdist.sampling import random_metric_space
from fiberdist.selftest import check_extension_property


def two_point(d=F(3)):
    return validate_space(["x", "y"], [[F(0), d], [d, F(0)]], "metric")


class TestPNorm:
    def test_parse(self):
        assert PNorm.parse("max").is_max
        assert PNorm.parse("p:2").p == 2

    @pytest.mark.parametrize("bad", ["p:0", "p:-1", "p:1.5", "l2", ""])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            PNorm.parse(bad)


def closed_form(table, s, t, norm):
    """The value PowerFunctor.distance answers for tuples s and t."""
    return PowerFunctor(len(s), norm).distance(None, table, s, t).value


class TestLifts:
    def test_sum_example(self):
        phi = [F(1), F(2)]
        assert PowerFunctor(2, PNorm(1)).lift(lambda i: phi[i], (0, 1)) == F(3)
        assert PowerFunctor(2, PNorm.max_norm()).lift(lambda i: phi[i], (0, 1)) == F(2)

    def test_zero(self):
        assert PowerFunctor(3, PNorm(3)).lift(lambda i: F(0), (0, 0, 0)) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative at 0"):
            PowerFunctor(1, PNorm(2)).lift(lambda i: F(-1), (0,))


class TestPowerDistance:
    def test_identical_tuples(self):
        sp = two_point()
        t = sp.pair_table()
        for norm in (PNorm.max_norm(), PNorm(1), PNorm(2)):
            assert closed_form(t, (0, 1), (0, 1), norm) == 0

    def test_p2_power_form(self):
        sp = two_point()
        t = sp.pair_table()
        # 3^2 + 3^2, stored without taking the root
        assert closed_form(t, (0, 0), (1, 1), PNorm(2)) == F(18)
        assert closed_form(t, (0, 0), (1, 1), PNorm.max_norm()) == F(3)

    def test_length_mismatch(self):
        # zip would pair (0, 0) and drop the second coordinate silently.
        sp = two_point()
        functor = PowerFunctor(1, PNorm(1))
        with pytest.raises(ValueError, match="tuple length mismatch: 1 vs 2"):
            functor.distance(sp, sp.pair_table(), (0,), (0, 1))
        with pytest.raises(ValueError, match="tuple length mismatch: 1 vs 2"):
            functor.fiber((0,), (0, 1), sp)


class TestFiber:
    def test_singleton_stream(self):
        couplings = list(PowerFunctor(3, PNorm(1)).fiber((0, 1, 0), (1, 1, 0), two_point()))
        assert couplings == [((0, 1), (1, 1), (0, 0))]

    def test_marginals(self):
        functor = PowerFunctor(3, PNorm(1))
        sp = two_point()
        (coupling,) = functor.fiber((0, 1, 0), (1, 1, 0), sp)
        left, right = functor.marginals(coupling, sp)
        assert left == (0, 1, 0)
        assert right == (1, 1, 0)


class TestCoincidence:
    def test_closed_form_equals_generic_exhaustive(self):
        rng = random.Random(3)
        norms = [PNorm.max_norm(), PNorm(1), PNorm(2), PNorm(3)]
        for size in (2, 3):
            sp = random_metric_space(rng, size)
            t = sp.pair_table()
            for n in (1, 2, 3):
                for norm in norms:
                    functor = PowerFunctor(n, norm)
                    for s in product(range(size), repeat=n):
                        for u in product(range(size), repeat=n):
                            got = extend_generic(functor, sp, t, s, u)
                            assert got.value == functor.distance(sp, t, s, u).value
                            assert got.fiber_size_enumerated == 1


class TestIntegerRoots:
    def test_int_nth_root(self):
        rng = random.Random(8)
        for _ in range(300):
            p = rng.randint(1, 5)
            m = rng.randint(0, 10**12)
            r = int_nth_root(m, p)
            assert r**p <= m < (r + 1) ** p

    def test_int_nth_root_of_wide_radicands(self):
        # Large exponents over small roots (decimal renderings of p-power
        # values) and roots past a float's range, around exact powers.
        rng = random.Random(9)
        for p, root_bits in [(2, 1200), (3, 700), (64, 40), (1000, 34), (14000, 34), (5, 300)]:
            for _ in range(3):
                x = rng.getrandbits(root_bits) | 1 << (root_bits - 1)
                for m in (x**p - 1, x**p, x**p + rng.getrandbits(root_bits)):
                    r = int_nth_root(m, p)
                    assert r**p <= m < (r + 1) ** p

    def test_interval_encloses(self):
        for q, p in [(F(18), 2), (F(5, 3), 3), (F(1), 7), (F(0), 2)]:
            lo, hi = nth_root_interval(q, p, 31)
            assert lo**p <= q <= hi**p
            assert hi - lo <= F(1, 10**31)

    def test_root_decimal(self):
        assert root_decimal_str(F(18), 2, 6).startswith("4.242")
        assert root_decimal_str(F(8), 3, 6) == "2"
        assert root_decimal_str(F(5, 2), 1) == "2.5"


class TestRenderableValues:
    """Finite norms refuse a pair whose p-power value may pass Python's
    int-to-str digit limit, on both paths and before any power is taken."""

    def test_huge_exponents_are_refused(self):
        space = two_point(F(5, 3))
        for p in (10**5, 3 * 10**7, 10**12):
            functor = PowerFunctor(2, PNorm(p))
            with pytest.raises(ValueTooLargeError):
                functor.distance(space, space.pair_table(), (0, 1), (1, 1))
            with pytest.raises(ValueTooLargeError):
                extend_generic(functor, space, space.pair_table(), (0, 1), (1, 1))

    def test_renderable_values_are_answered(self):
        space = two_point(F(5, 3))
        for norm in (PNorm.max_norm(), PNorm(1), PNorm(2), PNorm(1000)):
            functor = PowerFunctor(2, norm)
            value = functor.distance(space, space.pair_table(), (0, 1), (1, 1)).value
            assert value == extend_generic(functor, space, space.pair_table(), (0, 1), (1, 1)).value
            assert F(str(value)) == value


class TestRootedInequality:
    """rooted_le(W, U, V, p) decides W^(1/p) <= U^(1/p) + V^(1/p) on p-power
    values."""

    def test_sufficient_branch(self):
        assert rooted_le(F(1), F(1), F(1), 2) is True

    def test_zero_side(self):
        assert rooted_le(F(16), F(0), F(16), 2) is True
        assert rooted_le(F(25), F(0), F(16), 2) is False
        assert rooted_le(F(3), F(2), F(0), 2) is False

    def test_exact_equality_pattern(self):
        # Proportional u = (1, 2), v = (2, 4) and w = u + v: equality.
        assert rooted_le(F(45), F(5), F(20), 2) is True

    def test_interval_decides_strict_cases(self):
        # sqrt(9) = 3 > sqrt(1) + sqrt(1) = 2
        assert rooted_le(F(9), F(1), F(1), 2) is False
        # sqrt(2) <= 1 + 1
        assert rooted_le(F(2), F(1), F(1), 2) is True
        # sqrt(3) + sqrt(2) is irrational, just below 3.1463 and above 3.1462
        assert rooted_le(F(31463, 10000) ** 2, F(3), F(2), 2) is False
        assert rooted_le(F(31462, 10000) ** 2, F(3), F(2), 2) is True

    def test_equality_with_rational_roots(self):
        # sqrt(4) = sqrt(1) + sqrt(1), from w = (2, 0), u = (1, 0), v = (0, 1).
        assert rooted_le(F(4), F(1), F(1), 2) is True
        # cbrt(27) = cbrt(8) + cbrt(1), from w = (3, 0), u = (2, 0), v = (0, 1).
        assert rooted_le(F(27), F(8), F(1), 3) is True
        assert rooted_le(F(27) + F(1, 10**80), F(8), F(1), 3) is False
        assert rooted_le(F(9, 4), F(1, 4), F(1), 2) is True

    def test_near_equality_is_refined(self):
        # 2 + 10^-70 > sqrt(1) + sqrt(1), by less than any fixed enclosure.
        assert rooted_le((2 + F(1, 10**70)) ** 2, F(1), F(1), 2) is False
        assert rooted_le((2 - F(1, 10**70)) ** 2, F(1), F(1), 2) is True
        # (sqrt(3) + sqrt(2))^2 = 5 + 2 sqrt(6), approached from both sides
        # within 10^-40.
        r = F(int_nth_root(6 * 10**80, 2), 10**40)
        assert rooted_le(5 + 2 * r, F(3), F(2), 2) is True
        assert rooted_le(5 + 2 * (r + F(1, 10**40)), F(3), F(2), 2) is False

    def test_minkowski_sampled(self):
        # Triangle inequality for the 2-power distance always holds; the
        # decision must answer True on every sampled triple.
        rng = random.Random(13)
        norm = PNorm(2)
        for _ in range(200):
            sp = random_metric_space(rng, 3)
            t = sp.pair_table()
            n = rng.randint(1, 3)
            a = tuple(rng.randrange(3) for _ in range(n))
            b = tuple(rng.randrange(3) for _ in range(n))
            c = tuple(rng.randrange(3) for _ in range(n))
            W, U, V = (closed_form(t, s, u, norm) for s, u in ((a, c), (a, b), (b, c)))
            assert rooted_le(W, U, V, 2) is True

    def test_sum_bound_reads_the_value_form(self):
        assert PowerFunctor(2, PNorm(2)).sum_bound(F(4), F(1), F(1)) is True
        assert PowerFunctor(2, PNorm(2)).sum_bound(F(5), F(1), F(1)) is False
        assert PowerFunctor(2, PNorm.max_norm()).sum_bound(F(3), F(1), F(1)) is False


class TestExtensionBehavior:
    def test_max_norm_extends_for_any_length(self):
        sp = two_point()
        t = sp.pair_table()
        for n in (1, 2, 3):
            functor = PowerFunctor(n, PNorm.max_norm())
            report = check_extension_property(functor, sp)
            assert (report.checked, report.failures) == (4, [])
            got = extend_generic(functor, sp, t, functor.embed(sp, 0), functor.embed(sp, 1))
            assert got.value == F(3)

    def test_finite_p_extends_only_for_single_coordinates(self):
        sp = two_point()
        t = sp.pair_table()
        one = PowerFunctor(1, PNorm(2))
        report = check_extension_property(one, sp)
        assert (report.checked, report.failures) == (4, [])
        got = extend_generic(one, sp, t, one.embed(sp, 0), one.embed(sp, 1))
        assert got.value == one.ground_form(F(3)) == F(9)
        # With two coordinates the lifted diagonal distance doubles the
        # p-th power, so the extension property fails on distinct points.
        two = PowerFunctor(2, PNorm(2))
        report = check_extension_property(two, sp)
        assert report.checked == 4
        assert report.failures == [
            "embed(x), embed(y): got 18, want 9",
            "embed(y), embed(x): got 18, want 9",
        ]
        got = extend_generic(two, sp, t, two.embed(sp, 0), two.embed(sp, 1))
        assert got.value == 2 * F(3) ** 2
