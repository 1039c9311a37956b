import hashlib
import random
from fractions import Fraction as F

import pytest

from fiberdist import cli, hyperspace
from fiberdist.core import validate_space
from fiberdist.extension import WitnessError, extend_generic
from fiberdist.hyperspace import (
    FiberCapExceeded,
    HyperspaceFunctor,
    Subset,
    SubsetCoupling,
    fiber_subsets,
    hausdorff,
)
from fiberdist.sampling import random_metric_space


def two_point(d=F(5)):
    return validate_space(["x", "y"], [[F(0), d], [d, F(0)]], "metric")


def hausdorff_value(table, a, b):
    return hausdorff(table, a, b)[0]


def all_subsets(n):
    out = []
    for mask in range(1, 1 << n):
        out.append(Subset(tuple(i for i in range(n) if mask >> i & 1)))
    return out


class TestSupLift:
    def test_zero_function(self):
        c = SubsetCoupling(((0, 0), (0, 1)))
        assert HyperspaceFunctor().lift(lambda p: F(0), c) == 0

    def test_max_over_pair_values(self):
        sp = two_point()
        t = sp.pair_table()
        c = SubsetCoupling(((0, 0), (0, 1)))
        assert HyperspaceFunctor().lift(t, c) == F(5)

    def test_singleton(self):
        sp = two_point(F(7, 2))
        t = sp.pair_table()
        assert HyperspaceFunctor().lift(t, SubsetCoupling(((0, 1),))) == F(7, 2)


class TestHausdorff:
    def test_equal_sets(self):
        sp = two_point()
        t = sp.pair_table()
        a = Subset((0, 1))
        assert hausdorff_value(t, a, a) == 0

    def test_singleton_vs_pair(self):
        sp = two_point()
        t = sp.pair_table()
        assert hausdorff_value(t, Subset((0,)), Subset((0, 1))) == F(5)

    def test_extends_base_distance(self):
        sp = two_point(F(9, 4))
        t = sp.pair_table()
        assert hausdorff_value(t, Subset((0,)), Subset((1,))) == F(9, 4)

    def test_distance_reads_the_table_once_per_cell_and_witness_pair(self):
        # The value and the nearest-point coupling come from one pass over
        # A x B, and the witness check reads each of its pairs once more.
        # Taking the two max-min distances apart from the coupling's nearest
        # points reads every cell at least five times.
        rng = random.Random(83)
        for _ in range(25):
            sp = random_metric_space(rng, 6, den_max=2)
            table = sp.pair_table()
            lookups = []

            def counting(pair):
                lookups.append(pair)
                return table(pair)

            a, b = (Subset(tuple(rng.sample(range(6), 4))) for _ in range(2))
            result = HyperspaceFunctor().distance(sp, counting, a, b)
            assert result.value == hausdorff_value(table, a, b)
            assert len(lookups) <= 4 * len(a) * len(b) + len(result.witness.pairs)


class TestOptimalCoupling:
    def test_diagonal_on_equal_sets(self):
        sp = two_point()
        t = sp.pair_table()
        a = Subset((0, 1))
        _value, c = hausdorff(t, a, a)
        assert (0, 0) in c.pairs and (1, 1) in c.pairs
        assert HyperspaceFunctor().lift(t, c) == 0

    def test_singleton_against_pair(self):
        sp = two_point()
        t = sp.pair_table()
        _value, c = hausdorff(t, Subset((0,)), Subset((0, 1)))
        assert c.pairs == ((0, 0), (0, 1))
        assert HyperspaceFunctor().lift(t, c) == F(5)

    def test_matches_fiber_minimum_exhaustively(self):
        rng = random.Random(5)
        for _ in range(6):
            sp = random_metric_space(rng, 3)
            t = sp.pair_table()
            for a in all_subsets(3):
                for b in all_subsets(3):
                    value, c = hausdorff(t, a, b)
                    assert {x for x, _ in c.pairs} == set(a.members)
                    assert {y for _, y in c.pairs} == set(b.members)
                    direct = HyperspaceFunctor().lift(t, c)
                    assert direct == value
                    oracle = min(HyperspaceFunctor().lift(t, c2) for c2 in fiber_subsets(a, b))
                    assert direct == oracle

    @pytest.mark.parametrize(
        "break_coupling, a, b, message",
        [
            # {x, y} against {y}: (y, y) alone covers y in A, and dropping
            # it keeps the sup d(x, y).
            (lambda pairs: pairs - {(1, 1)}, (0, 1), (1,), "marginals"),
            # {x, y} against itself: (x, y) costs 5 against the value 0.
            (lambda pairs: pairs | {(0, 1)}, (0, 1), (0, 1), "re-integrate"),
        ],
        ids=["dropped-pair", "added-pair"],
    )
    def test_a_broken_witness_is_a_named_error(self, monkeypatch, break_coupling, a, b, message):
        sp = two_point()
        nearest = hyperspace.hausdorff

        def broken(*args):
            value, coupling = nearest(*args)
            return value, SubsetCoupling(tuple(break_coupling(set(coupling.pairs))))

        monkeypatch.setattr(hyperspace, "hausdorff", broken)
        with pytest.raises(WitnessError, match=message):
            HyperspaceFunctor().distance(sp, sp.pair_table(), Subset(a), Subset(b))
        labels = {0: "x", 1: "y"}
        request = {
            "command": "dist", "functor": "hyperspace", "space": "s",
            "a": [labels[i] for i in a], "b": [labels[i] for i in b],
        }
        response, code = cli.handle_request(request, lambda _path: (sp, None))
        assert code == 2 and "witness" in response["error"]


class TestFiberSubsets:
    def test_forced_singleton(self):
        assert [c.pairs for c in fiber_subsets(Subset((0,)), Subset((1,)))] == [((0, 1),)]

    def test_first_marginal_forces_pairing(self):
        couplings = list(fiber_subsets(Subset((0,)), Subset((0, 1))))
        assert len(couplings) == 1
        assert couplings[0].pairs == ((0, 0), (0, 1))

    def test_two_by_two_count(self):
        # Subsets of a 2x2 grid with both rows and both columns covered.
        couplings = list(fiber_subsets(Subset((0, 1)), Subset((0, 1))))
        assert len(couplings) == 7

    def test_cap(self):
        big = Subset(tuple(range(5)))
        with pytest.raises(FiberCapExceeded):
            list(fiber_subsets(big, Subset(tuple(range(4)))))

    def test_marginals_always_full(self):
        a, b = Subset((0, 2)), Subset((1, 2))
        for c in fiber_subsets(a, b):
            assert {x for x, _ in c.pairs} == set(a.members)
            assert {y for _, y in c.pairs} == set(b.members)


# Subset streams of the per-mask cover scan: the number of couplings and a
# sha256 prefix of the ordered couplings, per pair of SUBSET_SHAPES subsets.
SUBSET_STREAMS = [
    (1, "1586ce528a79bda0"),
    (25, "e810ea52cdea1d88"),
    (265, "8095894b014ed56a"),
    (727, "7701dd1717964d29"),
    (2161, "2aaf355d9b2d5e57"),
    (2161, "12f60e05c9dedb95"),
]
SUBSET_SHAPES = [(1, 4), (2, 3), (3, 3), (2, 6), (3, 4), (4, 3)]


@pytest.mark.parametrize("seed", range(len(SUBSET_STREAMS)))
def test_subset_stream_is_pinned(seed):
    m, n = SUBSET_SHAPES[seed]
    rng = random.Random(seed)
    a, b = Subset(tuple(rng.sample(range(6), m))), Subset(tuple(rng.sample(range(6), n)))
    couplings = list(fiber_subsets(a, b))
    text = "\n".join(" ".join(f"{x},{y}" for x, y in c.pairs) for c in couplings)
    assert (len(couplings), hashlib.sha256(text.encode()).hexdigest()[:16]) == SUBSET_STREAMS[seed]


# Every grid of at most 12 cells, and the 16-cell grids of one, two and four rows.
WALK_SHAPES = [(m, n) for m in range(1, 13) for n in range(1, 13) if m * n <= 12] + [(1, 16), (2, 8), (4, 4)]


@pytest.mark.parametrize("shape", WALK_SHAPES, ids=lambda shape: "%dx%d" % shape)
def test_subset_walk_is_the_filtered_mask_scan(shape):
    # The walk visits only masks that cover every row and column; the
    # reference scans every mask of the row-major grid in ascending order
    # and keeps those whose pairs project onto A and B.  The fiber minimum
    # ranks the same stream, so with stop_at_zero it reads the couplings up
    # to the first whose top weight is 0, and without it all of them.
    m, n = shape
    a, b = Subset(tuple(range(m))), Subset(tuple(range(n)))
    cells = [(x, y) for x in a.members for y in b.members]
    reference = []
    for mask in range(1 << len(cells)):
        pairs = tuple(cell for i, cell in enumerate(cells) if mask >> i & 1)
        if {x for x, _ in pairs} == set(a.members) and {y for _, y in pairs} == set(b.members):
            reference.append(pairs)
    assert [c.pairs for c in fiber_subsets(a, b)] == reference
    rng = random.Random(m * 100 + n)
    weight = {cell: rng.choice((0, 0, 0, F(1, 2), 1)) for cell in cells}
    for stop_at_zero in (True, False):
        best = witness = None
        count = 0
        for pairs in reference:
            value = max(weight[cell] for cell in pairs)
            count += 1
            if best is None or value < best:
                best, witness = value, pairs
                if stop_at_zero and best == 0:
                    break
        top, coupling, read = HyperspaceFunctor().fiber_minimum(a, b, None, weight.__getitem__, stop_at_zero)
        assert (top, coupling.pairs, read) == (best, witness, count)


class TestCoincidence:
    def test_hausdorff_equals_generic_minimum(self):
        functor = HyperspaceFunctor()
        rng = random.Random(17)
        for _ in range(4):
            sp = random_metric_space(rng, 3, den_max=4)
            t = sp.pair_table()
            for a in all_subsets(3):
                for b in all_subsets(3):
                    got = extend_generic(functor, sp, t, a, b)
                    assert got.value == hausdorff_value(t, a, b)
                    assert functor.lift(t, got.witness) == got.value

    def test_metric_axioms_exhaustive(self):
        rng = random.Random(23)
        sp = random_metric_space(rng, 3)
        t = sp.pair_table()
        subsets = all_subsets(3)
        for a in subsets:
            assert hausdorff_value(t, a, a) == 0
            for b in subsets:
                assert hausdorff_value(t, a, b) == hausdorff_value(t, b, a)
                if a != b:
                    assert hausdorff_value(t, a, b) > 0  # metric mode separates subsets
                for c in subsets:
                    ac, ab, bc = (hausdorff_value(t, *pair) for pair in ((a, c), (a, b), (b, c)))
                    assert ac <= ab + bc


class TestOperatorShape:
    def test_monotone_and_semiadditive_sampled(self):
        rng = random.Random(31)
        for _ in range(50):
            n = 4
            phi = [F(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(n)]
            psi = [min(p, F(rng.randint(0, 12), rng.randint(1, 4))) for p in phi]
            members = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            sup_phi = max(phi[i] for i in members)
            sup_psi = max(psi[i] for i in members)
            assert sup_phi >= sup_psi
            sup_sum = max(phi[i] + psi[i] for i in members)
            assert sup_sum <= sup_phi + sup_psi
