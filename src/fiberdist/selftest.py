"""Property harnesses and one table of verification checks, run at two scales.

The ``check_*`` harnesses assert on samples what the package rests on: the
extended distance restricts to the base one, is a pseudometric, moves by at
most the lifted tables' sup-distance, and commutes with point maps.  Only
the checks below and the tests run them, so no request imports them.

Each row of :data:`CHECKS` holds a check ``run(full, fault) -> CheckReport``
that draws its inputs from a fixed seed.  ``fiberdist selftest`` runs every
check at the small scale; ``tests/test_acceptance.py`` runs them at full
scale as its criteria and asserts the check counts pinned here.  Seeds and
enumeration orders are fixed, so both scales are deterministic.  Every
check gets the fault; the coincidence checks read specialized values
through :func:`~fiberdist.extension.reported_value`, so a fault fails
exactly the check comparing its solver with an oracle.
"""

from __future__ import annotations

import random
import sys
import traceback
from fractions import Fraction
from itertools import product
from operator import itemgetter
from typing import Callable, Sequence

from .core import PairTable, Value
from .extension import (
    FAULTS, EmptyFiberError, Functor, WitnessError, extend_generic, integer_tables, reported_value,
)
from .hyperspace import HyperspaceFunctor
from .power import PNorm, PowerFunctor
from .sampling import (
    dominated_pair, random_assignment, random_distribution, random_metric_space, random_phi,
    random_pseudometric_table, random_subset, random_word, random_word_of_length,
)
from .transport import TransportFunctor
from .words import (
    GRAEV, VARIANTS, GroupWord, PointedSpace, WordsFunctor, graev_distance, naive_word_distance, reduce_letters,
    search_word_distance,
)


class CheckReport(Value):
    """Outcome of one property harness: counts, failures, optional notes.
    The one mutable value: a harness fills it in as it runs."""

    __slots__ = ("name", "checked", "failures", "notes")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, name: str, checked: int = 0, failures: list[str] | None = None, notes: list[str] | None = None):
        self._set(name, checked, [] if failures is None else failures, [] if notes is None else notes)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def add(self, other: "CheckReport") -> None:
        """Merge another report's counts, failures and notes into this one."""
        self.checked += other.checked
        self.failures += other.failures
        self.notes += other.notes


def check_extension_property(functor: Functor, ctx, *, method: str = "generic") -> CheckReport:
    """Extended distance between embedded points equals the base distance,
    read in the instance's value form, for every ordered pair of points.  An
    instance outside ``extension_instances`` is checked all the same."""
    space = functor.space_of(ctx)
    table = space.pair_table()
    report = CheckReport(f"extension-property[{functor.name}]")
    for i, j in product(range(space.n), repeat=2):
        a = functor.embed(ctx, i)
        b = functor.embed(ctx, j)
        if method == "generic":
            got = extend_generic(functor, ctx, table, a, b).value
        else:
            got = functor.distance(ctx, table, a, b).value
        want = functor.ground_form(space.d(i, j))
        report.checked += 1
        if got != want:
            report.fail(
                f"embed({space.points[i]}), embed({space.points[j]}): got {got}, want {want}"
            )
    return report


def check_pseudometric_axioms(
    functor: Functor,
    ctx,
    table: PairTable,
    elements: Sequence,
) -> CheckReport:
    """Identity, symmetry and the triangle inequality on sampled elements.

    Uses the instance's preferred distance path.  Triangle comparisons go
    through ``functor.sum_bound``, which reads the distances in the
    instance's value form (rooted sums for finite power norms) and decides
    them exactly.
    """
    report = CheckReport(f"pseudometric-axioms[{functor.name}]")
    dist_cache: dict[tuple, Fraction] = {}

    def dist(x, y) -> Fraction:
        key = (x, y)
        if key not in dist_cache:
            dist_cache[key] = functor.distance(ctx, table, x, y).value
        return dist_cache[key]

    for e in elements:
        report.checked += 1
        if dist(e, e) != 0:
            report.fail(f"d({e!r},{e!r}) = {dist(e, e)} != 0")
    for i, a in enumerate(elements):
        for b in elements[i + 1 :]:
            report.checked += 1
            if dist(a, b) != dist(b, a):
                report.fail(f"asymmetric: d({a!r},{b!r}) != d({b!r},{a!r})")
    for a, b, c in product(elements, repeat=3):
        report.checked += 1
        if not functor.sum_bound(dist(a, c), dist(a, b), dist(b, c)):
            report.fail(
                f"triangle: d({a!r},{c!r}) = {dist(a, c)} > {dist(a, b)} + {dist(b, c)}"
            )
    return report


def check_lipschitz(
    functor: Functor,
    ctx,
    table1: PairTable,
    table2: PairTable,
    element_pairs: Sequence[tuple],
) -> CheckReport:
    """Perturbation bound: the sup-distance of extended values over the
    sampled pairs is at most the sup-distance of the lifted tables over the
    union of the enumerated fibers.

    Both extended values are taken as minima over the same enumerated fiber,
    computed in one pass per pair on both tables scaled to integers by one
    common denominator (see :meth:`Functor.lift`); the couplings attaining
    the reported gaps are lifted again on the tables themselves.
    """
    report = CheckReport(f"lift-perturbation-bound[{functor.name}]")
    lift = functor.lift
    rank1, rank2 = (table.__getitem__ for table in integer_tables(table1, table2))

    def gap(c1, c2) -> Fraction:
        return Fraction(0) if c1 is None else abs(lift(table1, c1) - lift(table2, c2))

    # (integer gap, coupling lifted on table1, coupling lifted on table2)
    max_value_gap = max_lift_gap = (0, None, None)
    for a, b in element_pairs:
        lifted = [(lift(rank1, c), lift(rank2, c), c) for c in functor.fiber(a, b, ctx)]
        if not lifted:
            raise EmptyFiberError(f"{functor.name}: empty fiber for ({a!r}, {b!r})")
        min1, _, best1 = min(lifted, key=itemgetter(0))
        _, min2, best2 = min(lifted, key=itemgetter(1))
        v1, v2, widest = max(lifted, key=lambda t: abs(t[0] - t[1]))
        value_gap, lift_gap = (abs(min1 - min2), best1, best2), (abs(v1 - v2), widest, widest)
        report.checked += 1
        if value_gap[0] > lift_gap[0]:
            lifts = f"|{lift(table1, best1)} - {lift(table2, best2)}|"
            report.fail(f"pair ({a!r},{b!r}): {lifts} > fiber sup {gap(widest, widest)}")
        max_value_gap = max(max_value_gap, value_gap, key=itemgetter(0))
        max_lift_gap = max(max_lift_gap, lift_gap, key=itemgetter(0))
    report.checked += 1
    if max_value_gap[0] > max_lift_gap[0]:
        report.fail(f"global: value gap {gap(*max_value_gap[1:])} > lifted-table gap {gap(*max_lift_gap[1:])}")
    report.notes.append(f"value gap {gap(*max_value_gap[1:])} <= lift gap {gap(*max_lift_gap[1:])}")
    return report


def check_naturality(
    functor: Functor,
    src_ctx,
    dst_ctx,
    assignment: Sequence[int],
    phi: Sequence[Fraction],
    *,
    cap: int,
) -> CheckReport:
    """Single-space lifts commute with the functorial action of a point map.

    For every enumerated element e over the source, lifting ``phi`` composed
    with the map equals lifting ``phi`` on the pushed element.  Group-word
    instances satisfy this for injective basepoint-preserving maps (see the
    words module); callers choose maps accordingly.
    """
    report = CheckReport(f"naturality[{functor.name}]")
    for e in functor.enumerate_elements(src_ctx, cap):
        lhs = functor.lift(lambda y: phi[assignment[y]], e)
        pushed = functor.apply_map(lambda y: assignment[y], e, dst_ctx)
        rhs = functor.lift(lambda x: phi[x], pushed)
        report.checked += 1
        if lhs != rhs:
            report.fail(f"element {e!r}: lift(phi o i) = {lhs} != {rhs} = lift(phi) o push")
    return report


def check_operator_axioms(
    functor: Functor,
    ctx,
    phi: Sequence[Fraction],
    psi: Sequence[Fraction],
    elements: Sequence,
) -> CheckReport:
    """Positivity, monotonicity and semiadditivity of the single-space lift.

    Requires phi >= psi >= 0 pointwise; these are properties of the lift, not
    of particular inputs, so they are sampled here rather than enforced per
    call.
    """
    if any(p < q for p, q in zip(phi, psi)) or any(q < 0 for q in psi):
        raise ValueError("need phi >= psi >= 0 pointwise")
    report = CheckReport(f"operator-axioms[{functor.name}]")
    for e in elements:
        hi = functor.lift(lambda i: phi[i], e)
        lo = functor.lift(lambda i: psi[i], e)
        report.checked += 3
        if lo < 0:
            report.fail(f"positivity fails on {e!r}: {lo}")
        if hi < lo:
            report.fail(f"monotonicity fails on {e!r}: {hi} < {lo}")
        if not functor.sum_bound(functor.lift(lambda i: phi[i] + psi[i], e), hi, lo):
            report.fail(f"semiadditivity fails on {e!r}")
    return report


def check_word_pseudometric_axioms(
    pointed: PointedSpace,
    variant: str,
    triples: Sequence[tuple[GroupWord, GroupWord, GroupWord]],
) -> CheckReport:
    """Identity, symmetry and triangle under the shared-cap protocol.

    All three distances of a triple are computed at cap |A|+|B|+|C|+2 so the
    values are certified at compatible exhaustiveness; an apparent triangle
    violation is retried at cap+2 (capped values are upper bounds and may
    shrink) before being reported.
    """
    commutative = triples[0][0].commutative if triples else False
    report = CheckReport(f"pseudometric-axioms[words-{variant}{'-abelian' if commutative else ''}]")
    words = []
    for triple in triples:
        for w in triple:
            if w not in words:
                words.append(w)
    for w in words:
        report.checked += 1
        value = graev_distance(w, w, pointed, variant).value
        if value != 0:
            report.fail(f"d(w,w) = {value} != 0 for {w!r}")
    for a, b, _c in triples:
        cap = len(a) + len(b) + 2
        report.checked += 1
        if graev_distance(a, b, pointed, variant, cap).value != graev_distance(b, a, pointed, variant, cap).value:
            report.fail(f"asymmetric values for ({a!r}, {b!r})")
    for a, b, c in triples:
        cap = len(a) + len(b) + len(c) + 2
        report.checked += 1
        for shared in (cap, cap + 2):
            dab = graev_distance(a, b, pointed, variant, shared).value
            dbc = graev_distance(b, c, pointed, variant, shared).value
            dac = graev_distance(a, c, pointed, variant, shared).value
            if dac <= dab + dbc:
                break
        else:
            report.fail(
                f"triangle at cap {shared}: d(a,c)={dac} > {dab} + {dbc} for ({a!r},{b!r},{c!r})"
            )
    return report


def extension_instances():
    """Instances whose lift restricts to the identity on embedded points, the
    ones ``check_extension_property`` must pass on: the finite-p power lift of
    a constant tuple multiplies the p-th power by its length, so finite p only at length 1."""
    return (
        [HyperspaceFunctor(), TransportFunctor()]
        + [PowerFunctor(n, PNorm.max_norm()) for n in (1, 2, 3)]
        + [PowerFunctor(1, PNorm(p)) for p in (1, 2, 3)]
        + [WordsFunctor(v, commutative=c) for v in ("graev", "swierczkowski") for c in (False, True)]
    )


def _word_instances():
    return [WordsFunctor("graev"), WordsFunctor("swierczkowski"), WordsFunctor("graev", commutative=True)]


def _naturality_cases():
    """(functor, element cap, whether maps must be injective) per instance."""
    return [
        (HyperspaceFunctor(), 3, False),
        (PowerFunctor(1, PNorm(2)), 0, False),
        (PowerFunctor(2, PNorm(1)), 0, False),
        (PowerFunctor(2, PNorm.max_norm()), 0, False),
        (TransportFunctor(), 4, False),
    ] + [(functor, 2, True) for functor in _word_instances()]


def _certifies(functor: Functor, ctx, table, a, b, witness, value) -> bool:
    """Whether ``witness`` passes :meth:`Functor.check_witness` for ``value``."""
    try:
        functor.check_witness(ctx, table, a, b, witness, value)
    except WitnessError:
        return False
    return True


def _coincidence(report: CheckReport, functor, ctx, table, a, b, fault):
    """Count one comparison: the reported specialized value must equal the
    fiber minimum, which the generic witness must certify.  Returns the
    reported value, the specialized witness and the generic result."""
    specialized = functor.distance(ctx, table, a, b)
    value = reported_value(functor, specialized, fault)
    generic = extend_generic(functor, ctx, table, a, b)
    report.checked += 1
    if value != generic.value or not _certifies(functor, ctx, table, a, b, generic.witness, generic.value):
        report.fail(f"{functor.name} ({a!r}, {b!r}): specialized {value}, generic {generic.value}")
    return value, specialized.witness, generic


def extension_property(full: bool, fault: str | None) -> CheckReport:
    rng = random.Random(2024_01)
    report = CheckReport("extension-property")
    for _ in range(50 if full else 3):
        n = rng.randint(2, 5)
        space = random_metric_space(rng, n, den_max=4, method=rng.choice(["band", "closure"]))
        for functor in extension_instances():
            method = "specialized" if isinstance(functor, WordsFunctor) else "generic"
            report.add(check_extension_property(functor, functor.context(space, space.points[0]), method=method))
    return report


def hyperspace_coincidence(full: bool, fault: str | None) -> CheckReport:
    rng = random.Random(2024_02)
    functor = HyperspaceFunctor()
    report = CheckReport("hyperspace-coincidence")
    for _ in range(100 if full else 10):
        space = random_metric_space(rng, rng.randint(1, 3), den_max=4)
        subsets = list(functor.enumerate_elements(space))
        for a, b in product(subsets, repeat=2):
            _coincidence(report, functor, space, space.pair_table(), a, b, fault)
    return report


def power_coincidence(full: bool, fault: str | None) -> CheckReport:
    """All tuple pairs, each with a fiber of exactly one coupling."""
    rng = random.Random(2024_03)
    report = CheckReport("power-coincidence")
    for n_points in (1, 2, 3):
        for _ in range(2 if full else 1):
            space = random_metric_space(rng, n_points, den_max=4)
            for length in (1, 2, 3) if full else (1, 2):
                for norm in (PNorm.max_norm(), PNorm(1), PNorm(2), PNorm(3)):
                    functor = PowerFunctor(length, norm)
                    tuples = list(functor.enumerate_elements(space))
                    for s, t in product(tuples, repeat=2):
                        *_, generic = _coincidence(report, functor, space, space.pair_table(), s, t, fault)
                        if generic.fiber_size_enumerated != 1:
                            report.fail(f"{functor.name} ({s}, {t}): fiber of {generic.fiber_size_enumerated}")
    return report


def transport_solver_vs_oracle(full: bool, fault: str | None) -> CheckReport:
    """The solver against the polytope-vertex minimum; its plan must also
    certify its value and keep the forest support bound."""
    rng = random.Random(2024_04)
    functor = TransportFunctor()
    report = CheckReport("transport-solver-vs-oracle")
    for _ in range(200 if full else 25):
        n = rng.randint(2, 4)
        space = random_metric_space(rng, n, den_max=4)
        table = space.pair_table()
        mu = random_distribution(rng, n, support_max=4, den_max=6)
        nu = random_distribution(rng, n, support_max=4, den_max=6)
        value, plan, _ = _coincidence(report, functor, space, table, mu, nu, fault)
        forest = len(plan.support) <= len(mu.support) + len(nu.support) - 1
        if not _certifies(functor, space, table, mu, nu, plan, value) or not forest:
            report.fail(f"plan {plan!r} of ({mu!r}, {nu!r}) does not certify {value}")
    return report


def words_search_vs_naive(full: bool, fault: str | None) -> CheckReport:
    """Single letters recover the base distance, Graev dominates
    Swierczkowski, and under both variants the entry point and the search
    on its own equal the naive oracle at default and tight caps."""
    rng = random.Random(2024_05)
    report = CheckReport("words-search-vs-naive")

    def value(distance, a, b, ctx, variant, cap=None):
        try:
            result = distance(a, b, ctx, variant, cap)
        except EmptyFiberError:
            return None  # what the oracle returns for an empty fiber
        return reported_value(WordsFunctor(variant, a.commutative), result, fault)

    for n in (2, 3, 4):
        for _ in range(3 if full else 1):
            space = random_metric_space(rng, n, den_max=4)
            ctx = PointedSpace(space, 0)
            for commutative, variant, x, y in product((False, True), VARIANTS, range(n), range(n)):
                a, b = (reduce_letters([(i, 1)], commutative, ctx) for i in (x, y))
                report.checked += 1
                if value(graev_distance, a, b, ctx, variant) != space.d(x, y):
                    report.fail(f"{variant} single letters ({x}, {y}) miss d = {space.d(x, y)}")

    # Every word pair of reduced length <= 3 (1 at the small scale).
    ctx = PointedSpace(random_metric_space(rng, 3, den_max=4), 0)
    words = list(WordsFunctor(GRAEV).enumerate_elements(ctx, 3 if full else 1))
    for i, a in enumerate(words):
        for b in words[i:]:
            cap = len(a) + len(b) + 2
            report.checked += 1
            if value(graev_distance, a, b, ctx, "graev", cap) < value(graev_distance, a, b, ctx, "swierczkowski", cap):
                report.fail(f"graev below swierczkowski on ({a!r}, {b!r})")

    # The oracle enumerates (2 |X|^2)^cap strings, so pairs keep |A|+|B| <= 3
    # (cap 5), and <= 2 at the small scale.
    cases = []
    for _ in range(25 if full else 3):
        lengths = rng.choice([(0, 1), (1, 1), (1, 2)] if full else [(0, 1), (1, 1)])
        a, b = (random_word_of_length(rng, ctx, length) for length in lengths)
        cases.append((a, b, len(a) + len(b) + 2))
    # Abelian pairs with a nonempty second word, so each has a positive distance.
    for _ in range(3):
        a, b = random_word(rng, ctx, 1, commutative=True), random_word_of_length(rng, ctx, 1, commutative=True)
        cases.append((a, b, len(a) + len(b) + 2))
    # Length-1 pairs at cap |a| + |b|, where feasibility pruning binds: an
    # over-estimating lower bound cuts off optimal representations here.
    for commutative in (False, True):
        for _ in range(4):
            a, b = (random_word_of_length(rng, ctx, 1, commutative=commutative) for _ in range(2))
            cases.append((a, b, 2))
    # A length-2 word against its image under x -> 3 - x, which swaps the
    # two points other than the basepoint 0, at cap 2: every row must advance
    # both sides, so a joint bound that adds the sides' needs instead of
    # taking the larger per sign cuts every representation.
    for commutative in (False, True):
        a = random_word_of_length(rng, ctx, 2, commutative=commutative)
        cases.append((a, reduce_letters([(3 - x, s) for x, s in a.letters], commutative, ctx), 2))
    for a, b, cap in cases:
        naive, _count = naive_word_distance(a, b, ctx, cap)
        for variant in VARIANTS:
            report.checked += 1
            for distance in (graev_distance, search_word_distance):
                got = value(distance, a, b, ctx, variant, cap)
                if got != naive[variant]:
                    report.fail(
                        f"{distance.__name__}({a!r}, {b!r}, {variant}, cap {cap}) = {got}, naive {naive[variant]}"
                    )
    return report


def sampled_word_triples(rng, ctx, count, commutative=False):
    # Length mix calibrated so the shared-cap searches stay inside the
    # runtime budget while still covering reduced lengths up to 3.
    mixes = [(1, 1, 1)] * 35 + [(2, 1, 1)] * 27 + [(2, 2, 1)] * 18 + [(2, 2, 2)] * 10 + [(3, 1, 1)] * 5
    mixes += [(3, 2, 1)] * 3 + [(3, 2, 2)] * 1 + [(3, 3, 3)] * 1
    triples = []
    while len(triples) < count:
        lengths = mixes[len(triples) % len(mixes)]
        triples.append(tuple(random_word_of_length(rng, ctx, L, commutative=commutative) for L in lengths))
    return triples


def pseudometric_axioms(full: bool, fault: str | None) -> CheckReport:
    """Identity, symmetry and triangle per instance."""
    rng = random.Random(2024_06)
    report = CheckReport("pseudometric-axioms")
    spaces = 10 if full else 1
    for _ in range(spaces):
        space = random_metric_space(rng, 3, den_max=4)
        elements = [random_subset(rng, 3) for _ in range(6)]
        report.add(check_pseudometric_axioms(HyperspaceFunctor(), space, space.pair_table(), elements))
    for norm in (PNorm.max_norm(), PNorm(1), PNorm(2), PNorm(3)):
        for length in (2, 3):
            for _ in range(2 if full else 1):
                space = random_metric_space(rng, 3, den_max=4)
                elements = [tuple(rng.randrange(3) for _ in range(length)) for _ in range(6)]
                report.add(check_pseudometric_axioms(PowerFunctor(length, norm), space, space.pair_table(), elements))
    for _ in range(spaces):
        n = rng.randint(2, 4)
        space = random_metric_space(rng, n, den_max=4)
        elements = [random_distribution(rng, n, support_max=4, den_max=6) for _ in range(6)]
        report.add(check_pseudometric_axioms(TransportFunctor(), space, space.pair_table(), elements))
    ctx = PointedSpace(random_metric_space(rng, 3, den_max=4), 0)
    count = 200 if full else 6
    for variant in VARIANTS:
        report.add(check_word_pseudometric_axioms(ctx, variant, sampled_word_triples(rng, ctx, count)))
    abelian = sampled_word_triples(rng, ctx, count, commutative=True)
    report.add(check_word_pseudometric_axioms(ctx, GRAEV, abelian))
    return report


def lipschitz_elements(rng, functor, ctx):
    if isinstance(functor, HyperspaceFunctor):
        return [(random_subset(rng, ctx.n), random_subset(rng, ctx.n)) for _ in range(5)]
    if isinstance(functor, PowerFunctor):
        draw = lambda: tuple(rng.randrange(ctx.n) for _ in range(functor.n))
        return [(draw(), draw()) for _ in range(5)]
    if isinstance(functor, TransportFunctor):
        draw = lambda: random_distribution(rng, ctx.n, den_max=3)
        return [(draw(), draw()) for _ in range(4)]
    draw = lambda max_len: random_word(rng, ctx, max_len, functor.commutative)
    return [(draw(1), draw(2)) for _ in range(3)]


def lift_perturbation_bound(full: bool, fault: str | None) -> CheckReport:
    rng = random.Random(2024_07)
    report = CheckReport("lift-perturbation-bound")
    powers = [PowerFunctor(2, norm) for norm in (PNorm(1), PNorm(2), PNorm.max_norm())]
    for functor in [HyperspaceFunctor(), *powers, TransportFunctor(), *_word_instances()]:
        for _ in range(50 if full else 1):
            space = random_metric_space(rng, 3, den_max=4)
            ctx = functor.context(space, space.points[0])
            t1 = random_pseudometric_table(rng, 3)
            t2 = random_pseudometric_table(rng, 3)
            report.add(check_lipschitz(functor, ctx, t1, t2, lipschitz_elements(rng, functor, ctx)))
    return report


def naturality(full: bool, fault: str | None) -> CheckReport:
    rng = random.Random(2024_08)
    report = CheckReport("naturality")
    for functor, cap, injective in _naturality_cases():
        for _ in range(50 if full else 2):
            src_n = rng.randint(1, 3) if not injective else rng.randint(2, 3)
            dst_n = rng.randint(src_n, 3) if injective else rng.randint(1, 3)
            src = random_metric_space(rng, src_n, den_max=4)
            dst = random_metric_space(rng, dst_n, den_max=4)
            assignment = random_assignment(rng, src_n, dst_n, injective=injective)
            phi = random_phi(rng, dst_n)
            if injective:
                # Basepoint must map to basepoint for pointed instances.
                src, dst = PointedSpace(src, 0), PointedSpace(dst, assignment[0])
            report.add(check_naturality(functor, src, dst, assignment, phi, cap=cap))
    return report


def operator_axioms(full: bool, fault: str | None) -> CheckReport:
    """Selftest only: no acceptance criterion, so both scales are the same."""
    rng = random.Random(109)
    report = CheckReport("operator-axioms")
    space = random_metric_space(rng, 3)
    for functor, cap, _injective in _naturality_cases():
        ctx = functor.context(space, space.points[0])
        phi, psi = dominated_pair(rng, space.n)
        report.add(check_operator_axioms(functor, ctx, phi, psi, list(functor.enumerate_elements(ctx, cap))))
    return report


class Check(Value):
    """A row of the table: a check, the unit its count is in, and the
    acceptance criterion it is at full scale (None: selftest only) with
    its time budget and the number of checks it must make there."""

    __slots__ = ("name", "unit", "run", "criterion", "budget_s", "full_checks")

    def __init__(
        self, name: str, unit: str, run: Callable[[bool, str | None], CheckReport],
        criterion: int | None = None, budget_s: float = 0.0, full_checks: int = 0,
    ):
        self._set(name, unit, run, criterion, budget_s, full_checks)

    def detail(self, report: CheckReport) -> str:
        return f"{report.checked} {self.unit}, {len(report.failures)} failures"


CHECKS = [
    Check("extension-property", "embedded pairs", extension_property, 1, 30, 7_908),
    Check("pseudometric-axioms", "axiom checks", pseudometric_axioms, 6, 180, 9_828),
    Check("hyperspace-coincidence", "subset pairs", hyperspace_coincidence, 2, 60, 1_740),
    Check("power-coincidence", "tuple pairs", power_coincidence, 3, 10, 7_248),
    Check("transport-solver-vs-oracle", "instances", transport_solver_vs_oracle, 4, 60, 200),
    Check("words-search-vs-naive", "word pairs", words_search_vs_naive, 5, 120, 1_855),
    Check("lift-perturbation-bound", "comparisons", lift_perturbation_bound, 7, 120, 2_050),
    Check("naturality", "pushed elements", naturality, 8, 120, 2_890),
    Check("operator-axioms", "axiom checks", operator_axioms),
]


def run_selftest(inject_fault: str | None = None, out=None) -> bool:
    """Run every check at the small scale, one PASS/FAIL line each."""
    out = out or sys.stdout
    if inject_fault is not None and inject_fault not in FAULTS:
        raise ValueError(f"unknown fault {inject_fault!r}; known: {', '.join(FAULTS)}")
    all_ok = True
    for check in CHECKS:
        try:
            report = check.run(False, inject_fault)
            ok, detail = report.ok, check.detail(report)
        except Exception as exc:
            # A check that raises is a failed check; the remaining checks still run.
            traceback.print_exc()
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'} {check.name}: {detail}", file=out)
    print(f"{'PASS' if all_ok else 'FAIL'} overall", file=out)
    return all_ok
