"""Generic distance-extension engine over coupling fibers.

A :class:`Functor` bundles one recipe for building composite elements out of
a finite metric space: how points embed, how a point map acts on elements,
how to enumerate the couplings that sit over a pair of elements (the fiber),
and how to lift a table of pair distances to a single value per coupling.

Given such a bundle, :func:`extend_generic` turns a (pseudo-)metric on the
base space into a distance between composite elements by minimizing the
lifted table over the fiber.  The companion ``check_*`` harnesses assert,
on concrete samples, the structural facts the whole package is organized
around: the extended distance restricts to the original one on embedded
points, it is a pseudometric, it moves by at most the sup-distance of the
lifted tables when the base table is perturbed, and single-space lifts
commute with point maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from operator import itemgetter
from typing import Any, Callable, Iterator, Sequence

from .core import PairTable, scale_to_integers

PointFn = Callable[[Any], Fraction]

# Testing hooks for `dist` and `selftest`: each corrupts one specialized
# solver's value (see `reported_value`) so the check comparing it with its
# oracle can be seen to fail.
FAULTS = ("transport-solver", "words-dp", "hausdorff", "power")


class EmptyFiberError(RuntimeError):
    """No coupling was enumerated for a pair of elements.

    Fibers of well-formed functor instances are never empty; hitting this
    signals a broken instance (or a user-forced cap that excludes every
    coupling, for functors that search under a cap).
    """


class ElementDomainError(ValueError):
    """An element does not live over the space it was used with."""


class FiberCapExceeded(RuntimeError):
    """A fiber is too large for exhaustive coupling enumeration."""


class Functor:
    """One concrete way of forming composite elements over a metric space.

    Subclasses provide the element representation and the six primitive
    operations; the engine and harnesses only ever go through this surface.
    ``ctx`` is the space context: a FiniteMetricSpace for most instances, a
    PointedSpace for group-word instances.
    """

    name = "abstract"
    # True when ``fiber`` yields only the couplings within a cap, so that a
    # nonzero minimum over it may shrink under a larger cap.
    capped_fiber = False

    def space_of(self, ctx):
        return ctx

    def validate_element(self, elem, ctx) -> None:
        raise NotImplementedError

    def embed(self, ctx, i: int):
        """The canonical copy of point ``i`` inside the composite elements."""
        raise NotImplementedError

    def apply_map(self, fn: Callable[[Any], Any], elem, dst_ctx=None):
        """Functorial action: push an element along a pointwise map."""
        raise NotImplementedError

    def fiber(self, a, b, ctx) -> Iterator:
        """All couplings over (a, b), a finite deterministic stream."""
        raise NotImplementedError

    def lift(self, fn: PointFn, elem) -> Fraction:
        """The lifted value of ``fn`` on an element or coupling.

        The same rule serves both: elements are lifted with functions of one
        point, couplings with functions of index pairs.  The lift must be
        positively homogeneous: lift(k*fn, c) == k**deg * lift(fn, c) for
        every k > 0 and a fixed degree deg >= 1 (sums, maxima and integrals
        have degree 1, sums of p-th powers degree p), because
        :func:`extend_generic` and :func:`check_lipschitz` rank couplings,
        compare gaps and test for zero on tables scaled to integers.
        """
        raise NotImplementedError

    def enumerate_elements(self, ctx, cap: int) -> Iterator:
        """All elements over ctx up to a functor-specific size cap."""
        raise NotImplementedError

    # Derived structure; overridden where the coupling type is not just
    # "element over pair points".

    def marginals(self, coupling, ctx):
        a = self.apply_map(lambda p: p[0], coupling, ctx)
        b = self.apply_map(lambda p: p[1], coupling, ctx)
        return a, b

    def swap_coupling(self, coupling, ctx):
        return self.apply_map(lambda p: (p[1], p[0]), coupling, ctx)

    def diagonal_coupling(self, elem, ctx):
        return self.apply_map(lambda i: (i, i), elem, ctx)

    def distance(self, ctx, table: PairTable, a, b):
        """The instance's preferred exact path; defaults to the generic one."""
        return extend_generic(self, ctx, table, a, b)

    def ground_form(self, value: Fraction) -> Fraction:
        """How a plain base distance reads in this instance's value form."""
        return value

    def is_extension_instance(self) -> bool:
        """Whether the lift restricts to the identity on embedded points."""
        return True

    def triangle_check(self, ctx, table, a, b, c, dab, dbc, dac):
        """True/False for a decided triangle inequality, None if undecidable."""
        return dac <= dab + dbc

    def semiadditivity_check(self, phi: Sequence[Fraction], psi: Sequence[Fraction], elem):
        """Check lift(phi+psi) <= lift(phi) + lift(psi) on one element."""
        both = self.lift(lambda i: phi[i] + psi[i], elem)
        return both <= self.lift(lambda i: phi[i], elem) + self.lift(lambda i: psi[i], elem)


@dataclass(frozen=True)
class ExtensionResult:
    """Minimum of the lifted table over a fiber, with an attaining witness."""

    value: Fraction
    witness: Any
    fiber_size_enumerated: int
    cap_limited: bool = False


def extend_generic(functor: Functor, ctx, table: PairTable, a, b, *, early_exit: bool = True) -> ExtensionResult:
    """Minimize ``lift(table, .)`` over the coupling fiber of (a, b).

    The fiber stream is finite and deterministic, so the minimum and the
    first witness attaining it are well defined.  Couplings are ranked on
    the table scaled to integers by its common denominator, which orders
    them as the table does (see :meth:`Functor.lift`); the value is the
    witness lifted on the table itself.  When the table is nonnegative the
    search stops at the first zero-valued coupling, since lifted values of
    nonnegative tables are nonnegative.
    """
    functor.validate_element(a, ctx)
    functor.validate_element(b, ctx)
    (int_table,) = _integer_tables(table)
    stop_at_zero = early_exit and min(int_table.values()) >= 0
    rank = int_table.__getitem__
    lift = functor.lift
    best = None
    witness = None
    count = 0
    for coupling in functor.fiber(a, b, ctx):
        value = lift(rank, coupling)
        count += 1
        if best is None or value < best:
            best, witness = value, coupling
            if stop_at_zero and best == 0:
                break
    if best is None:
        raise EmptyFiberError(f"{functor.name}: empty fiber for ({a!r}, {b!r})")
    return ExtensionResult(Fraction(lift(table, witness)), witness, count, functor.capped_fiber and best != 0)


def _integer_tables(*tables: PairTable) -> list[dict[tuple[int, int], int]]:
    """The tables scaled to integers by one common denominator, as dicts
    keyed by index pair, so that lifts look entries up in C."""
    rows = iter(scale_to_integers([row for table in tables for row in table.values])[1])
    return [{(i, j): v for i, row in zip(range(table.n), rows) for j, v in enumerate(row)} for table in tables]


def reported_value(functor: Functor, result: ExtensionResult, fault: str | None = None) -> Fraction:
    """The value a specialized ``result`` of ``functor`` reports.

    This is the one place a fault corrupts a value: it adds 1 when ``fault``
    names the solver that produced ``result``.  ``transport-solver`` is the
    transport solver; ``words-dp`` is the exact word path, the only
    specialized answer that settles no search state or coupling;
    ``hausdorff`` is the max-min subset distance and ``power`` the tuple
    closed form.
    """
    solver = {"transport-solver": functor.name == "transport", "words-dp": result.fiber_size_enumerated == 0,
              "hausdorff": functor.name == "hyperspace", "power": functor.name.startswith("power[")}
    return result.value + 1 if solver.get(fault) else result.value


@dataclass
class CheckReport:
    """Outcome of one property harness: counts, failures, optional notes."""

    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

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
    """Extended distance between embedded points equals the base distance.

    Only meaningful for instances whose lift restricts to the identity on
    embedded points; instances that fail ``is_extension_instance`` are
    reported as skipped in the notes rather than checked vacuously.
    """
    space = functor.space_of(ctx)
    table = space.pair_table()
    report = CheckReport(f"extension-property[{functor.name}]")
    if not functor.is_extension_instance():
        report.notes.append("lift does not restrict to the identity on points; skipped")
        return report
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
    through ``functor.triangle_check`` so instances whose value form needs a
    rooted comparison can decide it soundly; undecided comparisons are
    recorded as notes, never as silent passes.
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
        verdict = functor.triangle_check(ctx, table, a, b, c, dist(a, b), dist(b, c), dist(a, c))
        report.checked += 1
        if verdict is None:
            report.notes.append(f"triangle undecided for ({a!r},{b!r},{c!r})")
        elif not verdict:
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
    rank1, rank2 = (table.__getitem__ for table in _integer_tables(table1, table2))

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
        verdict = functor.semiadditivity_check(phi, psi, e)
        if verdict is None:
            report.notes.append(f"semiadditivity undecided on {e!r}")
        elif not verdict:
            report.fail(f"semiadditivity fails on {e!r}")
    return report
