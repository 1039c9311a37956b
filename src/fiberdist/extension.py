"""Generic distance-extension engine over coupling fibers.

A :class:`Functor` bundles one recipe for building composite elements out of
a finite metric space: how points embed, how a point map acts on elements,
how to enumerate the couplings that sit over a pair of elements (the fiber),
and how to lift a table of pair distances to a single value per coupling.

Given such a bundle, :func:`extend_generic` turns a (pseudo-)metric on the
base space into a distance between composite elements by minimizing the
lifted table over the fiber (:meth:`Functor.fiber_minimum`).  The
property harnesses that check these distances on samples live in
:mod:`fiberdist.selftest`, off the request path.  Every error a well-formed
request can meet while computing derives from :class:`ComputeError`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator

from .core import PairTable, Value, decimal_str, scale_to_integers

PointFn = Callable[[Any], Fraction]

# Testing hooks for `dist` and `selftest`: each corrupts one specialized
# solver's value (see `reported_value`) so the check comparing it with its
# oracle can be seen to fail.
FAULTS = ("transport-solver", "words-dp", "hausdorff", "power", "words-search")

# The two word-distance variants (see `fiberdist.words`), named here so that
# the CLI can validate requests without importing the words module.
GRAEV = "graev"
SWIERCZKOWSKI = "swierczkowski"
VARIANTS = (GRAEV, SWIERCZKOWSKI)


class ComputeError(Exception):
    """A well-formed request that cannot be answered: the CLI's exit 2.

    Every subclass also derives from the builtin error (ValueError or
    RuntimeError) that library callers catch.
    """


class EmptyFiberError(ComputeError, RuntimeError):
    """No coupling was enumerated for a pair of elements.

    Fibers of well-formed functor instances are never empty; hitting this
    signals a broken instance (or a user-forced cap that excludes every
    coupling, for functors that search under a cap).
    """


class ElementDomainError(ValueError):
    """An element does not live over the space it was used with."""


class FiberCapExceeded(ComputeError, RuntimeError):
    """A fiber is too large for exhaustive coupling enumeration."""


class WitnessError(ComputeError, RuntimeError):
    """A specialized answer fails its own check: its witness (a word
    representation, a transport plan or a Hausdorff coupling) does not lift
    to its value or has other marginals than the two elements (see
    :meth:`Functor.check_witness`), or a transport plan's dual potentials do
    not certify it.  An invariant of the solver broke."""


class ValueTooLargeError(ComputeError, ValueError):
    """An answer holds a number with more digits than Python converts to text."""


class Functor:
    """One concrete way of forming composite elements over a metric space.

    Subclasses provide the element representation and the six primitive
    operations; the engine and harnesses only ever go through this surface.
    ``ctx`` is the space context: a FiniteMetricSpace for most instances, a
    PointedSpace for group-word instances.  Values are compared in the
    instance's value form (see :meth:`ground_form`), where every comparison,
    :meth:`sum_bound` included, is exact and answers True or False.
    :meth:`fiber_minimum` ranks the fiber for :func:`extend_generic`; an
    instance that can rank its fiber without lifting each coupling overrides
    it, from the same enumeration its :meth:`fiber` yields.
    """

    name = "abstract"
    # True when ``fiber`` yields only the couplings within a cap, so that a
    # nonzero minimum over it may shrink under a larger cap.
    capped_fiber = False
    # The FAULTS entry that corrupts the specialized solver (see
    # `solver_fault`).
    fault = None

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
        :func:`extend_generic` and ``selftest.check_lipschitz`` rank
        couplings, compare gaps and test for zero on tables scaled to
        integers.
        """
        raise NotImplementedError

    def enumerate_elements(self, ctx, cap: int) -> Iterator:
        """All elements over ctx up to a functor-specific size cap."""
        raise NotImplementedError

    def fiber_minimum(self, a, b, ctx, rank: PointFn, stop_at_zero: bool) -> tuple[Any, Any, int]:
        """``(best_rank, witness, count)``: the least ``lift(rank, .)`` over
        the fiber of (a, b), the first coupling of :meth:`fiber` attaining it,
        and how many couplings were read, stopping at the first zero when
        ``stop_at_zero``; ``count`` is 0 for an empty fiber.

        ``rank`` is the table scaled to integers (see :func:`extend_generic`).
        This version lifts every coupling :meth:`fiber` yields with
        :meth:`lift`, as power tuples do their one coupling.  Overrides rank
        the same enumeration without building each coupling (hyperspace and
        transport walks carry the rank, words fold the representation DAG
        once per state), build only the witness and agree with this version.
        """
        lift = self.lift
        return first_minimum(((lift(rank, c), c) for c in self.fiber(a, b, ctx)), stop_at_zero)

    # Derived structure; overridden where the coupling type is not just
    # "element over pair points".

    def marginals(self, coupling, ctx):
        a = self.apply_map(lambda p: p[0], coupling, ctx)
        b = self.apply_map(lambda p: p[1], coupling, ctx)
        return a, b

    def check_witness(self, ctx, fn: PointFn, a, b, witness, value) -> None:
        """Raise :class:`WitnessError` unless ``witness`` certifies ``value``
        as an upper bound of the distance between ``a`` and ``b``: it lifts
        ``fn`` to ``value`` and its marginals are ``(a, b)``, so it lies in
        the fiber the distance minimizes over.  ``fn`` may be the table
        scaled to integers, with ``value`` scaled alike."""
        lifted = self.lift(fn, witness)
        if lifted != value:
            raise WitnessError(f"{self.name}: witness lifts to {lifted}, so it does not re-integrate to {value}")
        left, right = self.marginals(witness, ctx)
        if left != a or right != b:
            raise WitnessError(f"{self.name}: witness marginals ({left!r}, {right!r}) differ from ({a!r}, {b!r})")

    def distance(self, ctx, table: PairTable, a, b):
        """The instance's preferred exact path; defaults to the generic one."""
        return extend_generic(self, ctx, table, a, b)

    def ground_form(self, value: Fraction) -> Fraction:
        """How a plain base distance reads in this instance's value form."""
        return value

    def sum_bound(self, w: Fraction, u: Fraction, v: Fraction) -> bool:
        """Whether w <= u + v, all three read in this instance's value form:
        the triangle inequality on distances and semiadditivity on lifts."""
        return w <= u + v

    # The request path: `fiberdist.cli` builds, places and renders every
    # instance through these, so it has no per-instance branches.

    @classmethod
    def from_request(cls, request: dict) -> "Functor":
        """The instance a validated ``dist`` request names."""
        return cls()

    def context(self, space, basepoint: str | None):
        """The space context for a loaded space file and its basepoint label."""
        return space

    def solver_fault(self, result: "ExtensionResult") -> str | None:
        """The FAULTS entry that corrupts the solver behind a specialized ``result``."""
        return self.fault

    def render_value(self, value: Fraction) -> dict:
        """The response fields that follow the exact value."""
        return {"value_decimal": decimal_str(value)}

    def flags(self, result: "ExtensionResult", a, b, method: str) -> dict:
        """How a ``specialized`` or ``generic`` result was reached."""
        return {"fiber_size": result.fiber_size_enumerated} if method == "generic" else {}


class ExtensionResult(Value):
    """Minimum of the lifted table over a fiber, with an attaining witness."""

    __slots__ = ("value", "witness", "fiber_size_enumerated", "cap_limited")

    def __init__(self, value: Fraction, witness: Any, fiber_size_enumerated: int, cap_limited: bool = False):
        self._set(value, witness, fiber_size_enumerated, cap_limited)


def extend_generic(functor: Functor, ctx, table: PairTable, a, b, *, early_exit: bool = True) -> ExtensionResult:
    """Minimize ``lift(table, .)`` over the coupling fiber of (a, b).

    The fiber stream is finite and deterministic, so the minimum and the
    first witness attaining it are well defined.  Couplings are ranked by
    :meth:`Functor.fiber_minimum` on the table's integer view, scaled by its
    common denominator once per table, which orders them as the table does
    (see :meth:`Functor.lift`); the value is the witness lifted on the table
    itself.  When the table is nonnegative the search stops at the first
    zero-valued coupling, since lifted values of nonnegative tables are
    nonnegative.
    """
    functor.validate_element(a, ctx)
    functor.validate_element(b, ctx)
    _den, _rows, rank, nonnegative = table.integer_view
    best, witness, count = functor.fiber_minimum(a, b, ctx, rank, early_exit and nonnegative)
    if not count:
        raise EmptyFiberError(f"{functor.name}: empty fiber for ({a!r}, {b!r})")
    return ExtensionResult(Fraction(functor.lift(table, witness)), witness, count, functor.capped_fiber and best != 0)


def first_minimum(ranked: Iterable[tuple[Any, Any]], stop_at_zero: bool) -> tuple[Any, Any, int]:
    """``(best, item, count)`` over a stream of ``(rank, item)`` pairs: the
    least rank, the first item attaining it, and how many pairs were read,
    stopping at the first rank 0 when ``stop_at_zero``."""
    best = item = None
    count = 0
    for value, candidate in ranked:
        count += 1
        if best is None or value < best:
            best, item = value, candidate
            if stop_at_zero and value == 0:
                break
    return best, item, count


def integer_tables(*tables: PairTable) -> list[dict[tuple[int, int], int]]:
    """The tables scaled to integers by one common denominator, as dicts
    keyed by index pair, for comparing two tables' lifts."""
    rows = iter(scale_to_integers([row for table in tables for row in table.values])[1])
    return [{(i, j): v for i, row in zip(range(table.n), rows) for j, v in enumerate(row)} for table in tables]


def reported_value(functor: Functor, result: ExtensionResult, fault: str | None = None) -> Fraction:
    """The value a specialized ``result`` of ``functor`` reports.

    This is the one place a fault corrupts a value: it adds 1 when ``fault``
    names the solver that produced ``result``, as the functor's
    :meth:`~Functor.solver_fault` tells.
    """
    if fault is not None and fault == functor.solver_fault(result):
        return result.value + 1
    return result.value
