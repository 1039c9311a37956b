"""Nonempty subsets with the sup lift and the Hausdorff distance.

Couplings over a pair of subsets (A, B) are restricted to subsets of A x B
with full projections.  This loses nothing: intersecting any coupling with
A x B keeps both projections intact and can only shrink the sup of a
nonnegative table, so the minimum over the restricted fiber equals the
minimum over all couplings.  The specialized answer, :func:`hausdorff`,
reads the table once for both the value and its nearest-point witness.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .core import PairTable, ParseError, Value, set_field
from .extension import ElementDomainError, ExtensionResult, FiberCapExceeded, Functor, first_minimum

# fiber_subsets walks all 2**cells masks of A x B, so it refuses larger grids.
MAX_CELLS = 16


class Subset(Value):
    __slots__ = ("members",)

    def __init__(self, members: tuple[int, ...]):
        if not members:
            raise ValueError("subsets must be nonempty")
        self._set(tuple(sorted(set(members))))

    def __len__(self) -> int:
        return len(self.members)


class SubsetCoupling(Value):
    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple[tuple[int, int], ...]):
        if not pairs:
            raise ValueError("couplings must be nonempty")
        set_field(self, "pairs", tuple(sorted(set(pairs))))


def hausdorff(table: PairTable, a: Subset, b: Subset) -> tuple[Fraction, SubsetCoupling]:
    """The Hausdorff distance and its witness, from one read of A x B: the
    largest distance from a point to its nearest point across, and the pairs
    (x, y) where y is nearest to x in B or x is nearest to y in A, which
    cover A and B and whose sup is that value."""
    rows = [[table((x, y)) for y in b.members] for x in a.members]
    near_b = list(map(min, rows))
    near_a = list(map(min, zip(*rows)))
    pairs = tuple(
        (x, y) for x, row, nx in zip(a.members, rows, near_b)
        for y, d, ny in zip(b.members, row, near_a) if d in (nx, ny)
    )
    return max(near_b + near_a), SubsetCoupling(pairs)


def fiber_subsets(a: Subset, b: Subset) -> Iterator[SubsetCoupling]:
    """Every subset of A x B whose projections are exactly A and B.

    Exhaustive, so it contains a minimizer of any lift.  Enumeration order
    (ascending bitmask over the row-major cell grid) is deterministic; it is
    the walk of :func:`_full_masks`, which also ranks the couplings for
    :meth:`HyperspaceFunctor.fiber_minimum`.
    """
    cells = _grid(a, b)
    for _top, mask in _full_masks(a, b, [0] * len(cells)):
        yield _coupling(cells, mask)


def _grid(a: Subset, b: Subset) -> list[tuple[int, int]]:
    """The cells of A x B in row-major order, refused beyond ``MAX_CELLS``."""
    cells = [(x, y) for x in a.members for y in b.members]
    if len(cells) > MAX_CELLS:
        raise FiberCapExceeded(f"{len(cells)} cells exceed the enumeration cap {MAX_CELLS}")
    return cells


def _full_masks(a: Subset, b: Subset, weights: list) -> Iterator[tuple]:
    """``(top, mask)`` for every mask of the row-major cell grid that covers
    every row and column, in ascending order, where ``top`` is the largest
    of ``weights`` (one per cell) over the mask's cells.

    A mask's cover and top are those of ``mask ^ lowbit`` joined with its
    lowest cell's, one lookup each per mask.
    """
    na, nb = len(a.members), len(b.members)
    k = na * nb
    # Bit r of a cover is row r, bit na + c is column c.
    cell_cover = [1 << r | 1 << (na + c) for r in range(na) for c in range(nb)]
    full = (1 << (na + nb)) - 1
    cover = [0] * (1 << k)
    # The empty mask's top is the least weight, so that a one-cell mask's
    # top is its cell's weight.
    top = [min(weights)] * (1 << k)
    for mask in range(1, 1 << k):
        low = mask & -mask
        rest = mask ^ low
        i = low.bit_length() - 1
        cover[mask] = covered = cover[rest] | cell_cover[i]
        w, t = weights[i], top[rest]
        if w > t:
            t = top[mask] = w
        else:
            top[mask] = t
        if covered == full:
            yield t, mask


def _coupling(cells: list[tuple[int, int]], mask: int) -> SubsetCoupling:
    # A mask's pairs are sorted and distinct, so the constructor's re-sort
    # is skipped.
    coupling = object.__new__(SubsetCoupling)
    set_field(coupling, "pairs", tuple([cell for i, cell in enumerate(cells) if mask >> i & 1]))
    return coupling


class HyperspaceFunctor(Functor):
    name = "hyperspace"
    fault = "hausdorff"

    def validate_element(self, elem, ctx) -> None:
        if not isinstance(elem, Subset):
            raise ElementDomainError(f"expected a Subset, got {elem!r}")
        if any(not 0 <= i < ctx.n for i in elem.members):
            raise ElementDomainError(f"subset {elem!r} not over a {ctx.n}-point space")

    def embed(self, ctx, i: int) -> Subset:
        return Subset((i,))

    def apply_map(self, fn, elem, dst_ctx=None):
        if isinstance(elem, SubsetCoupling):
            return Subset(tuple(fn(p) for p in elem.pairs))
        return Subset(tuple(fn(i) for i in elem.members))

    def fiber(self, a, b, ctx) -> Iterator[SubsetCoupling]:
        return fiber_subsets(a, b)

    def lift(self, fn, elem) -> Fraction:
        """The finite sup of fn over a subset's points or a coupling's pairs."""
        return max(map(fn, elem.pairs if isinstance(elem, SubsetCoupling) else elem.members))

    def fiber_minimum(self, a, b, ctx, rank, stop_at_zero):
        cells = _grid(a, b)
        best, mask, count = first_minimum(_full_masks(a, b, [rank(cell) for cell in cells]), stop_at_zero)
        return best, _coupling(cells, mask), count

    def enumerate_elements(self, ctx, cap: int = 0) -> Iterator[Subset]:
        n = ctx.n
        for mask in range(1, 1 << n):
            yield Subset(tuple(i for i in range(n) if mask >> i & 1))

    def distance(self, ctx, table, a, b):
        """:func:`hausdorff`, its coupling checked by :meth:`~Functor.check_witness`."""
        value, witness = hausdorff(table, a, b)
        self.check_witness(ctx, table, a, b, witness, value)
        return ExtensionResult(value, witness, 1)

    def parse_element(self, obj, ctx) -> Subset:
        if not isinstance(obj, list) or not obj:
            raise ParseError("a subset element is a nonempty JSON array of labels")
        return Subset(tuple(ctx.index(label) for label in obj))

    def format_coupling(self, coupling: SubsetCoupling, ctx) -> list:
        return [[ctx.points[x], ctx.points[y]] for (x, y) in coupling.pairs]
