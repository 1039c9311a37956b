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

# fiber_subsets yields up to 2**cells couplings of A x B, so it refuses larger
# grids.  It visits each of the 2**(cells - |B|) masks of the rows past the
# first, and lists row 0's 2**|B| masks once per set of columns to cover.
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

    A mask is ``hi << nb | lo``: ``lo`` holds row 0's cells and ``hi`` the
    other rows'.  Every ``lo`` but 0 covers row 0 and its own columns, so a
    mask covers the grid exactly when ``hi`` covers rows 1 onwards and
    ``lo`` is nonzero and covers the columns ``hi`` misses.  The covers and
    tops of the ``lo`` and of the ``hi`` masks are each built once, a mask's
    from that of ``mask ^ lowbit`` and its lowest cell's; the ascending
    ``lo`` masks that cover a set of columns are listed once per set.  So
    the walk visits each ``hi`` and then only the masks it yields.
    """
    na, nb = len(a.members), len(b.members)
    columns = (1 << nb) - 1
    rows = (1 << na) - 2  # rows 1 onwards; bit r of a cover is row r, bit na + c is column c
    # The empty mask's top is the least weight, so that a one-cell mask's
    # top is its cell's weight and a whole mask's joins those of its parts.
    least = min(weights)
    low_cover, low_top = _covers(weights[:nb], [1 << c for c in range(nb)], least)
    high_cells = [1 << r | 1 << (na + c) for r in range(1, na) for c in range(nb)]
    high_cover, high_top = _covers(weights[nb:], high_cells, least)
    covering: dict[int, list[int]] = {}  # columns -> the nonzero lo masks covering them, ascending
    for hi, (covered, th) in enumerate(zip(high_cover, high_top)):
        if covered & rows != rows:
            continue
        need = ~covered >> na & columns
        los = covering.get(need)
        if los is None:
            los = covering[need] = [lo for lo in range(1, 1 << nb) if low_cover[lo] & need == need]
        base = hi << nb
        for lo in los:
            tl = low_top[lo]
            yield (tl if tl > th else th), base | lo


def _covers(cell_weights: list, cell_cover: list[int], least) -> tuple[list[int], list]:
    """The cover and top of every mask over some cells, from each cell's
    weight and cover bits, with ``least`` the empty mask's top."""
    size = 1 << len(cell_weights)
    cover = [0] * size
    top = [least] * size
    for mask in range(1, size):
        low = mask & -mask
        rest = mask ^ low
        i = low.bit_length() - 1
        cover[mask] = cover[rest] | cell_cover[i]
        w, t = cell_weights[i], top[rest]
        top[mask] = w if w > t else t
    return cover, top


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
