"""Exact rational scalars and finite (pseudo-)metric spaces.

Every distance and mass this package takes or returns is a
``fractions.Fraction``, so equalities asserted by the test suites are exact
bit-for-bit comparisons, never tolerance checks.  Space validation and the
generic oracles compute on the integers :func:`scale_to_integers` gives:
the entries times their common denominator, which compare and add exactly
as the rationals do.  A table keeps that view (:attr:`PairTable.integer_view`),
and a space one table, to which :func:`validate_space` hands the integers
it checked; so the solvers reading it on every call scale a table once.
Floating point shows up only in the CLI's courtesy decimal renderings.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Callable, Sequence

_SCALAR_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")

MODES = ("metric", "pseudometric")

set_field = object.__setattr__


class Value:
    """An immutable record, compared, hashed and shown by its fields.

    Subclasses name their fields in ``__slots__`` and fill them in their
    ``__init__``, with :meth:`_set` or, on hot paths, ``set_field``: the
    record's own ``__setattr__`` refuses every assignment.  Values are equal
    only to values of the same class; the repr is ``Class(field=..., ...)``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = staticmethod(operator.attrgetter(*cls.__slots__))

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            set_field(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ParseError(ValueError):
    """Malformed input text (scalar strings, element syntax, space files)."""


class SpaceValidationError(ValueError):
    """A candidate distance matrix violates a (pseudo-)metric axiom.

    ``axiom`` names the first violated axiom, ``witness`` holds the indices
    (or labels) exhibiting the violation.
    """

    def __init__(self, axiom: str, witness: tuple, message: str):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


def parse_scalar(text: str) -> Fraction:
    """Parse "5", "-3" or "5/2"; decimal points are deliberately rejected."""
    if not isinstance(text, str):
        raise ParseError(f"not a rational scalar string: {text!r}")
    s = text.strip()
    if not _SCALAR_RE.match(s):
        raise ParseError(f"not a rational scalar: {text!r}")
    num, _, den = s.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ParseError(f"rational scalar of {len(s)} characters has too many digits") from None
    if den == 0:
        raise ParseError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def format_scalar(x: Fraction) -> str:
    return str(x)


def decimal_str(x: Fraction, digits: int = 10) -> str:
    """Decimal rendering of an exact rational, rounded to `digits` places."""
    sign = "-" if x < 0 else ""
    x = abs(x)
    scale = 10**digits
    scaled = (x.numerator * scale * 2 + x.denominator) // (2 * x.denominator)
    whole, frac = divmod(scaled, scale)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}." + str(frac).rjust(digits, "0").rstrip("0")


class _Kept(Value):
    # A slot outside a subclass's own __slots__: equality, hash and repr ignore it.
    __slots__ = ("_kept",)

    def _keep(self, value):
        set_field(self, "_kept", value)
        return value


class FiniteMetricSpace(_Kept):
    """Labeled points with an exact symmetric distance matrix.

    Instances are built through :func:`validate_space` (or the JSON loader),
    which is the single gate enforcing the axioms for the requested mode.
    """

    __slots__ = ("points", "dist", "mode")

    def __init__(self, points: tuple[str, ...], dist: tuple[tuple[Fraction, ...], ...], mode: str = "metric"):
        self._set(points, dist, mode)

    @property
    def n(self) -> int:
        return len(self.points)

    def index(self, label: str) -> int:
        try:
            return self.points.index(label)
        except ValueError:
            raise ParseError(f"unknown point label: {label!r}") from None

    def d(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    def pair_table(self) -> "PairTable":
        """The distances as a table, one per space and no field; a validated
        space's table starts from the integers its axioms were checked on."""
        try:
            return self._kept
        except AttributeError:
            return self._keep(PairTable(self.dist))

    def to_obj(self) -> dict:
        return {
            "points": list(self.points),
            "matrix": [[format_scalar(v) for v in row] for row in self.dist],
            "mode": self.mode,
        }


def scale_to_integers(matrix: Sequence[Sequence[Fraction]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``(den, rows)``: the common denominator of the entries and ``den * matrix``,
    as read-only rows.

    Comparisons and sums of the integer rows are exactly those of the
    rational entries scaled by ``den > 0``, so exact checks and searches can
    run on ints.
    """
    den = math.lcm(*{v.denominator for row in matrix for v in row})
    return den, tuple([tuple([v.numerator * (den // v.denominator) for v in row]) for row in matrix])


def validate_space(
    points: Sequence[str],
    matrix: Sequence[Sequence[Fraction]],
    mode: str = "metric",
) -> FiniteMetricSpace:
    """Check the axioms for `mode` and return the space, else raise.

    Axioms are checked in a fixed order (shape, duplicate labels, rational
    entries, negative entry, nonzero diagonal, asymmetry, separation for
    metric mode, triangle inequality) so the reported violation is
    deterministic.  After the entry types, every check runs exactly on the
    matrix scaled to integers by its common denominator; the returned space
    keeps the caller's entries, and hands those integers to its table's
    :attr:`~PairTable.integer_view`.
    """
    if mode not in MODES:
        raise SpaceValidationError("mode", (mode,), f"unknown mode {mode!r}")
    n = len(points)
    if n == 0:
        raise SpaceValidationError("nonempty", (), "a space needs at least one point")
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise SpaceValidationError(
            "square_matrix", (n,), f"matrix must be {n}x{n} to match the labels"
        )
    seen: dict[str, int] = {}
    for i, label in enumerate(points):
        if not isinstance(label, str) or label == "":
            raise SpaceValidationError("label", (i,), f"bad label at position {i}")
        if label in seen:
            raise SpaceValidationError(
                "duplicate_labels", (seen[label], i), f"duplicate label {label!r}"
            )
        seen[label] = i
    for i, row in enumerate(matrix):
        for j, v in enumerate(row):
            if not isinstance(v, (int, Fraction)) or isinstance(v, bool):
                raise SpaceValidationError(
                    "rational_entry", (i, j), f"d({points[i]},{points[j]}) is not an int or Fraction: {v!r}"
                )
    den, m = scale_to_integers(matrix)
    for i, row in enumerate(m):
        if min(row) < 0:
            j = next(j for j, v in enumerate(row) if v < 0)
            raise SpaceValidationError(
                "negative_entry", (i, j), f"d({points[i]},{points[j]}) < 0"
            )
    for i in range(n):
        if m[i][i] != 0:
            raise SpaceValidationError(
                "nonzero_diagonal", (i,), f"d({points[i]},{points[i]}) != 0"
            )
    # Row i against column i: an earlier row already compared every j < i.
    for i, (row, col) in enumerate(zip(m, zip(*m))):
        if row != col:
            j = next(j for j in range(i + 1, n) if row[j] != col[j])
            raise SpaceValidationError(
                "asymmetric", (i, j), f"d({points[i]},{points[j]}) != d({points[j]},{points[i]})"
            )
    if mode == "metric":
        for i, row in enumerate(m):
            if 0 in row[i + 1 :]:
                j = row.index(0, i + 1)
                raise SpaceValidationError(
                    "zero_distance_distinct",
                    (i, j),
                    f"distinct points {points[i]!r}, {points[j]!r} at distance 0 (use pseudometric mode)",
                )
    # d(i,k) > d(i,j) + d(j,k) for some k  iff  max_k (d(i,k) - d(j,k)) > d(i,j);
    # k is walked only for the first violating pair, to name the witness.
    for i, row_i in enumerate(m):
        for j, row_j in enumerate(m):
            dij = row_i[j]
            if max(map(operator.sub, row_i, row_j)) > dij:
                k = next(k for k in range(n) if row_i[k] > dij + row_j[k])
                raise SpaceValidationError(
                    "triangle_violation",
                    (i, j, k),
                    f"d({points[i]},{points[k]}) > d({points[i]},{points[j]}) + d({points[j]},{points[k]})",
                )
    space = FiniteMetricSpace(tuple(points), tuple(tuple(row) for row in matrix), mode)
    space._keep(PairTable(space.dist))._keep((den, m))
    return space


def space_from_obj(obj: dict) -> FiniteMetricSpace:
    if not isinstance(obj, dict):
        raise ParseError("space file must be a JSON object")
    for key in ("points", "matrix"):
        if key not in obj:
            raise ParseError(f"space file missing field {key!r}")
    points = obj["points"]
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise ParseError("field 'points' must be a list of strings")
    raw = obj["matrix"]
    if not isinstance(raw, list):
        raise ParseError("field 'matrix' must be a list of rows")
    parsed: dict[str, Fraction] = {}  # each distinct entry text is parsed once
    matrix = []
    for row in raw:
        if not isinstance(row, list):
            raise ParseError("field 'matrix' must be a list of rows")
        for v in row:
            if not isinstance(v, str) or v not in parsed:
                parsed[v] = parse_scalar(v)
        matrix.append([parsed[v] for v in row])
    mode = obj.get("mode", "metric")
    return validate_space(points, matrix, mode)


def space_document_from_obj(obj: dict) -> tuple[FiniteMetricSpace, str | None]:
    """A space plus the optional basepoint label word distances need."""
    space = space_from_obj(obj)
    basepoint = obj.get("basepoint")
    if basepoint is not None:
        if not isinstance(basepoint, str):
            raise ParseError("field 'basepoint' must be a point label")
        space.index(basepoint)  # raises ParseError for unknown labels
    return space, basepoint


def canonical_space_obj(space: FiniteMetricSpace, basepoint: str | None = None) -> dict:
    obj = space.to_obj()
    if basepoint is not None:
        obj["basepoint"] = basepoint
    return obj


class PairTable(_Kept):
    """A function on X x X with exact rational values, callable on (i, j)."""

    __slots__ = ("values",)

    def __init__(self, values):
        self._set(tuple(tuple(row) for row in values))

    @property
    def n(self) -> int:
        return len(self.values)

    def __call__(self, pair: tuple[int, int]) -> Fraction:
        return self.values[pair[0]][pair[1]]

    @property
    def integer_view(self) -> tuple[int, tuple, Callable[[tuple[int, int]], int], bool]:
        """``(den, rows, rank, nonnegative)``: :func:`scale_to_integers` of
        the values, ``rank`` giving an index pair's integer, and whether no
        entry is negative.  Computed once per table, on first use, from the
        scaling :func:`validate_space` handed over if it did; no field."""
        try:
            view = self._kept
        except AttributeError:
            view = scale_to_integers(self.values)
        if len(view) == 2:  # (den, rows) alone, as validate_space hands them over
            den, rows = view
            rank = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)}
            view = self._keep((den, rows, rank.__getitem__, min(rank.values()) >= 0))
        return view
