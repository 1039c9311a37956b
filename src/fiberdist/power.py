"""Fixed-length tuples with max and p-power lifts.

For a finite exponent p the lifted value is stored as the exact rational sum
of p-th powers; the 1/p root is irrational in general and is taken only for
display.  Every comparison the package makes between two p-power values is
therefore exact, because the root is strictly monotone on nonnegative
reals.  Inequalities that mix rooted sums (the triangle inequality and
semiadditivity of the lift) are decided exactly by :func:`rooted_le`.

The lift, the one-coupling fiber and the closed form are :class:`PowerFunctor` methods.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from typing import Iterator, Sequence

from .core import ParseError, Value, decimal_str
from .extension import ElementDomainError, ExtensionResult, Functor, ValueTooLargeError


class PNorm(Value):
    """Either the max norm (p is None) or an integer exponent p >= 1."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            if not isinstance(p, int) or isinstance(p, bool):
                raise ParseError(f"finite norm exponent must be an integer, got {p!r}")
            if p < 1:
                raise ParseError(f"finite norm exponent must be >= 1, got {p}")
        self._set(p)

    @property
    def is_max(self) -> bool:
        return self.p is None

    @classmethod
    def max_norm(cls) -> "PNorm":
        return cls(None)

    @classmethod
    def parse(cls, text: str) -> "PNorm":
        s = text.strip()
        if s == "max":
            return cls(None)
        if s.startswith("p:"):
            body = s[2:]
            if not (body[1:] if body[:1] in "+-" else body).isdecimal():
                raise ParseError(f"bad norm {text!r}: exponent must be an integer")
            try:
                p = int(body)
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise ParseError(f"norm exponent of {len(body)} characters has too many digits") from None
            return cls(p)
        raise ParseError(f"bad norm {text!r}: expected 'max' or 'p:<k>'")

    def format(self) -> str:
        return "max" if self.is_max else f"p:{self.p}"


def _coordinate_pairs(s: Sequence[int], t: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The coupling of two tuples, refused when their lengths differ."""
    if len(s) != len(t):
        raise ValueError(f"tuple length mismatch: {len(s)} vs {len(t)}")
    return tuple(zip(s, t))


def int_nth_root(m: int, p: int) -> int:
    """floor(m ** (1/p)) for nonnegative integers, exactly."""
    if m < 0:
        raise ValueError("negative radicand")
    if m in (0, 1) or p == 1:
        return m
    # Start near the root, from a float estimate of log2(m): from a power of
    # two above it, Newton's method creeps down by (p - 1)/p per step.  One
    # step from any x > 0 lands at or above the root (AM-GM), and the steps
    # after it descend to the root.
    shift = max(m.bit_length() - 64, 0)
    e = (shift + math.log2(m >> shift)) / p
    x = int(2.0**e) if e < 1000 else 1 << ((m.bit_length() + p - 1) // p)
    x = ((p - 1) * x + m // x ** (p - 1)) // p
    while True:
        y = ((p - 1) * x + m // x ** (p - 1)) // p
        if y >= x:
            break
        x = y
    while x**p > m:
        x -= 1
    while (x + 1) ** p <= m:
        x += 1
    return x


def nth_root_interval(q: Fraction, p: int, digits: int) -> tuple[Fraction, Fraction]:
    """lo <= q ** (1/p) < hi, where lo is q ** (1/p) truncated to `digits`
    decimals and hi = lo + 10**-digits."""
    if q < 0:
        raise ValueError("negative radicand")
    scale = 10**digits
    r = int_nth_root(q.numerator * scale**p // q.denominator, p)
    return Fraction(r, scale), Fraction(r + 1, scale)


def _rational_root(q: Fraction, p: int) -> Fraction | None:
    """q ** (1/p) when it is rational, else None."""
    num, den = int_nth_root(q.numerator, p), int_nth_root(q.denominator, p)
    if num**p == q.numerator and den**p == q.denominator:
        return Fraction(num, den)
    return None


def rooted_le(W: Fraction, U: Fraction, V: Fraction, p: int) -> bool:
    """Decide W^(1/p) <= U^(1/p) + V^(1/p) exactly, for p-power values W, U, V >= 0.

    W <= U + V suffices, since t -> t^(1/p) is subadditive.  Otherwise
    W > 0, and dividing by W^(1/p) asks whether x + y >= 1 for x = (U/W)^(1/p)
    and y = (V/W)^(1/p).  When both are rational that is exact arithmetic.
    When either is not, x + y != 1, since a sum of nonnegative real p-th
    roots of rationals is rational only when each root is (Besicovitch,
    J. London Math. Soc. 15 (1940); Mordell, Pacific J. Math. 3 (1953)).
    So enclosures of the three roots, refined by doubling their digits,
    decide it.
    """
    if W <= U + V:
        return True
    x, y = _rational_root(U / W, p), _rational_root(V / W, p)
    if x is not None and y is not None:
        return x + y >= 1
    digits = 16
    while True:
        w_lo, w_hi = nth_root_interval(W, p, digits)
        u_lo, u_hi = nth_root_interval(U, p, digits)
        v_lo, v_hi = nth_root_interval(V, p, digits)
        if w_hi <= u_lo + v_lo:
            return True
        if w_lo >= u_hi + v_hi:
            return False
        digits *= 2


def root_decimal_str(power_value: Fraction, p: int, digits: int = 10) -> str:
    """Decimal rendering of power_value ** (1/p), truncated to `digits`."""
    if p == 1:
        return decimal_str(power_value, digits)
    return decimal_str(nth_root_interval(power_value, p, digits)[0], digits)


class PowerFunctor(Functor):
    """n-tuples of points under a fixed norm; elements are plain int tuples."""

    fault = "power"

    def __init__(self, n: int, norm: PNorm):
        if n < 1:
            raise ValueError("tuple length must be >= 1")
        self.n = n
        self.norm = norm
        kind = norm.format().replace(":", "")
        self.name = f"power[n={n},{kind}]"

    def validate_element(self, elem, ctx) -> None:
        if not isinstance(elem, tuple) or len(elem) != self.n:
            raise ElementDomainError(f"expected a {self.n}-tuple, got {elem!r}")
        if any(not 0 <= i < ctx.n for i in elem):
            raise ElementDomainError(f"tuple {elem!r} not over a {ctx.n}-point space")

    def embed(self, ctx, i: int) -> tuple[int, ...]:
        return (i,) * self.n

    def apply_map(self, fn, elem, dst_ctx=None):
        return tuple(fn(c) for c in elem)

    @classmethod
    def from_request(cls, request: dict) -> "PowerFunctor":
        norm = PNorm.parse(request["norm"])
        if not isinstance(request["a"], list) or not request["a"]:
            raise ParseError("a tuple element is a nonempty JSON array of labels")
        return cls(len(request["a"]), norm)

    def _check_renderable(self, entries: Sequence[Fraction]) -> None:
        """Refuse coordinate distances whose p-power value may have more
        digits than ``sys.get_int_max_str_digits()`` allows, before any power
        is taken.

        With L the common denominator of the k entries n_i/d_i, the value is
        the sum of (n_i L/d_i)^p over L^p, so neither of its two integers has
        more than p * max(bits(L), bits(n_i L/d_i)) + bits(k) bits.
        """
        limit = sys.get_int_max_str_digits()
        if self.norm.is_max or not limit:
            return
        den = math.lcm(*(d.denominator for d in entries))
        top = max((abs(d.numerator) * (den // d.denominator) for d in entries), default=0)
        bits = self.norm.p * max(den.bit_length(), top.bit_length()) + len(entries).bit_length()
        digits = math.ceil(bits * math.log10(2))
        if digits > limit:
            raise ValueTooLargeError(f"{self.name}: the exact value may have {digits} digits, "
                                     f"more than the {limit} Python renders")

    def fiber(self, a, b, ctx) -> Iterator:
        """The one and only coupling: coordinatewise pairs."""
        coupling = _coordinate_pairs(a, b)
        self._check_renderable([ctx.d(x, y) for x, y in coupling])
        return iter((coupling,))

    def lift(self, fn, elem) -> Fraction:
        """max of fn over coordinates, or the exact sum of its p-th powers."""
        values = list(map(fn, elem))
        if min(values, default=0) < 0:
            # Named by coordinate: fn may be a table scaled to integers.
            c = next(c for c, v in zip(elem, values) if v < 0)
            raise ValueError(f"power lifts require nonnegative values, negative at {c!r}")
        if self.norm.is_max:
            return max(values)
        return sum((v**self.norm.p for v in values), Fraction(0))

    def enumerate_elements(self, ctx, cap: int = 0) -> Iterator[tuple[int, ...]]:
        return itertools.product(range(ctx.n), repeat=self.n)

    def distance(self, ctx, table, a, b):
        """The closed form: the lift of the one coupling, coordinatewise
        distances combined by the norm.  That witness gets no
        :meth:`~Functor.check_witness`: the value is its lift, so the check
        would compare a number with itself, and for a large p it would take
        every p-th power twice."""
        coupling = _coordinate_pairs(a, b)
        self._check_renderable([table(pair) for pair in coupling])
        return ExtensionResult(self.lift(table, coupling), coupling, 1)

    def ground_form(self, value: Fraction) -> Fraction:
        if self.norm.is_max:
            return value
        return value**self.norm.p

    def sum_bound(self, w: Fraction, u: Fraction, v: Fraction) -> bool:
        if self.norm.is_max:
            return super().sum_bound(w, u, v)
        return rooted_le(w, u, v, self.norm.p)

    def render_value(self, value: Fraction) -> dict:
        if self.norm.is_max:
            return super().render_value(value)
        return {"p": self.norm.p, "value_decimal": root_decimal_str(value, self.norm.p)}

    def parse_element(self, obj, ctx) -> tuple[int, ...]:
        if not isinstance(obj, list) or len(obj) != self.n:
            raise ParseError(f"a tuple element is a JSON array of exactly {self.n} labels")
        return tuple(ctx.index(label) for label in obj)

    def format_coupling(self, coupling, ctx) -> list:
        return [[ctx.points[x], ctx.points[y]] for (x, y) in coupling]
