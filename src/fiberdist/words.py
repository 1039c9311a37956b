"""Group words over a pointed space: Graev and Swierczkowski distances.

Elements are reduced words whose letters are points of the space; the
basepoint acts as the group identity, so basepoint letters vanish and
adjacent inverse pairs cancel (free case), or net exponents are taken per
point (free-abelian case).

The distance between two reduced words is the minimum, over pairs of
equal-length equal-signature letter strings reducing to them, of the sum of
letterwise base distances: over every position for the "graev" variant,
over distinct letter pairs only for the "swierczkowski" variant.  Every
distance is taken within a cap on the string length (default: combined
reduced length plus two).

``graev_distance`` answers both variants exactly under a pseudometric cost
whenever a witness attaining a cap-free lower bound fits the cap.  For
Graev, the bound is the value itself: an interval program over
non-crossing matchings for free words, and a padded ``kantorovich``
transport (the Arens-Eells norm) for free-abelian words, each with a
witness of at most |a|+|b| rows.  For Swierczkowski, the bound is the least
summed Steiner-tree cost over the partitions of the words' points that make
the two words equal once each block is one letter, and the witness is the
shortest representation on one cheapest forest's edges.  Every such witness
is checked by re-lifting and reducing.  The other calls (a cost that is no
pseudometric, a witness longer than the cap) go to
``search_word_distance``, whose results carry a ``cap_limited`` flag: a
capped value is an upper bound of the true infimum that is certified
exhaustive within its cap, and is exact when it meets the bound.

``enumerate_proper_representations`` streams every representation pair
within the cap (the coupling fiber; its walk also ranks the fiber for the
generic minimum), and ``search_word_distance`` expands
representation prefixes in cost order with provably lossless pruning
(prefix feasibility and state dominance) and returns the minimum over that
stream.  Both walk one prefix model: per side, the reduced prefix (free) or
net exponents (free-abelian), with a lazily built per-prefix transition
table.  ``naive_word_distance`` reduces every candidate string from scratch
and is the independent oracle for all three.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from . import transport  # by module, so a tracer that patches kantorovich sees these calls
from .core import (
    FiniteMetricSpace, PairTable, ParseError, SpaceValidationError, Value, scale_to_integers, set_field, validate_space,
)
from .extension import (
    GRAEV, SWIERCZKOWSKI, VARIANTS, ComputeError, ElementDomainError, EmptyFiberError, ExtensionResult, Functor,
    WitnessError, first_minimum,
)


class CapTooSmallError(ComputeError, ValueError):
    """No representation can exist below the reduced word length."""


class PointedSpace(Value):
    __slots__ = ("space", "basepoint")

    def __init__(self, space: FiniteMetricSpace, basepoint: int):
        if not 0 <= basepoint < space.n:
            raise ValueError(f"basepoint index {basepoint} out of range")
        self._set(space, basepoint)

    @property
    def n(self) -> int:
        return self.space.n


def pointed_space(space: FiniteMetricSpace, basepoint_label: str) -> PointedSpace:
    return PointedSpace(space, space.index(basepoint_label))


class GroupWord(Value):
    """A canonically reduced word; build through :func:`reduce_letters`."""

    __slots__ = ("letters", "commutative")

    def __init__(self, letters: tuple[tuple[int, int], ...], commutative: bool = False):
        set_field(self, "letters", letters)
        set_field(self, "commutative", commutative)

    def __eq__(self, other):
        # Spelled out: the oracle compares words millions of times.
        if other.__class__ is self.__class__:
            return self.letters == other.letters and self.commutative == other.commutative
        return NotImplemented

    __hash__ = Value.__hash__

    def __len__(self) -> int:
        return len(self.letters)


def reduce_letters(letters: Sequence[tuple[int, int]], commutative: bool, pointed: PointedSpace) -> GroupWord:
    """Canonical reduced form; independent of the order cancellations are
    applied in, which the confluence tests exercise directly."""
    e = pointed.basepoint
    n = pointed.n
    for x, s in letters:
        if not 0 <= x < n:
            raise ValueError(f"letter index {x} out of range")
        if s not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {s}")
    if commutative:
        net: dict[int, int] = {}
        for x, s in letters:
            if x == e:
                continue
            net[x] = net.get(x, 0) + s
        out = []
        for x in sorted(net):
            s = 1 if net[x] > 0 else -1
            out.extend((x, s) for _ in range(abs(net[x])))
        return GroupWord(tuple(out), True)
    stack: list[tuple[int, int]] = []
    for x, s in letters:
        if x == e:
            continue
        if stack and stack[-1] == (x, -s):
            stack.pop()
        else:
            stack.append((x, s))
    return GroupWord(tuple(stack), False)


def parse_word(obj, pointed: PointedSpace, commutative: bool) -> GroupWord:
    """Words come in as JSON arrays of signed labels, e.g. ["x", "y^-1"]."""
    if not isinstance(obj, list):
        raise ParseError("a word element is a JSON array of signed labels")
    letters = []
    for item in obj:
        if not isinstance(item, str):
            raise ParseError(f"bad letter {item!r}")
        if "^" in item:
            label, _, power = item.partition("^")
            if power not in ("1", "+1", "-1"):
                raise ParseError(f"bad letter {item!r}: only exponents 1 and -1 are allowed")
            sign = -1 if power == "-1" else 1
        else:
            label, sign = item, 1
        letters.append((pointed.space.index(label), sign))
    return reduce_letters(letters, commutative, pointed)


def format_word(word: GroupWord, pointed: PointedSpace) -> list[str]:
    pts = pointed.space.points
    return [pts[x] if s == 1 else f"{pts[x]}^-1" for x, s in word.letters]


class ProperRepresentationPair(Value):
    """Equal-signature letter strings whose sides reduce to the two words."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, int, int], ...]):  # (left letter, right letter, sign)
        set_field(self, "rows", rows)

    def left_letters(self) -> tuple[tuple[int, int], ...]:
        return tuple((a, s) for a, _b, s in self.rows)

    def right_letters(self) -> tuple[tuple[int, int], ...]:
        return tuple((b, s) for _a, b, s in self.rows)


def letter_sum_lift(fn, keys: Iterable, variant: str) -> Fraction:
    """Sum fn over all positions (graev) or over distinct keys only
    (swierczkowski); keys are points for words, pairs for representations."""
    if variant == GRAEV:
        return sum(map(fn, keys))
    if variant == SWIERCZKOWSKI:
        return sum(map(fn, dict.fromkeys(keys)))
    raise ValueError(f"unknown variant {variant!r}")


# Equal rows, witnesses and values of word answers are one shared object
# each, so a caller that keeps many answers holds each of them once.  The
# table is emptied when it reaches _SHARED_LIMIT entries, which bounds it.
_SHARED: dict = {}
_SHARED_LIMIT = 1 << 15


def _shared(item):
    if len(_SHARED) >= _SHARED_LIMIT:
        _SHARED.clear()
    return _SHARED.setdefault(item, item)


def _word_result(value: Fraction, rows: Iterable, states: int, cap_limited: bool) -> ExtensionResult:
    witness = ProperRepresentationPair(tuple([_shared(row) for row in rows]))
    return ExtensionResult(_shared(value), _shared(witness), states, cap_limited)


def default_cap(a: GroupWord, b: GroupWord) -> int:
    return len(a) + len(b) + 2


def _check_pair(a: GroupWord, b: GroupWord, cap: int | None) -> int:
    if a.commutative != b.commutative:
        raise ValueError("words must both be free or both be free-abelian")
    cap = default_cap(a, b) if cap is None else cap
    if cap < max(len(a), len(b)):
        raise CapTooSmallError(
            f"cap {cap} is below the reduced word length {max(len(a), len(b))}"
        )
    return cap


def _free_push(stack: tuple, x: int, s: int, e: int) -> tuple:
    if x == e:
        return stack
    if stack and stack[-1] == (x, -s):
        return stack[:-1]
    return stack + ((x, s),)


def _free_need(stack: tuple, target: tuple) -> int:
    # Each appended letter moves the reduced prefix by at most one step
    # toward the target: pop down to the common prefix, then push the
    # target's remainder.
    c = 0
    limit = min(len(stack), len(target))
    while c < limit and stack[c] == target[c]:
        c += 1
    return (len(stack) - c) + (len(target) - c)


def _net_of(letters: tuple) -> tuple:
    net: dict[int, int] = {}
    for x, s in letters:
        net[x] = net.get(x, 0) + s
    return tuple(sorted((x, v) for x, v in net.items() if v))


def _net_push(net: tuple, x: int, s: int, e: int) -> tuple:
    if x == e:
        return net
    items = dict(net)
    items[x] = items.get(x, 0) + s
    return tuple(sorted((k, v) for k, v in items.items() if v))


def _net_need(net: tuple, target: tuple) -> int:
    # Each appended letter changes one net exponent by one.
    cur = dict(net)
    total = 0
    for x, v in target:
        total += abs(cur.pop(x, 0) - v)
    total += sum(abs(v) for v in cur.values())
    return total


class _PrefixTables(dict):
    """Transition tables of one side's prefixes, built on first lookup.

    A prefix is the side's reduced letters so far (free words) or its sorted
    nonzero net exponents (free-abelian words); the empty prefix is ``()``.
    ``tables[prefix][2*x + (s == -1)]`` is ``(next_prefix, need)``: the
    prefix after appending letter ``(x, s)`` and the fewest further letters
    that take it to ``target``.  Tables live for one stream or one search.
    """

    __slots__ = ("target", "_push", "_need", "_letters", "_e")

    def __init__(self, target: tuple, push, need, letters: list[tuple[int, int]], e: int):
        self.target = target
        self._push = push
        self._need = need
        self._letters = letters
        self._e = e

    def __missing__(self, prefix: tuple) -> list[tuple[tuple, int]]:
        push, need, target, e = self._push, self._need, self.target, self._e
        table = []
        for x, s in self._letters:
            nxt = push(prefix, x, s, e)
            table.append((nxt, need(nxt, target)))
        self[prefix] = table
        return table


def _prefix_tables(a: GroupWord, b: GroupWord, pointed: PointedSpace) -> tuple[_PrefixTables, _PrefixTables]:
    """Left and right prefix tables for representations of ``(a, b)``."""
    if a.commutative:
        push, need, target = _net_push, _net_need, _net_of
    else:
        push, need, target = _free_push, _free_need, tuple
    letters = [(x, s) for x in range(pointed.n) for s in (1, -1)]  # in letter-code order
    e = pointed.basepoint
    return (
        _PrefixTables(target(a.letters), push, need, letters, e),
        _PrefixTables(target(b.letters), push, need, letters, e),
    )


def _live_rows(key: tuple, left: _PrefixTables, right: _PrefixTables, cap: int, successors: dict) -> list:
    """The live rows (x, y, s) of state ``key`` = (lkey, rkey, depth), in
    sign, then x, then y order, each with the live rows of the state it
    leads to and whether that completes a representation.  A row is live
    when it completes one or has live rows below it; ``successors`` keeps
    every state's list once it is built."""
    lkey, rkey, depth = key
    remaining = cap - depth - 1
    ltable, rtable, ltarget, rtarget = left[lkey], right[rkey], left.target, right.target
    out = []
    for s in (1, -1):
        neg = s == -1
        ys = [(y, rnext, rnext == rtarget) for y, (rnext, rneed) in enumerate(rtable[neg::2]) if rneed <= remaining]
        for x, (lnext, lneed) in enumerate(ltable[neg::2]):
            if lneed <= remaining:
                ldone = lnext == ltarget
                for y, rnext, rdone in ys:
                    child = (lnext, rnext, depth + 1)
                    below = successors.get(child)
                    if below is None:
                        below = _live_rows(child, left, right, cap, successors)
                    if below or (ldone and rdone):
                        out.append(((x, y, s), below, ldone and rdone))
    successors[key] = out
    return out


def enumerate_proper_representations(
    a: GroupWord, b: GroupWord, pointed: PointedSpace, cap: int | None = None
) -> Iterator[ProperRepresentationPair]:
    """Every representation pair of length <= cap, in depth-first order.

    Pruning is feasibility-only (a side that can no longer reach its target
    within the remaining rows is cut), so the stream is exhaustive within
    the cap.  It is the walk of :func:`_representation_walk`, which also
    ranks the representations for :meth:`WordsFunctor.fiber_minimum`.
    """
    walk = _representation_walk(a, b, pointed, cap, [0] * pointed.n**2, False)
    return (ProperRepresentationPair(rows) for _total, rows in walk)


def _representation_walk(
    a: GroupWord, b: GroupWord, pointed: PointedSpace, cap: int | None, weight: list, distinct: bool
) -> Iterator[tuple[int, tuple]]:
    """``(total, rows)`` for every representation pair of length <= cap, in
    depth-first order, where ``total`` sums ``weight[x * n + y]`` over the
    rows' (left, right) keys (x, y), over distinct keys only when
    ``distinct``.

    The walk keeps one explicit stack of successor iterators; a state's
    successors depend only on its two prefixes and its depth, so each such
    list is built once per walk, without the rows that lead to no
    representation.  The total moves by one key's weight per step: ``seen``
    counts each key's rows on the current path, and a key adds its weight
    only on its first row when ``distinct``.  The cap is checked on the
    call, before the walk starts.
    """
    cap = _check_pair(a, b, cap)
    left, right = _prefix_tables(a, b, pointed)
    n = pointed.n

    def walk() -> Iterator[tuple[int, tuple]]:
        if left.target == () and right.target == ():
            yield 0, ()
        rows: list[tuple[int, int, int]] = []
        path: list[tuple[int, int]] = []  # (key, weight added) per row of rows
        seen = [0] * (n * n)
        total = 0
        stack = [iter(_live_rows(((), (), 0), left, right, cap, {}))]  # stack[d] walks the rows at depth d
        while stack:
            for row, below, done in stack[-1]:
                k = row[0] * n + row[1]
                c = seen[k]
                seen[k] = c + 1
                w = 0 if distinct and c else weight[k]
                total += w
                rows.append(row)
                if done:
                    yield total, tuple(rows)
                if below:
                    path.append((k, w))
                    stack.append(iter(below))
                    break
                rows.pop()
                seen[k] = c
                total -= w
            else:
                stack.pop()
                if rows:
                    rows.pop()
                    k, w = path.pop()
                    seen[k] -= 1
                    total -= w

    return walk()


def graev_distance(
    a: GroupWord,
    b: GroupWord,
    pointed: PointedSpace,
    variant: str = GRAEV,
    cap: int | None = None,
    *,
    cost_table=None,
) -> ExtensionResult:
    """Distance between two words, free or free-abelian, within the cap.

    Under a pseudometric cost, both variants have a cap-free lower bound
    with a witness that attains it.  For Graev, the bound is the value's
    closed form: the non-crossing matching program for free words
    (:func:`_free_graev`) and the Arens-Eells transport for free-abelian
    words (:func:`_abelian_graev`), each witnessed by at most ``|a| + |b|``
    rows.  For Swierczkowski, it is the Steiner-forest bound of
    :func:`_swierczkowski_forest`, witnessed by the fewest rows on the
    forest's edges.  The witness is checked by re-lifting and reducing, and
    answers whenever it fits the cap: the minimum within a cap is at least
    the bound, which the witness attains.  Such answers are exact, so
    ``cap_limited`` is false and ``fiber_size_enumerated`` is 0.  Every
    other call (a cost that is no pseudometric, a cap below the witness) is
    answered by :func:`search_word_distance`; a Swierczkowski search value
    that meets the bound is not ``cap_limited`` either.

    ``cost_table`` (a nonnegative function on pairs) replaces the base
    distance.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    cap = _check_pair(a, b, cap)
    dist, denom, idist = _integer_costs(pointed, cost_table)
    swier = variant == SWIERCZKOWSKI
    if not (dist == pointed.space.dist or _is_pseudometric(pointed.space.points, dist)):
        return _search(a, b, pointed, swier, cap, denom, idist)
    bound = 0
    if swier:
        bound, rows = _swierczkowski_forest(a, b, pointed, idist, cap)
        value = Fraction(bound, denom)
    elif a.commutative:
        value, rows = _abelian_graev(a, b, pointed, dist)
    else:
        cost, rows = _free_graev(a, b, pointed, idist)
        value = Fraction(cost, denom)
    if rows is not None:
        _check_witness(a, b, pointed, rows, value, denom, idist, variant)
        if len(rows) <= cap:
            return _word_result(value, rows, 0, False)
    return _search(a, b, pointed, swier, cap, denom, idist, bound)


def _integer_costs(pointed: PointedSpace, cost_table) -> tuple[tuple, int, list[list[int]]]:
    """``(dist, den, idist)``: the cost matrix and its integer scaling."""
    n = pointed.n
    if cost_table is None:
        dist = pointed.space.dist
    else:
        dist = tuple(tuple(cost_table((x, y)) for y in range(n)) for x in range(n))
        if any(v < 0 for row in dist for v in row):
            raise ValueError("word distances require a nonnegative cost table")
    return (dist, *scale_to_integers(dist))


def _is_pseudometric(points: tuple[str, ...], dist: tuple) -> bool:
    try:
        validate_space(points, dist, "pseudometric")
    except SpaceValidationError:
        return False
    return True


def _free_graev(a: GroupWord, b: GroupWord, pointed: PointedSpace, idist: list[list[int]]) -> tuple[int, list]:
    """Least integer cost of a representation of free words, and its rows.

    With the common prefix p stripped (a = p a', b = p b'), the Graev norm
    of w = a'^-1 b' is a minimum over non-crossing matchings of w's
    positions: an unmatched letter costs d(w_i, e), a matched pair of
    opposite signs d(w_i, w_k) (Ding & Gao, "Graev metric groups and
    Polishable subgroups of Banach spaces", Fund. Math. 196 (2007)).
    ``best[i][j]`` is that minimum over the span [i, j) and ``mate[i][j]``
    the partner w[i] takes in it (-1 for none).
    """
    e = pointed.basepoint
    common = 0
    while common < min(len(a), len(b)) and a.letters[common] == b.letters[common]:
        common += 1
    ra, rb = a.letters[common:], b.letters[common:]
    w = [(x, -s) for x, s in reversed(ra)] + list(rb)
    m = len(w)
    best = [[0] * (m + 1) for _ in range(m + 1)]
    mate = [[-1] * (m + 1) for _ in range(m + 1)]
    for i in range(m - 1, -1, -1):
        x, s = w[i]
        cost_i = idist[x]
        rest, mate_i = best[i + 1], mate[i]
        for j in range(i + 1, m + 1):
            low, pick = cost_i[e] + rest[j], -1
            for k in range(i + 1, j):
                y, t = w[k]
                if t != s:
                    c = cost_i[y] + rest[k] + best[k + 1][j]
                    if c < low:
                        low, pick = c, k
            best[i][j] = low
            mate_i[j] = pick
    partner = [None] * m
    spans = [(0, m)]
    while spans:
        i, j = spans.pop()
        if i == j:
            continue
        k = mate[i][j]
        if k < 0:
            spans.append((i + 1, j))
        else:
            partner[i], partner[k] = k, i
            spans += [(i + 1, k), (k + 1, j)]

    # Positions p of a' sit at L-1-p in w, positions q of b' at L+q.  A pair
    # inside one side cancels on the other side (its first letter is copied
    # there, its partner pays the pair's cost); a crossing pair is one row.
    # Crossing pairs keep their order on both sides, so the rows merge the
    # two sides at each of them.
    size = len(ra)
    rows = [(x, x, s) for x, s in a.letters[:common]]

    def side_rows(letters, lo: int, hi: int, right: bool) -> None:
        for p in range(lo, hi):
            x, s = letters[p]
            other = partner[size + p if right else size - 1 - p]
            if other is None:
                y = e
            else:
                q = other - size if right else size - 1 - other
                y = x if q > p else letters[q][0]
            rows.append((y, x, s) if right else (x, y, s))

    pa = pb = 0
    crossings = [
        (size - 1 - i, partner[i] - size) for i in reversed(range(size)) if partner[i] is not None and partner[i] >= size
    ]
    for p, q in crossings + [(len(ra), len(rb))]:
        side_rows(ra, pa, p, False)
        side_rows(rb, pb, q, True)
        if p < len(ra):
            rows.append((ra[p][0], rb[q][0], ra[p][1]))
        pa, pb = p + 1, q + 1
    return best[0][m], rows


def _abelian_graev(a: GroupWord, b: GroupWord, pointed: PointedSpace, dist: tuple) -> tuple[Fraction, list]:
    """Least cost of a representation of free-abelian words, and its rows.

    Shared exponents pair at no cost.  What is left, c = net(b) - net(a),
    has the Arens-Eells norm: the least cost of moving c+ onto c-, with the
    basepoint able to give or take any amount (Weaver, *Lipschitz
    Algebras*).  With K = |c+| + |c-|, padding each side with basepoint mass
    up to K makes that a balanced transport problem, solved by
    ``kantorovich`` on masses divided by K.  Each unit of the integral plan
    K*pi spends one residual letter at each end that is not the basepoint.
    """
    e = pointed.basepoint
    net_a, net_b = dict(_net_of(a.letters)), dict(_net_of(b.letters))
    rows: list[tuple[int, int, int]] = []
    # Per point, the residual letters (is_right, x, sign) that make up c+ or c-.
    plus: dict[int, list] = {}
    minus: dict[int, list] = {}
    for x in sorted(net_a.keys() | net_b.keys()):
        u, v = net_a.get(x, 0), net_b.get(x, 0)
        if u * v > 0:
            shared = min(abs(u), abs(v))
            s = 1 if u > 0 else -1
            rows += [(x, x, s)] * shared
            u, v = u - s * shared, v - s * shared
        # c_x = v - u: right +x and left -x raise it, right -x and left +x lower it.
        for is_right, sign, count in ((True, 1, v), (False, -1, -u)):
            if count > 0:
                plus.setdefault(x, []).extend([(is_right, x, sign)] * count)
            elif count < 0:
                minus.setdefault(x, []).extend([(is_right, x, -sign)] * -count)
    total = sum(map(len, plus.values())) + sum(map(len, minus.values()))
    if total == 0:
        return Fraction(0), rows
    supply = {x: Fraction(len(units), total) for x, units in plus.items()}
    demand = {x: Fraction(len(units), total) for x, units in minus.items()}
    supply[e] = 1 - sum(supply.values())
    demand[e] = 1 - sum(demand.values())
    solved = transport.kantorovich(PairTable(dist), transport.distribution(supply), transport.distribution(demand))
    for (x, y), mass in solved.plan.items():
        if x == y == e:
            continue
        units = mass * total
        if units.denominator != 1:
            raise WitnessError(f"transport plan moves {units} units from {x} to {y}, not a whole number")
        for _ in range(units.numerator):
            ends = [plus[x].pop() for _ in range(x != e)] + [minus[y].pop() for _ in range(y != e)]
            rows += _unit_rows(ends, e)
    return solved.value * total, rows


def _unit_rows(ends: list, e: int) -> list[tuple[int, int, int]]:
    """Rows spending one or two residual letters ``(is_right, x, sign)``.

    A lone letter pairs with the basepoint.  Two letters on opposite sides
    share their sign and make one row; two on one side have opposite signs,
    and the other side gets the first letter and its inverse.
    """
    if len(ends) == 1:
        (is_right, x, s), = ends
        return [(e, x, s) if is_right else (x, e, s)]
    (r1, x1, s1), (r2, x2, s2) = ends
    if r1 != r2:
        left, right = (x2, x1) if r1 else (x1, x2)
        return [(left, right, s1)]
    return [(x1, x1, s1), (x1, x2, s2) if r1 else (x2, x1, s2)]


# Above this many terminals (the words' points and the basepoint), the
# Steiner-forest bound costs 3^t subset splits and Bell(t) partitions, and
# Swierczkowski calls go to the search.
MAX_FOREST_TERMINALS = 8


def _swierczkowski_forest(
    a: GroupWord, b: GroupWord, pointed: PointedSpace, idist, cap: int
) -> tuple[int, list | None]:
    """``(bound, rows)``: a lower bound on the integer cost of every
    Swierczkowski representation of (a, b), and the fewest rows within the
    cap that attain it (None when none fits).

    Let T hold the points of a and b and the basepoint.  The keys of a
    representation join its letters into components, and mapping each
    letter to its component (the basepoint's to the identity) takes both
    sides to one word; so the components split T into a feasible partition,
    and the keys inside each component cost at least the Steiner tree of
    its part of T.  The bound is the least summed Steiner cost over
    feasible partitions.  Rows on one cheapest forest's edges, each paid
    edge used in one orientation, cost at most the bound, so any such
    witness attains it.
    """
    e = pointed.basepoint
    terminals = sorted({e, *(x for x, _s in a.letters), *(x for x, _s in b.letters)})
    if len(terminals) > MAX_FOREST_TERMINALS:
        return 0, None
    cost, tree_edges = _steiner_trees(terminals, idist)
    bound, partitions = _cheapest_partitions(a, b, pointed, terminals, cost)
    best = None
    for blocks in partitions:
        edges = sorted({edge for block in blocks for edge in tree_edges(block)})
        rows = _shortest_witness(a, b, pointed, edges, idist, cap if best is None else len(best) - 1)
        if rows is not None:
            best = rows
    return bound, best


def _steiner_trees(terminals: list[int], idist) -> tuple[list[int], Callable]:
    """Dreyfus-Wagner over the subsets of ``terminals`` (Networks 1 (1971)).

    The costs are a pseudometric, so they are their own shortest-path
    closure and a tree edge is a direct pair.  ``tree[mask][v]`` is the
    least cost of a tree joining the terminals in ``mask`` and point v,
    reached from the junction and split in ``via[mask][v]``.  Returns the
    Steiner cost of every mask and a function giving one such tree's edges
    as sorted point pairs.
    """
    points = range(len(idist))
    tree: list = [None] * (1 << len(terminals))
    via: list = [None] * (1 << len(terminals))
    cost = [0] * (1 << len(terminals))
    for i, x in enumerate(terminals):
        tree[1 << i] = idist[x]
        via[1 << i] = [(x, 0)] * len(idist)
    for mask in range(1, 1 << len(terminals)):
        low = mask & -mask
        if mask == low:
            continue
        rest = mask ^ low
        merge, split = None, None
        sub = rest
        while sub:  # every split {low | sub, rest ^ sub} with rest ^ sub nonempty
            sub = (sub - 1) & rest
            one = low | sub
            sums = [p + q for p, q in zip(tree[one], tree[mask ^ one])]
            if merge is None:
                merge, split = sums, [one] * len(sums)
            else:
                for u, c in enumerate(sums):
                    if c < merge[u]:
                        merge[u], split[u] = c, one
        tree[mask] = row = []
        via[mask] = back = []
        for v in points:
            c, u = min((merge[u] + idist[u][v], u) for u in points)
            row.append(c)
            back.append((u, split[u]))
        cost[mask] = row[terminals[low.bit_length() - 1]]

    def tree_edges(mask: int) -> list[tuple[int, int]]:
        out = []
        todo = [(mask ^ (mask & -mask), terminals[(mask & -mask).bit_length() - 1])]
        while todo:
            mask, v = todo.pop()
            if not mask:
                continue
            u, one = via[mask][v]
            if u != v:
                out.append((min(u, v), max(u, v)))
            todo += [(one, u), (mask ^ one, u)] if one else []
        return out

    return cost, tree_edges


def _cheapest_partitions(a: GroupWord, b: GroupWord, pointed: PointedSpace, terminals: list[int], cost: list[int]):
    """``(bound, partitions)``: the least summed Steiner cost over the
    feasible partitions of the terminals, and each partition (a tuple of
    terminal masks) that attains it, in a fixed order.

    A partition is feasible when mapping each letter to its block and
    reducing, with the basepoint's block as the identity, takes a and b to
    one word; a block stands for its first terminal, or for the basepoint.
    Adding a terminal to a block never makes it cheaper, so a partial
    partition dearer than the best one found is cut.
    """
    e = pointed.basepoint
    found: list = []
    best = None

    def image(word: GroupWord, rep: dict) -> GroupWord:
        return reduce_letters([(rep[x], s) for x, s in word.letters], word.commutative, pointed)

    stack = [(0, (), 0)]  # (next terminal, blocks so far, their summed cost)
    while stack:
        i, blocks, total = stack.pop()
        if best is not None and total > best:
            continue
        if i == len(terminals):
            rep = {}
            for mask in blocks:
                members = [x for j, x in enumerate(terminals) if mask >> j & 1]
                rep.update(dict.fromkeys(members, e if e in members else members[0]))
            if image(a, rep) == image(b, rep):
                if best is None or total < best:
                    best = total
                    found.clear()
                found.append(blocks)
            continue
        # Terminal i opens a block of its own or joins one; pushed in reverse
        # so that joining the first block is tried first.
        bit = 1 << i
        stack.append((i + 1, blocks + (bit,), total))
        for k in reversed(range(len(blocks))):
            joined = blocks[k] | bit
            stack.append((i + 1, blocks[:k] + (joined,) + blocks[k + 1:], total - cost[blocks[k]] + cost[joined]))
    return best, found


def _shortest_witness(a: GroupWord, b: GroupWord, pointed: PointedSpace, edges, idist, cap: int) -> list | None:
    """The fewest rows, at most ``cap``, of a representation of (a, b) whose
    keys are forest ``edges`` or diagonal; None when none fits.

    A* over (left prefix, right prefix, orientations) with the larger side's
    need as the heuristic, which no row lowers by more than one.  A
    positive-cost edge {u, v} appears as (u, v) or (v, u), never both, so
    the rows pay it once; zero-cost edges and diagonal rows are free.
    Points that no edge touches and neither word uses would only add rows.
    """
    e = pointed.basepoint
    left, right = _prefix_tables(a, b, pointed)
    ltarget, rtarget = left.target, right.target
    moves = []  # (left code, right code, row, orientation bit it sets, bit that forbids it)
    used = {x for x, _s in a.letters + b.letters}.union(*edges) - {e}
    for x in sorted(used):
        moves += [(2 * x, 2 * x, (x, x, 1), 0, 0), (2 * x + 1, 2 * x + 1, (x, x, -1), 0, 0)]
    for i, (u, v) in enumerate(edges):
        bits = (1 << 2 * i, 2 << 2 * i) if idist[u][v] else (0, 0)
        for (p, q), own, other in (((u, v), *bits), ((v, u), *reversed(bits))):
            moves += [(2 * p, 2 * q, (p, q, 1), own, other), (2 * p + 1, 2 * q + 1, (p, q, -1), own, other)]
    start = ((), (), 0)
    heap = [(max(len(a), len(b)), 0, 0, start, None, None)]  # rows + need, -rows, seq, state, parent, row
    settled: dict = {}
    seq = 0
    while heap:
        _f, minus_depth, _seq, state, parent, row = heapq.heappop(heap)
        if state in settled:
            continue
        settled[state] = (parent, row)
        lkey, rkey, mask = state
        if lkey == ltarget and rkey == rtarget:
            rows = []
            while row is not None:
                rows.append(row)
                parent, row = settled[parent]
            return rows[::-1]
        depth = 1 - minus_depth
        ltable, rtable = left[lkey], right[rkey]
        for lcode, rcode, row, own, other in moves:
            if mask & other:
                continue
            lnext, lneed = ltable[lcode]
            rnext, rneed = rtable[rcode]
            f = depth + (lneed if lneed > rneed else rneed)
            if f > cap:
                continue
            nxt = (lnext, rnext, mask | own)
            if nxt not in settled:
                seq += 1
                heapq.heappush(heap, (f, -depth, seq, nxt, state, row))
    return None


def _check_witness(a, b, pointed, rows, value: Fraction, denom: int, idist, variant: str) -> None:
    """Raise unless the rows re-lift to ``value`` under the variant and reduce to (a, b)."""
    keys = [(x, y) for x, y, _s in rows]
    lifted = Fraction(sum(idist[x][y] for x, y in (dict.fromkeys(keys) if variant == SWIERCZKOWSKI else keys)), denom)
    left = reduce_letters([(x, s) for x, _y, s in rows], a.commutative, pointed)
    right = reduce_letters([(y, s) for _x, y, s in rows], a.commutative, pointed)
    if lifted != value or left != a or right != b:
        raise WitnessError(
            f"witness {rows!r} lifts to {lifted} against {value} and reduces to ({left!r}, {right!r})"
        )


def search_word_distance(
    a: GroupWord,
    b: GroupWord,
    pointed: PointedSpace,
    variant: str = GRAEV,
    cap: int | None = None,
    *,
    cost_table=None,
) -> ExtensionResult:
    """Least-cost search over representation prefixes, free or free-abelian.

    States are pairs of side prefixes (plus, for the distinct-pair variant,
    the set of positive-cost pairs already paid for); appending a row is a
    transition.  States are expanded in cost order, so the first matched
    state popped is the minimum over all representations within the cap; a
    state is skipped, when pushed or popped, if an already-expanded state
    with the same prefixes dominates it (no deeper, no costlier, and no
    larger paid set).  This explores the same space as the exhaustive
    stream, just with provably lossless pruning; the agreement is tested
    against the naive enumerator.

    ``cost_table`` (a nonnegative function on pairs) replaces the base
    distance.  The result's ``fiber_size_enumerated`` counts settled states.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    cap = _check_pair(a, b, cap)
    _dist, denom, idist = _integer_costs(pointed, cost_table)
    return _search(a, b, pointed, variant == SWIERCZKOWSKI, cap, denom, idist)


def _search(a, b, pointed, swier: bool, cap: int, denom: int, idist, floor: int = 0) -> ExtensionResult:
    """:func:`search_word_distance` on integer costs; a value at ``floor``,
    a lower bound of every representation's cost, is not ``cap_limited``."""
    n = pointed.n
    positive_bit: dict[tuple[int, int], int] = {}
    if swier:
        for x in range(n):
            for y in range(n):
                if idist[x][y] > 0:
                    positive_bit[(x, y)] = 1 << len(positive_bit)

    left, right = _prefix_tables(a, b, pointed)
    ltarget, rtarget = left.target, right.target
    # Rows in cost order, each with its letter codes and paid-set bit.
    rows_sorted = [
        (idist[x][y], 2 * x + (s == -1), 2 * y + (s == -1), (x, y, s), positive_bit.get((x, y), 0))
        for _base, _sord, x, y, s in sorted(
            (idist[x][y], 0 if s == 1 else 1, x, y, s) for x in range(n) for y in range(n) for s in (1, -1)
        )
    ]

    # Heap entries: cost, push order, depth, state (lkey, rkey, mask), and the
    # settled state and row it was pushed from; a state's parent is recorded
    # only when it settles.
    heap = [(0, 0, 0, ((), (), 0), -1, None)]
    parents: list[tuple[int, tuple | None]] = []  # settled state -> (its parent, its row)
    seq = 0
    settled: dict[tuple, list[tuple[int, int]]] = {}  # (l, r) -> [(mask, depth)]

    while heap:
        cost, _seq, depth, (lkey, rkey, mask), parent, row = heapq.heappop(heap)
        entries = settled.setdefault((lkey, rkey), [])
        if any(m & mask == m and d <= depth for m, d in entries):
            continue
        entries[:] = [(m, d) for m, d in entries if not (mask & m == mask and depth <= d)]
        entries.append((mask, depth))
        me = len(parents)
        parents.append((parent, row))
        if lkey == ltarget and rkey == rtarget:
            rows = []
            while row is not None:
                rows.append(row)
                parent, row = parents[parent]
            return _word_result(Fraction(cost, denom), reversed(rows), len(parents), cost > floor)
        if depth == cap:
            continue
        remaining = cap - depth - 1
        depth += 1
        # Successor prefixes that can still reach their target, else None.
        lnexts = [nxt if k <= remaining else None for nxt, k in left[lkey]]
        rnexts = [nxt if k <= remaining else None for nxt, k in right[rkey]]
        for base, lcode, rcode, row, bit in rows_sorted:
            lnext = lnexts[lcode]
            if lnext is None:
                continue
            rnext = rnexts[rcode]
            if rnext is None:
                continue
            if swier:
                step = 0 if mask & bit else base
                nmask = mask | bit
            else:
                step, nmask = base, 0
            seen = settled.get((lnext, rnext))
            if seen and any(m & nmask == m and d <= depth for m, d in seen):
                continue
            seq += 1
            heapq.heappush(heap, (cost + step, seq, depth, (lnext, rnext, nmask), me, row))

    raise EmptyFiberError(f"no proper representation of ({a!r}, {b!r}) within cap {cap}")


def naive_word_distance(
    a: GroupWord, b: GroupWord, pointed: PointedSpace, cap: int | None = None
) -> tuple[dict[str, Fraction | None], int]:
    """Independent oracle: generate every signed letter string pair up to the
    cap, filter by reduction, take the minimum.  One pass answers both
    variants: returns ``{variant: minimum}`` (None for an empty fiber) and
    the number of pairs.  Exponential; tiny inputs only."""
    cap = _check_pair(a, b, cap)
    n = pointed.n
    dist = pointed.space.dist
    commutative = a.commutative
    best = dict.fromkeys(VARIANTS)
    count = 0

    def reducing_to(word: GroupWord, signs: tuple) -> list[tuple]:
        strings = itertools.product(range(n), repeat=len(signs))
        return [xs for xs in strings if reduce_letters(list(zip(xs, signs)), commutative, pointed) == word]

    for length in range(cap + 1):
        for signs in itertools.product((1, -1), repeat=length):
            lefts = reducing_to(a, signs)
            rights = reducing_to(b, signs) if lefts else []
            for xs in lefts:
                for ys in rights:
                    count += 1
                    pairs = list(zip(xs, ys))
                    for variant, low in best.items():
                        cost = letter_sum_lift(lambda p: dist[p[0]][p[1]], pairs, variant)
                        if low is None or cost < low:
                            best[variant] = cost
    return best, count


_pair_key, _point_key = itemgetter(0, 1), itemgetter(0)


class WordsFunctor(Functor):
    """Group-word instance; ctx is a PointedSpace.

    Naturality of the letter-sum lifts holds for injective basepoint-
    preserving maps, under which the letterwise image of a reduced word is
    already reduced.  A collapsing map can cancel image letters (or merge
    distinct ones, for the distinct-letter variant), changing the lifted
    value, so harnesses sample injective maps for these instances.
    """

    capped_fiber = True

    def __init__(self, variant: str = GRAEV, commutative: bool = False, cap: int | None = None):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        self.variant = variant
        self.commutative = commutative
        self.cap = cap
        self.name = f"{'abelian' if commutative else 'words'}[{variant}]"

    def space_of(self, ctx: PointedSpace):
        return ctx.space

    def validate_element(self, elem, ctx) -> None:
        if not isinstance(elem, GroupWord) or elem.commutative != self.commutative:
            raise ElementDomainError(f"expected a {'commutative' if self.commutative else 'free'} word, got {elem!r}")
        if reduce_letters(elem.letters, self.commutative, ctx) != elem:
            raise ElementDomainError(f"word {elem!r} is not in reduced form over this space")

    def embed(self, ctx: PointedSpace, i: int) -> GroupWord:
        return reduce_letters([(i, 1)], self.commutative, ctx)

    def apply_map(self, fn, elem: GroupWord, dst_ctx: PointedSpace = None):
        if dst_ctx is None:
            raise ValueError("word instances need the target pointed space to reduce images")
        return reduce_letters([(fn(x), s) for x, s in elem.letters], self.commutative, dst_ctx)

    def marginals(self, coupling: ProperRepresentationPair, ctx: PointedSpace):
        left = reduce_letters(coupling.left_letters(), self.commutative, ctx)
        right = reduce_letters(coupling.right_letters(), self.commutative, ctx)
        return left, right

    def swap_coupling(self, coupling: ProperRepresentationPair, ctx):
        return ProperRepresentationPair(tuple((b, a, s) for a, b, s in coupling.rows))

    def diagonal_coupling(self, elem: GroupWord, ctx):
        return ProperRepresentationPair(tuple((x, x, s) for x, s in elem.letters))

    def fiber(self, a, b, ctx, cap: int | None = None) -> Iterator[ProperRepresentationPair]:
        return enumerate_proper_representations(a, b, ctx, cap if cap is not None else self.cap)

    def fiber_minimum(self, a, b, ctx, rank, stop_at_zero):
        weight = [rank((x, y)) for x in range(ctx.n) for y in range(ctx.n)]
        walk = _representation_walk(a, b, ctx, self.cap, weight, self.variant == SWIERCZKOWSKI)
        best, rows, count = first_minimum(walk, stop_at_zero)
        return best, None if rows is None else ProperRepresentationPair(rows), count

    def lift(self, fn, elem) -> Fraction:
        if elem.__class__ is ProperRepresentationPair:
            keys = map(_pair_key, elem.rows)
        else:
            keys = map(_point_key, elem.letters)
        return sum(map(fn, dict.fromkeys(keys) if self.variant == SWIERCZKOWSKI else keys))

    def enumerate_elements(self, ctx: PointedSpace, cap: int) -> Iterator[GroupWord]:
        if self.commutative:
            points = [x for x in range(ctx.n) if x != ctx.basepoint]

            def nets(idx: int, budget: int, acc: list):
                if idx == len(points):
                    letters = []
                    for x, v in acc:
                        s = 1 if v > 0 else -1
                        letters.extend((x, s) for _ in range(abs(v)))
                    yield GroupWord(tuple(letters), True)
                    return
                x = points[idx]
                for v in range(-budget, budget + 1):
                    yield from nets(idx + 1, budget - abs(v), acc + ([(x, v)] if v else []))

            return nets(0, cap, [])

        def walk(prefix: list) -> Iterator[GroupWord]:
            yield GroupWord(tuple(prefix), False)
            if len(prefix) == cap:
                return
            for x in range(ctx.n):
                if x == ctx.basepoint:
                    continue
                for s in (1, -1):
                    if prefix and prefix[-1] == (x, -s):
                        continue
                    prefix.append((x, s))
                    yield from walk(prefix)
                    prefix.pop()

        return walk([])

    def distance(self, ctx, table, a, b, cap: int | None = None):
        if cap is None:
            cap = self.cap
        return graev_distance(a, b, ctx, self.variant, cap, cost_table=table)

    @staticmethod
    def is_exact(result: ExtensionResult) -> bool:
        """Whether an answer is exact: the exact paths settle no search
        state, and every search or fiber minimum settles at least one."""
        return result.fiber_size_enumerated == 0

    @classmethod
    def from_request(cls, request: dict) -> "WordsFunctor":
        return cls(request["variant"], commutative=request["abelian"], cap=request["cap"])

    def context(self, space: FiniteMetricSpace, basepoint: str | None) -> PointedSpace:
        if basepoint is None:
            raise ParseError('word distances need a "basepoint" entry in the space file')
        return pointed_space(space, basepoint)

    def solver_fault(self, result: ExtensionResult) -> str:
        return "words-dp" if self.is_exact(result) else "words-search"

    def flags(self, result: ExtensionResult, a: GroupWord, b: GroupWord, method: str) -> dict:
        return {
            "search_states" if method == "specialized" else "fiber_size": result.fiber_size_enumerated,
            "cap": default_cap(a, b) if self.cap is None else self.cap,
            "cap_limited": result.cap_limited,
            "certified": "exact" if self.is_exact(result) else "exhaustive_within_cap",
        }

    def parse_element(self, obj, ctx) -> GroupWord:
        return parse_word(obj, ctx, self.commutative)

    def format_coupling(self, coupling: ProperRepresentationPair, ctx) -> list:
        pts = ctx.space.points
        return [[pts[x1], pts[x2], s] for x1, x2, s in coupling.rows]

    def parse_coupling(self, obj, ctx) -> ProperRepresentationPair:
        rows = []
        for row in obj:
            if len(row) != 3 or row[2] not in (1, -1):
                raise ParseError(f"bad representation row {row!r}")
            rows.append((ctx.space.index(row[0]), ctx.space.index(row[1]), row[2]))
        return ProperRepresentationPair(tuple(rows))
