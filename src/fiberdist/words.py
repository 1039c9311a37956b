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

``graev_distance`` answers the Graev variant exactly and cap-free: an
interval program over non-crossing matchings for free words, and a padded
``kantorovich`` transport (the Arens-Eells norm) for free-abelian words.
Either builds a witness of at most |a|+|b| rows and checks it by re-lifting
and reducing; the answer stands whenever that witness fits the cap.  The
Swierczkowski variant has no such bound on the optimal string length, so
it (and any Graev call the exact path cannot answer) goes to
``search_word_distance``, whose results carry a ``cap_limited`` flag: a
capped value is an upper bound of the true infimum that is certified
exhaustive within its cap.

``enumerate_proper_representations`` streams every representation pair
within the cap (the coupling fiber), and ``search_word_distance`` expands
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
from typing import Iterable, Iterator, Sequence

from . import transport  # by module, so a tracer that patches kantorovich sees these calls
from .core import (
    FiniteMetricSpace, PairTable, ParseError, SpaceValidationError, Value, scale_to_integers, set_field, validate_space,
)
from .extension import (
    GRAEV, SWIERCZKOWSKI, VARIANTS, ComputeError, ElementDomainError, EmptyFiberError, ExtensionResult, Functor,
)


class CapTooSmallError(ComputeError, ValueError):
    """No representation can exist below the reduced word length."""


class WitnessError(ComputeError, RuntimeError):
    """A constructed representation does not re-lift to its value or does
    not reduce to the two words: an invariant of the exact path broke."""


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


def word_lift(fn, item, variant: str) -> Fraction:
    if isinstance(item, ProperRepresentationPair):
        return letter_sum_lift(fn, map(itemgetter(0, 1), item.rows), variant)
    return letter_sum_lift(fn, map(itemgetter(0), item.letters), variant)


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


def enumerate_proper_representations(
    a: GroupWord, b: GroupWord, pointed: PointedSpace, cap: int | None = None
) -> Iterator[ProperRepresentationPair]:
    """Every representation pair of length <= cap, in depth-first order.

    Pruning is feasibility-only (a side that can no longer reach its target
    within the remaining rows is cut), so the stream is exhaustive within
    the cap.  The walk keeps one explicit stack of successor iterators; a
    state's successors depend only on its two prefixes and its depth, so
    each such list is built once per stream.
    """
    cap = _check_pair(a, b, cap)
    n = pointed.n
    left, right = _prefix_tables(a, b, pointed)
    ltarget, rtarget = left.target, right.target
    successors: dict[tuple, list] = {}

    def expand(key: tuple) -> list:
        # The feasible rows (x, y, s) of state (lkey, rkey, depth) in sign, then x, then y
        # order, each with the state it leads to and whether that completes a representation.
        lkey, rkey, depth = key
        remaining = cap - depth - 1
        ltable, rtable = left[lkey], right[rkey]
        out = []
        for s in (1, -1):
            neg = s == -1
            ys = [(y, rnext) for y, (rnext, rneed) in enumerate(rtable[neg::2]) if rneed <= remaining]
            for x, (lnext, lneed) in enumerate(ltable[neg::2]):
                if lneed <= remaining:
                    done = lnext == ltarget
                    out.extend(((x, y, s), (lnext, rnext, depth + 1), done and rnext == rtarget) for y, rnext in ys)
        successors[key] = out
        return out

    def stream() -> Iterator[ProperRepresentationPair]:
        if ltarget == () and rtarget == ():
            yield ProperRepresentationPair(())
        rows: list[tuple[int, int, int]] = []
        stack = [iter(expand(((), (), 0)))]  # stack[d] walks the rows at depth d
        while stack:
            for row, key, done in stack[-1]:
                rows.append(row)
                if done:
                    yield ProperRepresentationPair(tuple(rows))
                below = successors.get(key)
                if below is None:
                    below = expand(key)
                if below:
                    stack.append(iter(below))
                    break
                rows.pop()
            else:
                stack.pop()
                if rows:
                    rows.pop()

    return stream()


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

    For the Graev variant under a pseudometric cost, the value has a closed
    form that needs no search: the non-crossing matching program for free
    words (:func:`_free_graev`) and the Arens-Eells transport for
    free-abelian words (:func:`_abelian_graev`).  Their witness has at most
    ``|a| + |b|`` rows, is checked by re-lifting and reducing, and answers
    whenever it fits the cap: the minimum within a cap is at least the
    infimum, which the witness attains.  Such answers are exact, so
    ``cap_limited`` is false and ``fiber_size_enumerated`` is 0.  Every
    other call (the Swierczkowski variant, a cost that is no pseudometric,
    a cap below the witness) is answered by :func:`search_word_distance`.

    ``cost_table`` (a nonnegative function on pairs) replaces the base
    distance.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    cap = _check_pair(a, b, cap)
    if variant == GRAEV:
        dist, denom, idist = _integer_costs(pointed, cost_table)
        if dist == pointed.space.dist or _is_pseudometric(pointed.space.points, dist):
            if a.commutative:
                value, rows = _abelian_graev(a, b, pointed, dist)
            else:
                cost, rows = _free_graev(a, b, pointed, idist)
                value = Fraction(cost, denom)
            _check_witness(a, b, pointed, rows, value, denom, idist)
            if len(rows) <= cap:
                return ExtensionResult(value, ProperRepresentationPair(tuple(rows)), 0, False)
    return search_word_distance(a, b, pointed, variant, cap, cost_table=cost_table)


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


def _check_witness(a, b, pointed, rows, value: Fraction, denom: int, idist) -> None:
    """Raise unless the rows re-lift to ``value`` and reduce to (a, b)."""
    lifted = Fraction(sum(idist[x][y] for x, y, _s in rows), denom)
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
    state is skipped when an already-expanded state with the same prefixes
    dominates it (no deeper, no costlier, and no larger paid set).  This
    explores the same space as the exhaustive stream, just with provably
    lossless pruning; the agreement is tested against the naive enumerator.

    ``cost_table`` (a nonnegative function on pairs) replaces the base
    distance.  The result's ``fiber_size_enumerated`` counts settled states.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    cap = _check_pair(a, b, cap)
    n = pointed.n
    # Integer costs keep the heap fast.
    _dist, denom, idist = _integer_costs(pointed, cost_table)

    swier = variant == SWIERCZKOWSKI
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

    start = ((), (), 0)  # lkey, rkey, mask
    heap = [(0, 0, 0, start)]  # cost, seq, depth, state
    parents: dict[int, tuple[int, tuple | None]] = {0: (-1, None)}
    seq = 0
    settled: dict[tuple, list[tuple[int, int]]] = {}  # (l, r) -> [(mask, depth)]
    states = 0

    while heap:
        cost, me, depth, (lkey, rkey, mask) = heapq.heappop(heap)
        entries = settled.setdefault((lkey, rkey), [])
        if any(m & mask == m and d <= depth for m, d in entries):
            continue
        entries[:] = [(m, d) for m, d in entries if not (mask & m == mask and depth <= d)]
        entries.append((mask, depth))
        states += 1
        if lkey == ltarget and rkey == rtarget:
            rows = []
            node = me
            while node != -1:
                parent, row = parents[node]
                if row is not None:
                    rows.append(row)
                node = parent
            rows.reverse()
            return ExtensionResult(
                Fraction(cost, denom), ProperRepresentationPair(tuple(rows)), states, cost != 0
            )
        if depth == cap:
            continue
        remaining = cap - depth - 1
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
            seq += 1
            parents[seq] = (me, row)
            heapq.heappush(heap, (cost + step, seq, depth + 1, (lnext, rnext, nmask)))

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

    def lift(self, fn, elem) -> Fraction:
        return word_lift(fn, elem, self.variant)

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
        """Whether an answer is exact: the closed forms settle no search
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
