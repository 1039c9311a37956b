"""Group words over a pointed space: Graev and Swierczkowski distances.

Elements are reduced words whose letters are points of the space; the
basepoint acts as the group identity, so basepoint letters vanish and
adjacent inverse pairs cancel (free case), or net exponents are taken per
point (free-abelian case).

The distance between two reduced words is the minimum, over pairs of
equal-length equal-signature letter strings reducing to them, of the sum of
letterwise base distances: over every position for the "graev" variant,
over distinct letter pairs only for the "swierczkowski" variant.  Nothing
bounds the optimal string length a priori, so the search runs under an
explicit cap (default: combined reduced length plus two) and results carry
a ``cap_limited`` flag; a capped value is an upper bound of the true
infimum that is certified exhaustive within its cap.

Two search paths exist on purpose.  ``enumerate_proper_representations``
streams every representation pair within the cap (used as the coupling
fiber and by exhaustiveness tests); the distance minimizer expands
representation prefixes in cost order with provably lossless pruning
(prefix feasibility and state dominance) and returns the same minimum.
``naive_word_distance`` is the independent generate-and-filter oracle.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .core import FiniteMetricSpace, ParseError
from .extension import CheckReport, EmptyFiberError, ExtensionResult, Functor

GRAEV = "graev"
SWIERCZKOWSKI = "swierczkowski"
VARIANTS = (GRAEV, SWIERCZKOWSKI)


class CapTooSmallError(ValueError):
    """No representation can exist below the reduced word length."""


@dataclass(frozen=True)
class PointedSpace:
    space: FiniteMetricSpace
    basepoint: int

    def __post_init__(self):
        if not 0 <= self.basepoint < self.space.n:
            raise ValueError(f"basepoint index {self.basepoint} out of range")

    @property
    def n(self) -> int:
        return self.space.n


def pointed_space(space: FiniteMetricSpace, basepoint_label: str) -> PointedSpace:
    return PointedSpace(space, space.index(basepoint_label))


@dataclass(frozen=True)
class GroupWord:
    """A canonically reduced word; build through :func:`reduce_letters`."""

    letters: tuple[tuple[int, int], ...]
    commutative: bool = False

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> "GroupWord":
        if self.commutative:
            flipped = tuple(sorted((x, -s) for x, s in self.letters))
            return GroupWord(flipped, True)
        return GroupWord(tuple((x, -s) for x, s in reversed(self.letters)), False)


def reduce_letters(letters: Sequence[tuple[int, int]], commutative: bool, pointed: PointedSpace) -> GroupWord:
    """Canonical reduced form; independent of the order cancellations are
    applied in, which the confluence tests exercise directly."""
    e = pointed.basepoint
    for x, s in letters:
        if not 0 <= x < pointed.n:
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


def concat(a: GroupWord, b: GroupWord, pointed: PointedSpace) -> GroupWord:
    if a.commutative != b.commutative:
        raise ValueError("cannot concatenate free and free-abelian words")
    return reduce_letters(a.letters + b.letters, a.commutative, pointed)


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


@dataclass(frozen=True)
class ProperRepresentationPair:
    """Equal-signature letter strings whose sides reduce to the two words."""

    rows: tuple[tuple[int, int, int], ...]  # (left letter, right letter, sign)

    def left_letters(self) -> tuple[tuple[int, int], ...]:
        return tuple((a, s) for a, _b, s in self.rows)

    def right_letters(self) -> tuple[tuple[int, int], ...]:
        return tuple((b, s) for _a, b, s in self.rows)


def letter_sum_lift(fn, keys: Sequence, variant: str) -> Fraction:
    """Sum fn over all positions (graev) or over distinct keys only
    (swierczkowski); keys are points for words, pairs for representations."""
    if variant == GRAEV:
        return sum((fn(k) for k in keys), Fraction(0))
    if variant == SWIERCZKOWSKI:
        return sum((fn(k) for k in dict.fromkeys(keys)), Fraction(0))
    raise ValueError(f"unknown variant {variant!r}")


def word_lift(fn, item, variant: str) -> Fraction:
    if isinstance(item, ProperRepresentationPair):
        return letter_sum_lift(fn, [(a, b) for a, b, _s in item.rows], variant)
    return letter_sum_lift(fn, [x for x, _s in item.letters], variant)


def default_cap(a: GroupWord, b: GroupWord) -> int:
    return len(a) + len(b) + 2


class _FreeSide:
    """Incremental reduced prefix of one side of a representation."""

    def __init__(self, target: tuple, basepoint: int):
        self.stack: list[tuple[int, int]] = []
        self.target = target
        self.e = basepoint

    def push(self, x: int, s: int):
        if x == self.e:
            return ("noop", None)
        if self.stack and self.stack[-1] == (x, -s):
            return ("pop", self.stack.pop())
        self.stack.append((x, s))
        return ("push", None)

    def undo(self, token):
        kind, payload = token
        if kind == "pop":
            self.stack.append(payload)
        elif kind == "push":
            self.stack.pop()

    def matched(self) -> bool:
        return len(self.stack) == len(self.target) and tuple(self.stack) == self.target

    def feasible(self, remaining: int) -> bool:
        # Each appended letter moves the reduced prefix by at most one step
        # toward the target: pop down to the common prefix, then push the
        # target's remainder.
        stack, target = self.stack, self.target
        c = 0
        limit = min(len(stack), len(target))
        while c < limit and stack[c] == target[c]:
            c += 1
        return (len(stack) - c) + (len(target) - c) <= remaining

    def key(self) -> tuple:
        return tuple(self.stack)


class _AbelianSide:
    """Net exponents per point, tracking L1 distance to the target."""

    def __init__(self, target_word: tuple, basepoint: int):
        self.e = basepoint
        self.net: dict[int, int] = {}
        self.target: dict[int, int] = {}
        for x, s in target_word:
            self.target[x] = self.target.get(x, 0) + s
        self.distance = sum(abs(v) for v in self.target.values())

    def push(self, x: int, s: int):
        if x == self.e:
            return ("noop", None)
        before = abs(self.net.get(x, 0) - self.target.get(x, 0))
        self.net[x] = self.net.get(x, 0) + s
        self.distance += abs(self.net[x] - self.target.get(x, 0)) - before
        return ("step", (x, s))

    def undo(self, token):
        kind, payload = token
        if kind == "step":
            x, s = payload
            before = abs(self.net[x] - self.target.get(x, 0))
            self.net[x] -= s
            self.distance += abs(self.net[x] - self.target.get(x, 0)) - before

    def matched(self) -> bool:
        return self.distance == 0

    def feasible(self, remaining: int) -> bool:
        return self.distance <= remaining

    def key(self) -> tuple:
        return tuple(sorted((x, v) for x, v in self.net.items() if v != 0))


def _make_side(target: GroupWord, basepoint: int):
    if target.commutative:
        return _AbelianSide(target.letters, basepoint)
    return _FreeSide(target.letters, basepoint)


def _check_pair(a: GroupWord, b: GroupWord, cap: int | None) -> int:
    if a.commutative != b.commutative:
        raise ValueError("words must both be free or both be free-abelian")
    cap = default_cap(a, b) if cap is None else cap
    if cap < max(len(a), len(b)):
        raise CapTooSmallError(
            f"cap {cap} is below the reduced word length {max(len(a), len(b))}"
        )
    return cap


def enumerate_proper_representations(
    a: GroupWord, b: GroupWord, pointed: PointedSpace, cap: int | None = None
) -> Iterator[ProperRepresentationPair]:
    """Every representation pair of length <= cap, in depth-first order.

    Pruning is feasibility-only (a side that can no longer reach its target
    within the remaining rows is cut), so the stream is exhaustive within
    the cap.
    """
    cap = _check_pair(a, b, cap)
    n = pointed.n
    left = _make_side(a, pointed.basepoint)
    right = _make_side(b, pointed.basepoint)
    rows: list[tuple[int, int, int]] = []

    def walk(depth: int) -> Iterator[ProperRepresentationPair]:
        if left.matched() and right.matched():
            yield ProperRepresentationPair(tuple(rows))
        if depth == cap:
            return
        remaining = cap - depth - 1
        for s in (1, -1):
            for x in range(n):
                ltoken = left.push(x, s)
                if not left.feasible(remaining):
                    left.undo(ltoken)
                    continue
                for y in range(n):
                    rtoken = right.push(y, s)
                    if right.feasible(remaining):
                        rows.append((x, y, s))
                        yield from walk(depth + 1)
                        rows.pop()
                    right.undo(rtoken)
                left.undo(ltoken)

    return walk(0)


@dataclass(frozen=True)
class WordDistanceResult:
    value: Fraction
    witness: ProperRepresentationPair
    cap: int
    cap_limited: bool
    states_settled: int


def _free_push(stack: tuple, x: int, s: int, e: int) -> tuple:
    if x == e:
        return stack
    if stack and stack[-1] == (x, -s):
        return stack[:-1]
    return stack + ((x, s),)


def _free_need(stack: tuple, target: tuple) -> int:
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
    cur = dict(net)
    total = 0
    for x, v in target:
        total += abs(cur.pop(x, 0) - v)
    total += sum(abs(v) for v in cur.values())
    return total


def _minimize_over_representations(
    a: GroupWord,
    b: GroupWord,
    pointed: PointedSpace,
    variant: str,
    cap: int | None,
    cost_table=None,
) -> WordDistanceResult:
    """Least-cost search over representation prefixes.

    States are pairs of reduced prefixes (plus, for the distinct-pair
    variant, the set of positive-cost pairs already paid for); appending a
    row is a transition.  States are expanded in cost order, so the first
    matched state popped is the minimum over all representations within the
    cap; a state is skipped when an already-expanded state with the same
    prefixes dominates it (no deeper, no costlier, and no larger paid set).
    This explores the same space as the exhaustive stream, just with
    provably lossless pruning; the agreement is tested against the naive
    enumerator.

    Each side's prefix gets a transition table the first time a state holding
    it is expanded: per letter code ``2*x + (s == -1)``, the successor prefix
    and the letters it still needs to reach its target.  Tables live for one
    search.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    cap = _check_pair(a, b, cap)
    n = pointed.n
    e = pointed.basepoint
    if cost_table is None:
        dist = pointed.space.dist
    else:
        dist = tuple(tuple(cost_table((x, y)) for y in range(n)) for x in range(n))
        if any(v < 0 for row in dist for v in row):
            raise ValueError("representation search requires a nonnegative cost table")
    # Integer costs keep the heap fast; scale by the common denominator.
    denom = 1
    for row in dist:
        for v in row:
            denom = denom * v.denominator // math.gcd(denom, v.denominator)
    idist = [[int(v * denom) for v in row] for row in dist]

    swier = variant == SWIERCZKOWSKI
    positive_bit: dict[tuple[int, int], int] = {}
    if swier:
        for x in range(n):
            for y in range(n):
                if idist[x][y] > 0:
                    positive_bit[(x, y)] = 1 << len(positive_bit)

    if a.commutative:
        push, need = _net_push, _net_need
        ltarget, rtarget = _net_of(a.letters), _net_of(b.letters)
    else:
        push, need = _free_push, _free_need
        ltarget, rtarget = a.letters, b.letters

    letters = [(x, s) for x in range(n) for s in (1, -1)]  # in letter-code order

    def transitions(key: tuple, target: tuple) -> list[tuple[tuple, int]]:
        return [(nxt, need(nxt, target)) for nxt in (push(key, x, s, e) for x, s in letters)]

    ltables: dict[tuple, list[tuple[tuple, int]]] = {}
    rtables: dict[tuple, list[tuple[tuple, int]]] = {}
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
            return WordDistanceResult(
                value=Fraction(cost, denom),
                witness=ProperRepresentationPair(tuple(rows)),
                cap=cap,
                cap_limited=(cost != 0),
                states_settled=states,
            )
        if depth == cap:
            continue
        remaining = cap - depth - 1
        ltable = ltables.get(lkey)
        if ltable is None:
            ltable = ltables[lkey] = transitions(lkey, ltarget)
        rtable = rtables.get(rkey)
        if rtable is None:
            rtable = rtables[rkey] = transitions(rkey, rtarget)
        # Successor prefixes that can still reach their target, else None.
        lnexts = [nxt if k <= remaining else None for nxt, k in ltable]
        rnexts = [nxt if k <= remaining else None for nxt, k in rtable]
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


def graev_distance(
    a: GroupWord, b: GroupWord, pointed: PointedSpace, variant: str = GRAEV, cap: int | None = None
) -> WordDistanceResult:
    if a.commutative or b.commutative:
        raise ValueError("graev_distance expects free (noncommutative) words")
    return _minimize_over_representations(a, b, pointed, variant, cap)


def abelian_distance(
    a: GroupWord, b: GroupWord, pointed: PointedSpace, variant: str = GRAEV, cap: int | None = None
) -> WordDistanceResult:
    """Free-abelian analog: identical machinery, sides compared after
    commutative reduction."""
    if not (a.commutative and b.commutative):
        raise ValueError("abelian_distance expects commutative words")
    return _minimize_over_representations(a, b, pointed, variant, cap)


def naive_word_distance(
    a: GroupWord, b: GroupWord, pointed: PointedSpace, variant: str, cap: int | None = None
) -> tuple[Fraction | None, int]:
    """Independent oracle: generate every signed letter string pair up to the
    cap, filter by reduction, take the minimum.  Exponential; tiny inputs
    only."""
    cap = _check_pair(a, b, cap)
    n = pointed.n
    dist = pointed.space.dist
    commutative = a.commutative
    best = None
    count = 0
    for length in range(cap + 1):
        for signs in itertools.product((1, -1), repeat=length):
            for xs in itertools.product(range(n), repeat=length):
                if reduce_letters(list(zip(xs, signs)), commutative, pointed) != a:
                    continue
                for ys in itertools.product(range(n), repeat=length):
                    if reduce_letters(list(zip(ys, signs)), commutative, pointed) != b:
                        continue
                    count += 1
                    cost = letter_sum_lift(
                        lambda p: dist[p[0]][p[1]], list(zip(xs, ys)), variant
                    )
                    if best is None or cost < best:
                        best = cost
    return best, count


def check_word_pseudometric_axioms(
    pointed: PointedSpace,
    variant: str,
    triples: Sequence[tuple[GroupWord, GroupWord, GroupWord]],
    *,
    retries: int = 1,
) -> CheckReport:
    """Identity, symmetry and triangle under the shared-cap protocol.

    All three distances of a triple are computed at cap |A|+|B|+|C|+2 so the
    values are certified at compatible exhaustiveness; an apparent triangle
    violation is retried at cap+2 (capped values are upper bounds and may
    shrink) before being reported.
    """
    commutative = triples[0][0].commutative if triples else False
    minimize = abelian_distance if commutative else graev_distance
    report = CheckReport(f"pseudometric-axioms[words-{variant}{'-abelian' if commutative else ''}]")
    words = []
    for triple in triples:
        for w in triple:
            if w not in words:
                words.append(w)
    for w in words:
        report.checked += 1
        value = minimize(w, w, pointed, variant).value
        if value != 0:
            report.fail(f"d(w,w) = {value} != 0 for {w!r}")
    for a, b, _c in triples:
        cap = len(a) + len(b) + 2
        report.checked += 1
        if minimize(a, b, pointed, variant, cap).value != minimize(b, a, pointed, variant, cap).value:
            report.fail(f"asymmetric values for ({a!r}, {b!r})")
    for a, b, c in triples:
        cap = len(a) + len(b) + len(c) + 2
        report.checked += 1
        ok = False
        for attempt in range(retries + 1):
            shared = cap + 2 * attempt
            dab = minimize(a, b, pointed, variant, shared).value
            dbc = minimize(b, c, pointed, variant, shared).value
            dac = minimize(a, c, pointed, variant, shared).value
            if dac <= dab + dbc:
                ok = True
                break
        if not ok:
            report.fail(
                f"triangle at cap {shared}: d(a,c)={dac} > {dab} + {dbc} for ({a!r},{b!r},{c!r})"
            )
    return report


class WordsFunctor(Functor):
    """Group-word instance; ctx is a PointedSpace.

    Naturality of the letter-sum lifts holds for injective basepoint-
    preserving maps, under which the letterwise image of a reduced word is
    already reduced.  A collapsing map can cancel image letters (or merge
    distinct ones, for the distinct-letter variant), changing the lifted
    value, so harnesses sample injective maps for these instances.
    """

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
        from .extension import ElementDomainError

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
        result = _minimize_over_representations(a, b, ctx, self.variant, cap, cost_table=table)
        return ExtensionResult(result.value, result.witness, result.states_settled, result.cap_limited)

    def parse_element(self, obj, ctx) -> GroupWord:
        return parse_word(obj, ctx, self.commutative)

    def format_element(self, elem: GroupWord, ctx) -> list:
        return format_word(elem, ctx)

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
