"""Group words over a pointed space: Graev and Swierczkowski distances.

Elements are the :func:`reduce_letters` images of letter strings over the
space's points; the basepoint is the group identity, so its letters vanish
and adjacent inverse pairs cancel (free case), or net exponents are taken
per point (free-abelian case).

The distance between two reduced words is the minimum, over pairs of
equal-length equal-signature letter strings reducing to them, of the
letter-sum lift (:meth:`WordsFunctor.lift`) of the base distances: over
every row for "graev", over distinct letter pairs for "swierczkowski".  Every
distance is taken within a cap on the string length (default: combined
reduced length plus two).

``graev_distance`` answers both variants exactly whenever a witness
attaining a cap-free lower bound fits the cap.  For Graev, the bound is the
value itself: an interval program over non-crossing matchings for free
words, and the Arens-Eells norm for free-abelian words (a padded transport
of integer unit counts, solved by ``kantorovich``'s flow kernel on the
integer costs, or the forced plan to or from the basepoint when the
residual exponents share a sign), each with a witness of at most |a|+|b|
rows.  For Swierczkowski, the bound is the least summed Steiner-tree cost
over the partitions of the words' points that make the two words equal once
each block is one letter, and the witness is the shortest representation on
one cheapest forest's edges.  The Steiner trees and the partitions, ranked by
cost, depend only on the integer costs, the basepoint and the words' points,
so each such key's are built once and kept, in one cache bounded by the
partitions it holds (:data:`_FORESTS_LIMIT`); a call tests the partitions in
rank order, up to the first dearer than a feasible one.  Every such witness
is checked by
:meth:`~fiberdist.extension.Functor.check_witness`: it must lift to the value
on the integer costs and its two sides must reduce to the two words.  The
other calls (a witness longer than the cap, or none found) go to
``search_word_distance``, whose results carry a ``cap_limited`` flag:
a capped value is an upper bound of the true infimum that is certified
exhaustive within its cap, and is exact when it meets the bound.  The costs
are the pointed space's own distances, which
:func:`~fiberdist.core.validate_space` made a (pseudo)metric;
:meth:`WordsFunctor.distance` sends any other table to the generic minimum.

The representations within the cap (the coupling fiber) form a DAG over
states (left prefix, right prefix, depth), built once per call a depth at
a time, with one live flag per state set from the deepest depth up.
``enumerate_proper_representations`` streams them by a pre-order walk of
its live states, and the generic minimum
(:meth:`WordsFunctor.fiber_minimum`) folds the same DAG bottom-up instead,
once per live state (and per set of paid keys, for Swierczkowski), so it
costs the DAG's size rather than the fiber's.
``search_word_distance`` expands representation prefixes in cost order with
provably lossless pruning (prefix feasibility and state dominance) and
returns the minimum over that stream.  All three read one prefix model: per
side, the reduced prefix (free) or net exponents (free-abelian), interned
once per word as a small int id, with a lazily built per-prefix transition
table that gives, per letter, the next prefix's id and how many ``+`` and
``-`` letters it still needs.  So the DAG and both searches key their
states by int pairs or triples and find the targets by comparing ints,
never letter tuples.  The tables and ids depend only on the side's word and
the space's size and basepoint, so each word's are built once and kept for
every later call, in one cache bounded by its prefix tables
(:data:`_TABLES_LIMIT`); the integer costs are the rows of the space's
table's :attr:`~fiberdist.core.PairTable.integer_view`, which
:func:`~fiberdist.core.validate_space` computed once.  A row puts one
sign on both sides, so a prefix pair needs at least the larger side's count
of each sign in rows; the DAG and both searches cut every pair that cannot
finish within the cap, as no representation passes through it.  The DAG,
the fold and the two searches stop at :data:`MAX_STATES` states.
``naive_word_distance`` reduces every candidate string from scratch and is
the independent oracle for all of them.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from . import transport  # by module, so a tracer or test that patches the flow kernel sees these calls
from .core import FiniteMetricSpace, ParseError, Value, set_field
from .extension import (
    GRAEV, SWIERCZKOWSKI, VARIANTS, ComputeError, ElementDomainError, EmptyFiberError, ExtensionResult,
    FiberCapExceeded, Functor, WitnessError, extend_generic,
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
    n = pointed.n
    for x, s in letters:
        if not 0 <= x < n:
            raise ValueError(f"letter index {x} out of range")
        if s not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {s}")
    return GroupWord(_reduced(letters, commutative, pointed.basepoint), commutative)


def _reduced(letters: Sequence[tuple[int, int]], commutative: bool, e: int) -> tuple[tuple[int, int], ...]:
    """The reduced letters of a valid letter string, with basepoint ``e``."""
    if commutative:
        out = []
        for x, v in _net_of([letter for letter in letters if letter[0] != e]):
            out.extend([(x, 1 if v > 0 else -1)] * abs(v))
        return tuple(out)
    stack: list[tuple[int, int]] = []
    for x, s in letters:
        if x == e:
            continue
        if stack and stack[-1] == (x, -s):
            stack.pop()
        else:
            stack.append((x, s))
    return tuple(stack)


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


class ProperRepresentationPair(Value):
    """Equal-signature letter strings whose sides reduce to the two words."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, int, int], ...]):  # (left letter, right letter, sign)
        set_field(self, "rows", rows)

    def left_letters(self) -> tuple[tuple[int, int], ...]:
        return tuple((a, s) for a, _b, s in self.rows)

    def right_letters(self) -> tuple[tuple[int, int], ...]:
        return tuple((b, s) for _a, b, s in self.rows)


def _clear_at_limit(cache: dict, size: int, limit: int) -> None:
    """Empty ``cache`` once ``size``, what it holds, has reached ``limit``:
    the one rule that bounds this module's shared tables."""
    if size >= limit:
        cache.clear()


# Equal rows, witnesses and values of word answers are one shared object
# each, so a caller that keeps many answers holds each of them once.  The
# table is emptied when it reaches _SHARED_LIMIT entries, which bounds it.
_SHARED: dict = {}
_SHARED_LIMIT = 1 << 15


def _shared(item):
    _clear_at_limit(_SHARED, len(_SHARED), _SHARED_LIMIT)
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


def _free_need(stack: tuple, target: tuple) -> tuple[int, int]:
    """``(p, q)``: the fewest ``+`` and ``-`` letters that take the reduced
    prefix to ``target``.  They pop its letters above the common prefix, a
    letter of sign s with one of sign -s, then push the target's remainder,
    each letter with its own sign; a longer string only adds letters."""
    c = 0
    limit = min(len(stack), len(target))
    while c < limit and stack[c] == target[c]:
        c += 1
    p = sum(s == -1 for _x, s in stack[c:]) + sum(s == 1 for _x, s in target[c:])
    return p, len(stack) + len(target) - 2 * c - p


def _free_table(stack: tuple, target: tuple, letters: list, e: int) -> list[tuple[tuple, int, int]]:
    p, q = _free_need(stack, target)
    size = len(stack)
    on_target = stack == target[:size]  # nothing above the common prefix to pop
    following = target[size] if on_target and size < len(target) else None
    table = []
    for x, s in letters:
        if x == e:
            table.append((stack, p, q))
        elif stack and stack[-1] == (x, -s):
            table.append(_step(stack[:-1], p, q, s, not on_target))
        else:
            table.append(_step(stack + ((x, s),), p, q, s, following == (x, s)))
    return table


def _net_of(letters: tuple) -> tuple:
    net: dict[int, int] = {}
    for x, s in letters:
        net[x] = net.get(x, 0) + s
    return tuple(sorted((x, v) for x, v in net.items() if v))


def _net_need(net: tuple, target: tuple) -> tuple[int, int]:
    """``(p, q)``: the fewest ``+`` and ``-`` letters that take the net
    exponents to ``target``, each letter changing one of them by one."""
    cur = dict(net)
    p = q = 0
    for x, v in target:
        d = v - cur.pop(x, 0)
        p, q = (p + d, q) if d > 0 else (p, q - d)
    for v in cur.values():
        p, q = (p - v, q) if v < 0 else (p, q + v)
    return p, q


def _net_table(net: tuple, target: tuple, letters: list, e: int) -> list[tuple[tuple, int, int]]:
    p, q = _net_need(net, target)
    cur, goal = dict(net), dict(target)
    table = []
    for x, s in letters:
        if x == e:
            table.append((net, p, q))
            continue
        have = cur.get(x, 0)
        items = dict(cur)
        items[x] = have + s
        nxt = tuple(sorted((k, v) for k, v in items.items() if v))
        table.append(_step(nxt, p, q, s, (goal.get(x, 0) - have) * s > 0))
    return table


def _step(nxt: tuple, p: int, q: int, s: int, spends: bool) -> tuple[tuple, int, int]:
    """The entry of a letter of sign s that moves a prefix needing ``(p,
    q)`` to ``nxt``: a letter the target still needs (``spends``) is one of
    those of its sign, any other needs one more of the opposite sign to undo."""
    if s == 1:
        return (nxt, p - 1, q) if spends else (nxt, p, q + 1)
    return (nxt, p, q - 1) if spends else (nxt, p + 1, q)


class _PrefixTables(dict):
    """Transition tables of one side's prefixes, built on first lookup.

    A prefix is the side's reduced letters so far (free words) or its sorted
    nonzero net exponents (free-abelian words).  Each prefix is interned as
    a small int, once per word: ``ids`` maps a prefix to its id and
    ``prefixes`` an id back to its prefix.  The empty prefix is id 0 and
    ``target`` is the id of the word's own prefix, so the searches key their
    states by ints and test ``== target`` on them.
    ``tables[pid][2*x + (s == -1)]`` is ``(next_pid, p, q)``: the id of the
    prefix after appending letter ``(x, s)``, and the fewest ``+`` and
    ``-`` letters that take it to the target.  Only the prefix's own need is
    computed from scratch; each letter changes one of its counts by one, so
    its entry follows in O(1).  Every row puts one sign on both sides, so a
    pair of prefixes needs at least max(p_L, p_R) + max(q_L, q_R) more rows.
    The tables are a pure function of the target word and the pointed
    space's size and basepoint, so :func:`_prefix_tables` keeps one per word
    for every call, and each table counts towards :data:`_TABLES_LIMIT`;
    the ids go with their tables.  Readers never change an entry.
    """

    __slots__ = ("ids", "prefixes", "target", "_table", "_letters", "_e")

    def __init__(self, target: tuple, table, letters: list[tuple[int, int]], e: int):
        self.ids: dict[tuple, int] = {}
        self.prefixes: list[tuple] = []
        self._intern(())
        self.target = self._intern(target)
        self._table = table
        self._letters = letters
        self._e = e

    def _intern(self, prefix: tuple) -> int:
        pid = self.ids.get(prefix)
        if pid is None:
            pid = self.ids[prefix] = len(self.prefixes)
            self.prefixes.append(prefix)
        return pid

    def __missing__(self, pid: int) -> list[tuple[int, int, int]]:
        _clear_at_limit(_TABLES, _TABLES.entries, _TABLES_LIMIT)
        _TABLES.entries += 1
        intern, prefixes = self._intern, self.prefixes
        built = self._table(prefixes[pid], prefixes[self.target], self._letters, self._e)
        table = self[pid] = [(intern(nxt), p, q) for nxt, p, q in built]
        return table


class _TableCache(dict):
    """A cache bounded by what its tables hold, not by its keys: ``entries``
    counts what was added since it was last emptied, including any added to
    tables that a running call still holds after that.  :data:`_TABLES`
    keeps each word's :class:`_PrefixTables`, by (letters, commutative, n,
    basepoint), and counts prefix tables, since one word's grow with every
    prefix a call reaches; :data:`_FORESTS` keeps each
    :class:`_ForestTable` and counts the partitions they rank."""

    __slots__ = ("entries",)

    def __init__(self):
        self.entries = 0

    def clear(self) -> None:
        super().clear()
        self.entries = 0


# Emptied when its entries reach _TABLES_LIMIT, which bounds it; an entry,
# with the prefix ids it interned, takes about 1.2 kB on three points.
_TABLES = _TableCache()
_TABLES_LIMIT = 1 << 12


def _prefix_tables(a: GroupWord, b: GroupWord, pointed: PointedSpace) -> list[_PrefixTables]:
    """Left and right prefix tables for representations of ``(a, b)``: each
    word's own, shared by every call on that word over a space of the same
    size and basepoint."""
    n, e = pointed.n, pointed.basepoint
    sides = []
    for word in (a, b):
        key = (word.letters, word.commutative, n, e)
        tables = _TABLES.get(key)
        if tables is None:
            table, target = (_net_table, _net_of) if word.commutative else (_free_table, tuple)
            letters = [(x, s) for x in range(n) for s in (1, -1)]  # in letter-code order
            tables = _TABLES[key] = _PrefixTables(target(word.letters), table, letters, e)
        sides.append(tables)
    return sides


# Above this many states, a representation DAG, a generic fold over it, or a
# least-cost word search raises FiberCapExceeded, and the forest witness
# search reports no witness: no word request runs unbounded.
MAX_STATES = 25_000


def _over_budget(counter: str, states: int) -> FiberCapExceeded:
    return FiberCapExceeded(f"{counter} reached {states} states, over the budget of {MAX_STATES}")


def _letters_within(tables: _PrefixTables, pid: int, remaining: int, scale: int) -> list[list[tuple]]:
    """Per sign (``+`` then ``-``), ``(x * scale, next, p, q, next is the
    target)`` for each letter x that takes prefix id ``pid`` to a prefix
    needing at most ``remaining`` more letters, in x order; ``next`` is that
    prefix's id."""
    target = tables.target
    table = tables[pid]
    return [
        [(x * scale, nxt, p, q, nxt == target) for x, (nxt, p, q) in enumerate(table[neg::2]) if p + q <= remaining]
        for neg in (0, 1)
    ]


def _live_rows(
    a: GroupWord, b: GroupWord, pointed: PointedSpace, cap: int | None
) -> tuple[list[list[tuple]], list[bool]]:
    """The representation DAG of (a, b) within the cap, as ``(nodes,
    live)``: per state, its rows and whether it is live.

    A state is a left and a right prefix at one depth.  Its id indexes both
    lists: the start state is 0, and each depth's states follow those of the
    depth above in the order they are found, so every row leads to a larger
    id.  ``nodes[i]`` lists state i's rows (x, y, s) in sign, then x, then y
    order, each as ``(row, child, done, k)``: ``child`` is the id of the
    state the row leads to, ``done`` whether the row completes a
    representation, and ``k = x * n + y`` the row's key.  A row is live when
    it completes one or leads to a live state, and a state is live when one
    of its rows is.  Readers skip the other rows: no representation passes
    through them, as the joint need that admits a row is a bound, not exact,
    for free words.  The states are found one depth at a time, each distinct
    prefix's letters filtered once per depth, and made live from the
    deepest up, so a large cap costs states, not Python recursion.  The
    budget is checked after each state's rows, so the DAG raises once it
    holds more than :data:`MAX_STATES` states, at most ``2 n^2`` (one per
    row) past it.  The cap is checked first.
    """
    cap = _check_pair(a, b, cap)
    left, right = _prefix_tables(a, b, pointed)
    n = pointed.n
    cells = [[(x, y, s) for x in range(n) for y in range(n)] for s in (1, -1)]  # per sign, the row of key k
    nodes: list[list[tuple]] = []
    level: dict = {(0, 0): 0}  # the states (left, right prefix ids) at one depth -> their ids, in order
    remaining = cap - 1  # the rows left after the row at this depth
    while level:
        found = len(nodes) + len(level)  # the id of this depth's first child
        below: dict = {}
        lsides: dict = {}  # prefix id -> _letters_within it, at this depth
        rsides: dict = {}
        for lkey, rkey in level:
            if lkey not in lsides:
                lsides[lkey] = _letters_within(left, lkey, remaining, n)
            if rkey not in rsides:
                rsides[rkey] = _letters_within(right, rkey, remaining, 1)
            out = []
            for row_of, xs, ys in zip(cells, lsides[lkey], rsides[rkey]):
                for xn, lnext, lp, lq, ldone in xs:
                    for y, rnext, rp, rq, rdone in ys:
                        if (lp if lp > rp else rp) + (lq if lq > rq else rq) <= remaining:
                            k = xn + y
                            child = below.setdefault((lnext, rnext), found + len(below))
                            out.append((row_of[k], child, ldone and rdone, k))
            nodes.append(out)
            if found + len(below) > MAX_STATES:
                raise _over_budget("representation DAG", found + len(below))
        remaining -= 1
        level = below
    live = [False] * len(nodes)
    for i in range(len(nodes) - 1, -1, -1):
        for _row, child, done, _k in nodes[i]:
            if done or live[child]:
                live[i] = True
                break
    return nodes, live


def enumerate_proper_representations(
    a: GroupWord, b: GroupWord, pointed: PointedSpace, cap: int | None = None
) -> Iterator[ProperRepresentationPair]:
    """Every representation pair of length <= cap, in depth-first order.

    Pruning is feasibility-only (a prefix pair that can no longer reach the
    targets within the remaining rows is cut), so the stream is exhaustive
    within the cap.  It is the pre-order walk of :func:`_live_rows`, the DAG
    that :meth:`WordsFunctor.fiber_minimum` folds instead, from the start
    state through live states only; the two are tested against each other.
    """
    nodes, live = _live_rows(a, b, pointed, cap)

    def walk() -> Iterator[ProperRepresentationPair]:
        if not a.letters and not b.letters:
            yield ProperRepresentationPair(())
        rows: list[tuple[int, int, int]] = []
        stack = [iter(nodes[0])]  # stack[d] walks the rows at depth d
        while stack:
            for row, child, done, _k in stack[-1]:
                rows.append(row)
                if done:
                    yield ProperRepresentationPair(tuple(rows))
                if live[child]:
                    stack.append(iter(nodes[child]))
                    break
                rows.pop()
            else:
                stack.pop()
                if rows:
                    rows.pop()

    return walk()


def _fold(
    nodes: list[list[tuple]], live: list[bool], weight: list, paid: list, empty: bool
) -> tuple[int, int | None, list, int]:
    """``(count, best, rows, position)`` over the representations of the
    DAG ``(nodes, live)`` of :func:`_live_rows` in stream order: how many
    there are, the least total of ``weight[k]`` over their rows' keys, the
    rows of the first attaining it and its 0-based position.  A key whose
    ``paid`` bit is set on the path adds its weight once (Swierczkowski;
    ``paid[k]`` is 0 for zero weights and for Graev).  ``empty`` puts the
    empty representation first.

    Each (state, paid keys below it) is folded once, bottom-up through one
    explicit stack, from its rows' four values: a completing row is one
    representation, and a row into a live state shifts that state's
    positions by the representations before it.  Rows into dead states add
    only what they complete, and the paid keys below a state are taken over
    its live rows only: a key that no representation through the state can
    pay must not split its memo entries, and the fold, which stops at
    :data:`MAX_STATES` entries, counts only (state, mask) pairs that some
    representation reaches.
    """
    size = len(nodes)
    below = [0] * size  # the paid bits of the keys on live rows below each live state
    if any(paid):
        for i in range(size - 1, -1, -1):
            if live[i]:
                bits = 0
                for _row, child, done, k in nodes[i]:
                    if done or live[child]:
                        bits |= paid[k] | below[child]
                below[i] = bits
    memo: dict[int, tuple] = {}  # mask * size + state -> (count, best, first rows as a linked list, position)
    root = [0, 0, 0, 1, 0, None, 0] if empty else [0, 0, 0, 0, None, None, 0]
    stack = [root]  # state, paid mask, next row, count, best, first, position
    while stack:
        frame = stack[-1]
        state, mask, i, count, best, first, pos = frame
        rows = nodes[state]
        while i < len(rows):
            row, child, done, k = rows[i]
            bit = paid[k]
            w = 0 if mask & bit else weight[k]
            sub = None
            if live[child]:
                cmask = (mask | bit) & below[child]
                sub = memo.get(cmask * size + child)
                if sub is None:
                    frame[2:] = i, count, best, first, pos
                    stack.append([child, cmask, 0, 0, None, None, 0])
                    break
            if done:
                if best is None or w < best:
                    best, first, pos = w, (row, None), count
                count += 1
            if sub is not None:
                scount, sbest, sfirst, spos = sub
                if best is None or w + sbest < best:
                    best, first, pos = w + sbest, (row, sfirst), count + spos
                count += scount
            i += 1
        else:
            stack.pop()
            memo[mask * size + state] = count, best, first, pos
            if len(memo) > MAX_STATES:
                raise _over_budget("generic fold", len(memo))
    rows = []
    while first is not None:
        row, first = first
        rows.append(row)
    return count, best, rows, pos


def graev_distance(
    a: GroupWord, b: GroupWord, pointed: PointedSpace, variant: str = GRAEV, cap: int | None = None
) -> ExtensionResult:
    """Distance between two words, free or free-abelian, within the cap,
    on the pointed space's own distances.

    Both variants have a cap-free lower bound with a witness that attains
    it.  For Graev, the bound is the value's closed form: the non-crossing
    matching program for free words (:func:`_free_graev`) and the
    Arens-Eells transport for free-abelian words (:func:`_abelian_graev`),
    each witnessed by at most ``|a| + |b|`` rows.  For Swierczkowski, it is
    the Steiner-forest bound of :func:`_swierczkowski_forest`, witnessed by
    the fewest rows on the forest's edges.  The witness is checked by
    :meth:`~fiberdist.extension.Functor.check_witness` on the integer
    costs, and answers whenever it fits the cap: the minimum within a cap
    is at least the bound, which the witness attains.
    Such answers are exact, so ``cap_limited`` is false and
    ``fiber_size_enumerated`` is 0.  Every other call (a cap below the
    witness, or no witness found) is answered by
    :func:`search_word_distance`; a search value that meets the bound is
    exact, so it is not ``cap_limited`` either.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    cap = _check_pair(a, b, cap)
    denom, idist, _rank, _nonnegative = pointed.space.pair_table().integer_view
    swier = variant == SWIERCZKOWSKI
    if swier:
        cost, rows = _swierczkowski_forest(a, b, pointed, idist, cap)
    elif a.commutative:
        cost, rows = _abelian_graev(a, b, pointed, idist)
    else:
        cost, rows = _free_graev(a, b, pointed, idist)
    if rows is not None:
        witness = ProperRepresentationPair(tuple(rows))
        functor = WordsFunctor(variant, a.commutative)
        functor.check_witness(pointed, lambda key: idist[key[0]][key[1]], a, b, witness, cost)
        if len(rows) <= cap:
            return _word_result(Fraction(cost, denom), rows, 0, False)
    return _search(a, b, pointed, swier, cap, denom, idist, cost)


def _free_graev(
    a: GroupWord, b: GroupWord, pointed: PointedSpace, idist: Sequence[Sequence[int]]
) -> tuple[int, list]:
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


def _abelian_graev(
    a: GroupWord, b: GroupWord, pointed: PointedSpace, idist: Sequence[Sequence[int]]
) -> tuple[int, list]:
    """Least cost of a representation of free-abelian words on the integer
    costs ``idist``, and its rows.

    Shared exponents pair at no cost.  What is left, c = net(b) - net(a),
    has the Arens-Eells norm: the least cost of moving c+ onto c-, with the
    basepoint able to give or take any amount (Weaver, *Lipschitz
    Algebras*).  When c is one-signed, every unit goes to or from the
    basepoint, and the rows are written directly.  Otherwise, with
    K = |c+| + |c-|, padding each side with basepoint units up to K makes
    that a balanced transport problem on integer unit counts, solved by
    :func:`~fiberdist.transport.min_cost_flow` on the ``idist`` rows of the
    residual points and certified by its potentials.  Each unit of the flow
    spends one residual letter at each end that is not the basepoint.
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
    if not plus or not minus:
        # One side is the basepoint alone, so the padded plan is forced: its
        # cells are (x, e) or (e, y), in sorted order.
        cost = 0
        for x, units in sorted((plus or minus).items()):
            while units:
                rows += _unit_rows([units.pop()], e)
                cost += idist[x][e]
        return cost, rows
    # The basepoint is no residual point, and each side's padding is the
    # other side's residual count, so every supply and demand is positive.
    sources, sinks = sorted([*plus, e]), sorted([*minus, e])
    supply = [len(plus[x]) if x != e else sum(map(len, minus.values())) for x in sources]
    demand = [len(minus[y]) if y != e else sum(map(len, plus.values())) for y in sinks]
    costs = [[idist[x][y] for y in sinks] for x in sources]
    cost, flow, row_potentials, col_potentials = transport.min_cost_flow(costs, supply, demand)
    transport.dual_certificate(costs, supply, demand, flow, cost, row_potentials, col_potentials)
    for (i, j), units in sorted(flow.items()):
        x, y = sources[i], sinks[j]
        if x == y == e:
            continue
        for _ in range(units):
            try:
                ends = [plus[x].pop() for _ in range(x != e)] + [minus[y].pop() for _ in range(y != e)]
            except IndexError:
                raise WitnessError(f"transport flow moves more units from {x} to {y} than c holds") from None
            rows += _unit_rows(ends, e)
    return cost, rows


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
# Steiner-forest bound costs 3^t subset splits and Bell(t) partitions (4,140
# at 8), ranked once per forest table, and Swierczkowski calls go to the
# search.
MAX_FOREST_TERMINALS = 8


def _swierczkowski_forest(
    a: GroupWord, b: GroupWord, pointed: PointedSpace, idist, cap: int
) -> tuple[int, list | None]:
    """``(bound, rows)``: a lower bound on the integer cost of every
    Swierczkowski representation of (a, b), and the fewest rows within the
    cap that attain it (None when none fits, or when the partitions'
    witness searches settle :data:`MAX_STATES` states between them first).

    Let T hold the points of a and b and the basepoint.  The keys of a
    representation join its letters into components, and mapping each
    letter to its component (the basepoint's to the identity) takes both
    sides to one word; so the components split T into a feasible partition,
    and the keys inside each component cost at least the Steiner tree of
    its part of T.  The bound is the least summed Steiner cost over
    feasible partitions.  Rows on one cheapest forest's edges, each paid
    edge used in one orientation, cost at most the bound, so any such
    witness attains it.  The Steiner trees and the ranked partitions depend
    only on ``idist``, the basepoint and T, so they come from
    :func:`_forest_table`, built once per such key; each call only tests
    the partitions' feasibility on its words and searches for the witness.
    """
    e = pointed.basepoint
    terminals = tuple(sorted({e, *(x for x, _s in a.letters), *(x for x, _s in b.letters)}))
    if len(terminals) > MAX_FOREST_TERMINALS:
        return 0, None
    forest = _forest_table(idist, e, terminals)
    bound, partitions = _cheapest_partitions(a, b, pointed, forest)
    best = None
    budget = MAX_STATES  # shared by the partitions' searches
    for blocks in partitions:
        edges = forest.edges(blocks)
        rows, states = _shortest_witness(a, b, pointed, edges, idist, cap if best is None else len(best) - 1, budget)
        if rows is not None:
            best = rows
        budget -= states
        if not budget:
            break
    return bound, best


class _ForestTable:
    """The Steiner forests of one (integer costs, basepoint, terminals).

    ``partitions`` lists every partition of the terminals as ``(cost,
    blocks, rep)``: its summed Steiner cost, its blocks as terminal masks,
    and ``rep[j]``, the point that terminal j's block stands for (the
    basepoint, or the block's first terminal).  They are ranked by cost
    and, at equal cost, in the order of a depth-first walk in which
    terminal i joins each earlier block in turn, then opens its own.
    :meth:`edges` joins one Steiner tree per block, kept per terminal mask;
    neither changes once built, nor grows with the points of the space.
    """

    __slots__ = ("terminals", "partitions", "_tree_edges")

    def __init__(self, idist, e: int, terminals: tuple[int, ...]):
        cost, self._tree_edges = _steiner_trees(terminals, idist)
        self.terminals = terminals
        self.partitions = _ranked_partitions(terminals, cost, e)

    def edges(self, blocks: tuple[int, ...]) -> list[tuple[int, int]]:
        """The sorted edges of one cheapest forest of the partition ``blocks``."""
        return sorted(set().union(*[self._tree_edges[block] for block in blocks]))


# Emptied when the partitions it would hold with a new table reach
# _FORESTS_LIMIT, which is above any one table's Bell(8) = 4,140.  An
# 8-terminal table keeps about 1.1 MB, whatever the size of the space.
_FORESTS = _TableCache()
_FORESTS_LIMIT = 1 << 14


def _forest_table(idist, e: int, terminals: tuple[int, ...]) -> _ForestTable:
    """The forest table of ``terminals`` on the integer costs ``idist`` with
    basepoint ``e``, shared by every call with that key.  The basepoint is
    part of the key as each block's representative depends on it; the
    space's denominator is not, as the bound is on the integer costs."""
    key = (idist, e, terminals)
    forest = _FORESTS.get(key)
    if forest is None:
        forest = _ForestTable(idist, e, terminals)
        size = len(forest.partitions)
        _clear_at_limit(_FORESTS, _FORESTS.entries + size, _FORESTS_LIMIT)
        _FORESTS.entries += size
        _FORESTS[key] = forest
    return forest


def _steiner_trees(terminals: Sequence[int], idist) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """Dreyfus-Wagner over the subsets of ``terminals`` (Networks 1 (1971)).

    The costs are a pseudometric, so they are their own shortest-path
    closure and a tree edge is a direct pair.  ``tree[mask][v]`` is the
    least cost of a tree joining the terminals in ``mask`` and point v,
    reached from the junction and split in ``via[mask][v]``.  Returns, per
    terminal mask, its Steiner cost and one such tree's edges as sorted
    point pairs; the rows, which grow with the points, are dropped.
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
    edges: list = [[]]
    for mask in range(1, 1 << len(terminals)):
        low = mask & -mask
        out = set()
        todo = [(mask ^ low, terminals[low.bit_length() - 1])] if mask != low else []
        while todo:  # each split's halves are nonempty
            sub, v = todo.pop()
            u, one = via[sub][v]
            if u != v:
                out.add((min(u, v), max(u, v)))
            todo += [(one, u), (sub ^ one, u)] if one else []
        edges.append(sorted(out))
    return cost, edges


def _ranked_partitions(terminals: tuple[int, ...], cost: list[int], e: int) -> list[tuple[int, tuple, tuple]]:
    """Every partition of ``terminals`` as ``(summed Steiner cost, blocks,
    rep)``, in :class:`_ForestTable`'s rank order."""
    t = len(terminals)
    home = terminals.index(e)
    found = []
    stack = [(0, (), 0)]  # (next terminal, blocks so far, their summed cost)
    while stack:
        i, blocks, total = stack.pop()
        if i == t:
            rep = [0] * t
            for mask in blocks:
                point = e if mask >> home & 1 else terminals[(mask & -mask).bit_length() - 1]
                for j in range(t):
                    if mask >> j & 1:
                        rep[j] = point
            found.append((total, blocks, tuple(rep)))
            continue
        # Terminal i opens a block of its own or joins one; pushed in reverse
        # so that joining the first block comes first.
        bit = 1 << i
        stack.append((i + 1, blocks + (bit,), total))
        for k in reversed(range(len(blocks))):
            joined = blocks[k] | bit
            stack.append((i + 1, blocks[:k] + (joined,) + blocks[k + 1:], total - cost[blocks[k]] + cost[joined]))
    found.sort(key=itemgetter(0))  # stable, so equal costs keep the walk's order
    return found


def _cheapest_partitions(a: GroupWord, b: GroupWord, pointed: PointedSpace, forest: _ForestTable):
    """``(bound, partitions)``: the least summed Steiner cost over the
    feasible partitions of the forest table's terminals, and each partition
    (a tuple of terminal masks) that attains it, in the table's rank order.

    A partition is feasible when mapping each letter to its block's
    representative and reducing, with the basepoint's block as the
    identity, takes a and b to one word.  The partitions are tested in rank
    order, up to the first that costs more than a feasible one.
    """
    e, commutative = pointed.basepoint, a.commutative
    index = {x: j for j, x in enumerate(forest.terminals)}
    left = [(index[x], s) for x, s in a.letters]
    right = [(index[x], s) for x, s in b.letters]
    best = None
    found: list = []
    for total, blocks, rep in forest.partitions:
        if best is not None and total > best:
            break
        image = _reduced([(rep[j], s) for j, s in left], commutative, e)
        if image == _reduced([(rep[j], s) for j, s in right], commutative, e):
            best = total
            found.append(blocks)
    return best, found


def _shortest_witness(
    a: GroupWord, b: GroupWord, pointed: PointedSpace, edges, idist, cap: int, budget: int
) -> tuple[list | None, int]:
    """``(rows, states)``: the fewest rows, at most ``cap``, of a
    representation of (a, b) whose keys are forest ``edges`` or diagonal
    (None when none fits, or when none is found within ``budget`` settled
    states), and how many states were settled.

    A* over (left prefix id, right prefix id, orientations) with the larger
    side's need as the heuristic, which no row lowers by more than one; a
    state whose pair needs more rows than the cap leaves is not pushed.  A
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
    start = (0, 0, 0)  # the empty prefixes' ids, no edge oriented
    heap = [(max(len(a), len(b)), 0, 0, start, None, None)]  # rows + need, -rows, seq, state, parent, row
    settled: dict = {}
    seq = 0
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        _f, minus_depth, _seq, state, parent, row = pop(heap)
        if state in settled:
            continue
        if len(settled) == budget:
            return None, budget
        settled[state] = (parent, row)
        lkey, rkey, mask = state
        if lkey == ltarget and rkey == rtarget:
            rows = []
            while row is not None:
                rows.append(row)
                parent, row = settled[parent]
            return rows[::-1], len(settled)
        depth = 1 - minus_depth
        remaining = cap - depth
        ltable, rtable = left[lkey], right[rkey]
        for lcode, rcode, row, own, other in moves:
            if mask & other:
                continue
            lnext, lp, lq = ltable[lcode]
            rnext, rp, rq = rtable[rcode]
            if (lp if lp > rp else rp) + (lq if lq > rq else rq) > remaining:
                continue
            lneed, rneed = lp + lq, rp + rq
            nxt = (lnext, rnext, mask | own)
            if nxt not in settled:
                seq += 1
                push(heap, (depth + (lneed if lneed > rneed else rneed), minus_depth - 1, seq, nxt, state, row))
    return None, len(settled)


def search_word_distance(
    a: GroupWord, b: GroupWord, pointed: PointedSpace, variant: str = GRAEV, cap: int | None = None
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

    The costs are the pointed space's distances.  The result's
    ``fiber_size_enumerated`` counts settled states; a search that would
    settle more than :data:`MAX_STATES` raises ``FiberCapExceeded``.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    cap = _check_pair(a, b, cap)
    denom, idist, _rank, _nonnegative = pointed.space.pair_table().integer_view
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

    # Heap entries: cost, push order, depth, the state's left and right
    # prefix ids and mask (flat, so a push builds one tuple), and the settled
    # state and row it was pushed from; a state's parent is recorded only
    # when it settles.
    heap = [(0, 0, 0, 0, 0, 0, -1, None)]
    parents: list[tuple[int, tuple | None]] = []  # settled state -> (its parent, its row)
    seq = 0
    settled: dict[tuple[int, int], list[tuple[int, int]]] = {}  # (l, r) -> [(mask, depth)]
    # (l, rows left) -> the rows, in cost order, whose left letter can still
    # reach its target within them, each with that letter's entry.
    lrows: dict[tuple[int, int], list[tuple]] = {}

    pop, push = heapq.heappop, heapq.heappush
    while heap:
        cost, _seq, depth, lkey, rkey, mask, parent, row = pop(heap)
        entries = settled.setdefault((lkey, rkey), [])
        dominated = False
        for m, d in entries:
            if m & mask == m and d <= depth:
                dominated = True
                break
        if dominated:
            continue
        for m, d in entries:
            if mask & m == mask and depth <= d:  # the new entry dominates: drop every entry it does
                entries[:] = [(m, d) for m, d in entries if not (mask & m == mask and depth <= d)]
                break
        entries.append((mask, depth))
        me = len(parents)
        if me == MAX_STATES:
            raise _over_budget("word search", me + 1)
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
        candidates = lrows.get((lkey, remaining))
        if candidates is None:
            ltable = left[lkey]
            candidates = lrows[lkey, remaining] = [
                (base, rcode, row, bit, *ltable[lcode])
                for base, lcode, rcode, row, bit in rows_sorted
                if ltable[lcode][1] + ltable[lcode][2] <= remaining
            ]
        rtable = right[rkey]
        for base, rcode, row, bit, lnext, lp, lq in candidates:
            rnext, rp, rq = rtable[rcode]
            if (lp if lp > rp else rp) + (lq if lq > rq else rq) > remaining:
                continue
            if swier:
                step = 0 if mask & bit else base
                nmask = mask | bit
            else:
                step, nmask = base, 0
            dominated = False
            for m, d in settled.get((lnext, rnext), ()):
                if m & nmask == m and d <= depth:
                    dominated = True
                    break
            if dominated:
                continue
            seq += 1
            push(heap, (cost + step, seq, depth, lnext, rnext, nmask, me, row))

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
                    # Graev sums every row, Swierczkowski each distinct pair once.
                    for variant, keys in ((GRAEV, pairs), (SWIERCZKOWSKI, dict.fromkeys(pairs))):
                        cost = sum(dist[x][y] for x, y in keys)
                        if best[variant] is None or cost < best[variant]:
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

    def fiber(self, a, b, ctx) -> Iterator[ProperRepresentationPair]:
        return enumerate_proper_representations(a, b, ctx, self.cap)

    def fiber_minimum(self, a, b, ctx, rank, stop_at_zero):
        """Folds :func:`_live_rows` instead of walking its stream: the first
        zero in the stream, where the stream would stop, is its first minimum."""
        weight = [rank((x, y)) for x in range(ctx.n) for y in range(ctx.n)]
        distinct = self.variant == SWIERCZKOWSKI
        paid = [1 << k if distinct and w else 0 for k, w in enumerate(weight)]
        empty = not a.letters and not b.letters
        count, best, rows, pos = _fold(*_live_rows(a, b, ctx, self.cap), weight, paid, empty)
        if stop_at_zero and best == 0:
            count = pos + 1
        return best, None if best is None else ProperRepresentationPair(tuple(rows)), count

    def lift(self, fn, elem) -> Fraction:
        if elem.__class__ is ProperRepresentationPair:
            keys = map(_pair_key, elem.rows)
        else:
            keys = map(_point_key, elem.letters)
        return sum(map(fn, dict.fromkeys(keys) if self.variant == SWIERCZKOWSKI else keys))

    def enumerate_elements(self, ctx: PointedSpace, cap: int) -> Iterator[GroupWord]:
        """The reduced words of length at most ``cap``: the distinct
        reductions of every string of up to ``cap`` non-basepoint letters."""
        letters = [(x, s) for x in range(ctx.n) if x != ctx.basepoint for s in (1, -1)]
        strings = itertools.chain.from_iterable(itertools.product(letters, repeat=k) for k in range(cap + 1))
        return iter(dict.fromkeys(reduce_letters(string, self.commutative, ctx) for string in strings))

    def distance(self, ctx, table, a, b, cap: int | None = None):
        """:func:`graev_distance` on the space's own distances; a table of
        other values gets the generic minimum within the same cap."""
        if cap is None:
            cap = self.cap
        if table.values != ctx.space.dist:
            return extend_generic(WordsFunctor(self.variant, self.commutative, cap), ctx, table, a, b)
        return graev_distance(a, b, ctx, self.variant, cap)

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
