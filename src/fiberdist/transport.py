"""Finitely supported probability measures and exact optimal transport.

One exact flow kernel, :func:`min_cost_flow`, solves every transport
problem by successive shortest paths on a small bipartite network: no
scaling, no epsilons, no degeneracy pivot rules.  It reads index arrays (a
grid of costs, a supply list, a demand list) in whatever exact numbers it
is given.  :func:`kantorovich` passes ``Fraction`` masses and costs; the
free-abelian Graev norm in :mod:`fiberdist.words` passes integer unit
counts and the space's integer costs.  Each augmentation pushes the
bottleneck residual of a shortest path, which may be the reverse of a
middle arc (flow sent earlier and now withdrawn), so the rounds are not
bounded by m + n.  The loop ends because every residual stays a multiple
of 1/D, D the common denominator of the supplies (1 for integers): each
round pushes at least 1/D.  Shortest paths are found by Bellman-Ford over a
fixed arc order, which keeps witnesses deterministic.  A pass tries an arc
only if its tail's label has fallen since the arc was last tried in that
round (the label-correcting rule of Ahuja, Magnanti & Orlin, *Network
Flows*, 1993, section 5.4).  The rule is exact: a skipped try would offer
the same candidate to a head label that can only have fallen since, so it
could change nothing, and every label falls in the same order to the same
parent arc as when every open arc is tried on every pass.  As the kernel
only adds, compares and takes minima, data scaled by positive constants
takes the same paths to the same flow, scaled.  The last round's shortest
distances are the dual potentials: every node is reachable in that round,
and pushing along a shortest path keeps every residual reduced cost
nonnegative, so they certify the final flow.  ``dual_certificate`` checks
them in O(mn) for both callers, and each caller checks its own witness
(the plan, or the word representation) with ``Functor.check_witness``;
both raise ``WitnessError`` when they fail, as every broken solver
invariant does.

The independent oracle lists the vertices of the transportation polytope,
which is exhaustive for minimizing any linear lift.  They are the
nonnegative flows of the support grid's spanning trees, and the oracle
reaches them by simplex pivots between feasible bases, not by solving every
tree.  Orden's perturbation makes every basis nondegenerate, so each pivot
has one leaving cell and is made once, not from both ends.  The vertex
stream is ordered by each vertex's first spanning tree, and the generic
minimum orders only the vertices tied at it.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence

from .core import PairTable, ParseError, Value, format_scalar, parse_scalar, scale_to_integers, set_field
from .extension import (
    ComputeError, ElementDomainError, ExtensionResult, FiberCapExceeded, Functor, WitnessError,
)

# fiber_vertices visits every feasible basis of the perturbed masses, and
# degenerate masses make many spanning trees such bases (384 of the 4,096
# for uniform 4x4 masses; a grid has m^(n-1) * n^(m-1) trees), so it
# refuses grids of more cells before it pivots.
MAX_VERTEX_CELLS = 20


class UnbalancedMassError(ComputeError, ValueError):
    """Weights do not sum to exactly 1; never silently normalized."""


class Distribution(Value):
    """Probability measure with rational weights; zero weights are dropped."""

    __slots__ = ("mass",)

    def __init__(self, mass: tuple[tuple[int, Fraction], ...]):
        self._set(tuple(sorted(mass)))

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        return self.mass

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.mass)


def distribution(weights: Mapping[int, Fraction] | Iterable[tuple[int, Fraction]]) -> Distribution:
    pairs = weights.items() if isinstance(weights, Mapping) else weights
    mass = []
    total = Fraction(0)
    for i, w in pairs:
        if w < 0:
            raise ValueError(f"negative weight {w} at point {i}")
        if w == 0:
            continue
        mass.append((i, w))
        total += w
    if total != 1:
        raise UnbalancedMassError(f"weights sum to {total}, expected exactly 1")
    if not mass:
        raise UnbalancedMassError("empty distribution")
    return Distribution(tuple(mass))


def point_mass(i: int) -> Distribution:
    return Distribution(((i, Fraction(1)),))


class TransportPlan(Value):
    """Joint rational weights on index pairs with prescribed marginals."""

    __slots__ = ("flow",)

    def __init__(self, flow: tuple[tuple[tuple[int, int], Fraction], ...]):
        set_field(self, "flow", tuple(sorted(flow)))

    def items(self) -> tuple[tuple[tuple[int, int], Fraction], ...]:
        return self.flow

    @property
    def support(self) -> tuple[tuple[int, int], ...]:
        return tuple(c for c, _ in self.flow)


def transport_plan(flow: Mapping[tuple[int, int], Fraction] | Iterable) -> TransportPlan:
    pairs = flow.items() if isinstance(flow, Mapping) else flow
    cells = []
    total = Fraction(0)
    for cell, w in pairs:
        if w < 0:
            raise ValueError(f"negative flow {w} on cell {cell}")
        if w == 0:
            continue
        cells.append((tuple(cell), w))
        total += w
    if total != 1:
        raise UnbalancedMassError(f"flow sums to {total}, expected exactly 1")
    return TransportPlan(tuple(cells))


def integrate(fn, measure) -> Fraction:
    """Exact expected value of fn under a distribution or plan."""
    return sum((w * fn(point) for point, w in measure.items()), Fraction(0))


class KantorovichResult(Value):
    __slots__ = ("value", "plan", "dual_row", "dual_col")

    def __init__(self, value: Fraction, plan: TransportPlan, dual_row: dict[int, Fraction], dual_col: dict[int, Fraction]):
        self._set(value, plan, dual_row, dual_col)


def min_cost_flow(costs: Sequence[Sequence], supply: Sequence, demand: Sequence) -> tuple:
    """Least-cost flow from the positive ``supply`` onto the positive
    ``demand`` (of equal sums) over the grid ``costs`` (m rows of n), in
    ints or Fractions: ``(value, flow, row_potentials, col_potentials)``.
    ``flow`` maps each cell ``(a, b)`` of positive flow to its amount, on a
    support with no cycle (at most m + n - 1 cells), and the potentials are
    the last round's shortest distances, for :func:`dual_certificate`.
    Bellman-Ford skips the arcs that cannot relax anything (see the module
    docstring), so labels, parent arcs and passes are those of trying every
    open arc on every pass.
    """
    m, n = len(supply), len(demand)
    zero = 0 * costs[0][0]  # in the costs' arithmetic, so every potential is too
    total = sum(supply)
    # Node ids: 0 = source, 1..m supplies, m+1..m+n demands, m+n+1 = sink.
    # Arc k ^ 1 is arc k's reverse; arcs are relaxed in the order added.
    source, sink = 0, m + n + 1
    big = total + 1
    tails, heads, residual, cost = [], [], [], []

    def add_arc(u, v, cap, c):
        tails.extend((u, v))
        heads.extend((v, u))
        residual.extend((cap, 0))
        cost.extend((c, -c))

    for a, w in enumerate(supply):
        add_arc(source, 1 + a, w, zero)
    for b, w in enumerate(demand):
        add_arc(m + 1 + b, sink, w, zero)
    for a, row in enumerate(costs):
        for b, c in enumerate(row):
            add_arc(1 + a, m + 1 + b, big, c)

    arcs = list(enumerate(zip(tails, heads, cost)))
    is_open = [r > 0 for r in residual]
    node_count = m + n + 2
    remaining = total
    while remaining > 0:
        dist = [None] * node_count
        parent_arc = [-1] * node_count
        dist[source] = zero
        # Label updates are counted: fell[x] is the count just after x's
        # label last fell (0 while it is unset), tried[k] the count when arc
        # k was last tried.
        updates = 1
        fell = [0] * node_count
        fell[source] = updates
        tried = [0] * len(arcs)
        for _ in range(node_count - 1):
            changed = False
            for k, (u, v, c) in arcs:
                if is_open[k] and fell[u] > tried[k]:
                    tried[k] = updates
                    cand = dist[u] + c
                    if dist[v] is None or cand < dist[v]:
                        dist[v] = cand
                        parent_arc[v] = k
                        updates += 1
                        fell[v] = updates
                        changed = True
            if not changed:
                break
        if dist[sink] is None:
            raise WitnessError("no augmenting path; balanced marginals should prevent this")
        path = []
        v = sink
        while v != source:
            k = parent_arc[v]
            path.append(k)
            v = tails[k]
        push = min(min(residual[k] for k in path), remaining)
        for k in path:
            residual[k] -= push
            residual[k ^ 1] += push
            is_open[k] = residual[k] > 0
            is_open[k ^ 1] = True
        remaining -= push

    flow = {}
    value = 0
    k = 2 * (m + n) + 1  # the reverse of the first grid arc
    for a, row in enumerate(costs):
        for b, c in enumerate(row):
            pushed = residual[k]
            if pushed > 0:
                flow[(a, b)] = pushed
                value += pushed * c
            k += 2
    flow = _cancel_support_cycles(flow, costs)
    return value, flow, dist[1 : m + 1], dist[m + 1 : m + n + 1]


def dual_certificate(costs, supply, demand, flow, value, row_potentials, col_potentials) -> None:
    """Check that :func:`min_cost_flow`'s potentials certify its ``flow`` as
    least-cost with ``value``, on the same index arrays.

    The potentials must be feasible (v_b - u_a <= costs[a][b] on every cell)
    and tight on the flow's support, and the dual value
    sum v_b demand_b - sum u_a supply_a must equal ``value``; by weak duality
    no flow then costs less.  That the flow meets the supplies and demands
    at cost ``value`` is each caller's :meth:`Functor.check_witness`.
    Raises ``WitnessError`` naming the first check that fails.
    """
    for a, (u, row) in enumerate(zip(row_potentials, costs)):
        for b, (v, c) in enumerate(zip(col_potentials, row)):
            if v - u > c:
                raise WitnessError(f"dual potentials infeasible at ({a}, {b})")
    for a, b in sorted(flow):
        if col_potentials[b] - row_potentials[a] != costs[a][b]:
            raise WitnessError(f"complementary slackness fails at ({a}, {b})")
    dual_value = sum(map(mul, col_potentials, demand)) - sum(map(mul, row_potentials, supply))
    if dual_value != value:
        raise WitnessError(f"dual value {dual_value} differs from the transport value {value}")


def kantorovich(table: PairTable, mu: Distribution, nu: Distribution) -> KantorovichResult:
    """Exact optimal transport between mu and nu under the given cost table.

    Returns the optimal value, an optimal plan with support at most
    m + n - 1 (cost-neutral support cycles are cancelled), and feasible dual
    potentials satisfying exact complementary slackness: those of
    :func:`min_cost_flow` on the rational masses and costs, checked.
    """
    for total in (sum(w for _, w in mu.items()), sum(w for _, w in nu.items())):
        if total != 1:
            raise UnbalancedMassError(f"marginal sums to {total}, expected exactly 1")
    rows, supply = zip(*mu.items())
    cols, demand = zip(*nu.items())
    costs = [[table((i, j)) for j in cols] for i in rows]
    value, flow, dual_row, dual_col = min_cost_flow(costs, supply, demand)
    plan = transport_plan({(rows[a], cols[b]): w for (a, b), w in flow.items()})
    TransportFunctor().check_witness(None, table, mu, nu, plan, value)
    dual_certificate(costs, supply, demand, flow, value, dual_row, dual_col)
    return KantorovichResult(value, plan, dict(zip(rows, dual_row)), dict(zip(cols, dual_col)))


def _cancel_support_cycles(flow: dict[tuple[int, int], object], costs: Sequence[Sequence]) -> dict:
    """Push flow around cost-neutral support cycles until the support is a
    forest, guaranteeing the basic-solution support bound m + n - 1."""
    while True:
        cycle = _find_support_cycle(flow)
        if cycle is None:
            return flow
        signed = [(cell, 1 if idx % 2 == 0 else -1) for idx, cell in enumerate(cycle)]
        alt_cost = sum(sign * costs[a][b] for (a, b), sign in signed)
        if alt_cost != 0:
            raise WitnessError("support cycle with nonzero alternating cost in an optimal plan")
        delta = min(flow[cell] for cell, sign in signed if sign < 0)
        for cell, sign in signed:
            flow[cell] = flow.get(cell, 0) + sign * delta
            if flow[cell] == 0:
                del flow[cell]


def _find_support_cycle(flow: dict[tuple[int, int], Fraction]):
    """A cycle in the bipartite support graph as an even list of cells, each
    consecutive pair (cyclically) sharing a row or a column in alternation,
    or None if the support is a forest.

    Strips degree <= 1 nodes until only the 2-core remains, then walks it.
    """
    adjacency: dict[tuple, set] = {}
    for i, j in flow:
        adjacency.setdefault(("r", i), set()).add((i, j))
        adjacency.setdefault(("c", j), set()).add((i, j))
    queue = [node for node, edges in adjacency.items() if len(edges) <= 1]
    while queue:
        node = queue.pop()
        edges = adjacency.pop(node, set())
        for cell in edges:
            other = ("c", cell[1]) if node[0] == "r" else ("r", cell[0])
            if other in adjacency:
                adjacency[other].discard(cell)
                if len(adjacency[other]) == 1:
                    queue.append(other)
    if not adjacency:
        return None
    # Every remaining node has degree >= 2; walk until a node repeats.
    start = min(adjacency)
    seen_at = {start: 0}
    cells = []
    node, incoming = start, None
    while True:
        cell = min(c for c in adjacency[node] if c != incoming)
        cells.append(cell)
        node = ("c", cell[1]) if node[0] == "r" else ("r", cell[0])
        incoming = cell
        if node in seen_at:
            return cells[seen_at[node] :]
        seen_at[node] = len(cells)


def fiber_vertices(mu: Distribution, nu: Distribution) -> Iterator[TransportPlan]:
    """All vertices of the transportation polytope of (mu, nu).

    The vertices are the nonnegative flows a spanning tree of the complete
    bipartite support grid determines; they come in the order of the first
    such tree (:func:`_first_tree`), its row-major cells compared
    lexicographically.  They are found by :func:`_vertex_flows`, which
    pivots between feasible bases, on the masses scaled to integers by their
    common denominator D and perturbed after Orden (1956).
    """
    den, cells, flows = _vertex_flows(mu, nu)
    m, n = len(mu.support), len(nu.support)
    for flow in sorted(flows, key=lambda flow: _first_tree(flow, m, n)):
        yield _plan(flow, den, cells)


def _plan(flow: tuple, den: int, cells: list[tuple[int, int]]) -> TransportPlan:
    """The plan of a vertex flow over row-major ``cells`` whose masses are
    scaled by ``den``."""
    return TransportPlan(tuple((cells[cell], Fraction(w, den)) for cell, w in flow))


def _vertex_flows(mu: Distribution, nu: Distribution) -> tuple[int, list[tuple[int, int]], set[tuple]]:
    """``(D, cells, flows)``: the support grid's cells ``(i, j)`` in row-major
    order, and every vertex of the transportation polytope, unordered, as
    its positive cells ``(k, w)``, k a row-major cell index in increasing
    order and w the mass times D.

    The vertices are the basic feasible solutions.  The walk pivots from the
    north-west corner on the masses times D, scaled by W = 2m + 2 and perturbed
    after Orden ("The transhipment problem", Management Science 2, 1956): each
    supply gets +1 and the last demand +m.  A basic cell carries the net mass
    of the side of its tree without the last column, W x + k with x the real
    flow times D and |k| <= m the rows on that side; if k = 0, that side is one
    column, of positive demand.  So no basic flow is 0: each pivot moves a
    positive theta, has one leaving cell (a tie would leave a zero flow) and
    its reverse leads back, so the leaving cell is done at the new basis.  A
    vertex is (flow + m + 1) // W on the cells of flow > m.  None is missed:

    1. A perturbed-feasible basis is feasible for the real masses: W x + k > 0
       and |k| < W / 2 give x >= 0.
    2. The perturbed polytope is simple, so its feasible bases are its
       vertices; its graph is connected (Balinski), so the walk reaches all.
    3. Take a cost that only the real vertex v minimizes (1 off its support).
       The simplex method on the perturbed masses ends at a feasible basis
       whose reduced costs, which do not depend on the masses, are
       nonnegative; by step 1 its real flow is optimal, so it is v.

    A basis is a bitmask over the row-major cells, and every set of cells
    the walk meets is one too: the entering cells, each pivot's cycle (the
    cells on the tree path between the entering cell's row and column,
    from :func:`_root_paths`) and the losing cells on it.  The walk reads
    their bits in place, lowest first, and lists none of them: one pass
    over the losing bits picks the leaving cell, the first of least flow
    in ascending cell order, and one pass over the cycle's bits moves
    theta.  A cell off the basis carries no flow, so a vertex is read off
    the flow list itself.
    """
    rows = mu.support
    cols = nu.support
    m, n = len(rows), len(cols)
    if m * n > MAX_VERTEX_CELLS:
        raise FiberCapExceeded(f"{m}x{n} support exceeds the vertex enumeration cap {MAX_VERTEX_CELLS}")
    den, (supply, demand) = scale_to_integers(([w for _, w in mu.items()], [w for _, w in nu.items()]))
    wide = 2 * m + 2
    supply = [w * wide + 1 for w in supply]
    demand = [w * wide for w in demand[:-1]] + [demand[-1] * wide + m]
    todo = [_north_west_corner(supply, demand)]
    done = {todo[0][0]: 0}  # per basis reached, the cells whose pivot leads back
    vertices = set()
    grid = (1 << m * n) - 1
    row = (1 << n) - 1
    column = sum(1 << a * n for a in range(m))
    lines = [row << a * n for a in range(m)] + [column << b for b in range(n)]
    while todo:
        mask, flow = todo.pop()
        vertices.add(tuple([(cell, (w + m + 1) // wide) for cell, w in enumerate(flow) if w > m]))
        path, lose_row = _root_paths(mask, lines, m, n)
        entering = grid & ~(mask | done[mask])
        while entering:
            bit = entering & -entering
            entering ^= bit
            u, v = divmod(bit.bit_length() - 1, n)
            v += m
            # Pushing theta into the entering cell takes it from the path
            # cells crossed from a row to a column on the way from u to v;
            # the first of them with the least flow leaves.
            losing = (lose_row[u] & ~path[v]) | ((path[v] ^ lose_row[v]) & ~path[u])
            rest, theta = losing, None
            while rest:
                low = rest & -rest
                rest ^= low
                w = flow[low.bit_length() - 1]
                if theta is None or w < theta:
                    leave, theta = low, w
            moved = mask ^ bit ^ leave
            if moved in done:
                done[moved] |= leave
                continue
            done[moved] = leave
            nxt = flow[:]
            nxt[bit.bit_length() - 1] = theta
            rest = path[u] ^ path[v]
            while rest:
                low = rest & -rest
                rest ^= low
                nxt[low.bit_length() - 1] += -theta if low & losing else theta
            todo.append((moved, nxt))
    return den, [(i, j) for i in rows for j in cols], vertices


def _north_west_corner(supply: list[int], demand: list[int]) -> tuple[int, list[int]]:
    """A feasible basis as ``(mask, flow)`` over the row-major cells: m + n - 1
    cells on a staircase, stepping down when a row is used up, else right.
    On Orden's perturbed masses (:func:`_vertex_flows`) no row and column
    run out together before the last cell, so every step's flow is positive."""
    m, n = len(supply), len(demand)
    supply, demand = list(supply), list(demand)
    mask = 0
    flow = [0] * (m * n)
    a = b = 0
    while True:
        w = flow[a * n + b] = min(supply[a], demand[b])
        mask |= 1 << (a * n + b)
        supply[a] -= w
        demand[b] -= w
        if a == m - 1 and b == n - 1:
            return mask, flow
        if supply[a] == 0:
            a += 1
        else:
            b += 1


def _root_paths(mask: int, lines: list[int], m: int, n: int) -> tuple[list[int], list[int]]:
    """``(path, lose_row)`` per node of the spanning tree on the cells of
    the basis ``mask``, rooted at row 0, nodes numbered rows then columns:
    ``path[v]`` is the bitmask of the cells from the root to v, and
    ``lose_row[v]`` those of them whose lower end is a row.  ``lines[v]``
    is the mask of every cell at node v, so a node's tree edges away from
    the root are the basis cells on its line and not on its path."""
    path = [0] * (m + n)
    lose_row = [0] * (m + n)
    order = [0]
    for v in order:
        edges = mask & lines[v] & ~path[v]
        while edges:
            bit = edges & -edges
            edges ^= bit
            cell = bit.bit_length() - 1
            u = m + cell % n if v < m else cell // n
            path[u] = path[v] | bit
            lose_row[u] = lose_row[v] | (bit if u < m else 0)
            order.append(u)
    return path, lose_row


def _first_tree(support: tuple, m: int, n: int) -> list[int]:
    """The lexicographically least spanning tree, as sorted row-major
    cells, that contains a vertex's support: the support, then every other
    cell in row-major order that closes no cycle.  A support of m + n - 1
    cells is its own tree.  ``label`` names each node's component."""
    tree = [cell for cell, _w in support]
    if len(tree) == m + n - 1:
        return tree
    label = list(range(m + n))
    chosen = set(tree)
    for cell in tree + [cell for cell in range(m * n) if cell not in chosen]:
        a, b = divmod(cell, n)
        keep, gone = label[a], label[m + b]
        if keep != gone:
            label = [keep if c == gone else c for c in label]
            if cell not in chosen:
                tree.append(cell)
    return sorted(tree)


class TransportFunctor(Functor):
    name = "transport"
    fault = "transport-solver"

    def validate_element(self, elem, ctx) -> None:
        if not isinstance(elem, Distribution):
            raise ElementDomainError(f"expected a Distribution, got {elem!r}")
        if any(not 0 <= i < ctx.n for i in elem.support):
            raise ElementDomainError(f"distribution {elem!r} not over a {ctx.n}-point space")

    def embed(self, ctx, i: int) -> Distribution:
        return point_mass(i)

    def apply_map(self, fn, elem, dst_ctx=None):
        acc: dict = {}
        for point, w in elem.items():
            image = fn(point)
            acc[image] = acc.get(image, Fraction(0)) + w
        return distribution(acc)

    def fiber(self, a, b, ctx) -> Iterator[TransportPlan]:
        return fiber_vertices(a, b)

    def lift(self, fn, elem) -> Fraction:
        return integrate(fn, elem)

    def fiber_minimum(self, a, b, ctx, rank, stop_at_zero):
        """Ranks every vertex, each cell weighed once, and orders by
        :func:`_first_tree` only the vertices tied at the minimum, or all of
        them to place the stream's first zero when ``stop_at_zero``."""
        den, cells, flows = _vertex_flows(a, b)
        m, n = len(a.support), len(b.support)
        weight = [rank(cell) for cell in cells]
        ranked = [(sum([w * weight[cell] for cell, w in flow]), flow) for flow in flows]
        best = min([r for r, _flow in ranked])
        flow = min([flow for r, flow in ranked if r == best], key=lambda flow: _first_tree(flow, m, n))
        count = len(ranked)
        if stop_at_zero and best == 0:
            first = _first_tree(flow, m, n)
            count = 1 + sum([_first_tree(other, m, n) < first for _r, other in ranked])
        return Fraction(best, den), _plan(flow, den, cells), count

    def enumerate_elements(self, ctx, cap: int) -> Iterator[Distribution]:
        """All distributions whose weights share a denominator <= cap."""
        n = ctx.n
        seen = set()
        for q in range(1, cap + 1):
            for parts in _compositions(q, n):
                d = distribution({i: Fraction(k, q) for i, k in enumerate(parts) if k})
                if d not in seen:
                    seen.add(d)
                    yield d

    def distance(self, ctx, table, a, b):
        result = kantorovich(table, a, b)
        return ExtensionResult(result.value, result.plan, 1)

    def parse_element(self, obj, ctx) -> Distribution:
        if not isinstance(obj, dict) or not obj:
            raise ParseError("a distribution element is a JSON object of label -> rational mass")
        mass = {ctx.index(k): parse_scalar(v) for k, v in obj.items()}
        if any(w < 0 for w in mass.values()):
            raise ParseError("distribution masses must be nonnegative")
        return distribution(mass)

    def format_coupling(self, coupling: TransportPlan, ctx) -> list:
        return [[ctx.points[i], ctx.points[j], format_scalar(w)] for (i, j), w in coupling.items()]


def _compositions(total: int, bins: int) -> Iterator[tuple[int, ...]]:
    if bins == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, bins - 1):
            yield (first,) + rest
