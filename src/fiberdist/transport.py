"""Finitely supported probability measures and exact optimal transport.

The Kantorovich distance is solved by successive shortest paths on a small
bipartite network with exact rational arithmetic: no scaling, no epsilons,
no degeneracy pivot rules.  Each augmentation pushes the bottleneck
residual of a shortest path, and that bottleneck may be the reverse of a
middle arc (flow sent earlier and now withdrawn), so the number of rounds
is not bounded by the support size m + n, and some instances take more.
The loop ends because every residual stays a multiple of 1/D, where D is
the common denominator of the masses: each round pushes at least 1/D of
the unit total, so there are at most D rounds.  Shortest paths are found
by Bellman-Ford over a fixed arc order, which keeps witnesses
deterministic.
The last round's shortest distances are the dual potentials: every node is
reachable in that round, and pushing along a shortest path keeps every
residual reduced cost nonnegative, so they certify the final plan.
``dual_certificate`` checks that certificate in O(mn) and raises
``WitnessError`` when it fails, as every broken solver invariant does.

The independent oracle lists the vertices of the transportation polytope,
which is exhaustive for minimizing any linear lift.  They are the
nonnegative flows of the support grid's spanning trees, and the oracle
reaches them by simplex pivots between feasible bases, not by solving every
tree.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .core import PairTable, ParseError, Value, format_scalar, parse_scalar, scale_to_integers, set_field
from .extension import (
    ComputeError, ElementDomainError, ExtensionResult, FiberCapExceeded, Functor, WitnessError, first_minimum,
)

# fiber_vertices visits every feasible basis of the support grid, and
# degenerate masses make most spanning trees feasible bases (3,072 of the
# 4,096 for uniform 4x4 masses; a grid has m^(n-1) * n^(m-1) trees), so it
# refuses grids of more cells before it pivots.
MAX_VERTEX_CELLS = 20


class UnbalancedMassError(ComputeError, ValueError):
    """Weights do not sum to exactly 1; never silently normalized."""


class MiddleMarginalError(ComputeError, ValueError):
    """Two plans cannot be glued: the shared marginal differs."""


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

    def row_marginal(self) -> Distribution:
        acc: dict[int, Fraction] = {}
        for (i, _j), w in self.flow:
            acc[i] = acc.get(i, Fraction(0)) + w
        return distribution(acc)

    def col_marginal(self) -> Distribution:
        acc: dict[int, Fraction] = {}
        for (_i, j), w in self.flow:
            acc[j] = acc.get(j, Fraction(0)) + w
        return distribution(acc)


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


def dual_certificate(
    table: PairTable,
    mu: Distribution,
    nu: Distribution,
    plan: TransportPlan,
    value: Fraction,
    dual_row: dict[int, Fraction],
    dual_col: dict[int, Fraction],
) -> None:
    """Check that the potentials certify ``plan`` as optimal with ``value``.

    The plan's marginals must be mu and nu, the potentials feasible
    (v_j - u_i <= d(i, j) on every support pair), tight on the plan's
    support, and the dual value sum v_j nu_j - sum u_i mu_i must equal
    ``value``; by weak duality no plan then costs less.  Raises
    ``WitnessError`` naming the first check that fails.
    """
    if plan.row_marginal() != mu or plan.col_marginal() != nu:
        raise WitnessError("transport plan marginals differ from mu and nu")
    for i in mu.support:
        for j in nu.support:
            if dual_col[j] - dual_row[i] > table((i, j)):
                raise WitnessError(f"dual potentials infeasible at ({i}, {j})")
    for i, j in plan.support:
        if dual_col[j] - dual_row[i] != table((i, j)):
            raise WitnessError(f"complementary slackness fails at ({i}, {j})")
    dual_value = integrate(dual_col.__getitem__, nu) - integrate(dual_row.__getitem__, mu)
    if dual_value != value:
        raise WitnessError(f"dual value {dual_value} differs from the transport value {value}")


def kantorovich(table: PairTable, mu: Distribution, nu: Distribution) -> KantorovichResult:
    """Exact optimal transport between mu and nu under the given cost table.

    Returns the optimal value, an optimal plan with support at most
    m + n - 1 (cost-neutral support cycles are cancelled), and feasible dual
    potentials satisfying exact complementary slackness.
    """
    for total in (sum(w for _, w in mu.items()), sum(w for _, w in nu.items())):
        if total != 1:
            raise UnbalancedMassError(f"marginal sums to {total}, expected exactly 1")
    rows = mu.support
    cols = nu.support
    m, n = len(rows), len(cols)
    # Node ids: 0 = source, 1..m supplies, m+1..m+n demands, m+n+1 = sink.
    source, sink = 0, m + n + 1
    big = 1 + sum(w for _, w in mu.items())

    arcs: list[list] = []  # [tail, head, residual, cost]; arc k^1 is k's reverse

    def add_arc(u, v, cap, cost):
        arcs.append([u, v, cap, cost])
        arcs.append([v, u, Fraction(0), -cost])

    for a, (_, w) in enumerate(mu.items()):
        add_arc(source, 1 + a, w, Fraction(0))
    for b, (_, w) in enumerate(nu.items()):
        add_arc(m + 1 + b, sink, w, Fraction(0))
    for a, (i, _) in enumerate(mu.items()):
        for b, (j, _) in enumerate(nu.items()):
            add_arc(1 + a, m + 1 + b, big, table((i, j)))

    node_count = m + n + 2
    remaining = Fraction(1)
    while remaining > 0:
        dist = [None] * node_count
        parent_arc = [-1] * node_count
        dist[source] = Fraction(0)
        for _ in range(node_count - 1):
            changed = False
            for k, (u, v, residual, cost) in enumerate(arcs):
                if residual > 0 and dist[u] is not None:
                    cand = dist[u] + cost
                    if dist[v] is None or cand < dist[v]:
                        dist[v] = cand
                        parent_arc[v] = k
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
            v = arcs[k][0]
        push = min(min(arcs[k][2] for k in path), remaining)
        for k in path:
            arcs[k][2] -= push
            arcs[k ^ 1][2] += push
        remaining -= push

    flow: dict[tuple[int, int], Fraction] = {}
    value = Fraction(0)
    for a, (i, _) in enumerate(mu.items()):
        for b, (j, _) in enumerate(nu.items()):
            k = 2 * (m + n) + 2 * (a * n + b)
            pushed = arcs[k ^ 1][2]
            if pushed > 0:
                flow[(i, j)] = pushed
                value += pushed * table((i, j))

    flow = _cancel_support_cycles(flow, table)
    plan = transport_plan(flow)
    if integrate(table, plan) != value:
        raise WitnessError("plan does not re-integrate to the optimal value")
    dual_row = {i: dist[1 + a] for a, i in enumerate(rows)}
    dual_col = {j: dist[m + 1 + b] for b, j in enumerate(cols)}
    dual_certificate(table, mu, nu, plan, value, dual_row, dual_col)
    return KantorovichResult(value, plan, dual_row, dual_col)


def _cancel_support_cycles(flow: dict[tuple[int, int], Fraction], table: PairTable) -> dict:
    """Push mass around cost-neutral support cycles until the support is a
    forest, guaranteeing the basic-solution support bound m + n - 1."""
    while True:
        cycle = _find_support_cycle(flow)
        if cycle is None:
            return flow
        signed = [(cell, 1 if idx % 2 == 0 else -1) for idx, cell in enumerate(cycle)]
        alt_cost = sum(sign * table(cell) for cell, sign in signed)
        if alt_cost != 0:
            raise WitnessError("support cycle with nonzero alternating cost in an optimal plan")
        delta = min(flow[cell] for cell, sign in signed if sign < 0)
        for cell, sign in signed:
            flow[cell] = flow.get(cell, Fraction(0)) + sign * delta
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
    such tree, its row-major cells compared lexicographically.  They are
    found by :func:`_vertex_flows`, which pivots between feasible bases, on
    the masses scaled to integers by their common denominator D.
    """
    den, flows = _vertex_flows(mu, nu)
    for flow in flows:
        yield _plan(flow, den)


def _plan(flow: tuple, den: int) -> TransportPlan:
    """The plan of a vertex flow whose masses are scaled by ``den``."""
    return TransportPlan(tuple((cell, Fraction(w, den)) for cell, w in flow))


def _vertex_flows(mu: Distribution, nu: Distribution) -> tuple[int, list[tuple]]:
    """``(D, flows)``: every vertex of the transportation polytope as its
    positive cells ``((i, j), w)`` in row-major order, w the mass times D,
    in the order of :func:`fiber_vertices`.

    The vertices are the basic feasible solutions, and simplex pivots
    connect every feasible basis of the polytope (Klee & Witzgall, 1968;
    Avis & Fukuda, 1992).
    So the walk starts from the north-west-corner basis and, from each basis
    and each cell outside it, pushes the largest theta >= 0 around the
    cycle the cell closes, following every cell that theta empties to a new
    basis; visited bases are kept as bitmasks of the row-major cells.
    Degenerate vertices have several bases and are kept once.  The first
    spanning tree of a vertex, in lexicographic order of row-major cells,
    is the one that completes its support greedily in row-major order (a
    matroid's greedy basis is least cell by cell), and the vertices are
    sorted by it.
    """
    rows = mu.support
    cols = nu.support
    m, n = len(rows), len(cols)
    if m * n > MAX_VERTEX_CELLS:
        raise FiberCapExceeded(f"{m}x{n} support exceeds the vertex enumeration cap {MAX_VERTEX_CELLS}")
    den, (supply, demand) = scale_to_integers(([w for _, w in mu.items()], [w for _, w in nu.items()]))
    ends = [(a, m + b) for a in range(m) for b in range(n)]  # a cell's row and column nodes
    todo = [_north_west_corner(supply, demand)]
    seen = {todo[0][0]}
    vertices = set()
    while todo:
        mask, flow = todo.pop()
        vertices.add(tuple([(cell, w) for cell, w in enumerate(flow) if w]))
        tree = _rooted_tree([cell for cell in range(m * n) if mask >> cell & 1], ends, m + n)
        for enter in range(m * n):
            if mask >> enter & 1:
                continue
            cycle = _tree_path(tree, *ends[enter])
            # Pushing theta into ``enter`` takes it from the path's even
            # cells and adds it to its odd ones.
            losing = cycle[::2]
            theta = min([flow[cell] for cell in losing])
            for leave in losing:
                moved = mask ^ (1 << enter) ^ (1 << leave)
                if flow[leave] != theta or moved in seen:
                    continue
                seen.add(moved)
                nxt = flow[:]
                nxt[enter] = theta
                for cell in losing:
                    nxt[cell] -= theta
                for cell in cycle[1::2]:
                    nxt[cell] += theta
                todo.append((moved, nxt))
    ordered = sorted((_first_tree(support, ends, m + n), support) for support in vertices)
    return den, [tuple(((rows[cell // n], cols[cell % n]), w) for cell, w in flow) for _key, flow in ordered]


def _north_west_corner(supply: list[int], demand: list[int]) -> tuple[int, list[int]]:
    """A feasible basis as ``(mask, flow)`` over the row-major cells: m + n - 1
    cells on a staircase, stepping down when a row is used up (and rows
    remain), else right, so that a degenerate step keeps a zero cell."""
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
        if supply[a] == 0 and a < m - 1:
            a += 1
        else:
            b += 1


def _rooted_tree(cells: list[int], ends: list[tuple[int, int]], nodes: int) -> tuple[list[int], list[int], list[int]]:
    """``(parent, up_cell, depth)`` of the spanning tree on ``cells`` rooted
    at node 0, where ``up_cell[v]`` is the cell joining v to its parent."""
    adjacent = [[] for _ in range(nodes)]
    for cell in cells:
        a, b = ends[cell]
        adjacent[a].append((b, cell))
        adjacent[b].append((a, cell))
    parent = [-1] * nodes
    up_cell = [-1] * nodes
    depth = [0] * nodes
    order = [0]
    parent[0] = 0
    for v in order:
        for u, cell in adjacent[v]:
            if parent[u] < 0:
                parent[u], up_cell[u], depth[u] = v, cell, depth[v] + 1
                order.append(u)
    return parent, up_cell, depth


def _tree_path(tree, u: int, v: int) -> list[int]:
    """The cells of the tree path from node u to node v, in order."""
    parent, up_cell, depth = tree
    head, tail = [], []
    while depth[u] > depth[v]:
        head.append(up_cell[u])
        u = parent[u]
    while depth[v] > depth[u]:
        tail.append(up_cell[v])
        v = parent[v]
    while u != v:
        head.append(up_cell[u])
        tail.append(up_cell[v])
        u, v = parent[u], parent[v]
    return head + tail[::-1]


def _first_tree(support: tuple, ends: list[tuple[int, int]], nodes: int) -> list[int]:
    """The lexicographically least spanning tree, as sorted row-major
    cells, that contains a vertex's support: the support, then every other
    cell in row-major order that closes no cycle.  ``label`` names each
    node's component."""
    label = list(range(nodes))
    tree = [cell for cell, _w in support]
    chosen = set(tree)
    for cell in tree + [cell for cell in range(len(ends)) if cell not in chosen]:
        a, b = ends[cell]
        keep, gone = label[a], label[b]
        if keep != gone:
            label = [keep if c == gone else c for c in label]
            if cell not in chosen:
                tree.append(cell)
    return sorted(tree)


def glue_plans(plan_ab: TransportPlan, plan_bc: TransportPlan) -> TransportPlan:
    """Compose two plans through their shared middle marginal.

    The three-way weights eta1[i,k] * eta2[k,j] / nu[k] are summed over the
    middle index; when the cost table satisfies the triangle inequality the
    glued cost is at most the sum of the two costs.
    """
    middle_out = plan_ab.col_marginal()
    middle_in = plan_bc.row_marginal()
    if middle_out != middle_in:
        raise MiddleMarginalError(
            f"middle marginals differ: {middle_out.mass} vs {middle_in.mass}"
        )
    nu = dict(middle_out.items())
    acc: dict[tuple[int, int], Fraction] = {}
    for (i, k), w1 in plan_ab.items():
        for (k2, j), w2 in plan_bc.items():
            if k2 != k:
                continue
            acc[(i, j)] = acc.get((i, j), Fraction(0)) + w1 * w2 / nu[k]
    return transport_plan(acc)


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

    def swap_coupling(self, coupling: TransportPlan, ctx) -> TransportPlan:
        return TransportPlan(tuple(((j, i), w) for (i, j), w in coupling.items()))

    def diagonal_coupling(self, elem: Distribution, ctx) -> TransportPlan:
        return TransportPlan(tuple(((i, i), w) for i, w in elem.items()))

    def fiber(self, a, b, ctx) -> Iterator[TransportPlan]:
        return fiber_vertices(a, b)

    def lift(self, fn, elem) -> Fraction:
        return integrate(fn, elem)

    def fiber_minimum(self, a, b, ctx, rank, stop_at_zero):
        den, flows = _vertex_flows(a, b)
        ranked = ((sum([w * rank(cell) for cell, w in flow]), flow) for flow in flows)
        best, flow, count = first_minimum(ranked, stop_at_zero)
        return best, _plan(flow, den), count

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

    def parse_coupling(self, obj, ctx) -> TransportPlan:
        return transport_plan(
            {(ctx.index(row[0]), ctx.index(row[1])): parse_scalar(row[2]) for row in obj}
        )


def _compositions(total: int, bins: int) -> Iterator[tuple[int, ...]]:
    if bins == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, bins - 1):
            yield (first,) + rest
