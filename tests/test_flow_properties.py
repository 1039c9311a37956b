"""Property test: ``min_cost_flow``, whose Bellman-Ford tries an arc only
when its tail's label has fallen since the arc was last tried, returns
exactly what the plain loop that tries every open arc on every pass
returns: the same value, flow (in the same key order) and potentials."""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from fiberdist.extension import WitnessError
from fiberdist.transport import _cancel_support_cycles, min_cost_flow


def reference_min_cost_flow(costs, supply, demand):
    """The successive-shortest-path kernel as it was before the skip rule:
    every pass tries every arc whose residual is positive."""
    m, n = len(supply), len(demand)
    zero = 0 * costs[0][0]
    total = sum(supply)
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
    node_count = m + n + 2
    remaining = total
    while remaining > 0:
        dist = [None] * node_count
        parent_arc = [-1] * node_count
        dist[source] = zero
        for _ in range(node_count - 1):
            changed = False
            for k, (u, v, c) in arcs:
                if residual[k] > 0 and dist[u] is not None:
                    cand = dist[u] + c
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
            v = tails[k]
        push = min(min(residual[k] for k in path), remaining)
        for k in path:
            residual[k] -= push
            residual[k ^ 1] += push
        remaining -= push

    flow = {}
    value = 0
    k = 2 * (m + n) + 1
    for a, row in enumerate(costs):
        for b, c in enumerate(row):
            pushed = residual[k]
            if pushed > 0:
                flow[(a, b)] = pushed
                value += pushed * c
            k += 2
    flow = _cancel_support_cycles(flow, costs)
    return value, flow, dist[1 : m + 1], dist[m + 1 : m + n + 1]


def composition(draw, total, parts):
    """``total`` split into ``parts`` positive integers."""
    if parts == 1:
        return [total]
    cuts = sorted(draw(st.sets(st.integers(1, total - 1), min_size=parts - 1, max_size=parts - 1)))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


@st.composite
def flow_problems(draw):
    """A grid of costs with supplies and demands of equal sum, in ints or
    ``Fraction``s.  Masses are general, uniform (degenerate: every partial
    sum of the two sides can meet) or on a one-point side.  Costs run over
    0-2 or 0-9, so shortest paths tie often, or are zero off the diagonal
    on about half the cells, as in a pseudometric whose points coincide."""
    masses = draw(st.sampled_from(("general", "uniform", "one-point")))
    prices = draw(st.sampled_from(("small", "wide", "zero off-diagonal")))
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    if masses == "one-point":
        m, n = (1, n) if draw(st.booleans()) else (m, 1)
    if masses == "uniform":
        total, supply, demand = m * n, [n] * m, [m] * n
    else:
        total = draw(st.integers(max(m, n), 30))
        supply, demand = composition(draw, total, m), composition(draw, total, n)
    if prices == "zero off-diagonal":
        costs = [[0 if a == b or draw(st.booleans()) else draw(st.integers(1, 3)) for b in range(n)] for a in range(m)]
    else:
        costs = [[draw(st.integers(0, 2 if prices == "small" else 9)) for _b in range(n)] for _a in range(m)]
    if draw(st.booleans()):
        den = draw(st.integers(1, 4))
        costs = [[F(c, den) for c in row] for row in costs]
        supply, demand = [F(w, total) for w in supply], [F(w, total) for w in demand]
    return costs, supply, demand


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(flow_problems())
def test_kernel_matches_the_loop_that_tries_every_open_arc(problem):
    costs, supply, demand = problem
    # The repr shows every number's type and the flow's key order.
    assert repr(min_cost_flow(costs, supply, demand)) == repr(reference_min_cost_flow(costs, supply, demand))
