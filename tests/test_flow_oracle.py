"""An outside oracle for the flow kernel: networkx's network simplex.

Network simplex on integer data is exact, and it is a different algorithm
written by other people, so it checks ``kantorovich`` and the free-abelian
Graev norm at sizes the vertex walk (``fiber_vertices``) cannot reach.  Both
problems are scaled to integers first.  Only values are compared: on ties
the two solvers may pick different optimal plans, whose witnesses the
package checks itself.  networkx is a test dependency, imported without a
skip, so that a missing oracle fails here instead of hiding the check.
"""

import random
from fractions import Fraction as F

import networkx as nx
import pytest

from fiberdist.core import scale_to_integers
from fiberdist.sampling import random_metric_space
from fiberdist.transport import distribution, kantorovich
from fiberdist.words import PointedSpace, graev_distance, reduce_letters


def network_simplex_cost(supply: dict, demand: dict, costs) -> int:
    """Least cost of moving the integer ``supply`` (point -> units) onto
    ``demand`` along arcs of integer cost ``costs[x][y]``, by networkx."""
    graph = nx.DiGraph()
    for x, units in supply.items():
        graph.add_node(("out", x), demand=-units)
    for y, units in demand.items():
        graph.add_node(("in", y), demand=units)
    for x in supply:
        for y in demand:
            graph.add_edge(("out", x), ("in", y), weight=costs[x][y])
    cost, _flow = nx.network_simplex(graph)
    return cost


def spread(rng: random.Random, points: list[int], den: int) -> dict[int, F]:
    """A measure on ``points`` with positive masses over the denominator ``den``."""
    cuts = sorted(rng.sample(range(1, den), len(points) - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    return dict(zip(points, (F(k, den) for k in parts)))


@pytest.mark.parametrize(
    "n, full", [(16, True), (16, False), (24, True), (24, False), (32, True), (32, False), (48, True)]
)
def test_kantorovich_values_match_network_simplex(n, full):
    rng = random.Random(n * 2 + full)
    space = random_metric_space(rng, n, den_max=6)
    cost_den, costs, _rank, _nonnegative = space.pair_table().integer_view
    for _ in range(2):
        sides = [rng.sample(range(n), n if full else rng.randint(2, n // 2)) for _ in range(2)]
        mu, nu = (distribution(spread(rng, points, rng.randint(len(points), 3 * n))) for points in sides)
        mass_den, (supply, demand) = scale_to_integers([[w for _, w in mu.items()], [w for _, w in nu.items()]])
        expected = network_simplex_cost(dict(zip(mu.support, supply)), dict(zip(nu.support, demand)), costs)
        assert kantorovich(space.pair_table(), mu, nu).value == F(expected, mass_den * cost_den)


def long_abelian_word(rng: random.Random, pointed: PointedSpace):
    """A free-abelian word of 20 to 40 letters: random net exponents on the
    points other than the basepoint."""
    while True:
        net = {x: rng.randint(-7, 7) for x in range(pointed.n) if x != pointed.basepoint}
        if 20 <= sum(map(abs, net.values())) <= 40:
            letters = [(x, 1 if k > 0 else -1) for x, k in net.items() for _ in range(abs(k))]
            rng.shuffle(letters)
            return reduce_letters(letters, True, pointed)


def test_abelian_graev_values_match_network_simplex():
    """The Arens-Eells norm of net(b) - net(a): its positive part moves onto
    its negative part, and the basepoint gives or takes the difference.  On
    a metric this is one transport problem from c+ plus basepoint units
    onto c- plus basepoint units, each side padded to the same total."""
    rng = random.Random(40)
    two_signed = 0
    for _ in range(100):
        pointed = PointedSpace(random_metric_space(rng, 8, den_max=5), rng.randrange(8))
        e = pointed.basepoint
        a, b = long_abelian_word(rng, pointed), long_abelian_word(rng, pointed)
        residual = {x: 0 for x in range(8)}
        for word, sign in ((a, -1), (b, 1)):
            for x, s in word.letters:
                residual[x] += sign * s
        supply = {x: c for x, c in residual.items() if c > 0}
        demand = {x: -c for x, c in residual.items() if c < 0}
        two_signed += bool(supply and demand)
        supply[e], demand[e] = sum(demand.values()) + 1, sum(supply.values()) + 1
        den, costs, _rank, _nonnegative = pointed.space.pair_table().integer_view
        expected = network_simplex_cost(supply, demand, costs)
        result = graev_distance(a, b, pointed)
        assert not result.cap_limited
        assert result.value == F(expected, den)
    assert two_signed >= 75  # most residuals need a solve, not the forced plan
