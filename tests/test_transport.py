import hashlib
import itertools
import json
import random
from fractions import Fraction as F

import pytest

from fiberdist.core import PairTable, scale_to_integers, validate_space
from fiberdist.extension import WitnessError, extend_generic, first_minimum
from fiberdist.sampling import random_distribution, random_metric_space, random_pseudometric_table
from fiberdist.transport import (
    Distribution,
    FiberCapExceeded,
    TransportFunctor,
    UnbalancedMassError,
    distribution,
    dual_certificate,
    fiber_vertices,
    integrate,
    kantorovich,
    min_cost_flow,
    point_mass,
    transport_plan,
)


def marginals(plan):
    return TransportFunctor().marginals(plan, None)


def glue_plans(plan_ab, plan_bc):
    """Compose two plans through their shared middle marginal nu: the
    three-way weights eta1[i,k] * eta2[k,j] / nu[k] summed over k."""
    middle_out, middle_in = marginals(plan_ab)[1], marginals(plan_bc)[0]
    if middle_out != middle_in:
        raise ValueError(f"middle marginals differ: {middle_out.mass} vs {middle_in.mass}")
    nu = dict(middle_out.items())
    acc = {}
    for (i, k), w1 in plan_ab.items():
        for (k2, j), w2 in plan_bc.items():
            if k2 == k:
                acc[(i, j)] = acc.get((i, j), F(0)) + w1 * w2 / nu[k]
    return transport_plan(acc)


@pytest.fixture
def off_by_one_potential(monkeypatch):
    """Hand the certificate check the solver's potentials with the first
    row potential raised by one."""
    from fiberdist import transport

    certify = transport.dual_certificate

    def shifted(costs, supply, demand, flow, value, row_potentials, col_potentials):
        raised = [row_potentials[0] + 1, *row_potentials[1:]]
        certify(costs, supply, demand, flow, value, raised, col_potentials)

    monkeypatch.setattr(transport, "dual_certificate", shifted)


def two_point(d=F(1)):
    return validate_space(["x", "y"], [[F(0), d], [d, F(0)]], "metric")


class TestDistribution:
    def test_drops_zero_weights(self):
        d = distribution({0: F(1, 2), 1: F(1, 2), 2: F(0)})
        assert d.support == (0, 1)

    def test_unbalanced_rejected(self):
        with pytest.raises(UnbalancedMassError):
            distribution({0: F(1, 2)})
        with pytest.raises(UnbalancedMassError):
            distribution({0: F(2, 3), 1: F(2, 3)})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            distribution({0: F(3, 2), 1: F(-1, 2)})


class TestIntegrate:
    def test_point_mass(self):
        phi = [F(2), F(7)]
        assert integrate(lambda i: phi[i], point_mass(1)) == F(7)

    def test_uniform_average(self):
        phi = [F(0), F(1)]
        d = distribution({0: F(1, 2), 1: F(1, 2)})
        assert integrate(lambda i: phi[i], d) == F(1, 2)

    def test_constant(self):
        d = distribution({0: F(1, 3), 1: F(2, 3)})
        assert integrate(lambda i: F(9, 4), d) == F(9, 4)


class TestKantorovich:
    def test_point_masses(self):
        sp = two_point(F(5))
        r = kantorovich(sp.pair_table(), point_mass(0), point_mass(1))
        assert r.value == F(5)
        assert r.plan.flow == ((((0, 1)), F(1)),)

    def test_identical_marginals_diagonal_plan(self):
        sp = two_point()
        mu = distribution({0: F(1, 3), 1: F(2, 3)})
        r = kantorovich(sp.pair_table(), mu, mu)
        assert r.value == 0
        assert set(r.plan.support) == {(0, 0), (1, 1)}

    def test_uniform_to_point(self):
        sp = two_point()
        mu = distribution({0: F(1, 2), 1: F(1, 2)})
        r = kantorovich(sp.pair_table(), mu, point_mass(0))
        assert r.value == F(1, 2)
        assert marginals(r.plan) == (mu, point_mass(0))

    def test_plan_reintegrates_to_value(self):
        rng = random.Random(2)
        for _ in range(40):
            sp = random_metric_space(rng, rng.randint(2, 4))
            t = sp.pair_table()
            mu = random_distribution(rng, sp.n)
            nu = random_distribution(rng, sp.n)
            r = kantorovich(t, mu, nu)
            assert integrate(t, r.plan) == r.value
            assert marginals(r.plan) == (mu, nu)

    def test_plan_value_mismatch_raises(self, monkeypatch):
        from fiberdist import transport

        # Both supports are {0, 1}, so grid cells are point pairs here.
        def shifted(flow, costs):
            return {(i, 1 - j): w for (i, j), w in flow.items()}

        monkeypatch.setattr(transport, "_cancel_support_cycles", shifted)
        mu = distribution({0: F(1, 3), 1: F(2, 3)})
        with pytest.raises(WitnessError, match="re-integrate"):
            kantorovich(two_point().pair_table(), mu, mu)

    def test_dual_certificate(self):
        # Feasible potentials with exact complementary slackness certify
        # optimality independently of the solver's own bookkeeping.  Beyond
        # metric tables: pseudometric tables with zero off-diagonal entries,
        # nonnegative tables that break the triangle inequality, and
        # one-point supports on either side, since the potentials are the
        # solver's last round of shortest distances and every node must be
        # reachable in it.
        rng = random.Random(14)
        cases = []
        for _ in range(20):
            sp = random_metric_space(rng, rng.randint(2, 4))
            cases.append((sp.pair_table(), random_distribution(rng, sp.n), random_distribution(rng, sp.n)))
        tables = []
        for _ in range(20):
            n = rng.randint(2, 5)
            tables.append(random_pseudometric_table(rng, n, zero_prob=0.5))
            costs = [[F(rng.randint(0, 9), rng.randint(1, 3)) for _j in range(n)] for _i in range(n)]
            tables.append(PairTable([[F(0) if i == j else c for j, c in enumerate(row)] for i, row in enumerate(costs)]))
        assert any(t((i, j)) == 0 for t in tables[::2] for i in range(t.n) for j in range(t.n) if i != j)
        assert any(
            t((i, k)) > t((i, j)) + t((j, k)) for t in tables[1::2] for i, j, k in itertools.permutations(range(t.n), 3)
        )
        for t in tables:
            mu = random_distribution(rng, t.n)
            nu = random_distribution(rng, t.n)
            cases += [(t, mu, nu), (t, point_mass(rng.randrange(t.n)), nu), (t, mu, point_mass(rng.randrange(t.n)))]
        for t, mu, nu in cases:
            r = kantorovich(t, mu, nu)
            assert set(r.dual_row) == set(mu.support) and set(r.dual_col) == set(nu.support)
            for i in mu.support:
                for j in nu.support:
                    reduced = t((i, j)) + r.dual_row[i] - r.dual_col[j]
                    assert reduced >= 0
            for (i, j), _w in r.plan.items():
                assert t((i, j)) + r.dual_row[i] - r.dual_col[j] == 0
            certified = sum(
                (w * (r.dual_col[j] - r.dual_row[i]) for (i, j), w in r.plan.items()),
                F(0),
            )
            assert certified == r.value

    def test_broken_potentials_fail_the_certificate(self, off_by_one_potential):
        mu = distribution({0: F(1, 3), 1: F(2, 3)})
        with pytest.raises(WitnessError, match="complementary slackness"):
            kantorovich(two_point().pair_table(), mu, point_mass(0))

    def test_broken_potentials_exit_2(self, off_by_one_potential, tmp_path, capsys):
        from fiberdist import cli

        path = tmp_path / "space.json"
        path.write_text(json.dumps({"points": ["x", "y"], "matrix": [["0", "5"], ["5", "0"]], "mode": "metric"}))
        argv = ["dist", "transport", "--space", str(path), "--a", '{"x":"1/3","y":"2/3"}', "--b", '{"x":"1"}']
        assert cli.main(argv) == 2
        assert list(json.loads(capsys.readouterr().out)) == ["error"]

    def test_moved_plan_cell_fails_the_certificate(self, monkeypatch):
        # d(0, 1) = 0, so moving the plan's one cell from (0, 1) to (0, 0)
        # keeps its cost and breaks only the column marginal.  The solver's
        # grid has the one cell of the supports {0} x {1}, so the move is
        # made where its flow becomes a plan on point pairs.
        from fiberdist import transport

        plan_of = transport.transport_plan
        monkeypatch.setattr(transport, "transport_plan", lambda flow: plan_of({(0, 0): flow[(0, 1)]}))
        table = PairTable([[F(0), F(0), F(1)], [F(0), F(0), F(1)], [F(1), F(1), F(0)]])
        with pytest.raises(WitnessError, match="marginals"):
            kantorovich(table, point_mass(0), point_mass(1))

    def test_support_bound(self):
        rng = random.Random(21)
        for _ in range(40):
            sp = random_metric_space(rng, 4)
            mu = random_distribution(rng, 4)
            nu = random_distribution(rng, 4)
            r = kantorovich(sp.pair_table(), mu, nu)
            assert len(r.plan.support) <= len(mu.support) + len(nu.support) - 1


class TestFiberVertices:
    def test_single_cell(self):
        plans = list(fiber_vertices(point_mass(0), point_mass(1)))
        assert len(plans) == 1
        assert plans[0].flow == (((0, 1), F(1)),)

    def test_forced_column(self):
        mu = distribution({0: F(1, 2), 1: F(1, 2)})
        plans = list(fiber_vertices(mu, point_mass(0)))
        assert len(plans) == 1
        assert dict(plans[0].flow) == {(0, 0): F(1, 2), (1, 0): F(1, 2)}

    def test_two_by_two_uniform(self):
        u = distribution({0: F(1, 2), 1: F(1, 2)})
        plans = list(fiber_vertices(u, u))
        supports = {p.support for p in plans}
        assert supports == {((0, 0), (1, 1)), ((0, 1), (1, 0))}

    def test_cap(self):
        rng = random.Random(1)
        sp = random_metric_space(rng, 5)
        mu = distribution({i: F(1, 5) for i in range(5)})
        with pytest.raises(FiberCapExceeded):
            list(fiber_vertices(mu, mu))

    def test_marginals_of_every_vertex(self):
        rng = random.Random(6)
        for _ in range(10):
            mu = random_distribution(rng, 4, support_max=3, den_max=5)
            nu = random_distribution(rng, 4, support_max=3, den_max=5)
            for plan in fiber_vertices(mu, nu):
                assert marginals(plan) == (mu, nu)
                assert len(plan.support) <= len(mu.support) + len(nu.support) - 1


# Vertex streams of the rational tree solves: the number of plans and a
# sha256 prefix of the ordered plans, per pair of VERTEX_SHAPES supports.
VERTEX_STREAMS = [
    (384, "ea7a6f3af2ee0cad"),
    (170, "6f14a41e1734bee3"),
    (49, "27025fba54e8bd23"),
    (196, "8fd1b49afc1d6eb7"),
    (71, "3600c17969d09a6e"),
    (12, "7e7234f9d200f772"),
    (16, "7ff1ee8e5f64729f"),
    (24, "9887ed05eed87f43"),
]
VERTEX_SHAPES = [(4, 4), (3, 5), (3, 4), (4, 4), (4, 3), (3, 3), (2, 5), (4, 4)]


def vertex_pair(seed):
    m, n = VERTEX_SHAPES[seed]
    if seed == 7:  # uniform marginals: degenerate vertices reached from many trees
        return distribution({i: F(1, m) for i in range(m)}), distribution({j: F(1, n) for j in range(n)})
    rng = random.Random(seed)

    def masses(support):
        raw = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in support]
        total = sum(raw)
        return distribution({p: w / total for p, w in zip(support, raw)})

    return masses(rng.sample(range(6), m)), masses(rng.sample(range(6), n))


@pytest.mark.parametrize("seed", range(len(VERTEX_STREAMS)))
def test_vertex_stream_is_pinned(seed):
    plans = list(fiber_vertices(*vertex_pair(seed)))
    assert all(type(w) is F for plan in plans for _cell, w in plan.items())
    text = "\n".join(" ".join(f"{i},{j},{w}" for (i, j), w in plan.items()) for plan in plans)
    assert (len(plans), hashlib.sha256(text.encode()).hexdigest()[:16]) == VERTEX_STREAMS[seed]


def test_walk_visits_each_perturbed_basis_once(monkeypatch):
    # Orden's perturbation leaves uniform 4x4 masses 384 feasible bases for
    # their 24 vertices, and the walk roots each basis's tree once.  A walk
    # that also follows the theta = 0 pivots of the unperturbed masses
    # visits 3,072 bases.
    from fiberdist import transport

    bases = []
    root_paths = transport._root_paths

    def counted(basis, m, n):
        bases.append(tuple(basis))
        return root_paths(basis, m, n)

    monkeypatch.setattr(transport, "_root_paths", counted)
    assert len(list(fiber_vertices(*vertex_pair(7)))) == 24
    assert (len(bases), len(set(bases))) == (384, 384)


def reference_spanning_trees(m, n):
    """Every (m+n-1)-subset of the row-major cells that union-find finds
    acyclic, in ``itertools.combinations`` order."""
    cells = [(a, b) for a in range(m) for b in range(n)]
    for tree in itertools.combinations(cells, m + n - 1):
        parent = list(range(m + n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in tree:
            ra, rb = find(a), find(m + b)
            if ra == rb:
                break
            parent[ra] = rb
        else:
            yield tree


def reference_tree_flow(tree, need, m):
    """The one flow on a spanning tree's cells meeting the masses ``need``
    (rows, then columns), by stripping leaves: a node's XOR of incident
    cell indices names its last live cell once it is a leaf."""
    need = list(need)
    degree = [0] * len(need)
    edges = [0] * len(need)
    for idx, (a, b) in enumerate(tree):
        for node in (a, m + b):
            degree[node] += 1
            edges[node] ^= idx
    leaves = [node for node, count in enumerate(degree) if count == 1]
    flow = [None] * len(tree)
    while leaves:
        node = leaves.pop()
        if degree[node] != 1:
            continue
        idx = edges[node]
        a, b = tree[idx]
        flow[idx] = w = need[node]
        for end in (a, m + b):
            need[end] -= w
            edges[end] ^= idx
            degree[end] -= 1
            if degree[end] == 1:
                leaves.append(end)
    return flow


GRID_SHAPES = [(m, n) for m in range(1, 21) for n in range(1, 21) if m * n <= 20]


@pytest.mark.parametrize("m,n", GRID_SHAPES)
def test_spanning_tree_walk_matches_filtered_combinations(m, n):
    # The vertices are the nonnegative flows of spanning trees, each in the
    # place of the first tree that carries it, for random masses and for
    # degenerate ones: uniform, small-integer and powers of two, whose
    # subset sums collide the most.
    rng = random.Random(m * 100 + n)
    trees = list(reference_spanning_trees(m, n))
    assert len(trees) == m ** (n - 1) * n ** (m - 1)  # Scoins' formula for K_{m,n}
    for weights in (range(1, 10), [1], range(1, 4), [1, 2, 4]):
        rows, cols = ([rng.choice(weights) for _ in range(k)] for k in (m, n))
        mu = distribution({i: F(w, sum(rows)) for i, w in enumerate(rows)})
        nu = distribution({j: F(w, sum(cols)) for j, w in enumerate(cols)})
        # Trees are solved on the masses times sum(rows) * sum(cols).
        need = [w * sum(cols) for w in rows] + [w * sum(rows) for w in cols]
        expected = {}
        for tree in trees:
            flow = reference_tree_flow(tree, need, m)
            if min(flow) >= 0:
                plan = tuple((cell, F(w, sum(rows) * sum(cols))) for cell, w in zip(tree, flow) if w > 0)
                expected.setdefault(plan, None)
        assert [plan.flow for plan in fiber_vertices(mu, nu)] == list(expected)


@pytest.mark.parametrize("m,n", GRID_SHAPES)
def test_fiber_minimum_matches_the_ranked_stream(m, n):
    # TransportFunctor.fiber_minimum orders only the vertices tied at the
    # minimum, and all of them when it stops at a zero; it must pick the
    # stream's first minimum and count as the stream does.  Zero and
    # constant ranks tie every vertex; stop_at_zero is only asked with
    # nonnegative ranks.
    rng = random.Random(m * 100 + n)
    functor = TransportFunctor()
    cells = [(i, j) for i in range(m) for j in range(n)]
    for top in (9, 1, 3):
        rows, cols = ([rng.randint(1, top) for _ in range(k)] for k in (m, n))
        mu = distribution({i: F(w, sum(rows)) for i, w in enumerate(rows)})
        nu = distribution({j: F(w, sum(cols)) for j, w in enumerate(cols)})
        plans = list(fiber_vertices(mu, nu))
        for ranks in ([0] * len(cells), [2] * len(cells), [rng.randint(0, 4) for _ in cells]):
            rank = dict(zip(cells, ranks)).__getitem__
            for stop_at_zero in (False, True):
                best, plan, count = first_minimum(((integrate(rank, p), p) for p in plans), stop_at_zero)
                assert functor.fiber_minimum(mu, nu, None, rank, stop_at_zero) == (best, plan, count)


class TestFlowKernelScaling:
    """The kernel on integers: what ``kantorovich`` would run once its masses
    and costs are scaled to integers.  On costs times den and masses times D
    it must return exactly the rational run, scaled: value times D * den, flow
    times D and potentials times den, all ints, and its potentials must pass
    the certificate on the integer data."""

    @staticmethod
    def instances():
        rng = random.Random(26)
        for k in range(300):
            n = rng.randint(1, 8)
            kind = k % 3
            if kind == 0:
                table = random_metric_space(rng, n, den_max=rng.randint(1, 6)).pair_table()
            elif kind == 1:
                table = random_pseudometric_table(rng, n, zero_prob=0.5)
            else:  # nonnegative, zero diagonal, triangle inequality not required
                costs = [[F(rng.randint(0, 9), rng.randint(1, 3)) for _j in range(n)] for _i in range(n)]
                table = PairTable([[F(0) if i == j else c for j, c in enumerate(row)] for i, row in enumerate(costs)])
            shape = k % 5
            if shape == 0:  # degenerate: uniform masses on equal-size supports
                size = rng.randint(1, n)
                mu, nu = (distribution({i: F(1, size) for i in rng.sample(range(n), size)}) for _ in range(2))
            elif shape == 1:
                mu, nu = point_mass(rng.randrange(n)), random_distribution(rng, n, support_max=8)
            elif shape == 2:
                mu, nu = random_distribution(rng, n, support_max=8), point_mass(rng.randrange(n))
            else:
                mu, nu = (random_distribution(rng, n, support_max=8, den_max=12) for _ in range(2))
            yield table, mu, nu

    def test_integer_run_is_the_rational_run_scaled(self):
        seen = set()
        for table, mu, nu in self.instances():
            supply = [w for _i, w in mu.items()]
            demand = [w for _j, w in nu.items()]
            costs = [[table((i, j)) for j in nu.support] for i in mu.support]
            mass_den, (int_supply, int_demand) = scale_to_integers([supply, demand])
            cost_den, int_costs = scale_to_integers(costs)
            value, flow, rows, cols = min_cost_flow(costs, supply, demand)
            int_value, int_flow, int_rows, int_cols = min_cost_flow(int_costs, int_supply, int_demand)
            assert int_value == value * mass_den * cost_den
            assert int_flow == {cell: w * mass_den for cell, w in flow.items()}
            assert list(int_flow) == list(flow)
            assert int_rows == [u * cost_den for u in rows] and int_cols == [v * cost_den for v in cols]
            numbers = [int_value, *int_flow.values(), *int_rows, *int_cols]
            assert all(type(x) is int for x in numbers)
            dual_certificate(int_costs, int_supply, int_demand, int_flow, int_value, int_rows, int_cols)
            if min(len(mu.support), len(nu.support)) == 1:
                seen.add("one-point support")
            if len(set(supply + demand)) == 1 and len(supply) > 1:
                seen.add("uniform masses")
            if any(table((i, j)) == 0 for i in mu.support for j in nu.support if i != j):
                seen.add("zero off-diagonal cost")
            if any(table((i, k)) > table((i, j)) + table((j, k)) for i, j, k in itertools.permutations(range(table.n), 3)):
                seen.add("triangle inequality broken")
        assert len(seen) == 4


# sha256 prefixes of repr(kantorovich(...)) on bench_scale_pair(n, full):
# value, plan (cell order included) and both potential maps, as the kernel
# returned them while every Bellman-Ford pass still tried every open arc.
KANTOROVICH_ANSWERS = {
    (8, True): "0da8cbee8c5b5088",
    (8, False): "97e0e0b98385d4a8",
    (16, True): "15cb71d8b950b4f1",
    (16, False): "277788f876812a89",
    (24, True): "ea1f6b135299ba1e",
    (24, False): "ee3be75a2af1da54",
    (32, True): "8e61c8774327c7bf",
    (32, False): "596849ff38b8df56",
}


def bench_scale_pair(n, full):
    """A shortest-path-closed space on n points and two measures drawn as
    the transport benchmark draws them (masses k/q with k, q <= 12,
    normalized), on all n points or on n // 3 of them."""
    rng = random.Random(100 * n + full)
    table = random_metric_space(rng, n, method="closure").pair_table()

    def masses():
        support = range(n) if full else rng.sample(range(n), n // 3)
        raw = {i: F(rng.randint(1, 12), rng.randint(1, 12)) for i in support}
        total = sum(raw.values())
        return distribution({i: w / total for i, w in raw.items()})

    return table, masses(), masses()


@pytest.mark.parametrize("n, full", list(KANTOROVICH_ANSWERS))
def test_kantorovich_answers_are_pinned(n, full):
    result = kantorovich(*bench_scale_pair(n, full))
    assert hashlib.sha256(repr(result).encode()).hexdigest()[:16] == KANTOROVICH_ANSWERS[(n, full)]


class TestSolverVsOracle:
    def test_sampled_instances(self):
        rng = random.Random(77)
        for _ in range(60):
            sp = random_metric_space(rng, rng.randint(2, 4))
            t = sp.pair_table()
            mu = random_distribution(rng, sp.n, support_max=4, den_max=6)
            nu = random_distribution(rng, sp.n, support_max=4, den_max=6)
            solved = kantorovich(t, mu, nu).value
            oracle = min(integrate(t, plan) for plan in fiber_vertices(mu, nu))
            assert solved == oracle

    def test_generic_engine_agrees(self):
        functor = TransportFunctor()
        rng = random.Random(78)
        for _ in range(15):
            sp = random_metric_space(rng, 3)
            t = sp.pair_table()
            mu = random_distribution(rng, 3, den_max=4)
            nu = random_distribution(rng, 3, den_max=4)
            generic = extend_generic(functor, sp, t, mu, nu, early_exit=False)
            assert generic.value == kantorovich(t, mu, nu).value
            assert integrate(t, generic.witness) == generic.value


class TestGluePlans:
    def test_identity_plan_is_neutral(self):
        sp = two_point()
        mu = distribution({0: F(1, 4), 1: F(3, 4)})
        nu = distribution({0: F(1, 2), 1: F(1, 2)})
        plan = kantorovich(sp.pair_table(), mu, nu).plan
        diag = transport_plan({(i, i): w for i, w in nu.items()})
        assert glue_plans(plan, diag) == plan

    def test_point_mass_chain(self):
        sp = validate_space(
            ["x", "y", "z"],
            [[F(0), F(1), F(2)], [F(1), F(0), F(1)], [F(2), F(1), F(0)]],
            "metric",
        )
        ab = transport_plan({(0, 1): F(1)})
        bc = transport_plan({(1, 2): F(1)})
        glued = glue_plans(ab, bc)
        assert glued.flow == (((0, 2), F(1)),)
        t = sp.pair_table()
        assert integrate(t, glued) <= integrate(t, ab) + integrate(t, bc)

    def test_triangle_bound_sampled(self):
        rng = random.Random(55)
        for _ in range(30):
            sp = random_metric_space(rng, 3)
            t = sp.pair_table()
            mu = random_distribution(rng, 3, den_max=4)
            nu = random_distribution(rng, 3, den_max=4)
            rho = random_distribution(rng, 3, den_max=4)
            ab = kantorovich(t, mu, nu).plan
            bc = kantorovich(t, nu, rho).plan
            glued = glue_plans(ab, bc)
            assert marginals(glued) == (mu, rho)
            assert integrate(t, glued) <= integrate(t, ab) + integrate(t, bc)

    def test_middle_marginal_mismatch(self):
        ab = transport_plan({(0, 0): F(1)})
        bc = transport_plan({(1, 0): F(1)})
        with pytest.raises(ValueError, match="middle marginals differ"):
            glue_plans(ab, bc)


class TestSupportCycleCancellation:
    def test_cost_neutral_cycle_is_removed(self):
        from fiberdist.core import PairTable
        from fiberdist.transport import _cancel_support_cycles

        flat = PairTable([[F(1), F(1)], [F(1), F(1)]])
        flow = {
            (0, 0): F(1, 4),
            (0, 1): F(1, 4),
            (1, 0): F(1, 4),
            (1, 1): F(1, 4),
        }
        reduced = _cancel_support_cycles(dict(flow), flat.values)
        assert len(reduced) <= 3
        assert sum(reduced.values()) == 1
        rows = {}
        cols = {}
        for (i, j), w in reduced.items():
            rows[i] = rows.get(i, F(0)) + w
            cols[j] = cols.get(j, F(0)) + w
        assert rows == {0: F(1, 2), 1: F(1, 2)}
        assert cols == {0: F(1, 2), 1: F(1, 2)}

    def test_cost_bearing_cycle_raises(self):
        from fiberdist.core import PairTable
        from fiberdist.transport import _cancel_support_cycles

        skew = PairTable([[F(1), F(2)], [F(1), F(1)]])
        flow = {
            (0, 0): F(1, 4),
            (0, 1): F(1, 4),
            (1, 0): F(1, 4),
            (1, 1): F(1, 4),
        }
        with pytest.raises(RuntimeError):
            _cancel_support_cycles(dict(flow), skew.values)

    def test_forest_flow_untouched(self):
        from fiberdist.core import PairTable
        from fiberdist.transport import _cancel_support_cycles

        table = PairTable([[F(1), F(2)], [F(1), F(1)]])
        flow = {(0, 0): F(1, 2), (1, 0): F(1, 4), (1, 1): F(1, 4)}
        assert _cancel_support_cycles(dict(flow), table.values) == flow


class TestMetricAxiomsSampled:
    def test_symmetry_identity_triangle(self):
        rng = random.Random(99)
        for _ in range(15):
            sp = random_metric_space(rng, 3)
            t = sp.pair_table()
            a = random_distribution(rng, 3, den_max=4)
            b = random_distribution(rng, 3, den_max=4)
            c = random_distribution(rng, 3, den_max=4)
            dab = kantorovich(t, a, b).value
            assert kantorovich(t, a, a).value == 0
            assert dab == kantorovich(t, b, a).value
            assert kantorovich(t, a, c).value <= dab + kantorovich(t, b, c).value
