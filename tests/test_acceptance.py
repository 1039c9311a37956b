"""Acceptance criteria, one test per criterion.

Every check is an exact rational equality or inequality unless the value
form forces a rooted comparison (finite-exponent power norms), which is
decided by the exact-first interval cascade.  Each test prints one
PASS/FAIL line with its runtime; stated runtime budgets are asserted.
"""

import json
import random
import subprocess
import sys
import time
from itertools import product

from fiberdist.extension import (
    check_extension_property,
    check_lipschitz,
    check_naturality,
    check_pseudometric_axioms,
    extend_generic,
)
from fiberdist.hyperspace import HyperspaceFunctor, hausdorff
from fiberdist.power import PNorm, PowerFunctor, power_distance
from fiberdist.sampling import (
    random_assignment,
    random_distribution,
    random_metric_space,
    random_phi,
    random_pseudometric_table,
    random_subset,
    random_word,
    random_word_of_length,
)
from fiberdist.transport import TransportFunctor, fiber_vertices, integrate, kantorovich
from fiberdist.words import (
    PointedSpace,
    WordsFunctor,
    check_word_pseudometric_axioms,
    graev_distance,
    naive_word_distance,
)

CLI = [sys.executable, "-m", "fiberdist.cli"]


def report(number, name, detail, started, budget):
    elapsed = time.time() - started
    print(f"ACCEPTANCE PASS: criterion {number} ({name}): {detail} [{elapsed:.1f}s]")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.1f}s)"


def extension_instances():
    """Instances whose lift restricts to the identity on embedded points.

    The finite-p power lift of a constant tuple multiplies the p-th power
    by the tuple length, so only the single-coordinate finite-p instances
    belong here; the max norm extends at every length.
    """
    return (
        [HyperspaceFunctor(), TransportFunctor()]
        + [PowerFunctor(n, PNorm.max_norm()) for n in (1, 2, 3)]
        + [PowerFunctor(1, PNorm(p)) for p in (1, 2, 3)]
        + [WordsFunctor(v, commutative=c) for v in ("graev", "swierczkowski") for c in (False, True)]
    )


def test_criterion_1_extension_property():
    started = time.time()
    rng = random.Random(2024_01)
    checked = 0
    for _ in range(50):
        n = rng.randint(2, 5)
        space = random_metric_space(rng, n, den_max=4, method=rng.choice(["band", "closure"]))
        for functor in extension_instances():
            if isinstance(functor, WordsFunctor):
                ctx = PointedSpace(space, 0)
                method = "specialized"
            else:
                ctx, method = space, "generic"
            rep = check_extension_property(functor, ctx, method=method)
            assert rep.ok, (functor.name, rep.failures[:3])
            assert rep.checked == n * n
            checked += rep.checked
    report(1, "extension property", f"{checked} embedded pairs over 50 spaces", started, 30)


def test_criterion_2_hausdorff_coincidence():
    started = time.time()
    rng = random.Random(2024_02)
    functor = HyperspaceFunctor()
    pairs = 0
    for _ in range(100):
        n = rng.randint(1, 3)
        space = random_metric_space(rng, n, den_max=4)
        table = space.pair_table()
        subsets = list(functor.enumerate_elements(space))
        for a in subsets:
            for b in subsets:
                direct = hausdorff(table, a, b)
                generic = extend_generic(functor, space, table, a, b)
                assert direct == generic.value, (space.points, a, b)
                assert functor.lift(table, generic.witness) == generic.value
                pairs += 1
    report(2, "hausdorff = fiber minimum", f"{pairs} ordered subset pairs, 100 spaces", started, 60)


def test_criterion_3_power_coincidence():
    started = time.time()
    rng = random.Random(2024_03)
    norms = [PNorm.max_norm(), PNorm(1), PNorm(2), PNorm(3)]
    pairs = 0
    for n_points in (1, 2, 3):
        for _ in range(2):
            space = random_metric_space(rng, n_points, den_max=4)
            table = space.pair_table()
            for length in (1, 2, 3):
                for norm in norms:
                    functor = PowerFunctor(length, norm)
                    for s in product(range(n_points), repeat=length):
                        for t in product(range(n_points), repeat=length):
                            generic = extend_generic(functor, space, table, s, t)
                            assert generic.value == power_distance(table, s, t, norm)
                            assert generic.fiber_size_enumerated == 1
                            pairs += 1
    report(3, "power closed form = fiber minimum", f"{pairs} tuple pairs, exhaustive", started, 10)


def test_criterion_4_kantorovich_solver_vs_oracle():
    started = time.time()
    rng = random.Random(2024_04)
    for trial in range(200):
        n = rng.randint(2, 4)
        space = random_metric_space(rng, n, den_max=4)
        table = space.pair_table()
        mu = random_distribution(rng, n, support_max=4, den_max=6)
        nu = random_distribution(rng, n, support_max=4, den_max=6)
        result = kantorovich(table, mu, nu)
        oracle = min(integrate(table, plan) for plan in fiber_vertices(mu, nu))
        assert result.value == oracle, (trial, mu.mass, nu.mass)
        assert len(result.plan.support) <= len(mu.support) + len(nu.support) - 1
        assert integrate(table, result.plan) == result.value
    report(4, "transport solver = vertex oracle", "200 instances, support bound held", started, 60)


def words_scale_space(rng):
    space = random_metric_space(rng, 3, den_max=4)
    return PointedSpace(space, 0)


def test_criterion_5_graev_swierczkowski():
    started = time.time()
    rng = random.Random(2024_05)

    # (a) single letters recover the base distance, all pairs, |X| <= 4.
    single = 0
    for n in (2, 3, 4):
        for _ in range(3):
            space = random_metric_space(rng, n, den_max=4)
            ctx = PointedSpace(space, 0)
            for commutative in (False, True):
                for variant in ("graev", "swierczkowski"):
                    for x in range(n):
                        for y in range(n):
                            from fiberdist.words import reduce_letters

                            a = reduce_letters([(x, 1)], commutative, ctx)
                            b = reduce_letters([(y, 1)], commutative, ctx)
                            assert graev_distance(a, b, ctx, variant).value == space.d(x, y)
                            single += 1

    # (b) positionwise >= distinct-pair on every word pair of reduced
    # length <= 3 over a 3-point space, at cap |A|+|B|+2.
    ctx = words_scale_space(rng)
    functor = WordsFunctor("graev")
    words = [w for w in functor.enumerate_elements(ctx, 3)]
    dominated = 0
    for i, a in enumerate(words):
        for b in words[i:]:
            cap = len(a) + len(b) + 2
            d1 = graev_distance(a, b, ctx, "graev", cap).value
            d2 = graev_distance(a, b, ctx, "swierczkowski", cap).value
            assert d1 >= d2, (a, b, d1, d2)
            dominated += 1

    # (c) the pruned searcher equals the naive generate-and-filter oracle.
    # The oracle enumerates (2 |X|^2)^cap strings, so sampled pairs keep
    # |A|+|B| <= 3 (cap 5); exhaustiveness within the cap is unaffected.
    compared = 0
    for _ in range(25):
        lengths = rng.choice([(0, 1), (1, 1), (1, 2)])
        a = random_word_of_length(rng, ctx, lengths[0])
        b = random_word_of_length(rng, ctx, lengths[1])
        cap = len(a) + len(b) + 2
        for variant in ("graev", "swierczkowski"):
            searched = graev_distance(a, b, ctx, variant, cap).value
            naive, _count = naive_word_distance(a, b, ctx, variant, cap)
            assert searched == naive, (a, b, variant)
            compared += 1
    report(
        5,
        "graev/swierczkowski",
        f"{single} single-letter pairs, {dominated} dominance pairs, {compared} oracle comparisons",
        started,
        120,
    )


def sampled_word_triples(rng, ctx, count, commutative=False):
    # Length mix calibrated so the shared-cap searches stay inside the
    # runtime budget while still covering reduced lengths up to 3.
    mixes = [(1, 1, 1)] * 35 + [(2, 1, 1)] * 27 + [(2, 2, 1)] * 18 + [(2, 2, 2)] * 10 + [
        (3, 1, 1)
    ] * 5 + [(3, 2, 1)] * 3 + [(3, 2, 2)] * 1 + [(3, 3, 3)] * 1
    triples = []
    while len(triples) < count:
        lengths = mixes[len(triples) % len(mixes)]
        triples.append(
            tuple(random_word_of_length(rng, ctx, L, commutative=commutative) for L in lengths)
        )
    return triples


def test_criterion_6_pseudometric_axioms():
    started = time.time()
    rng = random.Random(2024_06)

    hyper = HyperspaceFunctor()
    checked = violations = 0
    for _ in range(10):
        space = random_metric_space(rng, 3, den_max=4)
        table = space.pair_table()
        elements = [random_subset(rng, 3) for _ in range(6)]
        rep = check_pseudometric_axioms(hyper, space, table, elements)
        checked += rep.checked
        violations += len(rep.failures)
        assert rep.ok, rep.failures[:3]

    for norm in (PNorm.max_norm(), PNorm(1), PNorm(2), PNorm(3)):
        for length in (2, 3):
            functor = PowerFunctor(length, norm)
            for _ in range(2):
                space = random_metric_space(rng, 3, den_max=4)
                table = space.pair_table()
                elements = [
                    tuple(rng.randrange(3) for _ in range(length)) for _ in range(6)
                ]
                rep = check_pseudometric_axioms(functor, space, table, elements)
                checked += rep.checked
                violations += len(rep.failures)
                assert rep.ok, (functor.name, rep.failures[:3])
                assert not rep.notes, ("interval comparison undecided", rep.notes[:3])

    trans = TransportFunctor()
    for _ in range(10):
        n = rng.randint(2, 4)
        space = random_metric_space(rng, n, den_max=4)
        table = space.pair_table()
        elements = [random_distribution(rng, n, support_max=4, den_max=6) for _ in range(6)]
        rep = check_pseudometric_axioms(trans, space, table, elements)
        checked += rep.checked
        violations += len(rep.failures)
        assert rep.ok, rep.failures[:3]

    ctx = words_scale_space(rng)
    for variant in ("graev", "swierczkowski"):
        triples = sampled_word_triples(rng, ctx, 200)
        rep = check_word_pseudometric_axioms(ctx, variant, triples)
        checked += rep.checked
        violations += len(rep.failures)
        assert rep.ok, (variant, rep.failures[:3])
    abelian_triples = sampled_word_triples(rng, ctx, 200, commutative=True)
    rep = check_word_pseudometric_axioms(ctx, "graev", abelian_triples)
    checked += rep.checked
    violations += len(rep.failures)
    assert rep.ok, rep.failures[:3]

    report(6, "pseudometric axioms", f"{checked} checks, {violations} violations", started, 180)


def lipschitz_elements(rng, functor, ctx):
    if isinstance(functor, HyperspaceFunctor):
        return [(random_subset(rng, ctx.n), random_subset(rng, ctx.n)) for _ in range(5)]
    if isinstance(functor, PowerFunctor):
        draw = lambda: tuple(rng.randrange(ctx.n) for _ in range(functor.n))
        return [(draw(), draw()) for _ in range(5)]
    if isinstance(functor, TransportFunctor):
        return [
            (random_distribution(rng, ctx.n, den_max=3), random_distribution(rng, ctx.n, den_max=3))
            for _ in range(4)
        ]
    return [
        (random_word(rng, ctx, 1, functor.commutative), random_word(rng, ctx, 2, functor.commutative))
        for _ in range(3)
    ]


def test_criterion_7_lipschitz_bound():
    started = time.time()
    rng = random.Random(2024_07)
    functors = [
        HyperspaceFunctor(),
        PowerFunctor(2, PNorm(1)),
        PowerFunctor(2, PNorm(2)),
        PowerFunctor(2, PNorm.max_norm()),
        TransportFunctor(),
        WordsFunctor("graev"),
        WordsFunctor("swierczkowski"),
        WordsFunctor("graev", commutative=True),
    ]
    comparisons = 0
    for functor in functors:
        for _ in range(50):
            space = random_metric_space(rng, 3, den_max=4)
            ctx = PointedSpace(space, 0) if isinstance(functor, WordsFunctor) else space
            t1 = random_pseudometric_table(rng, 3)
            t2 = random_pseudometric_table(rng, 3)
            rep = check_lipschitz(functor, ctx, t1, t2, lipschitz_elements(rng, functor, ctx))
            comparisons += rep.checked
            assert rep.ok, (functor.name, rep.failures[:3])
    report(7, "perturbation bound", f"{comparisons} comparisons, 50 table pairs per functor", started, 120)


def test_criterion_8_naturality():
    started = time.time()
    rng = random.Random(2024_08)
    cases = [
        (HyperspaceFunctor(), 3, False),
        (PowerFunctor(1, PNorm(2)), 0, False),
        (PowerFunctor(2, PNorm(1)), 0, False),
        (PowerFunctor(2, PNorm.max_norm()), 0, False),
        (TransportFunctor(), 4, False),
        (WordsFunctor("graev"), 2, True),
        (WordsFunctor("swierczkowski"), 2, True),
        (WordsFunctor("graev", commutative=True), 2, True),
    ]
    elements = 0
    for functor, cap, injective in cases:
        for _ in range(50):
            src_n = rng.randint(1, 3) if not injective else rng.randint(2, 3)
            dst_n = rng.randint(src_n, 3) if injective else rng.randint(1, 3)
            src = random_metric_space(rng, src_n, den_max=4)
            dst = random_metric_space(rng, dst_n, den_max=4)
            assignment = random_assignment(rng, src_n, dst_n, injective=injective)
            phi = random_phi(rng, dst_n)
            if injective:
                src_ctx = PointedSpace(src, 0)
                dst_ctx = PointedSpace(dst, assignment[0])
            else:
                src_ctx, dst_ctx = src, dst
            rep = check_naturality(functor, src_ctx, dst_ctx, assignment, phi, cap=cap)
            elements += rep.checked
            assert rep.ok, (functor.name, rep.failures[:3])
    report(8, "naturality", f"{elements} pushed elements, 50 maps per functor", started, 120)


def test_criterion_9_cli_contract(tmp_path):
    started = time.time()

    def run_cli(*args):
        proc = subprocess.run(CLI + list(args), capture_output=True, text=True)
        return proc.returncode, proc.stdout

    code, out = run_cli("selftest")
    assert code == 0, out
    assert all(line.startswith("PASS") for line in out.splitlines() if line)

    space = {
        "points": ["x", "y"],
        "matrix": [["0", "5"], ["5", "0"]],
        "mode": "metric",
    }
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space, indent=2) + "\n")
    code, out = run_cli(
        "dist",
        "transport",
        "--method",
        "both",
        "--inject-fault",
        "transport-solver",
        "--space",
        str(path),
        "--a",
        '{"x":"1"}',
        "--b",
        '{"y":"1"}',
    )
    assert code == 3, out
    payload = json.loads(out)
    assert payload["match"] is False
    assert payload["specialized"]["witness"] and payload["generic"]["witness"]

    code, out = run_cli("validate", "--space", str(path))
    assert code == 0
    assert out == path.read_text()

    report(9, "cli contract", "selftest 0, corrupted both-mode 3, byte round-trip", started, 120)
