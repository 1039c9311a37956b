"""Built-in verification suites behind the CLI selftest command.

Each suite is a smaller, seeded version of the corresponding acceptance
test: the coincidence of specialized paths with the generic fiber minimum,
the extension property, the pseudometric axioms, the perturbation bound and
naturality.  Deterministic by construction (fixed seeds, canonical
enumeration orders), so two runs print identical output.

``inject_fault="transport-solver"`` deliberately corrupts the optimal
transport value, which the solver-vs-oracle suite must catch, and
``inject_fault="words-dp"`` the exact Graev value, which the
words-search-vs-naive suite must catch; they exist so the failure path of
the cross-checking machinery is itself testable.
"""

from __future__ import annotations

import random
import sys
import traceback

from .extension import (
    FAULTS,
    EmptyFiberError,
    check_extension_property,
    check_lipschitz,
    check_naturality,
    check_operator_axioms,
    check_pseudometric_axioms,
    extend_generic,
)
from .hyperspace import HyperspaceFunctor, hausdorff
from .power import PNorm, PowerFunctor, power_distance
from .sampling import (
    dominated_pair,
    random_assignment,
    random_distribution,
    random_metric_space,
    random_phi,
    random_pseudometric_table,
    random_subset,
    random_word,
    random_word_of_length,
)
from .transport import TransportFunctor, fiber_vertices, integrate, kantorovich
from .words import (
    VARIANTS,
    PointedSpace,
    WordsFunctor,
    check_word_pseudometric_axioms,
    graev_distance,
    naive_word_distance,
    search_word_distance,
)


def _functor_families():
    return [
        HyperspaceFunctor(),
        PowerFunctor(1, PNorm(2)),
        PowerFunctor(2, PNorm.max_norm()),
        TransportFunctor(),
        WordsFunctor("graev"),
        WordsFunctor("swierczkowski"),
        WordsFunctor("graev", commutative=True),
    ]


def _ctx_for(functor, space):
    if isinstance(functor, WordsFunctor):
        return PointedSpace(space, 0)
    return space


def suite_extension_property() -> tuple[bool, str]:
    rng = random.Random(101)
    bad = 0
    checked = 0
    for _ in range(6):
        space = random_metric_space(rng, rng.randint(2, 4))
        for functor in _functor_families():
            ctx = _ctx_for(functor, space)
            method = "specialized" if isinstance(functor, WordsFunctor) else "generic"
            report = check_extension_property(functor, ctx, method=method)
            checked += report.checked
            bad += len(report.failures)
    return bad == 0, f"{checked} embedded pairs, {bad} mismatches"


def suite_pseudometric_axioms() -> tuple[bool, str]:
    rng = random.Random(102)
    failures = 0
    checked = 0
    space = random_metric_space(rng, 3)
    table = space.pair_table()
    hyper = HyperspaceFunctor()
    elems = [random_subset(rng, 3) for _ in range(5)]
    report = check_pseudometric_axioms(hyper, space, table, elems)
    checked, failures = checked + report.checked, failures + len(report.failures)
    power = PowerFunctor(2, PNorm(2))
    tuples = [(rng.randrange(3), rng.randrange(3)) for _ in range(4)]
    report = check_pseudometric_axioms(power, space, table, [tuple(t) for t in tuples])
    checked, failures = checked + report.checked, failures + len(report.failures)
    trans = TransportFunctor()
    dists = [random_distribution(rng, 3, 3, 4) for _ in range(4)]
    report = check_pseudometric_axioms(trans, space, table, dists)
    checked, failures = checked + report.checked, failures + len(report.failures)
    pointed = PointedSpace(space, 0)
    triples = [
        tuple(random_word(rng, pointed, 2) for _ in range(3)) for _ in range(6)
    ]
    for variant in ("graev", "swierczkowski"):
        report = check_word_pseudometric_axioms(pointed, variant, triples)
        checked, failures = checked + report.checked, failures + len(report.failures)
    return failures == 0, f"{checked} axiom checks, {failures} violations"


def suite_hyperspace_coincidence() -> tuple[bool, str]:
    rng = random.Random(103)
    functor = HyperspaceFunctor()
    bad = 0
    pairs = 0
    for _ in range(4):
        space = random_metric_space(rng, rng.randint(2, 3))
        table = space.pair_table()
        subsets = list(functor.enumerate_elements(space))
        for a in subsets:
            for b in subsets:
                direct = hausdorff(table, a, b)
                generic = extend_generic(functor, space, table, a, b).value
                pairs += 1
                if direct != generic:
                    bad += 1
    return bad == 0, f"{pairs} subset pairs, {bad} mismatches"


def suite_power_coincidence() -> tuple[bool, str]:
    rng = random.Random(104)
    bad = 0
    pairs = 0
    space = random_metric_space(rng, 3)
    table = space.pair_table()
    for n in (1, 2):
        for norm in (PNorm.max_norm(), PNorm(1), PNorm(2)):
            functor = PowerFunctor(n, norm)
            elems = list(functor.enumerate_elements(space))
            for s in elems:
                for t in elems:
                    closed = power_distance(table, s, t, norm)
                    generic = extend_generic(functor, space, table, s, t).value
                    pairs += 1
                    if closed != generic:
                        bad += 1
    return bad == 0, f"{pairs} tuple pairs, {bad} mismatches"


def suite_transport_solver_vs_oracle(inject_fault: str | None = None) -> tuple[bool, str]:
    rng = random.Random(105)
    bad = 0
    runs = 0
    for _ in range(25):
        space = random_metric_space(rng, rng.randint(2, 4))
        table = space.pair_table()
        mu = random_distribution(rng, space.n, 3, 5)
        nu = random_distribution(rng, space.n, 3, 5)
        solved = kantorovich(table, mu, nu).value
        if inject_fault == "transport-solver":
            solved += 1
        oracle = min(integrate(table, plan) for plan in fiber_vertices(mu, nu))
        runs += 1
        if solved != oracle:
            bad += 1
    return bad == 0, f"{runs} instances, {bad} solver/oracle mismatches"


def _value_or_none(distance, a, b, pointed, variant, cap):
    try:
        return distance(a, b, pointed, variant, cap).value
    except EmptyFiberError:
        return None  # what the oracle returns for an empty fiber


def suite_words_search_vs_naive(inject_fault: str | None = None) -> tuple[bool, str]:
    """The search (both variants) and the exact Graev path each against the
    naive oracle, at default caps and at tight ones."""
    rng = random.Random(106)
    space = random_metric_space(rng, 3)
    pointed = PointedSpace(space, 0)
    bad = dp_bad = 0
    runs = 0
    pairs = [(random_word(rng, pointed, 1), random_word(rng, pointed, 1)) for _ in range(6)]
    # Abelian pairs with a nonempty second word, so each has a positive distance.
    pairs += [
        (random_word(rng, pointed, 1, commutative=True), random_word_of_length(rng, pointed, 1, commutative=True))
        for _ in range(3)
    ]
    cases = [(a, b, len(a) + len(b) + 2) for a, b in pairs]
    # Length-1 pairs at cap |a| + |b|, where feasibility pruning binds: an
    # over-estimating lower bound cuts off optimal representations here.
    for commutative in (False, True):
        for _ in range(4):
            a, b = (random_word_of_length(rng, pointed, 1, commutative=commutative) for _ in range(2))
            cases.append((a, b, 2))
    for a, b, cap in cases:
        for variant in VARIANTS:
            naive, _count = naive_word_distance(a, b, pointed, variant, cap)
            runs += 1
            if _value_or_none(search_word_distance, a, b, pointed, variant, cap) != naive:
                bad += 1
            if variant == "graev":
                exact = _value_or_none(graev_distance, a, b, pointed, variant, cap)
                if inject_fault == "words-dp" and exact is not None:
                    exact += 1
                if exact != naive:
                    dp_bad += 1
    ok = bad == 0 and dp_bad == 0
    return ok, f"{runs} word pairs, {dp_bad} DP/naive and {bad} search/naive mismatches"


def suite_lift_perturbation_bound() -> tuple[bool, str]:
    rng = random.Random(107)
    space = random_metric_space(rng, 3)
    failures = 0
    checked = 0
    t1 = random_pseudometric_table(rng, 3)
    t2 = random_pseudometric_table(rng, 3)
    hyper = HyperspaceFunctor()
    pairs = [(random_subset(rng, 3), random_subset(rng, 3)) for _ in range(5)]
    report = check_lipschitz(hyper, space, t1, t2, pairs)
    checked, failures = checked + report.checked, failures + len(report.failures)
    trans = TransportFunctor()
    dpairs = [
        (random_distribution(rng, 3, 3, 3), random_distribution(rng, 3, 3, 3)) for _ in range(4)
    ]
    report = check_lipschitz(trans, space, t1, t2, dpairs)
    checked, failures = checked + report.checked, failures + len(report.failures)
    pointed = PointedSpace(space, 0)
    wfun = WordsFunctor("graev")
    wpairs = [(random_word(rng, pointed, 1), random_word(rng, pointed, 1)) for _ in range(3)]
    report = check_lipschitz(wfun, pointed, t1, t2, wpairs)
    checked, failures = checked + report.checked, failures + len(report.failures)
    return failures == 0, f"{checked} comparisons, {failures} bound violations"


def suite_naturality() -> tuple[bool, str]:
    rng = random.Random(108)
    failures = 0
    checked = 0
    for _ in range(8):
        src = random_metric_space(rng, rng.randint(2, 3))
        dst = random_metric_space(rng, 3)
        phi = random_phi(rng, dst.n)
        for functor in _functor_families():
            injective = isinstance(functor, WordsFunctor)
            assignment = random_assignment(rng, src.n, dst.n, injective=injective)
            if injective:
                # Basepoint must map to basepoint for pointed instances.
                src_ctx = PointedSpace(src, 0)
                dst_ctx = PointedSpace(dst, assignment[0])
                cap = 2
            else:
                src_ctx, dst_ctx = src, dst
                cap = 3
            report = check_naturality(functor, src_ctx, dst_ctx, assignment, phi, cap=cap)
            checked += report.checked
            failures += len(report.failures)
    return failures == 0, f"{checked} elements, {failures} mismatches"


def suite_operator_axioms() -> tuple[bool, str]:
    rng = random.Random(109)
    failures = 0
    checked = 0
    space = random_metric_space(rng, 3)
    for functor in _functor_families():
        ctx = _ctx_for(functor, space)
        phi, psi = dominated_pair(rng, space.n)
        if isinstance(functor, WordsFunctor):
            elements = list(functor.enumerate_elements(ctx, 2))
        elif isinstance(functor, TransportFunctor):
            elements = list(functor.enumerate_elements(ctx, 3))
        else:
            elements = list(functor.enumerate_elements(ctx, 0))
        report = check_operator_axioms(functor, ctx, phi, psi, elements)
        checked += report.checked
        failures += len(report.failures)
    return failures == 0, f"{checked} axiom checks, {failures} violations"


SUITES = [
    ("extension-property", suite_extension_property),
    ("pseudometric-axioms", suite_pseudometric_axioms),
    ("hyperspace-coincidence", suite_hyperspace_coincidence),
    ("power-coincidence", suite_power_coincidence),
    ("transport-solver-vs-oracle", suite_transport_solver_vs_oracle),
    ("words-search-vs-naive", suite_words_search_vs_naive),
    ("lift-perturbation-bound", suite_lift_perturbation_bound),
    ("naturality", suite_naturality),
    ("operator-axioms", suite_operator_axioms),
]


def run_selftest(inject_fault: str | None = None, out=None) -> bool:
    out = out or sys.stdout
    if inject_fault is not None and inject_fault not in FAULTS:
        raise ValueError(f"unknown fault {inject_fault!r}; known: {', '.join(FAULTS)}")
    all_ok = True
    for name, suite in SUITES:
        try:
            if name in ("transport-solver-vs-oracle", "words-search-vs-naive"):
                ok, detail = suite(inject_fault)
            else:
                ok, detail = suite()
        except Exception as exc:
            # A check that raises is a failed suite; the remaining suites still run.
            traceback.print_exc()
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", file=out)
    print(f"{'PASS' if all_ok else 'FAIL'} overall", file=out)
    return all_ok
