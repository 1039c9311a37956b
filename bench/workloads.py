"""The four benchmark workloads.

Each workload has the same life cycle, driven by ``run.py``:

``prepare(seed, rounds)``
    Generate raw inputs with the benchmark's own seeded code.  Untimed.
``load()`` then ``build_spaces()``
    Import fiberdist and build the workload's spaces through the package.
    Together they are the set-up time; ``run.py`` repeats them and reports
    the median.
``build_requests()``
    Turn the raw inputs into package objects, as rounds of requests.  Each
    round holds every stratum of the workload's mix once, in a seeded order,
    so any prefix of the run sees the same mix.
``call(req)``
    The timed unit: what a user waits on.
``check(req, result)``
    Exact checks against the benchmark's own arithmetic, run after the timed
    region.  Returns an error message or None.

Calls look the package up through module attributes at call time, so the
traced run's wrappers see them; the untraced run installs no wrapper.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import gen

MODULES = ("core", "extension", "hyperspace", "power", "transport", "words")


def import_fiberdist(fresh: bool) -> dict[str, Any]:
    """Import the package (optionally from scratch) and return its modules."""
    if fresh:
        for name in [m for m in sys.modules if m == "fiberdist" or m.startswith("fiberdist.")]:
            del sys.modules[name]
    importlib.import_module("fiberdist")
    return {name: importlib.import_module(f"fiberdist.{name}") for name in MODULES}


@dataclass
class Request:
    """One timed call plus what its checks need."""

    key: tuple  # stable identity within a run, used for the digest
    payload: Any  # what ``call`` consumes
    raw: Any = None  # the benchmark's own copy of the inputs, for checks
    group: Any = None  # links requests that a cross-check compares


class Workload:
    name = ""
    why = ""
    tail_pct = 99.0  # fixed; >= 10 calls beyond it in a 25 s run, inside one stratum
    rounds_per_s = 1.0  # measured on the current code; sizes the request list and traced pass
    requests_per_call = 1
    rss_of_children = False  # peak RSS of this process, or of its child processes

    def __init__(self, root: str):
        self.root = root
        self.mod: dict[str, Any] = {}

    def load(self) -> None:
        self.mod = import_fiberdist(fresh=True)

    def build_spaces(self) -> None:
        raise NotImplementedError

    def build_requests(self) -> list[list[Request]]:
        raise NotImplementedError

    def call(self, req: Request):
        raise NotImplementedError

    def call_traced(self, req: Request):
        return self.call(req)

    def check(self, req: Request, result) -> str | None:
        raise NotImplementedError

    def value_text(self, result) -> str:
        return str(result.value)

    def cross_check(self, done: dict[tuple, Any], by_key: dict[tuple, Request]) -> list[tuple[tuple, str]]:
        """Checks across requests; returns (key, message) per failing request."""
        return []

    def close(self) -> None:
        pass

    def _validated(self, mat) -> Any:
        return self.mod["core"].validate_space(gen.labels(len(mat)), mat, "metric")


# ---------------------------------------------------------------------------
# words


WORD_KINDS = ("graev", "swierczkowski", "abelian")
# Criterion 6's triple length classes, alternate ones per round.  Its
# heaviest class, (3, 3, 3), is left out: see README.md.
TRIPLE_LENGTHS = ((1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 1, 1), (3, 2, 1), (3, 2, 2))
SLICE_LENGTHS = ((1, 1), (0, 2), (2, 0))
SPACES_PER_ROUND = 6


class WordsWorkload(Workload):
    name = "words"
    why = (
        "Graev/Swierczkowski/abelian word search, where acceptance criteria 5 and 6 spend "
        "their time and where a cap-free word algorithm would land"
    )
    tail_pct = 95.0
    rounds_per_s = 1.5

    def prepare(self, seed: int, rounds: int) -> None:
        """Per round: criterion 5(b) at the default cap, criterion 6's triples
        at their shared cap, and a slice on 6 points.  Pairs and triples are
        spread over several fresh spaces per round, so one hard space cannot
        skew a whole round."""
        rng = random.Random(seed)
        self.matrices: list[list] = []
        self.raw_rounds: list[list[tuple]] = []
        for r in range(rounds):
            pool = len(self.matrices)
            self.matrices += [gen.band_matrix(rng, 3) for _ in range(SPACES_PER_ROUND)]
            spaces = itertools.cycle(range(pool, pool + SPACES_PER_ROUND))
            items = []
            for la in range(4):
                for lb in range(4):
                    sidx = next(spaces)
                    a, b = gen.free_word(rng, 3, la), gen.free_word(rng, 3, lb)
                    items.append(("graev", sidx, a, b, None, (r, la, lb)))
                    items.append(("swierczkowski", sidx, a, b, None, (r, la, lb)))
                    a, b = gen.abelian_word(rng, 3, la), gen.abelian_word(rng, 3, lb)
                    items.append(("abelian", next(spaces), a, b, None, None))
            for t, lengths in enumerate(TRIPLE_LENGTHS):
                if (r + t) % 2:
                    continue
                kind = WORD_KINDS[(r + t) // 2 % len(WORD_KINDS)]
                make = gen.abelian_word if kind == "abelian" else gen.free_word
                sidx = next(spaces)
                a, b, c = (make(rng, 3, length) for length in lengths)
                cap = sum(lengths) + 2
                for x, y in ((a, b), (b, c), (a, c)):
                    items.append((kind, sidx, x, y, cap, None))
            for kind in WORD_KINDS:
                la, lb = rng.choice(SLICE_LENGTHS)
                make = gen.abelian_word if kind == "abelian" else gen.free_word
                self.matrices.append(gen.band_matrix(rng, 6))
                items.append((kind, len(self.matrices) - 1, make(rng, 6, la), make(rng, 6, lb), None, None))
            rng.shuffle(items)
            self.raw_rounds.append(items)

    def build_spaces(self) -> None:
        words = self.mod["words"]
        self.spaces = []
        for mat in self.matrices:
            space = self._validated(mat)
            self.spaces.append((words.PointedSpace(space, gen.BASEPOINT), space.pair_table()))
        self.functors = {
            "graev": words.WordsFunctor("graev"),
            "swierczkowski": words.WordsFunctor("swierczkowski"),
            "abelian": words.WordsFunctor("graev", commutative=True),
        }

    def build_requests(self) -> list[list[Request]]:
        reduce_letters = self.mod["words"].reduce_letters
        rounds = []
        for r, items in enumerate(self.raw_rounds):
            batch = []
            for k, (kind, sidx, la, lb, cap, group) in enumerate(items):
                ctx, table = self.spaces[sidx]
                commutative = kind == "abelian"
                a = reduce_letters(la, commutative, ctx)
                b = reduce_letters(lb, commutative, ctx)
                payload = (self.functors[kind], ctx, table, a, b, cap)
                raw = (kind, self.matrices[sidx], la, lb, cap if cap is not None else len(la) + len(lb) + 2)
                batch.append(Request((r, k), payload, raw, group))
            rounds.append(batch)
        return rounds

    def call(self, req: Request):
        functor, ctx, table, a, b, cap = req.payload
        return functor.distance(ctx, table, a, b, cap=cap)

    def check(self, req: Request, result) -> str | None:
        kind, mat, la, lb, cap = req.raw
        rows = result.witness.rows
        if len(rows) > cap:
            return f"witness has {len(rows)} rows, cap {cap}"
        reduce = gen.reduce_abelian if kind == "abelian" else gen.reduce_free
        left = [(x, s) for x, _y, s in rows]
        right = [(y, s) for _x, y, s in rows]
        if reduce(left) != reduce(la) or reduce(right) != reduce(lb):
            return "witness marginals do not reduce to the requested words"
        pairs = [(x, y) for x, y, _s in rows]
        if kind == "swierczkowski":
            pairs = list(dict.fromkeys(pairs))
        lift = sum((mat[x][y] for x, y in pairs), Fraction(0))
        if lift != result.value:
            return f"witness lifts to {lift}, value {result.value}"
        return None

    def cross_check(self, done, by_key):
        graev: dict = {}
        swier: dict = {}
        for key, result in done.items():
            req = by_key[key]
            if req.group is None:
                continue
            (graev if req.raw[0] == "graev" else swier)[req.group] = (key, result.value)
        failures = []
        for group, (key, value) in graev.items():
            if group in swier and value < swier[group][1]:
                failures.append((key, f"graev {value} < swierczkowski {swier[group][1]} on a shared pair"))
        return failures


# ---------------------------------------------------------------------------
# transport


TRANSPORT_SIZES = (8, 12, 16, 20, 24)
SPACES_PER_SIZE = 3


class TransportWorkload(Workload):
    name = "transport"
    why = (
        "kantorovich on 8-24 points, full and partial supports: Bellman-Ford successive "
        "shortest paths and the dual certificate dominate"
    )
    tail_pct = 93.0
    rounds_per_s = 1.0

    def prepare(self, seed: int, rounds: int) -> None:
        rng = random.Random(seed)
        self.matrices = {n: [gen.closure_matrix(rng, n) for _ in range(SPACES_PER_SIZE)] for n in TRANSPORT_SIZES}
        self.raw_rounds = []
        for _ in range(rounds):
            items = []
            for n in TRANSPORT_SIZES:
                sidx = rng.randrange(SPACES_PER_SIZE)
                items.append((n, sidx, gen.masses(rng, list(range(n))), gen.masses(rng, list(range(n)))))
                if n == TRANSPORT_SIZES[0]:
                    continue
                # Partial supports of n/3 points, on all but the smallest
                # space: nine calls a round, so the median call is the
                # middle one, the full pair on 8 points, and not the border
                # between two size classes.
                supports = [rng.sample(range(n), n // 3) for _ in range(2)]
                items.append((n, sidx, gen.masses(rng, supports[0]), gen.masses(rng, supports[1])))
            rng.shuffle(items)
            self.raw_rounds.append(items)

    def build_spaces(self) -> None:
        self.tables = {
            n: [self._validated(mat).pair_table() for mat in mats] for n, mats in self.matrices.items()
        }

    def build_requests(self) -> list[list[Request]]:
        distribution = self.mod["transport"].distribution
        rounds = []
        for r, items in enumerate(self.raw_rounds):
            batch = []
            for k, (n, sidx, mu, nu) in enumerate(items):
                payload = (self.tables[n][sidx], distribution(mu), distribution(nu))
                batch.append(Request((r, k), payload, (self.matrices[n][sidx], mu, nu)))
            rounds.append(batch)
        return rounds

    def call(self, req: Request):
        table, mu, nu = req.payload
        return self.mod["transport"].kantorovich(table, mu, nu)

    def check(self, req: Request, result) -> str | None:
        mat, mu, nu = req.raw
        flow = result.plan.items()
        rows: dict[int, Fraction] = {}
        cols: dict[int, Fraction] = {}
        for (i, j), w in flow:
            if w <= 0:
                return f"nonpositive flow {w} on ({i},{j})"
            rows[i] = rows.get(i, Fraction(0)) + w
            cols[j] = cols.get(j, Fraction(0)) + w
        if rows != mu or cols != nu:
            return "plan marginals differ from mu and nu"
        if sum((w * mat[i][j] for (i, j), w in flow), Fraction(0)) != result.value:
            return "plan cost differs from the value"
        if self.mod["transport"].integrate(req.payload[0], result.plan) != result.value:
            return "integrate(table, plan) differs from the value"
        if len(flow) > len(mu) + len(nu) - 1:
            return f"support {len(flow)} exceeds m+n-1"
        u, v = result.dual_row, result.dual_col
        if set(u) != set(mu) or set(v) != set(nu):
            return "dual potentials do not cover the supports"
        support = {cell for cell, _w in flow}
        for i in mu:
            for j in nu:
                slack = mat[i][j] - (v[j] - u[i])
                if slack < 0:
                    return f"dual infeasible at ({i},{j})"
                if (i, j) in support and slack != 0:
                    return f"complementary slackness fails at ({i},{j})"
        dual_value = sum((nu[j] * v[j] for j in nu), Fraction(0)) - sum((mu[i] * u[i] for i in mu), Fraction(0))
        if dual_value != result.value:
            return f"dual value {dual_value} differs from primal {result.value}"
        return None


# ---------------------------------------------------------------------------
# coincidence


# Per round, 19 pairs take under 2 ms, six take 2-4 ms and 19 take more, so
# the median pair falls inside the 2-4 ms group rather than at its edge.
SUBSET_SIZES = ((1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (2, 3), (3, 3), (2, 5), (3, 4), (4, 3))
TUPLE_NORMS = ((1, "max"), (1, "p:1"), (2, "p:2"), (2, "max"), (3, "max"), (3, "p:1"), (4, "p:2"), (4, "max"))
SUPPORT_SIZES = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4))
PAIR_LENGTHS = ((0, 1), (1, 1), (0, 2), (1, 2), (2, 1), (2, 0))


class CoincidenceWorkload(Workload):
    name = "coincidence"
    why = (
        "specialized distance then the generic fiber minimum on small instances of all six "
        "instances: the generic oracles do most of the work, and fixed per-call cost shows"
    )
    tail_pct = 97.0  # the middle of the three heaviest pair classes
    rounds_per_s = 0.8

    def prepare(self, seed: int, rounds: int) -> None:
        rng = random.Random(seed)
        self.matrices = []
        self.raw_rounds = []
        for _ in range(rounds):
            base = len(self.matrices)
            self.matrices += [gen.closure_matrix(rng, 6), gen.closure_matrix(rng, 8), gen.band_matrix(rng, 3)]
            items = []
            for ka, kb in SUBSET_SIZES:
                items.append(("hyperspace", base, tuple(rng.sample(range(6), ka)), tuple(rng.sample(range(6), kb)), None))
            for length, norm in TUPLE_NORMS:
                a = tuple(rng.randrange(6) for _ in range(length))
                b = tuple(rng.randrange(6) for _ in range(length))
                items.append(("power", base, a, b, norm))
            for m, n in SUPPORT_SIZES:
                mu = gen.masses(rng, rng.sample(range(8), m))
                nu = gen.masses(rng, rng.sample(range(8), n))
                items.append(("transport", base + 1, mu, nu, None))
            for kind in WORD_KINDS:
                make = gen.abelian_word if kind == "abelian" else gen.free_word
                for la, lb in PAIR_LENGTHS:
                    items.append((kind, base + 2, make(rng, 3, la), make(rng, 3, lb), None))
            rng.shuffle(items)
            self.raw_rounds.append(items)

    def build_spaces(self) -> None:
        words = self.mod["words"]
        self.spaces = []
        for idx, mat in enumerate(self.matrices):
            space = self._validated(mat)
            ctx = words.PointedSpace(space, gen.BASEPOINT) if idx % 3 == 2 else space
            self.spaces.append((ctx, space.pair_table()))

    def build_requests(self) -> list[list[Request]]:
        hyperspace, power = self.mod["hyperspace"], self.mod["power"]
        transport, words = self.mod["transport"], self.mod["words"]
        functors = {
            "hyperspace": hyperspace.HyperspaceFunctor(),
            "transport": transport.TransportFunctor(),
            "graev": words.WordsFunctor("graev"),
            "swierczkowski": words.WordsFunctor("swierczkowski"),
            "abelian": words.WordsFunctor("graev", commutative=True),
        }
        for length, norm in TUPLE_NORMS:
            functors[("power", length, norm)] = power.PowerFunctor(length, power.PNorm.parse(norm))
        rounds = []
        for r, items in enumerate(self.raw_rounds):
            batch = []
            for k, (kind, sidx, a, b, norm) in enumerate(items):
                ctx, table = self.spaces[sidx]
                if kind == "hyperspace":
                    functor, ea, eb = functors[kind], hyperspace.Subset(a), hyperspace.Subset(b)
                elif kind == "power":
                    functor, ea, eb = functors[("power", len(a), norm)], a, b
                elif kind == "transport":
                    functor, ea, eb = functors[kind], transport.distribution(a), transport.distribution(b)
                else:
                    commutative = kind == "abelian"
                    functor = functors[kind]
                    ea = words.reduce_letters(a, commutative, ctx)
                    eb = words.reduce_letters(b, commutative, ctx)
                batch.append(Request((r, k), (functor, ctx, table, ea, eb), kind))
            rounds.append(batch)
        return rounds

    def call(self, req: Request):
        functor, ctx, table, a, b = req.payload
        specialized = functor.distance(ctx, table, a, b)
        generic = self.mod["extension"].extend_generic(functor, ctx, table, a, b, early_exit=False)
        return specialized, generic

    def check(self, req: Request, result) -> str | None:
        specialized, generic = result
        if specialized.value != generic.value:
            return f"{req.raw}: specialized {specialized.value} != generic {generic.value}"
        return None

    def value_text(self, result) -> str:
        return str(result[0].value)


# ---------------------------------------------------------------------------
# cli


# One space file for every batch: with three sizes in turn, the median and
# tail calls fell between size classes and moved with the seed.
CLI_SIZE = 32
POINTED_SIZE = 4
CLI_ENTRY = "import sys; from fiberdist.cli import main; sys.exit(main())"
CALL_TIMEOUT_S = 60.0


class CliWorkload(Workload):
    name = "cli"
    why = (
        "repeated `fiberdist batch` processes: the only path through fiberdist.cli, where "
        "every entry reloads and revalidates its space file"
    )
    tail_pct = 75.0
    rounds_per_s = 2.0  # one round is one batch process
    requests_per_call = 4
    rss_of_children = True

    def prepare(self, seed: int, rounds: int) -> None:
        rng = random.Random(seed)
        base = os.path.join(self.root, ".bench_work")
        os.makedirs(base, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="cli-", dir=base)
        self.space_paths = []
        self.docs = []
        self.loaded = {}  # space path -> in-process (space, basepoint), for the checks
        self._write_space(gen.closure_matrix(rng, CLI_SIZE), False)
        self._write_space(gen.band_matrix(rng, POINTED_SIZE), True)
        self.batches = []
        for r in range(rounds):
            both = ("hyperspace", "transport") if r % 2 else ("power", "words")
            entries = [
                self._entry(rng, functor, "both" if functor in both else "specialized")
                for functor in ("hyperspace", "power", "transport", "words")
            ]
            rng.shuffle(entries)
            path = os.path.join(self.workdir, f"batch-{r}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(entries, fh)
            self.batches.append((path, entries))

    def _write_space(self, mat, pointed: bool) -> None:
        obj = gen.space_obj(mat, basepoint=pointed)
        path = os.path.join(self.workdir, f"space-{len(self.space_paths)}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        self.space_paths.append(path)
        self.docs.append(obj)

    def _entry(self, rng, functor: str, method: str) -> dict:
        n = CLI_SIZE
        names = gen.labels(n)
        entry = {"command": "dist", "functor": functor, "method": method, "space": self.space_paths[0]}
        small = method == "both"
        if functor == "hyperspace":
            top = 3 if small else 4
            entry["a"] = [names[i] for i in rng.sample(range(n), rng.randint(1, top))]
            entry["b"] = [names[i] for i in rng.sample(range(n), rng.randint(1, top))]
        elif functor == "power":
            length = rng.randint(2, 4)
            entry["a"] = [names[rng.randrange(n)] for _ in range(length)]
            entry["b"] = [names[rng.randrange(n)] for _ in range(length)]
            entry["norm"] = rng.choice(("max", "p:2"))
        elif functor == "transport":
            lo, hi = (1, 3) if small else (3, 8)
            for side in ("a", "b"):
                mass = gen.masses(rng, rng.sample(range(n), rng.randint(lo, hi)))
                entry[side] = {names[i]: str(w) for i, w in sorted(mass.items())}
        else:
            entry["space"] = self.space_paths[-1]
            kind = rng.choice(WORD_KINDS)
            la, lb = rng.choice(((0, 1), (1, 1), (0, 2), (2, 0))) if small else (rng.randint(0, 2), rng.randint(0, 2))
            make = gen.abelian_word if kind == "abelian" else gen.free_word
            entry["a"] = gen.word_text(make(rng, POINTED_SIZE, la), POINTED_SIZE)
            entry["b"] = gen.word_text(make(rng, POINTED_SIZE, lb), POINTED_SIZE)
            entry["variant"] = "swierczkowski" if kind == "swierczkowski" else "graev"
            if kind == "abelian":
                entry["abelian"] = True
        return entry

    def _env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        return env

    def load(self) -> None:
        """Set-up for the CLI is what every process pays: load and validate the
        batches' space file in a fresh `fiberdist validate` process."""
        proc = subprocess.run(
            [sys.executable, "-c", CLI_ENTRY, "validate", "--space", self.space_paths[0]],
            cwd=self.root,
            env=self._env(),
            capture_output=True,
            text=True,
            timeout=CALL_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"validate exited {proc.returncode}: {proc.stdout.strip()} {proc.stderr.strip()}")
        if json.loads(proc.stdout)["points"] != self.docs[0]["points"]:
            raise RuntimeError("validate printed a different space")

    def build_spaces(self) -> None:
        pass

    def build_requests(self) -> list[list[Request]]:
        self.mod = self.mod or import_fiberdist(fresh=False)
        return [[Request((r, 0), path, entries)] for r, (path, entries) in enumerate(self.batches)]

    def call(self, req: Request):
        proc = subprocess.run(
            [sys.executable, "-c", CLI_ENTRY, "batch", req.payload],
            cwd=self.root,
            env=self._env(),
            capture_output=True,
            text=True,
            timeout=CALL_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    def call_traced(self, req: Request):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = sys.modules["fiberdist.cli"].main(["batch", req.payload])
        return code, out.getvalue()

    def expected_value(self, entry: dict) -> str:
        """The library's value for one batch entry, computed in-process."""
        path = entry["space"]
        if path not in self.loaded:
            self.loaded[path] = self.mod["core"].space_document_from_obj(self.docs[self.space_paths.index(path)])
        space, basepoint = self.loaded[path]
        kind = entry["functor"]
        if kind == "hyperspace":
            functor, ctx = self.mod["hyperspace"].HyperspaceFunctor(), space
        elif kind == "power":
            power = self.mod["power"]
            functor, ctx = power.PowerFunctor(len(entry["a"]), power.PNorm.parse(entry["norm"])), space
        elif kind == "transport":
            functor, ctx = self.mod["transport"].TransportFunctor(), space
        else:
            words = self.mod["words"]
            functor = words.WordsFunctor(entry["variant"], commutative=entry.get("abelian", False))
            ctx = words.PointedSpace(space, space.index(basepoint))
        a = functor.parse_element(entry["a"], ctx)
        b = functor.parse_element(entry["b"], ctx)
        return str(functor.distance(ctx, space.pair_table(), a, b).value)

    def check(self, req: Request, result) -> str | None:
        code, stdout = result
        if code != 0:
            return f"batch exited {code}"
        responses = json.loads(stdout)
        if len(responses) != len(req.raw):
            return f"{len(responses)} responses for {len(req.raw)} requests"
        for entry, response in zip(req.raw, responses):
            if response.get("exit_code") != 0:
                return f"entry exited {response.get('exit_code')}: {response.get('error')}"
            want = self.expected_value(entry)
            if entry["method"] == "both":
                if response.get("match") is not True:
                    return f"{entry['functor']}: specialized and generic differ"
                got = {response["specialized"]["value"], response["generic"]["value"]}
            else:
                got = {response["value"]}
            if got != {want}:
                return f"{entry['functor']}: CLI value {sorted(got)} != library value {want}"
        return None

    def value_text(self, result) -> str:
        responses = json.loads(result[1])
        return ",".join(r["specialized"]["value"] if "specialized" in r else r["value"] for r in responses)

    def close(self) -> None:
        shutil.rmtree(getattr(self, "workdir", ""), ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(self.root, ".bench_work"))


WORKLOADS = {w.name: w for w in (WordsWorkload, TransportWorkload, CoincidenceWorkload, CliWorkload)}
