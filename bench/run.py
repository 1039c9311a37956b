#!/usr/bin/env python3
"""Seeded benchmark for fiberdist.

    python3 bench/run.py --workload words --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each invocation is one fresh process running one workload as a
closed loop with a single client and no threads.  Inputs come from the
benchmark's own seeded generators (``gen.py``), every answer is checked
exactly after the timed region, and the last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Lines before it
start with ``#`` and record the environment, why the workload exists, the
tail percentile with its sample count, and a digest of the exact values.

Every reported time is a wall time scaled to a reference host speed, from
samples of a fixed reference loop taken between calls (``speed.py``): the
shared host's own speed moves by up to 2.4x over seconds to minutes.

``--trace 0`` reports the end-to-end metrics with no wrapper installed.
``--trace 1`` runs a fixed number of rounds with every traced layer wrapped
(see ``tracing.py``), then the same rounds untraced, and reports the per-layer
metrics; the fixed round count makes the exact counters repeat for a seed.
See ``README.md`` next to this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

from speed import HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS_BEFORE = 3  # the last of these is the set-up the timed loop uses
SETUP_RUNS_AFTER = 4  # more samples, taken half a minute later
DIGEST_ROUNDS = 1


class Failure:
    """A call that raised; kept in place of its result."""

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def guarded(fn, req):
    try:
        return fn(req)
    except Exception as exc:  # a failed call is counted, never fatal
        return Failure(exc)


def note(text: str) -> None:
    print(f"# {text}")


class Verdict:
    """Checks every outcome and digests the values of the first rounds."""

    def __init__(self, wl, outcomes: list[tuple]):
        self.wl = wl
        self.outcomes = list(outcomes)
        self.failed = [False] * len(self.outcomes)
        self.messages: list[str] = []

    def _fail(self, idx: int, message: str) -> None:
        if not self.failed[idx]:
            self.failed[idx] = True
            self.messages.append(message)

    def run(self, digest_requests: list) -> str:
        wl = self.wl
        first: dict[tuple, str] = {}
        done: dict[tuple, object] = {}
        by_key = {}
        positions: dict[tuple, list[int]] = {}
        covered = {req.key for req, _ in self.outcomes}
        for req in digest_requests:
            if req.key not in covered:  # finish the digest rounds, untimed
                self.outcomes.append((req, guarded(wl.call, req)))
                self.failed.append(False)
        for idx, (req, result) in enumerate(self.outcomes):
            by_key[req.key] = req
            positions.setdefault(req.key, []).append(idx)
            if isinstance(result, Failure):
                self._fail(idx, f"{req.key}: {result.message}")
                continue
            try:
                error = wl.check(req, result)
                text = wl.value_text(result)
            except Exception as exc:
                error, text = f"check raised {type(exc).__name__}: {exc}", None
            if error is None and first.setdefault(req.key, text) != text:
                error = f"value {text} differs from the first run's {first[req.key]}"
            if error is not None:
                self._fail(idx, f"{req.key}: {error}")
            else:
                done.setdefault(req.key, result)
        for key, message in wl.cross_check(done, by_key):
            for idx in positions[key]:
                self._fail(idx, f"{key}: {message}")
        digest = hashlib.sha256()
        for req in digest_requests:
            digest.update(f"{req.key}={first.get(req.key, 'FAILED')};".encode())
        return digest.hexdigest()[:16]


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if wl.rss_of_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def timed_setup(wl, speed: HostSpeed) -> float:
    # Freezing keeps the harness's own objects out of the collector's scans,
    # so set-up costs what it would in a process that holds nothing else.
    gc.collect()
    gc.freeze()
    speed.sample()
    start = perf_counter()
    wl.load()
    wl.build_spaces()
    end = perf_counter()
    speed.sample()
    return speed.scaled(start, end)


def timed_calls(speed: HostSpeed, call, requests, outcomes: list, deadline: float = math.inf) -> list[float]:
    """Call each request in turn until `deadline`; returns scaled latencies."""
    spans = []
    for req in requests:
        if perf_counter() >= deadline:
            break
        speed.maybe_sample()
        start = perf_counter()
        result = guarded(call, req)
        spans.append((start, perf_counter()))
        outcomes.append((req, result))
    speed.sample()
    return [speed.scaled(start, end) for start, end in spans]


def run_untraced(wl, args) -> tuple[dict, int, int]:
    wl.prepare(args.seed, math.ceil(args.seconds * wl.rounds_per_s * 3) + 1)
    speed = HostSpeed()
    setup = [timed_setup(wl, speed) for _ in range(SETUP_RUNS_BEFORE)]
    rounds = wl.build_requests()
    order = [req for rnd in rounds for req in rnd]

    gc.collect()
    gc.freeze()
    outcomes: list[tuple] = []
    start = perf_counter()
    latencies = timed_calls(speed, wl.call, itertools.cycle(order), outcomes, start + args.seconds)
    elapsed = perf_counter() - start
    rss = peak_rss_mb(wl)
    timed = len(outcomes)

    verdict = Verdict(wl, outcomes)
    digest = verdict.run([req for rnd in rounds[:DIGEST_ROUNDS] for req in rnd])
    setup += [timed_setup(wl, speed) for _ in range(SETUP_RUNS_AFTER)]
    ok_requests = sum(wl.requests_per_call for flag in verdict.failed[:timed] if not flag)
    attempted = len(verdict.outcomes)
    failed = sum(verdict.failed)
    ordered = sorted(latencies)
    beyond = timed - math.ceil(wl.tail_pct / 100 * timed)
    note(f"setup runs (s): {', '.join(f'{s:.4f}' for s in setup)}")
    note(
        f"{timed} timed calls in {elapsed:.3f} s ({len(order)} distinct requests prepared); "
        f"tail is p{wl.tail_pct:g} with {beyond} calls beyond it"
    )
    note(speed.summary())
    note(f"value digest {digest} over the first {DIGEST_ROUNDS} round(s)")
    note(f"error_rate {failed / attempted:.6f} ({failed} of {attempted} calls)")
    for message in verdict.messages[:10]:
        note(f"FAILED {message}")
    metrics = {
        "requests_per_s": (ok_requests / sum(latencies), "1/s"),
        "call_p50_ms": (percentile(ordered, 50) * 1000, "ms"),
        "call_tail_ms": (percentile(ordered, wl.tail_pct) * 1000, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
        "success_rate": (1 - failed / attempted, "ratio"),
    }
    return metrics, attempted, failed


def run_traced(wl, args) -> tuple[dict, int, int]:
    import importlib

    import tracing
    import workloads

    rounds_traced = max(1, math.ceil(args.seconds / 3 * wl.rounds_per_s))
    wl.prepare(args.seed, rounds_traced)
    wl.mod = workloads.import_fiberdist(fresh=False)
    importlib.import_module("fiberdist.cli")
    tracer = tracing.Tracer()

    tracing.install(tracer)  # set-up is traced too: it validates the spaces
    try:
        wl.build_spaces()
        rounds = wl.build_requests()
    finally:
        tracer.uninstall()
    order = [req for rnd in rounds for req in rnd]
    outcomes: list[tuple] = []
    speed = HostSpeed()
    request_ids = itertools.count(1)

    def traced_call(req):
        tracer.request_id = next(request_ids)
        return wl.call_traced(req)

    gc.collect()
    gc.freeze()
    untraced_wall = sum(timed_calls(speed, wl.call_traced, order, outcomes))
    tracing.install(tracer)
    try:
        traced_wall = sum(timed_calls(speed, traced_call, order, outcomes))
    finally:
        tracer.uninstall()
    untraced_wall = (untraced_wall + sum(timed_calls(speed, wl.call_traced, order, outcomes))) / 2

    verdict = Verdict(wl, outcomes)
    digest = verdict.run([req for rnd in rounds[:DIGEST_ROUNDS] for req in rnd])
    attempted = len(verdict.outcomes)
    failed = sum(verdict.failed)
    if tracer.missing:
        note(f"not traced (attribute absent): {', '.join(tracer.missing)}")
    note(
        f"{len(order)} calls in {rounds_traced} rounds, traced {traced_wall:.3f} s, "
        f"untraced {untraced_wall:.3f} s at reference speed; {len(tracer.spans)} spans "
        "recorded, in wall time"
    )
    note(f"value digest {digest} over the first {DIGEST_ROUNDS} round(s)")
    note(f"error_rate {failed / attempted:.6f} ({failed} of {attempted} calls)")
    for message in verdict.messages[:10]:
        note(f"FAILED {message}")
    metrics = tracing.per_layer(tracer, traced_wall, untraced_wall)
    for name, (value, unit) in metrics.items():
        note(f"{name:40s} {value:.6g} {unit}")
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "fiberdist", "__init__.py")):
        print(f"error: no fiberdist sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    if hasattr(os, "sched_setaffinity"):
        # One vCPU for the loop, its reference-loop samples and its child
        # processes, so the samples measure the CPU that ran the calls.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](ROOT)
    note(
        "env "
        + json.dumps(
            {
                "python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "host": platform.node(),
                "platform": platform.platform(),
                "nproc": os.cpu_count(),
                "workload": wl.name,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
            }
        )
    )
    note(f"why {wl.name}: {wl.why}")
    try:
        metrics, attempted, failed = (run_traced if args.trace else run_untraced)(wl, args)
    finally:
        wl.close()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
