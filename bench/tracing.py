"""Span tracing of fiberdist from outside the package.

The traced run replaces public functions at the attribute their callers look
up (a module global or a class attribute) with a wrapper that records a span:
name, start, duration, self time, the enclosing span and the request it
belongs to.  Fiber streams are wrapped so that each ``next()`` is timed; a
stream contributes one span whose duration is the sum of its ``next()`` calls.
Spans stay in memory and are reduced to per-layer metrics when the run ends.

Nothing here is imported or installed on the untimed-by-trace path: the
end-to-end run calls the package with no wrapper at all, and ``uninstall``
restores every patched attribute.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import defaultdict
from time import perf_counter

SEARCH_KINDS = ("graev", "swierczkowski", "abelian")


class Tracer:
    def __init__(self):
        # (span_id, parent_id, request_id, name, start, duration, self_time)
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.request_id = 0
        self.missing: list[str] = []
        self._stack: list[list] = []  # open frames: [span_id, child_time]
        self._next_id = 1
        self._patched: list[tuple] = []
        self._streams: list[_TimedStream] = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, start: float, duration: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self.spans.append(
            (frame[0], parent[0] if parent else 0, self.request_id, name, start, duration, duration - frame[1])
        )

    def _charge_parent(self, duration: float) -> None:
        if self._stack:
            self._stack[-1][1] += duration

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            site = f"{getattr(owner, '__name__', owner)}.{attr}"
            if site not in self.missing:
                self.missing.append(site)
            return
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))
        self._patched.append((owner, attr, original))

    def wrap_call(self, owner, attr: str, name, on_result=None) -> None:
        """Record a span per call; `name` is a string or a function of the args."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                span_name = name if isinstance(name, str) else name(args)
                frame = tracer._open()
                start = perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(frame, span_name, start, perf_counter() - start)
                if on_result is not None:
                    on_result(tracer, args, result)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def wrap_stream(self, owner, attr: str, name: str, candidates=None) -> None:
        """Time every ``next()`` of the iterator the wrapped function returns.

        `candidates(args, kwargs)` gives how many candidates a fully consumed
        stream examines, for the useful-work ratio.
        """
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                parent = tracer._stack[-1][0] if tracer._stack else 0
                start = perf_counter()
                inner = original(*args, **kwargs)
                duration = perf_counter() - start
                tracer._charge_parent(duration)
                total = candidates(args, kwargs) if candidates is not None else 0
                stream = _TimedStream(tracer, inner, name, parent, start, duration, total)
                tracer._streams.append(stream)
                return stream

            return wrapper

        self._patch(owner, attr, make)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        for stream in self._streams:
            stream.finish(exhausted=False)
        self._streams.clear()


class _TimedStream:
    __slots__ = ("tracer", "inner", "name", "parent", "request_id", "start", "busy", "yields", "candidates", "done")

    def __init__(self, tracer, inner, name, parent, start, busy, candidates):
        self.tracer = tracer
        self.inner = iter(inner)
        self.name = name
        self.parent = parent
        self.request_id = tracer.request_id
        self.start = start
        self.busy = busy
        self.yields = 0
        self.candidates = candidates
        self.done = False

    def __iter__(self):
        return self

    def __next__(self):
        t0 = perf_counter()
        try:
            item = next(self.inner)
        except StopIteration:
            self._charge(perf_counter() - t0)
            self.finish(exhausted=True)
            raise
        except BaseException:
            self._charge(perf_counter() - t0)
            self.finish(exhausted=False)
            raise
        self._charge(perf_counter() - t0)
        self.yields += 1
        return item

    def _charge(self, duration: float) -> None:
        self.busy += duration
        self.tracer._charge_parent(duration)

    def finish(self, exhausted: bool) -> None:
        if self.done:
            return
        self.done = True
        self.inner = None
        tracer = self.tracer
        span_id = tracer._next_id
        tracer._next_id += 1
        tracer.spans.append((span_id, self.parent, self.request_id, self.name, self.start, self.busy, self.busy))
        tracer.counts[f"{self.name}.yields"] += self.yields
        if exhausted:
            tracer.counts[f"{self.name}.exhausted_yields"] += self.yields
            tracer.counts[f"{self.name}.candidates"] += self.candidates


def _search_kind(args) -> str:
    functor = args[0]
    return "words.search." + ("abelian" if functor.commutative else functor.variant)


def _on_search(tracer, args, result) -> None:
    tracer.counts["words.search.states"] += result.fiber_size_enumerated
    tracer.counts["words.search.cap_limited"] += bool(result.cap_limited)


def _on_generic(tracer, args, result) -> None:
    tracer.counts["extension.fiber_size"] += result.fiber_size_enumerated


def _subset_masks(args, kwargs) -> int:
    a, b = args[0], args[1]
    return (1 << (len(a.members) * len(b.members))) - 1


def _vertex_trees(args, kwargs) -> int:
    m, n = len(args[0].support), len(args[1].support)
    return math.comb(m * n, m + n - 1)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer at the attribute its callers look up."""
    core = sys.modules["fiberdist.core"]
    extension = sys.modules["fiberdist.extension"]
    hyperspace = sys.modules["fiberdist.hyperspace"]
    power = sys.modules["fiberdist.power"]
    transport = sys.modules["fiberdist.transport"]
    words = sys.modules["fiberdist.words"]
    cli = sys.modules["fiberdist.cli"]

    tracer.wrap_call(words.WordsFunctor, "distance", _search_kind, _on_search)
    tracer.wrap_call(transport, "kantorovich", "transport.kantorovich")
    tracer.wrap_call(transport, "dual_certificate", "transport.dual_certificate")
    for owner in (extension, cli):
        tracer.wrap_call(owner, "extend_generic", "extension.extend_generic", _on_generic)
    tracer.wrap_stream(hyperspace, "fiber_subsets", "hyperspace.fiber_subsets", _subset_masks)
    tracer.wrap_stream(transport, "fiber_vertices", "transport.fiber_vertices", _vertex_trees)
    tracer.wrap_stream(words, "enumerate_proper_representations", "words.stream")
    tracer.wrap_call(hyperspace.HyperspaceFunctor, "distance", "hyperspace.distance")
    tracer.wrap_call(power.PowerFunctor, "distance", "power.distance")
    tracer.wrap_call(core, "validate_space", "core.validate_space")
    tracer.wrap_call(cli, "space_document_from_obj", "core.space_load")
    tracer.wrap_call(cli, "main", "cli.main")
    tracer.wrap_call(cli, "_single_response", "cli.solve")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Reduce the recorded spans and counts to (value, unit) per metric."""
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for _sid, _parent, _req, name, _start, duration, self_time in tracer.spans:
        calls[name] += 1
        busy[name] += duration
        own[name] += self_time
    counts = tracer.counts
    search = [f"words.search.{kind}" for kind in SEARCH_KINDS]
    search_calls = sum(calls[n] for n in search)
    search_busy = sum(busy[n] for n in search)
    states = counts["words.search.states"]

    def stream_ratio(name: str) -> float:
        return _ratio(counts[f"{name}.exhausted_yields"], counts[f"{name}.candidates"])

    metrics = {
        "words.search.calls": (search_calls, "count"),
        "words.search.busy_s": (search_busy, "s"),
        "words.search.states": (states, "count"),
        "words.search.states_per_s": (_ratio(states, search_busy), "1/s"),
        **{f"words.search.{kind}.busy_s": (busy[f"words.search.{kind}"], "s") for kind in SEARCH_KINDS},
        "words.search.cap_limited_share": (_ratio(counts["words.search.cap_limited"], search_calls), "ratio"),
        "transport.kantorovich.calls": (calls["transport.kantorovich"], "count"),
        "transport.kantorovich.busy_s": (busy["transport.kantorovich"], "s"),
        "transport.kantorovich.self_s": (own["transport.kantorovich"], "s"),
        "transport.dual_certificate.busy_s": (busy["transport.dual_certificate"], "s"),
        "extension.extend_generic.calls": (calls["extension.extend_generic"], "count"),
        "extension.extend_generic.busy_s": (busy["extension.extend_generic"], "s"),
        "extension.extend_generic.self_s": (own["extension.extend_generic"], "s"),
        "extension.fiber_size": (counts["extension.fiber_size"], "count"),
        "hyperspace.fiber_subsets.couplings": (counts["hyperspace.fiber_subsets.yields"], "count"),
        "hyperspace.fiber_subsets.busy_s": (busy["hyperspace.fiber_subsets"], "s"),
        "hyperspace.fiber_subsets.useful_ratio": (stream_ratio("hyperspace.fiber_subsets"), "ratio"),
        "transport.fiber_vertices.vertices": (counts["transport.fiber_vertices.yields"], "count"),
        "transport.fiber_vertices.busy_s": (busy["transport.fiber_vertices"], "s"),
        "transport.fiber_vertices.useful_ratio": (stream_ratio("transport.fiber_vertices"), "ratio"),
        "words.stream.couplings": (counts["words.stream.yields"], "count"),
        "words.stream.busy_s": (busy["words.stream"], "s"),
        "hyperspace.distance.busy_s": (busy["hyperspace.distance"], "s"),
        "power.distance.busy_s": (busy["power.distance"], "s"),
        "core.space_load.calls": (calls["core.space_load"], "count"),
        "core.space_load.busy_s": (busy["core.space_load"], "s"),
        "core.validate_space.busy_s": (busy["core.validate_space"], "s"),
        "cli.main.calls": (calls["cli.main"], "count"),
        "cli.solve.busy_s": (busy["cli.solve"], "s"),
        "cli.self_s": (own["cli.main"], "s"),
        "trace.overhead_ratio": (traced_wall / untraced_wall - 1, "ratio"),
    }
    return metrics
