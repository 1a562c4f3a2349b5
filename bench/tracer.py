"""Spans recorded from outside the package, at its module boundaries.

A traced run replaces names that one `analytic_descent` module imports from
another (for example `analytic_descent.descent.eval_energy`, the
descent -> surrogate boundary) with wrappers that record a span per call,
and puts every original back afterwards.  Spans stay in memory; the
summaries below turn them into per-layer self times, call counts, latency
percentiles and computed work counts.  Nothing in `src/` is changed.

A span's layer is the part of its name before the first dot.  Its self time
is its duration minus the part of that interval its child spans cover, so
on a run without concurrent dispatch the self times of all spans sum to the
root span's duration.  Spans opened in a worker thread of the threaded query
dispatch take the innermost open span of the thread that started the trace
as their parent; they overlap each other, so there the sum exceeds the wall
time by the overlap.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "work")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.work = None  # (gate applications, amplitude updates), computed

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Span recorder plus the patch table that installs and removes wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.captured: dict[str, list] = defaultdict(list)
        self._local = threading.local()
        self._home = None  # span stack of the thread that opened the root span
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._home:
            parent = self._home[-1]
        else:
            parent = None
        span = Span(name, parent)
        self.spans.append(span)  # list.append is atomic under the GIL
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        if self._home is None:
            self._home = self._stack()
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name, work, capture):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if work is not None:
                span.work = work(*args)
            if capture:
                tracer.captured[name].append(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, work=None, capture=False) -> None:
        """Replace ``owner.attr`` (a module or class attribute) by a traced wrapper."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(getattr(owner, attr), name, work, capture))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, boundaries):
        """Patch every (owner, attr, name, work, capture) boundary for the block."""
        try:
            for owner, attr, name, work, capture in boundaries:
                self.patch(owner, attr, name, work, capture)
            yield self
        finally:
            self.restore()

    # -- summaries -----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """id(span) -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[id(span.parent)].append((span.start, span.end))
        out = {}
        for span in self.spans:
            covered = 0.0
            reach = span.start
            for start, end in sorted(children.get(id(span), ())):
                start = max(start, reach)
                end = min(end, span.end)
                if end > start:
                    covered += end - start
                    reach = end
            out[id(span)] = span.duration - covered
        return out

    def layer_self_s(self) -> dict[str, float]:
        selfs = self.self_times()
        totals = defaultdict(float)
        for span in self.spans:
            totals[span.layer] += selfs[id(span)]
        return dict(totals)

    def by_name(self) -> dict[str, list[Span]]:
        groups = defaultdict(list)
        for span in self.spans:
            groups[span.name].append(span)
        return groups

    def name_stats(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, p50/p99 in µs."""
        selfs = self.self_times()
        stats = {}
        for name, spans in self.by_name().items():
            durations = np.array([s.duration for s in spans])
            stats[name] = {
                "calls": len(spans),
                "s": float(durations.sum()),
                "self_s": float(sum(selfs[id(s)] for s in spans)),
                "p50_us": float(np.percentile(durations, 50) * 1e6),
                "p99_us": float(np.percentile(durations, 99) * 1e6),
            }
        return stats

    def work(self) -> tuple[int, int]:
        gates = amplitudes = 0
        for span in self.spans:
            if span.work is not None:
                gates += span.work[0]
                amplitudes += span.work[1]
        return gates, amplitudes

    def counters(self) -> dict[str, int]:
        """Deterministic counts: calls per span name and computed work."""
        counts = {f"{name}.calls": len(spans) for name, spans in self.by_name().items()}
        counts["work.gate_applications"], counts["work.amplitude_updates"] = self.work()
        return dict(sorted(counts.items()))

    def children_of_kind(self, parent_name: str, child_name: str) -> int:
        return sum(
            1
            for span in self.spans
            if span.name == child_name
            and span.parent is not None
            and span.parent.name == parent_name
        )


def step_periods(spans: list[Span], step_name: str, boundary_name: str) -> list[float]:
    """Intervals between consecutive ``step_name`` starts, not crossing a
    ``boundary_name`` start (one inner step = one surrogate-gradient period
    inside the same outer step)."""
    events = sorted(
        (span.start, span.name)
        for span in spans
        if span.name in (step_name, boundary_name)
    )
    periods = []
    previous = None
    for start, name in events:
        if name == step_name:
            if previous is not None:
                periods.append(start - previous)
            previous = start
        else:
            previous = None
    return periods
