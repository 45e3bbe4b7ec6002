"""In-memory spans around calls into the package's public functions.

The benchmark patches module attributes (the names the CLI and the library
look up at call time) with wrappers that record one span per call: name,
layer, start, end, parent span and op id. Spans are kept in a list and
written out once, at the end of the run. Nothing inside the package is
changed; unpatching restores the original functions.
"""

from __future__ import annotations

import dataclasses
import functools
import time


@dataclasses.dataclass(slots=True)
class Span:
    id: int
    name: str
    layer: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int | None
    attrs: dict

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records nested spans on one thread. Worker threads started by a traced
    function are not traced; their time falls inside the caller's span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op: int | None = None

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, layer, time.perf_counter_ns(), 0,
                    parent, self.op, {})
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) inside a root span "op" for op ``op_id``."""
        self.op = op_id
        span = self._open("op", "op")
        try:
            return fn(*args)
        finally:
            self._close(span)
            self.op = None

    def wrap(self, fn, name: str, layer: str, describe=None):
        """Traced version of fn. ``describe(args, kwargs)``, if given, runs
        before the call and returns either the span's attributes or a
        function of no arguments that returns them after the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pending = describe(args, kwargs) if describe else None
            span = self._open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
                if callable(pending):
                    pending = pending()
                if pending:
                    span.attrs.update(pending)

        return traced

    def patch(self, module, attr: str, layer: str, describe=None) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(original, f"{layer}.{attr}", layer, describe))

    def unpatch(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def _union_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def _children(spans) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return kids


def self_times(spans) -> dict[int, int]:
    """Span id -> self time in ns: the span's duration minus the part of its
    interval that its direct children cover."""
    kids = _children(spans)
    return {s.id: s.ns - _union_ns([(c.start_ns, c.end_ns) for c in kids.get(s.id, ())],
                                   s.start_ns, s.end_ns)
            for s in spans}


def layer_self_ns(spans) -> dict[str, int]:
    """Total self time per layer. Root op spans count as layer "op": the time
    of an op that no traced call covers."""
    own = self_times(spans)
    totals: dict[str, int] = {}
    for s in spans:
        totals[s.layer] = totals.get(s.layer, 0) + own[s.id]
    return totals


def coverage(spans) -> float:
    """Share of root op time that the op's child spans cover."""
    kids = _children(spans)
    covered = total = 0
    for s in spans:
        if s.parent is None and s.name == "op":
            total += s.ns
            covered += _union_ns([(c.start_ns, c.end_ns) for c in kids.get(s.id, ())],
                                 s.start_ns, s.end_ns)
    return covered / total if total else 0.0
