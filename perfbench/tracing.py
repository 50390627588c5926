"""In-memory spans around the benchmark's calls into lgr.

A span records name, start, end, parent and request id. Spans live in a
list until the run ends and are then written out as JSON lines. The
untraced run uses :data:`OFF`, whose ``span`` is a shared no-op context
manager, so both runs execute the same calls in the same order.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "request")

    def __init__(self, name: str, start: float, parent: "Span | None", request: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class _Open:
    __slots__ = ("_tracer", "_name", "_request", "_span")

    def __init__(self, tracer: "Tracer", name: str, request: int | None):
        self._tracer = tracer
        self._name = name
        self._request = request

    def __enter__(self) -> Span:
        tr = self._tracer
        stack = tr._stack()
        parent = stack[-1] if stack else None
        request = self._request
        if request is None:
            request = parent.request if parent is not None else next(tr._requests)
        span = Span(self._name, 0.0, parent, request)
        stack.append(span)
        span.start = perf_counter()
        self._span = span
        return span

    def __exit__(self, *exc) -> None:
        span = self._span
        span.end = perf_counter()
        self._tracer._stack().pop()
        self._tracer.spans.append(span)


class Tracer:
    """Collects spans from any number of threads."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._requests = itertools.count(1)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, request: int | None = None) -> _Open:
        """Time the enclosed block. Nested spans inherit the request id."""
        return _Open(self, name, request)

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span timed by the caller, as a child of the open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name, start, parent, parent.request if parent is not None else next(self._requests))
        span.end = end
        self.spans.append(span)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_seconds_by_layer(self) -> dict[str, float]:
        """Per layer, span time not covered by child spans."""
        child: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[id(s.parent)] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.layer] += (s.end - s.start) - child.get(id(s), 0.0)
        return dict(out)

    def write(self, path: Path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with path.open("w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "i": i,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": index.get(id(s.parent)) if s.parent else None,
                            "request": s.request,
                        }
                    )
                )
                fh.write("\n")


class _Off:
    enabled = False
    _noop = contextlib.nullcontext()

    def span(self, name: str, request: int | None = None) -> contextlib.nullcontext:
        return self._noop


OFF = _Off()
