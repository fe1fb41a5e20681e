"""In-memory span tracer for the benchmark's traced pass.

Timing wrappers are set on module attributes, where callers look the
functions up, and removed afterwards, so the program under test carries no
tracing code. Each call records a span holding its name, start, end, parent
and any counts taken from its arguments and result.
"""
from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one single-threaded job."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else -1
        sp = Span(name, time.perf_counter(), parent=parent)
        self.spans.append(sp)
        self._open.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn: Callable, name: str, count: Callable | None = None) -> Callable:
        """fn inside a span; count(args, kwargs, result) gives the span's counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if count is not None:
                sp.counts.update(count(args, kwargs, result))
            return result

        return traced

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        own = [sp.duration for sp in self.spans]
        for sp in self.spans:
            if sp.parent >= 0:
                own[sp.parent] -= sp.duration
        return own

    def to_json(self) -> list[dict]:
        return [
            {"name": sp.name, "start": sp.start, "end": sp.end,
             "parent": sp.parent, "counts": sp.counts}
            for sp in self.spans
        ]


@contextlib.contextmanager
def patched(replacements: list[tuple[object, str, Callable]]) -> Iterator[None]:
    """Set module attributes for the duration of the block, then restore them."""
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in replacements]
    try:
        for mod, name, new in replacements:
            setattr(mod, name, new)
        yield
    finally:
        for mod, name, old in reversed(saved):
            setattr(mod, name, old)
