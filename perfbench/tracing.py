"""In-memory span recorder and call-site wrapping for the traced benchmark run.

Nothing here knows about topospinor: ``layers.py`` names the functions to
wrap.  Spans are kept in memory and written out once the run ends, so the
traced code pays only for two clock reads and a list append per call.

The package imports its own functions with ``from .x import y``, so each
function is bound under its name in several module namespaces.  ``Tracing``
therefore rebinds every module-level reference to a target function, not just
the definition, and restores all of them on exit.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    tag: str | None = None


class Recorder:
    """Spans and counters of one run; ``op`` is the operation being recorded."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[tuple[int | None, str], float] = {}
        self.labels: dict[int, str] = {}
        self.op: int | None = None
        self._stack: list[int] = []

    def open(self, name: str, tag: str | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), float("nan"), parent, self.op, tag))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {idx} closed out of order")
        self._stack.pop()
        self.spans[idx].end = self.clock()

    def count(self, name: str, value: float = 1.0) -> None:
        key = (self.op, name)
        self.counts[key] = self.counts.get(key, 0.0) + value


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(idx)
    out = []
    for idx, span in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end)) for c in children[idx]
        )
        covered = 0.0
        cur_start = cur_end = None
        for a, b in intervals:
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((span.end - span.start) - covered)
    return out


@dataclass(frozen=True)
class Target:
    """A function to trace: where it is defined and the span it records.

    ``tag(recorder, args, kwargs)`` may name a sub-bucket of the span;
    ``after(recorder, args, kwargs, result)`` may record counters once the
    call has returned (outside the span, so its cost is not the layer's).
    """

    module: str
    attr: str
    span: str
    tag: Callable | None = None
    after: Callable | None = None


def _wrap(recorder: Recorder, fn: Callable, target: Target) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tag = target.tag(recorder, args, kwargs) if target.tag else None
        idx = recorder.open(target.span, tag)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(idx)
        if target.after:
            target.after(recorder, args, kwargs, result)
        return result

    return traced


class Tracing:
    """Context manager that routes every package-level binding of each target through a span."""

    def __init__(self, recorder: Recorder, targets: tuple[Target, ...], package: str):
        self.recorder = recorder
        self.targets = targets
        self.package = package
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracing":
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for target in self.targets:
            fn = getattr(sys.modules.get(target.module), target.attr, None)
            if callable(fn) and id(fn) not in wrappers:
                wrappers[id(fn)] = (fn, _wrap(self.recorder, fn, target))
        for name, module in list(sys.modules.items()):
            if module is None or (name != self.package and not name.startswith(self.package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._saved.append((module, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()
