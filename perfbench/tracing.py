"""In-memory spans around calls into freqplan, recorded from outside it.

``Tracer.wrap`` replaces a module attribute that callers resolve at call
time (``freqplan.iterative.enumerate_options`` is looked up as a module
global by ``iterate_once`` on every call) with a wrapper that records one
span per call: name, start, end, parent span and run id. An optional count
hook turns the call's arguments and result into exact work counts.
``restore`` puts the original attributes back. Nothing is written until
the caller asks for ``write_csv`` at the end of the run.
"""

from __future__ import annotations

import csv
import functools
import inspect
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Mapping

CountHook = Callable[[Mapping[str, object], object], Mapping[str, float]]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    run: str


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.run = ""
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, count: CountHook | None = None) -> None:
        original = getattr(module, attr)
        signature = inspect.signature(original) if count is not None else None
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, time.perf_counter(), float("nan"), parent, tracer.run)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs).arguments
                tracer.counts[tracer.run].update(count(bound, result))
            return result

        setattr(module, attr, traced)
        self._originals.append((module, attr, original))

    def restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part of it its children cover."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out = []
        for index, span in enumerate(self.spans):
            covered, reach = 0.0, span.start
            for child in sorted(children.get(index, ()), key=lambda c: c.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(span.end - span.start - covered)
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start", "end", "parent", "run"])
            for index, s in enumerate(self.spans):
                parent = "" if s.parent is None else s.parent
                writer.writerow([index, s.name, repr(s.start), repr(s.end), parent, s.run])
