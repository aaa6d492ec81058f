"""Span tracer for the traced benchmark run.

Nothing under ``src/`` is instrumented.  :class:`SpanTracer` replaces
each layer's entry points (class methods and module functions) with
wrappers that record one span per call, and one span per *resume* for
generator functions: a simulator process is a generator, so timing its
resumes counts the CPU work of each step and never the virtual time it
waits.  Spans opened while another is open become its children; a
layer's self time is its spans' durations minus their children's.

Spans live in flat arrays until :meth:`SpanTracer.write` dumps them.
Post-call hooks record the gauges a span cannot: cache lookup
outcomes, queue peaks and the instances whose counters the metrics read.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
import types
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_GENERATOR = types.GeneratorType


class SpanTracer:
    """In-memory span recorder with install/uninstall of wrappers."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.calls: List[int] = []
        self.span_name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        #: instances seen by hooks, by kind ("cache", "learner", ...)
        self.seen: Dict[str, Dict[int, object]] = {}
        self.peaks: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}

    # -- recording ---------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name in self.names:  # one name may wrap several owners
            return self.names.index(name)
        self.names.append(name)
        self.calls.append(0)
        return len(self.names) - 1

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def _resumes(self, name_id: int, generator):
        """Drive ``generator`` like the simulator would, one span per step."""
        value = None
        error: Optional[BaseException] = None
        while True:
            index = self._open(name_id)
            try:
                if error is None:
                    out = generator.send(value)
                else:
                    out = generator.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self._close(index)
            try:
                value = yield out
                error = None
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # delivered into the wrapped step
                value, error = None, exc

    def _wrap(self, name: str, function: Callable, hook: Optional[Callable]):
        name_id = self._name_id(name)
        tracer = self
        calls = self.calls
        if inspect.isgeneratorfunction(function):

            @functools.wraps(function)
            def traced_generator(*args, **kwargs):
                calls[name_id] += 1
                return tracer._resumes(name_id, function(*args, **kwargs))

            return traced_generator

        @functools.wraps(function)
        def traced(*args, **kwargs):
            calls[name_id] += 1
            index = tracer._open(name_id)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(index)
            if hook is not None:
                hook(tracer, args, result)
            if result.__class__ is _GENERATOR:
                return tracer._resumes(name_id, result)
            return result

        return traced

    def install(self, targets: Sequence[Tuple[str, object, str, Optional[Callable]]]) -> None:
        """Wrap ``owner.attr`` for each ``(span name, owner, attr, hook)``."""
        for name, owner, attr, hook in targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- hooks helpers -----------------------------------------------------
    def note(self, kind: str, obj: object) -> None:
        self.seen.setdefault(kind, {})[id(obj)] = obj

    def peak(self, key: str, value: int) -> None:
        if value > self.peaks.get(key, 0):
            self.peaks[key] = value

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def instances(self, kind: str) -> List[object]:
        return list(self.seen.get(kind, {}).values())

    # -- reading -----------------------------------------------------------
    def totals(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Per span name: (inclusive seconds, self seconds)."""
        count = len(self.start)
        child = [0.0] * count
        start, end, parent = self.start, self.end, self.parent
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        inclusive = [0.0] * len(self.names)
        exclusive = [0.0] * len(self.names)
        names = self.span_name
        for i in range(count):
            duration = end[i] - start[i]
            inclusive[names[i]] += duration
            exclusive[names[i]] += duration - child[i]
        return (
            dict(zip(self.names, inclusive)),
            dict(zip(self.names, exclusive)),
        )

    def inclusive_under(self, name: str, parent_name: Optional[str]) -> Tuple[int, float]:
        """(count, inclusive seconds) of ``name`` spans, only those whose
        parent span is ``parent_name`` unless that is None."""
        want = self.names.index(name)
        under = None if parent_name is None else self.names.index(parent_name)
        count, total = 0, 0.0
        for i in range(len(self.start)):
            if self.span_name[i] != want:
                continue
            if under is not None:
                p = self.parent[i]
                if p < 0 or self.span_name[p] != under:
                    continue
            count += 1
            total += self.end[i] - self.start[i]
        return count, total

    def call_count(self, name: str) -> int:
        return self.calls[self.names.index(name)]

    def write(self, path: str) -> int:
        """Dump every span as TSV (gzip): name, start_us, dur_us, parent."""
        origin = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tstart_us\tdur_us\tparent\n")
            for i in range(len(self.start)):
                out.write(
                    "{}\t{}\t{:.3f}\t{:.3f}\t{}\n".format(
                        i,
                        self.names[self.span_name[i]],
                        1e6 * (self.start[i] - origin),
                        1e6 * (self.end[i] - self.start[i]),
                        self.parent[i],
                    )
                )
        return len(self.start)
