"""Spans and counters recorded around calls into ratecalc's modules.

The tracer wraps the program's public functions from the outside.  It
points every module-level name that refers to a traced function at a
wrapper, and so every entry of a module-level dict (the CLI's direction
table holds functions), and replaces traced methods on their classes.
``uninstall`` puts the originals back.  Nothing inside the program
changes, so a traced run must produce the same outputs as an untraced
one.

Public calls are recorded as spans (name, start, end, parent).  The hot
calls (``energy``, ``entropy`` and the ``RateFunction`` evaluators) are
only counted: calls, elements and accumulated time.  A call's self time
is its duration minus the time its traced children cover, whether those
children are spans or counted calls.
"""

from __future__ import annotations

import inspect
import math
import resource
import time
from dataclasses import dataclass, field


def maxrss_mb() -> float:
    """Peak resident memory of this process so far (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 at top level
    op: int  # index of the benchmark operation that caused it
    start: float = 0.0
    end: float = 0.0
    self_s: float = 0.0
    ok: bool = True
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Counter:
    calls: int = 0
    elems: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Collects spans and counters while installed on the ratecalc modules."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, Counter] = {}
        self.op = -1
        self._stack: list[list] = []  # per open call: [child time, span index or None]
        self._undo: list = []

    # -- recording -----------------------------------------------------

    def _enter(self, name):
        index = None
        if name is not None:
            parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), -1)
            index = len(self.spans)
            self.spans.append(Span(name, parent, self.op))
        frame = [0.0, index]
        self._stack.append(frame)
        return frame

    def _leave(self, frame, start: float, end: float) -> float:
        """Close the innermost call; returns its self time."""
        self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][0] += dur
        own = dur - frame[0]
        if frame[1] is not None:
            span = self.spans[frame[1]]
            span.start, span.end, span.self_s = start, end, own
        return own

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span the benchmark opens itself."""
        return self._span_wrapper(name, fn, None)(*args, **kwargs)

    def _span_wrapper(self, name: str, fn, describe):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            frame = self._enter(name)
            span = self.spans[frame[1]]
            rss0 = maxrss_mb()
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span.ok = False
                raise
            finally:
                self._leave(frame, t0, time.perf_counter())
                span.info["rss_growth_mb"] = maxrss_mb() - rss0
                if describe is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.info.update(describe(bound.arguments, result))

        return traced

    def _count_wrapper(self, counter: Counter, fn, size_of):
        def counted(*args, **kwargs):
            frame = self._enter(None)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                counter.self_s += self._leave(frame, t0, t1)
                counter.total_s += t1 - t0
                counter.calls += 1
                if size_of is not None:
                    counter.elems += size_of(*args, **kwargs)

        return counted

    # -- installation --------------------------------------------------

    def install(self, modules, spans: dict, counters: dict) -> None:
        """Wrap the callables named in ``spans`` and ``counters``.

        ``spans`` maps a span name to (owner, attribute, describe), where
        ``describe(arguments, result)`` returns numbers to keep with the
        span; ``counters`` maps a counter name to ([owners], attribute,
        size_of).  An owner is a module (every reference to the function
        in ``modules`` is wrapped) or a class (the method it defines
        itself is wrapped).  Names an owner does not have are skipped.
        """
        for name, (owner, attr, describe) in spans.items():
            self._wrap(modules, owner, attr, lambda fn, n=name, d=describe: self._span_wrapper(n, fn, d))
        for name, (owners, attr, size_of) in counters.items():
            counter = self.counters.setdefault(name, Counter())
            for owner in owners:
                self._wrap(modules, owner, attr, lambda fn, s=size_of: self._count_wrapper(counter, fn, s))

    def _wrap(self, modules, owner, attr: str, make) -> None:
        if isinstance(owner, type):
            fn = owner.__dict__.get(attr)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, make(fn))
            return
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        wrapped = make(fn)
        for mod in modules:
            space = vars(mod)
            for key, value in list(space.items()):
                if value is fn:
                    self._set(space, key, wrapped)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is fn:
                            self._set(value, k, wrapped)
                        elif isinstance(v, tuple) and any(x is fn for x in v):
                            self._set(value, k, tuple(wrapped if x is fn else x for x in v))

    def _set(self, mapping: dict, key, value) -> None:
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        while self._undo:
            target, key, value = self._undo.pop()
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)

    # -- summaries -----------------------------------------------------

    def named(self, *names: str) -> list[Span]:
        return [s for s in self.spans if s.name in names]

    def self_s(self, *names: str) -> float:
        return math.fsum(s.self_s for s in self.named(*names))

    def outermost(self, *names: str) -> list[Span]:
        """Spans named in ``names`` with no ancestor named in ``names``."""
        out = []
        for span in self.named(*names):
            p = span.parent
            while p >= 0 and self.spans[p].name not in names:
                p = self.spans[p].parent
            if p < 0:
                out.append(span)
        return out

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "op": s.op, "self_s": s.self_s, "ok": s.ok, **s.info}
                for s in self.spans
            ],
            "counters": {k: vars(c) for k, c in self.counters.items()},
        }
