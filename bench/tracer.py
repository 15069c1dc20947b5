"""In-memory span tracer that wraps modeswitch's public functions from outside.

A span is ``[name, start, end, parent, note]``: ``parent`` is the index of the
enclosing span (-1 for a root) and ``note`` is an optional value computed from
the call (a work count, a request key). Nothing inside ``src/`` changes: the
wrappers replace module attributes, and every module of the package that bound
the same function object by name gets the wrapper too. A target that no longer
exists is skipped, so its metrics read 0 and the run still finishes.

Spans are kept in memory and written once, at the end of the run. The tracer
assumes one thread (the benchmark fixes the program's thread count at 1).
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time

PACKAGE = "modeswitch"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.enabled = True
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, None]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        if not self.enabled:
            yield None
            return
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name, func, note=None):
        """``func`` recorded as span ``name``; ``note(args, kwargs, result)`` fills the note."""
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(span)
            if note is not None:
                try:
                    span[4] = note(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature loses the note, not the span
            return result

        return traced

    # -- installing wrappers ---------------------------------------------

    def patch_function(self, module, attr, name, note=None):
        """Wrap ``module.attr`` wherever the package holds that function by name."""
        original = getattr(module, attr, None)
        if original is None:
            return False
        wrapped = self.wrap(name, original, note)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapped)
        return True

    def patch_method(self, cls, attr, name, note=None):
        original = cls.__dict__.get(attr)
        if original is None:
            return False
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, note))
        return True

    def patch_attribute(self, owner, attr, replacement):
        """Swap an attribute for a stand-in built by the caller (restored by ``unpatch``)."""
        if not hasattr(owner, attr):
            return False
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)
        return True

    def unpatch(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading ---------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, note) in enumerate(self.spans):
                record = {"id": index, "parent": parent, "name": name,
                          "start": start, "end": end}
                if note is not None:
                    record["note"] = note if isinstance(note, (int, float)) else str(note)
                handle.write(json.dumps(record) + "\n")


class SpanStats:
    """Aggregates over a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                self.child_time[parent] += end - start

    def _select(self, name):
        return [(i, s) for i, s in enumerate(self.spans) if s[0] == name]

    def count(self, name) -> int:
        return len(self._select(name))

    def total(self, name) -> float:
        return sum(s[2] - s[1] for _, s in self._select(name))

    def self_time(self, name) -> float:
        return sum(s[2] - s[1] - self.child_time[i] for i, s in self._select(name))

    def median(self, name) -> float:
        durations = [s[2] - s[1] for _, s in self._select(name)]
        return statistics.median(durations) if durations else 0.0

    def notes(self, name) -> list:
        return [s[4] for _, s in self._select(name) if s[4] is not None]

    def children_of(self, parent_name, child_name) -> int:
        parents = {i for i, _ in self._select(parent_name)}
        return sum(1 for _, s in self._select(child_name) if s[3] in parents)
