"""In-memory spans recorded around calls into the package's layers.

A span is opened by a wrapper that replaces a function or method on its
owner (a module, a class or one instance), so every caller that looks the
name up at call time is traced.  Spans nest per thread: the span open on the calling thread
when a wrapped call starts is its parent.  Nothing is written until the run
ends.

A span's layer is the part of its name before the first dot.  Its self time
is its duration minus the durations of its child spans; its layer self time
is its duration minus the durations of the nearest descendants that belong
to another layer, so calls a layer makes to itself stay inside it.  A
parent's children run one after another on the parent's thread, inside the
parent, so their durations never overlap.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import ExitStack
from unittest import mock


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "attrs", "failed")

    def __init__(self, name: str, start: int, parent: int, thread: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.attrs: dict | None = None
        self.failed = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> int:
        return self.end - self.start


def replace(stack: ExitStack, owner, attr: str, make) -> None:
    """Set ``owner.attr`` to ``make(current value)`` until ``stack`` closes."""
    stack.enter_context(mock.patch.object(owner, attr, make(getattr(owner, attr))))


class Tracer:
    """Collects spans from the callables it wraps."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self._local = threading.local()
        self._append_lock = threading.Lock()
        self._children: dict[int, list[int]] | None = None

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, attrs=None):
        """Return ``fn`` wrapped in a span; ``attrs(args, kwargs)`` adds counts."""
        spans = self.spans
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, 0, stack[-1] if stack else -1, threading.get_ident())
            if attrs is not None:
                span.attrs = attrs(args, kwargs)
            with self._append_lock:
                spans.append(span)
                stack.append(len(spans) - 1)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def patch(self, stack: ExitStack, owner, attr: str, name: str, attrs=None) -> None:
        replace(stack, owner, attr, lambda fn: self.wrap(fn, name, attrs))

    def current(self) -> Span | None:
        """The innermost span open on the calling thread."""
        stack = self._stack()
        return self.spans[stack[-1]] if stack else None

    # -- analysis -----------------------------------------------------------

    def children(self, index: int) -> list[int]:
        if self._children is None:
            self._children = {}
            for i, span in enumerate(self.spans):
                self._children.setdefault(span.parent, []).append(i)
        return self._children.get(index, [])

    def named(self, name: str) -> list[int]:
        """Spans of ``name`` whose call returned."""
        return [i for i, s in enumerate(self.spans) if s.name == name and not s.failed]

    def ancestors(self, index: int):
        parent = self.spans[index].parent
        while parent >= 0:
            yield parent
            parent = self.spans[parent].parent

    def has_ancestor(self, index: int, name: str) -> bool:
        return any(self.spans[a].name == name for a in self.ancestors(index))

    def self_time(self, index: int) -> int:
        return self.spans[index].duration - sum(self.spans[c].duration for c in self.children(index))

    def layer_self_time(self, index: int) -> int:
        layer = self.spans[index].layer
        foreign = 0
        todo = list(self.children(index))
        while todo:
            kid = todo.pop()
            if self.spans[kid].layer == layer:
                todo.extend(self.children(kid))
            else:
                foreign += self.spans[kid].duration
        return self.spans[index].duration - foreign

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                record = {"id": i, "name": s.name, "parent": s.parent, "thread": s.thread,
                          "start_ns": s.start, "end_ns": s.end}
                if s.attrs:
                    record["attrs"] = s.attrs
                if s.failed:
                    record["failed"] = True
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
