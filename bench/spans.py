"""In-memory span recorder for the benchmark's traced runs (stdlib only).

Spans are kept in a list while the run goes on and written out as JSON
lines when it ends, so the run itself does no I/O.  Each span records its
name, start and end (``time.perf_counter`` seconds), the span that was open
when it began, and the root span of its tree; every span of one operation
shares that root.  A layer's self time is its duration minus the time its
direct children cover; children of one span never overlap because the
benchmark is single-threaded.
"""

import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "parent", "root", "name", "start", "end", "attrs")

    def __init__(self, sid, parent, root, name, attrs):
        self.id = sid
        self.parent = parent
        self.root = root
        self.name = name
        self.attrs = attrs
        self.start = time.perf_counter()
        self.end = None

    @property
    def duration(self):
        return self.end - self.start


class SpanRecorder:
    """Records nested spans of one thread; spans must close in LIFO order."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def begin(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.id if parent else None,
                    parent.root if parent else len(self.spans), name, attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        span.end = time.perf_counter()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name!r} closed while {top.name!r} was open")

    def current_name(self):
        return self._stack[-1].name if self._stack else None

    @contextmanager
    def span(self, name, **attrs):
        span = self.begin(name, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    def wrap(self, fn, name, attrs_of=None):
        """Return ``fn`` wrapped in a span; ``attrs_of(args, result)`` adds attributes."""

        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if attrs_of is not None:
                span.attrs.update(attrs_of(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self):
        """Map span id to its duration minus that of its direct children."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def write_jsonl(self, path):
        own = self.self_times()
        with open(path, "w") as fh:
            for s, self_s in zip(self.spans, own):
                rec = {"id": s.id, "parent": s.parent, "root": s.root, "name": s.name,
                       "start": s.start, "end": s.end, "self": self_s}
                if s.attrs:
                    rec["attrs"] = s.attrs
                fh.write(json.dumps(rec) + "\n")

