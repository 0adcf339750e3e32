"""In-memory span tracer that instruments the package from outside.

The tracer replaces module (or class) attributes that callers look up at
call time with thin wrappers.  Each wrapper records one span: its id, the
id of the span that caused it, its name, start and end in nanoseconds of
``time.perf_counter_ns`` and a run id.  A span that starts a run (the
solver entry point) draws a fresh run id, which its descendants inherit.
Spans stay in a list until the benchmark writes them out at the end, and
every attribute is put back when the tracer is closed.

Worker threads keep their own span stack.  A span opened on a worker with
an empty stack takes as parent the innermost open span of the thread that
created the tracer, so thread-pool fan-out still hangs under its caller.
"""

from __future__ import annotations

import csv
import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Iterable, NamedTuple, Optional, TextIO


class Span(NamedTuple):
    span_id: int
    parent: Optional[int]
    name: str
    start_ns: int
    end_ns: int
    run: Optional[int]


class _ThreadState:
    __slots__ = ("stack", "run")

    def __init__(self):
        self.stack: list[int] = []
        self.run: Optional[int] = None


class Tracer:
    """Wraps attributes with span recorders; use as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._root = self._state()
        self._ids = itertools.count()
        self._runs = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            return state

    def wrap(self, owner: object, attr: str, name: str, starts_run: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        For a class, the raw function from the class ``__dict__`` is kept,
        so restoring puts back the identical object.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        state, clock, spans, ids, runs, root = (
            self._state, time.perf_counter_ns, self.spans, self._ids, self._runs, self._root)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            st = state()
            stack = st.stack
            if stack:
                parent = stack[-1]
            else:
                parent = root.stack[-1] if root.stack else None
            span_id = next(ids)
            prev_run = st.run
            run = next(runs) if starts_run else prev_run
            st.run = run
            stack.append(span_id)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                st.run = prev_run
                spans.append(Span(span_id, parent, name, start, end, run))

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def write_spans(spans: Iterable[Span], fh: TextIO) -> None:
    """Write spans as CSV rows, one span a row, with a header."""
    writer = csv.writer(fh)
    writer.writerow(Span._fields)
    writer.writerows(spans)


def self_times(spans: Iterable[Span]) -> dict[int, int]:
    """Self time of each span: its duration minus the union its children cover.

    Children on other threads may overlap one another, so their intervals
    are merged before they are subtracted; each is clipped to its parent.
    """
    spans = list(spans)
    by_id = {s.span_id: s for s in spans}
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent in by_id:
            children[s.parent].append((s.start_ns, s.end_ns))
    result = {}
    for s in spans:
        covered = 0
        cur_start = cur_end = None
        for start, end in sorted(children.get(s.span_id, ())):
            start, end = max(start, s.start_ns), min(end, s.end_ns)
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        result[s.span_id] = (s.end_ns - s.start_ns) - covered
    return result


def layer_totals(spans: Iterable[Span]) -> dict[str, dict[str, int]]:
    """Per span name: number of calls and summed self time in nanoseconds."""
    spans = list(spans)
    own = self_times(spans)
    totals: dict[str, dict[str, int]] = defaultdict(lambda: {"calls": 0, "self_ns": 0})
    for s in spans:
        entry = totals[s.name]
        entry["calls"] += 1
        entry["self_ns"] += own[s.span_id]
    return dict(totals)
