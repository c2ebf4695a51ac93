"""In-memory span recorder, call wrapping and the per-layer time table.

Spans are recorded around calls into the program from the benchmark's own
files: :class:`Patches` swaps a class or module attribute for a wrapper
that opens a span, calls the original and closes the span, and puts every
original back on :meth:`Patches.restore`.  Each span keeps its name, the
layer it is billed to, a metric group (``engine.cache``,
``serve.http`` ...), start, end, thread and parent.  The parent is the
innermost open span of the same thread, so concurrent threads keep
separate stacks.  Spans stay in memory until the run ends.

A span's *self time* is its duration minus the union of its children's
intervals.  :func:`layer_table` bills self time to layers over a window
and adds an ``other`` row: per thread, the window time no top-level span
covers.  When spans nest properly the rows sum to ``threads x window``;
:data:`SUM_TOLERANCE` is the share by which they may miss it.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Largest relative gap allowed between the table's row sum and its wall time.
SUM_TOLERANCE = 0.01


class Span:
    """One timed call."""

    __slots__ = ("sid", "name", "layer", "group", "start", "end", "thread", "parent")

    def __init__(self, sid, name, layer, group, start, thread, parent) -> None:
        self.sid = sid
        self.name = name
        self.layer = layer
        self.group = group
        self.start = start
        self.end = start
        self.thread = thread
        self.parent = parent

    def as_dict(self) -> Dict[str, Any]:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Recorder:
    """Collects spans and counters from every thread of this process.

    Calls made in another process (a forked worker inherits the wrapped
    classes) are not recorded: :meth:`active` is false there.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.values: Dict[str, List[float]] = defaultdict(list)
        self.objects: Dict[str, Dict[Any, Any]] = defaultdict(dict)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def active(self) -> bool:
        return os.getpid() == self.pid

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str, group: str) -> Span:
        stack = self._stack()
        span = Span(
            next(self._ids),
            name,
            layer,
            group,
            self.clock(),
            threading.get_ident(),
            stack[-1].sid if stack else None,
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def sample(self, key: str, value: float) -> None:
        with self._lock:
            self.values[key].append(float(value))

    def keep(self, kind: str, key: Any, value: Any) -> None:
        """Hold on to a program object (or a timestamp) until the run ends."""
        with self._lock:
            self.objects[kind][key] = value


#: ``after(recorder, args, kwargs, result)`` runs once a wrapped call returned.
AfterHook = Callable[[Recorder, tuple, dict, Any], None]


class Patches:
    """Wrapped attributes of program classes and modules, restorable."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[Any, str, bool, Any]] = []

    def _wrapper(self, original, name, layer, group, after, consume):
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not recorder.active():
                return original(*args, **kwargs)
            span = recorder.open(name, layer, group)
            try:
                result = original(*args, **kwargs)
                if consume:
                    result = iter(list(result))
            finally:
                recorder.close(span)
                recorder.count(name)
            if after is not None:
                after(recorder, args, kwargs, result)
            return result

        return wrapper

    def method(
        self,
        cls: type,
        attr: str,
        name: str,
        layer: str,
        group: Optional[str] = None,
        after: Optional[AfterHook] = None,
        consume: bool = False,
    ) -> None:
        """Wrap ``cls.attr`` (inherited attributes are wrapped on ``cls``).

        ``consume`` drains a generator inside the span, so the span covers
        the work and the caller still receives an iterator.
        """
        own = attr in cls.__dict__
        original = getattr(cls, attr)
        self._saved.append((cls, attr, own, cls.__dict__.get(attr)))
        setattr(cls, attr, self._wrapper(original, name, layer, group or layer, after, consume))

    def function(
        self,
        modules: Iterable[Any],
        attr: str,
        name: str,
        layer: str,
        group: Optional[str] = None,
        after: Optional[AfterHook] = None,
    ) -> None:
        """Wrap a function in every module that bound it by name."""
        modules = list(modules)
        original = getattr(modules[0], attr)
        wrapped = self._wrapper(original, name, layer, group or layer, after, False)
        for module in modules:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} is not the function being wrapped")
            self._saved.append((module, attr, True, original))
            setattr(module, attr, wrapped)

    def restore(self) -> None:
        for owner, attr, own, original in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()


# -- analysis -----------------------------------------------------------------


def _union(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _clip(span: Span, window: Tuple[float, float]) -> Tuple[float, float]:
    return max(span.start, window[0]), min(span.end, window[1])


def self_times(spans: Sequence[Span], window: Optional[Tuple[float, float]] = None) -> Dict[int, float]:
    """Span id -> duration minus the union of its children, within ``window``."""
    if window is None:
        window = (float("-inf"), float("inf"))
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        start, end = _clip(span, window)
        if end <= start:
            result[span.sid] = 0.0
            continue
        covered = _union(
            (max(start, child.start), min(end, child.end)) for child in children.get(span.sid, ())
        )
        result[span.sid] = (end - start) - covered
    return result


def busy_times(spans: Sequence[Span], window: Optional[Tuple[float, float]] = None) -> Dict[str, float]:
    """Metric group -> time inside its outermost spans (nested same-group calls count once)."""
    if window is None:
        window = (float("-inf"), float("inf"))
    by_id = {span.sid: span for span in spans}
    busy: Dict[str, float] = defaultdict(float)
    for span in spans:
        parent = by_id.get(span.parent)
        while parent is not None and parent.group != span.group:
            parent = by_id.get(parent.parent)
        if parent is None:
            start, end = _clip(span, window)
            busy[span.group] += max(0.0, end - start)
    return dict(busy)


def layer_table(
    spans: Sequence[Span], window: Tuple[float, float], layers: Sequence[str]
) -> Dict[str, Any]:
    """Self time per layer plus ``other``, over ``threads x window``.

    The threads are those with a span inside the window.  The result
    carries ``wall_s`` (the window times the thread count), ``sum_s`` (rows
    plus ``other``), ``sum_error`` (their relative gap) and the
    ``tolerance`` that :func:`sums_to_wall` holds it to.  A span whose
    parent lies outside the window counts as top-level.
    """
    inside = [s for s in spans if min(s.end, window[1]) > max(s.start, window[0])]
    thread_ids = {s.thread for s in inside}
    selfs = self_times(inside, window)
    rows = {layer: 0.0 for layer in layers}
    for span in inside:
        rows[span.layer] = rows.get(span.layer, 0.0) + selfs[span.sid]
    ids = {s.sid for s in inside}
    other = 0.0
    length = window[1] - window[0]
    for thread in thread_ids:
        top = [_clip(s, window) for s in inside if s.thread == thread and s.parent not in ids]
        other += length - _union(top)
    wall = length * len(thread_ids)
    total = sum(rows.values()) + other
    return {
        "rows": rows,
        "other_s": other,
        "threads": len(thread_ids),
        "window_s": length,
        "wall_s": wall,
        "sum_s": total,
        "sum_error": abs(total - wall) / wall if wall > 0 else 0.0,
        "tolerance": SUM_TOLERANCE,
    }


def sums_to_wall(table: Dict[str, Any], tolerance: float = SUM_TOLERANCE) -> bool:
    """Whether the table's rows, ``other`` included, add up to its wall time."""
    return table["sum_error"] <= tolerance
