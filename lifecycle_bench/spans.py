"""Span recording around calls into the program's public functions.

The traced pass wraps each measured function at every place it is
bound: the program's modules import functions by name, so
``repro.dom.parser.parse_html`` is also reachable as
``repro.api.client.parse_html``, ``repro.runtime.serve.parse_html`` and
so on, and each of those names is replaced.  Nothing under ``src/``
changes; the wrappers live only in the traced process.

A span is ``(id, name, start, end, parent, thread)``.  The parent is the
span open in the caller's context (a :mod:`contextvars` variable, so
asyncio tasks each see their own), or one a ``parent_of`` hook names
explicitly — that is how work an executor thread does for a request is
attributed to the request's span on the event-loop thread.  Spans stay
in memory until the run ends.

A span's self time is its duration minus the part of its interval that
its children cover, wherever they ran; children that overlap each other
are counted once.
"""

from __future__ import annotations

import contextvars
import functools
import gc
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, NamedTuple, Optional


GC_SPAN = "python.gc"
GC_GEN2 = "python.gc_gen2"


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int


class Recorder:
    """Collects spans and counted events for one traced process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: ``(time, name, amount)``: counts made where the work happens,
        #: timestamped so a run can keep only those inside its window.
        self.events: list[tuple[float, str, float]] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
            "lifecycle_bench_span", default=None
        )
        self._gc_started: dict[int, float] = {}

    # -- counters -----------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.events.append((time.perf_counter(), name, amount))

    # -- spans --------------------------------------------------------------

    def add(self, name: str, start: float, end: float, parent: Optional[int] = None,
            thread: Optional[int] = None) -> int:
        """Record a finished span (garbage collections, markers)."""
        sid = next(self._ids)
        self.spans.append(
            Span(sid, name, start, end, parent,
                 threading.get_ident() if thread is None else thread)
        )
        return sid

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        parent_of: Optional[Callable[..., Optional[int]]] = None,
        on_start: Optional[Callable[..., None]] = None,
        on_end: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``parent_of(*args, **kwargs)`` may name the parent span when the
        caller's context has none; ``on_start(sid, *args, **kwargs)``
        and ``on_end(sid, result, *args, **kwargs)`` observe the call
        (counters, request registries).  Coroutine functions get a
        coroutine wrapper whose span lasts until the coroutine returns.
        """
        current = self._current
        clock = time.perf_counter
        spans = self.spans
        ids = self._ids
        get_ident = threading.get_ident

        def open_span(args, kwargs):
            parent = current.get()
            if parent is None and parent_of is not None:
                parent = parent_of(*args, **kwargs)
            sid = next(ids)
            token = current.set(sid)
            if on_start is not None:
                on_start(sid, *args, **kwargs)
            return sid, parent, token, clock()

        def close_span(sid, parent, token, start, result, args, kwargs):
            end = clock()
            current.reset(token)
            spans.append(Span(sid, name, start, end, parent, get_ident()))
            if on_end is not None:
                on_end(sid, result, *args, **kwargs)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                sid, parent, token, start = open_span(args, kwargs)
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    close_span(sid, parent, token, start, result, args, kwargs)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, token, start = open_span(args, kwargs)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                close_span(sid, parent, token, start, result, args, kwargs)

        return wrapper

    def counting(self, name: str, fn: Callable) -> Callable:
        """``fn`` counting its calls under ``name`` (no span)."""
        count = self.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- garbage collection ---------------------------------------------------

    def _gc_callback(self, phase: str, info: dict) -> None:
        thread = threading.get_ident()
        if phase == "start":
            self._gc_started[thread] = time.perf_counter()
            return
        started = self._gc_started.pop(thread, None)
        if started is not None:
            self.add(GC_SPAN, started, time.perf_counter(), thread=thread)
        if info.get("generation") == 2:
            self.count(GC_GEN2)

    def watch_gc(self) -> Callable[[], None]:
        """Record every collection as a ``python.gc`` span (never a
        parent, so it adds to no other span's self time); returns the
        function that stops watching."""
        gc.callbacks.append(self._gc_callback)
        return lambda: gc.callbacks.remove(self._gc_callback)

    def window(self, start: float, end: float) -> tuple[list[Span], dict[str, float]]:
        """Spans that started inside ``[start, end]`` and the summed
        events inside it."""
        spans = [span for span in self.spans if start <= span.start <= end]
        counts: dict[str, float] = defaultdict(float)
        for at, name, amount in self.events:
            if start <= at <= end:
                counts[name] += amount
        return spans, dict(counts)

    def dump(self) -> dict:
        """Plain-JSON form of everything recorded (for another process)."""
        return {"spans": [list(span) for span in self.spans],
                "events": [list(event) for event in self.events]}

    def load(self, payload: dict) -> None:
        """Add spans and events dumped by another process."""
        self.spans.extend(Span(*span) for span in payload["spans"])
        self.events.extend(tuple(event) for event in payload["events"])


# -- self time ----------------------------------------------------------------


def _covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its
    interval covered by its children (on any thread)."""
    spans = list(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out: dict[int, float] = {}
    for span in spans:
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.sid, ())
            if child.end > span.start and child.start < span.end
        ]
        out[span.sid] = (span.end - span.start) - _covered(clipped)
    return out


# -- installing wrappers ---------------------------------------------------------


def _resolve(dotted: str):
    """``"pkg.mod:Class.attr"`` → (owner object, attribute name, value)."""
    module_name, _, attr_path = dotted.partition(":")
    owner = sys.modules[module_name]
    *owners, attr = attr_path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr, inspect.getattr_static(owner, attr)


def install(target: str, make: Callable[[Callable], Callable],
            prefix: str = "repro") -> Callable[[], None]:
    """Replace ``target`` (``"module:function"`` or ``"module:Class.method"``)
    by ``make(original)`` at every place it is bound.

    Module-level functions are replaced in every loaded module under
    ``prefix`` that binds the same object; methods (including
    classmethods) are replaced on their class.  Returns a function that
    restores every original binding.
    """
    owner, attr, original = _resolve(target)
    restores: list[tuple[object, str, object]] = []
    if inspect.isclass(owner):
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        restores.append((owner, attr, original))
        setattr(owner, attr, replacement)
    else:
        replacement = make(original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == prefix or name.startswith(prefix + ".")):
                continue
            for binding, value in list(vars(module).items()):
                if value is original:
                    restores.append((module, binding, original))
                    setattr(module, binding, replacement)

    def restore() -> None:
        for holder, binding, value in restores:
            setattr(holder, binding, value)

    return restore
