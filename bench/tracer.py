"""In-memory span tracer for the benchmark's traced run.

Wrappers are installed on the module attributes where laminarvc's callers look
functions up (for example ``laminarvc.harness.type_space``), so the program
itself is not edited.  Spans stay in memory until the run ends and are then
written out in one file.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    """Records spans (id, name, start, end, parent id, thread id) and plain
    counters.  A thread with no open span of its own (a pool worker) takes the
    innermost open span of the thread that created the tracer as parent: that
    thread is blocked waiting on the pool, so its open span caused the work."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counters: list[Counter] = []
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counter(self) -> Counter:
        counter = getattr(self._local, "counter", None)
        if counter is None:
            counter = self._local.counter = Counter()
            self._counters.append(counter)
        return counter

    def add(self, name: str, n: int = 1) -> None:
        self._counter()[name] += n

    def counts(self) -> Counter:
        total = Counter()
        for counter in self._counters:
            total.update(counter)
        return total

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._main_stack[-1]
            except IndexError:
                parent = None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident()))

    def span(self, name: str, fn, on_result=None):
        """A wrapper of fn that records one span per call; on_result(args,
        kwargs, result) may add counters."""

        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def counting(self, name: str, fn):
        """A wrapper of fn that only counts calls, for functions called too
        often for a span each."""

        def wrapper(*args, **kwargs):
            self._counter()[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,thread\n")
            for sid, name, start, end, parent, thread in self.spans:
                fh.write(f"{sid},{name},{start:.9f},{end:.9f},{'' if parent is None else parent},{thread}\n")


@contextmanager
def patched(replacements):
    """Replace attributes for the duration of the block.

    replacements: iterable of (owner, attribute, original, wrapper).  A module
    function is replaced in every loaded laminarvc module that holds the same
    object, since each caller looks it up in its own module's namespace; a
    class attribute is replaced on the class only.
    """
    undo = []
    try:
        for owner, attr, original, wrapper in replacements:
            if isinstance(owner, type):
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for modname, module in list(sys.modules.items()):
                if modname == "laminarvc" or modname.startswith("laminarvc."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, key, original))
                            setattr(module, key, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans):
    """Per span name: (total duration, call count, total self time), where
    self time is a span's duration minus the union of its children's
    intervals."""
    children = defaultdict(list)
    for sid, name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    busy = defaultdict(float)
    calls = Counter()
    self_time = defaultdict(float)
    for sid, name, start, end, _, _ in spans:
        busy[name] += end - start
        calls[name] += 1
        self_time[name] += (end - start) - covered(children.get(sid, ()))
    return busy, calls, self_time
