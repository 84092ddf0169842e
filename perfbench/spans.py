"""In-memory spans for one benchmark run, recorded from outside the package.

A span has a name, start and end (perf_counter seconds), the id of the
span that caused it, the run id and the thread. Spans are kept in a list
and written out once, when the run ends. Spans opened in a worker thread
with no open span of their own take the adopted parent, so fold work in
a thread pool hangs under the cross-validation span that started it.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._adopted: int | None = None

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, adopt: bool = False):
        stack = self._stack()
        parent = stack[-1] if stack else self._adopted
        with self._lock:
            sid = len(self.spans)
            record = {"id": sid, "name": name, "parent": parent, "run": self.run_id,
                      "thread": threading.get_ident(), "start": time.perf_counter()}
            self.spans.append(record)
        stack.append(sid)
        previous = self._adopted
        if adopt:
            self._adopted = sid
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            if adopt:
                self._adopted = previous

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def wrap(self, module, attr: str, name_of, after=None) -> None:
        """Replace module.attr with a spanned version of itself.

        name_of(args, kwargs) names the span; after(args, kwargs, result),
        if given, runs once the call has returned, outside the span. A
        missing attribute raises, so a renamed call site fails the run
        instead of going silently untraced.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name_of(args, kwargs)):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(module, attr, traced)

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)


def _union_length(intervals) -> float:
    covered, last_end = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > last_end:
            covered += end - max(start, last_end)
            last_end = end
    return covered


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: total duration minus the part covered by children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict[str, float] = {}
    for s in spans:
        clipped = [(max(a, s["start"]), min(b, s["end"]))
                   for a, b in children.get(s["id"], ()) if b > s["start"] and a < s["end"]]
        own = (s["end"] - s["start"]) - _union_length(clipped)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out
