"""In-memory span recorder and instance-method wrappers for the traced run.

The benchmark measures every layer *from outside*: a span (name, start,
end, parent) is recorded around each call into a layer's public
function, either directly by the driving loop (``with rec.span(...)``)
or through a wrapper installed on one *instance* (``rec.wrap(obj,
"execute_round", name)``) and removed again by ``rec.restore()``.  No
file under ``src/`` is touched.

A layer's self time is its spans' duration minus the part their child
spans cover, so self times over all names add up to the root span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

__all__ = ["SpanRecorder"]


class SpanRecorder:
    """Parallel lists of spans; ``parents[i]`` is an index or -1 for a root."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = []
        self._wrapped: List[Tuple[Any, str, bool, Any]] = []

    # -- recording ----------------------------------------------------------

    def begin(self, name: str) -> int:
        # Bookkeeping happens before the start stamp and after the end
        # stamp, so the recorder's own cost lands in the parent's self
        # time (reported as tracing overhead), never in the layer's.
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self._clock())
        return index

    def end(self, index: int) -> None:
        now = self._clock()
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")
        self.ends[index] = now
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    # -- instance wrappers --------------------------------------------------

    def wrap(self, obj: Any, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` with a span-recording wrapper on the instance."""
        original = getattr(obj, attr)
        begin, end = self.begin, self.end

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                end(index)

        self._wrapped.append((obj, attr, attr in vars(obj), original))
        setattr(obj, attr, traced)

    def restore(self) -> int:
        """Remove every wrapper, newest first.

        Returns how many attributes do *not* resolve to their original
        callable afterwards — 0 unless something else rebound them.
        """
        leaked = 0
        while self._wrapped:
            obj, attr, had_own, original = self._wrapped.pop()
            if had_own:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)
            if getattr(obj, attr) != original:
                leaked += 1
        return leaked

    # -- reduction ----------------------------------------------------------

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per name: ``calls``, ``total_s`` and ``self_s`` (total minus children)."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) still open")
        child_s = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_s[parent] += self.ends[index] - self.starts[index]
        out: Dict[str, Dict[str, float]] = {}
        for index, name in enumerate(self.names):
            duration = self.ends[index] - self.starts[index]
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_s[index]
        return out
