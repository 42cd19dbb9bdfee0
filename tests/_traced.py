"""Traced-memory measurement for the memory-bound tests."""

import tracemalloc
from typing import Any, Callable, Tuple

__all__ = ["traced_peak"]


def traced_peak(fn: Callable[..., Any], *args: Any) -> Tuple[Any, int]:
    """``fn(*args)`` and the bytes by which ``tracemalloc``'s peak rose
    above what was allocated when it started."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
