"""Ordered map, kept only for the benchmark's tracer.

No module of the library calls :func:`map_ordered` any more: fields are
evaluated once on whole grids.  ``perfbench/tracing.py`` still imports
and wraps it by name, so deleting it would fail
``tests/test_benchmark_smoke.py``.  The benchmark refresh (ROADMAP item 3)
removes that wrapper, and then this module.
"""

from __future__ import annotations


def map_ordered(fn, items) -> list:
    """``[fn(x) for x in items]``."""
    return [fn(x) for x in items]
