"""Ordered map over the rows of an outer grid.

Evaluation is serial: a pool of two workers lost to the serial loop on
every identity verification measured on a two-core host (Green: 74 ms
serial, 103 ms pooled).  ``tensor_integral`` and ``el_residual`` map
their rows here, so a profiler can count them.
"""

from __future__ import annotations


def map_ordered(fn, items) -> list:
    """``[fn(x) for x in items]``."""
    return [fn(x) for x in items]
