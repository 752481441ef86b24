"""The benchmark's trace points must name attributes greedyrat still has.

ratbench/tracing.py patches each (owner, attribute) pair at run time; a
refactor that renames or moves one of them should fail here, not only in
the benchmark.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "ratbench"))

import tracing  # noqa: E402


def test_every_trace_point_resolves():
    for owner, attr, name, _ in tracing.trace_points():
        assert attr in vars(owner), f"{name}: {owner.__name__}.{attr} no longer exists"
