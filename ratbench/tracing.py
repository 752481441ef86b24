"""Spans around calls into greedyrat's public functions, patched at runtime.

Every traced callable is looked up through its module or class at call
time by greedyrat itself, so replacing the attribute for the duration of
one repetition captures every call without touching the package. A span
is (name, start, end, parent, repetition, info, error); spans stay in
memory and are reduced to per-layer numbers when the run ends.
"""
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    rep: int
    info: object = None
    error: str = ""

    @property
    def duration(self):
        return self.end - self.start


def _fit_cells(args):
    """rows x cols of the matrix whose SVD the fit takes, from shapes."""
    samples, method = args[0], args[1]
    s = len(samples)
    pm = samples[0].value.size
    if method == "mri":
        return pm * s
    return (s // 2) * pm * (s - s // 2)


def _sweep_cells(args):
    """grid points x support points."""
    return len(args[0]) * len(args[1])


def _pencil_z(args):
    return complex(args[1])


def trace_points():
    """(owner, attribute, span name, info function) for each traced call."""
    import greedyrat
    from greedyrat import cli, greedy, kernels, verify

    B = greedyrat.BarycentricSurrogate
    return [
        (greedy, "run_greedy", "greedy.run_greedy", None),
        (cli, "run_greedy", "greedy.run_greedy", None),
        (greedy, "fit", "fitters.fit", _fit_cells),
        (greedy, "next_point", "greedy.next_point", None),
        (greedy, "batch_test_points", "greedy.batch_test_points", None),
        (kernels, "abs_denominator", "kernels.abs_denominator", _sweep_cells),
        (kernels, "eval_sweep", "kernels.eval_sweep", _sweep_cells),
        (B, "eval", "barycentric.eval", None),
        (B, "save", "barycentric.save", None),
        (B, "load", "barycentric.load", None),
        (greedyrat.DescriptorSystem, "solve_pencil", "system_model.solve_pencil", _pencil_z),
        (cli, "write_run_artifacts", "cli.write_run_artifacts", None),
        (cli, "load_matrix_market", "system_model.load_matrix_market", None),
        (verify, "state_surrogate", "verify.state_surrogate", None),
        (verify, "check_prop1", "verify.check_prop1", None),
        (verify, "check_prop2", "verify.check_prop2", None),
    ]


class Tracer:
    def __init__(self, points):
        self.points = points
        self.spans = []
        self._stack = []
        self._rep = -1

    def _open(self, name, info):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), float("nan"), parent, self._rep, info)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def region(self, name):
        """A span opened by the benchmark itself, e.g. around one CLI command."""
        span = self._open(name, None)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name, info_fn):
        def traced(*args, **kwargs):
            span = self._open(name, info_fn(args) if info_fn else None)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)

        return traced

    @contextmanager
    def repetition(self, rep):
        """Patch every trace point for one repetition, then restore it."""
        saved = []
        for owner, attr, name, info_fn in self.points:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, name, info_fn))
            else:
                patched = self._wrap(raw, name, info_fn)
            saved.append((owner, attr, raw))
            setattr(owner, attr, patched)
        self._rep = rep
        try:
            with self.region("benchmark.repetition"):
                yield
        finally:
            self._rep = -1
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)


def span_table(spans):
    """{repetition: {span name: [(span, self seconds), ...]}}."""
    child_time = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    table = defaultdict(lambda: defaultdict(list))
    for i, s in enumerate(spans):
        table[s.rep][s.name].append((s, s.duration - child_time[i]))
    return table
