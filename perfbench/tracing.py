"""Span tracing for the traced benchmark run, installed from outside the package.

``Tracer.install`` replaces public module attributes of ``adagb2`` with
timing wrappers: the solver's imported names (``draw``, ``step``,
``project_box``, ``make_provider``, ``run``), the kernel module's
``first_order``, ``OracleStream.rng_shared``, the harness's
``aggregate_results``, writers and ``run_experiment``, and the
``Objective`` callables of every problem the harness builds.  Each wrapper
records one span: its duration, its self time (duration minus the time of
the spans it encloses) and, for the first spans of the run, its identifier
and its parent's.  ``uninstall`` puts every attribute back.

The benchmark's workloads run serially (``workers=1``), so every span is
recorded in the benchmark process.
"""

import contextlib
import dataclasses
import itertools
import statistics
from array import array
from collections import defaultdict
from time import perf_counter

SAMPLE_LIMIT = 2000  # raw spans kept, with their parents


def _arrays():
    return defaultdict(lambda: array("d"))


class Tracer:
    def __init__(self):
        self.durations = _arrays()
        self.self_times = _arrays()
        self.sample = []
        self._stack = []
        self._ids = itertools.count()
        self._patched = []

    # -- recording -------------------------------------------------------

    def _push(self):
        parent = self._stack[-1][2] if self._stack else None
        self._stack.append([perf_counter(), 0.0, next(self._ids), parent])

    def _pop(self, name):
        end = perf_counter()
        start, children, span_id, parent = self._stack.pop()
        span = end - start
        self.durations[name].append(span)
        self.self_times[name].append(span - children)
        if self._stack:
            self._stack[-1][1] += span
        if len(self.sample) < SAMPLE_LIMIT:
            self.sample.append((span_id, parent, name, start, end))

    def wrap(self, name, fn):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        def traced(*args, **kwargs):
            self._push()
            try:
                return fn(*args, **kwargs)
            finally:
                self._pop(name)

        return traced

    @contextlib.contextmanager
    def span(self, name):
        self._push()
        try:
            yield
        finally:
            self._pop(name)

    # -- reading ---------------------------------------------------------

    def calls(self, name):
        return len(self.durations.get(name, ()))

    def median(self, name, self_time=False):
        """Median span of ``name`` in seconds; 0.0 when it never ran."""
        arr = (self.self_times if self_time else self.durations).get(name)
        return statistics.median(arr) if arr else 0.0

    def summary(self):
        return {
            name: {
                "calls": len(arr),
                "median_s": statistics.median(arr),
                "self_median_s": statistics.median(self.self_times[name]),
                "total_s": sum(arr),
                "self_total_s": sum(self.self_times[name]),
            }
            for name, arr in sorted(self.durations.items()) if arr
        }

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        from adagb2 import _kernels, harness, oracle, solver

        wrap = self.wrap
        self._patch(oracle.OracleStream, "rng_shared",
                    wrap("oracle.rng_shared", oracle.OracleStream.rng_shared))
        self._patch(solver, "draw", wrap("oracle.draw", solver.draw))
        self._patch(_kernels, "first_order",
                    wrap("kernels.first_order", _kernels.first_order))
        self._patch(solver, "project_box",
                    wrap("geometry.project_box", solver.project_box))
        self._patch(solver, "step", wrap("solver.step", solver.step))
        traced_run = wrap("solver.run", solver.run)
        self._patch(solver, "run", traced_run)
        self._patch(harness, "run", traced_run)
        self._patch(solver, "make_provider",
                    self._traced_make_provider(solver.make_provider))
        self._patch(harness, "make_test_problem",
                    self._traced_make_test_problem(harness.make_test_problem))
        self._patch(harness, "aggregate_results",
                    wrap("harness.aggregate", harness.aggregate_results))
        self._patch(harness, "run_experiment",
                    wrap("harness.run_experiment", harness.run_experiment))
        for fn in ("write_aggregate_csv", "write_traces_csv",
                   "write_summary_json"):
            self._patch(harness, fn, wrap(f"harness.{fn}", getattr(harness, fn)))
        return self

    def uninstall(self):
        while self._patched:
            owner, attr, old = self._patched.pop()
            setattr(owner, attr, old)

    def _traced_make_provider(self, make_provider):
        from adagb2.curvature import CurvatureProvider

        def traced(spec, obj):
            provider = make_provider(spec, obj)
            provider.quad_form = self.wrap(f"curvature.quad_form.{spec.kind}",
                                           provider.quad_form)
            # Only providers with memory do work in observe; the no-op of
            # the others would dilute the median.
            if type(provider).observe is not CurvatureProvider.observe:
                provider.observe = self.wrap("curvature.observe",
                                             provider.observe)
            return provider

        return traced

    def _traced_make_test_problem(self, make_test_problem):
        def traced(name, dim, seed):
            problem = make_test_problem(name, dim, seed)
            obj = problem.objective
            wrapped = {
                field: self.wrap(f"problem.{field}", getattr(obj, field))
                for field in ("f", "grad", "hess_vec", "term_grad")
                if getattr(obj, field) is not None
            }
            return dataclasses.replace(
                problem, objective=dataclasses.replace(obj, **wrapped))

        return traced

