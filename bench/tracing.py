"""Span and counter recording around genbounds' layer entry points.

``Instrumentation`` replaces each entry point with a recording wrapper in
every genbounds module (or class) that holds it, and ``remove()`` puts the
originals back. The program's source is not touched.

A span is (id, name, start, end, parent id, job id). Entry points called
tens of thousands of times per job (``FiniteDistribution.__init__`` and
``DensityTable.tail_probability``) are aggregated: they add to their
name's call count and time and to their parent's child time, but store no
span record, so the trace stays small and cheap.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

_PAGE = os.sysconf("SC_PAGE_SIZE")

# Entry points of bounds modules that compute constants, not bounds.
_NOT_BOUNDS = {"range_constant", "delta_constant"}


def current_rss() -> int:
    """Resident set size of this process, in bytes."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


class Tracer:
    """In-memory span store with per-name totals for the current pass."""

    def __init__(self):
        self._next_id = 0
        self.stack: list[list] = []
        self.job = None
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.job_self: defaultdict = defaultdict(lambda: defaultdict(float))
        self.counters: defaultdict = defaultdict(float)
        self._open: Counter = Counter()
        self.largest_system = (0, 0)  # (atoms, RSS growth in bytes)
        self.job_wall: dict = {}
        self.job_rss = 0

    def start_job(self, job_id) -> None:
        self.job = job_id
        self.job_rss = current_rss()

    def wrap(self, name: str, fn, record: bool = True, after=None):
        tracer = self
        layer = name.split(".")[0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            stack.append(frame)
            nested = tracer._open[name]
            tracer._open[name] = nested + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._open[name] = nested
                duration = end - start
                own = duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                tracer.calls[name] += 1
                if not nested:
                    tracer.inclusive[name] += duration
                tracer.self_time[name] += own
                tracer.job_self[tracer.job][layer] += own
                if record:
                    tracer.spans.append((frame[0], name, start, end,
                                         parent[0] if parent else None,
                                         tracer.job))
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def layer_self(self) -> dict:
        totals: defaultdict = defaultdict(float)
        for name, value in self.self_time.items():
            totals[name.split(".")[0]] += value
        return dict(totals)


def _count_rows(tracer: Tracer, args, kernel) -> None:
    tracer.counters["models.kernel_rows"] += len(kernel.rows)


def _count_atoms(tracer: Tracer, args, _result) -> None:
    system = args[0]
    atoms = system.cond.size
    tracer.counters["models.atoms"] += atoms
    growth = current_rss() - tracer.job_rss
    if (atoms, growth) > tracer.largest_system:
        tracer.largest_system = (atoms, growth)


def _public_functions(module, exclude=()) -> list:
    return [fn for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_") and name not in exclude]


class Instrumentation:
    """Wrappers installed around every layer's public entry points."""

    def __init__(self, tracer: Tracer):
        from genbounds import (bounds_standard, bounds_subset, cli, measures,
                               models, prob, verify)

        self._patches: list[tuple] = []
        self._modules = [m for n, m in sorted(sys.modules.items())
                         if n == "genbounds" or n.startswith("genbounds.")]
        everywhere = [
            ("cli.main", [cli.main], {}),
            ("models.load", [models.load_problem], {}),
            ("models.kernel", [models.gibbs_kernel, models.erm_kernel,
                               models.constant_kernel, models.identity_kernel],
             {"after": _count_rows}),
            ("prob.iid_power", [prob.iid_power], {}),
            ("measures.density", [measures.information_density,
                                  measures.conditional_density], {}),
            ("bounds_standard.bound", _public_functions(bounds_standard), {}),
            ("bounds_subset.bound",
             _public_functions(bounds_subset, _NOT_BOUNDS), {}),
            ("verify.coverage", [verify.coverage], {}),
            ("verify.exp_ineq", [verify.check_exp_inequality_standard,
                                 verify.check_exp_inequality_subset], {}),
            ("verify.pushforward", [verify.exact_gen_distribution,
                                    verify.exact_gen_hat_distribution,
                                    verify.quantile, verify.abs_quantile], {}),
            ("verify.suite", [verify.run_verification_suite], {}),
        ]
        for name, functions, options in everywhere:
            for fn in functions:
                wrapper = tracer.wrap(name, fn, **options)
                for module in self._modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._patch(module, key, wrapper)
        # The shared tail scan is charged to the module whose bound called it.
        tail = bounds_standard._tail_bound_from_table
        for module in (bounds_standard, bounds_subset):
            layer = module.__name__.rsplit(".", 1)[1]
            self._patch(module, "_tail_bound_from_table",
                        tracer.wrap(f"{layer}.tail", tail))
        for owner, attr, name, options in (
                (prob.FiniteDistribution, "__init__", "prob.dist",
                 {"record": False}),
                (measures.DensityTable, "tail_probability", "measures.tail_eval",
                 {"record": False}),
                (models.StandardSystem, "__post_init__", "models.assemble",
                 {"after": _count_atoms}),
                (models.SubsetSystem, "__post_init__", "models.assemble",
                 {"after": _count_atoms})):
            self._patch(owner, attr, tracer.wrap(name, vars(owner)[attr], **options))

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
