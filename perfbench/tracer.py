"""Outside-in tracer for the tsvar benchmark.

The tracer wraps public tsvar functions from outside the package and records
one span per call: name, start, end, parent span and a node/row counter.  It
patches *every* binding of a function, not only the one in its defining
module: ``variational`` imports ``delta_derivative_all``, ``sigma_shift_all``
and ``classify_limit`` by name, ``cli`` imports ``verify_candidate`` and the
package re-exports nearly everything, so patching the defining module alone
would let those internal calls escape the trace.  Methods are patched once on
their class.  Leaving the ``with`` block restores every binding, so untraced
passes run the unmodified code.

Spans stay in memory; the caller takes them after each pass and writes them
out at the end of the run.  A span's self time is its duration minus the
durations of its direct children (calls are nested and single-threaded, so
the children never overlap).
"""

import functools
import importlib
import sys
from dataclasses import dataclass
from statistics import median
from time import perf_counter
from typing import Callable, Optional

# span fields
NAME, START, END, PARENT, COUNT, KEY = range(6)


@dataclass(frozen=True)
class Target:
    """A traced function: metric prefix, defining module, attribute path,
    the name of its counter and how to read it from (args, kwargs, result)."""

    name: str
    module: str
    attr: str
    counter: Optional[str] = None
    count: Optional[Callable] = None
    key: Optional[Callable] = None


def _rows(args, kwargs, result):
    return len(args[1])


def _expression_rows(args, kwargs, result):
    return max((getattr(v, "size", 1) for v in kwargs.values()), default=0)


TARGETS = (
    Target("timescale.build_grid", "tsvar.timescale", "TimeScaleSpec.build_grid",
           "nodes", lambda a, k, r: len(r)),
    Target("calculus.GridFunction.from_callable", "tsvar.calculus",
           "GridFunction.from_callable", "nodes", lambda a, k, r: len(a[1]),
           key=lambda a, k: (a[2] if len(a) > 2 else k["fn"], a[1])),
    Target("calculus.delta_derivative_all", "tsvar.calculus", "delta_derivative_all",
           "nodes", lambda a, k, r: len(a[0].grid)),
    Target("calculus.sigma_shift_all", "tsvar.calculus", "sigma_shift_all",
           "nodes", lambda a, k, r: len(a[0].grid)),
    Target("calculus.delta_integral", "tsvar.calculus", "delta_integral",
           "nodes", lambda a, k, r: len(a[0].grid)),
    Target("calculus.improper_integral", "tsvar.calculus", "improper_integral"),
    Target("calculus.classify_limit", "tsvar.calculus", "classify_limit",
           "samples", lambda a, k, r: len(a[0])),
    Target("variational.liminf_over_tails", "tsvar.variational", "liminf_over_tails",
           "samples", lambda a, k, r: len(a[0])),
    Target("variational.make_horizon_plan", "tsvar.variational", "make_horizon_plan",
           "nodes", lambda a, k, r: len(r.grid)),
    Target("variational.el_residual", "tsvar.variational", "el_residual",
           "nodes", lambda a, k, r: len(r.grid)),
    Target("variational.transversality_liminf", "tsvar.variational",
           "transversality_liminf"),
    Target("variational.weak_max_compare", "tsvar.variational", "weak_max_compare"),
    Target("variational.gateaux_report", "tsvar.variational", "gateaux_report"),
    Target("variational.verify_candidate", "tsvar.variational", "verify_candidate"),
    Target("variational.Lagrangian.values", "tsvar.variational", "Lagrangian.values",
           "rows", _rows),
    Target("variational.Lagrangian.partial2", "tsvar.variational",
           "Lagrangian.partial2", "rows", _rows),
    Target("variational.Lagrangian.partial3", "tsvar.variational",
           "Lagrangian.partial3", "rows", _rows),
    Target("variational.solve_truncated", "tsvar.variational", "solve_truncated",
           "nodes", lambda a, k, r: len(r.trajectory.grid)),
    Target("expressions.Expression.__call__", "tsvar.expressions",
           "Expression.__call__", "rows", _expression_rows),
    Target("problemfile.load_problem_file", "tsvar.problemfile", "load_problem_file"),
    Target("cli.main", "tsvar.cli", "main"),
)


class Tracer:
    """Context manager that installs the wrappers on entry and removes them
    on exit.  ``take()`` hands over the spans recorded so far."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self._stack = []
        self._saved = []  # (owner, attribute, original value)

    def __enter__(self):
        for target in self.targets:
            self._install(target)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        self._stack.clear()

    def take(self):
        spans = list(self.spans)
        self.spans.clear()
        return spans

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _install(self, target):
        module = importlib.import_module(target.module)
        owner_name, _, attr = target.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self._wrap(target, raw.__func__)))
            else:
                self._set(owner, attr, self._wrap(target, raw))
            return
        original = getattr(module, attr)
        wrapped = self._wrap(target, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tsvar" or mod_name.startswith("tsvar.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapped)

    def _wrap(self, target, fn):
        spans, stack = self.spans, self._stack
        name, count, key = target.name, target.count, target.key

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, kwargs, result)
            if key is not None:
                span[KEY] = key(args, kwargs)
            return result

        return traced


def summarize(spans, targets=TARGETS):
    """Per-pass layer metrics from one pass's spans.

    For each target: ``calls``, ``s`` (summed durations), ``self_s``
    (durations minus direct children) and its counter, if it has one.  Also
    the derived ratios: the share of ``Lagrangian.values`` calls made inside
    finite-difference partials, and ``from_callable`` calls per
    ``verify_candidate`` together with the share of them that sampled a
    (generator, grid) pair not sampled before in the same verify.
    """
    child = [0.0] * len(spans)
    for sp in spans:
        if sp[PARENT] >= 0:
            child[sp[PARENT]] += sp[END] - sp[START]
    out = {}
    for t in targets:
        out[f"{t.name}.calls"] = 0
        out[f"{t.name}.s"] = 0.0
        out[f"{t.name}.self_s"] = 0.0
        if t.counter:
            out[f"{t.name}.{t.counter}"] = 0
    counters = {t.name: t.counter for t in targets}
    for i, sp in enumerate(spans):
        name = sp[NAME]
        dur = sp[END] - sp[START]
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += dur
        out[f"{name}.self_s"] += dur - child[i]
        if counters.get(name):
            out[f"{name}.{counters[name]}"] += sp[COUNT]

    values = "variational.Lagrangian.values"
    partials = ("variational.Lagrangian.partial2", "variational.Lagrangian.partial3")
    n_values = n_fd = 0
    for sp in spans:
        if sp[NAME] == values:
            n_values += 1
            if sp[PARENT] >= 0 and spans[sp[PARENT]][NAME] in partials:
                n_fd += 1
    out[f"{values}.fd_share"] = n_fd / n_values if n_values else 0.0

    verify = "variational.verify_candidate"
    sampled = {}  # verify span index -> list of (generator, grid) keys
    for sp in spans:
        if sp[NAME] != "calculus.GridFunction.from_callable":
            continue
        p = sp[PARENT]
        while p >= 0 and spans[p][NAME] != verify:
            p = spans[p][PARENT]
        if p >= 0:
            sampled.setdefault(p, []).append(sp[KEY])
    n_verify = out[f"{verify}.calls"]
    n_in_verify = sum(len(keys) for keys in sampled.values())
    useful = sum(len({(id(f), id(g)) for f, g in keys}) for keys in sampled.values())
    fc = "calculus.GridFunction.from_callable"
    out[f"{fc}.per_verify"] = n_in_verify / n_verify if n_verify else 0.0
    out[f"{fc}.useful_frac"] = useful / n_in_verify if n_in_verify else 0.0
    return out


def median_summary(summaries):
    """Median of each metric over several passes' summaries."""
    return {k: median(s[k] for s in summaries) for k in summaries[0]}


def span_records(spans):
    """JSON-ready span dicts, timestamps relative to the first span."""
    t0 = spans[0][START] if spans else 0.0
    return [
        {"id": i, "name": sp[NAME], "start": sp[START] - t0, "end": sp[END] - t0,
         "parent": sp[PARENT], "count": sp[COUNT]}
        for i, sp in enumerate(spans)
    ]
