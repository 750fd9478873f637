"""Timing wrappers around dcpoly's public calls, installed from outside.

Nothing under ``src/`` knows about this module.  ``Tracer.install``
replaces functions and methods on the already imported ``dcpoly``
modules with timing wrappers and ``Tracer.uninstall`` puts the
originals back.  Two kinds of call are recorded:

* every public module-level function of ``layered``, ``closedform``,
  ``brute``, ``verify``, ``counts`` and ``cli`` gets a *span*: name,
  start, end, parent span, run id and self time;
* the arithmetic operators of ``series`` (run 10^4 to 10^6 times per
  command) and ``CountTable.project`` keep only a per-name call count
  and self time, under the names in ``OPERATORS``.

A call's self time is its duration minus the time spent in the traced
calls made inside it, spans and operators alike.  A function is patched
wherever a ``dcpoly`` module binds it, so ``closedform``'s
``from .layered import perimeter_counts`` sees the wrapper too.
"""

import functools
import inspect
import sys
import time

LAYER_MODULES = ("layered", "closedform", "brute", "verify", "counts", "cli")

# metric name -> (module, class, attributes); all attributes of one entry
# count under one name, so an alias such as ``__rmul__ = __mul__`` adds to
# the same total.
OPERATORS = {
    "series.zpoly_mul": ("series", "ZPolySeries", ("__mul__",)),
    "series.zpoly_tail": ("series", "ZPolySeries", ("tail_sum", "tail_weighted")),
    "series.bipoly_add": ("series", "BiPoly", ("__add__",)),
    # the product kernel behind both BiPoly.__mul__ and ZPolySeries.__mul__
    "series.bipoly_mul": ("series", "BiPoly", ("_mul_into",)),
    "series.xseries_mul": ("series", "XSeries", ("__mul__", "__rmul__")),
    "series.xseries_divide": ("series", "XSeries", ("divide",)),
    "series.xseries_sqrt": ("series", "XSeries", ("sqrt",)),
    "series.quadext_new": ("series", "QuadExt", ("__init__",)),
    "series.quadext_mul": ("series", "QuadExt", ("__mul__", "__rmul__")),
    "counts.project": ("counts", "CountTable", ("project",)),
}


class Totals:
    """Per-name call count, self time and total time for one run."""

    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


class Tracer:
    """Spans and per-name totals of the traced calls, kept in memory.

    ``spans`` accumulates over every run; ``totals`` and ``returns`` hold
    the current run only and are cleared by ``start_run``.  ``returns``
    collects what ``observe`` callbacks read from return values.
    """

    def __init__(self, package, observe=None):
        self.package = package
        self.observe = observe or {}
        self.spans = []
        self.totals = {}
        self.returns = {}
        self.run = 0
        self._frames = []  # one child-time cell per traced call in progress
        self._open_spans = []  # ids of the spans in progress, innermost last
        self._next_span = 0
        self._patched = []  # (owner, attribute, original raw value)

    def start_run(self):
        self.run += 1
        self.totals = {}
        self.returns = {}

    def _totals(self, name):
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = Totals()
        return entry

    def _span_wrapper(self, name, fn):
        frames = self._frames
        open_spans = self._open_spans
        clock = time.perf_counter
        observe = self.observe.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_span
            self._next_span += 1
            parent = open_spans[-1] if open_spans else None
            cell = [0.0]
            frames.append(cell)
            open_spans.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                open_spans.pop()
                duration = end - start
                if frames:
                    frames[-1][0] += duration
                self_s = duration - cell[0]
                entry = self._totals(name)
                entry.calls += 1
                entry.self_s += self_s
                entry.total_s += duration
                self.spans.append(
                    (span_id, name, start, end, parent, self.run, self_s)
                )
            if observe is not None:
                observe(self.returns, result)
            return result

        return wrapper

    def _operator_wrapper(self, name, fn):
        frames = self._frames
        clock = time.perf_counter
        totals = self._totals

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell = [0.0]
            frames.append(cell)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                frames.pop()
                if frames:
                    frames[-1][0] += duration
                entry = totals(name)
                entry.calls += 1
                entry.self_s += duration - cell[0]
                entry.total_s += duration

        return wrapper

    def _modules(self):
        prefix = self.package + "."
        return [
            module
            for name, module in sorted(sys.modules.items())
            if name.startswith(prefix) and module is not None
        ]

    def install(self):
        """Patch every traced call; the package must already be imported."""
        modules = self._modules()
        for short in LAYER_MODULES:
            module = sys.modules.get("%s.%s" % (self.package, short))
            for attr, fn in sorted(vars(module).items()) if module else ():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                wrapper = self._span_wrapper("%s.%s" % (short, attr), fn)
                # patch each place the function is looked up, not just its home
                for other in modules:
                    for bound, value in list(vars(other).items()):
                        if value is fn:
                            self._patched.append((other, bound, value))
                            setattr(other, bound, wrapper)
        for name, (short, cls_name, attrs) in OPERATORS.items():
            module = sys.modules.get("%s.%s" % (self.package, short))
            cls = getattr(module, cls_name, None)
            # a method the program no longer has simply reports zero calls
            for attr in attrs if cls is not None else ():
                raw = cls.__dict__.get(attr)
                if raw is None:
                    continue
                if isinstance(raw, staticmethod):
                    wrapper = staticmethod(self._operator_wrapper(name, raw.__func__))
                else:
                    wrapper = self._operator_wrapper(name, raw)
                self._patched.append((cls, attr, raw))
                setattr(cls, attr, wrapper)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def span_records(self):
        """Spans as dicts, in completion order, for writing out at the end."""
        keys = ("id", "name", "start", "end", "parent", "run", "self_s")
        return [dict(zip(keys, span)) for span in self.spans]
