"""Spans around calls into satkit layers, recorded from outside the library.

A span covers one call of a wrapped callable. Spans nest through a stack, so
each span knows how much of its time its child spans took; a layer's self
time is its span time minus that. Spans are aggregated as they close (count,
total and self seconds per name), which keeps memory flat on decode runs
that make hundreds of thousands of calls.

Two ways in, both reversible with :meth:`Tracer.restore`:

* :meth:`Tracer.patch` replaces a module attribute, e.g.
  ``satkit.kernels.forward_backward``; library code that looks the name up
  at call time then goes through the wrapper.
* :class:`Proxy` stands in for an object such as ``model.encoder`` and traces
  the named methods, passing every other attribute through.

A target that does not exist is recorded in :attr:`Tracer.absent` instead of
failing, so the benchmark keeps running when a layer's entry point is
removed or renamed.
"""

import time
from collections import Counter, defaultdict

_MISSING = object()


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()              # span name -> calls
        self.total = defaultdict(float)     # span name -> seconds, children included
        self.self_time = defaultdict(float)  # span name -> seconds, children excluded
        self.counts = Counter()             # work counters, e.g. lattice cells
        self.peaks = {}                     # gauge name -> largest value seen
        self.absent = set()
        self._stack = []                    # child seconds of each open span
        self._undo = []

    def wrap(self, name, fn, on_result=None):
        """``fn`` traced as span ``name``; ``on_result(result, args, kwargs)``
        runs after the span closes, to update counters."""
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside span ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def patch(self, owner, attr, name, on_result=None) -> None:
        """Trace ``owner.attr`` (a module or object attribute) in place."""
        original = getattr(owner, attr, _MISSING)
        if original is _MISSING:
            self.absent.add(name)
            return
        setattr(owner, attr, self.wrap(name, original, on_result))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def count(self, name, n=1) -> None:
        self.counts[name] += n

    def peak(self, name, value) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def ms(self, name) -> float:
        """Self milliseconds of span ``name`` over the whole run."""
        return 1e3 * self.self_time.get(name, 0.0)

    def mean_s(self, name) -> float:
        """Mean seconds per call of span ``name``, children included; 0 if never called."""
        n = self.calls.get(name, 0)
        return self.total[name] / n if n else 0.0

    def summary(self) -> dict:
        return {
            "spans": {n: {"calls": self.calls[n], "total_s": self.total[n],
                          "self_s": self.self_time[n]} for n in sorted(self.calls)},
            "counts": dict(self.counts),
            "peaks": dict(self.peaks),
            "absent": sorted(self.absent),
        }


class Proxy:
    """Stands in for ``target``; ``methods`` maps method name -> span name
    (or (span name, on_result)). Calling the proxy calls the traced
    ``__call__`` if it is listed, else the target itself."""

    def __init__(self, tracer: Tracer, target, methods: dict):
        object.__setattr__(self, "_target", target)
        for method, spec in methods.items():
            name, on_result = spec if isinstance(spec, tuple) else (spec, None)
            fn = getattr(target, method, None)
            if fn is None:
                tracer.absent.add(name)
                continue
            object.__setattr__(self, method, tracer.wrap(name, fn, on_result))

    def __call__(self, *args, **kwargs):
        fn = self.__dict__.get("__call__", self._target)
        return fn(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._target, attr)

    def __setattr__(self, attr, value):
        setattr(self._target, attr, value)
