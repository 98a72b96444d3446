"""Layer tracing for one CLI invocation, installed from outside the package.

Every public function of every loaded `cavityent.*` module is replaced,
at each name under which a module looks it up, by a wrapper that records
a span (name, start, end, parent).  A function bound into another module
by `from ... import` (for example `figures.validate`) is wrapped there as
well, under the name of the module that defines it.  Two kinds of target
are listed explicitly because no generic rule finds them: a third-party
function looked up through a package module (`heisenberg.expm`) and the
methods of `fock.SpectralEvolver`.  A listed target that no longer exists
is skipped; run.py reports it as absent.

Span names are `<module>.<qualname>`.  Per name the tracer keeps calls,
total time, self time (duration minus the time covered by child spans)
and raised exceptions.  Individual spans are kept for the first
SPAN_LIMIT calls of each name only: the hot leaves of the noise ensemble
run 60 000 times, and their aggregates are enough.

A few hooks derive counts from arguments and results (eigendecomposition
sizes, chosen cutoff, segment steps).  Hook time is charged
to no span.  A hook that fails disables its counter and never the run.
"""

import hashlib
import inspect
import json
import sys
import time

import numpy as np

SPAN_LIMIT = 1000

FOREIGN = {"heisenberg": ("expm",)}
METHODS = {"fock.SpectralEvolver": ("__init__", "at", "at_times")}


class Tracer:
    def __init__(self):
        self.stats = {}        # span name -> [calls, total_s, self_s, raised]
        self.spans = []        # (id, name, start, end, parent id)
        self.installed = set()
        self.counters = {}
        self.unavailable = set()  # counters whose hook failed
        self.hook_errors = []
        self._stack = []       # per open span: [span id, time covered by children]
        self._next_id = 0
        self._origin = time.perf_counter()
        self._fingerprints = set()
        # span name -> (hook before the call, hook after it, counters they feed)
        self._hooks = {
            "fock.SpectralEvolver": (self._count_eigh, None, (
                "fock.eigh_performed", "fock.eigh_distinct", "fock.eigh_dim3_sum",
                "fock.max_dim")),
            "fock.check_convergence": (None, self._count_cutoff, ("fock.cutoff_chosen",)),
            "fluctuations.propagate_piecewise": (
                self._count_segments, None, ("fluctuations.segment_steps",)),
        }
        for _, _, counters in self._hooks.values():
            self.counters.update(dict.fromkeys(counters, 0))

    # -- installation --------------------------------------------------

    def install(self):
        wrapped = {}
        modules = [(n, m) for n, m in sys.modules.items()
                   if n.startswith("cavityent.") and m is not None]
        for modname, module in modules:
            layer = modname.rpartition(".")[2]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = obj.__module__ or ""
                if owner.startswith("cavityent."):
                    name = f"{owner.rpartition('.')[2]}.{obj.__qualname__}"
                elif attr in FOREIGN.get(layer, ()):
                    name = f"{layer}.{attr}"
                else:
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self._wrap(name, obj)
                setattr(module, attr, wrapped[id(obj)])
        for class_path, methods in METHODS.items():
            layer, _, cls_name = class_path.partition(".")
            cls = getattr(sys.modules.get(f"cavityent.{layer}"), cls_name, None)
            if not inspect.isclass(cls):
                continue
            for method in methods:
                fn = cls.__dict__.get(method)
                if inspect.isfunction(fn):
                    name = class_path if method == "__init__" else f"{class_path}.{method}"
                    setattr(cls, method, self._wrap(name, fn))

    def _wrap(self, name, fn):
        self.installed.add(name)
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        before, after, counters = self._hooks.get(name, (None, None, ()))
        signature = inspect.signature(fn) if counters else None
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                self._run_hook(before, counters, signature, args, kwargs, None)
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                if stats[0] <= SPAN_LIMIT:
                    spans.append((span_id, name, start - self._origin, end - self._origin,
                                  parent[0] if parent is not None else None))
            if after is not None:
                self._run_hook(after, counters, signature, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- derived counters ----------------------------------------------

    def _run_hook(self, hook, counters, signature, args, kwargs, result):
        start = time.perf_counter()
        try:
            hook(signature.bind(*args, **kwargs).arguments, result)
        except Exception as exc:  # a broken hook must not break the traced run
            self.hook_errors.append(f"{hook.__name__}: {exc!r}")
            self.unavailable.update(counters)
        if self._stack:
            # keep hook time out of the enclosing span's self time
            self._stack[-1][1] += time.perf_counter() - start

    def _count_eigh(self, arguments, _result):
        h = arguments["h"]
        dim = int(h.shape[0])
        c = self.counters
        c["fock.eigh_performed"] += 1
        c["fock.eigh_dim3_sum"] += dim ** 3
        c["fock.max_dim"] = max(c["fock.max_dim"], dim)
        digest = hashlib.sha1(np.ascontiguousarray(h)).hexdigest()
        self._fingerprints.add((h.shape, h.dtype.str, digest))
        c["fock.eigh_distinct"] = len(self._fingerprints)

    def _count_cutoff(self, _arguments, result):
        basis = result[0] if isinstance(result, tuple) else result
        self.counters["fock.cutoff_chosen"] = int(basis.cutoff_a)

    def _count_segments(self, arguments, _result):
        self.counters["fluctuations.segment_steps"] += len(arguments["schedule"].values)

    # -- output ----------------------------------------------------------

    def summary(self):
        fed = {c for span, (_, _, counters) in self._hooks.items()
               if span in self.installed for c in counters}
        return {
            "stats": {name: {"calls": s[0], "total_s": s[1], "self_s": s[2], "raised": s[3]}
                      for name, s in self.stats.items()},
            "counters": self.counters,
            "unavailable": sorted(self.unavailable | (set(self.counters) - fed)),
            "installed": sorted(self.installed),
            "hook_errors": self.hook_errors,
            "spans_recorded": len(self.spans),
            "spans_total": self._next_id,
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start_s", "end_s", "parent"],
                       "span_limit_per_name": SPAN_LIMIT, "spans": self.spans}, fh)
