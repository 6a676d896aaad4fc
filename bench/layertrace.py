"""Layer tracing from outside the program.

`Tracer.install()` replaces module-level functions of the package by timing
wrappers, at the name the calling module looks up (`montecarlo.per_cc`,
`markov.analyze`, `cli.analyze`, ...).  Each wrapper records the call count,
the span (wall time inside the call) and the self time (span minus the spans
of wrapped calls made inside it), plus caller -> callee edges.  A function
that does not exist, or that the program stops calling, reads zero; it never
breaks the run.

Which bindings are wrapped:
- every public function, in every package module that binds it;
- inside `fbl` and `sic` only the bindings in other modules, because their
  public functions call each other once per SINR and wrapping those calls
  would add overhead without moving time between modules;
- the private functions named in PRIVATE, which mark work the benchmark
  counts (decode-table builds).
"""

import functools
import inspect
import time

import numpy as np

LAYERS = ("fbl", "sic", "markov", "optimizer", "montecarlo", "cellplan", "cli")
LEAF_LAYERS = ("fbl", "sic")
PRIVATE = ("montecarlo._decode_tables",)
PACKAGE = "noma_harq"


def _sinr_count(args, kwargs):
    gammas = args[0] if args else kwargs.get("gammas")
    return {"sinrs": int(np.size(gammas))}


# extra counters read from a call's arguments, keyed by function
ARG_COUNTERS = {"fbl.per_cc_batch": _sinr_count}


class Stat:
    __slots__ = ("calls", "span_s", "self_s", "extra", "callers")

    def __init__(self):
        self.calls = 0
        self.span_s = 0.0
        self.self_s = 0.0
        self.extra = {}
        self.callers = {}


class Tracer:
    """Wraps the package's module functions; `uninstall` restores them."""

    def __init__(self, modules):
        self.modules = modules          # layer name -> module object
        self.stats = {}                 # "layer.function" -> Stat
        self._stack = []                # [key, child_span_s] per active call
        self._saved = []                # (module, name, original)
        self.top_span_s = 0.0           # time inside outermost wrapped calls

    def install(self):
        for layer, module in self.modules.items():
            for name, obj in list(vars(module).items()):
                if not inspect.isfunction(obj):
                    continue
                home = obj.__module__ or ""
                if not home.startswith(PACKAGE + "."):
                    continue
                home_layer = home.split(".", 1)[1]
                key = f"{home_layer}.{obj.__name__}"
                if name.startswith("_") and key not in PRIVATE:
                    continue
                if home_layer == layer and layer in LEAF_LAYERS:
                    continue
                self._saved.append((module, name, obj))
                setattr(module, name, self._wrap(key, obj))
        return self

    def uninstall(self):
        for module, name, obj in reversed(self._saved):
            setattr(module, name, obj)
        self._saved.clear()

    def _wrap(self, key, fn):
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        counter = ARG_COUNTERS.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [key, 0.0]
            caller = stack[-1][0] if stack else "bench"
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.span_s += span
                stat.self_s += span - frame[1]
                edge = stat.callers.setdefault(caller, [0, 0.0])
                edge[0] += 1
                edge[1] += span
                if counter is not None:
                    for name, value in counter(args, kwargs).items():
                        stat.extra[name] = stat.extra.get(name, 0) + value
                if stack:
                    stack[-1][1] += span
                else:
                    self.top_span_s += span

        return wrapper

    def exclude(self, seconds):
        """Count `seconds` of benchmark work done inside the current span
        (a speed sample taken from a program callback) as nobody's."""
        if self._stack:
            self._stack[-1][1] += seconds
            self.top_span_s -= seconds

    # -- reading ----------------------------------------------------------

    def calls(self, key):
        stat = self.stats.get(key)
        return stat.calls if stat else 0

    def self_s(self, key):
        stat = self.stats.get(key)
        return stat.self_s if stat else 0.0

    def extra(self, key, name):
        stat = self.stats.get(key)
        return stat.extra.get(name, 0) if stat else 0

    def layer_self_s(self, layer):
        return sum(s.self_s for k, s in self.stats.items()
                   if k.split(".", 1)[0] == layer)

    def dump(self):
        """Per-function calls, spans, self times and caller edges."""
        return {
            key: {
                "calls": s.calls,
                "span_s": s.span_s,
                "self_s": s.self_s,
                **s.extra,
                "callers": {c: {"calls": e[0], "span_s": e[1]}
                            for c, e in sorted(s.callers.items())},
            }
            for key, s in sorted(self.stats.items())
            if s.calls
        }
