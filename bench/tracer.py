"""Outside tracer: wraps frameflow's public functions from the benchmark's
own files and records one span per call.

A span is (id, name, start, end, parent id, job id, self seconds), where
self time is the span's duration minus the durations of its child spans.
Spans stay in memory until the run ends.  Each wrapped function is replaced
in every frameflow namespace that binds it (flows imports act, morse imports
index_h, the package re-exports most names), and uninstall() restores every
original binding.  Generator functions get one span per next() call.
"""

import functools
import importlib
import inspect
import json
from collections import Counter
from time import perf_counter

MODULES = ("linalg", "frames", "flows", "strata", "skeleton", "morse", "cli")

# (home module, function) pairs; the span name is "<module>.<function>".
FUNCTIONS = (
    ("linalg", "qr_positive"),
    ("linalg", "tri_left"),
    ("linalg", "hs_norm"),
    ("frames", "act"),
    ("flows", "flow_path"),
    ("flows", "gradient_path"),
    ("flows", "lyapunov_audit"),
    ("flows", "vector_field"),
    ("flows", "quad"),
    ("flows", "quad_gradient"),
    ("strata", "enumerate_irreducible"),
    ("strata", "dimension"),
    ("strata", "sample_stratum"),
    ("skeleton", "build_graph"),
    ("skeleton", "index_h"),
    ("morse", "fixed_points"),
    ("morse", "critical_report"),
    ("morse", "morse_poly"),
    ("morse", "perfectness_certificate"),
    ("cli", "main"),
)

# (module, class, method, span name)
METHODS = (
    ("frames", "Frame", "__init__", "frames.Frame"),
    ("flows", "SpectralData", "exp", "flows.SpectralData.exp"),
    ("skeleton", "SkeletonGraph", "to_json", "skeleton.export"),
    ("skeleton", "SkeletonGraph", "to_dot", "skeleton.export"),
    ("morse", "Certificate", "to_json", "morse.export"),
    ("morse", "Certificate", "csv_lines", "morse.export"),
)

SPAN_NAMES = tuple(
    dict.fromkeys([f"{m}.{f}" for m, f in FUNCTIONS] + [m[3] for m in METHODS])
)

# counters read from return values: span name -> ((counter, function), ...)
RESULT_COUNTS = {
    "strata.enumerate_irreducible": (("strata.trees", len),),
    "morse.fixed_points": (("morse.rest_points", len),),
    "skeleton.build_graph": (
        ("skeleton.vertices", lambda g: len(g.vertices)),
        ("skeleton.edges", lambda g: len(g.edges)),
    ),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = None
        self._stack = []  # open spans: [id, name, start, child seconds]
        self._next_id = 0
        self._patches = []  # (owner, attribute, original)

    # ------------------------------------------------------------ spans

    def _enter(self, name):
        self._stack.append([self._next_id, name, perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self):
        end = perf_counter()
        sid, name, start, child = self._stack.pop()
        duration = end - start
        parent = None
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.spans.append((sid, name, start, end, parent, self.job, duration - child))

    def _wrap_call(self, fn, name):
        counters = RESULT_COUNTS.get(name, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            for counter, measure in counters:
                self.counts[counter] += measure(result)
            return result

        return traced

    def _wrap_generator(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._timed_steps(fn(*args, **kwargs), name)

        return traced

    def _timed_steps(self, gen, name):
        while True:
            self._enter(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._exit()
            self.counts[name + ".steps"] += 1
            yield item

    # ------------------------------------------------------ install/undo

    def install(self):
        """Wrap every listed function in every frameflow namespace."""
        package = importlib.import_module("frameflow")
        modules = {m: importlib.import_module(f"frameflow.{m}") for m in MODULES}
        namespaces = [package, *modules.values()]
        for home, fname in FUNCTIONS:
            original = getattr(modules[home], fname)
            name = f"{home}.{fname}"
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(original, name)
            else:
                wrapper = self._wrap_call(original, name)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, attr, wrapper)
        for home, cls, method, name in METHODS:
            owner = getattr(modules[home], cls)
            self._patch(owner, method, self._wrap_call(vars(owner)[method], name))

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        """Restore every original binding; returns the bindings that are
        still not the original afterwards (empty when clean)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return leftover_wrappers()

    # ---------------------------------------------------------- reports

    def bad_spans(self):
        """Spans whose self time exceeds their inclusive time or is negative."""
        return [s for s in self.spans if not 0.0 <= s[6] <= s[3] - s[2]]

    def layer_stats(self):
        """name -> (calls, inclusive seconds, self seconds)."""
        calls = Counter()
        incl = Counter()
        own = Counter()
        for _, name, start, end, _, _, self_s in self.spans:
            calls[name] += 1
            incl[name] += end - start
            own[name] += self_s
        return {n: (calls[n], incl[n], own[n]) for n in calls}

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def leftover_wrappers():
    """Bindings in frameflow namespaces that still point at a tracer wrapper."""
    package = importlib.import_module("frameflow")
    owners = [package] + [importlib.import_module(f"frameflow.{m}") for m in MODULES]
    for home, cls, _, _ in METHODS:
        owners.append(getattr(importlib.import_module(f"frameflow.{home}"), cls))
    found = []
    for owner in owners:
        for attr, value in vars(owner).items():
            code = getattr(value, "__code__", None)
            if code is not None and code.co_filename == __file__:
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found
