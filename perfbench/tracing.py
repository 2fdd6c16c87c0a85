"""Per-module tracing of apmi from outside the package.

The tracer replaces the module attributes that callers resolve at call time
(``apmi.asymptotic.explog_exp1``, ``apmi.ensemble.trial_seed``, the names
``apmi.cli`` imported, ``numpy.fft.fft``, ...) with wrappers that count calls
and time them, and restores the originals afterwards.  Nothing inside
``src/apmi`` changes.

Two kinds of wrapper:

* span: records (name, start, end, parent, op id) in memory, for coarse
  entry points (``run_ensemble``, ``predict_*``, ``gen_mls``, ...).
* leaf: counts and times only, for hot functions called up to millions of
  times per op (``explog_exp1``, ``trial_seed``, ``default_rng``, ``fft``).
  FFT and generator calls are charged to the layer of the innermost open
  span, so an FFT under ``gen_mls`` counts as ``patterns`` and one under
  ``mutual_information`` as ``spectral``.

Work done inside process-pool children is not traced: the children are
forked with the wrappers installed, but their counters die with them.  The
parent sees that work only as the pool's lifetime, ``ensemble.pool_s``.
"""

import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import numpy as np

import apmi.asymptotic
import apmi.cli
import apmi.ensemble
import apmi.model
import apmi.patterns
import apmi.spectral

# Modules whose attributes are scanned for traced functions.
_MODULES = (apmi.cli, apmi.ensemble, apmi.asymptotic, apmi.spectral,
            apmi.patterns, apmi.model)


def _file_bytes(*paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _pattern_points(tracer, args, result):
    tracer.count["patterns.generated_points"] += result.n


def _weights_points(tracer, args, result):
    tracer.count["model.spectral_weights_points"] += args[1]


def _ensemble_trials(tracer, args, result):
    tracer.count["ensemble.trials"] += args[0].trials


def _saved_bytes(tracer, args, result):
    tracer.count["patterns.bytes_saved"] += _file_bytes(*result)


def _loaded_bytes(tracer, args, result):
    txt = args[0]
    tracer.count["patterns.bytes_loaded"] += _file_bytes(
        txt, os.path.splitext(txt)[0] + ".json")


def _span_table():
    """Original function -> (span name, metric key, result hook)."""
    a, e, m, p, s = (apmi.asymptotic, apmi.ensemble, apmi.model,
                     apmi.patterns, apmi.spectral)
    table = {
        e.run_ensemble: ("ensemble.run_ensemble", "ensemble.run_ensemble", _ensemble_trials),
        e.sweep_p: ("ensemble.sweep_p", "ensemble.sweep_p", None),
        a._normal_expect_log: ("asymptotic.dc_quad", "asymptotic.dc_quad", None),
        a.optimal_p_iid: ("asymptotic.optimal_p_iid", "asymptotic.optimize", None),
        a.optimal_p_onef: ("asymptotic.optimal_p_onef", "asymptotic.optimize", None),
        m.spectral_weights: ("model.spectral_weights", "model.spectral_weights", _weights_points),
        p.gen_mls: ("patterns.gen_mls", "patterns.gen_mls", _pattern_points),
        p.gen_mura: ("patterns.gen_mura", "patterns.gen_mura", _pattern_points),
        p.gen_pinhole: ("patterns.gen_pinhole", "patterns.gen_other", _pattern_points),
        p.gen_bernoulli: ("patterns.gen_bernoulli", "patterns.gen_other", _pattern_points),
        p.gen_uniform: ("patterns.gen_uniform", "patterns.gen_other", _pattern_points),
        p.save_pattern: ("patterns.save", "patterns.save", _saved_bytes),
        p.load_pattern: ("patterns.load", "patterns.load", _loaded_bytes),
        s.mutual_information: ("spectral.mutual_information", "spectral.mutual_information", None),
        s.mi_excluding_dc: ("spectral.mi_excluding_dc", "spectral.mi_excluding_dc", None),
        s.jensen_bound: ("spectral.jensen_bound", "spectral.jensen_bound", None),
    }
    for name in a.__all__:
        if name.startswith("predict_"):
            table[getattr(a, name)] = (f"asymptotic.{name}", "asymptotic.predict", None)
    return table


class Tracer:
    """Spans, counters and accumulated times for one traced stretch of ops.

    ``count`` is keyed by the count metric's name (``asymptotic.explog_calls``)
    and ``time`` by the time metric's name without its ``_s`` suffix
    (``asymptotic.explog``).  ``op`` is the id stamped on new spans.
    """

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or None, op id]
        self.stack = []   # indices into spans of the open spans
        self.count = Counter()
        self.time = Counter()
        self.op = None
        self._depth = Counter()  # open spans per metric key

    def layer(self):
        return self.spans[self.stack[-1]][0].split(".", 1)[0] if self.stack else "none"

    @contextmanager
    def span(self, name, key):
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self.stack.append(index)
        self._depth[key] += 1
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()
            self._depth[key] -= 1
            self.count[key + "_calls"] += 1
            if self._depth[key] == 0:  # nested same-key spans count once
                self.time[key] += record[2] - record[1]

    def _wrap_span(self, fn, name, key, hook):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name, key):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, args, result)
            return result
        return traced

    def _wrap_leaf(self, fn, key):
        count, clock, perf = self.count, self.time, time.perf_counter

        def traced(*args, **kwargs):
            t0 = perf()
            result = fn(*args, **kwargs)
            clock[key] += perf() - t0
            count[key + "_calls"] += 1
            return result
        return traced

    def _wrap_fft(self, fn):
        tracer, perf = self, time.perf_counter

        def traced(a, *args, **kwargs):
            t0 = perf()
            result = fn(a, *args, **kwargs)
            layer = tracer.layer()
            tracer.time[f"{layer}.fft"] += perf() - t0
            tracer.count[f"{layer}.fft_calls"] += 1
            tracer.count[f"{layer}.fft_points"] += result.size
            tracer.count[f"{layer}.fft_bytes_computed"] += np.asarray(a).nbytes + result.nbytes
            return result
        return traced

    def _wrap_rng(self, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer.count[f"{tracer.layer()}.rng_constructions"] += 1
            return fn(*args, **kwargs)
        return traced

    def _wrap_golden(self, fn):
        count = self.count

        def traced(f, *args, **kwargs):
            def objective(x):
                count["asymptotic.golden_evals"] += 1
                return f(x)
            return fn(objective, *args, **kwargs)
        return traced

    def _pool_class(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer.count["ensemble.pools_created"] += 1
                self._born = time.perf_counter()

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    if self._born is not None:
                        tracer.time["ensemble.pool"] += time.perf_counter() - self._born
                        self._born = None
        return TracedPool

    @contextmanager
    def installed(self):
        """Patch every traced attribute; restore the originals on exit."""
        a, e = apmi.asymptotic, apmi.ensemble
        by_function = {fn: self._wrap_span(fn, *spec) for fn, spec in _span_table().items()}
        by_function[a.explog_exp1] = self._wrap_leaf(a.explog_exp1, "asymptotic.explog")
        by_function[e.trial_seed] = self._wrap_leaf(e.trial_seed, "ensemble.trial_seed")
        by_function[a._golden_max] = self._wrap_golden(a._golden_max)
        patches = [(module, attr, value, by_function[value])
                   for module in _MODULES for attr, value in vars(module).items()
                   if callable(value) and value in by_function]
        patches += [
            (np.fft, "fft", np.fft.fft, self._wrap_fft(np.fft.fft)),
            (np.random, "default_rng", np.random.default_rng,
             self._wrap_rng(np.random.default_rng)),
            (e, "ProcessPoolExecutor", e.ProcessPoolExecutor, self._pool_class()),
        ]
        try:
            for module, attr, _, wrapper in patches:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original, _ in patches:
                setattr(module, attr, original)

    def self_time(self, name):
        """Total duration of spans called ``name`` minus their child spans."""
        child = Counter()
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return sum(end - start - child[i]
                   for i, (n, start, end, _, _) in enumerate(self.spans) if n == name)

    def dump(self):
        """Spans as JSON-ready records."""
        return [{"name": n, "start": s, "end": e, "parent": p, "op": op}
                for n, s, e, p, op in self.spans]
