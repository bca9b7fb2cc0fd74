"""Spans around the program's public functions, installed from outside.

Each wrapped function records a span: its layer name, start, end and parent
span, plus the counts its arguments or result carry.  A function imported by
name is replaced in every `concentro` module that holds it, so calls made
through `bounds.norm_J`, `cli.gaussian_moment_bound` or the package root are
all seen.  Spans stay in memory and are written out when the run ends.

A layer's self time is its span minus the union of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
import warnings
from collections import defaultdict


def _arg(fn, name):
    sig = inspect.signature(fn)

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]
    return get


def _targets(mods):
    """(owner, attribute, span name, counter) for every traced function.

    A counter maps (args, kwargs, result) to {count name: amount}; a span name
    of None means the result decides it (norm_J, by its method)."""
    cli, bounds, partitions, poly, norms, tensor, mc, graphs, rmt = mods
    cfg = {f: _arg(getattr(mc, f), "cfg") for f in
           ("empirical_moment", "empirical_tail", "chaos_moment", "sobolev_check",
            "hermite_tetrahedral_convergence")}
    n_list = _arg(mc.hermite_tetrahedral_convergence, "N_list")
    size = _arg(poly.ProductDistribution.sample, "size")
    npoints = _arg(norms.norm_J_bruteforce, "npoints")
    terms = lambda a, k, r: {"terms": len(r.terms)}
    samples = lambda f: lambda a, k, r: {"samples": cfg[f](a, k).N}
    return [
        (cli, "main", "cli", None),
        (bounds, "gaussian_moment_bound", "bounds", terms),
        (bounds, "eta_tail", "bounds", terms),
        (bounds, "sobolev_moment_bound", "bounds", terms),
        (bounds, "weibull_moment_bound", "bounds", terms),
        (partitions, "enumerate_partitions", "partitions.enumerate", None),
        (partitions, "enumerate_splits", "partitions.enumerate", None),
        (poly, "expected_derivative_tensor", "poly.derivative_tensor", None),
        (poly, "load_polynomial", "poly.load", None),
        (poly.ProductDistribution, "sample", "poly.sample",
         lambda a, k, r: {"draws": size(a, k) or 1}),
        (poly.Polynomial, "evaluate_batch", "poly.evaluate_batch",
         lambda a, k, r: {"rows": len(r)}),
        (norms, "norm_J", None,
         lambda a, k, r: {"sweeps": r.sweeps_used, "restarts": r.restarts_used}),
        (norms, "mixed_norm", "norms.mixed", None),
        (norms, "norm_J_bruteforce", "norms.bruteforce",
         lambda a, k, r: {"points": npoints(a, k)}),
        (tensor, "load_tensor", "tensor.load", None),
        (tensor, "symmetrize", "tensor.build", None),
        (tensor, "apply_mask", "tensor.build", None),
        (mc, "empirical_moment", "montecarlo.moment", samples("empirical_moment")),
        (mc, "empirical_tail", "montecarlo.tail", samples("empirical_tail")),
        (mc, "chaos_moment", "montecarlo.chaos", samples("chaos_moment")),
        (mc, "sandwich_check", "montecarlo.sandwich", None),   # its moments count there
        (mc, "hermite_tetrahedral_convergence", "montecarlo.hermite",
         lambda a, k, r: {"samples": cfg["hermite_tetrahedral_convergence"](a, k).N
                          * len(n_list(a, k))}),
        (mc, "sobolev_check", "montecarlo.sobolev", samples("sobolev_check")),
        (graphs, "er_tail_experiment", "graphs.self", None),
        (graphs, "sample_adjacency", "graphs.sample_adjacency", None),
        (graphs, "count_cycles_trace", "graphs.count_cycles", None),
        (graphs, "counting_polynomial", "graphs.counting_polynomial", None),
        (rmt, "wigner_experiment", "rmt.self", None),
        (rmt, "eigenvalues_symmetric", "rmt.eigen", None),
        (rmt.WignerSpec, "sample", "rmt.sample", None),
    ]


class Tracer:
    def __init__(self):
        import concentro.bounds
        import concentro.cli
        import concentro.graphs
        import concentro.montecarlo
        import concentro.norms
        import concentro.partitions
        import concentro.poly
        import concentro.rmt
        import concentro.tensor

        c = concentro
        self._targets = _targets((c.cli, c.bounds, c.partitions, c.poly, c.norms, c.tensor,
                                  c.montecarlo, c.graphs, c.rmt))
        self.spans: list[list] = []      # [name, start, end, parent, counts]
        self._local = threading.local()
        self._patched: list[tuple] = []
        self.runtime_warnings = 0

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, fn, name, counter):
        tracer = self
        catch = name == "rmt.self"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = [name or "norms.unclassified", time.perf_counter(), None,
                    stack[-1] if stack else None, {}]
            tracer.spans.append(span)
            stack.append(len(tracer.spans) - 1)
            try:
                if catch:
                    with warnings.catch_warnings(record=True) as seen:
                        warnings.simplefilter("always", RuntimeWarning)
                        result = fn(*args, **kwargs)
                    tracer.runtime_warnings += sum(
                        issubclass(w.category, RuntimeWarning) for w in seen)
                else:
                    result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if name is None:   # reached only when the call returned
                span[0] = "norms.als" if result.method == "als" else "norms.exact"
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        mods = [m for n, m in sys.modules.items()
                if (n == "concentro" or n.startswith("concentro.")) and m is not None]
        for owner, attr, name, counter in self._targets:
            orig = inspect.getattr_static(owner, attr)
            wrapped = self._wrap(orig, name, counter)
            holders = [owner] if isinstance(owner, type) else \
                [m for m in mods if getattr(m, attr, None) is orig]
            for holder in holders:
                setattr(holder, attr, wrapped)
                self._patched.append((holder, attr, orig))

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._patched):
            setattr(holder, attr, orig)
        self._patched.clear()

    def summary(self) -> dict:
        """Self seconds, calls and counts per span name."""
        children = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s[3] is not None:
                children[s[3]].append(i)
        out: dict = defaultdict(float)
        for i, (name, start, end, _, counts) in enumerate(self.spans):
            covered = 0.0
            cursor = start
            for lo, hi in sorted((self.spans[c][1], self.spans[c][2]) for c in children[i]):
                lo = max(lo, cursor)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[name + ".self_s"] += (end - start) - covered
            out[name + ".calls"] += 1
            for key, amount in counts.items():
                out[f"{name}.{key}"] += amount
        return dict(out)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "counts"],
                       "spans": self.spans}, fh)
