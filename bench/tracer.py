"""Spans and counters recorded around the calls between steintail's modules.

``install`` replaces, in every loaded ``steintail`` module, each binding of a
target function with a wrapper that records a span (name, start, end,
parent) and counts.  Spans are opened only where one module calls another:
a call from inside a span of the same module runs unwrapped, so a layer's
internal helpers stay inside its own span.  Stage targets inside ``verify``
always open a span.  Spans and counts stay in memory; ``summary`` reduces
them after each pass.  ``uninstall`` restores the original bindings, so
untraced passes run the unmodified program.

Brent solves are counted by wrapping ``scipy.optimize.brentq`` and charging
each solve to the module of the innermost open span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import scipy.optimize

# (module, attribute, span name, always open a span)
TARGETS = (
    ("pearson", "build_law", "pearson.build_law", False),
    ("pearson", "tail", "pearson.tail", False),
    ("pearson", "tail_grid", "pearson.grid", False),
    ("pearson", "cdf", "pearson.cdf", False),
    ("pearson", "cdf_grid", "pearson.grid", False),
    ("pearson", "quantile", "pearson.quantile", False),
    ("pearson", "log_tail", "pearson.log_tail", False),
    ("pearson", "density", "pearson.density", False),
    ("pearson", "sample", "pearson.sample", False),
    ("stein", "solve_indicator", "stein.solve", False),
    ("stein", "certification_grid", "stein.cert_grid", False),
    ("stein", "certify_fprime", "stein.certify", False),
    ("bounds", "implicit_lower_bound", "bounds.implicit", False),
    ("bounds", "pearson_lower", "bounds.pearson_lower", False),
    ("bounds", "phi_envelope", "bounds.envelope", False),
    ("chaos", "law_of_polynomial", "chaos.law", False),
    ("chaos", "dominance_margin", "chaos.margin", False),
    ("chaos", "g_function", "chaos.kernel", False),
    ("chaos", "g_from_conditional", "chaos.kernel", False),
    ("chaos", "ibp_check", "chaos.ibp", False),
    ("chaos", "PolynomialChaosLaw.tail", "chaos.tail", False),
    ("chaos", "HermiteSeries.evaluate", "chaos.evaluate", False),
    ("quadrature", "adaptive", "quadrature.adaptive", False),
    ("quadrature", "panel_integrals", "quadrature.panel", False),
    ("quadrature", "tail_accumulate", "quadrature.panel", False),
    ("rng", "normal_block", "rng.block", False),
    ("rng", "uniform_block", "rng.block", False),
    ("verify", "run_scenario", "verify.scenario", False),
    ("verify", "_tail_counts", "verify.count", True),
    ("verify", "_certify_chaos", "verify.certify", True),
    ("verify", "_certify_pearson", "verify.certify", True),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, layer, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._undo: list[tuple] = []

    def reset(self) -> None:
        self.spans, self.stack, self.counts = [], [], Counter()

    def _in(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    # -- instrumentation ---------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, always: bool):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self.stack
            if not always and stack and spans[stack[-1]][1] == layer:
                return fn(*args, **kwargs)
            self._on_call(name, args, kwargs)
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return wrapper

    def _on_call(self, name: str, args, kwargs) -> None:
        counts = self.counts
        counts[name + ".calls"] += 1
        if name == "rng.block":
            counts["rng.draws"] += args[2] if len(args) > 2 else kwargs["size"]
        elif name == "pearson.grid" and self._in("stein.certify"):
            counts["stein.pearson_grid_calls_in_cert"] += 1

    def _counting_integrand(self, f):
        # the caller's span is still innermost: the quadrature span opens after this
        implicit = bool(self.stack) and self.spans[self.stack[-1]][0] == "bounds.implicit"
        counts = self.counts

        def integrand(x, *a):
            counts["quadrature.adaptive_evals"] += 1
            if implicit:
                counts["bounds.implicit_integrand_evals"] += 1
            return f(x, *a)

        return integrand

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        self.missing = []
        modules = [m for k, m in sys.modules.items() if k.startswith("steintail") and m is not None]
        for mod_name, attr, name, always in TARGETS:
            home = sys.modules.get(f"steintail.{mod_name}")
            owner_name, _, method = attr.partition(".")
            owner = getattr(home, owner_name, None) if home else None
            if owner is None or (method and not hasattr(owner, method)):
                self.missing.append(f"steintail.{mod_name}.{attr}")
                continue
            if method:  # a method: patch the class attribute
                self._replace(owner, method, self._wrap(getattr(owner, method), name, mod_name, always))
                continue
            wrapped = self._wrap(owner, name, mod_name, always)
            if name == "quadrature.adaptive":
                inner = wrapped
                wrapped = functools.wraps(owner)(
                    lambda f, *a, **k: inner(self._counting_integrand(f), *a, **k))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is owner:
                        self._replace(mod, key, wrapped)
        self._replace(scipy.optimize, "brentq", self._counting_brentq(scipy.optimize.brentq))

    def _counting_brentq(self, brentq):
        @functools.wraps(brentq)
        def counted(f, *args, **kwargs):
            layer = self.spans[self.stack[-1]][1] if self.stack else "bench"
            n = 0

            def g(x, *a):
                nonlocal n
                n += 1
                return f(x, *a)

            try:
                return brentq(g, *args, **kwargs)
            finally:
                self.counts[layer + ".brent_solves"] += 1
                self.counts[layer + ".brent_evals"] += n

        return counted

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- reduction -----------------------------------------------------------

    def summary(self) -> dict:
        """Inclusive and self time per span name, self time per layer, and all counts."""
        child = [0.0] * len(self.spans)
        for _, _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        incl, own, by_layer = Counter(), Counter(), Counter()
        for (name, layer, t0, t1, _), c in zip(self.spans, child):
            incl[name] += t1 - t0
            own[name] += t1 - t0 - c
            by_layer[layer] += t1 - t0 - c
        return {"incl": incl, "self": own, "layer_self": by_layer, "counts": Counter(self.counts)}
