"""Spans around the package's public functions, installed from outside.

The package resolves calls between its modules through module globals
(``exactmoments.entry``, ``coeffs_exact`` imported by name into
``oracles``, ...), so replacing every binding of a function object in
the package's loaded modules catches nested calls without editing the
package.  Each span records its name, start, end, parent span and the
operation id current when it started; spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

#: (module, function) pairs that get a span per call.  Hot inner helpers
#: such as ``entry_offdiag`` are left out: a span per matrix entry would
#: cost more than the work it measures.
TARGETS = (
    ("legendre", "coeffs_exact"),
    ("exactmoments", "gram_exact"),
    ("exactmoments", "gram_float"),
    ("exactmoments", "entry"),
    ("oracles", "gauss_legendre_rule"),
    ("oracles", "shifted_legendre_table"),
    ("oracles", "exact_entry_oracle"),
    ("oracles", "verify_range"),
    ("analysis", "bilinear_log_form"),
    ("analysis", "log_expansion_coeffs"),
    ("analysis", "expansion_l2_error"),
    ("analysis", "diag_scaling_table"),
    ("cli", "main"),
)

#: Work counts, besides calls, that the spans' hooks accumulate.
COUNTS = (
    "exactmoments.entries_built",
    "analysis.bilinear_log_form.products",
    "oracles.pairs_checked",
    "oracles.pairs_failed",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _nonzeros(vector) -> int:
    return sum(1 for v in vector if v) if isinstance(vector, (list, tuple)) else 0


class Tracer:
    """Records spans and work counts for calls into the package."""

    def __init__(self, package: str = "loglegram"):
        self.package = package
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counts = Counter(dict.fromkeys(COUNTS, 0))
        self.coeff_orders = set()
        self.op = None
        self._stack = []
        self._patches = []

    # Work counts taken from arguments before the span starts or from the
    # result after it ends, so they cost no span time.
    def _before(self, name, args, kwargs):
        if name == "legendre.coeffs_exact":
            self.coeff_orders.add(_arg(args, kwargs, 0, "n"))
        elif name == "exactmoments.gram_exact":
            self.counts["exactmoments.entries_built"] += (_arg(args, kwargs, 0, "size") + 1) ** 2
        elif name == "analysis.bilinear_log_form":
            a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
            self.counts["analysis.bilinear_log_form.products"] += _nonzeros(a) * _nonzeros(b)

    def _after(self, name, result):
        if name == "oracles.verify_range":
            self.counts["oracles.pairs_checked"] += result.num_pairs
            self.counts["oracles.pairs_failed"] += len(result.failures)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._before(name, args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end, parent, self.op]
            self._after(name, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == self.package or key.startswith(self.package + "."))
        ]
        for module_name, attr in TARGETS:
            original = getattr(sys.modules[f"{self.package}.{module_name}"], attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def layer_metrics(self) -> dict:
        """Calls, busy time and self time per traced function, plus counts."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, busy, self_time = Counter(), Counter(), Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            self_time[name] += end - start - child[index]
        out = {}
        for module_name, attr in TARGETS:
            name = f"{module_name}.{attr}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = self_time[name]
        out.update(self.counts)
        calls_coeffs = calls["legendre.coeffs_exact"]
        out["legendre.coeffs_exact.distinct_orders"] = len(self.coeff_orders)
        out["legendre.coeffs_exact.useful_ratio"] = (
            len(self.coeff_orders) / calls_coeffs if calls_coeffs else 0.0
        )
        return out
