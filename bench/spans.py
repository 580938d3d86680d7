"""Span tracing of the `slopestab` layers from outside the package.

`Tracer.install` replaces each traced public name, in every loaded
`slopestab` module (or class) that binds it, with a wrapper recording a span
(name, start, end, parent, op id); `uninstall` puts the originals back, so
untraced passes run the unmodified program.  Spans stay in memory and are
written once, by `dump`.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# (module, attribute or Class.method, span name); names carry their layer
SPANS = (
    ("slopestab.cli", "main", "cli.main"),
    ("slopestab.models", "parse_model", "models.parse_model"),
    ("slopestab.models", "validate", "models.validate"),
    ("slopestab.models", "serialize_model", "models.serialize_model"),
    ("slopestab.toric", "export_table", "toric.export_table"),
    ("slopestab.toric", "ToricModel.validate", "toric.ToricModel.validate"),
    ("slopestab.toric", "nef_threshold", "toric.nef_threshold"),
    ("slopestab.toric", "polytope_of", "toric.polytope_of"),
    ("slopestab.toric", "LatticePolytope.volume", "toric.LatticePolytope.volume"),
    ("slopestab.toric", "LatticePolytope.boundary_lattice_volume",
     "toric.LatticePolytope.boundary_lattice_volume"),
    ("slopestab.polynomials", "rational_roots", "polynomials.rational_roots"),
    ("slopestab.polynomials", "isolate_roots", "polynomials.isolate_roots"),
    ("slopestab.polynomials", "fit_polynomial", "polynomials.fit_polynomial"),
    ("slopestab.slope", "alpha_polys", "slope.alpha_polys"),
    ("slopestab.slope", "stability_scan", "slope.stability_scan"),
    ("slopestab.slope", "perturbation_limit", "slope.perturbation_limit"),
    ("slopestab.slope", "mu_c", "slope.mu_c"),
    ("slopestab.slope", "slope_mu", "slope.slope_mu"),
    ("slopestab.slope", "df_numerator", "slope.df_numerator"),
    ("slopestab.oracle", "verify_main_theorem", "oracle.verify_main_theorem"),
    ("slopestab.oracle", "fit_expansions", "oracle.fit_expansions"),
)

# hot helpers that only count calls: a span each would dominate the trace
COUNTED = (
    ("slopestab.polynomials", "sign_variations", "polynomials.sign_variations"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counters = Counter()
        self.verified = []  # (model, m values) of every oracle verification
        self.op_id = None
        self._stack = []
        self._patched = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else -1, self.op_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            self._count(name, args, result)
            return result

        return traced

    def _counted(self, name, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def _count(self, name, args, result):
        if name == "polynomials.fit_polynomial":
            samples, degree = args[0], args[1]
            self.counters[name + ".witnesses"] += len(samples) - degree - 1
        elif name == "oracle.verify_main_theorem":
            self.counters["oracle.points_accepted"] += sum(s.h0 for s in result.samples)
            self.verified.append((args[0], tuple(s.m for s in result.samples)))

    # -- patching -----------------------------------------------------------

    def install(self):
        for table, make in ((SPANS, self._span), (COUNTED, self._counted)):
            for module, attr, name in table:
                owner = sys.modules[module]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owners = [getattr(owner, cls_name)]
                else:
                    owners = [
                        mod for key, mod in list(sys.modules.items())
                        if key.split(".")[0] == "slopestab"
                        and getattr(mod, attr, None) is getattr(owner, attr)
                    ]
                original = getattr(owners[0], attr)
                wrapper = make(name, original)
                for target in owners:
                    self._patched.append((target, attr, original))
                    setattr(target, attr, wrapper)

    def uninstall(self):
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    # -- summaries ----------------------------------------------------------

    def layer_totals(self):
        """Per span name: calls, self time, and total time over the
        outermost spans of that name (a nested call is not counted twice)."""
        spans = self.spans
        child_time = Counter()
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = Counter()
        for idx, (name, start, end, parent, _) in enumerate(spans):
            out[name + ".calls"] += 1
            out[name + ".self_s"] += end - start - child_time[idx]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                out[name + ".total_s"] += end - start
        return out

    def top_level_time(self):
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def dump(self, path):
        """Write every span and counter as one JSON document."""
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": self.spans,
            "counters": dict(self.counters),
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
