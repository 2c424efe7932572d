"""In-process tracing of the package's layers, installed from outside.

The tracer wraps each layer's public functions by replacing module and class
attributes, including the names other modules imported (``bracket`` and
``hierarchy`` call their own imported ``is_zero``).  Nothing in ``src/``
changes.  Every wrapped call records its inclusive time and a call count; all
calls except the polynomial kernels, which run millions of times, also keep a
span (id, parent id, name, start, end) in memory.  A layer's self time is its
spans' time minus the time of wrapped calls made inside them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "expr", "poly", "geometry", "bracket", "hierarchy", "numsim")

# (layer, module, attribute; "Class.method" patches the class); span names are
# "<layer>.<function>"
TARGETS = [
    ("cli", "cli", "main"),
    ("cli", "cli", "load_problem"),
    ("expr", "expr", "is_zero"),
    ("expr", "expr", "random_rational_point"),
    ("poly", "poly", "Poly.__mul__"),
    ("poly", "poly", "Poly.__rmul__"),
    ("poly", "poly", "Poly.exact_div"),
    ("geometry", "geometry", "canonical_metric"),
    ("geometry", "geometry", "christoffel"),
    ("bracket", "bracket", "check_poisson"),
    ("bracket", "bracket", "check_compat_constant"),
    ("bracket", "bracket", "check_pencil"),
    ("bracket", "bracket", "check_canonical_equations"),
    ("bracket", "bracket", "equivalence_audit"),
    ("bracket", "bracket", "build_canonical"),
    ("bracket", "bracket", "liouville_function"),
    ("bracket", "bracket", "special_liouville"),
    ("hierarchy", "hierarchy", "hierarchy"),
    ("hierarchy", "hierarchy", "apply_recursion"),
    ("hierarchy", "hierarchy", "commute_check"),
    ("hierarchy", "hierarchy", "involution_check"),
    ("numsim", "numsim", "compile_flow"),
    ("numsim", "numsim", "run"),
    ("numsim", "numsim", "step_rk4"),
    ("numsim", "numsim", "CompiledFlow.rhs"),
    ("numsim", "numsim", "CompiledFlow.gershgorin_max"),
    ("numsim", "numsim", "spectral_dx"),
    ("numsim", "numsim", "drift_summary"),
    ("numsim", "numsim", "write_diagnostics_csv"),
    ("numsim", "numsim", "write_snapshot_csv"),
]

# too frequent to keep one span per call; their time and counts are still taken
_NO_SPAN = {"poly.mul", "poly.exact_div"}


def _span_name(layer, attr):
    name = attr.rsplit(".", 1)[-1].strip("_")
    return f"{layer}.{'mul' if name == 'rmul' else name}"


def _after_mul(tr, result):
    terms = getattr(result, "terms", None)
    if terms is not None:
        tr.extra["poly.mul_terms_out"] += len(terms)
        tr.extra["poly.max_terms"] = max(tr.extra["poly.max_terms"], len(terms))


def _after_exact_div(tr, result):
    tr.extra["poly.exact_div_hits"] += result is not None


def _after_is_zero(tr, result):
    tr.extra["expr.is_zero_nonzero"] += result.name == "NONZERO"


_AFTER = {"poly.mul": _after_mul, "poly.exact_div": _after_exact_div, "expr.is_zero": _after_is_zero}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id or None, name, start, end)
        self.calls = Counter()
        self.time = defaultdict(float)  # inclusive, by span name
        self.self_time = defaultdict(float)  # exclusive of wrapped children, by span name
        self.extra = defaultdict(int)
        self._stack = []  # [span id, time of wrapped children]
        self._next_id = 0
        self._undo = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn):
        stack, clock = self._stack, time.perf_counter
        keep = name not in _NO_SPAN
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                self.calls[name] += 1
                self.time[name] += d
                self.self_time[name] += d - frame[1]
                if parent is not None:
                    parent[1] += d
                if keep:
                    self.spans.append((sid, parent[0] if parent else None, name, t0, t1))
            if after is not None:
                after(self, result)
            return result

        return traced

    def span(self, name, fn, *args):
        """Run fn(*args) as one span (used for the per-job root span)."""
        return self.wrap(name, fn)(*args)

    # -- installation ------------------------------------------------------

    def install(self, package="hydrobrackets"):
        """Patch every target in every loaded module of the package."""
        modules = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]
        for layer, modname, attr in TARGETS:
            mod = sys.modules[f"{package}.{modname}"]
            name = _span_name(layer, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self.wrap(name, original))
                continue
            original = getattr(mod, attr)
            wrapped = self.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapped)

    def _patch(self, owner, key, original, wrapped):
        setattr(owner, key, wrapped)
        self._undo.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- reading -----------------------------------------------------------

    def _children(self):
        kids = defaultdict(list)
        for span in self.spans:
            kids[span[1]].append(span)
        return kids

    def _outermost(self, names):
        """Spans named in ``names`` that have no such ancestor."""
        kids = self._children()
        out, todo = [], list(kids[None])
        while todo:
            span = todo.pop()
            if span[2] in names:
                out.append(span)
            else:
                todo.extend(kids[span[0]])
        return out, kids

    def _time_within(self, roots, kids, names):
        """Summed time of the outermost ``names`` spans below each root."""
        total, todo = 0.0, [c for r in roots for c in kids[r[0]]]
        while todo:
            span = todo.pop()
            if span[2] in names:
                total += span[4] - span[3]
            else:
                todo.extend(kids[span[0]])
        return total

    def metrics(self) -> dict:
        T, C, X = self.time, self.calls, self.extra

        def dur(spans):
            return sum(s[4] - s[3] for s in spans)

        checks = {"bracket.check_poisson", "bracket.check_pencil", "bracket.check_compat_constant",
                  "bracket.check_canonical_equations"}
        check_spans, kids = self._outermost(checks)
        liouville_spans, _ = self._outermost({"bracket.liouville_function", "bracket.special_liouville"})
        run_spans, _ = self._outermost({"numsim.run"})
        m = {
            "cli.load_problem_s": T["cli.load_problem"],
            "cli.self_s": self.self_time["cli.main"],
            "expr.is_zero_calls": C["expr.is_zero"],
            "expr.is_zero_s": T["expr.is_zero"],
            "expr.is_zero_nonzero": X["expr.is_zero_nonzero"],
            "expr.probe_points": C["expr.random_rational_point"],
            "poly.mul_calls": C["poly.mul"],
            "poly.mul_terms_out": X["poly.mul_terms_out"],
            "poly.max_terms": X["poly.max_terms"],
            "poly.exact_div_calls": C["poly.exact_div"],
            "poly.exact_div_s": T["poly.exact_div"],
            "poly.exact_div_hit_ratio": X["poly.exact_div_hits"] / C["poly.exact_div"] if C["poly.exact_div"] else 0.0,
            "geometry.canonical_metric_s": T["geometry.canonical_metric"],
            "geometry.christoffel_s": T["geometry.christoffel"],
            "geometry.christoffel_calls": C["geometry.christoffel"],
            "bracket.check_poisson_s": T["bracket.check_poisson"],
            "bracket.check_pencil_s": T["bracket.check_pencil"],
            "bracket.check_compat_constant_s": T["bracket.check_compat_constant"],
            "bracket.check_canonical_equations_s": T["bracket.check_canonical_equations"],
            "bracket.build_canonical_s": T["bracket.build_canonical"],
            "bracket.build_canonical_calls": C["bracket.build_canonical"],
            "bracket.liouville_s": dur(liouville_spans),
            "bracket.residual_gen_s": dur(check_spans) - self._time_within(check_spans, kids, {"expr.is_zero"}),
            "hierarchy.generate_s": T["hierarchy.hierarchy"],
            "hierarchy.apply_recursion_calls": C["hierarchy.apply_recursion"],
            "hierarchy.commute_check_s": T["hierarchy.commute_check"],
            "hierarchy.commute_check_calls": C["hierarchy.commute_check"],
            "hierarchy.involution_check_s": T["hierarchy.involution_check"],
            "hierarchy.involution_check_calls": C["hierarchy.involution_check"],
            "numsim.compile_flow_s": T["numsim.compile_flow"],
            "numsim.run_s": T["numsim.run"],
            "numsim.run_self_s": dur(run_spans)
            - self._time_within(run_spans, kids, {"numsim.step_rk4", "numsim.gershgorin_max"}),
            "numsim.step_rk4_calls": C["numsim.step_rk4"],
            "numsim.step_rk4_s": T["numsim.step_rk4"],
            "numsim.rhs_calls": C["numsim.rhs"],
            "numsim.rhs_s": T["numsim.rhs"],
            "numsim.gershgorin_s": T["numsim.gershgorin_max"],
            "numsim.spectral_dx_calls": C["numsim.spectral_dx"],
            "numsim.drift_summary_s": T["numsim.drift_summary"],
            "numsim.write_csv_s": T["numsim.write_diagnostics_csv"] + T["numsim.write_snapshot_csv"],
        }
        for layer in LAYERS[1:]:
            m[f"{layer}.self_s"] = sum(v for k, v in self.self_time.items() if k.startswith(layer + "."))
        return m

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,name,start,end\n")
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(f"{sid},{'' if parent is None else parent},{name},{t0!r},{t1!r}\n")
