"""Outside-in tracer for the ddlab layers.

The program is not changed: `Tracer.install` rebinds a fixed set of layer
boundary functions to timing wrappers, on their classes and under every
module-level name that refers to them in any loaded `ddlab` module (for example
`eval_poly_at_laurent` is bound in `laurent`, `elements`, `derivations`,
`isomorphisms` and the package itself).  `uninstall` puts every binding back.

Each call of a wrapped function records one span (name, start, end, parent) in
flat in-memory arrays.  `fold` turns the recorded spans into per-name totals:
calls, inclusive time (outermost calls of a name only, so recursion is not
counted twice), self time (duration minus the child spans), inclusive time per
(parent, child) pair, and the counters that the wrappers take from arguments
and results.  Spans are folded after every operation, so memory stays bounded.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

MODULES = (
    "poly", "laurent", "groebner", "presentations", "elements",
    "derivations", "isomorphisms", "cancellation", "cli",
)


def _poly_mul_count(counts, args, result):
    a, b = args
    other = getattr(b, "terms", None)
    if other is not None:
        counts["poly.mul.term_products"] += len(a.terms) * len(other)


def _laurent_eval_count(counts, args, result):
    counts["laurent.eval.in_terms"] += len(args[0].terms)
    counts["laurent.eval.out_terms"] += sum(len(c.terms) for c in result.coeffs.values())


def _normal_form_count(counts, args, result):
    counts["groebner.normal_form.in_terms"] += len(args[0].terms)
    counts["groebner.normal_form.rem_terms"] += len(result[0].terms)


def _buchberger_count(counts, args, result):
    counts["groebner.buchberger.basis_size"] += len(result.polys)


def _membership_count(counts, args, result):
    form = args[0]
    if not form.is_zero():
        counts["elements.membership.shift_n"] += max(0, -form.min_exp())
    if result.member:
        counts["elements.membership.witness_terms"] += len(result.witness.terms)
    else:
        counts["elements.membership.nonmember"] += 1


# span name -> (module, attribute path inside the module, counter or None)
SPANS = {
    "poly.parse": ("poly", "parse_poly", None),
    "poly.mul": ("poly", "Polynomial.__mul__", _poly_mul_count),
    "poly.add": ("poly", "Polynomial.__add__", None),
    "poly.sub": ("poly", "Polynomial.__sub__", None),
    "poly.substitute": ("poly", "Polynomial.substitute", None),
    "laurent.eval": ("laurent", "eval_poly_at_laurent", _laurent_eval_count),
    "laurent.mul": ("laurent", "LaurentForm.__mul__", None),
    "laurent.add": ("laurent", "LaurentForm.__add__", None),
    "groebner.normal_form": ("groebner", "_normal_form", _normal_form_count),
    "groebner.reduce_to_gens": ("groebner", "GroebnerBasis.reduce_to_gens", None),
    "groebner.buchberger": ("groebner", "buchberger", _buchberger_count),
    "groebner.elimination_ideal": ("groebner", "elimination_ideal", None),
    "groebner.is_unit_ideal": ("groebner", "is_unit_ideal", None),
    "presentations.validate": ("presentations", "validate_presentation", None),
    "presentations.omega3_check": ("presentations", "omega3_check", None),
    "elements.membership": ("elements", "membership_with_witness", _membership_count),
    "elements.to_laurent": ("elements", "AlgebraContext.to_laurent", None),
    "elements.reduce_witness": ("elements", "AlgebraContext.reduce_witness", None),
    "derivations.canonical_lnd": ("derivations", "canonical_lnd", None),
    "derivations.well_defined": ("derivations", "check_derivation_well_defined", None),
    "derivations.apply_expr": ("derivations", "Derivation.apply_expr", None),
    "derivations.exp_apply": ("derivations", "ExponentialMap.apply_expr", None),
    "derivations.exp_map": ("derivations", "exp_map", None),
    "derivations.check_exp_axioms": ("derivations", "check_exp_axioms", None),
    "derivations.nilpotency_index": ("derivations", "nilpotency_index", None),
    "isomorphisms.apply_expr": ("isomorphisms", "RHomomorphism.apply_expr", None),
    "isomorphisms.verify_hom": ("isomorphisms", "verify_hom", None),
    "isomorphisms.distinguish": ("isomorphisms", "distinguish_by_invariants", None),
    "cancellation.certificate": ("cancellation", "cancellation_certificate", None),
    "cancellation.build_phi_extension": ("cancellation", "build_phi_extension", None),
    "cancellation.compute_slice_f": ("cancellation", "compute_slice_f", None),
    "cancellation.compute_g_h": ("cancellation", "compute_g_h", None),
    "cancellation.verify_E_iso": ("cancellation", "verify_E_iso", None),
    "cancellation.build_complement_variable": ("cancellation", "build_complement_variable", None),
    "cancellation.express_old_generators": ("cancellation", "express_old_generators", None),
    "cancellation.verify_pair_structured": ("cancellation", "verify_pair_structured", None),
    "cancellation.to_json": ("cancellation", "CancellationCertificate.to_json", None),
}

# The eight pipeline stages: spans whose parent is cancellation_certificate.
STAGES = {
    "omega3_check": "presentations.omega3_check",
    "build_phi_extension": "cancellation.build_phi_extension",
    "compute_slice_f": "cancellation.compute_slice_f",
    "compute_g_h": "cancellation.compute_g_h",
    "verify_E_iso": "cancellation.verify_E_iso",
    "build_complement_variable": "cancellation.build_complement_variable",
    "express_old_generators": "cancellation.express_old_generators",
    "verify_pair_structured": "cancellation.verify_pair_structured",
}


def ddlab_modules():
    """The loaded ddlab modules, the package included, importing the layer modules."""
    for name in MODULES:
        importlib.import_module(f"ddlab.{name}")
    return [m for n, m in sorted(sys.modules.items()) if n == "ddlab" or n.startswith("ddlab.")]


def resolve(span: str):
    """The original function behind a span name (the binding at its definition)."""
    module, path, _ = SPANS[span]
    owner = importlib.import_module(f"ddlab.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Records spans of the wrapped ddlab functions while `active` is true."""

    def __init__(self):
        self.active = False
        self.names: list[str] = list(SPANS)
        self._bindings: list[tuple[object, str, object]] = []
        self.reset()

    # -- recording --------------------------------------------------------------

    def reset(self):
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.incl: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.pair_incl: defaultdict[tuple[str, str], float] = defaultdict(float)
        self.spans = 0

    def _wrap(self, name_id: int, fn, count):
        tracer = self
        raised_key = f"{self.names[name_id]}.raised."

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            i = len(tracer._start)
            tracer._name.append(name_id)
            tracer._parent.append(stack[-1])
            tracer._end.append(0.0)
            stack.append(i)
            tracer._start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.counts[raised_key + type(exc).__name__] += 1
                raise
            finally:
                tracer._end[i] = perf_counter()
                stack.pop()
            if count is not None:
                count(tracer.counts, args, result)
            return result

        wrapper.__wrapped_original__ = fn
        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self):
        """Rebind every traced function everywhere ddlab refers to it."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        modules = ddlab_modules()
        for name_id, span in enumerate(self.names):
            owner, attr, original = resolve(span)
            wrapper = self._wrap(name_id, original, SPANS[span][2])
            self._bind(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._bind(module, key, wrapper)

    def _bind(self, owner, attr, wrapper):
        self._bindings.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        """Restore every binding changed by `install`, in reverse order."""
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)

    # -- aggregation ------------------------------------------------------------

    def fold(self):
        """Add the recorded spans to the per-name totals and clear them."""
        if len(self._stack) != 1:
            raise RuntimeError("fold inside an open span")
        names, parents = self._name, self._parent
        starts, ends = self._start, self._end
        n = len(starts)
        child = [0.0] * n
        mask = [0] * n  # bit set of span names on the ancestor path
        labels = self.names
        for i in range(n):
            dur = ends[i] - starts[i]
            name = labels[names[i]]
            p = parents[i]
            bit = 1 << names[i]
            if p >= 0:
                child[p] += dur
                mask[i] = mask[p] | (1 << names[p])
                self.pair_incl[(labels[names[p]], name)] += dur
            self.calls[name] += 1
            if not mask[i] & bit:
                self.incl[name] += dur
        for i in range(n):
            self.self_time[labels[names[i]]] += ends[i] - starts[i] - child[i]
        self.spans += n
        self._name, self._parent = array("i"), array("i")
        self._start, self._end = array("d"), array("d")

    def snapshot(self) -> dict:
        """JSON-ready totals, as merged by `merge`."""
        self.fold()
        return {
            "calls": dict(self.calls),
            "incl": dict(self.incl),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
            "pairs": [[p, c, v] for (p, c), v in self.pair_incl.items()],
            "spans": self.spans,
        }

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)


def merge(snapshots) -> dict:
    """Sum snapshots from several processes."""
    out = {"calls": defaultdict(float), "incl": defaultdict(float), "self": defaultdict(float),
           "counts": defaultdict(float), "spans": 0}
    pairs = defaultdict(float)
    for snap in snapshots:
        for key in ("calls", "incl", "self", "counts"):
            for name, value in snap[key].items():
                out[key][name] += value
        for p, c, v in snap["pairs"]:
            pairs[(p, c)] += v
        out["spans"] += snap["spans"]
    out["pairs"] = [[p, c, v] for (p, c), v in pairs.items()]
    return out


def stage_times(snap: dict) -> dict:
    """Inclusive time of each pipeline stage called by cancellation_certificate."""
    pairs = {(p, c): v for p, c, v in snap["pairs"]}
    return {stage: pairs.get(("cancellation.certificate", span), 0.0) for stage, span in STAGES.items()}


def layer_metrics(snap: dict, ops: int) -> dict:
    """Per-operation layer metrics, named `<module>.<function>.<stat>`."""
    calls, incl, self_t = snap["calls"], snap["incl"], snap["self"]
    counts = snap["counts"]
    pairs = {(p, c): v for p, c, v in snap["pairs"]}
    out = {}

    def put(name, value, unit):
        out[name] = (value / ops, unit)

    put("poly.mul.calls", calls.get("poly.mul", 0), "count/op")
    put("poly.mul.self_s", self_t.get("poly.mul", 0.0), "s/op")
    put("poly.mul.term_products", counts.get("poly.mul.term_products", 0), "count/op")
    put("poly.add.self_s", self_t.get("poly.add", 0.0), "s/op")
    put("poly.substitute.incl_s", incl.get("poly.substitute", 0.0), "s/op")
    put("poly.parse.incl_s", incl.get("poly.parse", 0.0), "s/op")
    put("laurent.eval.calls", calls.get("laurent.eval", 0), "count/op")
    put("laurent.eval.incl_s", incl.get("laurent.eval", 0.0), "s/op")
    put("laurent.eval.self_s", self_t.get("laurent.eval", 0.0), "s/op")
    put("laurent.eval.in_terms", counts.get("laurent.eval.in_terms", 0), "count/op")
    put("laurent.eval.out_terms", counts.get("laurent.eval.out_terms", 0), "count/op")
    put("laurent.mul.self_s", self_t.get("laurent.mul", 0.0), "s/op")
    put("groebner.normal_form.calls", calls.get("groebner.normal_form", 0), "count/op")
    put("groebner.normal_form.self_s", self_t.get("groebner.normal_form", 0.0), "s/op")
    put("groebner.normal_form.in_terms", counts.get("groebner.normal_form.in_terms", 0), "count/op")
    put("groebner.normal_form.rem_terms", counts.get("groebner.normal_form.rem_terms", 0), "count/op")
    put("groebner.reduce_to_gens.backsub_s",
        incl.get("groebner.reduce_to_gens", 0.0)
        - pairs.get(("groebner.reduce_to_gens", "groebner.normal_form"), 0.0), "s/op")
    put("groebner.buchberger.calls", calls.get("groebner.buchberger", 0), "count/op")
    put("groebner.buchberger.self_s", self_t.get("groebner.buchberger", 0.0), "s/op")
    put("groebner.buchberger.basis_size", counts.get("groebner.buchberger.basis_size", 0), "count/op")
    put("groebner.buchberger.budget_exceeded",
        counts.get("groebner.buchberger.raised.BudgetExceeded", 0), "count/op")
    put("elements.membership.calls", calls.get("elements.membership", 0), "count/op")
    put("elements.membership.incl_s", incl.get("elements.membership", 0.0), "s/op")
    for stat in ("shift_n", "witness_terms", "nonmember"):
        put(f"elements.membership.{stat}", counts.get(f"elements.membership.{stat}", 0), "count/op")
    put("elements.to_laurent.incl_s", incl.get("elements.to_laurent", 0.0), "s/op")
    put("elements.reduce_witness.incl_s", incl.get("elements.reduce_witness", 0.0), "s/op")
    for fn in ("apply_expr", "exp_apply", "exp_map", "check_exp_axioms", "nilpotency_index"):
        put(f"derivations.{fn}.incl_s", incl.get(f"derivations.{fn}", 0.0), "s/op")
    for fn in ("apply_expr", "verify_hom"):
        put(f"isomorphisms.{fn}.incl_s", incl.get(f"isomorphisms.{fn}", 0.0), "s/op")
    for stage, value in stage_times(snap).items():
        put(f"cancellation.{stage}.incl_s", value, "s/op")
    put("presentations.omega3_check.incl_s", incl.get("presentations.omega3_check", 0.0), "s/op")
    put("cancellation.to_json.incl_s", incl.get("cancellation.to_json", 0.0), "s/op")
    put("trace.spans", snap["spans"], "count/op")
    return out
