"""Outside-in tracer: wraps public z2nsuper callables from the benchmark's side.

Nothing inside z2nsuper changes.  `Tracer.install` replaces each callable in
TRACED by a wrapper, in every z2nsuper module that binds it (a name imported
with `from ... import` is a separate binding) and under every alias in its
class (`__radd__ = __add__`).  `uninstall` restores the originals.

Two kinds of callable:

- SPAN callables (coarse: cli, formats, splitting, atlas and the morphisms
  operations) record one span per call: name, start, end, parent span, job.
- AGG callables (hot kernels) are aggregated per parent span instead, so
  millions of calls do not become millions of spans.

Every call, of either kind, keeps the same self-time books: its inclusive
time is added to its caller's child time, and self = inclusive - child.  The
self times of all calls in a job therefore sum exactly (in integer
nanoseconds) to the inclusive time of the job's top-level calls.  Private
helpers are not wrapped; their time lands in the caller's self time.
"""

from __future__ import annotations

import importlib
import sys
import time

SPAN, AGG = "span", "agg"

# (module, callable, kind, reported stats); the stats become the per-layer
# metrics "<module>.<callable>.<stat>".
TRACED = (
    ("degrees", "sign_factor", AGG, ("calls", "self_s")),
    ("degrees", "Degree.__add__", AGG, ("calls", "self_s")),
    ("degrees", "is_self_odd", AGG, ("calls",)),
    ("coeffexpr", "CoeffExpr.__init__", AGG, ("calls", "self_s", "terms_mean")),
    ("coeffexpr", "CoeffExpr.__add__", AGG, ("calls", "self_s")),
    ("coeffexpr", "CoeffExpr.__mul__", AGG, ("calls", "self_s")),
    ("coeffexpr", "CoeffExpr.diff", AGG, ("calls", "self_s")),
    ("coeffexpr", "CoeffExpr.substitute_vars", AGG, ("calls", "self_s")),
    ("coeffexpr", "CoeffExpr.substitute_app", AGG, ("calls", "self_s")),
    ("exprio", "parse_coeff", AGG, ("calls", "self_s")),
    ("exprio", "print_coeff", AGG, ("calls", "self_s")),
    ("gseries", "GSeries.__mul__", AGG, ("calls", "self_s", "incl_s", "pairs", "terms_out_mean")),
    ("gseries", "mul_monomials", AGG, ("calls", "self_s", "hit_ratio")),
    ("gseries", "GSeries.__init__", AGG, ("calls", "self_s")),
    ("gseries", "GSeries.__add__", AGG, ("calls", "self_s")),
    ("gseries", "GSeries.left_partial", AGG, ("calls", "incl_s")),
    ("morphisms", "Morphism.pullback_coeff", SPAN, ("calls", "self_s", "incl_s")),
    ("morphisms", "Morphism.pullback", SPAN, ("calls", "incl_s")),
    ("morphisms", "Morphism.__init__", AGG, ("calls", "self_s")),
    ("morphisms", "compose", SPAN, ("calls", "incl_s")),
    ("morphisms", "invert", SPAN, ("calls", "incl_s", "pullback_calls")),
    ("morphisms", "jacobian", SPAN, ("incl_s",)),
    ("morphisms", "transformation_template", SPAN, ("incl_s",)),
    ("atlas", "Atlas.partition_reduce", AGG, ("calls", "self_s", "incl_s")),
    ("atlas", "validate_atlas", SPAN, ("incl_s",)),
    ("atlas", "extract_bundle", SPAN, ("incl_s",)),
    ("atlas", "build_split_model", SPAN, ("incl_s",)),
    ("splitting", "split", SPAN, ("incl_s",)),
    ("splitting", "verify_result", SPAN, ("incl_s",)),
    ("splitting", "verify_iso", SPAN, ("incl_s",)),
    ("splitting", "build_base_embedding", SPAN, ("incl_s", "self_s")),
    ("splitting", "build_module_splitting", SPAN, ("incl_s", "self_s")),
    ("splitting", "EmbeddingFamily.apply", SPAN, ("calls", "incl_s")),
    ("splitting", "cocycle_mismatch", SPAN, ("calls",)),
    ("splitting", "lift_mismatch", SPAN, ("calls",)),
    ("splitting", "transport_derivation", SPAN, ("calls",)),
    ("splitting", "solve_coboundary", SPAN, ("calls",)),
    ("formats", "parse_atlas", SPAN, ("self_s",)),
    ("formats", "print_result", SPAN, ("self_s",)),
    ("formats", "parse_result", SPAN, ("self_s",)),
    ("formats", "print_series", AGG, ("calls", "self_s")),
    ("cli", "main", SPAN, ("calls", "self_s", "incl_s")),
    ("findim", "search_degree_assignments", SPAN, ("calls", "self_s", "incl_s")),
    ("findim", "check_graded_commutative", AGG, ("calls", "self_s")),
    ("findim", "FinDimAlgebra.__init__", AGG, ("calls", "self_s")),
)

# Metrics the runner measures around the traced pass rather than per call.
RUN_METRICS = (
    ("setup.import_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_s", "s"),
)

UNITS = {
    "calls": "count", "pairs": "count", "pullback_calls": "count",
    "self_s": "s", "incl_s": "s",
    "terms_mean": "terms", "terms_out_mean": "terms", "hit_ratio": "ratio",
}


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for module, qual, _, stats in TRACED:
        for stat in stats:
            out["%s.%s.%s" % (module, qual, stat)] = UNITS[stat]
    out.update(RUN_METRICS)
    return out


# Per-call extra counters, stored after the three standard ones
# (calls, self_ns, outermost incl_ns) in an aggregate record.
def _coeffexpr_init(rec, args, result):
    rec[3] += len(args[0]._terms)


def _gseries_mul(rec, args, result):
    this, other = args[0], args[1]
    # a scalar factor (int, Fraction, CoeffExpr) is coerced to one term
    rec[3] += len(this.terms) * (len(other.terms) if isinstance(other, type(this)) else 1)
    rec[4] += len(result.terms)


def _mul_monomials(rec, args, result):
    if result is not None:
        rec[3] += 1


EXTRAS = {
    "coeffexpr.CoeffExpr.__init__": _coeffexpr_init,
    "gseries.GSeries.__mul__": _gseries_mul,
    "gseries.mul_monomials": _mul_monomials,
}


class Tracer:
    """Holds the spans and aggregates of one traced pass, in memory."""

    def __init__(self):
        self.spans = []      # (name, start_ns, end_ns, parent, job, self_ns)
        self.agg = {}        # (parent span, name) -> [calls, self_ns, incl_ns, x1, x2]
        self.stack = []      # child-time accumulator of each active call
        self.depth = {}      # name -> active calls, so recursion counts incl once
        self.cur = -1        # innermost active span, -1 outside any span
        self.job = -1
        self.top_ns = 0      # inclusive time of top-level calls
        self._patches = self._plan()

    # -- patching -------------------------------------------------------

    def _plan(self):
        for module, *_ in TRACED:
            importlib.import_module("z2nsuper." + module)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "z2nsuper" or name.startswith("z2nsuper.")]
        patches = []
        for module, qual, kind, _ in TRACED:
            name = "%s.%s" % (module, qual)
            mod = sys.modules["z2nsuper." + module]
            owner_name, _, attr = qual.rpartition(".")
            if owner_name:
                owners = [getattr(mod, owner_name)]
                orig = owners[0].__dict__[attr]
            else:
                owners = modules
                orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig, kind == SPAN, EXTRAS.get(name))
            found = False
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is orig:
                        patches.append((owner, key, orig, wrapper))
                        found = True
            if not found:
                raise LookupError("no binding found for %s" % name)
        return patches

    def install(self):
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, orig, _ in self._patches:
            setattr(owner, key, orig)

    # -- the wrapper ------------------------------------------------------

    def _wrap(self, name, fn, is_span, extra):
        tr = self
        clock = time.perf_counter_ns
        spans, agg, stack, depth = self.spans, self.agg, self.stack, self.depth

        def wrapper(*args, **kwargs):
            parent = tr.cur
            if is_span:
                sid = len(spans)
                spans.append(None)
                tr.cur = sid
            stack.append(0)
            depth[name] = depth.get(name, 0) + 1
            done = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = clock()
                incl = t1 - t0
                self_ns = incl - stack.pop()
                if stack:
                    stack[-1] += incl
                else:
                    tr.top_ns += incl
                d = depth[name] - 1
                depth[name] = d
                key = (parent, name)
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0, 0, 0, 0]
                rec[0] += 1
                rec[1] += self_ns
                if not d:
                    rec[2] += incl
                if done and extra is not None:
                    extra(rec, args, result)
                if is_span:
                    spans[sid] = (name, t0, t1, parent, tr.job, self_ns)
                    tr.cur = parent

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- results ----------------------------------------------------------

    def totals(self):
        """name -> [calls, self_ns, incl_ns, x1, x2] summed over parents."""
        out = {}
        for (_, name), rec in self.agg.items():
            tot = out.setdefault(name, [0, 0, 0, 0, 0])
            for i, v in enumerate(rec):
                tot[i] += v
        return out

    def self_ns_total(self):
        return sum(rec[1] for rec in self.agg.values())

    def pullbacks_in_invert(self):
        """Morphism.pullback spans with an invert span among their ancestors."""
        under = [False] * len(self.spans)
        count = 0
        for sid, (name, _, _, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                under[sid] = under[parent] or self.spans[parent][0] == "morphisms.invert"
            if under[sid] and name == "morphisms.Morphism.pullback":
                count += 1
        return count

    def layer_metrics(self):
        """The per-call metrics of TRACED by name (RUN_METRICS are added by the runner)."""
        tot = self.totals()
        out = {}
        for module, qual, _, stats in TRACED:
            name = "%s.%s" % (module, qual)
            calls, self_ns, incl_ns, x1, x2 = tot.get(name, [0, 0, 0, 0, 0])
            values = {
                "calls": calls,
                "self_s": self_ns / 1e9,
                "incl_s": incl_ns / 1e9,
                "terms_mean": x1 / calls if calls else 0.0,
                "pairs": x1,
                "terms_out_mean": x2 / calls if calls else 0.0,
                "hit_ratio": x1 / calls if calls else 0.0,
            }
            for stat in stats:
                if stat == "pullback_calls":
                    value = self.pullbacks_in_invert()
                else:
                    value = values[stat]
                out["%s.%s" % (name, stat)] = value
        return out

    def dump(self):
        """Spans and aggregates as plain data, for writing out after the run."""
        return {
            "spans": [
                {"name": n, "start_ns": s, "end_ns": e, "parent": p, "job": j, "self_ns": sn}
                for n, s, e, p, j, sn in self.spans
            ],
            "aggregates": [
                {"parent": p, "name": n, "calls": r[0], "self_ns": r[1], "incl_ns": r[2]}
                for (p, n), r in sorted(self.agg.items())
            ],
        }
