"""Supermanifolds as finite atlases of superdomain charts.

The base manifold is combinatorial: named charts over a shared signature, a
declared nerve of ordered overlap pairs and triples, and one transition
morphism per ordered pair.  T_UV maps chart-V coordinates to series over
chart U, so its pullback carries functions written in U coordinates to V...
read contravariantly: T_UV.images give the V variables in terms of U.
Partitions of unity are symbolic chart-indexed coefficients whose sum is 1:
the last chart's symbol is rewritten as 1 minus the others, and an atlas
whose partition does not then sum to 1 is refused when it is built.
"""

from __future__ import annotations

from .coeffexpr import ONE, App, Var, sum_of_products
from .gseries import GSeries, combine
from .morphisms import Morphism, _linear_block, compose


class AtlasError(ValueError):
    pass


class CheckResult:
    """A single named verification outcome."""

    def __init__(self, name, passed, detail):
        self.name = name
        self.passed = passed
        self.detail = detail

    def __repr__(self):
        return "[%s] %s%s" % ("pass" if self.passed else "FAIL", self.name,
                              (": " + self.detail) if self.detail else "")


class Report:
    def __init__(self):
        self.checks = []

    def add(self, name, passed, detail=""):
        self.checks.append(CheckResult(name, passed, detail))

    def residual(self, name, named):
        """A check that every value is zero.  named yields (label, value)
        pairs and is read lazily, up to the first nonzero value, which the
        failing check names as "label: value"."""
        detail = next(("%s: %s" % (label, v) for label, v in named if not v.is_zero()), "")
        self.add(name, not detail, detail)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def __str__(self):
        return "\n".join(repr(c) for c in self.checks)


def _partition_rule(charts, partition):
    """The rewrite rho_last -> 1 - (the other charts' partition functions), as
    the (func, handler) arguments of CoeffExpr.substitute_app, when the last
    chart's function is an opaque application rho(x1, ..., xm) of coordinate
    symbols; None otherwise."""
    if not partition:
        return None
    atom = partition[charts[-1]].as_atom()
    if not isinstance(atom, App) or any(atom.alpha):
        return None
    args = [a.as_atom() for a in atom.args]
    if not all(isinstance(a, Var) for a in args):
        return None
    argnames = [a.name for a in args]
    replacement = sum_of_products([(ONE, ONE, False)]
                                  + [(partition[u], ONE, True) for u in charts[:-1]])

    def handler(alpha, args):
        out = replacement
        for j, k in enumerate(alpha):
            for _ in range(k):
                out = out.diff(argnames[j])
        return out.substitute_vars(dict(zip(argnames, args)))

    return atom.func, handler


class Atlas:
    """Charts over a shared signature, glued by transition morphisms."""

    def __init__(self, signature, order, charts, pairs, triples, transitions, partition=None):
        self.signature = signature
        self.order = order
        self.charts = list(charts)
        self.pairs = [tuple(p) for p in pairs]
        self.triples = [tuple(t) for t in triples]
        self.transitions = dict(transitions)
        self.partition = dict(partition) if partition else None
        names = set(self.charts)
        for u, v in self.pairs:
            if u not in names or v not in names:
                raise AtlasError("pair (%s, %s) names an unknown chart" % (u, v))
        for pair in self.transitions:
            if tuple(pair) not in self.pairs:
                raise AtlasError("transition for undeclared pair %s" % (pair,))
        if self.partition is not None and set(self.partition) != names:
            raise AtlasError("partition must assign every chart")
        self._rho_rule = _partition_rule(self.charts, self.partition)
        if self.partition is not None:
            total = self.partition_reduce(
                sum_of_products([(rho, ONE, False) for rho in self.partition.values()]))
            if total != ONE:
                raise AtlasError("partition %s sums to %s, not 1" % (
                    ", ".join("%s = %s" % (u, self.partition[u]) for u in self.charts), total))

    @property
    def overlaps(self):
        """The ordered pairs of distinct charts with a transition, in
        `transitions` order."""
        return [(u, v) for (u, v) in self.transitions if u != v]

    def transition(self, u, v):
        """T_UV, the morphism expressing chart-V coordinates over chart U."""
        if u == v:
            return Morphism.identity(self.signature, self.order)
        try:
            return self.transitions[(u, v)]
        except KeyError:
            raise AtlasError("no transition declared for pair (%s, %s)" % (u, v)) from None

    def truncate(self, k):
        """The atlas modulo J^(k+1), for 1 <= k <= its order; itself when k is."""
        if not 1 <= k <= self.order:
            raise AtlasError("cannot truncate an order-%d atlas to order %d" % (self.order, k))
        return self if k == self.order else Atlas(
            self.signature, k, self.charts, self.pairs, self.triples,
            {p: Morphism(m.source, m.target, m.images, k) for p, m in self.transitions.items()},
            self.partition)

    # -- partition of unity ----------------------------------------------

    def partition_reduce(self, expr):
        """Rewrite the last chart's partition symbol via sum(rho) = 1, by the
        rule `_partition_rule` derived once from the partition; other
        coefficient data is left untouched."""
        if self._rho_rule is None:
            return expr
        return expr.substitute_app(*self._rho_rule)

    def reduce_series(self, s):
        return s.map_coeffs(self.partition_reduce)


def validate_atlas(atlas):
    """Identity, inverse, and triple-cocycle conditions modulo J^(K+1)."""
    report = Report()
    ident = Morphism.identity(atlas.signature, atlas.order)
    names = [nm for nm, _ in atlas.signature.variables()]

    def differences(lhs, rhs):
        return ((nm, atlas.reduce_series(lhs.images[nm] - rhs.images[nm])) for nm in names)

    for (u, v), m in sorted(atlas.transitions.items()):
        if u == v:
            report.residual("identity-transition %s%s" % (u, v),
                            ((nm, m.images[nm] - ident.images[nm]) for nm in names))
    done = set()
    for (u, v) in sorted(atlas.overlaps):
        if (v, u) in done:
            continue
        done.add((u, v))
        if (v, u) not in atlas.transitions:
            report.add(
                "inverse-condition %s<->%s" % (u, v),
                False,
                "reverse transition not declared",
            )
            continue
        c = compose(atlas.transition(v, u), atlas.transition(u, v))
        report.residual("inverse-condition %s<->%s" % (u, v), differences(c, ident))
    for u, v, w in atlas.triples:
        lhs = compose(atlas.transition(v, w), atlas.transition(u, v))
        report.residual("triple-cocycle %s,%s,%s" % (u, v, w),
                        differences(lhs, atlas.transition(u, w)))
    return report


class GradedBundleData:
    """A Z2^n\\{0}-graded vector bundle by transition data on a nerve.

    For each degree d of `signature.formal_blocks` and ordered pair (U, V),
    an invertible q_d x q_d matrix of CoeffExprs; base transitions map each
    base coordinate to a CoeffExpr over the other chart.
    """

    def __init__(self, signature, charts, pairs, matrices, base_transitions):
        self.signature = signature
        self.charts = list(charts)
        self.pairs = [tuple(p) for p in pairs]
        # matrices: (u, v) -> {degree: [[CoeffExpr]]}
        self.matrices = {
            pair: {d: [list(row) for row in mat] for d, mat in per.items()}
            for pair, per in matrices.items()
        }
        # base_transitions: (u, v) -> {base name: CoeffExpr}
        self.base_transitions = {pair: dict(base_transitions[pair]) for pair in self.matrices}

    def __eq__(self, other):
        return (
            isinstance(other, GradedBundleData)
            and self.signature == other.signature
            and self.charts == other.charts
            and sorted(self.pairs) == sorted(other.pairs)
            and self.matrices == other.matrices
            and self.base_transitions == other.base_transitions
        )


def build_split_model(bundle, order):
    """The split-model atlas of a graded vector bundle.

    Transitions act linearly on the formal variables through the per-degree
    matrices and by the base transitions on the base coordinates, so they are
    block diagonal per degree (the split normal form).  The model declares
    no triples and no partition: only its transitions are read.
    """
    sig = bundle.signature
    transitions = {}
    for (u, v) in bundle.pairs:
        if u == v:
            continue
        base = bundle.base_transitions[(u, v)]
        images = {bn: GSeries.from_coeff(sig, order, base[bn]) for bn in sig.base_names}
        for d, vars_d in sig.formal_blocks.items():
            mat = bundle.matrices[(u, v)][d]
            for i, tv in enumerate(vars_d):
                row = combine(sig, order, [(GSeries.generator(sig, sv, order), g)
                                           for sv, g in zip(vars_d, mat[i]) if not g.is_zero()])
                if row.is_zero():
                    raise AtlasError(
                        "degree-%s block row %d of pair (%s, %s) is zero" % (d, i, u, v)
                    )
                images[tv] = row
        transitions[(u, v)] = Morphism(sig, sig, images, order)
    return Atlas(sig, order, bundle.charts, bundle.pairs, [], transitions)


def extract_bundle(atlas):
    """Reduce each transition modulo J^2: the graded-bundle cocycle of the atlas."""
    sig = atlas.signature
    matrices = {}
    base_transitions = {}
    for (u, v) in atlas.overlaps:
        m = atlas.transitions[(u, v)]
        matrices[(u, v)] = {d: _linear_block(m, vs, vs) for d, vs in sig.formal_blocks.items()}
        base_transitions[(u, v)] = m.base_map()
    return GradedBundleData(sig, atlas.charts, atlas.overlaps, matrices, base_transitions)
