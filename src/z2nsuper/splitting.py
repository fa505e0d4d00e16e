"""Constructive splitting of a supermanifold atlas into its graded-bundle model.

The pipeline builds, order by order up to the truncation K:

  1. an embedding of the smooth functions into the structure algebra,
     chartwise;
  2. a lift of the degree-shifted frame (a right inverse of J -> J/J^2 as
     modules over the embedded smooth functions);
  3. the per-chart isomorphism onto the split model assembled from the two,
     together with a verification report.

Stages 1 and 2 run one order-raising Cech step, `_raise_order`, with their
own overlap mismatch (`cocycle_mismatch`, `lift_mismatch`).  At order k the
chart values, truncated to order k, agree on overlaps below order k, so the
mismatch on each ordered pair is pure order k: a Cech 1-cocycle, which the
partition of unity makes a coboundary (eta_U = -sum_W rho_W omega_UW).
Adding eta to the values makes them agree on overlaps up to order k.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest

from .atlas import Report, build_split_model, extract_bundle, first_residual, validate_atlas
from .coeffexpr import CoeffExpr
from .gseries import GSeries, mono_order
from .morphisms import Morphism, compose


class SplittingError(RuntimeError):
    pass


class MissingPartition(SplittingError):
    """The coboundary step needs a partition of unity on the atlas."""


# -- the embedding family -------------------------------------------------


class EmbeddingFamily:
    """Per chart, a degree-0 unital algebra morphism from smooth functions,
    represented by its values on the chart's base coordinates."""

    def __init__(self, atlas, values, order):
        self.atlas = atlas
        self.values = values  # chart -> {base var -> GSeries}
        self.order = order

    @classmethod
    def identity(cls, atlas, order):
        sig = atlas.signature
        values = {
            u: {bn: GSeries.generator(sig, bn, order) for bn in sig.base_names}
            for u in atlas.charts
        }
        return cls(atlas, values, order)

    def as_morphism(self, chart):
        """The canonical extension of the chart values to a full morphism.

        Reinterprets x^i -> x^i + (higher) as a coordinate substitution that
        fixes the formal variables; applying its pullback to a coefficient
        function is the embedding itself.
        """
        sig = self.atlas.signature
        images = dict(self.values[chart])
        for fn in sig.formal_names:
            images[fn] = GSeries.generator(sig, fn, self.order)
        return Morphism(sig, sig, images, self.order)

    def apply(self, chart, expr):
        """The embedding of a coefficient function into the chart algebra."""
        return self.as_morphism(chart).pullback_coeff(expr)

    def at_order(self, order):
        """Reinterpret the family at a different truncation order.

        Raising the order is the canonical extension of the underlying
        morphisms (values are reused verbatim); lowering truncates.
        """
        return EmbeddingFamily(self.atlas, _at_order(self.atlas, self.values, order), order)


def _at_order(atlas, values, order):
    """Chart values chart -> {var -> GSeries} reinterpreted at `order`:
    truncated when it lowers the order, the same terms when it raises it."""
    return {
        u: {
            nm: s.truncate(order) if order <= s.order else GSeries(atlas.signature, order, s.terms)
            for nm, s in per.items()
        }
        for u, per in values.items()
    }


# -- mismatch derivations -------------------------------------------------


def embedding_mismatch(family, pair):
    """phi_U(x) minus the transported phi_V(x) on an overlap, per base
    coordinate x of U, at the family's order.

    Returns {base var -> GSeries over chart U}, the values of the degree-0
    derivation omega_UV.
    """
    atlas = family.atlas
    order = family.order
    u, v = pair
    t_uv = atlas.transition(u, v)
    base_vu = atlas.transition(v, u).base_map()  # U base coordinates as functions of V
    names = atlas.signature.base_names
    rights = t_uv.pullbacks([family.apply(v, base_vu[bn]) for bn in names])
    out = {}
    for bn, right in zip(names, rights):
        left = family.values[u][bn].truncate(order)
        out[bn] = atlas.reduce_series(left - right.truncate(order))
    return out


def _pure_order(mismatch, sig, pair, order, what):
    """The mismatch itself, after checking that each variable's value is pure
    order `order` and homogeneous of the variable's degree."""
    for name, d in mismatch.items():
        if any(mono_order(mu) < order for mu in d.terms):
            raise SplittingError(
                "%s mismatch on %s for pair %s has terms below order %d; "
                "input is inconsistent" % (what, name, pair, order)
            )
        if not d.is_homogeneous(sig.degree_of(name)):
            raise SplittingError(
                "%s mismatch on %s for pair %s is not of degree %s"
                % (what, name, pair, sig.degree_of(name))
            )
    return mismatch


def cocycle_mismatch(family, pair, order):
    """The embedding mismatch on an overlap; must be pure order `order`."""
    return _pure_order(embedding_mismatch(family, pair), family.atlas.signature,
                       pair, order, "embedding")


def transport_derivation(atlas, u, v, omega_v, order):
    """Express a derivation given by V-chart values on the U chart.

    Chain rule through the base transition, then coordinate transport of the
    values through T_UV.
    """
    sig = atlas.signature
    t_uv = atlas.transition(u, v)
    t_vu = atlas.transition(v, u)
    base_vu = t_vu.base_map()  # U base coordinates as functions of the V chart
    accs = []
    for bn in sig.base_names:
        expr_v = base_vu[bn]
        acc = GSeries.zero(sig, order)
        for bv in sig.base_names:
            d = expr_v.diff(bv)
            if d.is_zero():
                continue
            acc = acc + omega_v[bv].truncate(order) * d
        accs.append(acc)
    return {
        bn: atlas.reduce_series(s.truncate(order))
        for bn, s in zip(sig.base_names, t_uv.pullbacks(accs))
    }


def solve_coboundary(atlas, omegas, order):
    """A 0-cochain eta with (delta eta) = omega, via the partition of unity.

    omegas: ordered pair -> {var -> GSeries}, expressed on the first chart of
    each pair, with the same variables for every pair.
    eta_U = -sum_W rho_W omega_UW.
    """
    if not atlas.partition:
        raise MissingPartition(
            "a partition of unity is required to trivialize the overlap cocycle"
        )
    sig = atlas.signature
    names = list(next(iter(omegas.values()), {}))
    etas = {}
    for u in atlas.charts:
        acc = {nm: GSeries.zero(sig, order) for nm in names}
        for w in atlas.charts:
            if w == u:
                continue
            rho = atlas.partition[w]
            if (u, w) not in omegas:
                raise SplittingError(
                    "no mismatch data for pair (%s, %s); declare the overlap "
                    "or a zero cocycle for it" % (u, w)
                )
            om = omegas[(u, w)]
            for nm in names:
                acc[nm] = acc[nm] - om[nm] * rho
        etas[u] = {nm: atlas.reduce_series(s) for nm, s in acc.items()}
    return etas


def check_cocycle(atlas, omegas, order, report, tag):
    """Antisymmetry on pairs and the triple identity on the declared nerve."""
    sig = atlas.signature
    for (u, v) in omegas:
        if (v, u) not in omegas:
            continue
        back = transport_derivation(atlas, u, v, omegas[(v, u)], order)
        ok = all(
            atlas.reduce_series(omegas[(u, v)][bn] + back[bn]).is_zero()
            for bn in sig.base_names
        )
        report.add("%s antisymmetry %s%s" % (tag, u, v), ok)
    for (u, v, w) in atlas.triples:
        if (u, v) not in omegas or (v, w) not in omegas or (u, w) not in omegas:
            continue
        t_vw = transport_derivation(atlas, u, v, omegas[(v, w)], order)
        ok = all(
            atlas.reduce_series(
                omegas[(u, v)][bn] + t_vw[bn] - omegas[(u, w)][bn]
            ).is_zero()
            for bn in sig.base_names
        )
        report.add("%s triple-cocycle %s,%s,%s" % (tag, u, v, w), ok)


def check_coboundary(atlas, omegas, etas, order, report, tag):
    """delta eta = omega symbolically under the partition relation."""
    sig = atlas.signature
    for (u, v) in omegas:
        eta_v_on_u = transport_derivation(atlas, u, v, etas[v], order)
        ok = all(
            atlas.reduce_series(
                omegas[(u, v)][bn] - (eta_v_on_u[bn] - etas[u][bn])
            ).is_zero()
            for bn in sig.base_names
        )
        report.add("%s coboundary %s%s" % (tag, u, v), ok)


# -- the order-raising Cech step ------------------------------------------


def _vanishes(cochain):
    return all(s.is_zero() for per in cochain.values() for s in per.values())


def _raise_order(atlas, values, order, mismatch, report, tag, check=None):
    """One order-raising Cech step.

    values: chart -> {var -> GSeries}, consistent on overlaps below `order`;
    they are re-truncated to `order`.  mismatch(values, pair) gives the
    overlap mismatch {var -> GSeries}, pure order `order`.  Returns the values
    corrected by the coboundary of the mismatch cocycle.  check(omegas, etas),
    when given, records further checks on the cocycle and its coboundary.
    """
    values = _at_order(atlas, values, order)
    pairs = [(u, v) for (u, v) in atlas.transitions if u != v]
    if not pairs:
        return values
    omegas = {pair: mismatch(values, pair) for pair in pairs}
    if _vanishes(omegas):
        report.add("%s: no mismatch" % tag, True)
        return values
    etas = solve_coboundary(atlas, omegas, order)
    if check is not None:
        check(omegas, etas)
    values = {
        u: {nm: s + etas[u][nm] for nm, s in per.items()} for u, per in values.items()
    }
    residual = {pair: mismatch(values, pair) for pair in pairs}
    report.add("%s: consistency after correction" % tag, _vanishes(residual))
    return values


def _check_augmentation(family, report):
    """epsilon o phi = id on every chart."""
    for u in family.atlas.charts:
        ok = all(
            family.values[u][bn].epsilon() == CoeffExpr.var(bn)
            for bn in family.atlas.signature.base_names
        )
        report.add("epsilon o phi = id on %s" % u, ok)


# -- stage 1: the base embedding ------------------------------------------


def build_base_embedding(atlas, order, report=None):
    """The embedding family, raised order by order with the Cech step."""
    report = Report() if report is None else report
    family = EmbeddingFamily.identity(atlas, 1)
    for k in range(2, order + 1):
        tag = "embedding order %d" % k

        def mismatch(values, pair):
            return cocycle_mismatch(EmbeddingFamily(atlas, values, k), pair, k)

        def check(omegas, etas):
            check_cocycle(atlas, omegas, k, report, tag)
            check_coboundary(atlas, omegas, etas, k, report, tag)

        values = _raise_order(atlas, family.values, k, mismatch, report, tag, check)
        family = EmbeddingFamily(atlas, values, k)
    _check_augmentation(family, report)
    return family, report


# -- stage 2: the module splitting ----------------------------------------


def frame_matrix(atlas, u, v):
    """[xi^U_a] in the V frame: the linear block rows of T_VU, per formal var.

    Returns {U formal var -> [(V formal var, CoeffExpr over V)]}.
    """
    sig = atlas.signature
    t_vu = atlas.transition(v, u)
    out = {}
    for fa in sig.formal_names:
        img = t_vu.images[fa]
        row = []
        for fb in sig.formal_names:
            mu = [0] * sig.nformal
            mu[sig.formal_index(fb)] = 1
            c = img.coeff_of(mu)
            if not c.is_zero():
                row.append((fb, c))
        out[fa] = row
    return out


def frame_mismatch(family, lifts, pair):
    """Per U formal variable: lift_U(xi_a) minus the transported V-side lift
    of the same frame section, at the family's order."""
    atlas = family.atlas
    sig = atlas.signature
    order = family.order
    u, v = pair
    t_uv = atlas.transition(u, v)
    rows = frame_matrix(atlas, u, v)
    accs = []
    for fa in sig.formal_names:
        acc = GSeries.zero(sig, order)
        for fb, h in rows[fa]:
            acc = acc + lifts[v][fb] * family.apply(v, h)
        accs.append(acc)
    return {
        fa: atlas.reduce_series(lifts[u][fa] - s.truncate(order))
        for fa, s in zip(sig.formal_names, t_uv.pullbacks(accs))
    }


def lift_mismatch(family, lifts, pair, order):
    """The frame-lift mismatch on an overlap; must be pure order `order`."""
    return _pure_order(frame_mismatch(family, lifts, pair), family.atlas.signature,
                       pair, order, "frame-lift")


def build_module_splitting(atlas, family, order, report=None):
    """A right inverse of J -> J/J^2 on the chart frames, raised order by
    order with the Cech step."""
    report = Report() if report is None else report
    sig = atlas.signature
    lifts = {
        u: {fa: GSeries.generator(sig, fa, order) for fa in sig.formal_names}
        for u in atlas.charts
    }
    for k in range(2, order + 1):
        family_k = family.at_order(k)

        def mismatch(values, pair):
            return lift_mismatch(family_k, values, pair, k)

        lifts = _raise_order(atlas, lifts, k, mismatch, report, "frame lift order %d" % k)
    for u in atlas.charts:
        ok = True
        for fa in sig.formal_names:
            mu = [0] * sig.nformal
            mu[sig.formal_index(fa)] = 1
            lin = lifts[u][fa].truncate(1) if order >= 1 else lifts[u][fa]
            ok = ok and lin == GSeries.monomial(sig, min(1, order), mu, 1)
            ok = ok and lifts[u][fa].is_homogeneous(sig.degree_of(fa))
        report.add("frame lift on %s projects to the identity on J/J^2" % u, ok)
    return lifts, report


# -- stage 3: assembly and verification -----------------------------------


class SplittingResult:
    def __init__(self, atlas, bundle, split_atlas, family, lifts, iso, report):
        self.atlas = atlas
        self.bundle = bundle
        self.split_atlas = split_atlas
        self.family = family
        self.lifts = lifts
        self.iso = iso  # chart -> Morphism (split chart -> atlas chart)
        self.report = report


def assemble_iso(atlas, family, lifts, order):
    """Per-chart morphisms onto the split model of the extracted bundle.

    The embedding provides the coefficient images, the frame lifts the
    formal-variable images; multiplicativity on symmetric powers is then the
    pullback of the assembled coordinate morphism.
    """
    sig = atlas.signature
    bundle = extract_bundle(atlas)
    split_atlas = build_split_model(
        bundle, order, triples=atlas.triples, partition=atlas.partition
    )
    iso = {}
    for u in atlas.charts:
        images = dict(family.values[u])
        for fa in sig.formal_names:
            images[fa] = lifts[u][fa]
        iso[u] = Morphism(sig, sig, images, order)
    return bundle, split_atlas, iso


def verify_iso(atlas, split_atlas, iso, order, report=None):
    """Unitality, degree preservation, multiplicativity on generators,
    intertwining of the two atlases, and invertibility modulo J^(K+1)."""
    report = Report() if report is None else report
    sig = atlas.signature
    for u in atlas.charts:
        m = iso[u]
        one = GSeries.one(sig, order)
        gens = [GSeries.generator(sig, nm, order) for nm, _ in sig.variables()]
        pairs = [(i, j) for i in range(len(gens)) for j in range(i, len(gens))]
        out = m.pullbacks([one] + gens + [gens[i] * gens[j] for i, j in pairs])
        pulled, lhs = out[1:len(gens) + 1], out[len(gens) + 1:]
        report.add("iso %s: unital" % u, out[0] == one)
        ok = all(
            m.images[nm].is_homogeneous(d) for nm, d in sig.variables()
        )
        report.add("iso %s: degree-preserving" % u, ok)
        mult_ok = all(
            atlas.reduce_series(prod - pulled[i] * pulled[j]).is_zero()
            for (i, j), prod in zip(pairs, lhs)
        )
        report.add("iso %s: multiplicative on generators" % u, mult_ok)
        inv_ok = True
        for fa in sig.formal_names:
            mu = [0] * sig.nformal
            mu[sig.formal_index(fa)] = 1
            diag = m.images[fa].coeff_of(mu)
            if diag.as_rational() in (None, Fraction(0)):
                inv_ok = False
        report.add("iso %s: invertible modulo J^%d" % (u, order + 1), inv_ok)
    for (u, v) in atlas.transitions:
        if u == v:
            continue
        # the iso expresses split coordinates over atlas coordinates, so its
        # pullback maps split functions into the atlas; the two ways around
        # the overlap square must agree
        lhs = compose(split_atlas.transition(u, v), iso[u])
        rhs = compose(iso[v], atlas.transition(u, v))
        resid = first_residual(
            (nm, atlas.reduce_series(lhs.images[nm] - rhs.images[nm]))
            for nm, _ in sig.variables()
        )
        report.add("iso intertwines transitions on (%s, %s)" % (u, v),
                   resid is None, resid or "")
    # the split side is in block-diagonal normal form by construction; assert
    bd_ok = True
    for (u, v), m in split_atlas.transitions.items():
        for fa in sig.formal_names:
            img = m.images[fa]
            for mu in img.terms:
                if mono_order(mu) != 1:
                    bd_ok = False
                for b, k in enumerate(mu):
                    if k and sig.degree_of(sig.formal_names[b]) != sig.degree_of(fa):
                        bd_ok = False
    report.add("split-model transitions are block diagonal", bd_ok)
    return report


def verify_result(atlas, iso, order, report=None, embedding=None, bundle_lines=None):
    """Re-check a splitting result against its atlas from the iso data alone.

    The embedding family and frame lifts are read off the per-chart morphisms;
    every verification is recomputed, so a corrupted correction term surfaces
    as a localized residual.  When given, the result's embedding block
    (chart -> {base var -> GSeries}) must equal the iso base images, and its
    bundle block lines must equal those printed for the atlas's bundle.
    """
    report = Report() if report is None else report
    sig = atlas.signature
    missing = [u for u in atlas.charts if u not in iso]
    if missing:
        raise SplittingError("the result has no iso for atlas chart %s" % missing[0])
    if embedding is not None:
        for u in atlas.charts:
            got = embedding.get(u, {})
            bad = [bn for bn in sig.base_names if got.get(bn) != iso[u].images[bn]]
            bad += sorted(set(got) - set(sig.base_names))
            report.add("embedding block matches iso on %s" % u, not bad,
                       "differs on %s" % bad[0] if bad else "")
        for u in sorted(set(embedding) - set(atlas.charts)):
            report.add("embedding block chart %s is in the atlas" % u, False)
    family = EmbeddingFamily(
        atlas,
        {u: {bn: iso[u].images[bn] for bn in sig.base_names} for u in atlas.charts},
        order,
    )
    lifts = {
        u: {fa: iso[u].images[fa] for fa in sig.formal_names} for u in atlas.charts
    }
    _check_augmentation(family, report)
    for (u, v) in atlas.transitions:
        if u == v:
            continue
        resid = first_residual(embedding_mismatch(family, (u, v)).items())
        report.add("embedding consistency on (%s, %s)" % (u, v), resid is None, resid or "")
        resid = first_residual(frame_mismatch(family, lifts, (u, v)).items())
        report.add("frame-lift consistency on (%s, %s)" % (u, v), resid is None, resid or "")
    bundle = extract_bundle(atlas)
    if bundle_lines is not None:
        from .formats import print_bundle

        want = print_bundle(bundle).splitlines()
        pairs = enumerate(zip_longest(bundle_lines, want))
        bad = next((i for i, (got, exp) in pairs if got != exp), None)
        report.add("bundle block matches the atlas", bad is None,
                   "" if bad is None else "first difference at bundle line %d" % (bad + 1))
    split_atlas = build_split_model(
        bundle, order, triples=atlas.triples, partition=atlas.partition
    )
    report = verify_iso(atlas, split_atlas, iso, order, report)
    return report


def split(atlas, order):
    """The full pipeline: validate, embed, lift, assemble, verify."""
    report = Report()
    vrep = validate_atlas(atlas)
    report.extend(vrep)
    if not vrep.passed:
        raise SplittingError("atlas gluing data is inconsistent:\n%s" % vrep)
    family, report = build_base_embedding(atlas, order, report)
    lifts, report = build_module_splitting(atlas, family, order, report)
    bundle, split_atlas, iso = assemble_iso(atlas, family, lifts, order)
    report = verify_iso(atlas, split_atlas, iso, order, report)
    return SplittingResult(atlas, bundle, split_atlas, family, lifts, iso, report)
