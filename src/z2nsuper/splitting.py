"""Constructive splitting of a supermanifold atlas into its graded-bundle model.

The pipeline corrects one family of chart morphisms Phi_U, starting from the
identity, order by order up to the atlas order K (a splitting at a lower
order k is that of `atlas.truncate(k)`, the atlas modulo J^(k+1)):

  1. on the base coordinates, to an embedding of the smooth functions into
     the structure algebra, chartwise;
  2. on the formal variables, to a right inverse of J -> J/J^2 on the
     degree-shifted frame, as modules over the embedded smooth functions;
  3. the corrected Phi_U is the per-chart isomorphism onto the split model,
     checked in a verification report.

Stages 1 and 2 measure one overlap mismatch, `overlap_mismatch`:
Phi_U(y) - R_UV^*(T_VU(y) mod J^2), with R_UV^* = T_UV^* Phi_V^* and
T_VU mod J^2 the split-model transition.  R_UV^* is read as two pullbacks,
or through the composition R_UV = compose(Phi_V, T_UV) when that is made
anyway.  Stage 1 reads the mismatch on the base coordinates
(`cocycle_mismatch`), stage 2 on the formal variables (`lift_mismatch`);
`verify_result` compares the result's isos with the pulled-back side,
`overlap_pullback`, on both.  Both stages run the one order-raising Cech
loop, `_raise_order`, which corrects only the variables its mismatch reads.
At order k the chart morphisms agree on overlaps below order k, so the
mismatch on each ordered pair is pure order k: a Cech 1-cocycle, which the
partition of unity makes a coboundary (eta_U = -sum_W rho_W omega_UW).
Adding eta to the images makes them agree on overlaps up to order k.  The
loop measures the mismatch once per order: the one of the corrected family
at order k + 1 gives both the order-k consistency line and the next
cocycle.  Stage 1 checks each cocycle and its coboundary in one pass,
`check_cech`, with one `transport_derivation` (one base Jacobian, one
pullback) per ordered pair.

Each stage takes the Report it writes to and returns only what it builds:
stage 2 returns with its family the R_UV = compose(Phi_V, T_UV) through
which it read its order-K mismatch, `verify_result` composes R_UV once per
overlap for both consistency lines, and `verify_iso` reuses them for the
intertwining check.  A split result holds each chart morphism once, as its
iso.  Every line that compares series states lhs = rhs per row through
`Report.equal`, decided modulo J^(K+1) and the partition relation.
"""

from __future__ import annotations

from itertools import zip_longest

from .atlas import Report, build_split_model, extract_bundle, validate_atlas
from .coeffexpr import CoeffExpr
from .formats import print_bundle
from .gseries import GSeries, combine
from .morphisms import Morphism, SingularBlock, block_inverse, compose


class SplittingError(RuntimeError):
    pass


class MissingPartition(SplittingError):
    """The coboundary step needs a partition of unity on the atlas."""


# -- the family of chart morphisms ----------------------------------------


class EmbeddingFamily:
    """Per chart, the chart morphism Phi_U, held as its images on every
    variable: on the base coordinates a degree-0 unital algebra morphism
    from smooth functions, the embedding.  Read at an order below that of
    its images, a family reads them truncated, since `Morphism` does."""

    def __init__(self, atlas, images, order):
        self.atlas = atlas
        self.images = images  # chart -> {var -> GSeries}
        self.order = order

    @classmethod
    def identity(cls, atlas, order):
        sig = atlas.signature
        images = {
            u: {nm: GSeries.generator(sig, nm, order) for nm, _ in sig.variables()}
            for u in atlas.charts
        }
        return cls(atlas, images, order)

    def as_morphism(self, chart):
        """The chart morphism Phi_U.  Its pullback of a coefficient function
        reads only the base images: it is the embedding."""
        sig = self.atlas.signature
        return Morphism(sig, sig, self.images[chart], self.order)

    def apply(self, chart, expr):
        """The embedding of a coefficient function into the chart algebra."""
        return self.as_morphism(chart).pullback_coeff(expr)


# -- the overlap mismatch -------------------------------------------------


def overlap_pullback(atlas, order, through, pair, names):
    """{y -> R_UV^*(T_VU(y) mod J^2) at `order`}, per variable y in names.

    R_UV^* = T_UV^* Phi_V^*, with Phi_V chart V's morphism.  `through`
    holds the morphisms pulled back through in turn: (phi_v, T_UV), two
    pullbacks, or (R_UV,), the composition compose(phi_v, T_UV) made once.
    Exact pullbacks are associative, so both read the same series.  T_VU mod
    J^2 is the split-model transition: a base image keeps its base map, a
    formal image its linear rows.
    """
    u, v = pair
    t_vu = atlas.transition(v, u)
    rights = [t_vu.images[y].truncate(1).at_order(order) for y in names]
    for m in through:
        rights = m.pullbacks(rights)
    return {y: right.truncate(order) for y, right in zip(names, rights)}


def overlap_mismatch(atlas, phi_u, through, pair, names, k, what):
    """{y -> Phi_U(y) - R_UV^*(T_VU(y) mod J^2)} over chart U, per variable y
    in names, reduced by the partition relation, with phi_u chart U's
    morphism and R_UV^* read as in `overlap_pullback`; a `what` mismatch
    with a term below order k is inconsistent input."""
    rights = overlap_pullback(atlas, phi_u.order, through, pair, names)
    mismatch = {y: atlas.reduce_series(phi_u.images[y] - r) for y, r in rights.items()}
    for name, d in mismatch.items():
        if d.j_order() < k:
            raise SplittingError(
                "%s mismatch on %s for pair %s has terms below order %d; "
                "input is inconsistent" % (what, name, pair, k)
            )
    return mismatch


def _family_mismatch(family, pair, order, names, what):
    """The overlap mismatch of the family's chart morphisms on names, read
    through two pullbacks; must be pure order `order`."""
    phi_u, phi_v = (family.as_morphism(c) for c in pair)
    through = (phi_v, family.atlas.transition(*pair))
    return overlap_mismatch(family.atlas, phi_u, through, pair, names, order, what)


def cocycle_mismatch(family, pair, order):
    """The overlap mismatch of the base coordinates."""
    return _family_mismatch(family, pair, order, family.atlas.signature.base_names, "embedding")


def lift_mismatch(family, pair, order):
    """The overlap mismatch of the formal variables."""
    return _family_mismatch(family, pair, order, family.atlas.signature.formal_names,
                            "frame-lift")


def transport_derivation(atlas, u, v, derivations, order):
    """Express derivations given by V-chart values on the U chart.

    Chain rule through the base transition, then coordinate transport of the
    values through T_UV, each made once for all of them.  Returns one
    {base var -> GSeries} per derivation, in order.
    """
    sig, names = atlas.signature, atlas.signature.base_names
    base_vu = atlas.transition(v, u).base_map()  # U base coordinates as functions of the V chart
    jacobian = [[(bv, d) for bv in names if not (d := base_vu[bn].diff(bv)).is_zero()]
                for bn in names]
    accs = [combine(sig, order, [(omega[bv], d) for bv, d in row])
            for omega in derivations for row in jacobian]
    pulled = [atlas.reduce_series(s.truncate(order))
              for s in atlas.transition(u, v).pullbacks(accs)]
    return [dict(zip(names, pulled[i:i + len(names)])) for i in range(0, len(pulled), len(names))]


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
        others = [w for w in atlas.charts if w != u]
        for w in others:
            if (u, w) not in omegas:
                raise SplittingError(
                    "no mismatch data for pair (%s, %s); declare the overlap "
                    "or a zero cocycle for it" % (u, w)
                )
        pairs = {nm: [(omegas[(u, w)][nm], -atlas.partition[w]) for w in others] for nm in names}
        etas[u] = {nm: atlas.reduce_series(combine(sig, order, ps)) for nm, ps in pairs.items()}
    return etas


def check_cech(atlas, omegas, etas, order, report, tag):
    """Antisymmetry on pairs, the triple identity on the declared nerve and
    delta eta = omega under the partition relation, for the cocycle omegas
    and its coboundary etas.  Each ordered pair (U, V) moves the V-chart
    derivations these lines read onto chart U in one `transport_derivation`
    call."""
    names = atlas.signature.base_names
    triples = [(u, v, w) for (u, v, w) in atlas.triples
               if (u, v) in omegas and (v, w) in omegas and (u, w) in omegas]
    on_u = {}  # omega_VW on chart U at (U, V, W), so omega_VU at (U, V, U); eta_V at (U, V)
    for (u, v) in omegas:
        keys = [(u, v, u)] + [t for t in triples if t[:2] == (u, v)]
        derivations = [omegas[(v, w)] for _, _, w in keys] + [etas[v]]
        on_u.update(zip(keys + [(u, v)], transport_derivation(atlas, u, v, derivations, order)))
    for (u, v) in omegas:
        report.equal("%s antisymmetry %s%s" % (tag, u, v), (
            (bn, omegas[(u, v)][bn], -on_u[(u, v, u)][bn]) for bn in names
        ), atlas.reduce_series)
    for (u, v, w) in triples:
        report.equal("%s triple-cocycle %s,%s,%s" % (tag, u, v, w), (
            (bn, omegas[(u, v)][bn] + on_u[(u, v, w)][bn], omegas[(u, w)][bn]) for bn in names
        ), atlas.reduce_series)
    for (u, v) in omegas:
        report.equal("%s coboundary %s%s" % (tag, u, v), (
            (bn, omegas[(u, v)][bn], on_u[(u, v)][bn] - etas[u][bn]) for bn in names
        ), atlas.reduce_series)


# -- the order-raising Cech loop -----------------------------------------


def _raise_order(atlas, images, mismatch, report, tag, check=None):
    """The order-raising Cech loop, from order 2 up to the atlas order K.

    images: chart -> {var -> GSeries} at order K, consistent on overlaps
    below order 2.  mismatch(images, at, pair, k) gives the overlap mismatch
    {var -> GSeries} of the images read at order `at`, checked to vanish
    below order k.  At each order k the mismatch, pure order k, is a
    cocycle, and the variables it names are corrected by its coboundary.
    check(atlas, omegas, etas, k, report, name), when given, records the
    checks on the cocycle and its coboundary under name; stage 1's is
    `check_cech`.

    One mismatch per order: the corrected images are read at k + 1 and
    measured there once.  Truncation is a ring homomorphism and commutes with
    the Taylor expansion, so that mismatch truncated to k is the order-k
    "consistency after correction" line; when it vanishes, the mismatch
    is the cocycle of order k + 1.  When it does not, order k + 1 measures
    again, which raises on the terms below it.
    Returns the images, consistent on every overlap.
    """
    pairs, order = atlas.overlaps, atlas.order
    if not pairs:
        return images
    omegas = None  # the mismatch of the images at order k, once measured
    for k in range(2, order + 1):
        name = "%s order %d" % (tag, k)
        if omegas is None:
            omegas = {pair: mismatch(images, k, pair, k) for pair in pairs}
        if all(s.is_zero() for per in omegas.values() for s in per.values()):
            report.add("%s: no mismatch" % name, True)
            omegas = None
            continue
        etas = solve_coboundary(atlas, omegas, k)
        if check is not None:
            check(atlas, omegas, etas, k, report, name)
        images = {
            u: {**per, **{nm: per[nm] + eta.at_order(order) for nm, eta in etas[u].items()}}
            for u, per in images.items()
        }
        omegas = {pair: mismatch(images, min(k + 1, order), pair, k) for pair in pairs}
        zero = GSeries.zero(atlas.signature, k)
        if not report.equal("%s: consistency after correction" % name, (
            ("(%s, %s) %s" % (u, v, nm), s.truncate(k), zero)
            for (u, v), per in omegas.items() for nm, s in per.items()
        ), atlas.reduce_series):
            omegas = None
    return images


def _check_augmentation(atlas, images, report):
    """epsilon o phi = id on every chart; images: chart -> {var -> GSeries}."""
    for u in atlas.charts:
        report.equal("epsilon o phi = id on %s" % u, (
            (bn, images[u][bn].epsilon(), CoeffExpr.var(bn)) for bn in atlas.signature.base_names
        ), atlas.partition_reduce)


# -- stage 1: the base embedding ------------------------------------------


def build_base_embedding(atlas, report):
    """The identity family with its base images raised order by order by the
    Cech loop to an embedding."""

    def mismatch(images, at, pair, k):
        return cocycle_mismatch(EmbeddingFamily(atlas, images, at), pair, k)

    identity = EmbeddingFamily.identity(atlas, atlas.order)
    images = _raise_order(atlas, identity.images, mismatch, report, "embedding", check_cech)
    _check_augmentation(atlas, images, report)
    return EmbeddingFamily(atlas, images, atlas.order)


# -- stage 2: the module splitting ----------------------------------------


def build_module_splitting(atlas, family, report):
    """The family with its formal images raised order by order by the Cech
    loop to a right inverse of J -> J/J^2 on the chart frames, and per
    overlap (U, V) the composition R_UV = compose(Phi_V, T_UV) of the
    returned family through which it read the mismatch at the atlas order;
    there is none when the atlas order is reached with a mismatch already
    measured to vanish."""
    sig, composed = atlas.signature, {}

    def mismatch(images, at, pair, k):
        read = EmbeddingFamily(atlas, images, at)
        if k < atlas.order:
            return lift_mismatch(read, pair, k)
        u, v = pair
        r_uv = composed[pair] = compose(read.as_morphism(v), atlas.transition(u, v))
        return overlap_mismatch(atlas, read.as_morphism(u), (r_uv,), pair, sig.formal_names, k,
                                "frame-lift")

    images = _raise_order(atlas, family.images, mismatch, report, "frame lift")
    for u in atlas.charts:
        report.add("frame lift on %s projects to the identity on J/J^2" % u, all(
            images[u][fa].truncate(1) == GSeries.generator(sig, fa, 1)
            and images[u][fa].is_homogeneous(sig.degree_of(fa)) for fa in sig.formal_names
        ))
    return EmbeddingFamily(atlas, images, atlas.order), composed


# -- stage 3: assembly and verification -----------------------------------


class SplittingResult:
    def __init__(self, atlas, bundle, split_atlas, iso, report):
        self.atlas = atlas
        self.bundle = bundle
        self.split_atlas = split_atlas
        self.iso = iso  # chart -> Morphism (split chart -> atlas chart)
        self.report = report


def verify_iso(atlas, split_atlas, iso, report, composed):
    """Unitality, degree preservation, multiplicativity on generators,
    intertwining of the two atlases, and invertibility modulo J^(K+1).

    composed holds per overlap (U, V) the composition R_UV =
    compose(iso[V], T_UV) that the caller already made; an overlap it lacks
    is composed here."""
    sig, order = atlas.signature, atlas.order
    one = GSeries.one(sig, order)
    names = [nm for nm, _ in sig.variables()]
    gens = [GSeries.generator(sig, nm, order) for nm in names]
    pairs = [(i, j) for i in range(len(gens)) for j in range(i, len(gens))]
    series = [one] + gens + [gens[i] * gens[j] for i, j in pairs]
    for u in atlas.charts:
        m = iso[u]
        out = m.pullbacks(series)
        pulled, lhs = out[1:len(gens) + 1], out[len(gens) + 1:]
        report.equal("iso %s: unital" % u, [("1", out[0], one)], atlas.reduce_series)
        ok = all(
            m.images[nm].is_homogeneous(d) for nm, d in sig.variables()
        )
        report.add("iso %s: degree-preserving" % u, ok)
        report.equal("iso %s: multiplicative on generators" % u, (
            ("(%s, %s)" % (names[i], names[j]), prod, pulled[i] * pulled[j])
            for (i, j), prod in zip(pairs, lhs)
        ), atlas.reduce_series)
        try:
            for d, vs in sig.formal_blocks.items():
                block_inverse(m, d, vs, vs)
            inv_ok = True
        except SingularBlock:
            inv_ok = False
        report.add("iso %s: invertible modulo J^%d" % (u, order + 1), inv_ok)
    for (u, v) in atlas.overlaps:
        # the iso expresses split coordinates over atlas coordinates, so its
        # pullback maps split functions into the atlas; the two ways around
        # the overlap square must agree
        lhs = compose(split_atlas.transition(u, v), iso[u])
        rhs = composed.get((u, v)) or compose(iso[v], atlas.transition(u, v))
        report.equal("iso intertwines transitions on (%s, %s)" % (u, v), (
            (nm, lhs.images[nm], rhs.images[nm]) for nm in names
        ), atlas.reduce_series)
    # the split side is in block-diagonal normal form by construction: every
    # formal image is linear (Morphism already holds each to its degree)
    report.add("split-model transitions are block diagonal", all(
        m.images[fa] == m.images[fa].truncate(1)
        for m in split_atlas.transitions.values() for fa in sig.formal_names
    ))


def verify_result(atlas, iso, embedding=None, bundle_lines=None):
    """Re-check a splitting result against its atlas, at the atlas order, from
    the iso data alone.

    The overlap mismatch is measured through the per-chart morphisms
    themselves; every verification is recomputed, so a corrupted correction
    term surfaces as a localized residual.  When given, the result's
    embedding block (chart -> {base var -> GSeries}) must equal the iso base
    images, and its bundle block lines must equal those printed for the
    atlas's bundle.
    """
    report = Report()
    sig = atlas.signature
    missing = [u for u in atlas.charts if u not in iso]
    if missing:
        raise SplittingError("the result has no iso for atlas chart %s" % missing[0])
    extra = [u for u in iso if u not in atlas.charts]
    if extra:
        raise SplittingError("the result has an iso for chart %s, which is not in the atlas"
                             % extra[0])
    if embedding is not None:
        for u in atlas.charts:
            got = embedding.get(u, {})
            bad = [bn for bn in sig.base_names if got.get(bn) != iso[u].images[bn]]
            bad += sorted(set(got) - set(sig.base_names))
            report.add("embedding block matches iso on %s" % u, not bad,
                       "differs on %s" % bad[0] if bad else "")
        for u in sorted(set(embedding) - set(atlas.charts)):
            report.add("embedding block chart %s is in the atlas" % u, False)
    _check_augmentation(atlas, {u: iso[u].images for u in atlas.charts}, report)
    composed = {(u, v): compose(iso[v], atlas.transition(u, v)) for (u, v) in atlas.overlaps}
    names = sig.base_names + sig.formal_names
    for (u, v), r_uv in composed.items():
        rights = overlap_pullback(atlas, iso[u].order, (r_uv,), (u, v), names)
        for what, ys in (("embedding", sig.base_names), ("frame-lift", sig.formal_names)):
            report.equal("%s consistency on (%s, %s)" % (what, u, v),
                         ((y, iso[u].images[y], rights[y]) for y in ys), atlas.reduce_series)
    bundle = extract_bundle(atlas)
    if bundle_lines is not None:
        want = print_bundle(bundle).splitlines()
        pairs = enumerate(zip_longest(bundle_lines, want))
        bad = next((i for i, (got, exp) in pairs if got != exp), None)
        report.add("bundle block matches the atlas", bad is None,
                   "" if bad is None else "first difference at bundle line %d" % (bad + 1))
    verify_iso(atlas, build_split_model(bundle, atlas.order), iso, report, composed)
    return report


def split(atlas):
    """The full pipeline at the atlas order: validate, embed, lift, assemble, verify."""
    report = validate_atlas(atlas)
    if not report.passed:
        raise SplittingError("atlas gluing data is inconsistent:\n%s" % report)
    family = build_base_embedding(atlas, report)
    family, composed = build_module_splitting(atlas, family, report)
    bundle = extract_bundle(atlas)
    split_atlas = build_split_model(bundle, atlas.order)
    iso = {u: family.as_morphism(u) for u in atlas.charts}
    verify_iso(atlas, split_atlas, iso, report, composed)
    return SplittingResult(atlas, bundle, split_atlas, iso, report)
