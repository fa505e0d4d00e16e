"""Degree-preserving morphisms of superdomains.

A Morphism is stored contravariantly: it maps each target variable to its
image series over the source.  Pulling back a coefficient function composes
it with the base map and Taylor-expands in the higher-order part of the
degree-0 images; pulling back a formal variable substitutes its image.

`Morphism.pullbacks` pulls a list of series back at once.  The work the
series share lives in dicts local to that call, so a morphism holds no cache.
Each term c * xi^mu is expanded only as far as its product keeps: every
formal variable has a nonzero degree, so xi^mu pulls back to a series of
j_order >= |mu|, and at order K the expansion of c is needed only to order
K - |mu|; a constant c needs none.
Sums of series go through `gseries.combine`, the one series accumulation
pass, `+` and `-` included: a Taylor expansion combines its leaves once, a
pullback combines each term's expansion times its monomial's image once per
series, a template image combines its terms once, and `invert` combines once
each part by order of the products it builds order by order.  `invert`
checks its result by composing it with the morphism it inverts.
Regrouping the products this way cannot change a result: the arithmetic is
exact and canonical, truncation is a ring homomorphism, and pulled-back
coefficients have degree 0, so they commute with everything.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .coeffexpr import ONE, CoeffExpr
from .degrees import Degree
from .gseries import GSeries, SignatureMismatch, combine, mono_degree, mono_mask, mono_order


class MorphismError(ValueError):
    pass


class SingularBlock(MorphismError):
    """The linear part of a formal-variable block is not invertible."""


def enumerate_monomials(sig, max_order, degree=None):
    """All canonical exponent vectors of order <= max_order, optionally of a
    fixed total Z2^n degree.  Self-odd variables are capped at exponent 1."""
    caps = [1 if odd else max_order for odd in sig.formal_self_odd]
    out = [mu for mu in itertools.product(*(range(c + 1) for c in caps))
           if sum(mu) <= max_order]
    if degree is not None:
        degree = Degree(degree)
        out = [mu for mu in out if mono_degree(sig, mu) == degree]
    return out


def _taylor_walk(expr, base, amap, extend):
    """The terms (a, (d^a expr)(amap) / a!) of a Taylor expansion in the
    coordinates base, over exponent vectors a in lexicographic order, from a
    stack without closures.  A slot's exponent rises to q while extend(q)
    says the shift power at q may be nonzero and the derivative does not
    vanish."""
    leaves = []
    stack = [(0, expr, (0,) * len(base), 1)]
    while stack:
        i, deriv, a, fact = stack.pop()
        if i == len(base):
            coeff = deriv.substitute_vars(amap) if amap else deriv
            leaves.append((a, coeff if fact == 1 else coeff * Fraction(1, fact)))
            continue
        level = []
        while True:
            level.append((i + 1, deriv, a, fact))
            a = a[:i] + (a[i] + 1,) + a[i + 1 :]
            if not extend(a):
                break
            deriv = deriv.diff(base[i])
            if deriv.is_zero():
                break
            fact = fact * a[i]
        stack += reversed(level)
    return leaves


def taylor(expr, sig, order, amap, shifts, powers):
    """Taylor-expand a coefficient function around shifted base coordinates.

    The sum over multi-indices a of (d^a expr)(amap) * shifts^a / a!, where
    shifts maps base coordinate names to GSeries over sig at truncation
    order `order` with j_order >= 1 (so the sum is finite) and amap
    substitutes the differentiated coordinates ({} keeps them).  powers
    memoises shifts^a by exponent vector through `_power_product`;
    expansions with the same shifts and order share one dict, empty at the
    first.  Truncation is a ring homomorphism, so the expansion at a lower
    order is this one truncated: a caller that multiplies it by a series of
    j_order m and keeps order K needs it only to order K - m.
    """
    base, factors = list(shifts), list(shifts.values())
    if not powers:
        powers[(0,) * len(base)] = GSeries.one(sig, order)
    leaves = _taylor_walk(expr, base, amap,
                          lambda q: not _power_product(powers, factors, q).is_zero())
    return combine(sig, order, [(powers[a], c) for a, c in leaves])


def _split_last(mu):
    """(mu - e_last, last) for the last slot of mu with a nonzero entry."""
    last = max(a for a, k in enumerate(mu) if k)
    return mu[:last] + (mu[last] - 1,) + mu[last + 1 :], last


def _moved(base_map):
    """A base map without its identity entries v -> v."""
    return {bn: e for bn, e in base_map.items() if e != CoeffExpr.var(bn)}


def _power_product(table, factors, a):
    """The product of factors[i] ** a[i] in canonical order:
    table[a - e_last] * factors[last], a first power being the factor
    itself, memoised in table, which holds the zero vector's product."""
    out = table.get(a)
    if out is None:
        rest, last = _split_last(a)
        out = table[a] = (_power_product(table, factors, rest) * factors[last] if any(rest)
                          else factors[last])
    return out


class Morphism:
    """A degree-preserving superdomain morphism given by target-variable images."""

    def __init__(self, source, target, images, order):
        if source.n != target.n:
            raise SignatureMismatch("source and target have different n")
        self.source = source
        self.target = target
        self.order = order
        self.images = {}
        for name, deg in target.variables():
            if name not in images:
                raise MorphismError("missing image for target variable %r" % name)
            img = images[name]
            if not isinstance(img, GSeries):
                raise MorphismError("image of %r is not a series" % name)
            if img.sig != source:
                raise SignatureMismatch("image of %r is not over the source" % name)
            if img.order > order:
                img = img.truncate(order)
            elif img.order < order:
                raise MorphismError(
                    "image of %r has order %d < morphism order %d"
                    % (name, img.order, order)
                )
            for mu in img.terms:
                if mono_mask(source, mu) != int(deg):
                    raise MorphismError(
                        "image of %r (degree %s) has off-degree monomial %r"
                        % (name, deg, mu)
                    )
            self.images[name] = img
        extra = set(images) - set(self.images)
        if extra:
            raise MorphismError("images for unknown variables: %s" % sorted(extra))

    # -- structure --------------------------------------------------------

    def base_map(self):
        """epsilon of the degree-0 images: target base coordinate -> CoeffExpr."""
        return {bn: self.images[bn].epsilon() for bn in self.target.base_names}

    def is_base_identity(self):
        if len(self.source.base_names) != len(self.target.base_names):
            return False
        for sn, tn in zip(self.source.base_names, self.target.base_names):
            if self.images[tn].epsilon() != CoeffExpr.var(sn):
                return False
        return True

    @classmethod
    def identity(cls, sig, order):
        images = {nm: GSeries.generator(sig, nm, order) for nm, _ in sig.variables()}
        return cls(sig, sig, images, order)

    def __eq__(self, other):
        return (
            isinstance(other, Morphism)
            and self.source == other.source
            and self.target == other.target
            and self.images == other.images
        )

    # -- pullback ---------------------------------------------------------

    def pullback_coeff(self, c):
        """Pull back a coefficient function of the target base coordinates:
        the pullback of the series c * 1."""
        return self.pullback(GSeries.from_coeff(self.target, self.order, c))

    def pullback(self, f):
        """Pull back a series over the target to a series over the source."""
        return self.pullbacks([f])[0]

    def pullbacks(self, fs):
        """Pull back a list of series over the target, in order.

        A term c * xi^mu of a series pulled back at order K is c's Taylor
        expansion around the base map times the image of xi^mu.  Every
        formal variable has a nonzero degree, so its image has j_order >= 1
        and xi^mu's has j_order >= |mu|: only the expansion to order
        K - |mu| reaches the product, and as truncation is a ring
        homomorphism that is the expansion at order K - |mu|.  A constant c
        is its own expansion and scales the image, and so does c at the base
        map when no shift reaches that order.  The shifts (the base images'
        terms of nonzero exponent vector) and their powers are cut once per
        Taylor order, on first use; each formal monomial's image is built
        once per K from a shorter one's.  Identity entries of the base map
        are dropped once, so an identity base map substitutes nothing.
        """
        if any(f.sig != self.target for f in fs):
            raise SignatureMismatch("series is not over the morphism target")
        src, zero = self.source, (0,) * self.source.nformal
        amap = _moved(self.base_map())
        base = {bn: self.images[bn] for bn in self.target.base_names}
        shifts, monos, out = {}, {}, []
        for f in fs:
            order = min(self.order, f.order)
            if order not in monos:
                monos[order] = ({zero: GSeries.canonical(src, order, {zero: ONE})},
                                [self.images[v].truncate(order) for v in self.target.formal_names])
            cache, formal = monos[order]
            pairs = []
            for mu, c in f.terms.items():
                k = order - mono_order(mu)
                if k < 0:
                    continue  # xi^mu pulls back to zero at this order
                img = _power_product(cache, formal, mu)
                if c.as_rational() is None:
                    if k not in shifts:
                        cut = {bn: GSeries.canonical(src, k, {nu: x for nu, x in b.terms.items()
                                                              if any(nu) and mono_order(nu) <= k})
                               for bn, b in base.items()}
                        shifts[k] = (cut, {}) if any(b.terms for b in cut.values()) else None
                    if shifts[k] is not None:
                        cut, powers = shifts[k]
                        part = taylor(c, src, k, amap, cut, powers).at_order(order)
                        pairs.append((part, img if any(mu) else ONE))
                        continue
                    # no shift reaches order k: the expansion is c at the base map
                    c = c.substitute_vars(amap) if amap else c
                pairs.append((img, c))
            out.append(combine(src, order, pairs))
        return out


def compose(m2, m1):
    """The morphism whose pullback is pullback(m1) after pullback(m2)."""
    if m1.target != m2.source:
        raise SignatureMismatch("compose: target of first != source of second")
    order = min(m1.order, m2.order)
    images = dict(zip(m2.images, m1.pullbacks(list(m2.images.values()))))
    return Morphism(m1.source, m2.target, images, order)


# -- inversion ------------------------------------------------------------


def _linear_block(m, tvars, svars):
    """The matrix of m's linear part from svars to tvars, one row per target
    variable, as CoeffExprs."""
    units = [m.source.formal_unit(sv) for sv in svars]
    return [[m.images[tv].coeff_of(mu) for mu in units] for tv in tvars]


def block_inverse(m, d, tvars, svars):
    """The inverse, as Fractions, of m's linear block of degree d from svars
    to tvars, by Gaussian elimination; SingularBlock when an entry is not
    rational or the block is singular."""
    M = [[e.as_rational() for e in row] for row in _linear_block(m, tvars, svars)]
    if any(None in row for row in M):
        raise SingularBlock("linear block of degree %s is not rational; cannot invert" % d)
    nn = len(M)
    aug = [M[i] + [Fraction(int(i == j)) for j in range(nn)] for i in range(nn)]
    for col in range(nn):
        piv = next((r for r in range(col, nn) if aug[r][col] != 0), None)
        if piv is None:
            raise SingularBlock("linear block of degree %s is singular" % d)
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(nn):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[nn:] for row in aug]


def invert(m, base_inverse=None):
    """Formal inverse of a morphism, built order by order, checked by composing.

    The linear part of the formal-variable images must be rational per degree
    block.  When the base map is not the identity, a symbolic inverse must be
    supplied as base_inverse: source base coordinate -> CoeffExpr over the
    target base coordinates.

    Write each forward image as its base or linear part plus a nonlinear part
    h.  The inverse psi has psi(x) = base_inverse(x' - psi*(h_x)) and
    psi(xi) = M^-1 (xi' - psi*(h_xi)), with M the linear blocks: its parts
    of order <= 1 are base_inverse and M^-1, and `_inverse_by_orders` builds
    the rest one order at a time.  MorphismError if base_inverse does not
    invert the base map symbolically, or if compose(m, psi) is not the
    identity.
    """
    src, tgt, K = m.source, m.target, m.order
    if base_inverse is None:
        if not m.is_base_identity():
            raise MorphismError(
                "base map is not the coordinate identity; supply base_inverse"
            )
        base_inverse = {
            sn: CoeffExpr.var(tn) for sn, tn in zip(src.base_names, tgt.base_names)
        }

    missing = [sn for sn in src.base_names if sn not in base_inverse]
    if missing:
        raise MorphismError("base_inverse has no entry for %r" % missing[0])
    for tn, phi in m.base_map().items():
        if phi.substitute_vars(base_inverse) != CoeffExpr.var(tn):
            raise MorphismError("base_inverse does not invert the base map at %r" % tn)

    # positional matching of formal variables per degree block
    blocks = {}
    tblocks, sblocks = tgt.formal_blocks, src.formal_blocks
    for d in sorted(tblocks.keys() | sblocks.keys()):
        tvars, svars = tblocks.get(d, []), sblocks.get(d, [])
        if len(tvars) != len(svars):
            raise SignatureMismatch("source and target differ in degree %s count" % d)
        blocks[d] = (tvars, svars)

    Minv = {d: block_inverse(m, d, tvars, svars) for d, (tvars, svars) in blocks.items()}

    # nonlinear parts of the forward images, by target variable: every
    # formal variable has a nonzero degree, so the terms of order <= 1 are the
    # base map of a base image and the linear row of a formal one
    h = {nm: img - img.truncate(1).at_order(K) for nm, img in m.images.items()}

    # psi's parts of order <= 1
    linear = {sn: GSeries.from_coeff(tgt, K, base_inverse[sn]) for sn in src.base_names}
    linear.update(_solve_blocks(tgt, K, blocks, Minv, {
        tv: GSeries.generator(tgt, tv, K) for tv in tgt.formal_names}))
    psi = Morphism(tgt, src, _inverse_by_orders(tgt, src, K, linear, h, base_inverse,
                                                blocks, Minv), K)
    if compose(m, psi) != Morphism.identity(tgt, K):
        raise MorphismError("the inverse built order by order does not compose to the identity")
    return psi


def _solve_blocks(sig, order, blocks, Minv, rhs):
    """M^-1 rhs per degree block, from rhs: target formal variable -> series."""
    return {sv: combine(sig, order, [(rhs[tv], x) for tv, x in zip(tvars, Minv[d][i]) if x != 0])
            for d, (tvars, svars) in blocks.items() for i, sv in enumerate(svars)}


def _add_powers(table, steps, keys, factors, zero, orders):
    """Make room in table for the parts of order below `orders` of
    prod factors[i] ** a[i] for each a in keys and the shorter products it is
    built from, in `_power_product`'s order; steps gets (parts, table,
    shorter key, factor)."""
    for a in keys:
        while any(a) and a not in table:
            rest, last = _split_last(a)
            table[a] = [zero] * orders if any(rest) else factors[last]
            if any(rest):
                steps.append((table[a], table, rest, factors[last]))
            a = rest


def _inverse_by_orders(tgt, src, K, linear, h, base_inverse, blocks, Minv):
    """The images over tgt of `invert`'s psi, built from its parts of order
    <= 1 (linear: source variable -> series) one order at a time: as every h
    has order >= 2, the order-k part of psi*(h) needs psi's parts below k
    only.  Each part of a product is combined once."""
    zero = GSeries.zero(tgt, K)
    # the parts by order of psi's images less their base map, and of -psi*(h)
    parts = {v: [zero, zero if src.is_base(v) else img] + [zero] * (K - 1)
             for v, img in linear.items()}
    neg = {v: [zero] * (K + 1) for v in h}
    monos, base_powers, neg_powers, steps = {}, {}, {}, []
    _add_powers(monos, steps, [mu for img in h.values() for mu in img.terms],
                [parts[sv] for sv in src.formal_names], zero, K + 1)
    # h's coefficients' negated Taylor terms around psi's base map, and their
    # parts by order to K - 2 (shifts and monomial images have order >= 2)
    amap = _moved({sn: linear[sn].epsilon() for sn in src.base_names})
    expansions = {c: [(a, -x) for a, x in _taylor_walk(c, src.base_names, amap,
                                                       lambda q: 2 * sum(q) <= K - 2)]
                  for c in dict.fromkeys(c for img in h.values() for c in img.terms.values())}
    _add_powers(base_powers, steps, [a for terms in expansions.values() for a, _ in terms[1:]],
                [parts[sn] for sn in src.base_names], zero, K - 1)
    taylor_parts = {c: [terms[0][1]] + [zero] * (K - 2) for c, terms in expansions.items()}
    base_terms = {sn: _taylor_walk(base_inverse[sn], tgt.base_names, {},
                                   lambda q: 2 * sum(q) <= K)[1:] for sn in src.base_names}
    _add_powers(neg_powers, steps, [a for terms in base_terms.values() for a, _ in terms],
                [neg[tn] for tn in tgt.base_names], zero, K + 1)
    # psi's base parts, then the Taylor parts that they shift
    sums = ([(parts[sn], neg_powers, terms) for sn, terms in base_terms.items()]
            + [(taylor_parts[c], base_powers, terms[1:]) for c, terms in expansions.items()])
    for k in range(2, K + 1):
        for ps, table, rest, factor in steps:
            if k < len(ps):
                ps[k] = combine(tgt, K, [(table[rest][j], factor[k - j]) for j in range(k + 1)
                                         if table[rest][j].terms and factor[k - j].terms])
        for v, img in h.items():
            neg[v][k] = combine(tgt, K, [(monos[mu][k - j], taylor_parts[c][j])
                                         for mu, c in img.terms.items() for j in range(k - 1)
                                         if monos[mu][k - j].terms])
        for ps, table, terms in sums:
            if k < len(ps):
                ps[k] = combine(tgt, K, [(table[a][k], x) for a, x in terms
                                         if table[a][k].terms])
        rhs = {tv: neg[tv][k] for tv in tgt.formal_names}
        for sv, part in _solve_blocks(tgt, K, blocks, Minv, rhs).items():
            parts[sv][k] = part
    return {v: GSeries.canonical(tgt, K, {mu: c for part in [linear[v]] + ps[2:]
                                          for mu, c in part.terms.items()})
            for v, ps in parts.items()}


# -- Jacobian -------------------------------------------------------------


class JacobianMatrix:
    """Graded Jacobian: rows are target variables, columns source variables.

    Every nonzero entry is homogeneous of degree
    deg(target row) + deg(source column), because the Morphism constructor
    holds each image to its variable's degree.
    """

    def __init__(self, morphism):
        self.morphism = morphism
        self.rows = [nm for nm, _ in morphism.target.variables()]
        self.cols = [nm for nm, _ in morphism.source.variables()]
        self.entries = {}
        for tv in self.rows:
            img = morphism.images[tv]
            for sv in self.cols:
                self.entries[(tv, sv)] = img.left_partial(sv)

    def entry(self, tv, sv):
        return self.entries[(tv, sv)]

    def expected_degree(self, tv, sv):
        return self.morphism.target.degree_of(tv) + self.morphism.source.degree_of(sv)

    def check_blocks(self):
        """Whether every entry obeys the block law."""
        return all(e.is_homogeneous(self.expected_degree(tv, sv))
                   for (tv, sv), e in self.entries.items())


def jacobian(m):
    return JacobianMatrix(m)


# -- the general coordinate-transformation template -----------------------


def transformation_template(sig, order, coeff_prefix="c"):
    """Admissible monomial shapes for the most general coordinate change.

    For each variable of the signature, all monomials of order <= K whose
    total degree matches the variable's degree, each paired with a fresh
    opaque coefficient symbol of the base coordinates.  Returns
    (shapes, morphism) where shapes maps variable name -> list of exponent
    vectors and the morphism carries the symbolic general transformation.
    """
    shapes = {}
    images = {}
    base_args = [CoeffExpr.var(bn) for bn in sig.base_names]
    for name, deg in sig.variables():
        monos = enumerate_monomials(sig, order, degree=deg)
        monos.sort(key=lambda mu: (mono_order(mu), mu))
        shapes[name] = monos
        images[name] = combine(sig, order, [
            (GSeries.monomial(sig, order, mu),
             CoeffExpr.app("%s_%s_%d" % (coeff_prefix, name, idx), base_args))
            for idx, mu in enumerate(monos)
        ])
    return shapes, Morphism(sig, sig, images, order)
