"""Degree-preserving morphisms of superdomains.

A Morphism is stored contravariantly: it maps each target variable to its
image series over the source.  Pulling back a coefficient function composes
it with the base map and Taylor-expands in the higher-order part of the
degree-0 images; pulling back a formal variable substitutes its image.

`Morphism.pullbacks` pulls a list of series back at once.  The work the
series share lives in dicts local to that call, so a morphism holds no cache.
Sums of series go through `gseries.combine`, the one series accumulation
pass, `+` and `-` included: a Taylor expansion combines its leaves once, a
pullback combines each term's expansion times its monomial's image once per
series, and an `invert` sweep row or a template image combines its terms once.
Regrouping the products this way cannot change a result: the arithmetic is
exact and canonical, truncation is a ring homomorphism, and pulled-back
coefficients have degree 0, so they commute with everything.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .coeffexpr import ONE, CoeffExpr
from .degrees import Degree
from .gseries import GSeries, SignatureMismatch, combine, mono_degree, mono_order


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


def taylor(expr, sig, order, amap, shifts, powers=None):
    """Taylor-expand a coefficient function around shifted base coordinates.

    The sum over multi-indices a of (d^a expr)(amap) * shifts^a / a!, where
    shifts maps base coordinate names to GSeries over sig with j_order >= 1
    (so the sum is finite) and amap substitutes the differentiated
    coordinates ({} keeps them).  powers memoises the products shifts^a by
    multi-index prefix, the empty prefix () holding the seed 1; expansions
    with the same shifts and order may share one dict.
    """
    base = list(shifts)
    powers = {} if powers is None else powers
    if () not in powers:
        powers[()] = GSeries.one(sig, order)
    # depth first over the multi-indices a in lexicographic order, from a
    # stack of (i, d^a expr, a, shifts^a, a!) with a fixed below slot i; no
    # closure, so no reference cycle keeps the expansion's values alive
    leaves = []
    stack = [(0, expr, (), powers[()], 1)]
    while stack:
        i, deriv, key, prod, fact = stack.pop()
        if i == len(base):
            coeff = deriv.substitute_vars(amap)
            leaves.append((prod, coeff if fact == 1 else coeff * Fraction(1, fact)))
            continue
        bn = base[i]
        k = 0
        level = []
        while True:
            level.append((i + 1, deriv, key + (k,), prod, fact))
            k += 1
            nxt = key + (k,)
            if nxt not in powers:
                powers[nxt] = prod * shifts[bn]
            prod = powers[nxt]
            if prod.is_zero():
                break
            deriv = deriv.diff(bn)
            if deriv.is_zero():
                break
            fact = fact * k
        stack += reversed(level)
    return combine(sig, order, leaves)


def _monomial_image(cache, formal, mu):
    """The product of formal[a] ** mu[a] in canonical variable order, for a
    nonzero exponent vector: image(mu - e_last) * formal[last], memoised in
    cache."""
    img = cache.get(mu)
    if img is None:
        last = max(a for a, k in enumerate(mu) if k)
        rest = mu[:last] + (mu[last] - 1,) + mu[last + 1 :]
        img = formal[last] if not any(rest) else _monomial_image(cache, formal, rest) * formal[last]
        cache[mu] = img
    return img


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
                if mono_degree(source, mu) != deg:
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

        Per truncation order the shifts (the base images' terms of nonzero
        exponent vector) are cut once, the Taylor expansions share their
        shift products, and each formal monomial's image is built once from
        a shorter one's.  Each term pulls back to its coefficient's expansion
        around the base map times its monomial's image.
        """
        if any(f.sig != self.target for f in fs):
            raise SignatureMismatch("series is not over the morphism target")
        amap = self.base_map()
        shared = {}
        out = []
        for f in fs:
            order = min(self.order, f.order)
            if order not in shared:
                cut = {v: img.truncate(order) for v, img in self.images.items()}
                nil = {bn: GSeries.canonical(self.source, order,
                                             {mu: c for mu, c in cut[bn].terms.items() if any(mu)})
                       for bn in self.target.base_names}
                shared[order] = (nil, {}, {}, [cut[v] for v in self.target.formal_names])
            nil, powers, monos, formal = shared[order]
            pairs = []
            for mu, c in f.terms.items():
                part = taylor(c, self.source, order, amap, nil, powers)
                if not part.is_zero():
                    pairs.append((part, _monomial_image(monos, formal, mu) if any(mu) else ONE))
            out.append(combine(self.source, order, pairs))
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
    """Formal inverse of a morphism by filtered fixed-point iteration.

    The linear part of the formal-variable images must be rational per degree
    block.  When the base map is not the identity, a symbolic inverse must be
    supplied as base_inverse: source base coordinate -> CoeffExpr over the
    target base coordinates.

    Write each forward image as its base or linear part plus a nonlinear part
    h.  A sweep sets psi(x) = base_inverse(x' - psi*(h_x)) and
    psi(xi) = M^-1 (xi' - psi*(h_xi)), with M the linear blocks.  Every h
    has order >= 2, so each sweep is correct to one more order than the one
    before, and by the K-th sweep the input comes back unchanged: a fixed
    point.  At a fixed point, pulling m's images back through psi gives
    base_map(base_inverse(x' - psi*(h_x))) + psi*(h_x) = x' and
    M M^-1 (xi' - psi*(h_xi)) + psi*(h_xi) = xi', that is
    compose(m, psi) == id, provided base_map(base_inverse(x')) = x'.  Both
    conditions are checked: MorphismError if base_inverse does not invert the
    base map symbolically, or if K sweeps end without a fixed point.
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

    def sweep(pulled):
        """The next inverse, given the nonlinear parts pulled back through
        the current one."""
        images = {}
        # base coordinates: b_i evaluated at (x' - psi*(n_i)) via Taylor shift
        shift = {tn: -pulled[tn] for tn in tgt.base_names}
        for sn in src.base_names:
            images[sn] = taylor(base_inverse[sn], tgt, K, {}, shift)
        for d, (tvars, svars) in blocks.items():
            inv = Minv[d]
            rhs = {tv: GSeries.generator(tgt, tv, K) - pulled[tv] for tv in tvars}
            for i, sv in enumerate(svars):
                images[sv] = combine(tgt, K, [(rhs[tv], inv[i][j])
                                              for j, tv in enumerate(tvars) if inv[i][j] != 0])
        return Morphism(tgt, src, images, K)

    # the linear guess: the sweep with the nonlinear parts pulled back to zero
    psi = sweep(dict.fromkeys(h, GSeries.zero(tgt, K)))
    for _ in range(K):
        new_psi = sweep(dict(zip(h, psi.pullbacks(list(h.values())))))
        if new_psi == psi:
            return psi
        psi = new_psi
    raise MorphismError("no fixed point after %d sweeps; the inverse did not converge" % K)


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
