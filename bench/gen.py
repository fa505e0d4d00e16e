"""Seeded input generators for the benchmark workloads.

Every generator takes a `random.Random` and returns plain z2nsuper objects.
The same seed gives the same objects, and their canonical text gives the same
bytes; nothing here reads the clock or the environment.

Per-job cost depends mostly on which monomials a generated morphism uses
(one choice can cost ten times another), so the structural choices are not
drawn at random: the job in slot `s` of its class takes the monomial
candidates at positions s*t, s*t+1, ... of each image's candidate list, with
t terms per image.  Every batch of a given size therefore holds the same
structures, and the seed decides every rational coefficient, scale, name and
relabeling.  No two jobs of a batch are the same input.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from z2nsuper import (
    Atlas,
    CoeffExpr,
    FinDimAlgebra,
    GSeries,
    Morphism,
    Signature,
    clifford_algebra,
    compose,
    invert,
    quaternion_algebra,
)
from z2nsuper.morphisms import enumerate_monomials

SPLIT_SIG = Signature(2, [("x", "00"), ("y", "11"), ("xi", "01"), ("eta", "10")])

# Two degree-11 self-even variables at n = 2, and an n = 3 signature with two
# self-even degrees (011, 101) and one self-odd degree (111).
INVERT_SIGS = (
    Signature(2, [("x", "00"), ("y", "11"), ("z", "11"), ("xi", "01"), ("eta", "10")]),
    Signature(3, [("x", "000"), ("u", "011"), ("v", "101"), ("w", "111"), ("th", "001")]),
)

# Rational factors on opaque coefficients.
SCALES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
          Fraction(-3, 2), Fraction(3), Fraction(-2, 3))

# Linear scales of the formal variables: distinct primes with fixed signs, so
# no product of scales equals another by accident.  Such coincidences cancel
# mismatch terms and make a job several times cheaper than its neighbours.
LINEAR_SCALES = (2, -3, 5, -7, 11)


def rand_rational(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))


def rand_poly(rng, base_names):
    """r0 + r1 * (the product of the base coordinates), both rationals nonzero."""
    term = CoeffExpr.rational(rand_rational(rng))
    for bn in base_names:
        term = term * CoeffExpr.var(bn)
    return CoeffExpr.rational(rand_rational(rng)) + term


def _rotated(cands, start, count):
    return [cands[(start + i) % len(cands)] for i in range(min(count, len(cands)))]


def rand_endomorphism(rng, sig, order, slot, nterms, coeff_fn, max_term_order):
    """Identity base map, a distinct prime scale on each formal variable, and
    `nterms` terms of order 2..max_term_order per image.

    `slot` is the job's index within its class; it picks the monomials (see
    the module docstring).
    """
    scales = dict(zip(sig.formal_names, rng.sample(LINEAR_SCALES, sig.nformal)))
    images = {}
    for name, deg in sig.variables():
        img = GSeries.generator(sig, name, order) * scales.get(name, 1)
        cands = [mu for mu in enumerate_monomials(sig, min(order, max_term_order), degree=deg)
                 if sum(mu) >= 2]
        if cands:
            for mu in _rotated(cands, slot * nterms, nterms):
                img = img + GSeries.monomial(sig, order, mu, coeff_fn())
        images[name] = img
    return Morphism(sig, sig, images, order)


# -- split_verify ----------------------------------------------------------


def rand_atlas(rng, nchart, order, slot, sig=SPLIT_SIG):
    """A nonsplit, cocycle-consistent atlas on `nchart` charts.

    T_{U,V} is random with opaque coefficients for the first chart U, and
    T_{V,U} = invert(T_{U,V}); the other transitions are
    T_{V,W} = compose(T_{U,W}, T_{V,U}).  Every ordered triple of distinct
    charts satisfies the cocycle condition and is declared.  Each chart
    carries an opaque partition function rho_U of the base coordinates.
    """
    charts = ["U", "V", "W"][:nchart]
    first = charts[0]
    args = [CoeffExpr.var(bn) for bn in sig.base_names]
    trans = {}
    for i, v in enumerate(charts[1:]):
        counter = itertools.count()
        tag = "g" + "abc"[i]

        def opaque():
            return CoeffExpr.app("%s%d" % (tag, next(counter)), args) * rng.choice(SCALES)

        t = rand_endomorphism(rng, sig, order, slot * nchart + i, 1, opaque, order)
        trans[(first, v)] = t
        trans[(v, first)] = invert(t)
    for v, w in itertools.permutations(charts[1:], 2):
        trans[(v, w)] = compose(trans[(first, w)], trans[(v, first)])
    pairs = list(itertools.permutations(charts, 2))
    triples = list(itertools.permutations(charts, 3))
    partition = {u: CoeffExpr.app("rho_%s" % u, args) for u in charts}
    return Atlas(sig, order, charts, pairs, triples, trans, partition)


# -- invert_roundtrip ------------------------------------------------------


def rand_invertible(rng, sig, order, slot):
    """Identity base map, rational linear part, three polynomial terms of order 2-3."""
    return rand_endomorphism(rng, sig, order, slot, 3,
                             lambda: rand_poly(rng, sig.base_names), 3)


# -- template_jacobian -----------------------------------------------------


def rand_template_signature(rng, degrees):
    """A six-variable signature with the given degrees, in seeded declaration
    order and with seeded variable names."""
    degrees = list(degrees)
    rng.shuffle(degrees)
    names = rng.sample(["a", "b", "c", "d", "e", "f", "g", "h", "p", "q", "r", "s"], len(degrees))
    return Signature(len(degrees[0]), list(zip(names, degrees)))


def realization(rng, symbols, nargs):
    """A seeded rational polynomial in placeholders t0.. for each opaque symbol."""
    out = {}
    for sym in sorted(symbols):
        acc = CoeffExpr.rational(rand_rational(rng))
        for j in range(nargs):
            t = CoeffExpr.var("t%d" % j)
            acc = acc + t * rand_rational(rng) + t ** 2 * rand_rational(rng)
        out[sym] = acc
    return out


# -- findim_search ---------------------------------------------------------


def base_algebras():
    """The quaternions and Cl(p, q) with 2 <= p + q <= 3, by name.

    Cl(1, 0) and Cl(0, 1) are left out: with one non-unit basis element they
    have too few distinct relabelings to fill a batch with distinct jobs.
    """
    out = {"H": quaternion_algebra()}
    for p, q in ((2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)):
        out["Cl%d%d" % (p, q)] = clifford_algebra(p, q)
    return out


def relabel(rng, A):
    """A seeded relabeling: basis permutation plus nonzero rational rescaling.

    The new basis is f_s = c_s e_perm[s], labelled "b<s>"; the unit keeps
    scale 1.  Returns (algebra, perm).
    """
    dim = A.dim
    perm = list(range(dim))
    rng.shuffle(perm)
    inv = {old: new for new, old in enumerate(perm)}
    scale = [rand_rational(rng) for _ in range(dim)]
    scale[inv[A.unit]] = Fraction(1)
    table = {}
    # f_s f_t = c_s c_t sum_k a_k e_k = sum_k (c_s c_t a_k / c_k') f_k'
    for s in range(dim):
        for t in range(dim):
            row = {}
            for k, a in A.product(perm[s], perm[t]).items():
                row[inv[k]] = scale[s] * scale[t] * a / scale[inv[k]]
            if row:
                table[(s, t)] = row
    labels = ["b%d" % s for s in range(dim)]
    # the job re-parses the algebra, which runs the unit and associativity checks
    return FinDimAlgebra(labels, inv[A.unit], table, check=False), perm
