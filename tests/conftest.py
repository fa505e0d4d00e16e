"""Shared fixtures: signatures, atlases, random generators, naive oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest

from z2nsuper import (
    Atlas,
    CoeffExpr,
    Degree,
    GSeries,
    Morphism,
    Signature,
    sign_factor,
)
from z2nsuper.coeffexpr import App, Var


# -- standard signatures ---------------------------------------------------


def sig_n1():
    """One base coordinate and two anticommuting odd variables (n = 1)."""
    return Signature(1, [("x", "0"), ("xi1", "1"), ("xi2", "1")])


def sig_n2():
    """The four-variable n = 2 signature: x even base, y self-even of
    degree 11, xi and eta self-odd of degrees 01 and 10."""
    return Signature(2, [("x", "00"), ("y", "11"), ("xi", "01"), ("eta", "10")])


@pytest.fixture
def sig1():
    return sig_n1()


@pytest.fixture
def sig2():
    return sig_n2()


# -- naive coefficient products ---------------------------------------------


def naive_sum_of_products(pairs):
    """The sum of a*b (or -a*b when negate) over (a, b, negate) triples of
    CoeffExprs, one Fraction product and one Fraction sum per pair of terms.
    A monomial product merges the two power maps and sorts by atom key."""
    out = {}
    for a, b, negate in pairs:
        for m1, c1 in a.terms().items():
            if negate:
                c1 = -c1
            for m2, c2 in b.terms().items():
                powers = dict(m1)
                for atom, p in m2:
                    powers[atom] = powers.get(atom, 0) + p
                m = tuple(sorted(powers.items(), key=lambda t: t[0].key()))
                out[m] = out.get(m, 0) + c1 * c2
    return CoeffExpr(out)


def naive_diff(e, name):
    """d e / d name term by term: the Leibniz and chain rules with every
    product taken by naive_sum_of_products."""
    pairs = []
    for mono, c in e.terms().items():
        for i, (atom, power) in enumerate(mono):
            lowered = ((atom, power - 1),) if power > 1 else ()
            rest = CoeffExpr({mono[:i] + lowered + mono[i + 1:]: c * power})
            if isinstance(atom, Var):
                if atom.name == name:
                    pairs.append((rest, CoeffExpr.rational(1), False))
                continue
            for j, arg in enumerate(atom.args):
                alpha = list(atom.alpha)
                alpha[j] += 1
                outer = naive_sum_of_products(
                    [(rest, CoeffExpr.app(atom.func, atom.args, alpha), False)])
                pairs.append((outer, naive_diff(arg, name), False))
    return naive_sum_of_products(pairs)


def naive_substitute_vars(e, mapping):
    """e with each coordinate in mapping replaced by its image, inside opaque
    arguments too, expanded term by term with naive_sum_of_products."""
    pairs = []
    for mono, c in e.terms().items():
        term = CoeffExpr.rational(c)
        for atom, power in mono:
            if isinstance(atom, Var):
                img = mapping.get(atom.name, CoeffExpr.var(atom.name))
            else:
                args = [naive_substitute_vars(a, mapping) for a in atom.args]
                img = CoeffExpr.app(atom.func, args, atom.alpha)
            for _ in range(power):
                term = naive_sum_of_products([(term, img, False)])
        pairs.append((term, CoeffExpr.rational(1), False))
    return naive_sum_of_products(pairs)


# -- naive word oracle for multiplication ----------------------------------


def word_of(mu):
    """A monomial exponent vector as an explicit word of variable indices."""
    out = []
    for i, k in enumerate(mu):
        out.extend([i] * k)
    return out


def naive_mul_monomials(sig, mu, nu):
    """Bubble-sort normal ordering of the concatenated words.

    Independent of the production rule: signs accumulate one commutation
    factor per adjacent transposition, squares of self-odd variables vanish.
    Returns (sign, exponent tuple) or None.
    """
    degs = sig.formal_degrees()
    word = word_of(mu) + word_of(nu)
    sign = 1
    changed = True
    while changed:
        changed = False
        for t in range(len(word) - 1):
            if word[t] > word[t + 1]:
                sign *= sign_factor(degs[word[t]], degs[word[t + 1]])
                word[t], word[t + 1] = word[t + 1], word[t]
                changed = True
    out = [0] * sig.nformal
    for i in word:
        out[i] += 1
    for i, k in enumerate(out):
        if k >= 2 and sign_factor(degs[i], degs[i]) == -1:
            return None
    return sign, tuple(out)


def naive_left_partial(s, name):
    """Left derivative by a formal variable as a derivation of explicit words.

    d(w1 ... wm) = sum over occurrences t of the variable of
    (prod_{r < t} sign(deg u, deg w_r)) w1 ... (w_t omitted) ... wm.
    """
    sig = s.sig
    iu = sig.formal_index(name)
    du = sig.degree_of(name)
    degs = sig.formal_degrees()
    out = {}
    for mu, c in s.terms.items():
        word = word_of(mu)
        for t, i in enumerate(word):
            if i != iu:
                continue
            sign = 1
            for j in word[:t]:
                sign *= sign_factor(du, degs[j])
            rho = [0] * sig.nformal
            for j in word[:t] + word[t + 1 :]:
                rho[j] += 1
            rho = tuple(rho)
            out[rho] = out.get(rho, CoeffExpr.rational(0)) + c * sign
    return GSeries(sig, s.order, out)


def naive_series_mul(a, b):
    """Term-by-term product through the word oracle."""
    sig = a.sig
    order = min(a.order, b.order)
    out = {}
    for mu, cmu in a.terms.items():
        for nu, cnu in b.terms.items():
            if sum(mu) + sum(nu) > order:
                continue
            hit = naive_mul_monomials(sig, mu, nu)
            if hit is None:
                continue
            s, rho = hit
            c = cmu * cnu * s
            out[rho] = out.get(rho, CoeffExpr.rational(0)) + c
    return GSeries(sig, order, out)


def naive_shift(c, images, sig, order):
    """A coefficient function at base images a + n (a their constant terms,
    n nilpotent): the sum over k of D^k c / k! at a, D = sum_b n_b d/dx^b.

    D^k runs over ordered k-tuples of base coordinates, so this shares no
    code with the multi-index Taylor routine it checks.
    """
    amap = {bn: s.epsilon() for bn, s in images.items()}
    nil = {bn: s - GSeries.from_coeff(sig, order, amap[bn]) for bn, s in images.items()}
    out = GSeries.zero(sig, order)
    layer = [(c, GSeries.one(sig, order))]
    for k in range(order + 1):
        for d, prod in layer:
            out = out + prod * (d.substitute_vars(amap) * Fraction(1, factorial(k)))
        layer = [(d.diff(bn), prod * n) for d, prod in layer for bn, n in nil.items()]
    return out


def poly_to_series(c, images, sig, order):
    """Substitute base-coordinate symbols of a CoeffExpr by series.

    Polynomial parts expand with ordinary series multiplication and opaque
    applications with `naive_shift`, so it is independent of the Taylor
    pullback machinery.
    """
    out = GSeries.zero(sig, order)
    for mono, q in c.terms().items():
        term = GSeries.from_coeff(sig, order, q)
        for atom, power in mono:
            if isinstance(atom, App):
                app = CoeffExpr.app(atom.func, atom.args, atom.alpha)
                term = term * naive_shift(app, images, sig, order) ** power
            else:
                term = term * images[atom.name] ** power
        out = out + term
    return out


def naive_pullback(m, f):
    """Substitute-and-expand oracle for the pullback of a series."""
    sig = m.source
    order = min(m.order, f.order)
    base_images = {bn: m.images[bn].truncate(order) for bn in m.target.base_names}
    out = GSeries.zero(sig, order)
    fvars = m.target.formal_names
    for mu, c in f.terms.items():
        part = poly_to_series(c, base_images, sig, order)
        for a, k in enumerate(mu):
            for _ in range(k):
                part = part * m.images[fvars[a]].truncate(order)
        out = out + part
    return out


def naive_overlap_mismatch(atlas, images, pair, order):
    """The overlap mismatch on (U, V) at `order`, entry by entry through
    naive pullbacks; images maps chart -> {var -> GSeries}, the chart
    morphisms phi.

    Per base coordinate x: phi_U(x) - T_UV^* phi_V(x as a function on V).
    Per formal variable xi_a: phi_U(xi_a) - T_UV^* sum_b phi_V(xi_b)
    phi_V(h_ab), with h the linear block of T_VU.
    """
    sig = atlas.signature
    u, v = pair
    t_uv, t_vu = atlas.transition(u, v), atlas.transition(v, u)
    phi_v = Morphism(sig, sig, images[v], order)

    def phi_v_of(c):
        return naive_pullback(phi_v, GSeries.from_coeff(sig, order, c))

    out = {}
    for bn in sig.base_names:
        right = phi_v_of(t_vu.images[bn].epsilon())
        out[bn] = images[u][bn].truncate(order) - naive_pullback(t_uv, right)
    for fa in sig.formal_names:
        acc = GSeries.zero(sig, order)
        for b, fb in enumerate(sig.formal_names):
            mu = tuple(int(i == b) for i in range(sig.nformal))
            acc = acc + images[v][fb].truncate(order) * phi_v_of(t_vu.images[fa].coeff_of(mu))
        out[fa] = images[u][fa].truncate(order) - naive_pullback(t_uv, acc)
    return {y: atlas.reduce_series(s) for y, s in out.items()}


def naive_linear_blocks(m):
    """Per degree, the matrix of m's coefficients on the single formal
    variables of that degree, entry by entry: row tv, column sv holds the
    coefficient of sv in the image of tv."""
    sig = m.source
    per_degree = {}
    for d, vars_d in sig.formal_blocks.items():
        mat = []
        for tv in vars_d:
            row = []
            img = m.images[tv]
            for sv in vars_d:
                mu = [0] * sig.nformal
                mu[sig.formal_index(sv)] = 1
                row.append(img.coeff_of(mu))
            mat.append(row)
        per_degree[d] = mat
    return per_degree


# -- naive certification of finite-dimensional algebras -----------------------
#
# A table maps (i, j) to {k: c} for e_i e_j = sum_k c e_k, possibly with zero
# coefficients; degrees are tuples of 0/1 bits.


def naive_product(table, i, j):
    """e_i e_j with the zero coefficients dropped."""
    return {k: Fraction(c) for k, c in table.get((i, j), {}).items() if c != 0}


def naive_violations(table, degs):
    """The pairs (i, j), i then j ascending, where e_i e_j differs from
    (-1)^<d_i, d_j> e_j e_i."""
    dim = len(degs)
    out = []
    for i in range(dim):
        for j in range(dim):
            s = (-1) ** sum(a * b for a, b in zip(degs[i], degs[j]))
            if naive_product(table, i, j) != {k: s * c for k, c in naive_product(table, j, i).items()}:
                out.append((i, j))
    return out


def naive_homogeneous(table, degs):
    """Every term of every e_i e_j has degree d_i + d_j."""
    dim = len(degs)
    return all(
        degs[k] == tuple((a + b) % 2 for a, b in zip(degs[i], degs[j]))
        for i in range(dim) for j in range(dim) for k in naive_product(table, i, j)
    )


def naive_certifies(table, unit, degs):
    return not any(degs[unit]) and naive_homogeneous(table, degs) and not naive_violations(table, degs)


def naive_mul(table, v, w):
    """The product of two vectors {basis index: coefficient}, expanded bilinearly."""
    out = {}
    for i, a in v.items():
        for j, b in w.items():
            for k, c in table.get((i, j), {}).items():
                out[k] = out.get(k, 0) + a * b * c
    return {k: c for k, c in out.items() if c != 0}


def naive_first_nonassociative(table, dim):
    """The first (i, j, k) in lexicographic order with (e_i e_j) e_k != e_i (e_j e_k)."""
    e = [{i: Fraction(1)} for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                left = naive_mul(table, naive_mul(table, e[i], e[j]), e[k])
                if left != naive_mul(table, e[i], naive_mul(table, e[j], e[k])):
                    return i, j, k
    return None


def naive_clifford(p, q):
    """Cl_{p,q} as (labels, unit, table) by word bubbling: a blade is a sorted
    tuple of generator indices, a product concatenates the two words and
    bubbles them into increasing order, one sign flip per adjacent
    transposition, a repeated generator replaced by its square."""
    m = p + q
    squares = [Fraction(1)] * p + [Fraction(-1)] * q
    subsets = sorted((tuple(i for i in range(m) if mask >> i & 1) for mask in range(2 ** m)),
                     key=lambda s: (len(s), s))
    index = {s: i for i, s in enumerate(subsets)}
    labels = ["one" if not s else "e" + "".join(str(i + 1) for i in s) for s in subsets]

    def mul(s1, s2):
        word = list(s1) + list(s2)
        sign = Fraction(1)
        changed = True
        while changed:
            changed = False
            for t in range(len(word) - 1):
                if word[t] > word[t + 1]:
                    word[t], word[t + 1] = word[t + 1], word[t]
                    sign = -sign
                    changed = True
                elif word[t] == word[t + 1]:
                    sign = sign * squares[word[t]]
                    del word[t + 1], word[t]
                    changed = True
                    break
        return tuple(word), sign

    table = {}
    for s1 in subsets:
        for s2 in subsets:
            s, c = mul(s1, s2)
            table[index[s1], index[s2]] = {index[s]: c}
    return labels, index[()], table


def rand_unital_table(rng, dim, n):
    """A random unital table on dim basis elements: (unit, table).

    Each pair {i, j} of non-unit elements draws e_i e_j and e_j e_i as
    equal, opposite, unrelated, zero on one side only or both zero.  A
    product has one to three terms, some with a zero coefficient, and most
    aim at the elements that a hidden Z2^n grading allows, so that searches
    find assignments.
    """
    unit = rng.randrange(dim)
    hidden = [0 if i == unit else rng.randrange(1 << n) for i in range(dim)]

    def vec(i, j):
        hit = [k for k in range(dim) if hidden[k] == hidden[i] ^ hidden[j]]
        pool = hit if hit and rng.random() < 0.8 else range(dim)
        return {rng.choice(pool): rand_fraction(rng) for _ in range(rng.randint(1, 3))}

    table = {}
    for i in range(dim):
        table[unit, i] = table[i, unit] = {i: 1}
    others = [i for i in range(dim) if i != unit]
    for a, i in enumerate(others):
        for j in others[a:]:
            kind = rng.choice(["equal", "opposite", "unrelated", "one-sided", "zero"])
            v = vec(i, j)
            if kind == "equal":
                table[i, j], table[j, i] = v, dict(v)
            elif kind == "opposite":
                table[j, i], table[i, j] = v, {k: -c for k, c in v.items()}
            elif kind == "unrelated":
                table[i, j], table[j, i] = v, vec(j, i)
            elif kind == "one-sided":
                table[rng.choice([(i, j), (j, i)])] = v
    return unit, table


def rand_associative_table(rng, dim):
    """A random associative unital table with unit 0: a twisted group algebra
    of Z2^m (dim = 2^m, e_a e_b = (-1)^beta(a, b) e_(a+b) for a random
    bilinear beta) or Q[t]/t^dim, with a random rescaled basis."""
    m = dim.bit_length() - 1
    if dim == 1 << m and rng.random() < 0.6:
        beta = [[rng.randint(0, 1) for _ in range(m)] for _ in range(m)]

        def mul(a, b):
            s = sum(beta[p][q] * (a >> p & 1) * (b >> q & 1) for p in range(m) for q in range(m))
            return a ^ b, (-1) ** s
    else:
        def mul(a, b):
            return (a + b, 1) if a + b < dim else (None, 0)
    scale = [Fraction(1)] + [rand_fraction(rng) or Fraction(1) for _ in range(dim - 1)]
    table = {}
    for a in range(dim):
        for b in range(dim):
            k, s = mul(a, b)
            if k is not None:
                table[a, b] = {k: s * scale[a] * scale[b] / scale[k]}
    return table


# -- random generators -----------------------------------------------------


def rand_fraction(rng):
    num = rng.randint(-4, 4)
    den = rng.choice([1, 1, 2, 3])
    return Fraction(num, den)


def rand_wide_fraction(rng):
    """A rational with a denominator in {1, 2, 3, 7, 11, 2**61 - 1} and a
    numerator that is small or above 2**64."""
    num = rng.choice([rng.randint(-9, 9), rng.choice([-1, 1]) * rng.randint(2 ** 64, 2 ** 66)])
    return Fraction(num, rng.choice([1, 2, 3, 7, 11, 2 ** 61 - 1]))


def rand_wide_coeff(rng, base_names):
    """A random polynomial or opaque coefficient whose coefficients are each
    rescaled by a rand_wide_fraction (a zero one drops the term)."""
    e = rng.choice([rand_poly, rand_opaque_coeff])(rng, base_names)
    return CoeffExpr({m: c * rand_wide_fraction(rng) for m, c in e.terms().items()})


def rand_poly(rng, base_names, max_terms=2, max_deg=2):
    """A random polynomial coefficient in the base coordinates."""
    acc = CoeffExpr.rational(rand_fraction(rng))
    for _ in range(rng.randint(0, max_terms)):
        term = CoeffExpr.rational(rand_fraction(rng))
        for bn in base_names:
            for _ in range(rng.randint(0, max_deg)):
                term = term * CoeffExpr.var(bn)
        acc = acc + term
    return acc


def rand_opaque_coeff(rng, base_names):
    """A random coefficient over opaque atoms, some nested inside others:
    f(x), g(x, x f(x) + 1) and h[a](g(...) - f(x))."""
    x = CoeffExpr.var(rng.choice(base_names))
    f = CoeffExpr.app("f", [x])
    g = CoeffExpr.app("g", [x, x * f + 1])
    h = CoeffExpr.app("h", [g - f], alpha=(rng.randint(0, 1),))
    atoms = [x, f, g, h]
    acc = CoeffExpr.rational(rand_fraction(rng))
    for _ in range(rng.randint(1, 3)):
        term = CoeffExpr.rational(rand_fraction(rng))
        for _ in range(rng.randint(0, 2)):
            term = term * rng.choice(atoms)
        acc = acc + term
    return acc


def rand_series(rng, sig, order, max_terms=4, coeff=rand_poly):
    """A random series; coeff(rng, base_names) draws each coefficient
    (polynomial by default)."""
    from z2nsuper.morphisms import enumerate_monomials

    monos = enumerate_monomials(sig, order)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mu = rng.choice(monos)
        terms[mu] = terms.get(mu, CoeffExpr.rational(0)) + coeff(rng, sig.base_names)
    return GSeries(sig, order, terms)


def rand_signature(rng, n_max=3, q_max=4, nbase=1):
    """A random signature with nbase base coordinates (x, x1, ..) and a few
    formal variables."""
    from z2nsuper.degrees import enumerate_nonzero_degrees

    n = rng.randint(1, n_max)
    nz = enumerate_nonzero_degrees(n)
    variables = [("x%d" % i if i else "x", Degree.zero(n)) for i in range(nbase)]
    for i in range(rng.randint(1, q_max)):
        variables.append(("w%d" % i, rng.choice(nz)))
    return Signature(n, variables)


def rand_morphism(rng, sig, order, max_terms=2, min_order=1):
    """A random valid degree-preserving endomorphism with identity base map.

    Its added terms have order >= min_order; with min_order 2 the linear part
    is the identity, so the morphism is invertible."""
    from z2nsuper.morphisms import enumerate_monomials

    images = {}
    for name, deg in sig.variables():
        img = GSeries.generator(sig, name, order)
        monos = [mu for mu in enumerate_monomials(sig, order, degree=deg)
                 if sum(mu) >= min_order]
        for _ in range(rng.randint(0, max_terms)):
            if not monos:
                break
            mu = rng.choice(monos)
            img = img + GSeries.monomial(sig, order, mu, rand_poly(rng, sig.base_names, 1, 1))
        images[name] = img
    return Morphism(sig, sig, images, order)


# -- splitting fixtures ----------------------------------------------------


def rho(chart):
    """A symbolic partition-of-unity coefficient of one base coordinate."""
    return CoeffExpr.app("rho_%s" % chart, [CoeffExpr.var("x")])


def atlas_split_two_charts(order=3):
    """A two-chart atlas already in split form: xi1 is rescaled on the overlap."""
    sig = sig_n1()
    half = Fraction(1, 2)
    t_uv = {
        "x": GSeries.generator(sig, "x", order),
        "xi1": GSeries.generator(sig, "xi1", order) * 2,
        "xi2": GSeries.generator(sig, "xi2", order),
    }
    t_vu = {
        "x": GSeries.generator(sig, "x", order),
        "xi1": GSeries.generator(sig, "xi1", order) * half,
        "xi2": GSeries.generator(sig, "xi2", order),
    }
    transitions = {
        ("U", "V"): Morphism(sig, sig, t_uv, order),
        ("V", "U"): Morphism(sig, sig, t_vu, order),
    }
    partition = {"U": rho("U"), "V": rho("V")}
    return Atlas(sig, order, ["U", "V"], [("U", "V"), ("V", "U")], [],
                 transitions, partition)


def without_partition(atlas):
    """The same atlas, built without a partition of unity."""
    return Atlas(atlas.signature, atlas.order, atlas.charts, atlas.pairs, atlas.triples,
                 atlas.transitions)


def atlas_nonsplit_base_twist(order=3):
    """Two charts glued by x -> x + g(x) xi1 xi2: a nonsplit base twist."""
    sig = sig_n1()
    g = CoeffExpr.app("g", [CoeffExpr.var("x")])
    xi12 = GSeries.generator(sig, "xi1", order) * GSeries.generator(sig, "xi2", order)
    t_uv = {
        "x": GSeries.generator(sig, "x", order) + xi12 * g,
        "xi1": GSeries.generator(sig, "xi1", order),
        "xi2": GSeries.generator(sig, "xi2", order),
    }
    t_vu = {
        "x": GSeries.generator(sig, "x", order) - xi12 * g,
        "xi1": GSeries.generator(sig, "xi1", order),
        "xi2": GSeries.generator(sig, "xi2", order),
    }
    transitions = {
        ("U", "V"): Morphism(sig, sig, t_uv, order),
        ("V", "U"): Morphism(sig, sig, t_vu, order),
    }
    partition = {"U": rho("U"), "V": rho("V")}
    return Atlas(sig, order, ["U", "V"], [("U", "V"), ("V", "U")], [],
                 transitions, partition)


def atlas_nonsplit_frame_twist(order=3):
    """Two charts glued by xi -> xi + h(x) y eta: a nonsplit frame twist (n = 2)."""
    sig = sig_n2()
    h = CoeffExpr.app("h", [CoeffExpr.var("x")])
    yeta = GSeries.generator(sig, "y", order) * GSeries.generator(sig, "eta", order)
    def imgs(s):
        return {
            "x": GSeries.generator(sig, "x", order),
            "y": GSeries.generator(sig, "y", order),
            "xi": GSeries.generator(sig, "xi", order) + yeta * (h * s),
            "eta": GSeries.generator(sig, "eta", order),
        }
    transitions = {
        ("U", "V"): Morphism(sig, sig, imgs(CoeffExpr.rational(1)), order),
        ("V", "U"): Morphism(sig, sig, imgs(CoeffExpr.rational(-1)), order),
    }
    partition = {"U": rho("U"), "V": rho("V")}
    return Atlas(sig, order, ["U", "V"], [("U", "V"), ("V", "U")], [],
                 transitions, partition)


def atlas_scaled_frame_twist(order=3):
    """Two charts glued by x -> 2x and xi -> xi + h(x) y eta (n = 2): a frame
    twist over a base transition that is not the identity."""
    sig = sig_n2()
    x = CoeffExpr.var("x")
    h, h_half = CoeffExpr.app("h", [x]), CoeffExpr.app("h", [x * Fraction(1, 2)])
    yeta = GSeries.generator(sig, "y", order) * GSeries.generator(sig, "eta", order)

    def imgs(scale, twist):
        return {
            "x": GSeries.generator(sig, "x", order) * scale,
            "y": GSeries.generator(sig, "y", order),
            "xi": GSeries.generator(sig, "xi", order) + yeta * twist,
            "eta": GSeries.generator(sig, "eta", order),
        }
    transitions = {
        ("U", "V"): Morphism(sig, sig, imgs(2, h), order),
        ("V", "U"): Morphism(sig, sig, imgs(Fraction(1, 2), -h_half), order),
    }
    return Atlas(sig, order, ["U", "V"], [("U", "V"), ("V", "U")], [], transitions)


@pytest.fixture
def rng():
    return random.Random(20260824)
