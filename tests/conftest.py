"""Shared fixtures: signatures, atlases, random generators, naive oracles."""

from __future__ import annotations

import random
from fractions import Fraction

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


def poly_to_series(c, images, sig, order):
    """Substitute base-coordinate symbols of a polynomial CoeffExpr by series.

    Only valid for polynomial coefficients (no opaque applications); expands
    with ordinary series multiplication, so it is independent of the Taylor
    pullback machinery.
    """
    out = GSeries.zero(sig, order)
    for mono, q in c.terms().items():
        term = GSeries.from_coeff(sig, order, q)
        for atom, power in mono:
            term = term * images[atom.name] ** power
        out = out + term
    return out


def naive_pullback(m, f):
    """Substitute-and-expand oracle for the pullback of a polynomial series."""
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


# -- random generators -----------------------------------------------------


def rand_fraction(rng):
    num = rng.randint(-4, 4)
    den = rng.choice([1, 1, 2, 3])
    return Fraction(num, den)


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
    nz = enumerate_nonzero_degrees(n, "lex")
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


@pytest.fixture
def rng():
    return random.Random(20260824)
