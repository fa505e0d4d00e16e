"""Truncated series arithmetic against the naive word-ordering oracle."""

import random
from fractions import Fraction

import pytest

from z2nsuper import (
    CoeffExpr,
    GSeries,
    OrderError,
    Signature,
    SignatureMismatch,
    mul_monomials,
    normal_form,
)
from z2nsuper.gseries import INFINITY, mono_order
from z2nsuper.morphisms import compose, enumerate_monomials, invert
from z2nsuper.splitting import build_base_embedding

from conftest import (
    atlas_nonsplit_base_twist,
    naive_left_partial,
    naive_mul_monomials,
    naive_series_mul,
    rand_morphism,
    rand_opaque_coeff,
    rand_series,
    rand_signature,
    sig_n1,
    sig_n2,
)


def test_generator_and_monomial_constructors(sig1):
    x = GSeries.generator(sig1, "x", 3)
    assert x.epsilon() == CoeffExpr.var("x")
    xi = GSeries.generator(sig1, "xi1", 3)
    assert xi.terms == {(1, 0): CoeffExpr.rational(1)}
    assert GSeries.monomial(sig1, 3, (1, 1), 2).terms == {(1, 1): CoeffExpr.rational(2)}


def test_self_odd_variables_square_to_zero(sig1):
    xi = GSeries.generator(sig1, "xi1", 4)
    assert (xi * xi).is_zero()
    assert (xi ** 2).is_zero()


def test_self_even_variables_are_not_nilpotent(sig2):
    y = GSeries.generator(sig2, "y", 5)
    assert not (y ** 5).is_zero()
    assert (y ** 6).is_zero()  # only the truncation kills it


def test_anticommuting_even_pair():
    # degrees 110 and 101 are even but anticommute
    sig = Signature(3, [("x", "000"), ("a", "110"), ("b", "101")])
    a = GSeries.generator(sig, "a", 3)
    b = GSeries.generator(sig, "b", 3)
    assert a * b == -(b * a)
    assert not (a * a).is_zero()


def test_commuting_odd_pair():
    # degrees 100 and 010 are odd but commute
    sig = Signature(3, [("x", "000"), ("u", "100"), ("v", "010")])
    u = GSeries.generator(sig, "u", 3)
    v = GSeries.generator(sig, "v", 3)
    assert u * v == v * u
    assert (u * u).is_zero()


def test_square_binomial_with_nilpotents(sig1):
    one = GSeries.one(sig1, 3)
    y = GSeries.generator(sig1, "x", 3)
    xi12 = GSeries.generator(sig1, "xi1", 3) * GSeries.generator(sig1, "xi2", 3)
    s = one + xi12 * y.epsilon()
    sq = s * s
    assert sq == one + xi12 * (2 * CoeffExpr.var("x"))


def test_truncation(sig2):
    y = GSeries.generator(sig2, "y", 4)
    s = GSeries.one(sig2, 4) + y + y ** 2 + y ** 3
    t = s.truncate(2)
    # y sorts after xi (01) and eta (10) in the canonical degree-lex order
    assert t.order == 2 and sorted(t.terms) == [(0, 0, 0), (0, 0, 1), (0, 0, 2)]
    with pytest.raises(OrderError):
        t.truncate(4)


def test_j_order_and_epsilon(sig1):
    z = GSeries.zero(sig1, 3)
    assert z.j_order() == INFINITY
    xi = GSeries.generator(sig1, "xi1", 3)
    assert xi.j_order() == 1 and xi.epsilon().is_zero()
    assert (xi * GSeries.generator(sig1, "xi2", 3)).j_order() == 2


def test_homogeneity(sig2):
    y = GSeries.generator(sig2, "y", 3)
    xi = GSeries.generator(sig2, "xi", 3)
    eta = GSeries.generator(sig2, "eta", 3)
    assert (xi * eta).is_homogeneous("11")
    assert (y + xi * eta).is_homogeneous("11")
    assert not any((y + xi).is_homogeneous(d) for d in ("00", "01", "10", "11"))
    assert all(GSeries.zero(sig2, 3).is_homogeneous(d) for d in ("00", "01", "10", "11"))


def test_signature_mismatch(sig1, sig2):
    with pytest.raises(SignatureMismatch):
        GSeries.one(sig1, 3) + GSeries.one(sig2, 3)


def test_mul_monomials_matches_bubble_sort_oracle_exhaustively():
    for sig in (sig_n1(), sig_n2()):
        monos = enumerate_monomials(sig, 3)
        for mu in monos:
            for nu in monos:
                assert mul_monomials(sig, mu, nu) == naive_mul_monomials(sig, mu, nu)


def test_series_multiplication_matches_oracle_randomized():
    rng = random.Random(7)
    for _ in range(80):
        sig = rand_signature(rng)
        order = rng.randint(1, 5)
        a = rand_series(rng, sig, order)
        b = rand_series(rng, sig, order)
        assert a * b == naive_series_mul(a, b)


def test_series_multiplication_matches_oracle_opaque_coefficients_up_to_n4():
    rng = random.Random(17)
    seen_n = set()
    for _ in range(60):
        sig = rand_signature(rng, n_max=4, q_max=5)
        seen_n.add(sig.n)
        order = rng.randint(1, 4)
        a = rand_series(rng, sig, order, coeff=rand_opaque_coeff)
        b = rand_series(rng, sig, order, coeff=rand_opaque_coeff)
        assert a * b == naive_series_mul(a, b)
        assert b * a == naive_series_mul(b, a)
    assert seen_n == {1, 2, 3, 4}


def test_left_partial_matches_word_oracle_up_to_n4():
    rng = random.Random(18)
    seen_n = set()
    for _ in range(60):
        sig = rand_signature(rng, n_max=4, q_max=5)
        seen_n.add(sig.n)
        order = rng.randint(1, 4)
        s = rand_series(rng, sig, order, max_terms=6, coeff=rand_opaque_coeff)
        # products fill in the higher monomials the random draw rarely hits
        s = s + s * rand_series(rng, sig, order, coeff=rand_opaque_coeff)
        for name in sig.formal_names:
            assert s.left_partial(name) == naive_left_partial(s, name)
    assert seen_n == {1, 2, 3, 4}


def test_ring_laws_randomized():
    rng = random.Random(8)
    for _ in range(40):
        sig = rand_signature(rng)
        order = rng.randint(1, 4)
        a, b, c = (rand_series(rng, sig, order) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a * GSeries.one(sig, order) == a


def test_graded_commutativity_on_homogeneous_parts():
    rng = random.Random(9)
    from z2nsuper import sign_factor
    from z2nsuper.gseries import mono_degree

    for _ in range(40):
        sig = rand_signature(rng)
        order = rng.randint(1, 4)
        a = rand_series(rng, sig, order)
        b = rand_series(rng, sig, order)
        for mu in a.terms:
            for nu in b.terms:
                u = GSeries.monomial(sig, order, mu, a.terms[mu])
                v = GSeries.monomial(sig, order, nu, b.terms[nu])
                s = sign_factor(mono_degree(sig, mu), mono_degree(sig, nu))
                assert u * v == (v * u) * s


def test_normal_form_words(sig1):
    xi12 = normal_form(["xi1", "xi2"], sig_n1(), 3)
    xi21 = normal_form(["xi2", "xi1"], sig_n1(), 3)
    assert xi21 == -xi12
    assert normal_form(["xi1", "xi1"], sig_n1(), 3).is_zero()
    mixed = normal_form([CoeffExpr.var("x"), "xi1", Fraction(1, 2)], sig1, 3)
    assert mixed.terms == {(1, 0): CoeffExpr.var("x") * Fraction(1, 2)}


def test_left_partial_base_and_formal(sig1):
    x = CoeffExpr.var("x")
    xi1 = GSeries.generator(sig1, "xi1", 3)
    xi2 = GSeries.generator(sig1, "xi2", 3)
    s = xi1 * xi2 * (x * x)
    assert s.left_partial("x") == xi1 * xi2 * (2 * x)
    # left derivative: d_xi1 (xi1 xi2) = xi2, d_xi2 (xi1 xi2) = -xi1
    assert s.left_partial("xi1") == xi2 * (x * x)
    assert s.left_partial("xi2") == -(xi1 * (x * x))


def test_left_partial_graded_leibniz_randomized():
    rng = random.Random(10)
    from z2nsuper import sign_factor

    for _ in range(30):
        sig = rand_signature(rng)
        order = rng.randint(1, 4)
        f = rand_series(rng, sig, order)
        g = rand_series(rng, sig, order)
        for name in sig.formal_names + sig.base_names:
            du = sig.degree_of(name)
            lhs = (f * g).left_partial(name)
            rhs = f.left_partial(name) * g
            # sign(deg u, deg f) per homogeneous piece of f
            from z2nsuper.gseries import mono_degree

            for mu, c in f.terms.items():
                piece = GSeries.monomial(sig, order, mu, c)
                s = sign_factor(du, mono_degree(sig, mu))
                rhs = rhs + piece * g.left_partial(name) * s
            # derivatives lower the filtration, so the identity is only
            # guaranteed one order below the truncation
            assert lhs.truncate(order - 1) == rhs.truncate(order - 1)


def assert_canonical(s):
    """The invariant GSeries keeps by construction: tuple keys of length
    nformal and order <= K, self-odd exponents <= 1, nonzero CoeffExprs."""
    sig = s.sig
    for mu, c in s.terms.items():
        assert type(mu) is tuple and len(mu) == sig.nformal
        assert sum(mu) <= s.order
        assert all(k <= 1 for k, odd in zip(mu, sig.formal_self_odd) if odd)
        assert isinstance(c, CoeffExpr) and not c.is_zero()


def test_every_operation_returns_a_canonical_series_up_to_n4():
    rng = random.Random(31)
    for _ in range(60):
        sig = rand_signature(rng, n_max=4, q_max=5)
        order = rng.randint(1, 4)
        a, b = (rand_series(rng, sig, order) for _ in range(2))
        names = [nm for nm, _ in sig.variables()]
        mu = rng.choice(enumerate_monomials(sig, order))
        above = [0] * sig.nformal
        above[rng.randrange(sig.nformal)] = order + 1
        m = rand_morphism(rng, sig, order, min_order=2)
        cut, k = rng.randint(0, order), rng.randint(0, order)
        made = [
            a + b, a - b, a - a, 1 - a, -a, a * b, a * Fraction(1, 2), a ** 2, a.truncate(cut),
            GSeries(sig, order, {nu: c for nu, c in a.terms.items() if mono_order(nu) == k}),
            a.map_coeffs(lambda c: c.diff("x")),
            GSeries.from_coeff(sig, order, Fraction(2, 3)), GSeries.from_coeff(sig, order, 0),
            GSeries.monomial(sig, order, list(mu), 3), GSeries.monomial(sig, order, above, 1),
            m.pullback(a),
        ]
        made += [a.left_partial(nm) for nm in names]
        made += [GSeries.generator(sig, nm, order) for nm in names]
        made += list(compose(m, rand_morphism(rng, sig, order)).images.values())
        made += list(invert(m).images.values())
        for s in made:
            assert_canonical(s)
        assert GSeries.monomial(sig, order, above, 1).is_zero()
        assert (a - a).is_zero()
        odd = [i for i, f in enumerate(sig.formal_self_odd) if f]
        if odd and order >= 2:
            square = [0] * sig.nformal
            square[odd[0]] = 2
            assert GSeries.monomial(sig, order, square).is_zero()


def test_at_order_truncates_down_and_keeps_the_terms_up_to_n4(rng):
    for _ in range(40):
        sig = rand_signature(rng, n_max=4)
        order = rng.randint(1, 4)
        s = rand_series(rng, sig, order, max_terms=5)
        for k in range(1, order + 3):
            t = s.at_order(k)
            assert t.order == k
            assert_canonical(t)
            # lowering keeps the terms of order <= k, raising keeps them all
            assert t.terms == {mu: c for mu, c in s.terms.items() if sum(mu) <= k}
            if k <= order:
                assert t == s.truncate(k)
            else:
                back = t.at_order(order)
                assert (back.order, back.terms) == (order, s.terms)
                # arithmetic runs at the raised order
                assert (t * t).order == k and (t * t).truncate(order) == s * s


def test_lowering_chart_values_truncates_them():
    family, _ = build_base_embedding(atlas_nonsplit_base_twist(4), 4)
    lowered = family.at_order(1)
    for per in lowered.values.values():
        for s in per.values():
            assert s.order == 1
            assert_canonical(s)
    assert lowered.values["U"]["x"] == family.values["U"]["x"].truncate(1)
