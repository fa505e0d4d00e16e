"""Canonical coefficient expressions: ring laws, calculus, substitution."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from z2nsuper import CoeffExpr, UnboundSymbol
from z2nsuper.coeffexpr import ZERO, sum_of_products

from conftest import (
    naive_diff,
    naive_substitute_vars,
    naive_sum_of_products,
    rand_wide_coeff,
    rand_wide_fraction,
)

x = CoeffExpr.var("x")
y = CoeffExpr.var("y")


def f_of(*args):
    return CoeffExpr.app("f", list(args))


# -- strategy: random expressions in x, y with one opaque symbol -----------

rationals = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)


@st.composite
def exprs(draw, depth=2):
    if depth == 0:
        kind = draw(st.sampled_from(["const", "var"]))
    else:
        kind = draw(st.sampled_from(["const", "var", "add", "mul", "app"]))
    if kind == "const":
        return CoeffExpr.rational(draw(rationals))
    if kind == "var":
        return CoeffExpr.var(draw(st.sampled_from(["x", "y"])))
    if kind == "app":
        return f_of(draw(exprs(depth=depth - 1)))
    a = draw(exprs(depth=depth - 1))
    b = draw(exprs(depth=depth - 1))
    return a + b if kind == "add" else a * b


# realization of f as a concrete polynomial: f(t) = t^2 + 3t
T0 = CoeffExpr.var("t0")
REAL = {"f": T0 * T0 + T0 * 3}


def val(e, px, py):
    return e.evaluate({"x": px, "y": py}, REAL)


def test_constructors_and_equality():
    assert CoeffExpr.rational(0).is_zero()
    assert CoeffExpr.rational(Fraction(2, 4)) == CoeffExpr.rational(Fraction(1, 2))
    assert x + y == y + x
    assert x * y == y * x
    assert x - x == CoeffExpr.rational(0)
    assert (x + 1) * (x - 1) == x * x - 1


def test_as_rational():
    assert CoeffExpr.rational(Fraction(3, 2)).as_rational() == Fraction(3, 2)
    assert (x - x).as_rational() == 0
    assert x.as_rational() is None


def test_power():
    assert x ** 0 == CoeffExpr.rational(1)
    assert x ** 3 == x * x * x
    with pytest.raises(ValueError):
        x ** -1


def test_diff_polynomial():
    e = x * x * y + y * 3
    assert e.diff("x") == 2 * x * y
    assert e.diff("y") == x * x + 3
    assert e.diff("z").is_zero()


def test_diff_chain_rule_on_applications():
    # d/dx f(x^2) = f'(x^2) * 2x
    e = f_of(x * x)
    d = e.diff("x")
    expected = CoeffExpr.app("f", [x * x], alpha=(1,)) * (2 * x)
    assert d == expected


def test_diff_two_argument_chain_rule():
    g = CoeffExpr.app("g", [x, x * y])
    d = g.diff("x")
    g10 = CoeffExpr.app("g", [x, x * y], alpha=(1, 0))
    g01 = CoeffExpr.app("g", [x, x * y], alpha=(0, 1))
    assert d == g10 + g01 * y


def test_evaluate_with_realizations():
    e = f_of(x) + 2
    # f(t) = t^2 + 3t, so e(5) = 25 + 15 + 2 = 42
    assert e.evaluate({"x": 5}, REAL) == 42
    # derivative indices differentiate the realization: f'(t) = 2t + 3
    d = e.diff("x")
    assert d.evaluate({"x": 5}, REAL) == 13


def test_evaluate_unbound():
    with pytest.raises(UnboundSymbol):
        f_of(x).evaluate({"x": 1})
    with pytest.raises(UnboundSymbol):
        x.evaluate({}, {})


def test_substitute_vars_composes():
    e = x * x + y
    out = e.substitute_vars({"x": y + 1})
    assert out == (y + 1) * (y + 1) + y
    # substitution reaches inside opaque arguments
    assert f_of(x).substitute_vars({"x": y}) == f_of(y)


def test_substitute_app_rewrites_symbol():
    e = f_of(x) * 2 + y

    def handler(alpha, args):
        assert alpha == (0,)
        return args[0] + 1

    assert e.substitute_app("f", handler) == 2 * (x + 1) + y


@settings(max_examples=60, deadline=None)
@given(exprs(), exprs(), exprs(), rationals, rationals)
def test_ring_laws_by_evaluation(a, b, c, px, py):
    assert val((a + b) * c, px, py) == val(a * c, px, py) + val(b * c, px, py)
    assert val(a * (b * c), px, py) == val((a * b) * c, px, py)
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(exprs(), exprs())
def test_leibniz_rule(a, b):
    assert (a * b).diff("x") == a.diff("x") * b + a * b.diff("x")


@settings(max_examples=60, deadline=None)
@given(exprs(), rationals, rationals)
def test_diff_agrees_with_realized_polynomial_derivative(e, px, py):
    """Formal differentiation commutes with realizing the opaque symbol."""
    realized = e.substitute_app("f", lambda alpha, args: _realize(alpha, args))
    assert val(e.diff("x"), px, py) == realized.diff("x").evaluate({"x": px, "y": py})


def _realize(alpha, args):
    real = REAL["f"]
    for _ in range(alpha[0]):
        real = real.diff("t0")
    return real.substitute_vars({"t0": args[0]})


def test_canonical_form_is_stable_under_reassociation():
    e1 = (x + y) + (x * y + 1)
    e2 = 1 + x * y + y + x
    assert e1 == e2 and e1.key() == e2.key()
    assert hash(e1) == hash(e2)


def _swap_xy(e):
    return e.substitute_vars({"x": y, "y": x})


@settings(max_examples=80, deadline=None)
@given(exprs(depth=3), exprs(depth=3))
def test_equality_hash_and_key_agree(a, b):
    """== holds exactly when key()s are equal, and equal expressions hash equal,
    for pairs built by different routes."""
    pairs = [
        (a * b, b * a),
        ((a + b) - b, a),
        (a.substitute_vars({"x": x, "y": y}), a),
        (_swap_xy(_swap_xy(a)), a),
        (f_of(a * b), f_of(b * a)),
        (a, b),
        (a * b, a + b),
    ]
    for i, (p, q) in enumerate(pairs):
        assert (p == q) == (p.key() == q.key())
        if p == q:
            assert hash(p) == hash(q)
        elif i < 5:
            raise AssertionError("route %d built unequal expressions" % i)


def test_identity_substitution_returns_the_expression():
    e = f_of(x * y) + x
    assert e.substitute_vars({"x": x}) is e
    assert e.substitute_vars({"x": x, "y": y * 1}) is e
    assert e.substitute_vars({"z": y}) is e


# -- the integer product kernel against the pairwise-Fraction oracle ---------

BASE = ["x", "y"]


def assert_canonical(e):
    """Every stored coefficient is a nonzero Fraction (never an int)."""
    assert all(type(c) is Fraction and c != 0 for c in e.terms().values())


def rand_pairs(rng):
    """One to four random (a, b, negate) triples, sometimes followed by a
    pair that cancels an earlier one exactly."""
    pairs = [(rand_wide_coeff(rng, BASE), rand_wide_coeff(rng, BASE), rng.random() < 0.5)
             for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.3:
        a, b, negate = rng.choice(pairs)
        pairs.append((b, a, not negate))
    return pairs


def test_sum_of_products_matches_the_fraction_oracle(rng):
    for _ in range(150):
        pairs = rand_pairs(rng)
        got = sum_of_products(pairs)
        assert got == naive_sum_of_products(pairs)
        assert_canonical(got)
        a, b = pairs[0][0], pairs[0][1]
        assert a * b == naive_sum_of_products([(a, b, False)])
        assert_canonical(a * b)


def test_sums_that_cancel_exactly_are_zero(rng):
    for _ in range(60):
        pairs = rand_pairs(rng)
        cancelled = sum_of_products(pairs + [(b, a, not negate) for a, b, negate in pairs])
        assert cancelled == ZERO and cancelled.terms() == {}
        a, b, c = (rand_wide_coeff(rng, BASE) for _ in range(3))
        assert ((a + b) * c - a * c - b * c).terms() == {}


def test_diff_and_substitution_match_the_fraction_oracle(rng):
    for _ in range(60):
        e = rand_wide_coeff(rng, BASE) * rand_wide_coeff(rng, BASE)
        for name in BASE:
            d = e.diff(name)
            assert d == naive_diff(e, name)
            assert_canonical(d)
        mapping = {"x": rand_wide_coeff(rng, BASE)}
        if rng.random() < 0.5:
            mapping["y"] = rand_wide_coeff(rng, ["x"])
        sub = e.substitute_vars(mapping)
        assert sub == naive_substitute_vars(e, mapping)
        assert_canonical(sub)


def naive_sum(a, b, negate):
    """a + b, or a - b when negate, one Fraction sum per pair of equal monomials."""
    out = a.terms()
    for m, c in b.terms().items():
        out[m] = out.get(m, 0) + (-c if negate else c)
    return CoeffExpr(out)


def test_sums_and_scalings_match_the_fraction_oracle(rng):
    for _ in range(150):
        a, b = rand_wide_coeff(rng, BASE), rand_wide_coeff(rng, BASE)
        if rng.random() < 0.3:
            b = b - a  # a + b cancels the terms of a exactly
        assert a + b == naive_sum(a, b, False)
        assert a - b == naive_sum(a, b, True)
        q = rand_wide_fraction(rng)
        scaled = CoeffExpr({m: c * q for m, c in a.terms().items()})
        assert a * q == q * a == a * CoeffExpr.rational(q) == scaled
        for e in (a + b, a - b, a * q):
            assert_canonical(e)


def assert_lowest_terms(e):
    """The numerators sit over the lcm of the reduced term denominators, and
    share no factor with it; a copy built from the Fraction terms is equal,
    hashes equal and has the same key and printed form."""
    terms = e.terms()
    assert e._den == lcm(1, *(c.denominator for c in terms.values()))
    assert all(type(n) is int and n for n in e._terms.values())
    assert gcd(e._den, *e._terms.values()) == 1
    fresh = CoeffExpr(terms)
    assert e == fresh and hash(e) == hash(fresh) and e.key() == fresh.key()
    assert str(e) == str(fresh)


def test_every_result_is_in_lowest_terms_over_one_denominator(rng):
    for _ in range(60):
        a, b = rand_wide_coeff(rng, BASE), rand_wide_coeff(rng, BASE)
        results = [a + b, a - b, a * rand_wide_fraction(rng), a * b,
                   (a * b).diff("x"), (a * b).diff("y"),
                   (a * b).substitute_vars({"x": rand_wide_coeff(rng, BASE)})]
        for e in results:
            assert_lowest_terms(e)
    assert ZERO._den == 1 and (x - x)._den == 1
