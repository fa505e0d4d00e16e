"""Coefficient parser / printer round trips and error reporting."""

from fractions import Fraction

import pytest

from z2nsuper import CoeffExpr, ParseError, parse_coeff, print_coeff

x = CoeffExpr.var("x")
y = CoeffExpr.var("y")


CASES = [
    CoeffExpr.rational(0),
    CoeffExpr.rational(Fraction(-7, 3)),
    x,
    x + 1,
    x * x * y - y * Fraction(1, 2),
    CoeffExpr.app("f", [x]),
    CoeffExpr.app("f", [x * x + 1], alpha=(2,)),
    CoeffExpr.app("g", [x, y], alpha=(1, 0)) * 3 + CoeffExpr.app("g", [x, y]),
    (x + y) ** 3,
]


@pytest.mark.parametrize("e", CASES, ids=range(len(CASES)))
def test_print_parse_round_trip(e):
    assert parse_coeff(print_coeff(e)) == e


def test_parse_literals():
    assert parse_coeff("3/2") == CoeffExpr.rational(Fraction(3, 2))
    assert parse_coeff("-x + 2") == CoeffExpr.rational(2) - x
    assert parse_coeff("2 x") == 2 * x
    assert parse_coeff("x^3") == x * x * x
    assert parse_coeff("(x + 1)^2") == (x + 1) * (x + 1)


def test_parse_applications():
    assert parse_coeff("f(x)") == CoeffExpr.app("f", [x])
    assert parse_coeff("f[2](x)") == CoeffExpr.app("f", [x], alpha=(2,))
    assert parse_coeff("g[1,0](x, y)") == CoeffExpr.app("g", [x, y], alpha=(1, 0))
    nested = parse_coeff("f(g(x) + 1)")
    assert nested == CoeffExpr.app("f", [CoeffExpr.app("g", [x]) + 1])


def test_printing_is_canonical():
    assert print_coeff(parse_coeff("x + x")) == print_coeff(parse_coeff("2*x"))
    assert print_coeff(x - x) == "0"


def test_parse_errors_carry_position():
    for bad in ["x +", "f[1,2](x)", "(x", "3/", "3/0", "x ^ y", "@"]:
        with pytest.raises(ParseError):
            parse_coeff(bad)
