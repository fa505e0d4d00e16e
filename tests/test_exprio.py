"""Coefficient parser / printer round trips and error reporting."""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from z2nsuper import CoeffExpr, ParseError, Signature, exprio, parse_coeff, print_coeff
from z2nsuper.coeffexpr import ONE
from z2nsuper.formats import print_series

from conftest import naive_sum_of_products

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
    assert parse_coeff("x ") == parse_coeff("x")
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


@pytest.mark.parametrize("text, message", [
    ("x + xi", "coefficient names 'xi', which is not a base coordinate (at position 3)"),
    ("x +  $", "unexpected character '$' (at position 3)"),
])
def test_a_token_is_placed_at_the_blanks_before_it(text, message):
    with pytest.raises(ParseError) as exc:
        parse_coeff(text, Signature(1, [("x", "0"), ("xi", "1")]))
    assert str(exc.value) == message


def test_a_power_above_the_cap_is_refused_and_one_at_the_cap_parses():
    with pytest.raises(ParseError) as exc:
        parse_coeff("(x + 1)^1000")
    assert str(exc.value) == (
        "power ^1000 of a 2-term coefficient can exceed the cap of 1000 terms (at position 7)")
    with pytest.raises(ParseError, match=r"power \^12 of a 6-term coefficient .* \(at position 9\)"):
        parse_coeff("(x + 1)^5^12")
    assert len(parse_coeff("(x + 1)^999").terms()) == exprio.POWER_CAP
    # a zero base counts as one term
    assert parse_coeff("(x - x)^5000").is_zero()


def test_a_product_above_the_term_cap_is_refused_at_the_factor_that_crosses_it():
    with pytest.raises(ParseError) as exc:
        parse_coeff("(x + 1)^300 * (y + 1)^300")
    assert str(exc.value) == (
        "product of parenthesised factors can exceed the cap of 1000 terms (at position 13)")
    # ten two-term factors make 1 024 terms, nine make 512
    with pytest.raises(ParseError, match=r"cap of 1000 terms \(at position 54\)$"):
        parse_coeff("(x+1)*" * 9 + "(y+1) * 2")
    assert len(parse_coeff("(x+1)" * 8 + "(y+1)").terms()) == 18
    # at the cap it parses, and a zero factor bounds the product by 0
    assert len(parse_coeff("(x + 1)^9 (y + 1)^99").terms()) == exprio.POWER_CAP
    assert parse_coeff("(x - x) (x + 1)^999 (y + 1)^999").is_zero()


def test_a_printed_coefficient_above_the_term_cap_reads_back():
    # a lone parenthesised factor is no product: the printer's form of a
    # long coefficient, on a formal monomial and as the constant term, parses
    sig = Signature(1, [("x", "0"), ("y", "0"), ("xi", "1")])
    s = exprio.parse_series("(x + 1)^999 * xi + y * xi + (x + 1)^999 + y", sig, 2)
    assert all(len(c.terms()) == exprio.POWER_CAP + 1 for c in s.terms.values())
    text = print_series(s)
    assert text.startswith("(") and " * xi" in text
    assert exprio.parse_series(text, sig, 2) == s


LONG = "9" * (exprio.NUMERAL_DIGITS + 1)


@pytest.mark.parametrize("text, pos", [
    ("x^" + LONG, 2),
    (LONG + " * x", 0),
    ("x + 1/ " + LONG, 6),
    ("f[" + LONG + "](x)", 2),
    ("x + " + LONG + "/2", 3),
])
def test_a_numeral_above_the_digit_limit_is_refused_at_its_position(text, pos):
    with pytest.raises(ParseError) as exc:
        parse_coeff(text)
    assert str(exc.value) == "numeral of %d digits exceeds the limit of %d digits (at position %d)" \
        % (exprio.NUMERAL_DIGITS + 1, exprio.NUMERAL_DIGITS, pos)


def test_a_numeral_at_the_digit_limit_parses():
    top = "9" * exprio.NUMERAL_DIGITS
    assert parse_coeff(top + "/2").as_rational() == Fraction(int(top), 2)


def join_digit_chunks(digits):
    """The int of a decimal string, read in 4 000-digit chunks, each under
    Python's int() limit."""
    value = 0
    for i in range(0, len(digits), 4000):
        chunk = digits[i:i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_an_integer_above_the_str_limit_prints_in_chunks():
    nines = "9" * 4000
    n = int(nines)
    num, star, rest = print_coeff(parse_coeff("%s * %s * x" % (nines, nines))).partition("*")
    assert (star, rest) == ("*", "x") and len(num) == 8000
    assert join_digit_chunks(num) == n * n
    text = print_coeff(parse_coeff("-1/%s * 1/%s * 7 * 10^3 * x^2" % (nines, nines)))
    sign, slash, den = text.partition("*")[0].partition("/")
    assert (sign, slash) == ("-7000", "/")
    assert join_digit_chunks(den) == n * n
    # a chunk keeps its leading zeros
    ten = "1" + "0" * 4000
    assert print_coeff(parse_coeff("%s * %s" % (ten, ten))) == "1" + "0" * 8000


def test_a_power_above_the_bit_cap_is_refused_before_it_is_computed():
    assert exprio.POWER_BITS == 3000
    with pytest.raises(ParseError) as exc:
        parse_coeff("7^4000000 * x")
    assert str(exc.value) == (
        "power ^4000000 of a coefficient of 3-bit numbers can exceed the cap of 3000 bits "
        "(at position 1)")
    # ceil(log2) of the largest numerator or denominator: 2 and 1/2 count one bit
    assert parse_coeff("2^3000") == CoeffExpr.rational(2 ** 3000)
    assert parse_coeff("(1/2*x)^3000") == (x * Fraction(1, 2)) ** 3000
    for text, pos in (("2^3001", 1), ("(15 + x)^999", 8), ("(1/9)^751", 5)):
        with pytest.raises(ParseError, match=r"cap of 3000 bits \(at position %d\)$" % pos):
            parse_coeff(text)
    # a unit numerator adds no bits
    assert parse_coeff("(-x)^4001") == -(x ** 4001)


def test_a_term_above_the_bit_cap_is_refused_at_the_factor_that_crosses_it():
    assert exprio.TERM_BITS == 30000
    # 3^1500 has 2 378 bits, so the 13th factor crosses the cap; a token's
    # position is that of the blanks before it
    text = " * ".join(["3^1500"] * 500) + " * x"
    start = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        parse_coeff(text)
    assert time.perf_counter() - start < 0.1
    assert str(exc.value) == ("a term's numbers can exceed the cap of 30000 bits "
                              "(at position %d)" % (12 * len("3^1500 * ") - 1))
    x = CoeffExpr.var("x")
    assert parse_coeff("3^1500 * 3^1500 * x") == x * 3 ** 3000
    assert parse_coeff(" * ".join(["3^1500"] * 12)) == CoeffExpr.rational(3 ** 18000)
    # a parenthesised factor counts its largest number, 3 000 bits here
    assert parse_coeff(" * ".join(["(2^3000)"] * 10)) == CoeffExpr.rational(2 ** 30000)
    with pytest.raises(ParseError, match=r"cap of 30000 bits \(at position 109\)$"):
        parse_coeff(" * ".join(["(2^3000)"] * 11))


def rand_sum_text(rng, n, term):
    """A sum of n terms drawn by term(rng), as text, and its [(text, negate)]
    terms; the first term is added, each other one added or subtracted."""
    terms = [(term(rng), i > 0 and rng.random() < 0.5) for i in range(n)]
    text = terms[0][0] + "".join((" - " if neg else " + ") + t for t, neg in terms[1:])
    return text, terms


def rand_coeff_term(rng, atoms=("x", "y", "f(x)", "g[1,0](x, y)")):
    """A product of a rational and up to three powers of atoms."""
    factors = ["%d/%d" % (rng.randint(1, 50), rng.randint(1, 9))]
    factors += ["%s^%d" % (rng.choice(atoms), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
    return "*".join(factors)


def count_sizes(monkeypatch, module, name):
    """Replace the accumulation call module.name by a wrapper that records
    the number of pairs (its last argument) of each call."""
    sizes, real = [], getattr(module, name)

    def wrapper(*args):
        sizes.append(len(args[-1]))
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return sizes


@pytest.mark.parametrize("n", [2, 20, 2000])
def test_a_long_sum_parses_to_the_term_by_term_sum_in_one_call(monkeypatch, n):
    text, terms = rand_sum_text(random.Random(n), n, rand_coeff_term)
    want = naive_sum_of_products([(parse_coeff(t), ONE, neg) for t, neg in terms])
    sizes = count_sizes(monkeypatch, exprio, "_sum_terms")
    assert parse_coeff(text) == want
    # one call sums the n terms; the others are the one-term application arguments
    assert [k for k in sizes if k != 1] == [n]


# Texts with the reader's answer, captured from the recursive-descent reader
# at b7ec3fe: each ParseError's message and position, or the printed value.
# Hand-written snippets, some of them errors, stand at the top level, inside
# parentheses and inside application arguments, read as a coefficient (with
# and without a signature), as a series and as `positive_int`; the rest are
# random one- and two-character edits of generated atlas and result rows.
# `{LONG}` stands for a numeral one digit over the limit.
CORPUS = json.loads((Path(__file__).parent / "reader_corpus.json").read_text())


def corpus_answer(mode, text):
    sig = Signature(2, CORPUS["signature"])
    text = text.replace("{LONG}", "9" * (exprio.NUMERAL_DIGITS + 1))
    try:
        if mode == "coeff":
            value = print_coeff(parse_coeff(text))
        elif mode == "coeff_sig":
            value = print_coeff(parse_coeff(text, sig, CORPUS["what"]))
        elif mode == "series":
            value = print_series(exprio.parse_series(text, sig, CORPUS["order"]))
        else:
            value = repr(exprio.positive_int(text))
    except ParseError as exc:
        return {"error": [exc.message, exc.pos]}
    return {"value": value}


@pytest.mark.parametrize("mode", ["coeff", "coeff_sig", "series", "positive_int"])
def test_the_reader_answers_every_corpus_text_as_captured(mode):
    cases = [c for c in CORPUS["cases"] if c["mode"] == mode]
    assert cases
    wrong = [(c["text"], c, got) for c in cases
             for got in [corpus_answer(mode, c["text"])]
             if got != {k: v for k, v in c.items() if k in ("error", "value")}]
    assert wrong == []
