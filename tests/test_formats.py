"""Round trips for every file format, including splitting results."""

import importlib.util
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from z2nsuper import (CoeffExpr, GSeries, ParseError, Signature, coeffexpr, exprio,
                      gseries, parse_coeff, print_coeff, split)
from z2nsuper.formats import (
    parse_algebra,
    parse_assignment,
    parse_atlas,
    parse_morphism,
    parse_result,
    parse_series,
    parse_signature,
    print_algebra,
    print_atlas,
    print_morphism,
    print_result,
    print_series,
    print_signature,
)
from z2nsuper.findim import clifford_algebra, quaternion_algebra

from conftest import (
    atlas_nonsplit_base_twist,
    atlas_nonsplit_frame_twist,
    atlas_split_two_charts,
    rand_opaque_coeff,
    rand_series,
    rand_signature,
    rand_wide_coeff,
    sig_n1,
    sig_n2,
)
from test_exprio import count_sizes, rand_coeff_term, rand_sum_text
from test_morphisms import base_shift_morphism

_GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
_spec = importlib.util.spec_from_file_location("bench_gen", _GEN)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


def test_signature_round_trip():
    for sig in (sig_n1(), sig_n2()):
        assert parse_signature(print_signature(sig)) == sig


def test_signature_parse_errors():
    with pytest.raises(ParseError):
        parse_signature("var x 00")  # missing n
    with pytest.raises(ParseError):
        parse_signature("n 1\nwhatever x")


def test_series_round_trip():
    sig = sig_n2()
    y = GSeries.generator(sig, "y", 4)
    xi = GSeries.generator(sig, "xi", 4)
    eta = GSeries.generator(sig, "eta", 4)
    f = CoeffExpr.app("f", [CoeffExpr.var("x")])
    cases = [
        GSeries.zero(sig, 4),
        GSeries.one(sig, 4),
        y ** 2 * Fraction(3, 2) + xi * eta * f - GSeries.from_coeff(sig, 4, CoeffExpr.var("x")),
        xi * f + y * (f * f + 2),
    ]
    for s in cases:
        assert parse_series(print_series(s), sig, 4) == s


def test_series_literal_syntax():
    sig = sig_n2()
    s = parse_series("f(x) * xi eta + 3/2 * y^2 - x", sig, 4)
    xi = GSeries.generator(sig, "xi", 4)
    eta = GSeries.generator(sig, "eta", 4)
    y = GSeries.generator(sig, "y", 4)
    f = CoeffExpr.app("f", [CoeffExpr.var("x")])
    expected = xi * eta * f + y ** 2 * Fraction(3, 2) \
        - GSeries.from_coeff(sig, 4, CoeffExpr.var("x"))
    assert s == expected


@pytest.mark.parametrize("n", [2, 200])
def test_a_long_series_parses_to_the_term_by_term_sum_in_one_call(monkeypatch, n):
    sig = sig_n2()

    def term(rng):
        powers = " ".join(rng.choice(["xi", "eta", "y", "y^2"]) for _ in range(rng.randint(0, 3)))
        coeff = rand_coeff_term(rng, ("x", "f(x)", "g[1,0](x, x)"))
        return ("%s * %s" % (coeff, powers)).rstrip(" *")

    text, terms = rand_sum_text(random.Random(n), n, term)
    want = GSeries.zero(sig, 4)
    per_monomial = {}
    for t, neg in terms:
        one = parse_series(t, sig, 4)
        for mu in one.terms:
            per_monomial[mu] = per_monomial.get(mu, 0) + 1
        want = want - one if neg else want + one
    sums, real = [], exprio._sum_terms

    def counted(group):
        if group[0][0] is not None:  # not an application argument
            sums.append((group[0][0], len(group)))
        return real(group)

    monkeypatch.setattr(exprio, "_sum_terms", counted)
    assert parse_series(text, sig, 4) == want
    # one sum per formal monomial, over the terms of that monomial
    assert sorted(sums) == sorted(per_monomial.items())


def test_series_powers_parse_as_generator_powers_up_to_n4(rng):
    for _ in range(30):
        sig = rand_signature(rng, n_max=4)
        order = rng.randint(1, 4)
        for name in sig.formal_names:
            v = GSeries.generator(sig, name, order)
            for k in range(order + 2):
                assert parse_series("%s^%d" % (name, k), sig, order) == v ** k, (name, k)


def test_random_series_round_trip_up_to_n4(rng):
    for _ in range(40):
        sig = rand_signature(rng, n_max=4)
        order = rng.randint(1, 4)
        s = rand_series(rng, sig, order, max_terms=5, coeff=rand_opaque_coeff)
        assert parse_series(print_series(s), sig, order) == s


def test_random_wide_series_over_two_base_coordinates_round_trip_up_to_n4(rng):
    # numerators above 2**64, denominators up to 2**61 - 1, nested applications
    for _ in range(40):
        sig = rand_signature(rng, n_max=4, nbase=2)
        order = rng.randint(1, 4)
        s = rand_series(rng, sig, order, max_terms=6, coeff=rand_wide_coeff)
        text = print_series(s)
        assert parse_series(text, sig, order) == s
        assert print_series(parse_series(text, sig, order)) == text
        for c in s.terms.values():
            assert parse_coeff(print_coeff(c), sig) == c


def test_series_term_is_the_product_of_its_factors_in_order(rng):
    """A term of shuffled formal powers and coefficient factors parses to
    the product of the factors' series in the written order.  Factors are
    juxtaposed or joined by `*`; a parenthesised factor always takes `*`,
    since `name (...)` reads as an application, an error for a formal name."""
    for _ in range(80):
        sig = rand_signature(rng, n_max=4)
        order = rng.randint(1, 4)
        text, expected = rng.choice(["", "-"]), GSeries.one(sig, order)
        for i in range(rng.randint(1, 5)):
            if rng.random() < 0.6:
                name, k = rng.choice(sig.formal_names), rng.randint(0, 2)
                word = name if k == 1 else "%s^%d" % (name, k)
                expected = expected * GSeries.generator(sig, name, order) ** k
            else:
                c = rand_opaque_coeff(rng, sig.base_names)
                word = "(%s)" % print_coeff(c)
                expected = expected * GSeries.from_coeff(sig, order, c)
            if i:
                text += " * " if word.startswith("(") else rng.choice([" ", " * "])
            text += word
        if text.startswith("-"):
            expected = -expected
        assert parse_series(text, sig, order) == expected, text


@pytest.mark.parametrize("text, pos", [
    ("xi (x + 1)", 0), ("xi(x)", 0), ("f(xi)", 2), ("(xi + 1) * eta", 1),
])
def test_formal_names_inside_a_coefficient_are_parse_errors(text, pos):
    sig = sig_n2()
    xi = GSeries.generator(sig, "xi", 3)
    # a coefficient factor before a formal variable is fine, as printed
    s = xi * (CoeffExpr.var("x") + 1)
    assert print_series(s) == "(1 + x) * xi"
    assert parse_series("(x + 1) * xi", sig, 3) == s
    with pytest.raises(ParseError, match=r"formal variable 'xi' .* \(at position %d\)" % pos):
        parse_series(text, sig, 3)


def _no_arithmetic(monkeypatch):
    """Every binding of `sum_of_products`, and the reader's own sum, raise:
    nothing may be computed."""
    def refuse(pairs):
        raise AssertionError("a sum computed before the name was refused")

    for module in (coeffexpr, gseries):
        monkeypatch.setattr(module, "sum_of_products", refuse)
    monkeypatch.setattr(exprio, "_sum_terms", refuse)


def _header_then_partition(rows):
    """An atlas text over `gen.SPLIT_SIG` whose first block with rows is
    its partition."""
    return "order 3\nsignature\n%s\nend\ncharts U V\npartition\n%s\nend\n" % (
        print_signature(gen.SPLIT_SIG), "\n".join(rows))


@pytest.mark.parametrize("text, message", [
    ("(y + 1)^100000", "formal variable 'y' cannot appear inside a coefficient (at position 1)"),
    ("(xi + eta)^100000", "formal variable 'xi' cannot appear inside a coefficient (at position 1)"),
    ("f(xi)^100000 * xi", "formal variable 'xi' cannot appear inside a coefficient (at position 2)"),
    ("(q + 1)^100000", "coefficient names 'q', which is not a base coordinate (at position 1)"),
])
def test_a_bad_name_in_a_series_is_refused_before_any_arithmetic(monkeypatch, text, message):
    _no_arithmetic(monkeypatch)
    with pytest.raises(ParseError) as exc:
        parse_series(text, gen.SPLIT_SIG, 3)
    assert str(exc.value) == message


def test_a_bad_name_in_a_partition_row_is_refused_before_any_arithmetic(monkeypatch):
    _no_arithmetic(monkeypatch)
    with pytest.raises(ParseError) as exc:
        parse_atlas(_header_then_partition(["V = (rho_V(xi) + 1)^100000", "U = 1"]))
    assert str(exc.value) == (
        "partition row of chart V names 'xi', which is not a base coordinate (at position 7), "
        "in the `V` row of block `partition`, line 11")


def test_the_first_error_in_reading_order_is_reported():
    # the name rule runs as each name is read, so an earlier syntax error wins
    # over a later bad name, and an earlier bad name over a later syntax error
    with pytest.raises(ParseError, match=re.escape(
            "formal variable 'xi' cannot appear inside a coefficient (at position 2)")):
        parse_series("f(xi", gen.SPLIT_SIG, 3)
    with pytest.raises(ParseError, match=re.escape("trailing input ')' (at position 8), in the `U`")):
        parse_atlas(_header_then_partition(["U = rho_U(x)) + xi", "V = 1 - rho_U(x)"]))


def test_a_killed_term_still_raises_the_error_of_a_later_factor():
    # xi xi is zero, but the term is read to its end
    with pytest.raises(ParseError) as exc:
        parse_series("xi xi * f(eta)", sig_n2(), 3)
    assert str(exc.value) == (
        "formal variable 'eta' cannot appear inside a coefficient (at position 10)")


@pytest.mark.parametrize("text", ["x", "3/2 * x^2 - f(x) * x + 1", "-(x + 1)^2 * g[1](x)"])
def test_a_series_without_formal_variables_is_its_coefficient(text):
    # every term has the empty monomial, which must not read as a killed term
    sig = Signature(1, [("x", "0")])
    s = parse_series(text, sig, 2)
    assert not s.is_zero()
    assert s == GSeries.from_coeff(sig, 2, parse_coeff(text, sig))


def test_series_parse_respects_noncommutativity():
    sig = sig_n1()
    a = parse_series("xi1 xi2", sig, 3)
    b = parse_series("xi2 xi1", sig, 3)
    assert a == -b


def test_morphism_round_trip():
    m = base_shift_morphism(sig_n2(), 5)
    assert parse_morphism(print_morphism(m)) == m


def test_assignment_skips_blank_and_comment_lines():
    labels = quaternion_algebra().labels
    rows = ["%s %s" % (lb, bits) for lb, bits in zip(labels, ("00", "11", "01", "10"))]
    padded = "# degrees\n\n" + "\n\n  # row\n".join(rows)
    assert parse_assignment(padded, labels) == parse_assignment("\n".join(rows), labels)


def test_algebra_round_trip():
    for A in (quaternion_algebra(), clifford_algebra(1, 1)):
        B = parse_algebra(print_algebra(A))
        assert B.labels == A.labels
        assert B.unit == A.unit
        assert B.table == A.table


def test_atlas_round_trip():
    for make in (atlas_split_two_charts, atlas_nonsplit_base_twist,
                 atlas_nonsplit_frame_twist):
        atlas = make()
        back = parse_atlas(print_atlas(atlas))
        assert back.signature == atlas.signature
        assert back.order == atlas.order
        assert back.charts == atlas.charts
        assert sorted(back.pairs) == sorted(atlas.pairs)
        assert back.transitions == atlas.transitions
        assert back.partition == atlas.partition
    # a partition row may combine other charts' partition functions
    text = print_atlas(atlas_nonsplit_base_twist()).replace("V = rho_V(x)", "V = 1 - rho_U(x)")
    assert str(parse_atlas(text).partition["V"]) == "1 - rho_U(x)"


def test_result_round_trip():
    atlas = atlas_nonsplit_base_twist()
    result = split(atlas)
    text = print_result(result)
    doc = parse_result(text)
    assert doc.order == 3
    assert doc.signature == atlas.signature
    assert list(doc.iso) == atlas.charts
    assert doc.iso == result.iso
    for u in atlas.charts:
        for bn in atlas.signature.base_names:
            assert doc.embedding[u][bn] == result.iso[u].images[bn]
    # a second print/parse cycle is stable
    doc2 = parse_result(text)
    assert doc2.iso == doc.iso
