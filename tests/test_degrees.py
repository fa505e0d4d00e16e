"""Degree arithmetic, sign rule, and signature bookkeeping."""

import itertools

import pytest

from z2nsuper import (
    Degree,
    DimensionMismatch,
    Signature,
    enumerate_nonzero_degrees,
    is_self_odd,
    parity,
    sign_factor,
)
from z2nsuper.degrees import dot_parity


def all_degrees(n):
    return [Degree(bits) for bits in itertools.product((0, 1), repeat=n)]


def bits(d):
    """The coordinates of a degree, read from its printed form."""
    return [int(c) for c in str(d)]


def test_parse_and_str_round_trip():
    for n in range(1, 5):
        for d in all_degrees(n):
            assert Degree.parse(str(d)) == d


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Degree.parse("0121")
    with pytest.raises(ValueError):
        Degree.parse("")


def test_addition_is_componentwise_mod_two():
    for n in range(1, 4):
        for a in all_degrees(n):
            for b in all_degrees(n):
                s = a + b
                assert bits(s) == [(x + y) % 2 for x, y in zip(bits(a), bits(b))]
                assert a + b == b + a
                assert (a + a).is_zero()


def test_addition_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Degree.parse("01") + Degree.parse("011")
    with pytest.raises(DimensionMismatch):
        sign_factor(Degree.parse("01"), Degree.parse("011"))


def test_constructor_forms_and_mask_order():
    for n in range(1, 5):
        degs = all_degrees(n)
        # the first bit is the most significant: mask order is lexicographic
        assert sorted(degs) == sorted(degs, key=str)
        for d in degs:
            assert Degree(str(d)) == Degree(bits(d)) == Degree(d) == d
            assert d.n == n and repr(d) == "Degree(%s)" % d
    assert Degree.zero(3) == Degree("000") and Degree.zero(3).is_zero()
    # equal masks of different n are different degrees
    assert Degree("01") != Degree("001")
    assert len({Degree("01"), Degree("001")}) == 2
    for bad in ([0, 2], "01 ", (), [1, -1]):
        with pytest.raises(ValueError):
            Degree(bad)


def test_sign_factor_matches_dot_product_exhaustively():
    for n in range(1, 5):
        for a in all_degrees(n):
            for b in all_degrees(n):
                dot = sum(x * y for x, y in zip(bits(a), bits(b)))
                assert sign_factor(a, b) == (-1) ** dot
                assert dot_parity(a, b) == dot % 2
                assert sign_factor(a, b) == sign_factor(b, a)


def test_sign_factor_bimultiplicative():
    for n in range(1, 4):
        for a in all_degrees(n):
            for b in all_degrees(n):
                for c in all_degrees(n):
                    assert sign_factor(a + b, c) == sign_factor(a, c) * sign_factor(b, c)


def test_parity_and_self_oddness():
    assert parity(Degree.parse("110")) == "even"
    assert parity(Degree.parse("100")) == "odd"
    # a degree squares to zero iff its bit-weight is odd
    for n in range(1, 5):
        for d in all_degrees(n):
            assert is_self_odd(d) == (sum(bits(d)) % 2 == 1)
            assert is_self_odd(d) == (parity(d) == "odd")


def test_even_degrees_can_anticommute_and_odd_degrees_can_commute():
    # the phenomena that distinguish Z2^n from super for n >= 2
    assert sign_factor(Degree.parse("110"), Degree.parse("101")) == -1  # both even
    assert sign_factor(Degree.parse("100"), Degree.parse("010")) == 1   # both odd
    assert sign_factor(Degree.parse("110"), Degree.parse("110")) == 1   # not nilpotent


def test_enumerate_nonzero_degrees_lex():
    lex = enumerate_nonzero_degrees(2)
    assert lex == [Degree.parse("01"), Degree.parse("10"), Degree.parse("11")]
    for n in range(1, 5):
        assert len(enumerate_nonzero_degrees(n)) == 2 ** n - 1
        assert enumerate_nonzero_degrees(n) == sorted(enumerate_nonzero_degrees(n))


def test_signature_canonical_formal_order():
    sig = Signature(2, [("a", "11"), ("b", "01"), ("x", "00"), ("c", "10"), ("d", "01")])
    assert sig.base_names == ["x"]
    # lex over nonzero degrees: 01 block first (declaration order), then 10, then 11
    assert sig.formal_names == ["b", "d", "c", "a"]
    assert {d: len(vs) for d, vs in sig.formal_blocks.items()} == {
        Degree.parse("01"): 2, Degree.parse("10"): 1, Degree.parse("11"): 1}
    assert sig.p == 1 and sig.nformal == 4
    assert sig.formal_index("d") == 1
    assert sig.degree_of("a") == Degree.parse("11")


def test_signature_rejects_duplicates_and_bad_dimensions():
    with pytest.raises(ValueError):
        Signature(1, [("x", "0"), ("x", "1")])
    with pytest.raises(DimensionMismatch):
        Signature(2, [("x", "0")])


def test_signature_equality():
    s1 = Signature(1, [("x", "0"), ("a", "1")])
    s2 = Signature(1, [("u", "0"), ("b", "1")])
    assert s1 != s2 and s1 == Signature(1, [("x", "0"), ("a", "1")])


def test_unknown_names_are_key_errors_that_name_the_variable():
    sig = Signature(1, [("x", "0"), ("a", "1")])
    with pytest.raises(KeyError) as exc:
        sig.degree_of("z")
    assert exc.value.args == ("unknown variable 'z' in signature",)
    with pytest.raises(KeyError) as exc:
        sig.formal_index("x")
    assert exc.value.args == ("'x' is not a formal variable of this signature",)
