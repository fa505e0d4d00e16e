"""Finite-dimensional algebras: certification and degree-assignment search."""

from fractions import Fraction

import pytest

from z2nsuper import (
    BudgetExceeded,
    Degree,
    FinDimAlgebra,
    GradingError,
    check_graded_commutative,
    clifford_algebra,
    quaternion_algebra,
    search_degree_assignments,
)


def dual_numbers():
    """Q[t] / t^2."""
    return FinDimAlgebra(["one", "t"], 0, {(0, 0): {0: 1}, (0, 1): {1: 1},
                                           (1, 0): {1: 1}})


def test_construction_checks_unit_and_associativity():
    with pytest.raises(ValueError):
        FinDimAlgebra(["one", "t"], 0, {(0, 0): {0: 1}, (0, 1): {1: 2},
                                        (1, 0): {1: 1}})
    # (a a) a = b a = 0 while a (a a) = a b = one: not associative
    bad = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
           (0, 2): {2: 1}, (2, 0): {2: 1},
           (1, 1): {2: 1}, (1, 2): {0: 1}}
    with pytest.raises(ValueError):
        FinDimAlgebra(["one", "a", "b"], 0, bad)


def test_check_rejects_inhomogeneous_assignment():
    A = quaternion_algebra()
    # i*j = k but 100 + 010 != 000
    asg = {"one": Degree.parse("000"), "i": Degree.parse("100"),
           "j": Degree.parse("010"), "k": Degree.parse("000")}
    with pytest.raises(GradingError):
        check_graded_commutative(A, asg)
    # a nonzero degree on the unit is rejected outright
    with pytest.raises(GradingError):
        check_graded_commutative(A, {"one": Degree.parse("100"), "i": Degree.parse("100"),
                                     "j": Degree.parse("010"), "k": Degree.parse("110")})


def test_quaternions_certify_with_the_even_nonzero_degrees():
    A = quaternion_algebra()
    asg = {"one": Degree.parse("000"), "i": Degree.parse("011"),
           "j": Degree.parse("101"), "k": Degree.parse("110")}
    ok, violations = check_graded_commutative(A, asg)
    assert ok and not violations


def test_quaternions_fail_with_wrong_signs():
    A = quaternion_algebra()
    # odd degrees for i, j force commutation where the quaternions anticommute
    asg = {"one": Degree.parse("000"), "i": Degree.parse("100"),
           "j": Degree.parse("010"), "k": Degree.parse("110")}
    ok, violations = check_graded_commutative(A, asg)
    assert not ok
    assert any({v[0], v[1]} == {"i", "j"} for v in violations)


def test_search_quaternions():
    A = quaternion_algebra()
    found3 = search_degree_assignments(A, 3)
    assert found3, "expected assignments over Z2^3"
    target = {"one": Degree.parse("000"), "i": Degree.parse("011"),
              "j": Degree.parse("101"), "k": Degree.parse("110")}
    assert target in found3
    for asg in found3:
        ok, _ = check_graded_commutative(A, asg)
        assert ok
    assert search_degree_assignments(A, 1) == []
    assert search_degree_assignments(A, 2) == []


def test_search_is_canonically_ordered():
    A = quaternion_algebra()
    found = search_degree_assignments(A, 3)
    keys = [tuple(str(asg[lb]) for lb in A.labels) for asg in found]
    assert keys == sorted(keys)


def test_clifford_algebra_structure():
    A = clifford_algebra(1, 1)
    assert A.dim == 4
    i1 = A.labels.index("e1")
    i2 = A.labels.index("e2")
    assert A.product(i1, i1) == {A.unit: Fraction(1)}
    assert A.product(i2, i2) == {A.unit: Fraction(-1)}
    e12 = A.labels.index("e12")
    assert A.product(i1, i2) == {e12: Fraction(1)}
    assert A.product(i2, i1) == {e12: Fraction(-1)}


def test_clifford_certifies_at_n3():
    A = clifford_algebra(1, 1)
    found = search_degree_assignments(A, 3)
    assert found
    for asg in found:
        ok, _ = check_graded_commutative(A, asg)
        assert ok


def test_clifford22_certifies():
    A = clifford_algebra(2, 2)
    assert A.dim == 16
    # the canonical assignment: generator t gets the degree with bits at t and n-1
    # (a known certification for Clifford algebras at n = m + 1)
    n = 5
    asg = {}
    for lb in A.labels:
        bits = [0] * n
        if lb != "one":
            for ch in lb[1:]:
                t = int(ch) - 1
                bits[t] ^= 1
                bits[n - 1] ^= 1
        asg[lb] = Degree(bits)
    ok, violations = check_graded_commutative(A, asg)
    assert ok, violations


def test_budget_guard():
    A = clifford_algebra(2, 2)
    with pytest.raises(BudgetExceeded):
        search_degree_assignments(A, 5, budget=1000)


def test_dual_numbers_search():
    A = dual_numbers()
    found = search_degree_assignments(A, 1)
    # t may be even (degree 0) or... degree 1 squares to zero: t*t = 0 is in
    # the table as an absent entry, so both assignments certify
    degs = sorted(str(asg["t"]) for asg in found)
    assert degs == ["0", "1"]
