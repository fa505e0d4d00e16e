"""Finite-dimensional algebras: certification and degree-assignment search."""

import random
import re
from fractions import Fraction
from itertools import product

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

from conftest import (
    naive_certifies,
    naive_clifford,
    naive_first_nonassociative,
    naive_homogeneous,
    naive_product,
    naive_violations,
    rand_associative_table,
    rand_fraction,
    rand_unital_table,
)

LABELS = ["e0", "e1", "e2", "e3"]


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


def test_associativity_is_checked_above_64_labels():
    # one, e1..e64 with e1 e1 = e2 and e2 e1 = e3: (e1 e1) e1 = e3, but
    # e1 (e1 e1) = e1 e2 = 0
    labels = ["one"] + ["e%d" % i for i in range(1, 65)]
    table = {(0, i): {i: 1} for i in range(65)}
    table.update({(i, 0): {i: 1} for i in range(65)})
    table[1, 1], table[2, 1] = {2: 1}, {3: 1}
    with pytest.raises(ValueError, match=r"^not associative at \(e1, e1, e1\)$"):
        FinDimAlgebra(labels, 0, table)


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


def test_search_derives_the_pair_parities_once(monkeypatch):
    calls = []
    derive = FinDimAlgebra.pair_parities
    monkeypatch.setattr(FinDimAlgebra, "pair_parities",
                        lambda A: calls.append(A) or derive(A))
    assert len(search_degree_assignments(quaternion_algebra(), 3)) > 1
    assert len(calls) == 1


def test_dual_numbers_search():
    A = dual_numbers()
    found = search_degree_assignments(A, 1)
    # t may be even (degree 0) or... degree 1 squares to zero: t*t = 0 is in
    # the table as an absent entry, so both assignments certify
    degs = sorted(str(asg["t"]) for asg in found)
    assert degs == ["0", "1"]


def test_pair_parities_cover_both_none_and_one():
    A = quaternion_algebra()
    parities = A.pair_parities()
    assert parities[1, 2] == parities[2, 1] == {1}  # i j = -j i
    assert parities[1, 1] == {0}  # i i = -1 is not zero
    assert dual_numbers().pair_parities()[1, 1] == {0, 1}  # t t = 0
    # 2x2 upper triangular matrices, a = E11 and b = E12: a b = b, b a = 0
    tri = FinDimAlgebra(["one", "a", "b"], 0, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                                               (0, 2): {2: 1}, (2, 0): {2: 1},
                                               (1, 1): {1: 1}, (1, 2): {2: 1}})
    assert tri.pair_parities()[1, 2] == tri.pair_parities()[2, 1] == set()


def test_mixed_length_degrees_raise_a_grading_error_naming_the_label():
    A = quaternion_algebra()
    asg = {"one": Degree.parse("00"), "i": Degree.parse("011"),
           "j": Degree.parse("101"), "k": Degree.parse("110")}
    with pytest.raises(GradingError, match="label 'i' has degree 011 of length 3"):
        check_graded_commutative(A, asg)


def assignments(dim, unit, n):
    """Every degree assignment as 0/1 tuples, unit at zero, lexicographic in
    basis order."""
    bits = list(product((0, 1), repeat=n))
    return product(*([bits[0]] if i == unit else bits for i in range(dim)))


def as_degrees(labels, degs):
    return {lb: Degree(d) for lb, d in zip(labels, degs)}


def test_search_equals_brute_force_under_the_naive_oracle():
    rng = random.Random(20261018)
    nonempty = 0
    for _ in range(300):
        dim, n = rng.randint(1, 4), rng.randint(1, 3)
        unit, table = rand_unital_table(rng, dim, n)
        A = FinDimAlgebra(LABELS[:dim], unit, table, check=False)
        want = [as_degrees(A.labels, degs) for degs in assignments(dim, unit, n)
                if naive_certifies(table, unit, degs)]
        assert search_degree_assignments(A, n) == want, table
        nonempty += bool(want)
    assert nonempty >= 60


def test_certification_reports_the_naive_violations_in_order():
    rng = random.Random(20261019)
    passed = failed = raised = 0
    for _ in range(300):
        dim, n = rng.randint(1, 4), rng.randint(1, 3)
        unit, table = rand_unital_table(rng, dim, n)
        A = FinDimAlgebra(LABELS[:dim], unit, table, check=False)
        homogeneous = [d for d in assignments(dim, unit, n) if naive_homogeneous(table, d)]
        drawn = rng.sample(homogeneous, min(3, len(homogeneous)))
        drawn.append([tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(dim)])
        for degs in drawn:
            asg = as_degrees(A.labels, degs)
            if any(degs[unit]) or not naive_homogeneous(table, degs):
                with pytest.raises(GradingError):
                    check_graded_commutative(A, asg)
                raised += 1
                continue
            want = [(A.labels[i], A.labels[j], naive_product(table, i, j), naive_product(table, j, i))
                    for i, j in naive_violations(table, degs)]
            assert check_graded_commutative(A, asg) == (not want, want), (table, degs)
            passed += not want
            failed += bool(want)
    assert min(passed, failed, raised) >= 60


def test_construction_raises_exactly_at_the_first_nonassociative_triple():
    rng = random.Random(20261020)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        dim = rng.randint(1, 4)
        if rng.random() < 0.6:
            unit, table = 0, rand_associative_table(rng, dim)
            if dim > 1 and rng.random() < 0.4:
                a, b = rng.randint(1, dim - 1), rng.randint(1, dim - 1)
                table[a, b] = {rng.randrange(dim): rand_fraction(rng)}
        else:
            unit, table = rand_unital_table(rng, dim, 3)
        first = naive_first_nonassociative(table, dim)
        labels = LABELS[:dim]
        if first is None:
            FinDimAlgebra(labels, unit, table)
        else:
            message = "not associative at (%s, %s, %s)" % tuple(labels[x] for x in first)
            with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
                FinDimAlgebra(labels, unit, table)
        outcomes[first is None] += 1
    assert min(outcomes.values()) >= 60


def test_clifford_tables_match_the_word_bubbling_oracle():
    for m in range(5):
        for p in range(m + 1):
            A = clifford_algebra(p, m - p)
            assert (A.labels, A.unit, A.table) == naive_clifford(p, m - p), (p, m - p)


# Two large coprime denominators: a table rescaled by both has a common
# denominator no single entry shows, and 1/(D1 D2) is below every entry's
# own denominator.
WIDE = (2 ** 61 - 1, 10 ** 9 + 7)


def wide_scale(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice(WIDE))


def rescaled(table, scale):
    """The table in the basis s_i e_i: e_i e_j = sum_k c s_i s_j / s_k e_k."""
    return {(i, j): {k: c * scale[i] * scale[j] / scale[k] for k, c in row.items()}
            for (i, j), row in table.items()}


def test_the_integer_check_agrees_with_the_oracle_over_large_coprime_denominators():
    rng = random.Random(20261021)
    outcomes = {True: 0, False: 0}
    both = 0
    for _ in range(200):
        dim = rng.randint(2, 4)
        scale = [Fraction(1)] + [wide_scale(rng) for _ in range(dim - 1)]
        table = rescaled(rand_associative_table(rng, dim), scale)
        if rng.random() < 0.5:
            row = table.setdefault((rng.randint(1, dim - 1), rng.randint(1, dim - 1)), {})
            k = rng.randrange(dim)
            row[k] = row.get(k, 0) + Fraction(1, WIDE[0] * WIDE[1])
        dens = [Fraction(c).denominator for row in table.values() for c in row.values()]
        both += all(any(d % p == 0 for d in dens) for p in WIDE)
        first = naive_first_nonassociative(table, dim)
        labels = LABELS[:dim]
        if first is None:
            FinDimAlgebra(labels, 0, table)
        else:
            message = "not associative at (%s, %s, %s)" % tuple(labels[x] for x in first)
            with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
                FinDimAlgebra(labels, 0, table)
        outcomes[first is None] += 1
    assert min(outcomes.values()) >= 50
    assert both >= 50


def test_search_over_mixed_denominators_equals_brute_force_under_the_naive_oracle():
    rng = random.Random(20261022)
    nonempty = 0
    for _ in range(200):
        dim, n = rng.randint(2, 4), rng.randint(1, 3)
        unit, table = rand_unital_table(rng, dim, n)
        scale = [Fraction(1) if i == unit else wide_scale(rng) for i in range(dim)]
        table = rescaled(table, scale)
        A = FinDimAlgebra(LABELS[:dim], unit, table, check=False)
        want = [as_degrees(A.labels, degs) for degs in assignments(dim, unit, n)
                if naive_certifies(table, unit, degs)]
        assert search_degree_assignments(A, n) == want, table
        nonempty += bool(want)
    assert nonempty >= 40
