"""Finite-dimensional algebras: certification and degree-assignment search."""

import importlib.util
import random
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

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
from z2nsuper import findim
from z2nsuper.findim import DEFAULT_BUDGET

from conftest import (
    naive_certifies,
    naive_clifford,
    naive_first_nonassociative,
    naive_homogeneous,
    naive_mul,
    naive_product,
    naive_violations,
    rand_associative_table,
    rand_fraction,
    rand_unital_table,
)

_GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
_spec = importlib.util.spec_from_file_location("bench_gen", _GEN)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

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


def test_clifford_algebra_refuses_more_than_four_generators():
    with pytest.raises(ValueError) as exc:
        clifford_algebra(3, 2)
    assert type(exc.value) is ValueError
    assert str(exc.value) == "clifford_algebra supports p + q <= 4"


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


def zero_products(k):
    """A unit and k labels whose products among themselves all vanish, so that
    no homogeneity triple forces any of them."""
    table = {}
    for i in range(k + 1):
        table[0, i] = table[i, 0] = {i: 1}
    return FinDimAlgebra(["one"] + ["a%d" % i for i in range(1, k + 1)], 0, table)


def naive_free_labels(A):
    """The labels, after the unit in basis order, that no product of labels
    placed so far names an odd number of times: each is placed in turn, and
    every product of two placed labels that hits a placed label is read."""
    placed, free = [A.unit], 0
    for i in (i for i in range(A.dim) if i != A.unit):
        placed.append(i)
        if not any((a, b, k).count(i) & 1 for a in placed for b in placed
                   for k in A.product(a, b) if k in placed):
            free += 1
    return free


def counting_parities(monkeypatch):
    """The list that each `pair_parities` call appends to: a search reads the
    pair parities once, before it tries any mask."""
    calls = []
    derive = FinDimAlgebra.pair_parities
    monkeypatch.setattr(FinDimAlgebra, "pair_parities",
                        lambda A: calls.append(A) or derive(A))
    return calls


def test_budget_guard(monkeypatch):
    calls = counting_parities(monkeypatch)
    A = zero_products(7)
    assert naive_free_labels(A) == 7
    with pytest.raises(BudgetExceeded) as err:
        search_degree_assignments(A, 4)
    assert str(err.value) == "search space %d exceeds budget %d" % (16 ** 7, DEFAULT_BUDGET)
    assert calls == []


# each label no triple forces: the generators of Cl(p, q), i and j of the
# quaternions (k = i j), and every label of the zero-product algebra
FREE_LABELS = [("H", quaternion_algebra(), 2), ("zero7", zero_products(7), 7)] + [
    ("Cl%d%d" % (p, m - p), clifford_algebra(p, m - p), m)
    for m in range(1, 5) for p in range(m + 1)]


@pytest.mark.parametrize("A, free", [case[1:] for case in FREE_LABELS],
                         ids=[case[0] for case in FREE_LABELS])
def test_the_budget_counts_2_to_the_n_mask_lists_per_free_label(monkeypatch, A, free):
    assert naive_free_labels(A) == free
    calls = counting_parities(monkeypatch)
    # refused at the default budget from the first n whose space exceeds it
    first = next(n for n in range(1, 30) if (2 ** n) ** free > DEFAULT_BUDGET)
    for n in (first, first + 1):
        with pytest.raises(BudgetExceeded):
            search_degree_assignments(A, n)
    assert calls == []
    # at n = 1, a budget of exactly the space searches and one less refuses
    monkeypatch.setattr(findim, "DEFAULT_BUDGET", 2 ** free)
    found = search_degree_assignments(A, 1)
    assert len(calls) == 1
    monkeypatch.setattr(findim, "DEFAULT_BUDGET", 2 ** free - 1)
    with pytest.raises(BudgetExceeded):
        search_degree_assignments(A, 1)
    assert len(calls) == 1 and all(check_graded_commutative(A, asg)[0] for asg in found)


def test_a_search_with_no_free_label_is_never_refused():
    A = clifford_algebra(0, 0)
    assert naive_free_labels(A) == 0
    assert search_degree_assignments(A, 64) == [{"one": Degree([0] * 64)}]


def test_the_budget_follows_the_basis_order():
    # Cl(0, 3) with e123 placed before e12: no product of one, e1, e2, e3
    # hits e123, so it is a fourth free label
    base = clifford_algebra(0, 3)
    order = [base.labels.index(lb)
             for lb in ["one", "e1", "e2", "e3", "e123", "e12", "e13", "e23"]]
    new = {old: s for s, old in enumerate(order)}
    table = {(new[i], new[j]): {new[k]: c for k, c in row.items()}
             for (i, j), row in base.table.items()}
    A = FinDimAlgebra([base.labels[i] for i in order], 0, table)
    assert (naive_free_labels(base), naive_free_labels(A)) == (3, 4)
    assert (2 ** 6) ** 3 <= DEFAULT_BUDGET < (2 ** 6) ** 4
    assert len(search_degree_assignments(base, 6)) == 3840
    with pytest.raises(BudgetExceeded):
        search_degree_assignments(A, 6)


def test_free_labels_are_counted_in_any_basis_order(monkeypatch):
    rng = random.Random(20261019)
    calls = counting_parities(monkeypatch)
    for name, base in small_algebras().items():
        for _ in range(4):
            A, _ = gen.relabel(rng, base)
            space = 2 ** naive_free_labels(A)
            monkeypatch.setattr(findim, "DEFAULT_BUDGET", space - 1)
            with pytest.raises(BudgetExceeded):
                search_degree_assignments(A, 1)
            monkeypatch.setattr(findim, "DEFAULT_BUDGET", space)
            before = len(calls)
            search_degree_assignments(A, 1)
            assert len(calls) == before + 1, name


def test_cl13_is_searched_at_n5():
    # at most (2^5)^4 mask lists, 2^5 for each of the four generators
    A = clifford_algebra(1, 3)
    found = search_degree_assignments(A, 5)
    assert len(found) == 720 == len({masks(A, asg) for asg in found})
    assert all(check_graded_commutative(A, asg)[0] for asg in found[::37])


def test_search_derives_the_pair_parities_once(monkeypatch):
    calls = counting_parities(monkeypatch)
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


def builds_or_raises_at_the_naive_first(labels, unit, table):
    """FinDimAlgebra builds when the naive oracle finds no non-associative
    triple, and otherwise raises naming exactly the oracle's first one;
    True when it built."""
    first = naive_first_nonassociative(table, len(labels))
    if first is None:
        FinDimAlgebra(labels, unit, table)
    else:
        message = "not associative at (%s, %s, %s)" % tuple(labels[x] for x in first)
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            FinDimAlgebra(labels, unit, table)
    return first is None


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
        outcomes[builds_or_raises_at_the_naive_first(LABELS[:dim], unit, table)] += 1
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
        outcomes[builds_or_raises_at_the_naive_first(LABELS[:dim], 0, table)] += 1
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


def small_algebras():
    """The quaternions and every Cl(p, q) with p + q <= 3, by name."""
    out = {"H": quaternion_algebra()}
    for m in range(4):
        for p in range(m + 1):
            out["Cl%d%d" % (p, m - p)] = clifford_algebra(p, m - p)
    return out


def masks(A, asg):
    return tuple(int(asg[lb]) for lb in A.labels)


def test_the_search_on_a_relabeled_algebra_is_the_base_search_relabeled():
    # relabeled basis orders put the unit anywhere and the labels whose
    # masks a triple forces deep in the order
    rng = random.Random(20261023)
    cases = 0
    for name, base in small_algebras().items():
        for n in range(1, 5):
            if (2 ** n) ** (base.dim - 1) > DEFAULT_BUDGET:
                continue
            want = {masks(base, asg) for asg in search_degree_assignments(base, n)}
            for _ in range(3):
                R, perm = gen.relabel(rng, base)
                A = FinDimAlgebra(R.labels, R.unit, R.table, check=True)
                got = [masks(A, asg) for asg in search_degree_assignments(A, n)]
                # new label s is the old label perm[s]
                assert {tuple(g[perm.index(o)] for o in range(A.dim)) for g in got} == want, \
                    (name, n, perm)
                assert got == sorted(got), (name, n, perm)
                cases += 1
    assert cases >= 100


def test_construction_raises_at_the_naive_first_nonassociative_triple_up_to_dim_8():
    rng = random.Random(20261024)
    bases = [A for A in small_algebras().values() if A.dim >= 4]
    outcomes = {True: 0, False: 0}
    for _ in range(40):
        A, _ = gen.relabel(rng, rng.choice(bases))
        table = {ij: dict(row) for ij, row in A.table.items()}
        if rng.random() < 0.7:
            rest = [i for i in range(A.dim) if i != A.unit]
            row = table[rng.choice(rest), rng.choice(rest)]
            k = rng.choice(sorted(row))
            row[k] += 1
        outcomes[builds_or_raises_at_the_naive_first(A.labels, A.unit, table)] += 1
    assert min(outcomes.values()) >= 8


def counting_terms(monkeypatch):
    """The list that each call of `findim._terms`, the associativity scan's
    reader of multi-term cells, appends to."""
    calls = []
    read = findim._terms
    monkeypatch.setattr(findim, "_terms", lambda cell: calls.append(cell) or read(cell))
    return calls


def test_a_rescaled_clifford_table_with_one_sign_flipped_raises_at_the_naive_first(monkeypatch):
    # every product of a rescaled Clifford table is a single term, so the
    # scan compares each triple directly and never accumulates a sum
    rng = random.Random(20261025)
    bases = [clifford_algebra(p, m - p) for m in (2, 3) for p in range(m + 1)]
    calls = counting_terms(monkeypatch)
    for _ in range(40):
        A, _ = gen.relabel(rng, rng.choice(bases))
        table = {ij: dict(row) for ij, row in A.table.items()}
        assert all(len(row) == 1 for row in table.values())
        assert builds_or_raises_at_the_naive_first(A.labels, A.unit, table)
        rest = [i for i in range(A.dim) if i != A.unit]
        row = table[rng.choice(rest), rng.choice(rest)]
        (k, c), = row.items()
        row[k] = -c
        assert not builds_or_raises_at_the_naive_first(A.labels, A.unit, table)
    assert calls == []


def mixed_basis(table, dim, x, y):
    """The table in the basis f_x = e_x + e_y and f_s = e_s for s != x: the
    products that meet x have one or more terms, the others keep one."""
    f = [{s: Fraction(1)} for s in range(dim)]
    f[x][y] = Fraction(1)
    out = {}
    for s in range(dim):
        for t in range(dim):
            v = naive_mul(table, f[s], f[t])
            # e_x = f_x - f_y, and e_s = f_s for every other s
            if x in v:
                v[y] = v.get(y, 0) - v[x]
            row = {k: c for k, c in v.items() if c}
            if row:
                out[s, t] = row
    return out


def test_a_table_mixing_single_and_multi_term_products_raises_at_the_naive_first(monkeypatch):
    rng = random.Random(20261026)
    bases = [quaternion_algebra()] + [clifford_algebra(p, m - p) for m in (2, 3)
                                      for p in range(m + 1)]
    calls = counting_terms(monkeypatch)
    outcomes = {True: 0, False: 0}
    for _ in range(60):
        A, _ = gen.relabel(rng, rng.choice(bases))
        x, y = rng.sample([i for i in range(A.dim) if i != A.unit], 2)
        table = mixed_basis(A.table, A.dim, x, y)
        lengths = {len(row) for row in table.values()}
        assert 1 in lengths and max(lengths) > 1
        if rng.random() < 0.7:
            rest = [i for i in range(A.dim) if i != A.unit]
            row = table.setdefault((rng.choice(rest), rng.choice(rest)), {})
            k = rng.randrange(A.dim)
            row[k] = row.get(k, 0) + rng.choice([-1, 1])
        outcomes[builds_or_raises_at_the_naive_first(A.labels, A.unit, table)] += 1
    assert min(outcomes.values()) >= 12
    assert calls
