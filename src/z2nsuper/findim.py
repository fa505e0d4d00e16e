"""Graded-commutativity certification of finite-dimensional algebras.

Algebras are given by structure constants over the rationals.  A degree
assignment maps basis labels to Z2^n degrees; certification checks that each
product of basis elements is homogeneous and satisfies the scalar-product
commutation rule.  Assignments can also be found by exhaustive search.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .degrees import Degree, sign_factor


class GradingError(ValueError):
    """A structure-constant product is not homogeneous for the assignment."""


class BudgetExceeded(RuntimeError):
    pass


DEFAULT_BUDGET = 5_000_000


def search_budget():
    return int(os.environ.get("Z2N_SEARCH_BUDGET", DEFAULT_BUDGET))


class FinDimAlgebra:
    """A finite-dimensional unital algebra by structure constants.

    table[(i, j)] maps k -> c with e_i e_j = sum_k c e_k; absent pairs
    multiply to zero.  Associativity and the two-sided unit are checked on
    construction (dimensions up to 64).
    """

    def __init__(self, labels, unit, table, check=True):
        self.labels = list(labels)
        self.unit = unit
        self.table = {
            ij: {k: Fraction(c) for k, c in row.items() if c != 0}
            for ij, row in table.items()
        }
        self.table = {ij: row for ij, row in self.table.items() if row}
        if check:
            self._check_unit()
            if len(self.labels) <= 64:
                self._check_associativity()

    @property
    def dim(self):
        return len(self.labels)

    def product(self, i, j):
        return dict(self.table.get((i, j), {}))

    def _vec_product(self, v, j):
        out = {}
        for i, c in v.items():
            for k, d in self.product(i, j).items():
                out[k] = out.get(k, Fraction(0)) + c * d
        return {k: c for k, c in out.items() if c != 0}

    def _check_unit(self):
        e = self.unit
        for i in range(self.dim):
            if self.product(e, i) != {i: Fraction(1)} or self.product(i, e) != {i: Fraction(1)}:
                raise ValueError("label %r is not a two-sided unit" % self.labels[e])

    def _check_associativity(self):
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.product(i, j)
                for k in range(self.dim):
                    left = self._vec_product(ij, k)
                    right = {}
                    for m, c in self.product(j, k).items():
                        for l, d in self.product(i, m).items():
                            right[l] = right.get(l, Fraction(0)) + c * d
                    right = {l: c for l, c in right.items() if c != 0}
                    if left != right:
                        raise ValueError(
                            "not associative at (%s, %s, %s)"
                            % (self.labels[i], self.labels[j], self.labels[k])
                        )


def check_graded_commutative(A, assignment):
    """Certify an assignment; returns (passed, violations).

    Homogeneity of every product is checked first and reported as a
    GradingError; sign violations are returned as
    (label_i, label_j, product_ij, product_ji) tuples.
    """
    degs = [Degree(assignment[lb]) for lb in A.labels]
    if not degs[A.unit].is_zero():
        raise GradingError("the unit must carry the zero degree")
    for (i, j), row in A.table.items():
        want = degs[i] + degs[j]
        for k in row:
            if degs[k] != want:
                raise GradingError(
                    "product %s*%s hits %s of degree %s, expected %s"
                    % (A.labels[i], A.labels[j], A.labels[k], degs[k], want)
                )
    violations = []
    for i in range(A.dim):
        for j in range(A.dim):
            pij = A.product(i, j)
            pji = A.product(j, i)
            s = sign_factor(degs[i], degs[j])
            scaled = {k: s * c for k, c in pji.items()}
            if pij != scaled:
                violations.append((A.labels[i], A.labels[j], pij, pji))
    return (not violations, violations)


def search_degree_assignments(A, n, budget=None):
    """All assignments (unit fixed to 0) that certify, canonically ordered.

    Exhaustive over the (2^n)^(dim-1) tuples of n-bit masks with homogeneity
    pruning (a product has mask a ^ b); an explicit budget guard refuses
    infeasible searches.
    """
    if n < 1:
        raise ValueError("degree search needs n >= 1, got n = %d" % n)
    budget = search_budget() if budget is None else budget
    space = (1 << n) ** (A.dim - 1)
    if space > budget:
        raise BudgetExceeded(
            "search space %d exceeds budget %d (set Z2N_SEARCH_BUDGET)" % (space, budget)
        )
    others = [i for i in range(A.dim) if i != A.unit]
    found = []

    def consistent(partial):
        # homogeneity and sign checks restricted to fully assigned pairs
        for (i, j), row in A.table.items():
            if i in partial and j in partial:
                want = partial[i] ^ partial[j]
                for k in row:
                    if k in partial and partial[k] != want:
                        return False
                s = -1 if (partial[i] & partial[j]).bit_count() & 1 else 1
                if row != {k: s * c for k, c in A.product(j, i).items()}:
                    return False
        return True

    def rec(pos, partial):
        if pos == len(others):
            found.append({A.labels[i]: Degree.from_mask(partial[i], n) for i in range(A.dim)})
            return
        i = others[pos]
        for mask in range(1 << n):
            partial[i] = mask
            if consistent(partial):
                rec(pos + 1, partial)
            del partial[i]

    rec(0, {A.unit: 0})
    # full certification round-trip, and canonical ordering
    out = []
    for asg in found:
        try:
            ok, _ = check_graded_commutative(A, asg)
        except GradingError:
            continue
        if ok:
            out.append(asg)
    out.sort(key=lambda asg: [asg[lb] for lb in A.labels])
    return out


# -- builtin generators ---------------------------------------------------


def quaternion_algebra():
    """The quaternions over the rationals: basis (one, i, j, k)."""
    labels = ["one", "i", "j", "k"]
    one, i, j, k = range(4)
    table = {}

    def put(a, b, c, q):
        table.setdefault((a, b), {})[c] = Fraction(q)

    for t in range(4):
        put(one, t, t, 1)
        if t != one:
            put(t, one, t, 1)
    put(i, i, one, -1)
    put(j, j, one, -1)
    put(k, k, one, -1)
    put(i, j, k, 1)
    put(j, i, k, -1)
    put(j, k, i, 1)
    put(k, j, i, -1)
    put(k, i, j, 1)
    put(i, k, j, -1)
    return FinDimAlgebra(labels, one, table)


def clifford_algebra(p, q):
    """Cl_{p,q}(R): p generators squaring to +1, q squaring to -1.

    Basis elements are products of generators indexed by subsets, labelled
    e.g. "e13"; the empty product is "one".  p + q <= 4 keeps the dimension
    within the associativity-check bound.
    """
    m = p + q
    if m > 4:
        raise ValueError("clifford_algebra supports p + q <= 4")
    squares = [Fraction(1)] * p + [Fraction(-1)] * q
    subsets = []
    for mask in range(2 ** m):
        subsets.append(tuple(i for i in range(m) if mask >> i & 1))
    subsets.sort(key=lambda s: (len(s), s))
    index = {s: i for i, s in enumerate(subsets)}
    labels = ["one" if not s else "e" + "".join(str(i + 1) for i in s) for s in subsets]

    def mul(s1, s2):
        # concatenate and bubble into sorted order, tracking the sign
        word = list(s1) + list(s2)
        sign = Fraction(1)
        changed = True
        while changed:
            changed = False
            for t in range(len(word) - 1):
                if word[t] > word[t + 1]:
                    word[t], word[t + 1] = word[t + 1], word[t]
                    sign = -sign
                    changed = True
                elif word[t] == word[t + 1]:
                    sign = sign * squares[word[t]]
                    del word[t + 1], word[t]
                    changed = True
                    break
        return tuple(word), sign

    table = {}
    for s1 in subsets:
        for s2 in subsets:
            s, c = mul(s1, s2)
            table.setdefault((index[s1], index[s2]), {})[index[s]] = c
    return FinDimAlgebra(labels, index[()], table)
