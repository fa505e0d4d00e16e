"""Graded-commutativity certification of finite-dimensional algebras.

Algebras are given by structure constants over the rationals.  A degree
assignment maps basis labels to Z2^n degrees; it certifies when each product
of basis elements is homogeneous and each pair obeys the scalar-product rule
e_i e_j = (-1)^<deg i, deg j> e_j e_i.  The table alone decides which parities
of <deg i, deg j> each pair admits (`FinDimAlgebra.pair_parities`); the
certification and the exhaustive search both read that one derivation and
share one scan over plain int degree masks (`_violations`), and the search
checks each condition once, when its last label is assigned.  Associativity
is checked in exact integers over the table's one denominator.
"""

from __future__ import annotations

import itertools
import os
from fractions import Fraction
from math import lcm, prod

from .degrees import Degree, dot_parity


class GradingError(ValueError):
    """A product is not homogeneous for the assignment, or its degrees mix n."""


class BudgetExceeded(RuntimeError):
    pass


DEFAULT_BUDGET = 5_000_000


def search_budget():
    return int(os.environ.get("Z2N_SEARCH_BUDGET", DEFAULT_BUDGET))


class FinDimAlgebra:
    """A finite-dimensional unital algebra by structure constants.

    table[(i, j)] maps k -> c with e_i e_j = sum_k c e_k; absent pairs
    multiply to zero.  Associativity and the two-sided unit are checked on
    construction.
    """

    def __init__(self, labels, unit, table, check=True):
        self.labels = list(labels)
        self.unit = unit
        self.table = {ij: row for ij, r in table.items()
                      if (row := {k: Fraction(c) for k, c in r.items() if c != 0})}
        if check:
            self._check_unit()
            self._check_associativity()

    @property
    def dim(self):
        return len(self.labels)

    def product(self, i, j):
        return dict(self.table.get((i, j), {}))

    def pair_parities(self):
        """{(i, j): the parities p of <deg i, deg j> with e_i e_j = (-1)^p e_j e_i}.

        Both parities when both products vanish, neither when they are not
        +- each other; symmetric in i and j.
        """
        out = {}
        for i in range(self.dim):
            for j in range(i + 1):
                ij, ji = self.table.get((i, j), {}), self.table.get((j, i), {})
                signed = ((0, ji), (1, {k: -c for k, c in ji.items()}))
                out[i, j] = out[j, i] = {p for p, rhs in signed if ij == rhs}
        return out

    def _check_unit(self):
        e = self.unit
        for i in range(self.dim):
            if self.table.get((e, i)) != {i: 1} or self.table.get((i, e)) != {i: 1}:
                raise ValueError("label %r is not a two-sided unit" % self.labels[e])

    def _check_associativity(self):
        # rows as (k, numerator) pairs over the table's one denominator D, so
        # (e_i e_j) e_k - e_i (e_j e_k), accumulated in one dict, is an
        # integer sum over D^2 that must vanish
        den = lcm(*(c.denominator for row in self.table.values() for c in row.values()))
        t = {ij: [(k, c.numerator * (den // c.denominator)) for k, c in row.items()]
             for ij, row in self.table.items()}
        for i, j, k in itertools.product(range(self.dim), repeat=3):
            diff = {}
            for m, c in t.get((i, j), ()):
                for l, d in t.get((m, k), ()):
                    diff[l] = diff.get(l, 0) + c * d
            for m, c in t.get((j, k), ()):
                for l, d in t.get((i, m), ()):
                    diff[l] = diff.get(l, 0) - c * d
            if any(diff.values()):
                raise ValueError("not associative at (%s, %s, %s)"
                                 % tuple(self.labels[x] for x in (i, j, k)))


def check_graded_commutative(A, assignment):
    """Certify an assignment; returns (passed, violations).

    Degrees of different n, a nonzero unit degree and an inhomogeneous
    product raise GradingError; sign violations are returned as
    (label_i, label_j, product_ij, product_ji) tuples, i then j in basis order.
    """
    degs = [Degree(assignment[lb]) for lb in A.labels]
    zero = degs[A.unit]
    for lb, d in zip(A.labels, degs):
        if d.n != zero.n:
            raise GradingError("label %r has degree %s of length %d, but the unit %r has %s"
                               % (lb, d, d.n, A.labels[A.unit], zero))
    if not zero.is_zero():
        raise GradingError("the unit must carry the zero degree")
    violations = _violations(A, [int(d) for d in degs], zero.n, A.pair_parities())
    return (not violations, violations)


def _violations(A, masks, n, parities):
    """The sign violations of the degree masks (unit at zero), read from the
    table's `pair_parities`; an inhomogeneous product raises GradingError."""
    for (i, j), row in A.table.items():
        want = masks[i] ^ masks[j]
        for k in row:
            if masks[k] != want:
                raise GradingError("product %s*%s hits %s of degree %s, expected %s"
                                   % (A.labels[i], A.labels[j], A.labels[k],
                                      Degree.from_mask(masks[k], n), Degree.from_mask(want, n)))
    return [(A.labels[i], A.labels[j], A.product(i, j), A.product(j, i))
            for i, j in itertools.product(range(A.dim), repeat=2)
            if dot_parity(masks[i], masks[j]) not in parities[i, j]]


def search_degree_assignments(A, n, budget=None):
    """All assignments (unit fixed to 0) that certify, canonically ordered.

    Depth first over the unit, then the other labels in basis order, each
    taking the n-bit masks in ascending order, which is the canonical order.
    Each homogeneity triple (i, j, k) of the table and each pair condition
    of `pair_parities` is checked once, when its last label is assigned, so
    a candidate mask checks only the conditions it completes.  Searches of
    more than `budget` assignments are refused; every mask list found is
    certified again through the scan of check_graded_commutative, from the
    same pair parities, before its assignment is built.
    """
    if n < 1:
        raise ValueError("degree search needs n >= 1, got n = %d" % n)
    budget = search_budget() if budget is None else budget
    space = (1 << n) ** (A.dim - 1)
    if space > budget:
        raise BudgetExceeded(
            "search space %d exceeds budget %d (set Z2N_SEARCH_BUDGET)" % (space, budget)
        )
    order = [A.unit] + [i for i in range(A.dim) if i != A.unit]
    pos = {i: p for p, i in enumerate(order)}
    triples, pairs = [[] for _ in order], [[] for _ in order]
    for (i, j), row in A.table.items():
        for k in row:
            triples[max(pos[i], pos[j], pos[k])].append((i, j, k))
    parities = A.pair_parities()
    for (i, j), ps in parities.items():
        if i <= j and len(ps) < 2:
            pairs[max(pos[i], pos[j])].append((i, j, ps))
    mask = [0] * A.dim
    found = []

    def rec(p):
        if p == len(order):
            if not _violations(A, mask, n, parities):
                found.append({lb: Degree.from_mask(m, n) for lb, m in zip(A.labels, mask)})
            return
        i = order[p]
        for m in range(1 << n) if p else (0,):
            mask[i] = m
            if all(mask[a] ^ mask[b] == mask[c] for a, b, c in triples[p]) and all(
                dot_parity(mask[a], mask[b]) in ps for a, b, ps in pairs[p]
            ):
                rec(p + 1)

    rec(0)
    return found


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
        put(t, one, t, 1)
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        put(a, a, one, -1)
        put(a, b, c, 1)
        put(b, a, c, -1)
    return FinDimAlgebra(labels, one, table)


def clifford_algebra(p, q):
    """Cl_{p,q}(R): p generators squaring to +1, q squaring to -1.

    Basis elements are products of generators indexed by subsets, labelled
    e.g. "e13"; the empty product is "one".  p + q <= 4 keeps the dimension
    at most 16.
    """
    m = p + q
    if m > 4:
        raise ValueError("clifford_algebra supports p + q <= 4")
    squares = [1] * p + [-1] * q
    # blades are subsets of generators as bit masks, in (size, subset) order
    bits = [[i for i in range(m) if a >> i & 1] for a in range(1 << m)]
    blades = sorted(range(1 << m), key=lambda a: (len(bits[a]), bits[a]))
    index = {a: i for i, a in enumerate(blades)}
    labels = ["e" + "".join(str(i + 1) for i in bits[a]) if a else "one" for a in blades]

    table = {}
    for a in blades:
        for b in blades:
            # the bitmap blade product (Dorst, Fontijne & Mann, ch. 19): the
            # reordering sign is the parity of the pairs i in a, j in b with
            # j < i, and each shared generator contributes its square
            swaps = sum(((a >> s) & b).bit_count() for s in range(1, m))
            sign = (-1) ** swaps * prod(squares[i] for i in bits[a & b])
            table[index[a], index[b]] = {index[a ^ b]: Fraction(sign)}
    return FinDimAlgebra(labels, index[0], table)
