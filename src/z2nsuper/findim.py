"""Graded-commutativity certification of finite-dimensional algebras.

Algebras are given by structure constants over the rationals.  A degree
assignment maps basis labels to Z2^n degrees; it certifies when each product
of basis elements is homogeneous and each pair obeys the scalar-product rule
e_i e_j = (-1)^<deg i, deg j> e_j e_i.  The table alone decides which parities
of <deg i, deg j> each pair admits (`FinDimAlgebra.pair_parities`); the
certification and the exhaustive search both read that one derivation and
share one scan over plain int degree masks (`_violations`), and the search
checks each condition once, when its last label is assigned.  A homogeneity
triple that names a label once or three times forces that label's mask, so
the search tries that one mask there instead of all 2^n, and its fixed
budget counts 2^n mask lists for each label that no triple forces.
The table is turned once into integer rows over its one denominator
(`FinDimAlgebra.rows`), and the associativity scan, the pair parities and
so the search's re-certification all read them.  Associativity is checked
on the triples of non-unit labels only: the unit is checked first, and
every triple through it is associative.  A triple whose products are all
single terms is decided by comparing the two (label, numerator) results;
any other triple sums (e_i e_j) e_k - e_i (e_j e_k) exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm, prod

from .degrees import Degree


class GradingError(ValueError):
    """A product is not homogeneous for the assignment, or its degrees mix n."""


class BudgetExceeded(RuntimeError):
    pass


DEFAULT_BUDGET = 5_000_000


class FinDimAlgebra:
    """A finite-dimensional unital algebra by structure constants.

    table[(i, j)] maps k -> c with e_i e_j = sum_k c e_k; absent pairs
    multiply to zero.  Associativity and the two-sided unit are checked on
    construction.
    """

    def __init__(self, labels, unit, table, check=True):
        self.labels = list(labels)
        self.unit = unit
        self.table = {ij: row for ij, r in table.items() if (row := _rational_row(r))}
        if check:
            self._check_unit()
            self._check_associativity()

    @property
    def dim(self):
        return len(self.labels)

    def product(self, i, j):
        return dict(self.table.get((i, j), {}))

    @cached_property
    def rows(self):
        """The table in integers over its one denominator D, made on first
        use: rows[i][j] is the flat tuple (k, a, k', a', ...), labels
        ascending, of e_i e_j = (a e_k + a' e_k' + ...) / D, and () when
        the product vanishes."""
        den = lcm(*(c.denominator for row in self.table.values() for c in row.values()))
        rows = [[()] * self.dim for _ in self.labels]
        for (i, j), row in self.table.items():
            cell = []
            for k in sorted(row):
                c = row[k]
                cell += (k, c.numerator * (den // c.denominator))
            rows[i][j] = tuple(cell)
        return rows

    def pair_parities(self):
        """{(i, j): the parities p of <deg i, deg j> with e_i e_j = (-1)^p e_j e_i}.

        Both parities when both products vanish, neither when they are not
        +- each other; symmetric in i and j, and keyed i then j in basis
        order.  The integer rows are compared as they are, and negated.
        """
        rows = self.rows
        out = {}
        for i, ri in enumerate(rows):
            for j, ij in enumerate(ri):
                if j < i:
                    out[i, j] = out[j, i]
                    continue
                ji = rows[j][i]
                if ij == ji:
                    out[i, j] = _EVEN if ij else _BOTH
                elif ij[::2] == ji[::2] and all(a == -b for a, b in zip(ij[1::2], ji[1::2])):
                    out[i, j] = _ODD
                else:
                    out[i, j] = _NEITHER
        return out

    def _check_unit(self):
        e = self.unit
        for i in range(self.dim):
            if self.table.get((e, i)) != {i: 1} or self.table.get((i, e)) != {i: 1}:
                raise ValueError("label %r is not a two-sided unit" % self.labels[e])

    def _check_associativity(self):
        # over the integer rows, (e_i e_j) e_k - e_i (e_j e_k) is an integer
        # sum over D^2 that must vanish.  When e_i e_j = a e_m, e_j e_k =
        # b e_m' and both e_m e_k = c e_l and e_i e_m' = d e_l' are single
        # terms, that is l == l' and a c == b d; any other triple accumulates
        # the sum in one dict.  _check_unit has passed, so every triple
        # through the unit holds: the scan visits the others, in the same
        # lexicographic order, and finds the same first failure.
        rows = self.rows
        rest = [i for i in range(self.dim) if i != self.unit]
        for i in rest:
            ri = rows[i]
            for j in rest:
                ij, rj = ri[j], rows[j]
                for k in rest:
                    jk = rj[k]
                    if len(ij) == 2 == len(jk):
                        left, right = rows[ij[0]][k], ri[jk[0]]
                        if len(left) == 2 == len(right):
                            if left[0] == right[0] and ij[1] * left[1] == jk[1] * right[1]:
                                continue
                            self._not_associative(i, j, k)
                    diff = {}
                    for m, a in _terms(ij):
                        for l, c in _terms(rows[m][k]):
                            diff[l] = diff.get(l, 0) + a * c
                    for m, b in _terms(jk):
                        for l, d in _terms(ri[m]):
                            diff[l] = diff.get(l, 0) - b * d
                    if any(diff.values()):
                        self._not_associative(i, j, k)

    def _not_associative(self, i, j, k):
        raise ValueError("not associative at (%s, %s, %s)"
                         % (self.labels[i], self.labels[j], self.labels[k]))


# the pair parities a comparison of two integer rows can give
_BOTH, _EVEN, _ODD, _NEITHER = frozenset((0, 1)), frozenset((0,)), frozenset((1,)), frozenset()


def _terms(cell):
    """The (label, numerator) pairs of an integer row's cell."""
    it = iter(cell)
    return zip(it, it)


def _rational_row(r):
    """A table row {k: c} with every c a Fraction, kept as it is when it
    already is one, and the zero entries dropped."""
    row = {}
    for k, c in r.items():
        if type(c) is not Fraction:
            c = Fraction(c)
        if c:
            row[k] = c
    return row


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
            for (i, j), ps in parities.items()
            if (masks[i] & masks[j]).bit_count() & 1 not in ps]


def search_degree_assignments(A, n):
    """All assignments (unit fixed to 0) that certify, canonically ordered.

    Depth first over the unit, then the other labels in basis order, each
    taking the n-bit masks in ascending order, which is the canonical order.
    Each homogeneity triple (i, j, k) of the table and each pair condition
    of `pair_parities` is checked once, when its last label is assigned, so
    a candidate mask checks only the conditions it completes.  A triple
    filed at a label that names it once or three times forces its mask to
    the XOR of the other two masks, or to 0; that label then tries only the
    forced mask, which still passes every check filed there before the
    search goes deeper.  Before any mask is tried, BudgetExceeded refuses a
    search whose (2^n)^f exceeds DEFAULT_BUDGET, f being the number of
    labels that no triple forces: the most mask lists it can try.  Which
    triple forces which label follows the basis order, so f, and with it
    the refusal, depends on that order.  Every mask list found is certified
    again through the scan of check_graded_commutative, from the same pair
    parities, before its assignment is built.
    """
    if n < 1:
        raise ValueError("degree search needs n >= 1, got n = %d" % n)
    order = [A.unit] + [i for i in range(A.dim) if i != A.unit]
    pos = {i: p for p, i in enumerate(order)}
    triples, pairs = [[] for _ in order], [[] for _ in order]
    # forced[p]: a triple naming order[p] an odd number of times, so that its
    # XOR with order[p]'s own mask, whatever that holds, is the one mask that
    # can satisfy it; the unit's (unit, unit, unit) forces 0
    forced = [(A.unit,) * 3] + [None] * (A.dim - 1)
    for (i, j), row in A.table.items():
        for k in row:
            p = max(pos[i], pos[j], pos[k])
            triples[p].append((i, j, k))
            if forced[p] is None and (i, j, k).count(order[p]) & 1:
                forced[p] = (i, j, k)
    space = (1 << n) ** forced.count(None)
    if space > DEFAULT_BUDGET:
        raise BudgetExceeded("search space %d exceeds budget %d" % (space, DEFAULT_BUDGET))
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
        i, f = order[p], forced[p]
        if f is None:
            candidates = range(1 << n)
        else:
            candidates = (mask[f[0]] ^ mask[f[1]] ^ mask[f[2]] ^ mask[i],)
        for m in candidates:
            mask[i] = m
            for a, b, c in triples[p]:
                if mask[a] ^ mask[b] != mask[c]:
                    break
            else:
                for a, b, ps in pairs[p]:
                    if (mask[a] & mask[b]).bit_count() & 1 not in ps:
                        break
                else:
                    rec(p + 1)

    rec(0)
    # rec reaches itself through its closure; unbinding it breaks that cycle,
    # so the search's state is freed on return, not at a later collection
    del rec
    return found


# -- builtin generators ---------------------------------------------------


def quaternion_algebra():
    """The quaternions over the rationals: Cl(0, 2), basis (one, i, j, k), k = i j."""
    return FinDimAlgebra(["one", "i", "j", "k"], 0, clifford_algebra(0, 2).table)


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
