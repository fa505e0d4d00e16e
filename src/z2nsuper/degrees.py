"""Z2^n degree lattice: bit-vector degrees, parity, and the scalar-product sign rule."""

from __future__ import annotations

import itertools


class DimensionMismatch(ValueError):
    """Raised when degrees of different ambient n are combined."""


class Degree(tuple):
    """An element of Z2^n as an immutable bit vector.

    Addition is componentwise mod 2; the pairwise sign of two degrees is
    (-1)^<a,b> with <.,.> the integer dot product.
    """

    def __new__(cls, bits):
        bits = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("degree bits must be 0 or 1: %r" % (bits,))
        return super().__new__(cls, bits)

    @property
    def n(self):
        return len(self)

    def __add__(self, other):
        other = Degree(other)
        if len(self) != len(other):
            raise DimensionMismatch(
                "cannot add degrees of length %d and %d" % (len(self), len(other))
            )
        return Degree((a + b) % 2 for a, b in zip(self, other))

    __radd__ = __add__

    def is_zero(self):
        return not any(self)

    def __str__(self):
        return "".join(str(b) for b in self)

    def __repr__(self):
        return "Degree(%s)" % str(self)

    @classmethod
    def parse(cls, text):
        """Parse the bit-string form, e.g. "011"."""
        if not text or any(c not in "01" for c in text):
            raise ValueError("not a degree bit string: %r" % text)
        return cls(int(c) for c in text)

    @classmethod
    def zero(cls, n):
        return cls((0,) * n)


def sign_factor(a, b):
    """The commutation sign (-1)^<a,b> between homogeneous elements of degrees a, b."""
    a, b = Degree(a), Degree(b)
    if len(a) != len(b):
        raise DimensionMismatch(
            "sign_factor of degrees with lengths %d and %d" % (len(a), len(b))
        )
    dot = sum(x * y for x, y in zip(a, b))
    return -1 if dot % 2 else 1


def parity(a):
    """'even' or 'odd' according to the bit-weight of a."""
    a = Degree(a)
    return "odd" if sum(a) % 2 else "even"


def is_self_odd(a):
    """True when a generator of degree a squares to zero (sign_factor(a, a) == -1)."""
    return sign_factor(a, a) == -1


def enumerate_nonzero_degrees(n, order="lex"):
    """All 2^n - 1 nonzero degrees of Z2^n.

    order="lex" is the canonical index used for signatures; order="parity"
    lists the even degrees first, then the odd ones, each block lexicographic.
    """
    degs = [Degree(bits) for bits in itertools.product((0, 1), repeat=n)]
    degs = [d for d in degs if not d.is_zero()]
    if order == "lex":
        return degs
    if order == "parity":
        evens = [d for d in degs if parity(d) == "even"]
        odds = [d for d in degs if parity(d) == "odd"]
        return evens + odds
    raise ValueError("unknown order %r" % order)


class Signature:
    """A superdomain coordinate signature: named variables tagged with Z2^n degrees.

    Degree-0 variables are the base coordinates (there are p of them); the
    remaining q = sum(q_k) formal variables are indexed canonically by degree
    (lexicographic over nonzero degrees) and then by declaration order.
    """

    def __init__(self, n, variables):
        """variables: iterable of (name, Degree-like) in declaration order."""
        self.n = n
        seen = set()
        self._decl = []
        for name, deg in variables:
            deg = Degree(deg)
            if deg.n != n:
                raise DimensionMismatch(
                    "variable %s has degree of length %d, expected %d"
                    % (name, deg.n, n)
                )
            if name in seen:
                raise ValueError("duplicate variable name %r" % name)
            seen.add(name)
            self._decl.append((name, deg))
        self.base_names = [nm for nm, d in self._decl if d.is_zero()]
        nz = enumerate_nonzero_degrees(n, "lex")
        self._nz_index = {d: i for i, d in enumerate(nz)}
        formal = [(nm, d) for nm, d in self._decl if not d.is_zero()]
        formal.sort(key=lambda nd: self._nz_index[nd[1]])
        self.formal_names = [nm for nm, d in formal]
        self._degree = dict(self._decl)
        self._formal_index = {nm: i for i, nm in enumerate(self.formal_names)}
        self.q = [0] * len(nz)
        for nm, d in formal:
            self.q[self._nz_index[d]] += 1
        # sign tables of the formal variables, read by the series kernel:
        # degrees as n-bit masks (first bit most significant), self-odd flags,
        # the q x q matrix of dot-product parities <deg a, deg b> mod 2, and
        # the Degree of each mask (enumerate_nonzero_degrees lists mask i at i-1)
        masks = [int(str(d), 2) for nm, d in formal]
        self.formal_masks = tuple(masks)
        self.formal_self_odd = tuple(bin(m).count("1") % 2 == 1 for m in masks)
        self.formal_dot_parity = tuple(
            tuple(bin(ma & mb).count("1") % 2 for mb in masks) for ma in masks
        )
        self.degree_by_mask = tuple([Degree.zero(n)] + nz)

    @property
    def p(self):
        return len(self.base_names)

    @property
    def nformal(self):
        return len(self.formal_names)

    def degree_of(self, name):
        try:
            return self._degree[name]
        except KeyError:
            raise KeyError("unknown variable %r in signature" % name) from None

    def is_base(self, name):
        return self.degree_of(name).is_zero()

    def formal_index(self, name):
        try:
            return self._formal_index[name]
        except KeyError:
            raise KeyError("%r is not a formal variable of this signature" % name) from None

    def formal_degrees(self):
        return [self._degree[nm] for nm in self.formal_names]

    def variables(self):
        """(name, degree) pairs in declaration order."""
        return list(self._decl)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Signature)
            and self.n == other.n
            and self._decl == other._decl
        )

    def __hash__(self):
        return hash((self.n, tuple(self._decl)))

    def __repr__(self):
        vs = ", ".join("%s:%s" % (nm, d) for nm, d in self._decl)
        return "Signature(n=%d; %s)" % (self.n, vs)

    def same_shape(self, other):
        """Equal n, p and degree multiplicities (names may differ)."""
        return self.n == other.n and self.p == other.p and self.q == other.q
