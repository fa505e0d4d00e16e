"""Z2^n degree lattice: n-bit mask degrees, parity, and the scalar-product sign rule.

A degree is an int whose n bits are its coordinates, the first bit the most
significant, so masks of one n order as their bit strings ("011" is 3).  The
group law is XOR and the sign (-1)^<a,b> is the parity of popcount(a & b),
as for the bitmap basis blades of Dorst, Fontijne & Mann, Geometric Algebra
for Computer Science (2007), ch. 19.
"""

from __future__ import annotations


class DimensionMismatch(ValueError):
    """Raised when degrees of different ambient n are combined."""


class Degree(int):
    """An element of Z2^n: an n-bit mask that knows its n.

    Two degrees are equal when both their masks and their n agree; they hash
    and order as their masks.
    """

    def __new__(cls, bits):
        """From a bit string ("011"), an iterable of 0/1 values or a Degree."""
        if isinstance(bits, Degree):
            return bits
        text = bits if isinstance(bits, str) else "".join(str(int(b)) for b in bits)
        if not text or text.strip("01"):
            raise ValueError("not a degree bit string: %r" % (bits,))
        return cls.from_mask(int(text, 2), len(text))

    @classmethod
    def from_mask(cls, mask, n):
        d = int.__new__(cls, mask)
        d.n = n
        return d

    def __add__(self, other):
        other = Degree(other)
        if self.n != other.n:
            raise DimensionMismatch(
                "cannot add degrees of length %d and %d" % (self.n, other.n)
            )
        return Degree.from_mask(self ^ other, self.n)

    __radd__ = __add__

    def __eq__(self, other):
        return isinstance(other, Degree) and self.n == other.n and int.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = int.__hash__

    def is_zero(self):
        return not self

    def __str__(self):
        return format(int(self), "0%db" % self.n)

    def __repr__(self):
        return "Degree(%s)" % self

    @classmethod
    def parse(cls, text):
        """Parse the bit-string form, e.g. "011"."""
        return cls(text)

    @classmethod
    def zero(cls, n):
        return cls.from_mask(0, n)


def sign_factor(a, b):
    """The commutation sign (-1)^<a,b> between homogeneous elements of degrees a, b."""
    a, b = Degree(a), Degree(b)
    if a.n != b.n:
        raise DimensionMismatch(
            "sign_factor of degrees with lengths %d and %d" % (a.n, b.n)
        )
    return -1 if dot_parity(a, b) else 1


def dot_parity(a, b):
    """The scalar product <a, b> mod 2 of two degree masks: 0 or 1."""
    return (a & b).bit_count() & 1


def parity(a):
    """'even' or 'odd' according to the bit-weight of a."""
    return "odd" if is_self_odd(a) else "even"


def is_self_odd(a):
    """True when a generator of degree a squares to zero (sign_factor(a, a) == -1)."""
    return Degree(a).bit_count() & 1 == 1


def enumerate_nonzero_degrees(n):
    """All 2^n - 1 nonzero degrees of Z2^n in lexicographic order, the
    canonical index used for signatures."""
    return [Degree.from_mask(mask, n) for mask in range(1, 1 << n)]


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
        # a stable sort by mask keeps declaration order within a degree
        formal = sorted(((nm, d) for nm, d in self._decl if not d.is_zero()),
                        key=lambda nd: nd[1])
        self.formal_names = [nm for nm, d in formal]
        self._degree = dict(self._decl)
        self._formal_index = {nm: i for i, nm in enumerate(self.formal_names)}
        # {degree: its formal variable names}, over the degrees present
        self.formal_blocks = {}
        for nm, d in formal:
            self.formal_blocks.setdefault(d, []).append(nm)
        self.q = [len(self.formal_blocks.get(d, ())) for d in enumerate_nonzero_degrees(n)]
        # sign tables of the formal variables, read by the series kernel:
        # their degrees, self-odd flags and the q x q matrix of dot-product
        # parities <deg a, deg b> mod 2
        degs = self._formal_degrees = tuple(d for nm, d in formal)
        self.formal_self_odd = tuple(is_self_odd(d) for d in degs)
        self.formal_dot_parity = tuple(
            tuple(dot_parity(a, b) for b in degs) for a in degs
        )

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

    def formal_unit(self, name, k=1):
        """The exponent vector of name^k, for a formal variable name."""
        mu = [0] * self.nformal
        mu[self.formal_index(name)] = k
        return tuple(mu)

    def formal_degrees(self):
        """The degrees of the formal variables, in canonical order."""
        return self._formal_degrees

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
