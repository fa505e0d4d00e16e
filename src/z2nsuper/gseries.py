"""Truncated formal power series in the nonzero-degree variables.

The local model of a superdomain: coefficients are CoeffExprs in the base
coordinates, monomials are exponent vectors over the formal variables in the
signature's canonical order, and multiplication follows the scalar-product
sign rule.  Self-odd variables (sign_factor(d, d) == -1) are nilpotent and
carry exponent 0 or 1; self-even nonzero-degree variables are not nilpotent
and are bounded only by the truncation order K.

Invariants.  A series is its canonical term dict: keys are exponent tuples of
length nformal, of order <= K, with self-odd exponents at most 1, and every
stored coefficient is a nonzero CoeffExpr.  Outside values enter only through
`GSeries.monomial`, which coerces the coefficient and drops a monomial that
is zero in the truncated ring, and the constructor, which drops zero
coefficients; every other operation builds a canonical dict from canonical
parts with no zero coefficient, and `GSeries.canonical` adopts it as it is.

Arithmetic.  `combine(sig, order, pairs)` is the one series accumulation
pass: it forms a linear combination sum a*b of series times series or
scalars, collecting every coefficient product of an output monomial and
summing them with one `sum_of_products` call; a sum that cancels is dropped
in the same pass.  A product is `combine` over one pair and a sum or
difference over two, with the scalars 1 and -1; the Taylor expansion, the
pullback and the Čech correction combine all their terms at once instead of
adding them up one by one.
"""

from __future__ import annotations

from .coeffexpr import CoeffExpr, ZERO, _coerce, sum_of_products
from .degrees import Degree

INFINITY = float("inf")


class SignatureMismatch(ValueError):
    pass


class OrderError(ValueError):
    pass


def mono_order(mu):
    return sum(mu)


def mono_mask(sig, mu):
    """The degree mask of a monomial, as an int: the XOR of the formal
    degrees over its odd exponents."""
    mask = 0
    for k, d in zip(mu, sig.formal_degrees()):
        if k & 1:
            mask ^= d
    return mask


def mono_degree(sig, mu):
    return Degree.from_mask(mono_mask(sig, mu), sig.n)


def mul_monomials(sig, mu, nu):
    """Multiply canonical monomials; returns (sign, mono) or None when killed.

    The sign accumulates one scalar-product factor per transposition needed to
    interleave the nu-word into the mu-word; a self-odd variable appearing
    with total exponent >= 2 kills the product.  Both rules read the
    signature's precomputed self-odd flags and dot-parity matrix.
    """
    odd = sig.formal_self_odd
    out = []
    for a, ka in enumerate(mu):
        total = ka + nu[a]
        if total >= 2 and odd[a]:
            return None
        out.append(total)
    swaps = 0
    dot = sig.formal_dot_parity
    for a, ka in enumerate(mu):
        if not ka:
            continue
        row = dot[a]
        for b in range(a):
            if nu[b] and row[b]:
                swaps += ka * nu[b]
    return (-1 if swaps & 1 else 1), tuple(out)


def combine(sig, order, pairs):
    """The series sum of a*b over the (a, b) in pairs, truncated at order.

    Each a is a GSeries over sig and each b a GSeries over sig or a scalar
    (a CoeffExpr or a rational, a degree-0 constant); no factor may have an
    order below `order`.  This is the one series accumulation pass: it
    collects the coefficient products of every output monomial over all the
    pairs, then canonicalises each output coefficient once through
    sum_of_products.
    """
    acc = {}
    for a, b in pairs:
        _check_factor(sig, order, a)
        if not isinstance(b, GSeries):
            x = _coerce(b)
            for mu, cmu in a.terms.items():
                if mono_order(mu) <= order:
                    acc.setdefault(mu, []).append((cmu, x, False))
            continue
        _check_factor(sig, order, b)
        right = [(nu, mono_order(nu), cnu) for nu, cnu in b.terms.items()]
        for mu, cmu in a.terms.items():
            omu = mono_order(mu)
            for nu, onu, cnu in right:
                if omu + onu > order:
                    continue
                hit = mul_monomials(sig, mu, nu)
                if hit is None:
                    continue
                sign, rho = hit
                acc.setdefault(rho, []).append((cmu, cnu, sign < 0))
    terms = {}
    for rho, ps in acc.items():
        c = sum_of_products(ps)
        if c._terms:
            terms[rho] = c
    return GSeries.canonical(sig, order, terms)


def _check_factor(sig, order, s):
    """Reject a series over another signature than sig or of an order below
    `order`."""
    if s.sig is not sig and s.sig != sig:
        raise SignatureMismatch("series over different signatures")
    if s.order < order:
        raise OrderError("a factor of order %d in a sum at order %d" % (s.order, order))


class GSeries:
    """A truncated formal power series over a fixed signature."""

    __slots__ = ("sig", "order", "terms")

    def __init__(self, sig, order, terms):
        """Store a canonical term dict: tuple keys of order <= `order` and
        CoeffExpr values.  Zero coefficients are dropped."""
        self.sig = sig
        self.order = order
        self.terms = {mu: c for mu, c in terms.items() if not c.is_zero()}

    # -- constructors -----------------------------------------------------

    @classmethod
    def canonical(cls, sig, order, terms):
        """The series of a canonical term dict with no zero coefficient,
        which it adopts as it is."""
        s = cls.__new__(cls)
        s.sig, s.order, s.terms = sig, order, terms
        return s

    @classmethod
    def zero(cls, sig, order):
        return cls(sig, order, {})

    @classmethod
    def from_coeff(cls, sig, order, c):
        return cls.monomial(sig, order, (0,) * sig.nformal, c)

    @classmethod
    def one(cls, sig, order):
        return cls.from_coeff(sig, order, 1)

    @classmethod
    def generator(cls, sig, name, order):
        """The series of a single variable (base or formal)."""
        if sig.is_base(name):
            return cls.from_coeff(sig, order, CoeffExpr.var(name))
        return cls.monomial(sig, order, sig.formal_unit(name))

    @classmethod
    def monomial(cls, sig, order, mu, coeff=1):
        """coeff * mu from outside values; zero when mu is above the order
        or squares a self-odd variable."""
        mu, c = tuple(mu), _coerce(coeff)
        k = mono_order(mu)
        if k > order or any(e > 1 and odd for e, odd in zip(mu, sig.formal_self_odd)):
            return cls(sig, order, {})
        return cls(sig, order, {mu: c})

    # -- structure --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def epsilon(self):
        """The coefficient of the empty monomial (the augmentation)."""
        return self.terms.get((0,) * self.sig.nformal, ZERO)

    def j_order(self):
        """Minimal monomial order over nonzero terms; +inf for the zero series."""
        if not self.terms:
            return INFINITY
        return min(mono_order(mu) for mu in self.terms)

    def truncate(self, k):
        if k > self.order:
            raise OrderError(
                "cannot raise truncation order from %d to %d" % (self.order, k)
            )
        return GSeries.canonical(self.sig, k, {mu: c for mu, c in self.terms.items()
                                               if mono_order(mu) <= k})

    def at_order(self, k):
        """The same series at truncation order k: truncated when k is lower,
        the same terms when it is higher."""
        return self.truncate(k) if k <= self.order else GSeries.canonical(self.sig, k, self.terms)

    def is_homogeneous(self, d):
        d = Degree(d)
        return not self.terms or d.n == self.sig.n and all(
            mono_mask(self.sig, mu) == int(d) for mu in self.terms)

    def map_coeffs(self, fn):
        return GSeries(self.sig, self.order, {mu: fn(c) for mu, c in self.terms.items()})

    def coeff_of(self, mu):
        return self.terms.get(tuple(mu), ZERO)

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        return combine(self.sig, min(self.order, other.order), ((self, 1), (other, 1)))

    __radd__ = __add__

    def __neg__(self):
        return self.map_coeffs(lambda c: -c)

    def __sub__(self, other):
        other = self._coerce(other)
        return combine(self.sig, min(self.order, other.order), ((self, 1), (other, -1)))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        """The product with a series or with a scalar (a degree-0 constant)."""
        order = min(self.order, other.order) if isinstance(other, GSeries) else self.order
        return combine(self.sig, order, ((self, other),))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = GSeries.one(self.sig, self.order)
        for _ in range(k):
            out = out * self
        return out

    def _coerce(self, x):
        return x if isinstance(x, GSeries) else GSeries.from_coeff(self.sig, self.order, x)

    def __eq__(self, other):
        return (
            isinstance(other, GSeries)
            and self.sig == other.sig
            and self.terms == other.terms
        )

    # -- derivatives ------------------------------------------------------

    def left_partial(self, name):
        """Graded left partial derivative with respect to a variable.

        For a base coordinate this differentiates the coefficients.  For a
        formal variable it satisfies the left Leibniz rule
        d(fg) = (df)g + sign(deg u, deg f) f (dg).
        """
        if self.sig.is_base(name):
            return self.map_coeffs(lambda c: c.diff(name))
        iu = self.sig.formal_index(name)
        unit = self.sig.formal_unit(name)
        # mu -> rest = mu - e_u is injective, so no output term is summed; the
        # sign of moving u to the front of mu is that of the product u * rest
        out = {}
        for mu, c in self.terms.items():
            if mu[iu]:
                rest = mu[:iu] + (mu[iu] - 1,) + mu[iu + 1 :]
                out[rest] = c * (mul_monomials(self.sig, unit, rest)[0] * mu[iu])
        return GSeries.canonical(self.sig, self.order, out)

    # -- printing ---------------------------------------------------------

    def __str__(self):
        from .formats import print_series

        return print_series(self)

    def __repr__(self):
        return "GSeries(%s; K=%d)" % (str(self), self.order)


def normal_form(word, sig, order):
    """Normal-order a word of factors into a canonical GSeries.

    Each factor is a variable name (base or formal) or a coefficient
    (CoeffExpr / rational).  Signs accumulate per the commutation rule;
    squares of self-odd variables vanish.
    """
    out = GSeries.one(sig, order)
    for factor in word:
        if isinstance(factor, str):
            out = out * GSeries.generator(sig, factor, order)
        else:
            out = out * factor
    return out
