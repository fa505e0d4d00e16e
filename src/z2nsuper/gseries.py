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
is zero in the truncated ring; every other operation builds a canonical dict
from canonical parts, and the constructor stores it, dropping only zero
coefficients.
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


def mono_degree(sig, mu):
    mask = 0
    for k, d in zip(mu, sig.formal_degrees()):
        if k & 1:
            mask ^= d
    return Degree.from_mask(mask, sig.n)


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
        if k > order or (k > 1 and any(e > 1 and odd for e, odd in zip(mu, sig.formal_self_odd))):
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
        return GSeries(self.sig, k, {mu: c for mu, c in self.terms.items() if mono_order(mu) <= k})

    def at_order(self, k):
        """The same series at truncation order k: truncated when k is lower,
        the same terms when it is higher."""
        return self.truncate(k) if k <= self.order else GSeries(self.sig, k, self.terms)

    def is_homogeneous(self, d):
        d = Degree(d)
        return all(mono_degree(self.sig, mu) == d for mu in self.terms)

    def map_coeffs(self, fn):
        return GSeries(self.sig, self.order, {mu: fn(c) for mu, c in self.terms.items()})

    def coeff_of(self, mu):
        return self.terms.get(tuple(mu), ZERO)

    # -- ring operations --------------------------------------------------

    def _check_sig(self, other):
        if self.sig is not other.sig and self.sig != other.sig:
            raise SignatureMismatch("series over different signatures")

    def __add__(self, other):
        other = self._coerce(other)
        self._check_sig(other)
        order = min(self.order, other.order)
        out = {mu: c for mu, c in self.terms.items() if mono_order(mu) <= order}
        for mu, c in other.terms.items():
            if mono_order(mu) <= order:
                prev = out.get(mu)
                out[mu] = c if prev is None else prev + c
        return GSeries(self.sig, order, out)

    __radd__ = __add__

    def __neg__(self):
        return self.map_coeffs(lambda c: -c)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, GSeries):
            # a scalar is a degree-0 constant: scale the coefficients
            x = _coerce(other)
            return GSeries(self.sig, self.order, {mu: c * x for mu, c in self.terms.items()})
        self._check_sig(other)
        order = min(self.order, other.order)
        sig = self.sig
        # collect the coefficient products of each output monomial, then
        # canonicalise each output coefficient once
        acc = {}
        right = [(nu, mono_order(nu), cnu) for nu, cnu in other.terms.items()]
        for mu, cmu in self.terms.items():
            omu = mono_order(mu)
            for nu, onu, cnu in right:
                if omu + onu > order:
                    continue
                hit = mul_monomials(sig, mu, nu)
                if hit is None:
                    continue
                sign, rho = hit
                acc.setdefault(rho, []).append((cmu, cnu, sign < 0))
        return GSeries(sig, order, {rho: sum_of_products(ps) for rho, ps in acc.items()})

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

    def __hash__(self):
        return hash((self.sig, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

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
        row = self.sig.formal_dot_parity[iu]
        # mu -> mu - e_u is injective, so every output term comes from exactly
        # one input term and needs no accumulation
        out = {}
        for mu, c in self.terms.items():
            k = mu[iu]
            if not k:
                continue
            swaps = 0
            for b in range(iu):
                if mu[b] and row[b]:
                    swaps += mu[b]
            out[mu[:iu] + (k - 1,) + mu[iu + 1 :]] = c * (-k if swaps & 1 else k)
        return GSeries(self.sig, self.order, out)

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
