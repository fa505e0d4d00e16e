"""Symbolic smooth coefficient functions of the base coordinates.

A CoeffExpr is kept permanently in canonical form: a linear combination, with
exact rational coefficients, of power products of atomic factors.  Atoms are
either base-coordinate symbols or opaque smooth-function applications
f[alpha](a1, ..., am) carrying a formal derivative multi-index alpha.  Formal
differentiation implements linearity, the Leibniz rule, and the chain rule on
opaque applications; equality is syntactic equality of canonical forms.

Representation.  The coefficients are integer numerators over one positive
common denominator, the representation of FLINT's fmpq_poly: _terms maps each
monomial to a nonzero int and _den holds the denominator, in lowest terms
(gcd(_den, every numerator) = 1, and _den = 1 for zero).  Monomials are tuples
of (atom, exponent) sorted by atom key, every atom at most once.  The form is
canonical, so == compares (_den, _terms) directly; terms() gives each
coefficient back as a Fraction.  Atoms are interned, one object per symbol
name or per application, so atom equality is identity and monomial tuples
hash and compare without calling back into Python.  An expression computes
its hash on first use and its sorted structural key() on first request (for
App keys, the monomial order and the print order), then caches both, and it
keeps each derivative diff(name) it has computed.  Expressions are
immutable, so operations return an operand unchanged where the result is
equal to it (adding zero, scaling by one, substituting nothing).

Arithmetic.  sum_of_products is the one accumulation loop: +, -, *, diff,
substitution and every series product go through it (the reader in exprio
adds up the terms it reads itself, before they are expressions).  It
multiplies and adds plain ints over the lcm of the factors' denominators
and brings the result to lowest terms with one gcd pass.  A lone product with a constant
factor scales the numerators of the other factor and takes the same pass.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from math import gcd, lcm


class UnboundSymbol(KeyError):
    """An opaque symbol has no polynomial realization during evaluation."""


class Var:
    """A base-coordinate symbol, one object per name (see `Var.__new__`)."""

    __slots__ = ("name", "_key")

    def __new__(cls, name):
        atom = _VARS.get(name)
        if atom is None:
            atom = _VARS[name] = object.__new__(cls)
            atom.name = name
            atom._key = (0, name)
        return atom

    def key(self):
        return self._key

    def __repr__(self):
        return "Var(%s)" % self.name


class App:
    """An opaque smooth-function application f^(alpha)(a1, ..., am).

    alpha is the multi-index of formal partial derivatives in the argument
    slots; the arguments are CoeffExprs.  One object per (func, alpha, args)
    is alive at a time (see `App.__new__`).
    """

    __slots__ = ("func", "alpha", "args", "_key", "__weakref__")

    def __new__(cls, func, alpha, args):
        alpha = tuple(int(a) for a in alpha)
        args = tuple(args)
        if len(alpha) != len(args):
            raise ValueError(
                "derivative multi-index length %d != argument count %d"
                % (len(alpha), len(args))
            )
        ident = (func, alpha, args)
        atom = _APPS.get(ident)
        if atom is None:
            atom = _APPS[ident] = object.__new__(cls)
            atom.func, atom.alpha, atom.args, atom._key = func, alpha, args, None
        return atom

    def key(self):
        if self._key is None:
            self._key = (1, self.func, self.alpha, tuple(a.key() for a in self.args))
        return self._key

    def __repr__(self):
        return "App(%s,%s,%r)" % (self.func, self.alpha, self.args)


# The interning tables: every atom is built through Var.__new__ or
# App.__new__, which return the live atom of the same name or the same
# (func, alpha, args) when there is one.  So equal atoms are one object, and
# atoms compare and hash by identity, in C.  An App is dropped from its table
# when the last expression holding it goes.
_VARS = {}
_APPS = weakref.WeakValueDictionary()


class CoeffExpr:
    """A normalized coefficient expression.

    Stored as a mapping from power-product monomials (sorted tuples of
    (atom, exponent)) to nonzero int numerators over one positive denominator,
    in lowest terms, so == is the engine's equality test.
    """

    __slots__ = ("_terms", "_den", "_key", "_hash", "_diffs")

    def __init__(self, terms, den=None):
        """terms: dict mono -> rational over canonical monomials; zero
        coefficients are dropped.  With den, terms is a dict mono -> nonzero
        int numerator over den, already in lowest terms, adopted as it is."""
        if den is None:
            terms = {m: Fraction(c) for m, c in terms.items() if c}
            den = lcm(1, *(c.denominator for c in terms.values()))
            # over the least common denominator the form is in lowest terms
            terms = {m: c.numerator * (den // c.denominator) for m, c in terms.items()}
        self._terms = terms
        self._den = den
        self._key = None
        self._hash = None
        self._diffs = None

    # -- constructors -----------------------------------------------------

    @staticmethod
    def rational(q):
        q = Fraction(q)
        if not q:
            return ZERO
        return CoeffExpr({(): q.numerator}, q.denominator)

    @staticmethod
    def var(name):
        return _atom_expr(_atom(name))

    @staticmethod
    def app(func, args, alpha=None):
        args = [a if isinstance(a, CoeffExpr) else CoeffExpr.rational(a) for a in args]
        return _atom_expr(_atom(func, args, alpha))

    # -- basic structure --------------------------------------------------

    def key(self):
        """The fully structural sort key: atoms are replaced by their own keys
        so the tuples stay totally ordered even when nested inside App
        arguments.  Equal expressions have equal keys and vice versa."""
        if self._key is None:
            self._key = tuple(sorted((_mono_key(m), (c.numerator, c.denominator))
                                     for m, c in self.terms().items()))
        return self._key

    def is_zero(self):
        return not self._terms

    def as_rational(self):
        """The value as a Fraction if the expression is constant, else None."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1 and () in self._terms:
            return Fraction(self._terms[()], self._den)
        return None

    def as_atom(self):
        """The atom if the expression is exactly one atom, else None."""
        if self._den != 1 or len(self._terms) != 1:
            return None
        (mono, n), = self._terms.items()
        if n != 1 or len(mono) != 1 or mono[0][1] != 1:
            return None
        return mono[0][0]

    def terms(self):
        """The terms as a dict mono -> nonzero Fraction."""
        d = self._den
        return {m: Fraction(n, d) for m, n in self._terms.items()}

    def atoms(self):
        out = set()
        for mono in self._terms:
            for atom, _ in mono:
                out.add(atom)
        return out

    def opaque_names(self):
        """Names of all opaque function symbols occurring anywhere in the tree."""
        out = set()
        for atom in self.atoms():
            if isinstance(atom, App):
                out.add(atom.func)
                for a in atom.args:
                    out |= a.opaque_names()
        return out

    def __eq__(self, other):
        return self is other or (
            isinstance(other, CoeffExpr)
            and self._den == other._den
            and self._terms == other._terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._den, frozenset(self._terms.items())))
        return self._hash

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        other = _coerce(other)
        if not other._terms:
            return self
        if not self._terms:
            return other
        return sum_of_products(((self, ONE, False), (other, ONE, False)))

    __radd__ = __add__

    def __neg__(self):
        return CoeffExpr({m: -n for m, n in self._terms.items()}, self._den)

    def __sub__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        other = _coerce(other)
        if not other._terms:
            return self
        return sum_of_products(((self, ONE, False), (other, ONE, True)))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return sum_of_products(((self, _coerce(other), False),))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out, square = ONE, self  # binary powering: at most 2 * k.bit_length() products
        while k:
            if k & 1:
                out = out * square
            k >>= 1
            if k:
                square = square * square
        return out

    # -- calculus ---------------------------------------------------------

    def diff(self, name):
        """Formal partial derivative with respect to the base coordinate `name`,
        memoised per name on the expression."""
        diffs = self._diffs
        if diffs is None:
            diffs = self._diffs = {}
        elif name in diffs:
            return diffs[name]
        # per atom: its derivative and the terms it multiplies, {rest: n}, where
        # rest is a monomial of self with one power of the atom taken off
        # (distinct monomials give distinct rests, so no entry is summed); the
        # numerators stay over self's denominator
        parts = {}
        for mono, n in self._terms.items():
            for i, (atom, power) in enumerate(mono):
                part = parts.get(atom)
                if part is None:
                    part = parts[atom] = (_atom_diff(atom, name), {})
                if part[0].is_zero():
                    continue
                if power > 1:
                    rest = mono[:i] + ((atom, power - 1),) + mono[i + 1 :]
                else:
                    rest = mono[:i] + mono[i + 1 :]
                part[1][rest] = n * power
        out = diffs[name] = sum_of_products([(_lowest(rests, self._den), d, False)
                                             for d, rests in parts.values() if rests])
        return out

    def evaluate(self, point, realizations=None):
        """Exact rational value at a point, with polynomial realizations for opaques.

        point: mapping coordinate name -> rational.  realizations: mapping
        opaque symbol name -> CoeffExpr in placeholder variables t0, t1, ...
        (one per argument slot), containing no opaque symbols itself.
        Derivative indices are applied exactly to the realization.
        """
        realizations = realizations or {}
        total = Fraction(0)
        for mono, n in self._terms.items():
            val = n
            for atom, power in mono:
                val *= _atom_eval(atom, point, realizations) ** power
            total += val
        return total / self._den

    def substitute_vars(self, mapping):
        """Replace base-coordinate symbols by CoeffExprs (formal composition).

        Entries v -> v are dropped first; when none is left, or no mapped
        symbol occurs, the expression itself is returned.
        """
        mapping = {nm: _coerce(e) for nm, e in mapping.items()}
        mapping = {nm: e for nm, e in mapping.items() if not _is_var(e, nm)}
        if not mapping:
            return self
        return self._rebuild(lambda atom: _atom_subst_vars(atom, mapping))

    def substitute_app(self, func, handler):
        """Replace every application of the opaque symbol `func`.

        handler(alpha, args) -> CoeffExpr receives the derivative multi-index
        and the (already substituted) argument tuple.
        """
        return self._rebuild(lambda atom: _atom_subst_app(atom, func, handler))

    def _rebuild(self, image):
        """Substitute atoms: image(atom) is the atom's replacement CoeffExpr,
        or None when it is unchanged.  Returns self when no atom changes."""
        # the monomials grouped by their substituted factors, each group as
        # {the kept factors: numerator over self's denominator}; distinct
        # monomials of one group keep distinct factors, so no entry is summed
        groups = {}
        images = {}
        for mono, n in self._terms.items():
            keep = []
            subst = []
            for item in mono:
                atom = item[0]
                if atom not in images:
                    images[atom] = image(atom)
                (keep if images[atom] is None else subst).append(item)
            groups.setdefault(tuple(subst), {})[tuple(keep)] = n
        if not any(groups):
            return self
        pairs = []
        for subst, kept in groups.items():
            img = ONE
            for atom, power in subst:
                for _ in range(power):
                    img = img * images[atom]
            pairs.append((_lowest(kept, self._den), img, False))
        return sum_of_products(pairs)

    # -- printing ---------------------------------------------------------

    def __str__(self):
        from .exprio import print_coeff

        return print_coeff(self)

    def __repr__(self):
        return "CoeffExpr(%s)" % str(self)


# operand types; for any other (a GSeries s) `c - s` runs `s.__rsub__(c)`
_SCALARS = (CoeffExpr, int, Fraction)


def _coerce(x):
    if isinstance(x, CoeffExpr):
        return x
    if isinstance(x, int):
        return CoeffExpr({(): x}, 1) if x else ZERO
    if isinstance(x, Fraction):
        return CoeffExpr({(): x.numerator}, x.denominator) if x else ZERO
    raise TypeError("cannot coerce %r to CoeffExpr" % (x,))


def _atom(name, args=None, alpha=None):
    """The atom of a name: the base-coordinate symbol, or with args (a list
    of CoeffExprs) the application name[alpha](args), alpha all zero when
    None."""
    if args is None:
        return Var(name)
    return App(name, (0,) * len(args) if alpha is None else alpha, args)


def _atom_expr(atom):
    """The expression consisting of the single atom."""
    return CoeffExpr({((atom, 1),): 1}, 1)


def _is_var(e, name):
    """True when e is exactly the coordinate symbol `name`."""
    atom = e.as_atom()
    return isinstance(atom, Var) and atom.name == name


def _mono_key(mono):
    return tuple((atom.key(), power) for atom, power in mono)


def _mono_mul(m1, m2):
    """Product of two canonical monomials: a merge by atom key."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        a, p = m1[i]
        b, q = m2[j]
        if a is b:
            out.append((a, p + q))
            i += 1
            j += 1
        elif a.key() < b.key():
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    if i < n1:
        out.extend(m1[i:])
    elif j < n2:
        out.extend(m2[j:])
    return tuple(out)


def _lowest(nums, den):
    """The CoeffExpr of {mono: nonzero int numerator} over den > 0, brought to
    lowest terms by one gcd pass."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {m: n // g for m, n in nums.items()}
    return CoeffExpr(nums, den)


def sum_of_products(pairs):
    """The canonical form of the sum of a*b (or -a*b when negate) over
    (a, b, negate) triples of CoeffExprs, built in one pass.

    Each product a*b is an integer polynomial over a._den * b._den; the sum
    is accumulated in ints over the lcm D of those and brought to lowest
    terms once.
    """
    if len(pairs) == 1:
        # a lone product with a constant factor n/d scales the numerators of
        # the other factor, and is that factor when n/d is one
        a, b, negate = pairs[0]
        if len(a._terms) == 1 and () in a._terms:
            a, b = b, a
        tb = b._terms
        if len(tb) == 1 and () in tb:
            n, d = -tb[()] if negate else tb[()], b._den
            if n == d:
                return a
            return _lowest({m: c * n for m, c in a._terms.items()}, a._den * d)
    den = lcm(*(a._den * b._den for a, b, _ in pairs))
    out = {}
    for a, b, negate in pairs:
        s = den // (a._den * b._den)
        if negate:
            s = -s
        tb = b._terms.items()
        for m1, n1 in a._terms.items():
            n1 *= s
            for m2, n2 in tb:
                m = _mono_mul(m1, m2)
                prev = out.get(m)
                out[m] = n1 * n2 if prev is None else prev + n1 * n2
    out = {m: n for m, n in out.items() if n}
    return _lowest(out, den) if out else ZERO


def _atom_diff(atom, name):
    if isinstance(atom, Var):
        return ONE if atom.name == name else ZERO
    # chain rule on an opaque application, summed in one pass
    pairs = []
    for j, arg in enumerate(atom.args):
        darg = arg.diff(name)
        if darg.is_zero():
            continue
        alpha = list(atom.alpha)
        alpha[j] += 1
        pairs.append((_atom_expr(App(atom.func, alpha, atom.args)), darg, False))
    return sum_of_products(pairs) if pairs else ZERO


def _atom_eval(atom, point, realizations):
    if isinstance(atom, Var):
        if atom.name not in point:
            raise UnboundSymbol("no value for coordinate %r" % atom.name)
        return Fraction(point[atom.name])
    if atom.func not in realizations:
        raise UnboundSymbol("no realization for opaque symbol %r" % atom.func)
    real = realizations[atom.func]
    for j, k in enumerate(atom.alpha):
        for _ in range(k):
            real = real.diff("t%d" % j)
    argvals = {"t%d" % j: arg.evaluate(point, realizations) for j, arg in enumerate(atom.args)}
    return real.evaluate(argvals, realizations)


def _atom_subst_vars(atom, mapping):
    """The image of one atom under a variable substitution, or None if unchanged."""
    if isinstance(atom, Var):
        return mapping.get(atom.name)
    args = tuple(a.substitute_vars(mapping) for a in atom.args)
    if all(new is old for new, old in zip(args, atom.args)):
        return None
    return _atom_expr(App(atom.func, atom.alpha, args))


def _atom_subst_app(atom, func, handler):
    """The image of one atom under an opaque-symbol substitution, or None."""
    if isinstance(atom, Var):
        return None
    args = tuple(a.substitute_app(func, handler) for a in atom.args)
    if atom.func == func:
        return _coerce(handler(atom.alpha, args))
    if all(new is old for new, old in zip(args, atom.args)):
        return None
    return _atom_expr(App(atom.func, atom.alpha, args))


ZERO = CoeffExpr({}, 1)
ONE = CoeffExpr({(): 1}, 1)
