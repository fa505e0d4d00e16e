"""Symbolic smooth coefficient functions of the base coordinates.

A CoeffExpr is kept permanently in canonical form: a linear combination, with
exact rational coefficients, of power products of atomic factors.  Atoms are
either base-coordinate symbols or opaque smooth-function applications
f[alpha](a1, ..., am) carrying a formal derivative multi-index alpha.  Formal
differentiation implements linearity, the Leibniz rule, and the chain rule on
opaque applications; equality is syntactic equality of canonical forms.

Invariants.  The canonical form is the term dict itself: monomials are tuples
of (atom, exponent) sorted by atom key, every atom at most once, and every
stored coefficient is a nonzero Fraction.  Operations build their result as a
raw dict and wrap it once, so == compares term dicts directly.  Atoms hash once
at construction; an expression computes its hash on first use and its sorted
structural key() on first request (for App keys and print order), then caches
both.  Expressions are immutable, so operations return an operand unchanged
where the result is equal to it (adding zero, scaling by one, substituting
nothing).

Products.  Every product of two non-constant expressions goes through
sum_of_products, which works on a cached integer view of each factor (its
terms as integer numerators over their least common denominator, the
representation of FLINT's fmpq_poly): it multiplies and adds plain ints over
one common denominator and builds one Fraction per output term.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class UnboundSymbol(KeyError):
    """An opaque symbol has no polynomial realization during evaluation."""


class Var:
    """A base-coordinate symbol."""

    __slots__ = ("name", "_key", "_hash")

    def __init__(self, name):
        self.name = name
        self._key = (0, name)
        self._hash = hash(self._key)

    def key(self):
        return self._key

    def __eq__(self, other):
        return self is other or (isinstance(other, Var) and self.name == other.name)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Var(%s)" % self.name


class App:
    """An opaque smooth-function application f^(alpha)(a1, ..., am).

    alpha is the multi-index of formal partial derivatives in the argument
    slots; the arguments are CoeffExprs.
    """

    __slots__ = ("func", "alpha", "args", "_key", "_hash")

    def __init__(self, func, alpha, args):
        self.func = func
        self.alpha = tuple(int(a) for a in alpha)
        self.args = tuple(args)
        if len(self.alpha) != len(self.args):
            raise ValueError(
                "derivative multi-index length %d != argument count %d"
                % (len(self.alpha), len(self.args))
            )
        self._key = None
        self._hash = hash((func, self.alpha, self.args))

    def key(self):
        if self._key is None:
            self._key = (1, self.func, self.alpha, tuple(a.key() for a in self.args))
        return self._key

    def __eq__(self, other):
        return self is other or (
            isinstance(other, App)
            and self._hash == other._hash
            and self.func == other.func
            and self.alpha == other.alpha
            and self.args == other.args
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "App(%s,%s,%r)" % (self.func, self.alpha, self.args)


class CoeffExpr:
    """A normalized coefficient expression.

    Stored as a mapping from power-product monomials (sorted tuples of
    (atom, exponent)) to nonzero Fractions.  All constructors and operations
    keep this representation canonical, so == is the engine's equality test.
    """

    __slots__ = ("_terms", "_key", "_hash", "_ints")

    def __init__(self, terms, clean=False):
        """terms: dict mono -> Fraction over canonical monomials.

        Zero coefficients are dropped.  clean=True adopts a dict that already
        holds none, without copying it.
        """
        if not clean:
            terms = {m: c for m, c in terms.items() if c}
        self._terms = terms
        self._key = None
        self._hash = None
        self._ints = None

    # -- constructors -----------------------------------------------------

    @staticmethod
    def rational(q):
        q = Fraction(q)
        if not q:
            return ZERO
        return CoeffExpr({(): q}, True)

    @staticmethod
    def var(name):
        return CoeffExpr({((Var(name), 1),): _ONE_Q}, True)

    @staticmethod
    def app(func, args, alpha=None):
        args = tuple(a if isinstance(a, CoeffExpr) else CoeffExpr.rational(a) for a in args)
        if alpha is None:
            alpha = (0,) * len(args)
        return _atom_expr(App(func, alpha, args))

    # -- basic structure --------------------------------------------------

    def key(self):
        """The fully structural sort key: atoms are replaced by their own keys
        so the tuples stay totally ordered even when nested inside App
        arguments.  Equal expressions have equal keys and vice versa."""
        if self._key is None:
            self._key = tuple(
                sorted((_mono_key(m), (c.numerator, c.denominator)) for m, c in self._terms.items())
            )
        return self._key

    def is_zero(self):
        return not self._terms

    def as_rational(self):
        """The value as a Fraction if the expression is constant, else None."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1 and () in self._terms:
            return self._terms[()]
        return None

    def terms(self):
        return dict(self._terms)

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
        return self is other or (isinstance(other, CoeffExpr) and self._terms == other._terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def _int_view(self):
        """(d, ((mono, n), ...)): the terms as integer numerators n over their
        least common denominator d, computed on first use and cached."""
        if self._ints is None:
            d = 1
            for c in self._terms.values():
                d = _lcm(d, c.denominator)
            self._ints = (d, tuple((m, c.numerator * (d // c.denominator))
                                   for m, c in self._terms.items()))
        return self._ints

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        return self._combine(_coerce(other), False)

    __radd__ = __add__

    def __neg__(self):
        return CoeffExpr({m: -c for m, c in self._terms.items()}, True)

    def __sub__(self, other):
        return self._combine(_coerce(other), True)

    def __rsub__(self, other):
        return _coerce(other)._combine(self, True)

    def _combine(self, other, negate):
        """self + other, or self - other when negate."""
        t2 = other._terms
        if not t2:
            return self
        if not self._terms:
            return -other if negate else other
        out = dict(self._terms)
        for m, c in t2.items():
            prev = out.get(m)
            if prev is None:
                out[m] = -c if negate else c
            else:
                s = prev - c if negate else prev + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return CoeffExpr(out, True)

    def __mul__(self, other):
        if isinstance(other, CoeffExpr):
            t2 = other._terms
        elif isinstance(other, (int, Fraction)):
            return self._scale(other)
        else:
            raise TypeError("cannot coerce %r to CoeffExpr" % (other,))
        t1 = self._terms
        if not t1 or not t2:
            return ZERO
        if len(t2) == 1 and () in t2:
            return self._scale(t2[()])
        if len(t1) == 1 and () in t1:
            return other._scale(t1[()])
        return sum_of_products(((self, other, False),))

    __rmul__ = __mul__

    def _scale(self, q):
        """self * q for a rational q, skipping the monomial products."""
        if q == 1:
            return self
        if not q or not self._terms:
            return ZERO
        return CoeffExpr({m: c * q for m, c in self._terms.items()}, True)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = ONE
        for _ in range(k):
            out = out * self
        return out

    # -- calculus ---------------------------------------------------------

    def diff(self, name):
        """Formal partial derivative with respect to the base coordinate `name`."""
        # per atom: its derivative and the terms it multiplies, {rest: c}, where
        # rest is a monomial of self with one power of the atom taken off
        # (distinct monomials give distinct rests, so no entry is summed)
        parts = {}
        for mono, coeff in self._terms.items():
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
                part[1][rest] = coeff * power
        pairs = [(CoeffExpr(rests, True), d, False) for d, rests in parts.values() if rests]
        if len(pairs) == 1 and pairs[0][1] is ONE:
            return pairs[0][0]  # only the coordinate itself: no product to take
        return sum_of_products(pairs) if pairs else ZERO

    def evaluate(self, point, realizations=None):
        """Exact rational value at a point, with polynomial realizations for opaques.

        point: mapping coordinate name -> rational.  realizations: mapping
        opaque symbol name -> CoeffExpr in placeholder variables t0, t1, ...
        (one per argument slot), containing no opaque symbols itself.
        Derivative indices are applied exactly to the realization.
        """
        realizations = realizations or {}
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            val = coeff
            for atom, power in mono:
                val *= _atom_eval(atom, point, realizations) ** power
            total += val
        return total

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
        # {the kept factors: coefficient}; distinct monomials of one group keep
        # distinct factors, so no entry is summed
        groups = {}
        images = {}
        for mono, coeff in self._terms.items():
            keep = []
            subst = []
            for item in mono:
                atom = item[0]
                if atom not in images:
                    images[atom] = image(atom)
                (keep if images[atom] is None else subst).append(item)
            groups.setdefault(tuple(subst), {})[tuple(keep)] = coeff
        if not any(groups):
            return self
        pairs = []
        for subst, kept in groups.items():
            img = ONE
            for atom, power in subst:
                for _ in range(power):
                    img = img * images[atom]
            pairs.append((CoeffExpr(kept, True), img, False))
        return sum_of_products(pairs)

    # -- printing ---------------------------------------------------------

    def __str__(self):
        from .exprio import print_coeff

        return print_coeff(self)

    def __repr__(self):
        return "CoeffExpr(%s)" % str(self)


_ONE_Q = Fraction(1)


def _coerce(x):
    if isinstance(x, CoeffExpr):
        return x
    if isinstance(x, (int, Fraction)):
        return CoeffExpr.rational(x)
    raise TypeError("cannot coerce %r to CoeffExpr" % (x,))


def _atom_expr(atom):
    """The expression consisting of the single atom."""
    return CoeffExpr({((atom, 1),): _ONE_Q}, True)


def _is_var(e, name):
    """True when e is exactly the coordinate symbol `name`."""
    if len(e._terms) != 1:
        return False
    (mono, c), = e._terms.items()
    if c != 1 or len(mono) != 1:
        return False
    atom, power = mono[0]
    return power == 1 and isinstance(atom, Var) and atom.name == name


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
        ka, kb = a.key(), b.key()
        if ka == kb:
            out.append((a, p + q))
            i += 1
            j += 1
        elif ka < kb:
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


def _lcm(a, b):
    return a if a % b == 0 else a // gcd(a, b) * b


def sum_of_products(pairs):
    """The canonical form of the sum of a*b (or -a*b when negate) over
    (a, b, negate) triples of CoeffExprs, built in one pass.

    Each product a*b is an integer polynomial over da*db (the denominators of
    the factors' integer views); the sum is accumulated in ints over the lcm
    D of those, and each nonzero output term becomes one Fraction(n, D).
    """
    views = [(a._int_view(), b._int_view(), negate) for a, b, negate in pairs]
    den = 1
    for (da, _), (db, _), _ in views:
        den = _lcm(den, da * db)
    out = {}
    for (da, ta), (db, tb), negate in views:
        s = den // (da * db)
        if negate:
            s = -s
        for m1, n1 in ta:
            n1 *= s
            for m2, n2 in tb:
                m = _mono_mul(m1, m2)
                prev = out.get(m)
                out[m] = n1 * n2 if prev is None else prev + n1 * n2
    return CoeffExpr({m: Fraction(n, den) for m, n in out.items() if n}, True)


def _atom_diff(atom, name):
    if isinstance(atom, Var):
        return ONE if atom.name == name else ZERO
    # chain rule on an opaque application
    out = ZERO
    for j, arg in enumerate(atom.args):
        darg = arg.diff(name)
        if darg.is_zero():
            continue
        alpha = list(atom.alpha)
        alpha[j] += 1
        out = out + _atom_expr(App(atom.func, alpha, atom.args)) * darg
    return out


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


ZERO = CoeffExpr({}, True)
ONE = CoeffExpr({(): _ONE_Q}, True)


def differentiate(e, name):
    return _coerce(e).diff(name)


def evaluate(e, point, realizations=None):
    return _coerce(e).evaluate(point, realizations)
