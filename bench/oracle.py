"""Independent checks for template compositions.

`naive_pullback` and `poly_to_series` follow the substitute-and-expand oracle
of the test suite (tests/conftest.py): a polynomial coefficient is expanded
with plain series products, independently of the Taylor pullback.  The
evaluator below realizes opaque symbols as rational polynomials and evaluates
exactly, memoizing each atom's value.
"""

from __future__ import annotations

from fractions import Fraction

from z2nsuper import CoeffExpr, GSeries, Morphism
from z2nsuper.coeffexpr import Var


def poly_to_series(c, images, sig, order):
    """Substitute the base symbols of a polynomial CoeffExpr by series."""
    out = GSeries.zero(sig, order)
    for mono, q in c.terms().items():
        term = GSeries.from_coeff(sig, order, q)
        for atom, power in mono:
            term = term * images[atom.name] ** power
        out = out + term
    return out


def naive_pullback(m, f):
    """Substitute-and-expand pullback of a series with polynomial coefficients."""
    sig = m.source
    order = min(m.order, f.order)
    base_images = {bn: m.images[bn].truncate(order) for bn in m.target.base_names}
    out = GSeries.zero(sig, order)
    fvars = m.target.formal_names
    for mu, c in f.terms.items():
        part = poly_to_series(c, base_images, sig, order)
        for a, k in enumerate(mu):
            for _ in range(k):
                part = part * m.images[fvars[a]].truncate(order)
        out = out + part
    return out


def realize(m, reals, point=None):
    """The morphism with every opaque application f(x1, ..) of the base
    coordinates replaced by its polynomial realization reals[f](t0, ..).

    With a point, every coefficient is replaced by its value there.
    """
    base = m.source.base_names

    def coeff(c):
        out = CoeffExpr.rational(0)
        for mono, q in c.terms().items():
            term = CoeffExpr.rational(q)
            for atom, power in mono:
                if isinstance(atom, Var):
                    term = term * CoeffExpr.var(atom.name) ** power
                    continue
                if any(atom.alpha) or list(atom.args) != [CoeffExpr.var(b) for b in base]:
                    raise ValueError("realize expects f(x1, .., xp) atoms, got %r" % (atom,))
                term = term * _rename(reals[atom.func], base) ** power
            out = out + term
        return out if point is None else CoeffExpr.rational(_poly_value(out, point))

    images = {v: s.map_coeffs(coeff) for v, s in m.images.items()}
    return Morphism(m.source, m.target, images, m.order)


def _rename(poly, base):
    out = CoeffExpr.rational(0)
    for mono, q in poly.terms().items():
        term = CoeffExpr.rational(q)
        for atom, power in mono:
            term = term * CoeffExpr.var(base[int(atom.name[1:])]) ** power
        out = out + term
    return out


class Evaluator:
    """Exact value of coefficient expressions at a rational point."""

    def __init__(self, point, reals):
        self.point = point
        self.reals = reals
        self._atoms = {}
        self._derivs = {}

    def value(self, expr):
        total = Fraction(0)
        for mono, q in expr.terms().items():
            v = q
            for atom, power in mono:
                v *= self._atom(atom) ** power
            total += v
        return total

    def _atom(self, atom):
        if atom in self._atoms:
            return self._atoms[atom]
        if isinstance(atom, Var):
            val = Fraction(self.point[atom.name])
        else:
            key = (atom.func, atom.alpha)
            if key not in self._derivs:
                poly = self.reals[atom.func]
                for j, k in enumerate(atom.alpha):
                    for _ in range(k):
                        poly = poly.diff("t%d" % j)
                self._derivs[key] = poly
            args = {"t%d" % j: self.value(a) for j, a in enumerate(atom.args)}
            val = _poly_value(self._derivs[key], args)
        self._atoms[atom] = val
        return val


def _poly_value(poly, point):
    total = Fraction(0)
    for mono, q in poly.terms().items():
        v = q
        for atom, power in mono:
            v *= point[atom.name] ** power
        total += v
    return total


def composition_mismatches(composed, a, b, reals, point):
    """(variable, monomial) pairs where compose(b, a) realized at `point`
    differs from the naive composition of the realized templates.

    The realized `a` is evaluated at the point before the naive pullback:
    composition takes no derivatives of a's coefficients, only ring
    operations, and evaluation commutes with those.  This keeps the oracle's
    coefficients rational instead of polynomials of growing degree.
    """
    ar, br = realize(a, reals, point), realize(b, reals)
    ev = Evaluator(point, reals)
    bad = []
    for v, img in br.images.items():
        naive = naive_pullback(ar, img)
        got = composed.images[v]
        for mu in set(naive.terms) | set(got.terms):
            want = naive.coeff_of(mu).as_rational()
            if ev.value(got.coeff_of(mu)) != want:
                bad.append((v, mu))
    return bad
