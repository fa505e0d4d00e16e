"""Parser and canonical printer for the coefficient-expression mini-language.

Grammar: rationals like `3/2`, coordinate names, opaque applications
`f[1,0](x0, x1)` (the bracket is the derivative multi-index, omitted when all
zero), `+`, `-`, `*`, integer powers `^`, parentheses.  Printing a canonical
form and re-parsing it gives back the identical expression.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .coeffexpr import ONE, CoeffExpr, Var, sum_of_products


class ParseError(ValueError):
    """`message (at position pos)`, then `, where` when the error is located
    in a file."""

    def __init__(self, message, pos, where=None):
        text = "%s (at position %d)" % (message, pos)
        super().__init__(text if where is None else "%s, %s" % (text, where))
        self.message = message
        self.pos = pos


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<sym>[-+*^()\[\],/=]))"
)


class Tokenizer:
    """Shared tokenizer for the expression and series languages; it carries
    the signature and the wording of `_check_name` through the descent."""

    def __init__(self, text, sig, what):
        self.text = text
        self.sig = sig
        self.what = what
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise ParseError("unexpected character %r" % text[pos:].lstrip()[0], pos)
                break
            if m.group("num"):
                self.tokens.append(("num", m.group("num"), m.start()))
            elif m.group("name"):
                self.tokens.append(("name", m.group("name"), m.start()))
            else:
                self.tokens.append(("sym", m.group("sym"), m.start()))
            pos = m.end()
        self.i = 0

    def peek(self, ahead=0):
        if self.i + ahead < len(self.tokens):
            return self.tokens[self.i + ahead]
        return ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise ParseError("expected %s %r, got %r" % (kind, value or "", tok[1]), tok[2])
        return tok

    def at_sym(self, value):
        tok = self.peek()
        return tok[0] == "sym" and tok[1] == value

    def done(self):
        return self.i >= len(self.tokens)


def parse_coeff(text, sig=None, what="coefficient"):
    """A coefficient; over `sig`, a function of its base coordinates only
    (`_check_name`), and an error in a name opens with `what`."""
    return _parse_all(Tokenizer(text, sig, what), _parse_term)


def _parse_all(tz, term, total=None):
    """Parse all of `tz`'s text as a sum of `term(tz)` values, summed by
    `total` as in `_parse_expr`."""
    e = _parse_expr(tz, term, total)
    if not tz.done():
        tok = tz.peek()
        raise ParseError("trailing input %r" % tok[1], tok[2])
    return e


def _parse_expr(tz, term, total=None):
    """A sum of `term(tz)` values.  Every term is read first, so a parse
    error is raised at the token where it is met; then the terms are summed
    in one call, total([(value, negate), ...]), by default one
    `sum_of_products` over CoeffExpr values.  A lone term is its own sum."""
    terms = [(term(tz), False)]
    while tz.at_sym("+") or tz.at_sym("-"):
        negate = tz.next()[1] == "-"
        terms.append((term(tz), negate))
    if len(terms) == 1:
        return terms[0][0]
    if total is None:
        return sum_of_products([(t, ONE, negate) for t, negate in terms])
    return total(terms)


def _term_factors(tz, factor):
    """The sign of a product term and its `factor(tz)` values, in order."""
    sign = 1
    while tz.at_sym("-"):
        tz.next()
        sign = -sign
    factors = [factor(tz)]
    while True:
        tok = tz.peek()
        if tz.at_sym("*"):
            tz.next()
        elif not (tok[0] in ("num", "name") or (tok[0] == "sym" and tok[1] == "(")):
            break
        factors.append(factor(tz))
    return sign, factors


def _parse_term(tz):
    sign, factors = _term_factors(tz, _parse_factor)
    e = factors[0]
    for f in factors[1:]:
        e = e * f
    return e * sign


def _parse_factor(tz):
    e = _parse_atom(tz)
    while tz.at_sym("^"):
        tz.next()
        k = int(tz.expect("num")[1])
        e = e ** k
    return e


def _parse_atom(tz):
    tok = tz.next()
    if tok[0] == "num":
        num = int(tok[1])
        if tz.at_sym("/"):
            tz.next()
            den = int(tz.expect("num")[1])
            if den == 0:
                raise ParseError("zero denominator in %d/0" % num, tok[2])
            return CoeffExpr.rational(Fraction(num, den))
        return CoeffExpr.rational(num)
    if tok[0] == "name":
        _check_name(tz, tok)
        alpha = None
        if tz.at_sym("["):
            tz.next()
            alpha = [int(tz.expect("num")[1])]
            while tz.at_sym(","):
                tz.next()
                alpha.append(int(tz.expect("num")[1]))
            tz.expect("sym", "]")
        if tz.at_sym("("):
            tz.next()
            args = [_parse_expr(tz, _parse_term)]
            while tz.at_sym(","):
                tz.next()
                args.append(_parse_expr(tz, _parse_term))
            tz.expect("sym", ")")
            if alpha is not None and len(alpha) != len(args):
                raise ParseError(
                    "derivative index has %d slots for %d arguments"
                    % (len(alpha), len(args)),
                    tok[2],
                )
            return CoeffExpr.app(tok[1], args, alpha)
        if alpha is not None:
            raise ParseError("derivative index without argument list", tok[2])
        return CoeffExpr.var(tok[1])
    if tok[0] == "sym" and tok[1] == "(":
        e = _parse_expr(tz, _parse_term)
        tz.expect("sym", ")")
        return e
    raise ParseError("unexpected token %r" % tok[1], tok[2])


def _check_name(tz, tok):
    """The one rule for names inside a coefficient of the base coordinates,
    applied to the name token `tok` just read: over `tz.sig` (none, no
    rule), a name is a base coordinate, or a function symbol that opens an
    application `f(...)`, `f[1](...)` and is not a formal name.  The error
    opens with `tz.what`; in a series, where it is None, a formal name has
    its own error."""
    sig, name = tz.sig, tok[1]
    if sig is None or name in sig.base_names:
        return
    formal = name in sig.formal_names
    if formal or not (tz.at_sym("(") or tz.at_sym("[")):
        if formal and tz.what is None:
            raise ParseError("formal variable %r cannot appear inside a coefficient" % name,
                             tok[2])
        raise ParseError("%s names %r, which is not a base coordinate"
                         % (tz.what or "coefficient", name), tok[2])


# -- printing ------------------------------------------------------------


def _frac_str(q):
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def _atom_str(atom):
    if isinstance(atom, Var):
        return atom.name
    s = atom.func
    if any(atom.alpha):
        s += "[%s]" % ",".join(str(a) for a in atom.alpha)
    s += "(%s)" % ", ".join(print_coeff(a) for a in atom.args)
    return s


def print_coeff(e):
    """Canonical text form; parse_coeff(print_coeff(e)) == e."""
    if e.is_zero():
        return "0"
    from .coeffexpr import _mono_key

    pieces = []
    for mono, coeff in sorted(e.terms().items(), key=lambda t: _mono_key(t[0])):
        factors = []
        for atom, power in mono:
            s = _atom_str(atom)
            if power > 1:
                s += "^%d" % power
            factors.append(s)
        if not factors:
            body = _frac_str(abs(coeff))
        elif abs(coeff) == 1:
            body = "*".join(factors)
        else:
            body = _frac_str(abs(coeff)) + "*" + "*".join(factors)
        pieces.append((coeff < 0, body))
    out = ""
    for i, (neg, body) in enumerate(pieces):
        if i == 0:
            out = ("-" if neg else "") + body
        else:
            out += (" - " if neg else " + ") + body
    return out
