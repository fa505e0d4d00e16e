"""Parser and canonical printer for the coefficient-expression mini-language.

Grammar: rationals like `3/2`, coordinate names, opaque applications
`f[1,0](x0, x1)` (the bracket is the derivative multi-index, omitted when all
zero), `+`, `-`, `*`, integer powers `^`, parentheses.  Printing a canonical
form and re-parsing it gives back the identical expression.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .coeffexpr import CoeffExpr, Var


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
    """Shared tokenizer for the expression and series languages."""

    def __init__(self, text):
        self.text = text
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


def parse_coeff(text):
    return _parse_all(text, _parse_term)


def _parse_all(text, term):
    """Parse all of `text` as a sum of `term(tz)` values."""
    tz = Tokenizer(text)
    e = _parse_expr(tz, term)
    if not tz.done():
        tok = tz.peek()
        raise ParseError("trailing input %r" % tok[1], tok[2])
    return e


def _parse_expr(tz, term):
    e = term(tz)
    while tz.at_sym("+") or tz.at_sym("-"):
        op = tz.next()[1]
        t = term(tz)
        e = e + t if op == "+" else e - t
    return e


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
