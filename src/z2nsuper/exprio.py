"""Reader of the coefficient and series languages; canonical coefficient printer.

Coefficients: rationals like `3/2`, coordinate names, opaque applications
`f[1,0](x0, x1)` (the bracket is the derivative multi-index, omitted when all
zero), `+`, `-`, `*`, integer powers `^`, parentheses.  A series is a sum of
terms `coeff * v^k w ...` whose formal powers make the term's monomial.  One
recursive descent reads both languages: a term is a sign and its factors,
and a sum is one accumulation call.  Printing a canonical coefficient and
re-parsing it gives back the identical expression.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

from .coeffexpr import ONE, CoeffExpr, Var, _mono_key, sum_of_products
from .gseries import GSeries, combine, mul_monomials


class ParseError(ValueError):
    """`message (at position pos)`, then `, where` when the error is located
    in a file."""

    def __init__(self, message, pos, where=None):
        text = "%s (at position %d)" % (message, pos)
        super().__init__(text if where is None else "%s, %s" % (text, where))
        self.message = message
        self.pos = pos


def positive_int(text):
    """text as an integer >= 1; None when it is not one; a too long numeral is a ParseError."""
    try:
        value = int(text)
    except ValueError:
        check_numerals(text, 0, None)
        return None
    return value if value >= 1 else None


# a token's position is that of the blanks before it
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<sym>[-+*^()\[\],/=])|(?P<bad>\S))"
)

POWER_CAP = 1000  # most terms of base^k, at most C(k + t - 1, t - 1) for t terms in base
# most bits of base^k, estimated as k times ceil(log2) of the base's largest
# numerator or denominator; a unit numerator grows nothing, so x^k is free
POWER_BITS = 3000
# longest numeral; Python's default limit for int() of a string
NUMERAL_DIGITS = 4300


def check_numerals(text, pos, where):
    """Refuse a numeral of text (at pos) over NUMERAL_DIGITS by its length, not its digits;
    where, if not None, locates text as in ParseError."""
    for m in re.finditer(r"\d+(?:_\d+)*", text):  # as int() reads it, skipping underscores
        digits = len(m.group().replace("_", ""))
        if digits > NUMERAL_DIGITS:
            raise ParseError("numeral of %d digits exceeds the limit of %d digits"
                             % (digits, NUMERAL_DIGITS), pos + m.start(), where)


class Tokenizer:
    """Shared tokenizer for the expression and series languages; it carries
    the signature and the wording of `_check_name` through the descent."""

    def __init__(self, text, sig, what):
        self.text = text
        self.sig = sig
        self.what = what
        self.tokens = []
        for m in _TOKEN_RE.finditer(text):
            if m.lastgroup == "bad":
                raise ParseError("unexpected character %r" % m.group("bad"), m.start())
            if m.lastgroup == "num" and len(m.group("num")) > NUMERAL_DIGITS:
                check_numerals(m.group("num"), m.start(), None)
            self.tokens.append((m.lastgroup, m.group(m.lastgroup), m.start()))
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
    return _parse_all(Tokenizer(text, sig, what), None)


def parse_series(text, sig, order):
    """A series over `sig` truncated at `order`: a sum of terms
    `coeff * v^k w ...`, whose coefficient factors are functions of the base
    coordinates and whose formal powers make the term's monomial."""
    return _parse_all(Tokenizer(text, sig, None), order)


def _parse_all(tz, order):
    """All of `tz`'s text as one sum (`_parse_expr`)."""
    e = _parse_expr(tz, order)
    if not tz.done():
        tok = tz.peek()
        raise ParseError("trailing input %r" % tok[1], tok[2])
    return e


def _parse_expr(tz, order):
    """A sum of terms: a coefficient when order is None, else a series at
    `order`.  Every term is read first, so a parse error is raised at the
    token where it is met; then the terms are summed in one call, one
    `sum_of_products` for a coefficient and one `combine` for a series.  A
    lone term is its own sum."""
    terms = [(_parse_term(tz, order), False)]
    while tz.at_sym("+") or tz.at_sym("-"):
        negate = tz.next()[1] == "-"
        terms.append((_parse_term(tz, order), negate))
    if len(terms) == 1:
        return terms[0][0]
    if order is None:
        return sum_of_products([(t, ONE, negate) for t, negate in terms])
    return combine(tz.sig, order, [(t, -1 if negate else 1) for t, negate in terms])


def _parse_term(tz, order):
    """A product term: its sign, then its factors, juxtaposed or joined by
    `*`.  The coefficient factors are multiplied in order.  In a series
    (order given) each formal power `v^k`, a formal name that opens no
    application, is folded into the term's monomial with its reordering
    sign; a square of a self-odd variable kills the term, and reading goes
    on, so a later bad factor still raises its error."""
    sign = 1
    while tz.at_sym("-"):
        tz.next()
        sign = -sign
    sig, coeff, killed = tz.sig, None, False
    mu = None if order is None else (0,) * sig.nformal
    while True:
        tok = tz.peek()
        if mu is not None and tok[0] == "name" and tok[1] in sig.formal_names \
                and tz.peek(1)[1] not in ("(", "["):
            tz.next()
            k = 1
            if tz.at_sym("^"):
                tz.next()
                k = int(tz.expect("num")[1])
            hit = None if killed else mul_monomials(sig, mu, sig.formal_unit(tok[1], k))
            if hit is None:
                killed = True
            else:
                s, mu = hit
                sign *= s
        else:
            f = _parse_factor(tz)
            coeff = f if coeff is None else coeff * f
        tok = tz.peek()
        if tz.at_sym("*"):
            tz.next()
        elif not (tok[0] in ("num", "name") or tz.at_sym("(")):
            break
    if order is None:
        return coeff * sign
    if killed:
        return GSeries.zero(sig, order)
    return GSeries.monomial(sig, order, mu, sign if coeff is None else coeff * sign)


def _parse_factor(tz):
    e = _parse_atom(tz)
    while tz.at_sym("^"):
        pos = tz.next()[2]
        k = int(tz.expect("num")[1])
        terms = e.terms().values()
        t = len(terms) or 1
        if comb(k + t - 1, t - 1) > POWER_CAP:
            raise ParseError("power ^%d of a %d-term coefficient can exceed the cap of %d terms"
                             % (k, t, POWER_CAP), pos)
        bits = max(((max(abs(q.numerator), q.denominator) - 1).bit_length() for q in terms),
                   default=0)
        if k * bits > POWER_BITS:
            raise ParseError("power ^%d of a coefficient of %d-bit numbers can exceed the cap "
                             "of %d bits" % (k, bits, POWER_BITS), pos)
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
            args = [_parse_expr(tz, None)]
            while tz.at_sym(","):
                tz.next()
                args.append(_parse_expr(tz, None))
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
        e = _parse_expr(tz, None)
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
    pieces = []
    for mono, coeff in sorted(e.terms().items(), key=lambda t: _mono_key(t[0])):
        factors = []
        for atom, power in mono:
            s = _atom_str(atom)
            if power > 1:
                s += "^%d" % power
            factors.append(s)
        if not factors:
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = "*".join(factors)
        else:
            body = str(abs(coeff)) + "*" + "*".join(factors)
        pieces.append((coeff < 0, body))
    out = ""
    for i, (neg, body) in enumerate(pieces):
        if i == 0:
            out = ("-" if neg else "") + body
        else:
            out += (" - " if neg else " + ") + body
    return out
