"""Reader of the coefficient and series languages; canonical coefficient printer.

Coefficients: rationals like `3/2`, coordinate names, opaque applications
`f[1,0](x0, x1)` (the bracket is the derivative multi-index, omitted when all
zero), `+`, `-`, `*`, integer powers `^`, parentheses.  A series is a sum of
terms `coeff * v^k w ...` whose formal powers make the term's monomial.  One
reader reads both languages.  A term is read in one pass into its sign and
rational factor (int numerator and denominator), the power product of its
atoms and its formal monomial; the terms of a sum are then added per formal
monomial over the lcm of their denominators and brought to lowest terms
once.  Only parentheses, their powers and application arguments are read by
a nested call.  Printing a canonical coefficient and re-parsing it gives
back the identical expression; the printer writes integers of any length.
"""

from __future__ import annotations

import re
from math import comb, gcd, lcm

from .coeffexpr import ZERO, CoeffExpr, Var, _atom, _lowest, _mono_key, _mono_mul
from .gseries import GSeries, mul_monomials


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

# most terms of base^k, at most C(k + t - 1, t - 1) for t terms in base, and
# of a product of parenthesised factors, at most the product of their terms
POWER_CAP = 1000
# most bits of base^k, estimated as k times ceil(log2) of the base's largest
# numerator or denominator; a unit numerator grows nothing, so x^k is free
POWER_BITS = 3000
# most bits of a term: ceil(log2) summed over its numerals and parenthesised factors
TERM_BITS = 30000
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
    the signature and the wording of `_check_name` through the descent.
    Tokens are (kind, value, position) triples, and the list ends with two
    end-of-text tokens, so a look one token ahead is a plain index."""

    def __init__(self, text, sig, what):
        self.sig = sig
        self.what = what
        tokens = []
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                raise ParseError("unexpected character %r" % m.group("bad"), m.start())
            value = m.group(kind)
            if kind == "num" and len(value) > NUMERAL_DIGITS:
                check_numerals(value, m.start(), None)
            tokens.append((kind, value, m.start()))
        eof = ("eof", "", len(text))
        self.tokens = tokens + [eof, eof]
        self.i = 0

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise ParseError("expected %s %r, got %r" % (kind, value or "", tok[1]), tok[2])
        return tok

    def at_sym(self, value):
        # no name, numeral or end token has a symbol's text
        return self.tokens[self.i][1] == value


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
    kind, value, pos = tz.tokens[tz.i]
    if kind != "eof":
        raise ParseError("trailing input %r" % value, pos)
    return e


def _parse_expr(tz, order):
    """A sum of terms: a coefficient when order is None, else a series at
    `order`.  Every term is read first (`_parse_term`), so a parse error is
    raised at the token where it is met; then the terms are summed per
    formal monomial, each sum in one pass (`_sum_terms`)."""
    terms = [_parse_term(tz, order, 1)]
    tokens = tz.tokens
    while tokens[tz.i][1] in ("+", "-"):
        terms.append(_parse_term(tz, order, -1 if tz.next()[1] == "-" else 1))
    if order is None:
        return _sum_terms(terms)
    groups = {}
    for term in terms:
        if term is not None:
            groups.setdefault(term[0], []).append(term)
    out = {}
    for mu, group in groups.items():
        c = _sum_terms(group)
        if c._terms:
            out[mu] = c
    return GSeries.canonical(tz.sig, order, out)


def _parse_term(tz, order, sign):
    """A product term after its `+` or `-` (sign): more signs, then its
    factors, juxtaposed or joined by `*`, read in one pass into
    (mu, num, den, mono, expr), the term num/den * mono * expr * mu.

    num/den is the rational factor, as ints with den > 0, and mono the power
    product of the atoms read (names, applications, their powers).  expr is
    the product of the parenthesised factors, each read by `_parse_expr`, or
    None when there is none; the term is refused at the `(` of a second or
    later factor that takes the product of the factors' term counts over
    POWER_CAP, so a lone factor of any length, as printed, reads back, and
    at the factor that takes its numbers' bits over TERM_BITS.  mu is the
    formal monomial: in a series (order given) each formal power `v^k`, a
    formal name that opens no application, is folded into it with its
    reordering sign; in a coefficient it is None.  A square of a self-odd
    variable kills the term, and reading goes on, so a later bad factor
    still raises its error; a killed term, or one above the order, is None."""
    tokens = tz.tokens
    while tokens[tz.i][1] == "-":
        tz.next()
        sign = -sign
    sig = tz.sig
    formal = () if order is None else sig.formal_names
    mu = None if order is None else (0,) * sig.nformal
    num, den, mono, expr, killed = sign, 1, (), None, False
    count, bits = 1, 0  # most terms of expr, and bits of the term's numbers
    while True:
        kind, value, pos = tokens[tz.i]
        if kind == "name" and value in formal and tokens[tz.i + 1][1] not in ("(", "["):
            tz.next()
            k = 1
            if tokens[tz.i][1] == "^":
                tz.next()
                k = int(tz.expect("num")[1])
            hit = None if killed else mul_monomials(sig, mu, sig.formal_unit(value, k))
            if hit is None:
                killed = True
            else:
                s, mu = hit
                num *= s
        elif kind == "num":
            tz.next()
            n, d = int(value), 1
            if tokens[tz.i][1] == "/":
                tz.next()
                d = int(tz.expect("num")[1])
                if d == 0:
                    raise ParseError("zero denominator in %d/0" % n, pos)
                g = gcd(n, d)
                n, d = n // g, d // g
            while tokens[tz.i][1] == "^":
                k = _exponent(tz, 1, (max(abs(n), d) - 1).bit_length())
                n, d = n ** k, d ** k
            num, den = num * n, den * d
            bits += (max(abs(n), d) - 1).bit_length()
        elif kind == "name":
            atom = _parse_atom(tz)
            power = 1
            while tokens[tz.i][1] == "^":
                power *= _exponent(tz, 1, 0)
            if power:
                mono = _mono_mul(mono, ((atom, power),))
        elif value == "(":
            tz.next()
            e = _parse_expr(tz, None)
            tz.expect("sym", ")")
            while True:
                coeffs = e.terms().values()
                ebits = max(((max(abs(q.numerator), q.denominator) - 1).bit_length()
                             for q in coeffs), default=0)
                if tokens[tz.i][1] != "^":
                    break
                e = e ** _exponent(tz, len(coeffs) or 1, ebits)
            bits += ebits
            count *= len(e._terms)
            if expr is not None and count > POWER_CAP:
                raise ParseError("product of parenthesised factors can exceed the cap of %d "
                                 "terms" % POWER_CAP, pos)
            expr = e if expr is None else expr * e
        else:
            raise ParseError("unexpected token %r" % value, pos)
        if bits > TERM_BITS:
            raise ParseError("a term's numbers can exceed the cap of %d bits" % TERM_BITS, pos)
        kind, value, _ = tokens[tz.i]
        if value == "*":
            tz.next()
        elif not (kind == "num" or kind == "name" or value == "("):
            break
    if killed or mu is not None and sum(mu) > order:
        return None
    return mu, num, den, mono, expr


def _exponent(tz, t, bits):
    """The k of the `^k` at tz, a power of a t-term base whose largest
    numerator or denominator has ceil(log2) `bits`; refused when the power
    can exceed POWER_CAP terms or POWER_BITS bits."""
    pos = tz.next()[2]
    k = int(tz.expect("num")[1])
    if comb(k + t - 1, t - 1) > POWER_CAP:
        raise ParseError("power ^%d of a %d-term coefficient can exceed the cap of %d terms"
                         % (k, t, POWER_CAP), pos)
    if k * bits > POWER_BITS:
        raise ParseError("power ^%d of a coefficient of %d-bit numbers can exceed the cap "
                         "of %d bits" % (k, bits, POWER_BITS), pos)
    return k


def _sum_terms(terms):
    """The CoeffExpr of the sum of terms (mu, num, den, mono, expr) from
    `_parse_term`: numerators over the lcm of the denominators, summed per
    monomial in one pass and brought to lowest terms once.  A lone
    parenthesised factor is its own sum."""
    if len(terms) == 1:
        _, num, den, mono, expr = terms[0]
        if expr is None:
            g = gcd(num, den)
            return CoeffExpr({mono: num // g}, den // g) if num else ZERO
        if num == den and not mono:
            return expr
    D = lcm(*(den if expr is None else den * expr._den for _, _, den, _, expr in terms))
    out = {}
    for _, num, den, mono, expr in terms:
        if expr is None:
            out[mono] = out.get(mono, 0) + num * (D // den)
            continue
        s = num * (D // (den * expr._den))
        for m, n in expr._terms.items():
            m = _mono_mul(mono, m)
            out[m] = out.get(m, 0) + s * n
    out = {m: n for m, n in out.items() if n}
    return _lowest(out, D) if out else ZERO


def _parse_atom(tz):
    """The atom of the name at tz: a base coordinate, or an application
    `f(...)`, `f[1,0](...)` whose arguments are each read by `_parse_expr`."""
    tok = tz.next()
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
        return _atom(tok[1], args, alpha)
    if alpha is not None:
        raise ParseError("derivative index without argument list", tok[2])
    return _atom(tok[1])


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


# Python's str() refuses ints of more than 4 300 digits; a longer one is
# printed in chunks of this many digits
_CHUNK_DIGITS = 4000
_CHUNK = 10 ** _CHUNK_DIGITS


def _digits(n):
    """The decimal digits of the int n >= 0, whatever its length."""
    if n < _CHUNK:
        return str(n)
    chunks = []
    while n:
        n, r = divmod(n, _CHUNK)
        chunks.append(r)
    return str(chunks.pop()) + "".join("%0*d" % (_CHUNK_DIGITS, r) for r in reversed(chunks))


def print_coeff(e):
    """Canonical text form; parse_coeff(print_coeff(e)) == e."""
    if not e._terms:
        return "0"
    den = e._den
    out = ""
    for mono, n in sorted(e._terms.items(), key=lambda t: _mono_key(t[0])):
        g = gcd(n, den)
        num, d = abs(n) // g, den // g
        q = _digits(num) if d == 1 else "%s/%s" % (_digits(num), _digits(d))
        body = "*".join(_atom_str(atom) + ("^" + _digits(power) if power > 1 else "")
                        for atom, power in mono)
        if not body:
            body = q
        elif q != "1":
            body = q + "*" + body
        if out:
            out += (" - " if n < 0 else " + ") + body
        else:
            out = ("-" if n < 0 else "") + body
    return out
