"""Plain-text file formats: signatures, series, morphisms, algebras, atlases.

All formats are line oriented, print canonically, and round-trip bit-exactly
on canonical forms.  Degrees appear verbatim as bit strings ("011"); series
terms are `coeff * var^k var^k ...` joined by `+`.

Every format is read by one grammar (`_sections`).  A file is a sequence of
header lines: a keyword and a fixed number of whitespace-separated fields.

    n N            var NAME DEGREE    order K           pair U V
    triple U V W   unit LABEL         c A B C Q         basis LABEL ...
    charts U ...

A block header opens a block that runs to a line reading `end`:

    source, target, signature   `n` and `var` lines
    images, transition U V,     rows `name = series`
      iso U
    partition                   rows `chart = coefficient`
    embedding                   rows `chart name = series`
    bundle                      rows `... = coefficient`, kept as written
    report                      data lines, kept as written

Blank lines and lines starting with `#` are ignored everywhere, inside
blocks too.  Unknown keywords, wrong field counts, blocks with no `end`,
rows without their `=`, repeated rows, repeated header lines and an
`order` that is not an integer K >= 1 raise `ParseError`; an error inside
a row names the row, its block header, its line and (given) the file.  A
header line is named by its keyword and, for `var`, `pair`, `triple`, `c`,
`transition` and `iso`, by the fields that say what it is about (`iso U`,
`c A B C`); every other keyword may appear once per file.
"""

from __future__ import annotations

from fractions import Fraction

from . import exprio
from .coeffexpr import CoeffExpr
from .degrees import Degree, Signature
from .exprio import ParseError, _frac_str, parse_coeff, print_coeff
from .gseries import GSeries, mono_order, mul_monomials
from .morphisms import Morphism

# keyword -> (number of fields, number of leading fields that name the line,
# opens a block); None takes any number.  No two header lines of one file
# have the same keyword and name, so a line named by 0 fields is once-only.
_HEADERS = {
    "n": (1, 0, False),
    "var": (2, 1, False),
    "order": (1, 0, False),
    "pair": (2, 2, False),
    "triple": (3, 3, False),
    "unit": (1, 0, False),
    "c": (4, 3, False),
    "basis": (None, 0, False),
    "charts": (None, 0, False),
    "source": (0, 0, True),
    "target": (0, 0, True),
    "signature": (0, 0, True),
    "images": (0, 0, True),
    "transition": (2, 2, True),
    "iso": (1, 1, True),
    "partition": (0, 0, True),
    "embedding": (0, 0, True),
    "bundle": (0, 0, True),
    "report": (0, 0, True),
}


def _sections(lines, allowed, what):
    """Yield (keyword, fields, body, numbers) for each header line of a `what` file.

    `allowed` holds the keywords of the format.  The body of a block is its
    list of stripped lines up to `end`, and numbers their 1-based lines; a
    one-line header has an empty body.
    """
    rows = iter([(i, ln) for i, ln in enumerate(map(str.strip, lines), 1)
                 if ln and not ln.startswith("#")])
    seen = set()
    for _, ln in rows:
        kw, *fields = ln.split()
        if kw not in allowed:
            raise ParseError("unexpected %s line: %r" % (what, ln), 0)
        count, named_by, opens_block = _HEADERS[kw]
        if count is not None and len(fields) != count:
            raise ParseError("`%s` takes %d field%s, got %r"
                             % (kw, count, "" if count == 1 else "s", ln), 0)
        name = " ".join([kw, *fields[:named_by]])
        if name in seen:
            raise ParseError("%s file repeats `%s`" % (what, name), 0)
        seen.add(name)
        body, numbers = [], []
        if opens_block:
            for i, row in rows:
                if row == "end":
                    break
                body.append(row)
                numbers.append(i)
            else:
                raise ParseError("%s block `%s` has no `end`" % (what, ln), 0)
        yield kw, fields, body, numbers


def _rows(block, form, parse, path=None):
    """{left-hand names: parse(names, right-hand text)} over the `form = ...`
    rows of a block from `_sections` (any left-hand side when form is None);
    no two rows of a block have the same left-hand side.  A ParseError in a
    row is raised again naming the row, the block header, its line and the
    file `path`."""
    kw, fields, body, numbers = block
    out = {}
    for row, line in zip(body, numbers):
        lhs, eq, rhs = row.partition("=")
        names = tuple(lhs.split())
        if not eq or not names or form and len(names) != len(form.split()) or names in out:
            raise ParseError("expected a `%s = ...` row for a new %s, got %r"
                             % (form or "...", form or "row", row), 0)
        try:
            out[names] = parse(names, rhs.strip())
        except ParseError as exc:
            where = "in the `%s` row of block `%s`, line %d" % (
                " ".join(names), " ".join([kw, *fields]), line)
            raise ParseError(exc.message, exc.pos,
                             where if path is None else "%s of %s" % (where, path)) from None
    return out


def _block(header, rows):
    """A block as printed: its header line, its rows and `end`."""
    return [header, *rows, "end"]


def _after(kw, *header):
    """A `kw` block is parsed over header values that must come before it."""
    if any(value is None for value in header):
        raise ParseError("%s block before the header lines it needs" % kw, 0)


def parse_order(text):
    """A truncation order K from an `order` line or `--order`: an integer >= 1."""
    try:
        order = int(text)
    except ValueError:
        order = None
    if order is None or order < 1:
        raise ParseError("the truncation order must be an integer >= 1, got %r" % text, 0)
    return order


# -- signatures -----------------------------------------------------------


def print_signature(sig):
    lines = ["n %d" % sig.n]
    for name, deg in sig.variables():
        lines.append("var %s %s" % (name, deg))
    return "\n".join(lines)


def parse_signature_lines(lines):
    n = None
    variables = []
    for kw, fields, _, _ in _sections(lines, ("n", "var"), "signature"):
        if kw == "n":
            n = int(fields[0])
        else:
            variables.append((fields[0], Degree.parse(fields[1])))
    if n is None:
        raise ParseError("signature is missing its `n` line", 0)
    return Signature(n, variables)


def parse_signature(text):
    return parse_signature_lines(text.splitlines())


# -- series ---------------------------------------------------------------


def parse_series(text, sig, order):
    """Parse the series literal syntax over a known signature."""
    return exprio._parse_all(text, lambda tz: _parse_series_term(tz, sig, order))


def _parse_series_term(tz, sig, order):
    """One term as one monomial: the product of its coefficient factors
    times its formal powers folded left to right, with the sign of their
    reordering; a square of a self-odd variable kills the term."""
    sign, factors = exprio._term_factors(tz, lambda tz: _parse_series_factor(tz, sig))
    coeff, mu = CoeffExpr.rational(1), (0,) * sig.nformal
    for f in factors:
        if isinstance(f, CoeffExpr):
            coeff = coeff * f
            continue
        hit = mul_monomials(sig, mu, f)
        if hit is None:
            return GSeries.zero(sig, order)
        s, mu = hit
        sign *= s
    return GSeries.monomial(sig, order, mu, coeff * sign)


def _parse_series_factor(tz, sig):
    """A coefficient factor, or a formal power as its exponent vector.  A
    coefficient is a function of the base coordinates, so a formal name
    inside one (`xi(x)`, `f(xi)`, `(xi + 1)`) is an error."""
    tok = tz.peek()
    # a formal variable, unless the name opens an application `f(...)`, `f[1](...)`
    if tok[0] == "name" and tok[1] in sig.formal_names and tz.peek(1)[1] not in ("(", "["):
        tz.next()
        k = 1
        if tz.at_sym("^"):
            tz.next()
            k = int(tz.expect("num")[1])
        return sig.formal_unit(tok[1], k)
    start = tz.i
    factor = exprio._parse_factor(tz)
    bad = _non_base_name(tz.tokens, start, tz.i, sig)
    if bad:
        name, pos = bad
        if name in sig.formal_names:
            raise ParseError("formal variable %r cannot appear inside a coefficient" % name, pos)
        raise ParseError("coefficient names %r, which is not a base coordinate" % name, pos)
    return factor


def _non_base_name(tokens, start, stop, sig):
    """The one rule for names inside a coefficient of the base coordinates: a
    name is a base coordinate, or a function symbol that opens an application
    `f(...)`, `f[1](...)` and is not a formal name.  Returns (name, position)
    of the first name among tokens[start:stop] that breaks it, or None."""
    for i in range(start, stop):
        kind, name, pos = tokens[i]
        opens = i + 1 < len(tokens) and tokens[i + 1][1] in ("(", "[")
        if kind == "name" and name not in sig.base_names and (
                name in sig.formal_names or not opens):
            return name, pos
    return None


def print_monomial(sig, mu):
    """The formal-variable product `xi eta^2` of an exponent vector; `1` if empty."""
    factors = []
    for name, k in zip(sig.formal_names, mu):
        if k == 1:
            factors.append(name)
        elif k > 1:
            factors.append("%s^%d" % (name, k))
    return " ".join(factors) or "1"


def print_series(s):
    if not s.terms:
        return "0"
    sig = s.sig
    pieces = []
    for mu in sorted(s.terms, key=lambda m: (mono_order(m), m)):
        coeff = s.terms[mu]
        cs = print_coeff(coeff)
        if (" + " in cs) or (" - " in cs) or cs.startswith("-"):
            cs = "(%s)" % cs
        if not any(mu):
            pieces.append(cs)
        elif coeff == CoeffExpr.rational(1):
            pieces.append(print_monomial(sig, mu))
        else:
            pieces.append("%s * %s" % (cs, print_monomial(sig, mu)))
    return " + ".join(pieces)


def _parse_images(block, sig, order, path):
    """The `name = series` rows of an images, transition or iso block."""
    rows = _rows(block, "name", lambda names, rhs: parse_series(rhs, sig, order), path)
    return {name: s for (name,), s in rows.items()}


def _image_lines(sig, images):
    """The `name = series` rows for the variables of `sig`, in its order."""
    return ["%s = %s" % (name, print_series(images[name])) for name, _ in sig.variables()]


# -- morphisms ------------------------------------------------------------


def print_morphism(m):
    lines = ["order %d" % m.order]
    lines += _block("source", [print_signature(m.source)])
    lines += _block("target", [print_signature(m.target)])
    lines += _block("images", _image_lines(m.target, m.images))
    return "\n".join(lines)


def parse_morphism(text, path=None):
    order = source = target = None
    images = {}
    keywords = ("order", "source", "target", "images")
    for block in _sections(text.splitlines(), keywords, "morphism"):
        kw, fields, body, _ = block
        if kw == "order":
            order = parse_order(fields[0])
        elif kw == "source":
            source = parse_signature_lines(body)
        elif kw == "target":
            target = parse_signature_lines(body)
        else:
            _after(kw, order, source, target)
            images = _parse_images(block, source, order, path)
    if order is None or source is None or target is None:
        raise ParseError("morphism file is missing header data", 0)
    return Morphism(source, target, images, order)


# -- finite-dimensional algebras ------------------------------------------


def print_algebra(A):
    lines = ["basis %s" % " ".join(A.labels), "unit %s" % A.labels[A.unit]]
    for (i, j), row in sorted(A.table.items()):
        for k, c in sorted(row.items()):
            lines.append(
                "c %s %s %s %s"
                % (A.labels[i], A.labels[j], A.labels[k], _frac_str(c))
            )
    return "\n".join(lines)


def parse_algebra(text):
    from .findim import FinDimAlgebra

    labels = None
    unit = None
    consts = []
    for kw, fields, _, _ in _sections(text.splitlines(), ("basis", "unit", "c"), "algebra"):
        if kw == "basis":
            labels = fields
        elif kw == "unit":
            unit = fields[0]
        else:
            line = "c " + " ".join(fields)
            try:
                q = Fraction(fields[3])
            except ZeroDivisionError:
                raise ParseError("algebra line `%s`: zero denominator in %r"
                                 % (line, fields[3]), 0) from None
            except ValueError:
                raise ParseError("algebra line `%s`: %r is not a rational constant"
                                 % (line, fields[3]), 0) from None
            consts.append((line, fields, q))
    if labels is None or unit is None:
        raise ParseError("algebra file is missing basis or unit", 0)
    idx = {lb: i for i, lb in enumerate(labels)}
    if len(idx) < len(labels):
        repeated = next(lb for i, lb in enumerate(labels) if lb in labels[:i])
        raise ParseError("algebra `basis` repeats the label %r" % repeated, 0)

    def index(label, line):
        if label not in idx:
            raise ParseError("algebra line `%s` names %r, not a basis label" % (line, label), 0)
        return idx[label]

    table = {}
    for line, fields, q in consts:
        a, b, c = (index(lb, line) for lb in fields[:3])
        table.setdefault((a, b), {})[c] = q
    return FinDimAlgebra(labels, index(unit, "unit " + unit), table)


def parse_assignment(text, labels):
    """A degree assignment: exactly one `LABEL BITS` row per basis label."""
    assignment = {}
    first = None
    for ln in map(str.strip, text.splitlines()):
        if not ln or ln.startswith("#"):
            continue
        fields = ln.split()
        if len(fields) != 2:
            raise ParseError("expected a `LABEL BITS` row, got %r" % ln, 0)
        label, bits = fields
        if label not in labels:
            raise ParseError("assignment row %r names %r, not a basis label" % (ln, label), 0)
        if label in assignment:
            raise ParseError("assignment repeats label %r in row %r" % (label, ln), 0)
        d = assignment[label] = Degree.parse(bits)
        first = first or (ln, d.n)
        if d.n != first[1]:
            raise ParseError("assignment row %r has %d bits, but row %r has %d"
                             % (ln, d.n, *first), 0)
    for label in labels:
        if label not in assignment:
            raise ParseError("assignment has no row for label %r" % label, 0)
    return assignment


# -- atlases --------------------------------------------------------------


def print_atlas(atlas):
    lines = ["order %d" % atlas.order]
    lines += _block("signature", [print_signature(atlas.signature)])
    lines.append("charts %s" % " ".join(atlas.charts))
    for u, v in atlas.pairs:
        lines.append("pair %s %s" % (u, v))
    for u, v, w in atlas.triples:
        lines.append("triple %s %s %s" % (u, v, w))
    for (u, v), m in sorted(atlas.transitions.items()):
        lines += _block("transition %s %s" % (u, v), _image_lines(atlas.signature, m.images))
    if atlas.partition:
        rows = ["%s = %s" % (u, print_coeff(atlas.partition[u])) for u in atlas.charts]
        lines += _block("partition", rows)
    return "\n".join(lines)


def parse_atlas(text, path=None):
    from .atlas import Atlas

    order = None
    sig = None
    charts = []
    pairs = []
    triples = []
    transitions = {}
    partition = None
    keywords = ("order", "signature", "charts", "pair", "triple", "transition", "partition")
    for block in _sections(text.splitlines(), keywords, "atlas"):
        kw, fields, body, _ = block
        if kw == "order":
            order = parse_order(fields[0])
        elif kw == "signature":
            sig = parse_signature_lines(body)
        elif kw == "charts":
            charts = fields
        elif kw == "pair":
            pairs.append(tuple(fields))
        elif kw == "triple":
            triples.append(tuple(fields))
        elif kw == "transition":
            _after(kw, sig, order)
            images = _parse_images(block, sig, order, path)
            transitions[tuple(fields)] = Morphism(sig, sig, images, order)
        else:
            _after(kw, sig)
            rows = _rows(block, "chart", lambda names, rhs: _parse_base_coeff(
                rhs, sig, "partition row of chart %s" % names[0]), path)
            partition = {u: rho for (u,), rho in rows.items()}
    if order is None or sig is None or not charts:
        raise ParseError("atlas file is missing header data", 0)
    return Atlas(sig, order, charts, pairs, triples, transitions, partition)


def _parse_base_coeff(text, sig, what="coefficient"):
    """A coefficient of the base coordinates (a partition function, a bundle
    entry), under the rule of `_non_base_name`; `what` opens the error."""
    tokens = exprio.Tokenizer(text).tokens
    bad = _non_base_name(tokens, 0, len(tokens), sig)
    if bad:
        raise ParseError("%s names %r, which is not a base coordinate" % (what, bad[0]), bad[1])
    return parse_coeff(text)


# -- splitting results ----------------------------------------------------


class ResultDoc:
    """Parsed form of a serialized splitting result."""

    def __init__(self, order, signature, charts, bundle_lines, embedding, iso, report_lines):
        self.order = order
        self.signature = signature
        self.charts = charts
        self.bundle_lines = bundle_lines
        self.embedding = embedding  # chart -> {base var -> GSeries}
        self.iso = iso              # chart -> Morphism
        self.report_lines = report_lines


def print_bundle(bundle):
    """The body of a result's bundle block: matrix and base-transition lines."""
    lines = []
    for (u, v) in sorted(bundle.matrices):
        per = bundle.matrices[(u, v)]
        for d in sorted(per):
            mat = per[d]
            for i, row in enumerate(mat):
                for j, e in enumerate(row):
                    lines.append("matrix %s %s %s %d %d = %s" % (u, v, d, i, j, print_coeff(e)))
        for bn in bundle.signature.base_names:
            lines.append("base %s %s %s = %s" % (u, v, bn, print_coeff(bundle.base_transitions[(u, v)][bn])))
    return "\n".join(lines)


def print_result(result):
    """Serialize a SplittingResult: bundle, embedding, iso, report blocks."""
    sig = result.atlas.signature
    charts = result.atlas.charts
    lines = ["order %d" % result.atlas.order]
    lines += _block("signature", [print_signature(sig)])
    lines.append("charts %s" % " ".join(charts))
    lines += _block("bundle", print_bundle(result.bundle).splitlines())
    rows = ["%s %s = %s" % (u, bn, print_series(result.family.values[u][bn]))
            for u in charts for bn in sig.base_names]
    lines += _block("embedding", rows)
    for u in charts:
        lines += _block("iso %s" % u, _image_lines(sig, result.iso[u].images))
    rows = ["pass %s" % c.name if c.passed else "fail %s :: %s" % (c.name, c.detail)
            for c in result.report.checks]
    lines += _block("report", rows)
    return "\n".join(lines)


def parse_result(text, path=None):
    """A result file; its bundle rows are kept as written once read."""
    order = None
    sig = None
    charts = []
    bundle = ("bundle", [], [], [])  # an empty block until one is read
    embedding = {}
    iso = {}
    report_lines = []
    keywords = ("order", "signature", "charts", "bundle", "embedding", "iso", "report")
    for block in _sections(text.splitlines(), keywords, "result"):
        kw, fields, body, _ = block
        if kw == "order":
            order = parse_order(fields[0])
        elif kw == "signature":
            sig = parse_signature_lines(body)
        elif kw == "charts":
            charts = fields
        elif kw == "bundle":
            bundle = block
        elif kw == "report":
            report_lines = body
        elif kw == "embedding":
            _after(kw, sig, order)
            rows = _rows(block, "chart name",
                         lambda names, rhs: parse_series(rhs, sig, order), path)
            for (chart, name), s in rows.items():
                embedding.setdefault(chart, {})[name] = s
        else:
            _after(kw, sig, order)
            iso[fields[0]] = Morphism(sig, sig, _parse_images(block, sig, order, path), order)
    if order is None or sig is None or not charts or not iso:
        raise ParseError("result file is missing header or iso data", 0)
    for u in iso:
        if u not in charts:
            raise ParseError("result block `iso %s` names a chart not in `charts %s`"
                             % (u, " ".join(charts)), 0)
    for u in charts:
        if u not in iso:
            raise ParseError("result `charts %s` lists %s, which has no `iso %s` block"
                             % (" ".join(charts), u, u), 0)
    _rows(bundle, None, lambda names, rhs: _parse_base_coeff(rhs, sig), path)
    return ResultDoc(order, sig, charts, bundle[2], embedding, iso, report_lines)
