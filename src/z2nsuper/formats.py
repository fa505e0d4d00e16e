"""Plain-text file formats: signatures, series, morphisms, algebras, atlases.

All formats are line oriented, print canonically, and round-trip bit-exactly
on canonical forms.  Degrees appear verbatim as bit strings ("011"); series
terms are `coeff * var^k var^k ...` joined by `+`.  Series and coefficient
rows are read by `exprio`'s one reader.

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
    report                      data lines, not read

Blank lines and lines starting with `#` are ignored everywhere, inside
blocks too.  Unknown keywords, wrong field counts, blocks with no `end`,
rows without their `=`, repeated rows, repeated header lines, and an
`order` or `n` that is not an integer >= 1 raise `ParseError`; an error
inside a row names the row, its block header, its line and (given) the
file.  A header line is named by its keyword and, for `var`, `pair`,
`triple`, `c`, `transition` and `iso`, by the fields that say what it is
about (`iso U`, `c A B C`); every other keyword may appear once per file.
"""

from __future__ import annotations

from fractions import Fraction

from .atlas import Atlas
from .coeffexpr import CoeffExpr
from .degrees import Degree, Signature
from .exprio import ParseError, check_numerals, parse_coeff, parse_series, positive_int, print_coeff
from .findim import FinDimAlgebra
from .gseries import mono_order
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


def _rows(block, form, parse, path):
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
    order = positive_int(text)
    if order is None:
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
            n = positive_int(fields[0])
            if n is None:
                raise ParseError("`n`, the number of Z2 factors of the grading, must be "
                                 "an integer >= 1, got %r" % fields[0], 0)
        else:
            variables.append((fields[0], Degree.parse(fields[1])))
    if n is None:
        raise ParseError("signature is missing its `n` line", 0)
    return Signature(n, variables)


def parse_signature(text):
    return parse_signature_lines(text.splitlines())


# -- series ---------------------------------------------------------------


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
            lines.append("c %s %s %s %s" % (A.labels[i], A.labels[j], A.labels[k], c))
    return "\n".join(lines)


def parse_algebra(text):
    labels = None
    unit = None
    consts = []
    rationals = {}  # each distinct constant text is parsed once
    for kw, fields, _, _ in _sections(text.splitlines(), ("basis", "unit", "c"), "algebra"):
        if kw == "basis":
            labels = fields
        elif kw == "unit":
            unit = fields[0]
        else:
            q = rationals.get(fields[3])
            try:
                if q is None:
                    q = rationals[fields[3]] = Fraction(fields[3])
            except ZeroDivisionError:
                raise ParseError("algebra line `c %s`: zero denominator in %r"
                                 % (" ".join(fields), fields[3]), 0) from None
            except ValueError:
                check_numerals(fields[3], 0, "in algebra line `c %s ...`" % " ".join(fields[:3]))
                raise ParseError("algebra line `c %s`: %r is not a rational constant"
                                 % (" ".join(fields), fields[3]), 0) from None
            consts.append((fields, q))
    if labels is None or unit is None:
        raise ParseError("algebra file is missing basis or unit", 0)
    idx = {lb: i for i, lb in enumerate(labels)}
    if len(idx) < len(labels):
        repeated = next(lb for i, lb in enumerate(labels) if lb in labels[:i])
        raise ParseError("algebra `basis` repeats the label %r" % repeated, 0)
    table = {}
    for fields, q in consts:
        a, b, c = fields[:3]
        if a in idx and b in idx and c in idx:
            table.setdefault((idx[a], idx[b]), {})[idx[c]] = q
        else:
            _not_a_label(next(lb for lb in fields[:3] if lb not in idx), "c " + " ".join(fields))
    if unit not in idx:
        _not_a_label(unit, "unit " + unit)
    return FinDimAlgebra(labels, idx[unit], table)


def _not_a_label(label, line):
    raise ParseError("algebra line `%s` names %r, not a basis label" % (line, label), 0)


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
            rows = _rows(block, "chart", lambda names, rhs: parse_coeff(
                rhs, sig, "partition row of chart %s" % names[0]), path)
            partition = {u: rho for (u,), rho in rows.items()}
    if order is None or sig is None or not charts:
        raise ParseError("atlas file is missing header data", 0)
    return Atlas(sig, order, charts, pairs, triples, transitions, partition)


# -- splitting results ----------------------------------------------------


class ResultDoc:
    """Parsed form of a serialized splitting result."""

    def __init__(self, order, signature, bundle_lines, embedding, iso):
        self.order = order
        self.signature = signature
        self.bundle_lines = bundle_lines
        self.embedding = embedding  # chart -> {base var -> GSeries}
        self.iso = iso              # chart -> Morphism


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
    rows = ["%s %s = %s" % (u, bn, print_series(result.iso[u].images[bn]))
            for u in charts for bn in sig.base_names]
    lines += _block("embedding", rows)
    for u in charts:
        lines += _block("iso %s" % u, _image_lines(sig, result.iso[u].images))
    rows = ["pass %s" % c.name if c.passed else "fail %s :: %s" % (c.name, c.detail)
            for c in result.report.checks]
    lines += _block("report", rows)
    return "\n".join(lines)


def parse_result(text, path=None):
    """A result file; bundle rows are kept as written once read, and the report is skipped."""
    order = None
    sig = None
    charts = []
    bundle = ("bundle", [], [], [])  # an empty block until one is read
    embedding = {}
    iso = {}
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
        elif kw == "embedding":
            _after(kw, sig, order)
            rows = _rows(block, "chart name",
                         lambda names, rhs: parse_series(rhs, sig, order), path)
            for (chart, name), s in rows.items():
                embedding.setdefault(chart, {})[name] = s
        elif kw == "iso":
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
    _rows(bundle, None, lambda names, rhs: parse_coeff(rhs, sig), path)
    return ResultDoc(order, sig, bundle[2], embedding, iso)
