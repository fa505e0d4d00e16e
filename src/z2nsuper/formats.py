"""Plain-text file formats: signatures, series, morphisms, algebras, atlases.

All formats are line oriented, print canonically, and round-trip bit-exactly
on canonical forms.  Degrees appear verbatim as bit strings ("011"); series
terms are `coeff * var^k var^k ...` joined by `+`.
"""

from __future__ import annotations

from fractions import Fraction

from . import exprio
from .coeffexpr import CoeffExpr
from .degrees import Degree, Signature
from .exprio import ParseError, Tokenizer, parse_coeff, print_coeff
from .gseries import GSeries, mono_order
from .morphisms import Morphism


# -- signatures -----------------------------------------------------------


def print_signature(sig, indent=""):
    lines = ["%sn %d" % (indent, sig.n)]
    for name, deg in sig.variables():
        lines.append("%svar %s %s" % (indent, name, deg))
    return "\n".join(lines)


def parse_signature_lines(lines):
    n = None
    variables = []
    for ln in lines:
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if parts[0] == "n":
            n = int(parts[1])
        elif parts[0] == "var":
            if len(parts) != 3:
                raise ParseError("bad var line: %r" % ln, 0)
            variables.append((parts[1], Degree.parse(parts[2])))
        else:
            raise ParseError("unexpected signature line: %r" % ln, 0)
    if n is None:
        raise ParseError("signature is missing its `n` line", 0)
    return Signature(n, variables)


def parse_signature(text):
    return parse_signature_lines(text.splitlines())


# -- series ---------------------------------------------------------------


def parse_series(text, sig, order):
    """Parse the series literal syntax over a known signature."""
    tz = Tokenizer(text)
    out = _parse_series_expr(tz, sig, order)
    if not tz.done():
        tok = tz.peek()
        raise ParseError("trailing input %r" % tok[1], tok[2])
    return out


def _parse_series_expr(tz, sig, order):
    acc = _parse_series_term(tz, sig, order)
    while tz.at_sym("+") or tz.at_sym("-"):
        op = tz.next()[1]
        t = _parse_series_term(tz, sig, order)
        acc = acc + t if op == "+" else acc - t
    return acc


def _parse_series_term(tz, sig, order):
    sign = 1
    while tz.at_sym("-"):
        tz.next()
        sign = -sign
    acc = _parse_series_factor(tz, sig, order)
    while True:
        if tz.at_sym("*"):
            tz.next()
            acc = acc * _parse_series_factor(tz, sig, order)
            continue
        tok = tz.peek()
        if tok[0] in ("num", "name") or (tok[0] == "sym" and tok[1] == "("):
            acc = acc * _parse_series_factor(tz, sig, order)
            continue
        break
    return acc * sign


def _parse_series_factor(tz, sig, order):
    tok = tz.peek()
    if tok[0] == "name" and tok[1] in sig.formal_names and not _looks_like_app(tz):
        tz.next()
        k = 1
        if tz.at_sym("^"):
            tz.next()
            k = int(tz.expect("num")[1])
        return GSeries.generator(sig, tok[1], order) ** k
    e = exprio._parse_factor(tz)
    return GSeries.from_coeff(sig, order, e)


def _looks_like_app(tz):
    nxt = tz.tokens[tz.i + 1] if tz.i + 1 < len(tz.tokens) else None
    return nxt is not None and nxt[0] == "sym" and nxt[1] in ("(", "[")


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
        factors = []
        for name, k in zip(sig.formal_names, mu):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append("%s^%d" % (name, k))
        if not factors:
            pieces.append(cs)
        elif coeff == CoeffExpr.rational(1):
            pieces.append(" ".join(factors))
        else:
            pieces.append("%s * %s" % (cs, " ".join(factors)))
    return " + ".join(pieces)


# -- morphisms ------------------------------------------------------------


def print_morphism(m):
    lines = ["order %d" % m.order, "source"]
    lines.append(print_signature(m.source))
    lines.append("end")
    lines.append("target")
    lines.append(print_signature(m.target))
    lines.append("end")
    lines.append("images")
    for name, _ in m.target.variables():
        lines.append("%s = %s" % (name, print_series(m.images[name])))
    lines.append("end")
    return "\n".join(lines)


def parse_morphism(text):
    lines = text.splitlines()
    order = None
    source = target = None
    images = {}
    i = 0
    while i < len(lines):
        ln = lines[i].strip()
        i += 1
        if not ln or ln.startswith("#"):
            continue
        if ln.startswith("order"):
            order = int(ln.split()[1])
        elif ln in ("source", "target"):
            block = []
            while i < len(lines) and lines[i].strip() != "end":
                block.append(lines[i])
                i += 1
            i += 1
            sig = parse_signature_lines(block)
            if ln == "source":
                source = sig
            else:
                target = sig
        elif ln == "images":
            if source is None or target is None or order is None:
                raise ParseError("images block before header", 0)
            while i < len(lines) and lines[i].strip() != "end":
                row = lines[i].strip()
                i += 1
                if not row or row.startswith("#"):
                    continue
                name, _, rhs = row.partition("=")
                images[name.strip()] = parse_series(rhs.strip(), source, order)
            i += 1
        else:
            raise ParseError("unexpected morphism line: %r" % ln, 0)
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
                % (A.labels[i], A.labels[j], A.labels[k], _frac(c))
            )
    return "\n".join(lines)


def _frac(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def parse_algebra(text):
    from .findim import FinDimAlgebra

    labels = None
    unit = None
    consts = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if parts[0] == "basis":
            labels = parts[1:]
        elif parts[0] == "unit":
            unit = parts[1]
        elif parts[0] == "c":
            consts.append((parts[1], parts[2], parts[3], Fraction(parts[4])))
        else:
            raise ParseError("unexpected algebra line: %r" % ln, 0)
    if labels is None or unit is None:
        raise ParseError("algebra file is missing basis or unit", 0)
    idx = {lb: i for i, lb in enumerate(labels)}
    table = {}
    for a, b, c, q in consts:
        table.setdefault((idx[a], idx[b]), {})[idx[c]] = q
    return FinDimAlgebra(labels, idx[unit], table)


# -- atlases --------------------------------------------------------------


def print_atlas(atlas):
    lines = ["order %d" % atlas.order, "signature"]
    lines.append(print_signature(atlas.signature))
    lines.append("end")
    lines.append("charts %s" % " ".join(atlas.charts))
    for u, v in atlas.pairs:
        lines.append("pair %s %s" % (u, v))
    for u, v, w in atlas.triples:
        lines.append("triple %s %s %s" % (u, v, w))
    for (u, v), m in sorted(atlas.transitions.items()):
        lines.append("transition %s %s" % (u, v))
        for name, _ in atlas.signature.variables():
            lines.append("%s = %s" % (name, print_series(m.images[name])))
        lines.append("end")
    if atlas.partition:
        lines.append("partition")
        for u in atlas.charts:
            lines.append("%s = %s" % (u, print_coeff(atlas.partition[u])))
        lines.append("end")
    return "\n".join(lines)


def parse_atlas(text):
    from .atlas import Atlas

    lines = text.splitlines()
    order = None
    sig = None
    charts = []
    pairs = []
    triples = []
    transitions = {}
    partition = None
    i = 0
    while i < len(lines):
        ln = lines[i].strip()
        i += 1
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if parts[0] == "order":
            order = int(parts[1])
        elif parts[0] == "signature":
            block = []
            while i < len(lines) and lines[i].strip() != "end":
                block.append(lines[i])
                i += 1
            i += 1
            sig = parse_signature_lines(block)
        elif parts[0] == "charts":
            charts = parts[1:]
        elif parts[0] == "pair":
            pairs.append((parts[1], parts[2]))
        elif parts[0] == "triple":
            triples.append((parts[1], parts[2], parts[3]))
        elif parts[0] == "transition":
            if sig is None or order is None:
                raise ParseError("transition block before signature/order", 0)
            u, v = parts[1], parts[2]
            images = {}
            while i < len(lines) and lines[i].strip() != "end":
                row = lines[i].strip()
                i += 1
                if not row or row.startswith("#"):
                    continue
                name, _, rhs = row.partition("=")
                images[name.strip()] = parse_series(rhs.strip(), sig, order)
            i += 1
            transitions[(u, v)] = Morphism(sig, sig, images, order)
        elif parts[0] == "partition":
            partition = {}
            while i < len(lines) and lines[i].strip() != "end":
                row = lines[i].strip()
                i += 1
                if not row or row.startswith("#"):
                    continue
                name, _, rhs = row.partition("=")
                partition[name.strip()] = parse_coeff(rhs.strip())
            i += 1
        else:
            raise ParseError("unexpected atlas line: %r" % ln, 0)
    if order is None or sig is None or not charts:
        raise ParseError("atlas file is missing header data", 0)
    return Atlas(sig, order, charts, pairs, triples, transitions, partition)


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
    lines = ["order %d" % result.atlas.order, "signature"]
    lines.append(print_signature(sig))
    lines.append("end")
    lines.append("charts %s" % " ".join(result.atlas.charts))
    lines.append("bundle")
    lines.extend(print_bundle(result.bundle).splitlines())
    lines.append("end")
    lines.append("embedding")
    for u in result.atlas.charts:
        for bn in sig.base_names:
            lines.append("%s %s = %s" % (u, bn, print_series(result.family.values[u][bn])))
    lines.append("end")
    for u in result.atlas.charts:
        lines.append("iso %s" % u)
        for name, _ in sig.variables():
            lines.append("%s = %s" % (name, print_series(result.iso[u].images[name])))
        lines.append("end")
    lines.append("report")
    for c in result.report.checks:
        if c.passed:
            lines.append("pass %s" % c.name)
        else:
            lines.append("fail %s :: %s" % (c.name, c.detail))
    lines.append("end")
    return "\n".join(lines)


def parse_result(text):
    lines = text.splitlines()
    order = None
    sig = None
    charts = []
    bundle_lines = []
    embedding = {}
    iso = {}
    report_lines = []
    i = 0
    while i < len(lines):
        ln = lines[i].strip()
        i += 1
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if parts[0] == "order":
            order = int(parts[1])
        elif parts[0] == "signature":
            block = []
            while i < len(lines) and lines[i].strip() != "end":
                block.append(lines[i])
                i += 1
            i += 1
            sig = parse_signature_lines(block)
        elif parts[0] == "charts":
            charts = parts[1:]
        elif parts[0] == "bundle":
            while i < len(lines) and lines[i].strip() != "end":
                bundle_lines.append(lines[i].strip())
                i += 1
            i += 1
        elif parts[0] == "embedding":
            while i < len(lines) and lines[i].strip() != "end":
                row = lines[i].strip()
                i += 1
                if not row:
                    continue
                head, _, rhs = row.partition("=")
                chart, name = head.split()
                embedding.setdefault(chart, {})[name] = parse_series(rhs.strip(), sig, order)
            i += 1
        elif parts[0] == "iso":
            chart = parts[1]
            images = {}
            while i < len(lines) and lines[i].strip() != "end":
                row = lines[i].strip()
                i += 1
                if not row:
                    continue
                name, _, rhs = row.partition("=")
                images[name.strip()] = parse_series(rhs.strip(), sig, order)
            i += 1
            iso[chart] = Morphism(sig, sig, images, order)
        elif parts[0] == "report":
            while i < len(lines) and lines[i].strip() != "end":
                report_lines.append(lines[i].strip())
                i += 1
            i += 1
        else:
            raise ParseError("unexpected result line: %r" % ln, 0)
    if order is None or sig is None or not charts or not iso:
        raise ParseError("result file is missing header or iso data", 0)
    return ResultDoc(order, sig, charts, bundle_lines, embedding, iso, report_lines)
