"""Batch command-line front end.

Exit status: 0 on success/pass, 1 on a verification failure, 2 on input
errors (parse or semantic).
"""

from __future__ import annotations

import argparse
import sys

from . import formats
from .atlas import validate_atlas
from .findim import (
    BudgetExceeded,
    GradingError,
    check_graded_commutative,
    search_degree_assignments,
)
from .morphisms import compose, invert, jacobian, transformation_template
from .splitting import SplittingError, split, verify_result

# ParseError, MorphismError, SignatureMismatch, OrderError and GradingError
# are ValueErrors; MissingPartition is a SplittingError
INPUT_ERRORS = (ValueError, KeyError, OSError, BudgetExceeded, SplittingError)


def _read(path):
    with open(path) as fh:
        return fh.read()


def _order(args):
    """The `--order` value, read like an `order` line; None when not given."""
    return None if args.order is None else formats.parse_order(args.order)


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_normalize(args):
    sig = formats.parse_signature(_read(args.sig))
    s = formats.parse_series(_read(args.series).strip(), sig, _order(args))
    _emit(formats.print_series(s), args.output)
    return 0


def cmd_mul(args):
    sig = formats.parse_signature(_read(args.sig))
    order = _order(args)
    a = formats.parse_series(_read(args.series[0]).strip(), sig, order)
    b = formats.parse_series(_read(args.series[1]).strip(), sig, order)
    _emit(formats.print_series(a * b), args.output)
    return 0


def cmd_pullback(args):
    m = formats.parse_morphism(_read(args.morphism), args.morphism)
    order = _order(args) or m.order
    f = formats.parse_series(_read(args.series).strip(), m.target, order)
    _emit(formats.print_series(m.pullback(f)), args.output)
    return 0


def cmd_compose(args):
    m2 = formats.parse_morphism(_read(args.second), args.second)
    m1 = formats.parse_morphism(_read(args.first), args.first)
    _emit(formats.print_morphism(compose(m2, m1)), args.output)
    return 0


def cmd_invert(args):
    m = formats.parse_morphism(_read(args.morphism), args.morphism)
    _emit(formats.print_morphism(invert(m)), args.output)
    return 0


def cmd_jacobian(args):
    m = formats.parse_morphism(_read(args.morphism), args.morphism)
    jac = jacobian(m)
    lines = []
    for tv in jac.rows:
        for sv in jac.cols:
            lines.append("d %s / d %s = %s" % (tv, sv, formats.print_series(jac.entry(tv, sv))))
    if args.check_blocks:
        bad = jac.block_violations()
        for tv, sv, _ in bad:
            lines.append("block-violation %s %s" % (tv, sv))
        lines.append("blocks %s" % ("pass" if not bad else "fail"))
        _emit("\n".join(lines), args.output)
        return 0 if not bad else 1
    _emit("\n".join(lines), args.output)
    return 0


def cmd_template(args):
    sig = formats.parse_signature(_read(args.sig))
    shapes, m = transformation_template(sig, _order(args))
    lines = []
    for name, _ in sig.variables():
        for mu in shapes[name]:
            lines.append("shape %s = %s" % (name, formats.print_monomial(sig, mu)))
    lines.append("")
    lines.append(formats.print_morphism(m))
    _emit("\n".join(lines), args.output)
    return 0


def cmd_check_findim(args):
    A = formats.parse_algebra(_read(args.algebra))
    assignment = formats.parse_assignment(_read(args.assign), A.labels)
    try:
        ok, violations = check_graded_commutative(A, assignment)
    except GradingError as exc:
        _emit("grading-error %s" % exc, args.output)
        return 1

    def element(vec):
        # `Q LABEL` terms in basis order, `0` for the zero product
        return " + ".join("%s %s" % (vec[k], A.labels[k]) for k in sorted(vec)) or "0"

    lines = []
    for i, j, pij, pji in violations:
        lines.append("violation %s %s : %s vs %s" % (i, j, element(pij), element(pji)))
    lines.append("result %s" % ("pass" if ok else "fail"))
    _emit("\n".join(lines), args.output)
    return 0 if ok else 1


def cmd_search_degrees(args):
    A = formats.parse_algebra(_read(args.algebra))
    found = search_degree_assignments(A, args.n)
    lines = []
    for asg in found:
        lines.append(" ".join("%s:%s" % (lb, asg[lb]) for lb in A.labels))
    lines.append("count %d" % len(found))
    _emit("\n".join(lines), args.output)
    return 0


def cmd_atlas_check(args):
    atlas = formats.parse_atlas(_read(args.atlas), args.atlas)
    report = validate_atlas(atlas)
    _emit(str(report), args.output)
    return 0 if report.passed else 1


def cmd_split(args):
    atlas = formats.parse_atlas(_read(args.atlas), args.atlas)
    order = _order(args)
    if order is not None:
        atlas.order = min(atlas.order, order)
    result = split(atlas, atlas.order)
    _emit(formats.print_result(result), args.output)
    return 0 if result.report.passed else 1


def cmd_verify(args):
    atlas = formats.parse_atlas(_read(args.atlas), args.atlas)
    doc = formats.parse_result(_read(args.result), args.result)
    if doc.order > atlas.order:
        raise SplittingError("result %s has `order %d`, above `order %d` of atlas %s"
                             % (args.result, doc.order, atlas.order, args.atlas))
    report = verify_result(atlas, doc.iso, doc.order,
                           embedding=doc.embedding, bundle_lines=doc.bundle_lines)
    _emit(str(report), args.output)
    return 0 if report.passed else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="z2nsuper",
        description="Symbolic engine for Z2^n-graded commutative algebra and supergeometry",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        sp.add_argument("-o", "--output", default=None, help="write output to a file")
        return sp

    sp = add("normalize", cmd_normalize, help="canonical form of a series")
    sp.add_argument("--sig", required=True)
    sp.add_argument("--series", required=True)
    sp.add_argument("--order", required=True)

    sp = add("mul", cmd_mul, help="product of two series")
    sp.add_argument("--sig", required=True)
    sp.add_argument("--order", required=True)
    sp.add_argument("series", nargs=2)

    sp = add("pullback", cmd_pullback, help="pull a series back through a morphism")
    sp.add_argument("--morphism", required=True)
    sp.add_argument("--series", required=True)
    sp.add_argument("--order", default=None)

    sp = add("compose", cmd_compose, help="compose two morphisms (second after first)")
    sp.add_argument("--first", required=True, help="applied first (its target feeds the second)")
    sp.add_argument("--second", required=True)

    sp = add("invert", cmd_invert, help="formal inverse of a morphism")
    sp.add_argument("--morphism", required=True)

    sp = add("jacobian", cmd_jacobian, help="graded Jacobian of a morphism")
    sp.add_argument("--morphism", required=True)
    sp.add_argument("--check-blocks", action="store_true")

    sp = add("template", cmd_template, help="most general coordinate transformation")
    sp.add_argument("--sig", required=True)
    sp.add_argument("--order", required=True)

    sp = add("check-findim", cmd_check_findim, help="certify a degree assignment")
    sp.add_argument("--algebra", required=True)
    sp.add_argument("--assign", required=True)

    sp = add("search-degrees", cmd_search_degrees, help="search degree assignments")
    sp.add_argument("--algebra", required=True)
    sp.add_argument("--n", type=int, required=True)

    sp = add("atlas-check", cmd_atlas_check, help="validate atlas gluing data")
    sp.add_argument("--atlas", required=True)

    sp = add("split", cmd_split, help="run the full splitting pipeline")
    sp.add_argument("--atlas", required=True)
    sp.add_argument("--order", default=None)

    sp = add("verify", cmd_verify, help="re-check a splitting result against its atlas")
    sp.add_argument("--result", required=True)
    sp.add_argument("--atlas", required=True)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
