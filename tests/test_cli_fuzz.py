"""Mutation fuzz of the CLI's exit-code contract.

A seeded atlas from the benchmark's generator (`rand_atlas` in bench/gen.py)
and its split result are mutated one or two lines at a time: lines dropped,
duplicated or swapped, a chart renamed, two degree strings swapped, a `1`
replaced by `0`, `2`, `1/0`, `-1`, `x` or `xi`, the `order` raised or
lowered, or a token replaced by `(`, `)`, `^` or `end`.  Two mutations
work on the grammar of a row: a term t becomes `(t + name)^k`, with a
formal or undeclared name and k up to 10^5, or a term's coefficient c
becomes `f(c)`.  `atlas-check`, `split` and `verify` then run in process on
the files, and each must return 0, 1 or 2 without raising.  The work of a
round is bounded by a count of the monomial products that `sum_of_products`
takes, at ten times the most that the unmutated files take, not by a timer.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from z2nsuper import atlas as atlas_module
from z2nsuper import coeffexpr, gseries
from z2nsuper.cli import main
from z2nsuper.formats import print_atlas, print_result
from z2nsuper.splitting import split

_GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
_spec = importlib.util.spec_from_file_location("bench_gen", _GEN)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

ROUNDS = 150


def _drop(rng, lines):
    del lines[rng.randrange(len(lines))]


def _duplicate(rng, lines):
    i = rng.randrange(len(lines))
    lines.insert(i, lines[i])


def _swap(rng, lines):
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    lines[i], lines[j] = lines[j], lines[i]


def _rename_chart(rng, lines):
    hits = [i for i, ln in enumerate(lines) if any(t in ("U", "V", "W") for t in ln.split())]
    if hits:
        i = rng.choice(hits)
        tokens = lines[i].split()
        k = rng.choice([k for k, t in enumerate(tokens) if t in ("U", "V", "W")])
        tokens[k] = rng.choice(["U", "V", "W", "Q"])
        lines[i] = " ".join(tokens)


def _swap_degrees(rng, lines):
    hits = [i for i, ln in enumerate(lines) if ln.startswith("var ")]
    if len(hits) >= 2:
        i, j = rng.sample(hits, 2)
        (a, da), (b, db) = lines[i].rsplit(" ", 1), lines[j].rsplit(" ", 1)
        lines[i], lines[j] = "%s %s" % (a, db), "%s %s" % (b, da)


def _replace_one(rng, lines):
    hits = [(i, k) for i, ln in enumerate(lines) for k, ch in enumerate(ln) if ch == "1"]
    if hits:
        i, k = rng.choice(hits)
        ln = lines[i]
        lines[i] = ln[:k] + rng.choice(["0", "2", "1/0", "-1", "x", "xi"]) + ln[k + 1:]


def _shift_order(rng, lines):
    hits = [i for i, ln in enumerate(lines) if ln.startswith("order ")]
    if hits:
        i = rng.choice(hits)
        lines[i] = "order %d" % (int(lines[i].split()[1]) + rng.choice([-1, 1]))


def _replace_token(rng, lines):
    i = rng.randrange(len(lines))
    tokens = lines[i].split()
    if tokens:
        tokens[rng.randrange(len(tokens))] = rng.choice(["(", ")", "^", "end"])
        lines[i] = " ".join(tokens)


def _row_terms(rng, lines):
    """(index, left-hand side, terms) of a random `lhs = rhs` row, with rhs
    cut at each ` + ` outside parentheses; None when no line has one."""
    hits = [i for i, ln in enumerate(lines) if " = " in ln]
    if not hits:
        return None
    i = rng.choice(hits)
    lhs, rhs = lines[i].split(" = ", 1)
    terms = []
    for piece in rhs.split(" + "):
        if terms and terms[-1].count("(") > terms[-1].count(")"):
            terms[-1] += " + " + piece
        else:
            terms.append(piece)
    return i, lhs, terms


def _power_term(rng, lines):
    """A term t becomes `(t + name)^k` for a name that the file's `var`
    lines declare formal, or that no line declares."""
    row = _row_terms(rng, lines)
    if row:
        i, lhs, terms = row
        formal = [f[1] for f in map(str.split, lines)
                  if len(f) == 3 and f[0] == "var" and "1" in f[2]]
        j = rng.randrange(len(terms))
        terms[j] = "(%s + %s)^%d" % (terms[j], rng.choice(formal + ["q"]),
                                     rng.choice((2, 10, 1000, 100_000)))
        lines[i] = "%s = %s" % (lhs, " + ".join(terms))


def _apply_to_coefficient(rng, lines):
    """The coefficient c of a term `c * monomial`, or a whole term, becomes `f(c)`."""
    row = _row_terms(rng, lines)
    if row:
        i, lhs, terms = row
        j = rng.randrange(len(terms))
        coeff, star, monomial = terms[j].partition(" * ")
        terms[j] = "f(%s)%s%s" % (coeff, star, monomial)
        lines[i] = "%s = %s" % (lhs, " + ".join(terms))


MUTATIONS = (_drop, _duplicate, _swap, _rename_chart, _swap_degrees, _replace_one,
             _shift_order, _replace_token, _power_term, _apply_to_coefficient)
# the grammar mutations go last in a round, so that the `var` lines that
# `_power_term` reads are the ones the commands read
GRAMMAR = (_power_term, _apply_to_coefficient)


class WorkExceeded(RuntimeError):
    """A round took more monomial products than the ceiling allows."""


def _count_products(monkeypatch):
    """Patch every binding of `sum_of_products` with one that adds the
    monomial products of each call to work["products"] and raises
    WorkExceeded above work["ceiling"]."""
    work = {"products": 0, "ceiling": None}
    real = coeffexpr.sum_of_products

    def counted(pairs):
        work["products"] += sum(len(a._terms) * len(b._terms) for a, b, _ in pairs)
        if work["ceiling"] is not None and work["products"] > work["ceiling"]:
            raise WorkExceeded("%d monomial products" % work["products"])
        return real(pairs)

    for module in (coeffexpr, gseries, atlas_module):
        monkeypatch.setattr(module, "sum_of_products", counted)
    return work


def _commands(afile, rfile):
    """The argument lists of atlas-check, split and verify on the two files."""
    return (["atlas-check", "--atlas", str(afile)],
            ["split", "--atlas", str(afile)],
            ["verify", "--atlas", str(afile), "--result", str(rfile)])


def test_mutated_files_exit_0_1_or_2(tmp_path, capsys, monkeypatch):
    rng = random.Random(7)
    texts = []
    for slot in range(2):
        atlas = gen.rand_atlas(rng, 2, 2 + slot, slot)
        texts.append((print_atlas(atlas) + "\n", print_result(split(atlas)) + "\n"))
    afile, rfile = tmp_path / "atlas.txt", tmp_path / "result.txt"
    work = _count_products(monkeypatch)
    unmutated = []
    for files in texts:
        afile.write_text(files[0])
        rfile.write_text(files[1])
        work["products"] = 0
        assert [main(argv) for argv in _commands(afile, rfile)] == [0, 0, 0]
        unmutated.append(work["products"])
    capsys.readouterr()
    work["ceiling"] = 10 * max(unmutated)
    codes = set()
    for _ in range(ROUNDS):
        files = list(rng.choice(texts))
        which = rng.randrange(2)
        lines = files[which].splitlines()
        chosen = [rng.choice(MUTATIONS) for _ in range(rng.randint(1, 2))]
        for mutation in sorted(chosen, key=lambda m: m in GRAMMAR):
            mutation(rng, lines)
        files[which] = "\n".join(lines) + "\n"
        afile.write_text(files[0])
        rfile.write_text(files[1])
        work["products"] = 0
        for argv in _commands(afile, rfile):
            code = main(argv)
            assert code in (0, 1, 2), (argv[0], files[which])
            codes.add(code)
        assert "Traceback" not in capsys.readouterr().err
    # the mutations reach every exit code
    assert codes == {0, 1, 2}


def test_the_work_ceiling_stops_a_valid_large_power(tmp_path, monkeypatch):
    # a control for the bound: (x + 1)^500 is valid, under the power cap of
    # exprio, and far more work than the ceiling
    work = _count_products(monkeypatch)
    work["ceiling"] = 10_000
    text = print_atlas(gen.rand_atlas(random.Random(7), 2, 2, 0)).replace(
        "U = rho_U(x)", "U = (x + 1)^500", 1)
    afile = tmp_path / "atlas.txt"
    afile.write_text(text)
    with pytest.raises(WorkExceeded):
        main(["atlas-check", "--atlas", str(afile)])
