"""CLI subcommands, file plumbing, and exit codes (0 pass, 1 fail, 2 input error)."""

import re
from pathlib import Path

import pytest

from z2nsuper import split
from z2nsuper.cli import INPUT_ERRORS, main
from z2nsuper.formats import (
    parse_morphism,
    parse_result,
    parse_series,
    print_algebra,
    print_atlas,
    print_morphism,
    print_result,
    print_signature,
)
from z2nsuper.findim import quaternion_algebra

from conftest import (
    atlas_nonsplit_base_twist,
    atlas_nonsplit_frame_twist,
    atlas_split_two_charts,
    sig_n2,
    without_partition,
)
from test_morphisms import base_shift_morphism, zero_xi_block_morphism


@pytest.fixture
def sig_file(tmp_path):
    p = tmp_path / "sig.txt"
    p.write_text(print_signature(sig_n2()) + "\n")
    return str(p)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text + "\n")
    return str(p)


def test_normalize(tmp_path, sig_file, capsys):
    # xi (01) and y (11) anticommute, so the commutator is 2 xi y
    series = write(tmp_path, "s.txt", "xi y - y xi + x")
    assert main(["normalize", "--sig", sig_file, "--series", series, "--order", "3"]) == 0
    out = capsys.readouterr().out.strip()
    assert parse_series(out, sig_n2(), 3) == parse_series("x + 2 * xi y", sig_n2(), 3)


def test_normalize_rejects_a_formal_name_inside_a_coefficient(tmp_path, sig_file, capsys):
    series = write(tmp_path, "s.txt", "f(xi) * eta")
    assert main(["normalize", "--sig", sig_file, "--series", series, "--order", "3"]) == 2
    assert "formal variable 'xi'" in capsys.readouterr().err


def test_input_errors_lists_each_error_once():
    assert not [(a, b) for a in INPUT_ERRORS for b in INPUT_ERRORS
                if a is not b and issubclass(a, b)]


def test_mul(tmp_path, sig_file, capsys):
    a = write(tmp_path, "a.txt", "1 + y")
    b = write(tmp_path, "b.txt", "1 - y")
    assert main(["mul", "--sig", sig_file, "--order", "3", a, b]) == 0
    out = capsys.readouterr().out.strip()
    assert parse_series(out, sig_n2(), 3) == parse_series("1 - y^2", sig_n2(), 3)


def test_pullback_and_output_file(tmp_path, capsys):
    m = base_shift_morphism(sig_n2(), 4)
    mfile = write(tmp_path, "m.txt", print_morphism(m))
    sfile = write(tmp_path, "f.txt", "F(x)")
    out = str(tmp_path / "out.txt")
    assert main(["pullback", "--morphism", mfile, "--series", sfile, "-o", out]) == 0
    text = Path(out).read_text().strip()
    got = parse_series(text, sig_n2(), 4)
    expected = parse_series("F(x) + F[1](x) * y^2 + 1/2 * F[2](x) * y^4", sig_n2(), 4)
    assert got == expected


def test_compose_and_invert(tmp_path, capsys):
    m = base_shift_morphism(sig_n2(), 4)
    mfile = write(tmp_path, "m.txt", print_morphism(m))
    inv = str(tmp_path / "inv.txt")
    assert main(["invert", "--morphism", mfile, "-o", inv]) == 0
    out = str(tmp_path / "c.txt")
    assert main(["compose", "--first", mfile, "--second", inv, "-o", out]) == 0
    c = parse_morphism(Path(out).read_text())
    from z2nsuper import Morphism

    assert c == Morphism.identity(sig_n2(), 4)


def test_invert_singular_n2_is_an_input_error(tmp_path, capsys):
    mfile = write(tmp_path, "m.txt", print_morphism(zero_xi_block_morphism(sig_n2(), 3)))
    assert main(["invert", "--morphism", mfile]) == 2
    err = capsys.readouterr().err
    assert "error: linear block of degree 01 is singular" in err
    assert "Traceback" not in err


def test_jacobian_check_blocks(tmp_path, capsys):
    m = base_shift_morphism(sig_n2(), 3)
    mfile = write(tmp_path, "m.txt", print_morphism(m))
    assert main(["jacobian", "--morphism", mfile, "--check-blocks"]) == 0
    out = capsys.readouterr().out
    assert "blocks pass" in out
    assert "d x / d y" in out


def test_template(tmp_path, sig_file, capsys):
    assert main(["template", "--sig", sig_file, "--order", "3"]) == 0
    out = capsys.readouterr().out
    assert "shape x = 1" in out
    assert "shape x = y" in out
    assert "images" in out


def test_check_findim_pass_and_fail(tmp_path, capsys):
    afile = write(tmp_path, "alg.txt", print_algebra(quaternion_algebra()))
    good = write(tmp_path, "good.txt", "one 000\ni 011\nj 101\nk 110")
    bad = write(tmp_path, "bad.txt", "one 000\ni 100\nj 010\nk 110")
    assert main(["check-findim", "--algebra", afile, "--assign", good]) == 0
    assert "result pass" in capsys.readouterr().out
    assert main(["check-findim", "--algebra", afile, "--assign", bad]) == 1
    out = capsys.readouterr().out
    assert "result fail" in out and "violation" in out


# 2x2 upper triangular matrices over the basis I, E11, E12, then over I, E11, I + E12
UNIT_ROWS = ["one one one 1", "one p p 1", "one q q 1", "p one p 1", "q one q 1"]
TRIANGULAR = "basis one p q\nunit one\n" + "\n".join(
    "c " + row for row in UNIT_ROWS + ["p p p 1", "p q q 1"])
TRIANGULAR_SHIFTED = "basis one p q\nunit one\n" + "\n".join(
    "c " + row for row in UNIT_ROWS + ["p p p 1", "p q one -1", "p q p 1", "p q q 1",
                                       "q p p 1", "q q one -1", "q q q 2"])


@pytest.mark.parametrize("algebra, rows, expected", [
    (print_algebra(quaternion_algebra()), "one 000\ni 100\nj 010\nk 110", [
        "violation i i : -1 one vs -1 one",
        "violation i j : 1 k vs -1 k",
        "violation j i : -1 k vs 1 k",
        "violation j j : -1 one vs -1 one",
    ]),
    (TRIANGULAR, "one 0\np 0\nq 1", [
        "violation p q : 1 q vs 0",
        "violation q p : 0 vs 1 q",
    ]),
    (TRIANGULAR_SHIFTED, "one 0\np 0\nq 0", [
        "violation p q : -1 one + 1 p + 1 q vs 1 p",
        "violation q p : 1 p vs -1 one + 1 p + 1 q",
    ]),
], ids=["quaternions", "zero-product", "multi-term"])
def test_check_findim_prints_violations_as_basis_terms(tmp_path, capsys, algebra, rows, expected):
    afile = write(tmp_path, "alg.txt", algebra)
    assign = write(tmp_path, "asg.txt", rows)
    assert main(["check-findim", "--algebra", afile, "--assign", assign]) == 1
    assert capsys.readouterr().out.splitlines() == expected + ["result fail"]


def test_search_degrees(tmp_path, capsys):
    afile = write(tmp_path, "alg.txt", print_algebra(quaternion_algebra()))
    assert main(["search-degrees", "--algebra", afile, "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "count 6" in out
    assert main(["search-degrees", "--algebra", afile, "--n", "1"]) == 0
    assert "count 0" in capsys.readouterr().out


@pytest.mark.parametrize("rows, message", [
    ("one 000\ni 011\nj 101\nk 110\nq 101", "assignment row 'q 101' names 'q', not a basis label"),
    ("one 000\ni 011\ni 011\nj 101\nk 110", "assignment repeats label 'i' in row 'i 011'"),
    ("one 000\ni 011\nj 101", "assignment has no row for label 'k'"),
    ("one 000\ni 011 x\nj 101\nk 110", "expected a `LABEL BITS` row, got 'i 011 x'"),
    ("one 000\ni 011\nj 10\nk 110", "assignment row 'j 10' has 2 bits, but row 'one 000' has 3"),
    ("one 00\ni 011\nj 101\nk 110", "assignment row 'i 011' has 3 bits, but row 'one 00' has 2"),
], ids=["unknown-label", "repeated-label", "missing-label", "three-fields", "mixed-length",
        "mixed-length-unit"])
def test_check_findim_rejects_a_malformed_assignment(tmp_path, capsys, rows, message):
    afile = write(tmp_path, "alg.txt", print_algebra(quaternion_algebra()))
    assign = write(tmp_path, "asg.txt", rows)
    assert main(["check-findim", "--algebra", afile, "--assign", assign]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_search_degrees_rejects_n_below_one(tmp_path, capsys, n):
    afile = write(tmp_path, "alg.txt", print_algebra(quaternion_algebra()))
    assert main(["search-degrees", "--algebra", afile, "--n", n]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: degree search needs n >= 1, got n = %s" % n)
    assert "Traceback" not in err


def test_atlas_check(tmp_path, capsys):
    atlas = atlas_split_two_charts()
    afile = write(tmp_path, "atlas.txt", print_atlas(atlas))
    assert main(["atlas-check", "--atlas", afile]) == 0
    assert "[pass]" in capsys.readouterr().out
    del atlas.transitions[("V", "U")]
    atlas.pairs = [("U", "V")]
    bad = write(tmp_path, "bad.txt", print_atlas(atlas))
    assert main(["atlas-check", "--atlas", bad]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_split_then_verify_round_trip(tmp_path, capsys):
    atlas = atlas_nonsplit_base_twist()
    afile = write(tmp_path, "atlas.txt", print_atlas(atlas))
    rfile = str(tmp_path / "result.txt")
    assert main(["split", "--atlas", afile, "-o", rfile]) == 0
    # verify accepts the split output unmodified
    assert main(["verify", "--atlas", afile, "--result", rfile]) == 0
    assert "[pass]" in capsys.readouterr().out


def test_verify_of_a_result_above_the_atlas_order_is_an_input_error(tmp_path, capsys):
    atlas = atlas_nonsplit_base_twist()
    afile = write(tmp_path, "atlas.txt", print_atlas(atlas))
    text = print_result(split(atlas, 3)).replace("order 3\n", "order 4\n", 1)
    rfile = write(tmp_path, "result.txt", text)
    assert main(["verify", "--atlas", afile, "--result", rfile]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: result %s has `order 4`, above `order 3` of atlas %s"
                          % (rfile, afile))
    assert "Traceback" not in err


def test_verify_names_the_residual_of_a_shifted_base_image(tmp_path):
    atlas = atlas_nonsplit_base_twist()
    afile = write(tmp_path, "atlas.txt", print_atlas(atlas))
    text = print_result(split(atlas, 3))
    assert "\niso U\nx = x + " in text
    rfile = write(tmp_path, "result.txt", text.replace("\niso U\nx = ", "\niso U\nx = 1 + ", 1))
    out = str(tmp_path / "report.txt")
    assert main(["verify", "--atlas", afile, "--result", rfile, "-o", out]) == 1
    assert "[FAIL] epsilon o phi = id on U: x: 1" in Path(out).read_text().splitlines()


def test_split_without_partition_is_an_input_error(tmp_path, capsys):
    atlas = without_partition(atlas_nonsplit_frame_twist())
    afile = write(tmp_path, "atlas.txt", print_atlas(atlas))
    assert "partition" not in Path(afile).read_text()
    assert main(["split", "--atlas", afile]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a partition of unity is required")
    assert "Traceback" not in err


def test_verify_rejects_corrupted_result(tmp_path, capsys):
    atlas = atlas_nonsplit_base_twist()
    afile = write(tmp_path, "atlas.txt", print_atlas(atlas))
    result = split(atlas, 3)
    text = print_result(result)
    # corrupt a correction term inside an iso block (the part verify reads)
    head, _, tail = text.partition("iso U")
    assert "rho_U(x)" in tail
    corrupted = head + "iso U" + tail.replace("rho_U(x)", "2*rho_U(x)", 1)
    assert corrupted != text
    rfile = write(tmp_path, "bad.txt", corrupted)
    assert main(["verify", "--atlas", afile, "--result", rfile]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def _verify_edited(tmp_path, capsys, old, new):
    """Split, replace one line of the result file, then run verify on it."""
    atlas = atlas_nonsplit_base_twist()
    afile = write(tmp_path, "atlas.txt", print_atlas(atlas))
    text = print_result(split(atlas, 3))
    lines = text.splitlines()
    assert lines.count(old) == 1
    lines[lines.index(old)] = new
    rfile = write(tmp_path, "edited.txt", "\n".join(lines))
    code = main(["verify", "--atlas", afile, "--result", rfile])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("old, new, check", [
    ("U x = x + (g(x) - g(x)*rho_U(x)) * xi1 xi2", "U x = x",
     "[FAIL] embedding block matches iso on U: differs on x"),
    ("V x = x + (-g(x)*rho_U(x)) * xi1 xi2", "V x = x + (g(x)*rho_U(x)) * xi1 xi2",
     "[FAIL] embedding block matches iso on V: differs on x"),
    ("matrix U V 1 0 1 = 0", "matrix U V 1 0 1 = 1",
     "[FAIL] bundle block matches the atlas: first difference at bundle line 2"),
    ("base V U x = x", "base V U x = 2*x",
     "[FAIL] bundle block matches the atlas: first difference at bundle line 10"),
], ids=["embedding-U-truncated", "embedding-V-sign", "bundle-matrix", "bundle-base"])
def test_verify_rejects_edited_embedding_and_bundle(tmp_path, capsys, old, new, check):
    code, out = _verify_edited(tmp_path, capsys, old, new)
    assert code == 1
    assert check in out.splitlines()
    # the iso blocks are untouched, so every other check still passes
    assert sum(ln.startswith("[FAIL]") for ln in out.splitlines()) == 1


def test_verify_reads_every_block_of_an_unedited_result(tmp_path, capsys):
    code, out = _verify_edited(tmp_path, capsys, "charts U V", "charts U V")
    assert code == 0
    assert "[pass] embedding block matches iso on U" in out.splitlines()
    assert "[pass] bundle block matches the atlas" in out.splitlines()


@pytest.mark.parametrize("command", ["atlas-check", "split", "verify"])
@pytest.mark.parametrize("row, name", [
    ("V = rho_V(xi1)", "xi1"),
    ("V = rho_V(y)", "y"),
    ("V = xi1", "xi1"),
    ("V = xi1(x)", "xi1"),
    ("V = 1 - y * rho_U(x)", "y"),
], ids=["formal-argument", "undeclared-argument", "formal-row", "formal-function",
        "undeclared-factor"])
def test_partition_row_over_a_non_base_name_is_an_input_error(tmp_path, capsys, command, row,
                                                               name):
    atlas = atlas_nonsplit_base_twist()
    text = print_atlas(atlas)
    edited = text.replace("V = rho_V(x)\n", row + "\n", 1)
    assert edited != text
    afile = write(tmp_path, "atlas.txt", edited)
    rfile = write(tmp_path, "result.txt", print_result(split(atlas, 3)))
    argv = {
        "atlas-check": ["atlas-check", "--atlas", afile],
        "split": ["split", "--atlas", afile],
        "verify": ["verify", "--atlas", afile, "--result", rfile],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: partition row of chart V names %r" % name)
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["atlas-check", "split"])
@pytest.mark.parametrize("row, name", [
    ("x = x + g(y) * xi1 xi2", "y"),
    ("x = x + y * xi1 xi2", "y"),
    ("x = x + g(x, h(y)) * xi1 xi2", "y"),
], ids=["undeclared-argument", "undeclared-factor", "undeclared-nested"])
def test_series_coefficient_over_an_undeclared_name_is_an_input_error(tmp_path, capsys,
                                                                      command, row, name):
    text = print_atlas(atlas_nonsplit_base_twist())
    edited = text.replace("x = x + g(x) * xi1 xi2\n", row + "\n", 1)
    assert edited != text
    assert main([command, "--atlas", write(tmp_path, "atlas.txt", edited)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: coefficient names %r, which is not a base coordinate" % name)
    assert "Traceback" not in err


@pytest.mark.parametrize("kind, old, new, located", [
    ("atlas", "x = x + (-g(x)) * xi1 xi2", "x = x + (-g(y)) * xi1 xi2",
     "in the `x` row of block `transition V U`, line 17"),
    ("atlas", "V = rho_V(x)", "V = rho_V(y)",
     "in the `V` row of block `partition`, line 23"),
    ("result", "x = x + (-g(x)*rho_U(x)) * xi1 xi2", "x = x + (-g(y)*rho_U(x)) * xi1 xi2",
     "in the `x` row of block `iso V`, line 31"),
    ("result", "U x = x + (g(x) - g(x)*rho_U(x)) * xi1 xi2",
     "U x = x + (g(y) - g(x)*rho_U(x)) * xi1 xi2",
     "in the `U x` row of block `embedding`, line 22"),
    ("result", "base U V x = x", "base U V x = g(y)",
     "in the `base U V x` row of block `bundle`, line 14"),
], ids=["transition", "partition", "iso", "embedding", "bundle"])
def test_a_row_error_names_the_file_the_block_the_line_and_the_row(tmp_path, capsys, kind, old,
                                                                   new, located):
    atlas = atlas_nonsplit_base_twist()
    texts = {"atlas": print_atlas(atlas), "result": print_result(split(atlas, 3))}
    lines = texts[kind].splitlines()
    assert lines.count(old) == 1
    lines[lines.index(old)] = new
    texts[kind] = "\n".join(lines)
    afile, rfile = (write(tmp_path, "%s.txt" % k, texts[k]) for k in ("atlas", "result"))
    argv = {"atlas": ["atlas-check", "--atlas", afile],
            "result": ["verify", "--atlas", afile, "--result", rfile]}[kind]
    assert main(argv) == 2
    err = capsys.readouterr().err
    path = {"atlas": afile, "result": rfile}[kind]
    assert re.fullmatch(r"error: .*names 'y', which is not a base coordinate \(at position \d+\), "
                        + re.escape("%s of %s" % (located, path)) + "\n", err), err


@pytest.mark.parametrize("command", ["atlas-check", "split"])
def test_partition_that_does_not_sum_to_one_is_an_input_error(tmp_path, capsys, command):
    text = print_atlas(atlas_nonsplit_base_twist())
    edited = text.replace("V = rho_V(x)\n", "V = 2*rho_V(x)\n", 1)
    assert edited != text
    assert main([command, "--atlas", write(tmp_path, "atlas.txt", edited)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: partition U = rho_U(x), V = 2*rho_V(x) sums to "
                          "rho_U(x) + 2*rho_V(x), not 1")
    assert "Traceback" not in err


def test_input_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    assert main(["normalize", "--sig", missing, "--series", missing, "--order", "2"]) == 2
    garbled = write(tmp_path, "g.txt", "n 2\nvar x 0")
    assert main(["normalize", "--sig", garbled, "--series", garbled, "--order", "2"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def _drop_from(text, line):
    """Cut the file just before `line`'s block ends: the block has no `end`."""
    lines = text.splitlines()
    return "\n".join(lines[:lines.index("end", lines.index(line))])


def _drop_block(text, header):
    """Remove the block that `header` opens, through its `end` line."""
    lines = text.splitlines()
    start = lines.index(header)
    return "\n".join(lines[:start] + lines[lines.index("end", start) + 1:])


def _zeroed_copy_before(text, header):
    """Put a copy of the block `header` opens, with every row set to 0, in front of it."""
    lines = text.splitlines()
    start = lines.index(header)
    rows = lines[start + 1:lines.index("end", start)]
    copy = [header, *(row.partition("=")[0] + "= 0" for row in rows), "end"]
    return "\n".join(lines[:start] + copy + lines[start:])


@pytest.mark.parametrize("kind, edit, message", [
    ("atlas", lambda t: t.replace("order 3\n", "order\n", 1), "`order` takes 1 field"),
    ("morphism", lambda t: t.replace("order 3\n", "order\n", 1), "`order` takes 1 field"),
    ("signature", lambda t: t.replace("n 2\n", "n\n", 1), "`n` takes 1 field"),
    ("atlas", lambda t: t.replace("pair U V\n", "pair U\n", 1), "`pair` takes 2 fields"),
    ("atlas", lambda t: t.replace("transition U V\n", "transition U\n", 1),
     "`transition` takes 2 fields"),
    ("result", lambda t: t.replace("iso U\n", "iso\n", 1), "`iso` takes 1 field"),
    ("algebra", lambda t: t.replace("c one one one 1\n", "c one one\n", 1), "`c` takes 4 fields"),
    ("algebra", lambda t: t.replace("c one one one 1\n", "c one one one 1/0\n", 1),
     "zero denominator in '1/0'"),
    ("atlas", lambda t: _drop_from(t, "transition U V"), "`transition U V` has no `end`"),
    ("morphism", lambda t: t.replace("xi = xi\n", "xi xi\n", 1), "for a new name, got 'xi xi'"),
    ("result", lambda t: t.replace("iso U\n", "iso U\nx = 0\n", 1),
     "expected a `name = ...` row for a new name, got 'x = x"),
    ("result", lambda t: _drop_block(t, "signature"),
     "embedding block before the header lines it needs"),
    ("result", lambda t: _zeroed_copy_before(t, "iso U"), "result file repeats `iso U`"),
    ("atlas", lambda t: _zeroed_copy_before(t, "transition U V"),
     "atlas file repeats `transition U V`"),
    ("atlas", lambda t: t.replace("order 3\n", "order 3\norder 2\n", 1), "atlas file repeats `order`"),
    ("result", lambda t: t.replace("iso V\n", "iso W\n", 1),
     "result block `iso W` names a chart not in `charts U V`"),
    ("result", lambda t: _drop_block(t, "iso V").replace("charts U V\n", "charts U\n", 1),
     "the result has no iso for atlas chart V"),
    ("algebra", lambda t: t.replace("c one one one 1\n", "c one q one 1\n", 1),
     "algebra line `c one q one 1` names 'q', not a basis label"),
    ("atlas", lambda t: t.replace("order 3\n", "order -2\n", 1),
     "the truncation order must be an integer >= 1, got '-2'"),
    ("atlas", lambda t: t.replace("order 3\n", "order x\n", 1),
     "the truncation order must be an integer >= 1, got 'x'"),
    ("morphism", lambda t: t.replace("order 3\n", "order 0\n", 1),
     "the truncation order must be an integer >= 1, got '0'"),
    ("morphism", lambda t: t.replace("order 3\n", "order -1\n", 1),
     "the truncation order must be an integer >= 1, got '-1'"),
    ("result", lambda t: t.replace("order 3\n", "order 0\n", 1),
     "the truncation order must be an integer >= 1, got '0'"),
    ("algebra", lambda t: t.replace("basis one i j k\n", "basis one i i k\n", 1),
     "algebra `basis` repeats the label 'i'"),
    ("algebra", lambda t: t.replace("c one one one 1\n", "c one one one x\n", 1),
     "algebra line `c one one one x`: 'x' is not a rational constant"),
    ("atlas", lambda t: "partition\nU = rho_U(x)\nV = rho_V(x)\nend\n" + _drop_block(t, "partition"),
     "partition block before the header lines it needs"),
], ids=["atlas-order", "morphism-order", "signature-n", "atlas-pair", "atlas-transition",
        "result-iso", "algebra-c", "algebra-c-zero-denominator", "transition-no-end",
        "image-row-no-equals", "image-row-repeated", "result-no-signature",
        "result-iso-repeated", "atlas-transition-repeated", "atlas-order-repeated",
        "result-iso-unknown-chart", "result-iso-missing-atlas-chart", "algebra-c-unknown-label",
        "atlas-order-negative", "atlas-order-not-an-integer", "morphism-order-zero",
        "morphism-order-negative", "result-order-zero", "algebra-basis-repeated",
        "algebra-c-not-rational", "atlas-partition-before-signature"])
def test_malformed_file_is_an_input_error(tmp_path, capsys, kind, edit, message):
    atlas = atlas_nonsplit_base_twist()
    texts = {
        "atlas": print_atlas(atlas),
        "morphism": print_morphism(base_shift_morphism(sig_n2(), 3)),
        "signature": print_signature(sig_n2()),
        "result": print_result(split(atlas, 3)),
        "algebra": print_algebra(quaternion_algebra()),
    }
    afile = write(tmp_path, "atlas.txt", texts["atlas"])
    edited = edit(texts[kind])
    assert edited != texts[kind]
    bad = write(tmp_path, "bad.txt", edited)
    series = write(tmp_path, "s.txt", "x")
    assign = write(tmp_path, "asg.txt", "one 000\ni 011\nj 101\nk 110")
    argv = {
        "atlas": ["atlas-check", "--atlas", bad],
        "morphism": ["invert", "--morphism", bad],
        "signature": ["normalize", "--sig", bad, "--series", series, "--order", "2"],
        "result": ["verify", "--atlas", afile, "--result", bad],
        "algebra": ["check-findim", "--algebra", bad, "--assign", assign],
    }[kind]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, order", [("split", "0"), ("normalize", "-1")])
def test_order_option_below_one_is_an_input_error(tmp_path, sig_file, capsys, command, order):
    afile = write(tmp_path, "atlas.txt", print_atlas(atlas_nonsplit_base_twist(3)))
    series = write(tmp_path, "s.txt", "x")
    argv = {
        "split": ["split", "--atlas", afile],
        "normalize": ["normalize", "--sig", sig_file, "--series", series],
    }[command]
    assert main(argv + ["--order", order]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the truncation order must be an integer >= 1, got %r" % order)
    assert "Traceback" not in err


def test_blank_and_comment_lines_are_ignored_inside_blocks(tmp_path, capsys):
    atlas = atlas_nonsplit_base_twist()
    text = print_result(split(atlas, 3))
    padded = "\n".join("%s\n\n  # note" % ln for ln in text.splitlines())
    afile = write(tmp_path, "atlas.txt", print_atlas(atlas))
    reports = []
    for name, body in (("plain.txt", text), ("padded.txt", padded)):
        rfile = write(tmp_path, name, body)
        assert main(["verify", "--atlas", afile, "--result", rfile]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert "[pass] bundle block matches the atlas" in reports[1].splitlines()
