"""CLI subcommands, file plumbing, and exit codes (0 pass, 1 fail, 2 input error)."""

import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from z2nsuper import Morphism, split
from z2nsuper.cli import INPUT_ERRORS, main
from z2nsuper.formats import (
    parse_atlas,
    parse_morphism,
    parse_result,
    parse_series,
    print_algebra,
    print_atlas,
    print_morphism,
    print_result,
    print_signature,
)
from z2nsuper.findim import clifford_algebra, quaternion_algebra

from conftest import (
    atlas_nonsplit_base_twist,
    atlas_nonsplit_frame_twist,
    atlas_split_two_charts,
    sig_n1,
    sig_n2,
    without_partition,
)
from test_exprio import join_digit_chunks
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


def test_normalize_refuses_a_power_above_the_cap_before_computing_it(tmp_path, sig_file, capsys):
    series = write(tmp_path, "s.txt", "(x + 1)^2000 * xi")
    argv = ["normalize", "--sig", sig_file, "--series", series, "--order", "3"]
    times = []
    for _ in range(3):
        start = time.perf_counter()
        assert main(argv) == 2
        times.append(time.perf_counter() - start)
    assert min(times) < 0.010
    assert capsys.readouterr().err == 3 * (
        "error: power ^2000 of a 2-term coefficient can exceed the cap of 1000 terms "
        "(at position 7)\n")


@pytest.mark.parametrize("text, message", [
    ("x^" + "9" * 5000 + " * xi",
     "numeral of 5000 digits exceeds the limit of 4300 digits (at position 2)"),
    ("xi * " + "9" * 4301, "numeral of 4301 digits exceeds the limit of 4300 digits (at position 4)"),
    ("7^4000000 * x * xi",
     "power ^4000000 of a coefficient of 3-bit numbers can exceed the cap of 3000 bits "
     "(at position 1)"),
], ids=["long-exponent", "long-numeral", "constant-power"])
def test_normalize_refuses_a_long_numeral_or_a_large_constant_power_at_its_position(
        tmp_path, sig_file, capsys, text, message):
    series = write(tmp_path, "s.txt", text)
    start = time.perf_counter()
    assert main(["normalize", "--sig", sig_file, "--series", series, "--order", "3"]) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == "error: %s\n" % message


def test_normalize_prints_a_product_of_two_4000_digit_numerals(tmp_path, sig_file, capsys):
    nines = "9" * 4000
    series = write(tmp_path, "s.txt", "%s * %s * x * xi" % (nines, nines))
    assert main(["normalize", "--sig", sig_file, "--series", series, "--order", "2"]) == 0
    out = capsys.readouterr().out
    digits, _, rest = out.partition("*")
    assert rest == "x * xi\n"
    assert join_digit_chunks(digits) == int(nines) ** 2


LONG = "9" * 5000


@pytest.mark.parametrize("kind", ["algebra-constant", "order-line", "order-option", "n-line"])
def test_a_numeral_above_the_digit_limit_is_named_by_its_length(tmp_path, sig_file, capsys,
                                                                kind):
    series = write(tmp_path, "s.txt", "x")
    algebra = print_algebra(quaternion_algebra()).replace(
        "c one one one 1\n", "c one one one %s\n" % LONG, 1)
    atlas = print_atlas(atlas_nonsplit_base_twist()).replace("order 3\n", "order %s\n" % LONG)
    sig = print_signature(sig_n2()).replace("n 2\n", "n %s\n" % LONG)
    asg = write(tmp_path, "asg.txt", "one 000\ni 011\nj 101\nk 110")
    argv, where = {
        "algebra-constant": (["check-findim", "--algebra", write(tmp_path, "alg.txt", algebra),
                              "--assign", asg], ", in algebra line `c one one one ...`"),
        "order-line": (["atlas-check", "--atlas", write(tmp_path, "atlas.txt", atlas)], ""),
        "order-option": (["normalize", "--sig", sig_file, "--series", series, "--order", LONG], ""),
        "n-line": (["normalize", "--sig", write(tmp_path, "sig-long.txt", sig), "--series", series,
                    "--order", "2"], ""),
    }[kind]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: numeral of 5000 digits exceeds the limit of 4300 digits " \
        "(at position 0)%s\n" % where
    assert len(err) < 300


def test_normalize_over_an_n_64_signature_reads_only_the_degrees_present(tmp_path):
    # a signature builds nothing over all 2^n - 1 nonzero degrees; the child
    # runs under a 1 GiB address-space cap, so code that tries ends in a
    # MemoryError rather than taking the machine's memory
    sig = write(tmp_path, "sig.txt", "n 64\nvar x %s\nvar xi %s" % ("0" * 64, "0" * 63 + "1"))
    series = write(tmp_path, "s.txt", "xi * xi + 2 * x * xi")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "z2nsuper.cli", "normalize", "--sig", sig, "--series", series,
         "--order", "2"], env=env, capture_output=True, text=True, timeout=10,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)))
    assert (run.returncode, run.stdout, run.stderr) == (0, "2*x * xi\n", "")


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
    assert c == Morphism.identity(sig_n2(), 4)


def test_invert_singular_n2_is_an_input_error(tmp_path, capsys):
    mfile = write(tmp_path, "m.txt", print_morphism(zero_xi_block_morphism(sig_n2(), 3)))
    assert main(["invert", "--morphism", mfile]) == 2
    err = capsys.readouterr().err
    assert "error: linear block of degree 01 is singular" in err
    assert "Traceback" not in err


def test_jacobian_prints_only_the_entries(tmp_path, capsys):
    m = base_shift_morphism(sig_n2(), 3)
    mfile = write(tmp_path, "m.txt", print_morphism(m))
    assert main(["jacobian", "--morphism", mfile]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out and all(re.fullmatch(r"d \S+ / d \S+ = .+", line) for line in out)
    assert any(line.startswith("d x / d y = ") for line in out)


def test_jacobian_check_blocks_is_a_usage_error(tmp_path, capsys):
    # the Morphism constructor holds every image to its degree, so the block
    # law always held and the flag that checked it is gone
    mfile = write(tmp_path, "m.txt", print_morphism(base_shift_morphism(sig_n2(), 3)))
    with pytest.raises(SystemExit) as exc:
        main(["jacobian", "--morphism", mfile, "--check-blocks"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --check-blocks" in captured.err
    assert "Traceback" not in captured.err


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


def test_check_findim_reports_an_inhomogeneous_assignment(tmp_path, capsys):
    afile = write(tmp_path, "alg.txt", print_algebra(quaternion_algebra()))
    assign = write(tmp_path, "asg.txt", "one 000\ni 011\nj 011\nk 110")
    assert main(["check-findim", "--algebra", afile, "--assign", assign]) == 1
    out = capsys.readouterr().out
    assert out == "grading-error product i*j hits k of degree 110, expected 000\n"


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


def test_search_degrees_counts_the_budget_on_free_labels_only(tmp_path, capsys):
    # Cl(1, 3) at n = 5 tries at most (2^5)^4 mask lists, 2^5 per generator
    afile = write(tmp_path, "alg.txt", print_algebra(clifford_algebra(1, 3)))
    assert main(["search-degrees", "--algebra", afile, "--n", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "count 720"
    assert main(["search-degrees", "--algebra", afile, "--n", "6"]) == 2
    assert capsys.readouterr().err == "error: search space %d exceeds budget 5000000\n" % 2 ** 24


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


@pytest.mark.parametrize("n, message", [
    ("9" * 5000, "numeral of 5000 digits exceeds the limit of 4300 digits (at position 0)"),
    ("-" + "9" * 5000, "numeral of 5000 digits exceeds the limit of 4300 digits (at position 1)"),
    ("two", "degree search needs an integer n, got 'two' (at position 0)"),
])
def test_search_degrees_refuses_a_long_or_non_integer_n_without_echoing_it(tmp_path, capsys,
                                                                          n, message):
    afile = write(tmp_path, "alg.txt", print_algebra(quaternion_algebra()))
    assert main(["search-degrees", "--algebra", afile, "--n", n]) == 2
    err = capsys.readouterr().err
    assert err == "error: %s\n" % message
    assert len(err.encode()) < 200


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
    text = print_result(split(atlas)).replace("order 3\n", "order 4\n", 1)
    rfile = write(tmp_path, "result.txt", text)
    assert main(["verify", "--atlas", afile, "--result", rfile]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: result %s has `order 4`, above `order 3` of atlas %s"
                          % (rfile, afile))
    assert "Traceback" not in err


def test_a_split_below_the_atlas_order_verifies_against_the_atlas(tmp_path, capsys):
    # the K = 4 atlas split modulo J^4: the result reads `order 3`, and `verify`
    # of it against the K = 4 atlas checks modulo J^4 as well
    text = (Path(__file__).parent / "golden" / "nonsplit_n2_k4.atlas.txt").read_text()
    afile = write(tmp_path, "atlas.txt", text)
    result = print_result(split(parse_atlas(text).truncate(3)))
    assert parse_result(result).order == 3
    rfile = write(tmp_path, "result.txt", result)
    assert main(["verify", "--atlas", afile, "--result", rfile]) == 0
    assert "[FAIL]" not in capsys.readouterr().out


def test_split_at_order_one_and_its_verify_pass(tmp_path, capsys):
    afile = str(Path(__file__).parent / "golden" / "nonsplit_n2_k4.atlas.txt")
    rfile = str(tmp_path / "result.txt")
    assert main(["split", "--atlas", afile, "--order", "1", "-o", rfile]) == 0
    text = Path(rfile).read_text()
    assert parse_result(text).order == 1
    report = text.split("\nreport\n", 1)[1].splitlines()[:-1]
    assert report and all(line.startswith("pass ") for line in report)
    assert main(["verify", "--atlas", afile, "--result", rfile]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out and all(line.startswith("[pass] ") for line in out)


def _golden_n2(tmp_path, edit):
    """The committed n = 2 atlas, and its golden result after `edit`."""
    golden = Path(__file__).parent / "golden"
    afile = write(tmp_path, "atlas.txt", (golden / "nonsplit_n2_k4.atlas.txt").read_text())
    text = (golden / "nonsplit_n2_k4.result.txt").read_text()
    edited = edit(text)
    assert edited != text
    return afile, write(tmp_path, "result.txt", edited)


def test_verify_of_a_result_with_a_chart_not_in_the_atlas_is_an_input_error(tmp_path, capsys):
    def add_chart_z(text):
        iso_u = text[text.index("iso U\n"):text.index("end\n", text.index("iso U\n")) + 4]
        text = text.replace("charts U V\n", "charts U V Z\n", 1)
        return text.replace("report\n", iso_u.replace("iso U", "iso Z", 1) + "report\n", 1)

    afile, rfile = _golden_n2(tmp_path, add_chart_z)
    assert main(["verify", "--atlas", afile, "--result", rfile]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the result has an iso for chart Z, which is not in the atlas")
    assert "Traceback" not in err


def test_an_embedding_row_for_a_chart_not_in_the_atlas_fails_verify(tmp_path, capsys):
    golden = Path(__file__).parent / "golden"
    afile = write(tmp_path, "atlas.txt", (golden / "nonsplit_3charts_k3.atlas.txt").read_text())
    text = (golden / "nonsplit_3charts_k3.result.txt").read_text()
    row = next(line for line in text.splitlines() if line.startswith("U x = "))
    rfile = write(tmp_path, "result.txt", text.replace(row, row + "\nZ" + row[1:], 1))
    assert main(["verify", "--atlas", afile, "--result", rfile]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("[FAIL]")] == [
        "[FAIL] embedding block chart Z is in the atlas"]


def test_split_of_an_atlas_whose_nerve_misses_an_overlap_is_an_input_error(tmp_path, capsys):
    # no U-W pairs, transitions or triples: each declared overlap is valid,
    # but the Cech correction of U needs a mismatch on (U, W)
    text = (Path(__file__).parent / "golden" / "nonsplit_3charts_k3.atlas.txt").read_text()
    for u, w in (("U", "W"), ("W", "U")):
        text = text.replace("pair %s %s\n" % (u, w), "", 1)
        start = text.index("transition %s %s\n" % (u, w))
        text = text[:start] + text[text.index("end\n", start) + 4:]
    text = re.sub(r"triple .*\n", "", text)
    assert "U W" not in text and "W U" not in text and "triple" not in text
    afile = write(tmp_path, "atlas.txt", text)
    assert main(["atlas-check", "--atlas", afile]) == 0
    capsys.readouterr()
    assert main(["split", "--atlas", afile]) == 2
    assert capsys.readouterr().err == ("error: no mismatch data for pair (U, W); declare "
                                       "the overlap or a zero cocycle for it\n")


def test_verify_of_a_result_over_another_signature_names_both_files(tmp_path, capsys):
    afile, rfile = _golden_n2(tmp_path, lambda text: re.sub(r"\by\b", "z", text))
    assert main(["verify", "--atlas", afile, "--result", rfile]) == 2
    err = capsys.readouterr().err
    assert err == ("error: result %s is over Signature(n=2; x:00, z:11, xi:01, eta:10), "
                   "atlas %s over Signature(n=2; x:00, y:11, xi:01, eta:10)\n" % (rfile, afile))


def test_a_one_chart_atlas_splits_to_the_identity(tmp_path, capsys):
    afile = write(tmp_path, "atlas.txt", "\n".join([
        "order 3", "signature", print_signature(sig_n2()), "end", "charts U",
    ]))
    rfile = str(tmp_path / "result.txt")
    assert main(["split", "--atlas", afile, "-o", rfile]) == 0
    text = Path(rfile).read_text()
    assert "embedding order" not in text and "frame lift order" not in text
    doc = parse_result(text)
    assert list(doc.iso) == ["U"]
    assert doc.iso["U"] == Morphism.identity(sig_n2(), 3)
    assert main(["verify", "--atlas", afile, "--result", rfile]) == 0
    assert "[FAIL]" not in capsys.readouterr().out


def test_verify_names_the_residual_of_a_shifted_base_image(tmp_path):
    atlas = atlas_nonsplit_base_twist()
    afile = write(tmp_path, "atlas.txt", print_atlas(atlas))
    text = print_result(split(atlas))
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
    result = split(atlas)
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
    text = print_result(split(atlas))
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
    rfile = write(tmp_path, "result.txt", print_result(split(atlas)))
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
    texts = {"atlas": print_atlas(atlas), "result": print_result(split(atlas))}
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
    ("signature", lambda t: t.replace("n 2\n", "n a\n", 1),
     "`n`, the number of Z2 factors of the grading, must be an integer >= 1, got 'a'"),
    ("signature", lambda t: t.replace("n 2\n", "n 0\n", 1),
     "`n`, the number of Z2 factors of the grading, must be an integer >= 1, got '0'"),
    ("atlas", lambda t: t.replace("n 1\n", "n -1\n", 1),
     "`n`, the number of Z2 factors of the grading, must be an integer >= 1, got '-1'"),
    ("morphism", lambda t: _drop_block(t.replace("order 3\n", "", 1), "images"),
     "morphism file is missing header data"),
    ("atlas", lambda t: t.replace("charts U V\n", "", 1), "atlas file is missing header data"),
    ("result", lambda t: t.replace("charts U V\n", "", 1),
     "result file is missing header or iso data"),
    ("result", lambda t: _drop_block(t, "iso V"),
     "result `charts U V` lists V, which has no `iso V` block"),
    ("algebra", lambda t: t.replace("unit one\n", "", 1), "algebra file is missing basis or unit"),
    ("atlas", lambda t: t.replace("U = rho_U(x)\n", "U = rho_U[1]\n", 1),
     "derivative index without argument list"),
    ("algebra", lambda t: t.replace("unit one\n", "unit q\n", 1),
     "algebra line `unit q` names 'q', not a basis label"),
], ids=["atlas-order", "morphism-order", "signature-n", "atlas-pair", "atlas-transition",
        "result-iso", "algebra-c", "algebra-c-zero-denominator", "transition-no-end",
        "image-row-no-equals", "image-row-repeated", "result-no-signature",
        "result-iso-repeated", "atlas-transition-repeated", "atlas-order-repeated",
        "result-iso-unknown-chart", "result-iso-missing-atlas-chart", "algebra-c-unknown-label",
        "atlas-order-negative", "atlas-order-not-an-integer", "morphism-order-zero",
        "morphism-order-negative", "result-order-zero", "algebra-basis-repeated",
        "algebra-c-not-rational", "atlas-partition-before-signature", "signature-n-not-an-integer",
        "signature-n-zero", "atlas-n-negative", "morphism-no-header", "atlas-no-charts",
        "result-no-charts", "result-chart-without-iso", "algebra-no-unit",
        "derivative-index-without-arguments", "algebra-unit-unknown-label"])
def test_malformed_file_is_an_input_error(tmp_path, capsys, kind, edit, message):
    atlas = atlas_nonsplit_base_twist()
    texts = {
        "atlas": print_atlas(atlas),
        "morphism": print_morphism(base_shift_morphism(sig_n2(), 3)),
        "signature": print_signature(sig_n2()),
        "result": print_result(split(atlas)),
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
    text = print_result(split(atlas))
    padded = "\n".join("%s\n\n  # note" % ln for ln in text.splitlines())
    afile = write(tmp_path, "atlas.txt", print_atlas(atlas))
    reports = []
    for name, body in (("plain.txt", text), ("padded.txt", padded)):
        rfile = write(tmp_path, name, body)
        assert main(["verify", "--atlas", afile, "--result", rfile]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert "[pass] bundle block matches the atlas" in reports[1].splitlines()


INVERT_ACROSS_BASES = """order 2
source
n 1
var x 0
var x2 0
var xi 1
end
target
n 1
var t 0
var xi 1
end
images
t = x
xi = xi
end"""


@pytest.mark.parametrize("case", ["unknown-image", "compose-mismatch", "base-not-identity",
                                  "partition-sum"])
def test_refusals_exit_2_with_their_message(tmp_path, capsys, case):
    n1 = print_morphism(Morphism.identity(sig_n1(), 2))
    n2 = print_morphism(Morphism.identity(sig_n2(), 2))
    atlas = (Path(__file__).parent / "golden" / "nonsplit_3charts_k3.atlas.txt").read_text()
    files = {
        "extra": n1.replace("images\n", "images\nz = x\n"),
        "n1": n1,
        "n2": n2,
        "bases": INVERT_ACROSS_BASES,
        "atlas": atlas.replace("W = rho_W(x)", "W = rho_W(2*x)"),
    }
    path = {name: write(tmp_path, name + ".txt", text) for name, text in files.items()}
    argv, message = {
        "unknown-image": (["invert", "--morphism", path["extra"]],
                          "images for unknown variables: ['z']"),
        "compose-mismatch": (["compose", "--first", path["n1"], "--second", path["n2"]],
                             "compose: target of first != source of second"),
        "base-not-identity": (["invert", "--morphism", path["bases"]],
                              "base map is not the coordinate identity; supply base_inverse"),
        "partition-sum": (["atlas-check", "--atlas", path["atlas"]],
                          "partition U = rho_U(x), V = rho_V(x), W = rho_W(2*x) sums to "
                          "rho_U(x) + rho_V(x) + rho_W(2*x), not 1"),
    }[case]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
