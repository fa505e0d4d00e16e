"""Byte-level golden outputs of `split` and `verify` on the splitting
fixtures, and of every demo script.

The files under tests/golden were written by the CLI itself; any change to a
result file or to a report line (names, order, residual text) shows here.  An
intended output change rewrites them from `run_split_verify` and
`verify_corrupted`.  nonsplit_n2_k4_order3.*.txt are `split --order 3` of
the K = 4 atlas and `verify` of that result against it.  tests/golden/demos/<name>.txt is the stdout of
demos/<name>.py.  tests/golden/<name>.atlas.txt is a committed atlas, split
as it stands, so its goldens do not depend on the generator that drew it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from z2nsuper.cli import main
from z2nsuper.formats import print_atlas

from conftest import (
    atlas_nonsplit_base_twist,
    atlas_nonsplit_frame_twist,
    atlas_split_two_charts,
)

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"
FIXTURES = {
    "split_two_charts": atlas_split_two_charts,
    "nonsplit_base_twist": atlas_nonsplit_base_twist,
    "nonsplit_frame_twist": atlas_nonsplit_frame_twist,
}


# committed atlases; `split` corrects the embedding and the frame lift at
# every order 2..K of each:
# - nonsplit_n2_k4: two charts over `x:00 y:11 xi:01 eta:10` at K = 4, glued
#   by T = rand_morphism(random.Random(33), sig_n2(), 4, min_order=2) and
#   invert(T), with partition rho_U, rho_V;
# - nonsplit_3charts_k3: three charts over `x:00 y:11 xi1:01 xi2:01 eta:10`
#   at K = 3, with every pair and triple declared and partition rho_U, rho_V,
#   rho_W.  T_UV and T_UW mix xi1 and xi2 in their rational degree-01 rows
#   and add, per image, one opaque term g_i(x) or h_i(x) of order 2 and one
#   of order 3 (monomials and rational factors drawn from random.Random(20));
#   T_VU and T_WU are their inverses by `invert`, T_VW = compose(T_UW, T_VU)
#   and T_WV = compose(T_UV, T_WU).
ATLASES = ["nonsplit_n2_k4", "nonsplit_3charts_k3"]


def run_split_verify(tmp_path, atlas_text):
    """Write the atlas, split it, verify the result; return both outputs."""
    afile = tmp_path / "atlas.txt"
    afile.write_text(atlas_text)
    rfile, vfile = tmp_path / "result.txt", tmp_path / "verify.txt"
    assert main(["split", "--atlas", str(afile), "-o", str(rfile)]) == 0
    assert main(["verify", "--atlas", str(afile), "--result", str(rfile),
                 "-o", str(vfile)]) == 0
    return rfile.read_bytes(), vfile.read_bytes()


# one edit inside an iso block per fixture: (fixture, block header, old, new)
CORRUPTIONS = {
    "base_twist_iso_U": ("nonsplit_base_twist", "iso U", "rho_U(x)", "2*rho_U(x)"),
    "frame_twist_iso_V": ("nonsplit_frame_twist", "iso V", "h(x)*rho_U(x)", "3*h(x)*rho_U(x)"),
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_split_and_verify_match_golden_bytes(tmp_path, name):
    result, report = run_split_verify(tmp_path, print_atlas(FIXTURES[name](3)) + "\n")
    assert result == (GOLDEN / ("%s.result.txt" % name)).read_bytes()
    assert report == (GOLDEN / ("%s.verify.txt" % name)).read_bytes()


@pytest.mark.parametrize("name", ATLASES)
def test_split_and_verify_of_a_committed_atlas_match_golden_bytes(tmp_path, name):
    atlas_text = (GOLDEN / ("%s.atlas.txt" % name)).read_text()
    result, report = run_split_verify(tmp_path, atlas_text)
    assert result == (GOLDEN / ("%s.result.txt" % name)).read_bytes()
    assert report == (GOLDEN / ("%s.verify.txt" % name)).read_bytes()
    text = result.decode()
    order = int(text.split("\n", 1)[0].split()[1])
    assert all("pass %s order %d: consistency after correction" % (stage, k) in text
               for stage in ("embedding", "frame lift") for k in range(2, order + 1))


def test_split_below_the_atlas_order_and_its_verify_match_golden_bytes(tmp_path):
    # `split --order 3` of the K = 4 atlas, then `verify` of that result
    # against the K = 4 atlas, each run as `python -m z2nsuper.cli`
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    afile = GOLDEN / "nonsplit_n2_k4.atlas.txt"
    rfile, vfile = tmp_path / "result.txt", tmp_path / "verify.txt"
    for argv in (["split", "--atlas", afile, "--order", "3", "-o", rfile],
                 ["verify", "--atlas", afile, "--result", rfile, "-o", vfile]):
        subprocess.run([sys.executable, "-m", "z2nsuper.cli", *map(str, argv)], env=env,
                       check=True)
    assert rfile.read_bytes() == (GOLDEN / "nonsplit_n2_k4_order3.result.txt").read_bytes()
    assert vfile.read_bytes() == (GOLDEN / "nonsplit_n2_k4_order3.verify.txt").read_bytes()


def verify_corrupted(tmp_path, name):
    """Verify a golden result with one iso-block edit; return the report."""
    fixture, block, old, new = CORRUPTIONS[name]
    afile = tmp_path / "atlas.txt"
    afile.write_text(print_atlas(FIXTURES[fixture](3)) + "\n")
    text = (GOLDEN / ("%s.result.txt" % fixture)).read_text()
    head, _, tail = text.partition(block + "\n")
    assert old in tail
    rfile, vfile = tmp_path / "result.txt", tmp_path / "verify.txt"
    rfile.write_text(head + block + "\n" + tail.replace(old, new, 1))
    assert main(["verify", "--atlas", str(afile), "--result", str(rfile),
                 "-o", str(vfile)]) == 1
    return vfile.read_bytes()


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_verify_residuals_match_golden_bytes(tmp_path, name):
    report = verify_corrupted(tmp_path, name)
    assert report == (GOLDEN / ("corrupt_%s.verify.txt" % name)).read_bytes()


@pytest.mark.parametrize("name", sorted(p.stem for p in (ROOT / "demos").glob("*.py")))
def test_demo_output_matches_golden_bytes(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / (name + ".py"))],
                         env=env, capture_output=True, check=True).stdout
    assert out == (GOLDEN / "demos" / (name + ".txt")).read_bytes()
