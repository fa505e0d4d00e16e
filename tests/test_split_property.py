"""The splitting theorem as a property over random signatures with n <= 4.

Each seed draws a signature by `rand_signature(n_max=4)`, two or three charts
and K = 2 or 3, and builds a nonsplit, cocycle-consistent atlas with the
benchmark's generator, `rand_atlas` in bench/gen.py.  `split` must pass, CLI
`verify` must accept the printed result, and one bumped rational numeral in a
row of an `iso`, `embedding` or `bundle` block must make `verify` exit 1.
"""

import importlib.util
import random
import re
from pathlib import Path

import pytest

from z2nsuper.cli import main
from z2nsuper.formats import print_atlas

from conftest import rand_signature

_GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
_spec = importlib.util.spec_from_file_location("bench_gen", _GEN)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

# a numeral that stands for a rational coefficient: not inside a name, an
# exponent, a derivative index or a denominator (bench/workloads.py reads
# numerals by the same rule), here also at the end of a row
RATIONAL = re.compile(r"(?<![\w\[,^/])(\d+)(?=[*/ )]|$)")


def bump_first_numeral(text, block):
    """The result text with its first rational numeral in a row of a block
    whose header starts with `block` raised by one; None when those rows
    hold no numeral."""
    lines = text.split("\n")
    inside = False
    for i, line in enumerate(lines):
        if line.startswith(block) or line == "end":
            inside = line != "end"
            continue
        name, _, rhs = line.partition(" = ")
        m = RATIONAL.search(rhs) if inside else None
        if m:
            lines[i] = "%s = %s%d%s" % (name, rhs[:m.start()], int(m.group(1)) + 1, rhs[m.end():])
            return "\n".join(lines)
    return None


@pytest.mark.parametrize("seed", range(20))
def test_split_and_verify_hold_and_verify_catches_a_bumped_numeral(tmp_path, capsys, seed):
    rng = random.Random(seed)
    sig = rand_signature(rng, n_max=4)
    atlas = gen.rand_atlas(rng, rng.choice((2, 3)), rng.choice((2, 3)), seed, sig=sig)
    afile, rfile = tmp_path / "atlas.txt", tmp_path / "result.txt"
    afile.write_text(print_atlas(atlas) + "\n")
    assert main(["split", "--atlas", str(afile), "-o", str(rfile)]) == 0
    assert main(["verify", "--atlas", str(afile), "--result", str(rfile)]) == 0
    assert "[FAIL]" not in capsys.readouterr().out
    text = rfile.read_text()
    bumped = {block: bump_first_numeral(text, block) for block in ("iso ", "embedding", "bundle")}
    # the bundle block opens with a row of a nonzero matrix entry
    assert bumped["bundle"] is not None
    for block, edited in bumped.items():
        if edited is None:
            continue
        bad = tmp_path / "bad.txt"
        bad.write_text(edited)
        assert main(["verify", "--atlas", str(afile), "--result", str(bad)]) == 1, block
        assert "[FAIL]" in capsys.readouterr().out
