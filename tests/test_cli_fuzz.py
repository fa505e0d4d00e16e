"""Mutation fuzz of the CLI's exit-code contract.

A seeded atlas from the benchmark's generator (`rand_atlas` in bench/gen.py)
and its split result are mutated one or two lines at a time: lines dropped,
duplicated or swapped, a chart renamed, two degree strings swapped, a `1`
replaced by `0`, `2`, `1/0`, `-1`, `x` or `xi`, the `order` raised or
lowered, or a token replaced by `(`, `)`, `^` or `end`.  `atlas-check`,
`split` and `verify` then run in process on the files, and each must return
0, 1 or 2 without raising.
"""

import importlib.util
import random
from pathlib import Path

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


MUTATIONS = (_drop, _duplicate, _swap, _rename_chart, _swap_degrees, _replace_one,
             _shift_order, _replace_token)


def test_mutated_files_exit_0_1_or_2(tmp_path, capsys):
    rng = random.Random(7)
    texts = []
    for slot in range(2):
        atlas = gen.rand_atlas(rng, 2, 2 + slot, slot)
        texts.append((print_atlas(atlas) + "\n", print_result(split(atlas, atlas.order)) + "\n"))
    afile, rfile = tmp_path / "atlas.txt", tmp_path / "result.txt"
    codes = set()
    for _ in range(ROUNDS):
        files = list(rng.choice(texts))
        which = rng.randrange(2)
        lines = files[which].splitlines()
        for _ in range(rng.randint(1, 2)):
            rng.choice(MUTATIONS)(rng, lines)
        files[which] = "\n".join(lines) + "\n"
        afile.write_text(files[0])
        rfile.write_text(files[1])
        for argv in (["atlas-check", "--atlas", str(afile)],
                     ["split", "--atlas", str(afile)],
                     ["verify", "--atlas", str(afile), "--result", str(rfile)]):
            code = main(argv)
            assert code in (0, 1, 2), (argv[0], files[which])
            codes.add(code)
        assert "Traceback" not in capsys.readouterr().err
    # the mutations reach every exit code
    assert codes == {0, 1, 2}
