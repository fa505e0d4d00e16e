"""Metamorphic relations of `split` on committed atlases: an edit of the
atlas text that leaves the supermanifold the same leaves its isos the same.

- Renaming the charts gives the same isos under the new names.
- Shuffling the `pair` and `triple` lines and the `transition` blocks gives
  equal isos.  The isos are compared as morphisms, not as printed text,
  since the printed result follows the declaration order.
- Swapping the two degree coordinates of an n = 2 atlas gives the same
  isos.  The swap reorders the formal variables, so each iso image is
  printed and read back over the swapped signature; the reader orders the
  factors of a monomial under the sign rule.

Each relation has a negative control: the same edit of an atlas whose
`order` numeral is bumped down by one, which drops the terms of the top
order, must not give the same isos.
"""

import random
import re
from pathlib import Path

import pytest

from z2nsuper.formats import parse_atlas, parse_series, print_series
from z2nsuper.splitting import split

GOLDEN = Path(__file__).parent / "golden"
ATLASES = ["nonsplit_3charts_k3", "nonsplit_n2_k4"]


def isos(text):
    return split(parse_atlas(text)).iso


def atlas_text(name):
    return (GOLDEN / (name + ".atlas.txt")).read_text()


def bump_order(text):
    """The atlas read one order lower: its `order` numeral minus one."""
    return re.sub(r"^order (\d+)$", lambda m: "order %d" % (int(m.group(1)) - 1), text,
                  count=1, flags=re.M)


def rename_charts(text):
    """(text, renaming): the atlas text with its charts renamed C0, C1, ..
    in reverse sorted order of the old names, so that the new names sort the
    other way round; a name inside a longer word (rho_U) is kept."""
    charts = re.search(r"^charts (.*)$", text, re.M).group(1).split()
    new = {u: "C%d" % i for i, u in enumerate(sorted(charts, reverse=True))}
    pattern = r"\b(%s)\b" % "|".join(map(re.escape, charts))
    return re.sub(pattern, lambda m: new[m.group(1)], text), new


def shuffle_declarations(text, rng):
    """The atlas text with its `pair` lines, its `triple` lines and its
    `transition` blocks each shuffled among their own places."""
    items, lines = [], iter(text.splitlines())
    for line in lines:
        if line.startswith("transition "):
            block = [line]
            while block[-1] != "end":
                block.append(next(lines))
            items.append(block)
        else:
            items.append([line])
    for kind in ("pair ", "triple ", "transition "):
        places = [i for i, item in enumerate(items) if item[0].startswith(kind)]
        moved = [items[i] for i in places]
        rng.shuffle(moved)
        for i, item in zip(places, moved):
            items[i] = item
    return "\n".join(line for item in items for line in item) + "\n"


@pytest.mark.parametrize("name", ATLASES)
def test_renaming_the_charts_renames_the_isos(name):
    text = atlas_text(name)
    renamed, new = rename_charts(text)
    want, got = isos(text), isos(renamed)
    assert sorted(got) == sorted(new.values())
    assert all(got[new[u]] == iso for u, iso in want.items())
    # negative control: the renamed atlas one order lower
    lowered = isos(rename_charts(bump_order(text))[0])
    assert not all(lowered[new[u]] == iso for u, iso in want.items())


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ATLASES)
def test_shuffling_the_declarations_keeps_the_isos(name, seed):
    text = atlas_text(name)
    shuffled = shuffle_declarations(text, random.Random(seed))
    assert shuffled != text and sorted(shuffled.splitlines()) == sorted(text.splitlines())
    assert isos(shuffled) == isos(text)
    # negative control: the shuffled atlas one order lower
    assert isos(shuffle_declarations(bump_order(text), random.Random(seed))) != isos(text)


def swap_degree_coordinates(text):
    """The atlas text with the two coordinates of every `var` degree swapped."""
    return re.sub(r"^(var \S+) (\d)(\d)$", r"\1 \3\2", text, flags=re.M)


def test_swapping_the_degree_coordinates_keeps_the_isos():
    text = atlas_text("nonsplit_n2_k4")
    swapped = swap_degree_coordinates(text)
    assert "var xi 10" in swapped and "var eta 01" in swapped
    want, got = isos(text), isos(swapped)
    sig, order = got["U"].source, got["U"].order
    assert sig.formal_names != want["U"].source.formal_names

    def read_back(iso):
        """The isos printed and read over the swapped signature."""
        return {u: {nm: parse_series(print_series(s), sig, order) for nm, s in m.images.items()}
                for u, m in iso.items()}

    assert read_back(want) == {u: m.images for u, m in got.items()}
    # negative control: the swapped atlas one order lower
    lowered = isos(swap_degree_coordinates(bump_order(text)))
    assert read_back(want) != {u: m.images for u, m in lowered.items()}
