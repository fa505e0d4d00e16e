"""The splitting theorem as a property over random signatures with n <= 4.

Each seed draws a signature by `rand_signature(n_max=4)` with J^2 != 0, two
or three charts and K = 2 or 3, and builds a nonsplit, cocycle-consistent
atlas with the benchmark's generator, `rand_atlas` in bench/gen.py.  `split` must pass, CLI
`verify` must accept the printed result, and one bumped rational numeral in a
row of an `iso`, `embedding` or `bundle` block must make `verify` exit 1.
The overlap mismatch read through the composition R_UV = compose(iso[V], T_UV)
must equal the two-step pullback and the naive one, on the result's isos and
on isos with one extra term.  Over the benchmark's signature, the result at
K truncated to K - 1 must be the result at K - 1 (the J-adic limit).  Two
splittings of one atlas, under its own partition and under the degenerate
one, must differ by an automorphism of the split model.  Over a signature
with two base coordinates, `split` and `verify_result` must pass and a
bumped numeral in an `iso` block must fail `verify_result`.
"""

import importlib.util
import random
import re
from pathlib import Path

import pytest

from z2nsuper import (CoeffExpr, GSeries, Morphism, Signature, compose, invert, split,
                      verify_result)
from z2nsuper.atlas import Atlas
from z2nsuper.cli import main
from z2nsuper.formats import parse_result, print_atlas, print_result
from z2nsuper.morphisms import enumerate_monomials
from z2nsuper.splitting import overlap_mismatch

from conftest import naive_overlap_mismatch, rand_fraction, rand_signature

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
    # J^2 = 0 (one self-odd formal variable) makes every atlas split already
    while not any(sum(mu) == 2 for mu in enumerate_monomials(sig, 2)):
        sig = rand_signature(rng, n_max=4)
    atlas = gen.rand_atlas(rng, rng.choice((2, 3)), rng.choice((2, 3)), seed, sig=sig)
    afile, rfile = tmp_path / "atlas.txt", tmp_path / "result.txt"
    afile.write_text(print_atlas(atlas) + "\n")
    assert main(["split", "--atlas", str(afile), "-o", str(rfile)]) == 0
    assert main(["verify", "--atlas", str(afile), "--result", str(rfile)]) == 0
    assert "[FAIL]" not in capsys.readouterr().out
    text = rfile.read_text()
    assert "consistency after correction" in text
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


# two base coordinates, x and x1, where rand_signature draws one
TWO_BASE = Signature(2, [("x", "00"), ("x1", "00"), ("y", "11"), ("xi", "01"), ("eta", "10")])


@pytest.mark.parametrize("order", (2, 3))
@pytest.mark.parametrize("seed", range(4))
def test_a_split_over_two_base_coordinates_holds_and_verify_catches_a_bumped_numeral(seed, order):
    atlas = gen.rand_atlas(random.Random(seed), 2, order, seed, sig=TWO_BASE)
    result = split(atlas)
    assert result.report.passed, str(result.report)
    assert verify_result(atlas, result.iso).passed
    bumped = bump_first_numeral(print_result(result), "iso ")
    assert not verify_result(atlas, parse_result(bumped).iso).passed


def with_one_more_term(rng, iso, sig, order):
    """The isos with one seeded term added to one image: a rational times a
    base coordinate times a monomial of order 1..K of the image's degree."""
    u = rng.choice(sorted(iso))
    monos = {nm: [mu for mu in enumerate_monomials(sig, order, d) if any(mu)]
             for nm, d in sig.variables()}
    name = rng.choice([nm for nm, ms in monos.items() if ms])
    mu = rng.choice(monos[name])
    coeff = CoeffExpr.var(rng.choice(sig.base_names)) * rand_fraction(rng)
    images = dict(iso[u].images)
    images[name] = images[name] + GSeries.monomial(sig, order, mu, coeff)
    return {**iso, u: Morphism(sig, sig, images, order)}


@pytest.mark.parametrize("seed", range(15))
def test_the_mismatch_through_the_composition_is_the_two_step_and_the_naive_one(seed):
    rng = random.Random(1000 + seed)
    sig = rand_signature(rng, n_max=4)
    order = rng.choice((2, 3))
    atlas = gen.rand_atlas(rng, rng.choice((2, 3)), order, seed, sig=sig)
    clean = split(atlas).iso
    names = sig.base_names + sig.formal_names
    for iso in (clean, with_one_more_term(rng, clean, sig, order)):
        values = {u: {bn: iso[u].images[bn] for bn in sig.base_names} for u in iso}
        lifts = {u: {fa: iso[u].images[fa] for fa in sig.formal_names} for u in iso}
        for u, v in atlas.overlaps:
            t_uv = atlas.transition(u, v)
            composed = overlap_mismatch(atlas, iso[u], (compose(iso[v], t_uv),), (u, v), names)
            assert composed == overlap_mismatch(atlas, iso[u], (iso[v], t_uv), (u, v), names)
            assert composed == naive_overlap_mismatch(atlas, values, lifts, (u, v), order)


@pytest.mark.parametrize("seed", range(12))
def test_the_result_at_k_truncates_to_the_result_at_k_minus_one(seed):
    rng = random.Random(2000 + seed)
    nchart, order = rng.choice(((2, 3), (2, 4), (3, 3)))
    atlas = gen.rand_atlas(rng, nchart, order, seed)
    high, low = split(atlas), split(atlas.truncate(order - 1))
    assert high.report.passed and low.report.passed
    for u in atlas.charts:
        for name, image in high.iso[u].images.items():
            assert image.truncate(order - 1) == low.iso[u].images[name], (u, name)


def intertwines(atlas, model, psi):
    """Whether compose(S_UV, psi_U) == compose(psi_V, S_UV) on every overlap,
    modulo the atlas's partition relation."""
    for u, v in atlas.overlaps:
        s_uv = model.transition(u, v)
        lhs, rhs = compose(s_uv, psi[u]), compose(psi[v], s_uv)
        if any(not atlas.reduce_series(lhs.images[nm] - rhs.images[nm]).is_zero()
               for nm in lhs.images):
            return False
    return True


def control_monomial(sig):
    """An order-3 monomial of the first formal variable's degree, or None."""
    degree = dict(sig.variables())[sig.formal_names[0]]
    return next((mu for mu in enumerate_monomials(sig, 3, degree) if sum(mu) == 3), None)


@pytest.mark.parametrize("seed", range(6))
def test_two_splittings_differ_by_an_automorphism_of_the_split_model(seed):
    # the isomorphism to the split model depends on the partition: with
    # iso_A under the atlas's own partition and iso_B under rho_U0 = 1 and
    # every other rho = 0, psi_U = iso_A[U] o iso_B[U]^-1 commutes with S
    rng = random.Random(3000 + seed)
    sig = gen.SPLIT_SIG if seed < 2 else rand_signature(rng, n_max=4)
    # n = 2 or 3, and an order-3 monomial mu of the first formal variable's
    # degree, for the negative control below (so J^3 is not 0)
    while sig.n not in (2, 3) or not (mu := control_monomial(sig)):
        sig = rand_signature(rng, n_max=4)
    order = 3
    atlas = gen.rand_atlas(rng, rng.choice((2, 3)), order, seed, sig=sig)
    degenerate = {u: CoeffExpr.rational(1 if u == atlas.charts[0] else 0) for u in atlas.charts}
    other = Atlas(sig, order, atlas.charts, atlas.pairs, atlas.triples, atlas.transitions,
                  degenerate)
    a, b = split(atlas), split(other)
    assert a.report.passed and b.report.passed
    inverse_b = {u: invert(b.iso[u]) for u in atlas.charts}
    psi = {u: compose(a.iso[u], inverse_b[u]) for u in atlas.charts}
    assert intertwines(atlas, a.split_atlas, psi)
    assert any(not atlas.reduce_series(image - GSeries.generator(sig, nm, order)).is_zero()
               for u in atlas.charts for nm, image in psi[u].images.items())
    # negative control: x * mu, mu of order 3 and of the degree of the first
    # formal variable, added to that variable's image under iso_A[V]
    v, fa = atlas.charts[1], sig.formal_names[0]
    images = dict(a.iso[v].images)
    images[fa] = images[fa] + GSeries.monomial(sig, order, mu, CoeffExpr.var(sig.base_names[0]))
    psi[v] = compose(Morphism(sig, sig, images, order), inverse_b[v])
    assert not intertwines(atlas, a.split_atlas, psi)
