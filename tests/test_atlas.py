"""Atlas gluing validation, partition reduction, bundle extraction."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from z2nsuper import (
    Atlas,
    AtlasError,
    CoeffExpr,
    GradedBundleData,
    GSeries,
    Morphism,
    build_split_model,
    extract_bundle,
    parse_coeff,
    split,
    validate_atlas,
    verify_result,
)
from z2nsuper.atlas import Report
from z2nsuper.formats import parse_atlas, print_atlas
from z2nsuper.morphisms import _linear_block

from conftest import (
    atlas_nonsplit_base_twist,
    atlas_split_two_charts,
    naive_linear_blocks,
    rand_morphism,
    rand_signature,
    rho,
    sig_n1,
)


def test_truncate_reads_the_atlas_at_a_lower_order():
    text = (Path(__file__).parent / "golden" / "nonsplit_n2_k4.atlas.txt").read_text()
    atlas = parse_atlas(text)
    assert atlas.order == 4
    assert atlas.truncate(4) is atlas
    for k in (3, 1):
        lowered = parse_atlas(text.replace("order 4\n", "order %d\n" % k, 1))
        assert print_atlas(atlas.truncate(k)) == print_atlas(lowered)


def test_atlas_constructor_validation(sig1):
    with pytest.raises(AtlasError):
        Atlas(sig1, 3, ["U"], [("U", "W")], [], {})
    t = Morphism.identity(sig1, 3)
    with pytest.raises(AtlasError):
        Atlas(sig1, 3, ["U", "V"], [], [], {("U", "V"): t})
    with pytest.raises(AtlasError):
        Atlas(sig1, 3, ["U", "V"], [("U", "V")], [], {("U", "V"): t},
              partition={"U": rho("U")})


def test_transition_identity_and_missing(sig1):
    atlas = atlas_split_two_charts()
    assert atlas.transition("U", "U") == Morphism.identity(sig1, 3)
    with pytest.raises(AtlasError):
        atlas.transition("U", "W")


def test_overlaps_are_the_distinct_pairs_with_a_transition_in_transitions_order(sig1):
    t = Morphism.identity(sig1, 3)
    pairs = [("U", "V"), ("U", "U"), ("V", "W"), ("W", "U"), ("V", "U")]
    transitions = {("V", "U"): t, ("U", "U"): t, ("W", "U"): t, ("U", "V"): t}
    atlas = Atlas(sig1, 3, ["U", "V", "W"], pairs, [], transitions)
    assert atlas.overlaps == [("V", "U"), ("W", "U"), ("U", "V")]
    assert extract_bundle(atlas).pairs == atlas.overlaps
    assert Atlas(sig1, 3, ["U"], [], [], {}).overlaps == []


def test_validate_good_atlases():
    for atlas in (atlas_split_two_charts(), atlas_nonsplit_base_twist()):
        report = validate_atlas(atlas)
        assert report.passed, str(report)


def with_self_transitions(atlas, transitions):
    """atlas with each chart's self-transition in `transitions` declared."""
    return Atlas(atlas.signature, atlas.order, atlas.charts, atlas.pairs + list(transitions),
                 atlas.triples, {**atlas.transitions, **transitions}, atlas.partition)


def test_declared_self_transitions_must_be_the_identity(sig1):
    atlas = atlas_nonsplit_base_twist(3)
    gen = {nm: GSeries.generator(sig1, nm, 3) for nm in ("x", "xi1", "xi2")}
    twisted = Morphism(sig1, sig1, {**gen, "x": gen["x"] + gen["xi1"] * gen["xi2"]}, 3)
    both = with_self_transitions(atlas, {("U", "U"): Morphism.identity(sig1, 3),
                                         ("V", "V"): twisted})
    lines = str(validate_atlas(both)).splitlines()
    assert lines[:2] == ["[pass] identity-transition UU",
                         "[FAIL] identity-transition VV: x: xi1 xi2"]
    # the declared identity changes no overlap: split and verify pass, and
    # the isos are those of the atlas without it
    ident = with_self_transitions(atlas, {("U", "U"): Morphism.identity(sig1, 3)})
    assert ident.overlaps == atlas.overlaps
    assert validate_atlas(ident).passed
    result = split(ident)
    assert result.report.passed, str(result.report)
    assert verify_result(ident, result.iso).passed
    assert result.iso == split(atlas).iso


def test_a_triple_that_repeats_a_chart_is_checked_only_by_validation(sig1):
    atlas = atlas_nonsplit_base_twist(3)
    ident = with_self_transitions(atlas, {("U", "U"): Morphism.identity(sig1, 3)})
    repeated = Atlas(sig1, 3, ident.charts, ident.pairs, [("U", "U", "V")], ident.transitions,
                     ident.partition)
    assert "[pass] triple-cocycle U,U,V" in str(validate_atlas(repeated)).splitlines()
    # the self pair carries no cocycle, so the Čech correction skips the
    # triple: its only check in split is the validation's
    result = split(repeated)
    assert result.report.passed, str(result.report)
    assert [c.name for c in result.report.checks if "U,U,V" in c.name] == ["triple-cocycle U,U,V"]
    assert result.iso == split(atlas).iso


def test_validate_catches_missing_reverse(sig1):
    atlas = atlas_split_two_charts()
    del atlas.transitions[("V", "U")]
    report = validate_atlas(atlas)
    assert not report.passed
    assert any("reverse transition not declared" in c.detail
               for c in report.checks if not c.passed)


def test_validate_catches_non_inverse_pair(sig1):
    atlas = atlas_split_two_charts()
    # break the inverse: V -> U should rescale by 1/2, use 1/3 instead
    imgs = {
        "x": GSeries.generator(sig1, "x", 3),
        "xi1": GSeries.generator(sig1, "xi1", 3) * Fraction(1, 3),
        "xi2": GSeries.generator(sig1, "xi2", 3),
    }
    atlas.transitions[("V", "U")] = Morphism(sig1, sig1, imgs, 3)
    report = validate_atlas(atlas)
    assert not report.passed
    bad = [c for c in report.checks if not c.passed and "inverse-condition" in c.name]
    assert bad and bad[0].detail == "xi1: (-1/3) * xi1"


def test_triple_cocycle_three_charts(sig1):
    order = 3

    def scale(c):
        return Morphism(sig1, sig1, {
            "x": GSeries.generator(sig1, "x", order),
            "xi1": GSeries.generator(sig1, "xi1", order) * c,
            "xi2": GSeries.generator(sig1, "xi2", order),
        }, order)

    charts = ["U", "V", "W"]
    pairs = [(u, v) for u in charts for v in charts if u != v]
    transitions = {
        ("U", "V"): scale(2), ("V", "U"): scale(Fraction(1, 2)),
        ("V", "W"): scale(3), ("W", "V"): scale(Fraction(1, 3)),
        ("U", "W"): scale(6), ("W", "U"): scale(Fraction(1, 6)),
    }
    atlas = Atlas(sig_n1(), order, charts, pairs, [("U", "V", "W")], transitions)
    assert validate_atlas(atlas).passed
    atlas.transitions[("U", "W")] = scale(5)
    atlas.transitions[("W", "U")] = scale(Fraction(1, 5))
    report = validate_atlas(atlas)
    assert any("triple-cocycle" in c.name for c in report.checks if not c.passed)


def test_partition_reduce_eliminates_last_chart_symbol():
    atlas = atlas_split_two_charts()
    e = rho("U") + rho("V")  # must reduce to 1
    assert atlas.partition_reduce(e) == CoeffExpr.rational(1)
    # derivatives of the eliminated symbol track the substitution
    d = (rho("U") + rho("V")).diff("x")
    assert atlas.partition_reduce(d).is_zero()


def test_partition_must_sum_to_one(sig1):
    t = Morphism.identity(sig1, 3)
    charts, pairs, transitions = ["U", "V"], [("U", "V")], {("U", "V"): t}
    x = CoeffExpr.var("x")
    for partition in ({"U": rho("U"), "V": rho("V")},
                      {"U": rho("U"), "V": 1 - rho("U")},
                      {"U": x, "V": 1 - x}):
        Atlas(sig1, 3, charts, pairs, [], transitions, partition)
    for partition in ({"U": rho("U"), "V": rho("V") * 2},
                      {"U": rho("U"), "V": rho("U")},
                      {"U": CoeffExpr.rational(Fraction(1, 2)), "V": x}):
        with pytest.raises(AtlasError, match="^partition U = .* not 1$"):
            Atlas(sig1, 3, charts, pairs, [], transitions, partition)


def test_partition_reduce_composed_arguments():
    atlas = atlas_split_two_charts()
    x = CoeffExpr.var("x")
    # rho_V(x) written with derivative index, times a polynomial
    e = CoeffExpr.app("rho_V", [x], alpha=(1,)) * x
    out = atlas.partition_reduce(e)
    # rho_V = 1 - rho_U, so d/dx rho_V = -rho_U'
    assert out == -CoeffExpr.app("rho_U", [x], alpha=(1,)) * x


def test_partition_reduce_rewrites_the_last_rho_inside_an_application():
    atlas = parse_atlas((Path(__file__).parent / "golden" / "nonsplit_3charts_k3.atlas.txt")
                        .read_text())
    assert (atlas.partition_reduce(parse_coeff("g(rho_W(x))"))
            == parse_coeff("g(1 - rho_U(x) - rho_V(x))"))


def test_series_is_zero_modulo_partition():
    atlas = atlas_split_two_charts()
    sig = atlas.signature
    s = GSeries.from_coeff(sig, 3, rho("U") + rho("V") - 1)
    assert not s.is_zero()
    assert atlas.reduce_series(s).is_zero()


def test_bundle_round_trip_simple():
    atlas = atlas_split_two_charts()
    bundle = extract_bundle(atlas)
    rebuilt = build_split_model(bundle, atlas.order)
    assert extract_bundle(rebuilt) == bundle
    # and the split-model atlas of a split atlas is the atlas itself
    for pair, m in atlas.transitions.items():
        assert rebuilt.transitions[pair] == m


def test_a_self_pair_of_a_bundle_is_the_identity_of_its_split_model():
    bundle = extract_bundle(atlas_split_two_charts())
    with_self = GradedBundleData(bundle.signature, bundle.charts, bundle.pairs + [("U", "U")],
                                 bundle.matrices, bundle.base_transitions)
    model = build_split_model(with_self, 3)
    assert model.pairs == with_self.pairs
    assert model.transitions == build_split_model(bundle, 3).transitions
    assert model.transition("U", "U") == Morphism.identity(bundle.signature, 3)


def test_build_split_model_rejects_zero_rows(sig1):
    zero = CoeffExpr.rational(0)
    one = CoeffExpr.rational(1)
    bundle = GradedBundleData(sig1, ["U", "V"], [("U", "V")],
                              {("U", "V"): {sig1.degree_of("xi1"): [[one, zero], [zero, zero]]}},
                              {("U", "V"): {"x": CoeffExpr.var("x")}})
    with pytest.raises(AtlasError):
        build_split_model(bundle, 3)


zero_ = CoeffExpr.rational(0)


def test_extract_bundle_reads_linear_blocks():
    atlas = atlas_nonsplit_base_twist()
    bundle = extract_bundle(atlas)
    d = atlas.signature.degree_of("xi1")
    assert bundle.matrices[("U", "V")][d] == [[CoeffExpr.rational(1), zero_],
                                              [zero_, CoeffExpr.rational(1)]]
    # the base twist lives above the linear level, so the base map is identity
    assert bundle.base_transitions[("U", "V")]["x"] == CoeffExpr.var("x")


def test_linear_blocks_match_the_per_entry_oracle_up_to_n4(rng):
    offdiagonal = 0
    for _ in range(40):
        sig = rand_signature(rng, n_max=4, q_max=6)
        order = rng.randint(1, 3)
        m = rand_morphism(rng, sig, order, max_terms=3)
        atlas = Atlas(sig, order, ["U", "V"], [("U", "V")], [], {("U", "V"): m})
        want = naive_linear_blocks(m)
        bundle = extract_bundle(atlas)
        assert bundle.matrices == {("U", "V"): want}
        assert bundle.base_transitions == {("U", "V"): m.base_map()}
        for d, vs in sig.formal_blocks.items():
            assert _linear_block(m, vs, vs) == want[d]
            offdiagonal += sum(not e.is_zero() for i, row in enumerate(want[d])
                               for j, e in enumerate(row) if i != j)
    assert offdiagonal  # the draws reach entries off the diagonal


def test_equal_subtracts_and_reduces_only_unequal_rows_up_to_the_first_failing_one(
        monkeypatch):
    atlas = atlas_split_two_charts()
    xi = GSeries.generator(atlas.signature, "xi1", 3)
    by_rho_v, by_rho_u = xi * rho("V"), xi * (1 - rho("U"))  # equal modulo the partition
    failing = xi * (rho("V") + CoeffExpr.var("x"))
    want = "c: %s" % atlas.reduce_series(failing - xi)
    assert "rho_V" in str(failing - xi) and "rho_V" not in want
    subtracted, sub = [], GSeries.__sub__

    def spied_sub(lhs, rhs):
        subtracted.append((lhs, rhs))
        return sub(lhs, rhs)

    def rows():
        yield "a", xi, xi * 1
        yield "b", by_rho_v, by_rho_u
        yield "c", failing, xi
        raise AssertionError("read past the first failing row")

    monkeypatch.setattr(GSeries, "__sub__", spied_sub)
    report = Report()
    report.equal("equal", [("a", xi, xi * 1)], atlas.reduce_series)
    assert subtracted == []
    report.equal("rows", rows(), atlas.reduce_series)
    assert subtracted == [(by_rho_v, by_rho_u), (failing, xi)]
    assert [(c.name, c.passed, c.detail) for c in report.checks] == [
        ("equal", True, ""),
        ("rows", False, want),
    ]
