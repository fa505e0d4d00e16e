"""Atlas gluing validation, partition reduction, bundle extraction."""

import random
from fractions import Fraction

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
    validate_atlas,
)
from z2nsuper.atlas import Report
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


def test_validate_good_atlases():
    for atlas in (atlas_split_two_charts(), atlas_nonsplit_base_twist()):
        report = validate_atlas(atlas)
        assert report.passed, str(report)


def test_validate_catches_missing_reverse(sig1):
    atlas = atlas_split_two_charts()
    del atlas.transitions[("V", "U")]
    report = validate_atlas(atlas)
    assert not report.passed
    assert any("reverse transition not declared" in c.detail for c in report.failures())


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
    bad = [c for c in report.failures() if "inverse-condition" in c.name]
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
    assert any("triple-cocycle" in c.name for c in report.failures())


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


def test_series_is_zero_modulo_partition():
    atlas = atlas_split_two_charts()
    sig = atlas.signature
    s = GSeries.from_coeff(sig, 3, rho("U") + rho("V") - 1)
    assert not s.is_zero()
    assert atlas.reduce_series(s).is_zero()


def test_bundle_round_trip_simple():
    atlas = atlas_split_two_charts()
    bundle = extract_bundle(atlas)
    rebuilt = build_split_model(bundle, atlas.order, partition=atlas.partition)
    assert extract_bundle(rebuilt) == bundle
    # and the split-model atlas of a split atlas is the atlas itself
    for pair, m in atlas.transitions.items():
        assert rebuilt.transitions[pair] == m


def test_build_split_model_rejects_zero_rows(sig1):
    zero = CoeffExpr.rational(0)
    one = CoeffExpr.rational(1)
    bundle = GradedBundleData(sig1, ["U", "V"], [("U", "V")],
                              {("U", "V"): {sig1.degree_of("xi1"): [[one, zero], [zero, zero]]}})
    with pytest.raises(AtlasError):
        build_split_model(bundle, 3)


def test_bundle_base_transitions_default_to_identity(sig1):
    one = CoeffExpr.rational(1)
    d = sig1.degree_of("xi1")
    bundle = GradedBundleData(sig1, ["U", "V"], [("U", "V")],
                              {("U", "V"): {d: [[one, zero_], [zero_, one]]}})
    assert bundle.base_transitions[("U", "V")]["x"] == CoeffExpr.var("x")


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


def test_residual_reads_up_to_the_first_nonzero_value():
    sig = sig_n1()

    def named():
        yield "a", GSeries.zero(sig, 2)
        yield "b", GSeries.generator(sig, "xi1", 2) * 3
        raise AssertionError("read past the first nonzero value")

    report = Report()
    report.residual("zeros", [("a", GSeries.zero(sig, 2))])
    report.residual("family", named())
    assert [(c.name, c.passed, c.detail) for c in report.checks] == [
        ("zeros", True, ""),
        ("family", False, "b: 3 * xi1"),
    ]
