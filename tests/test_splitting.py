"""The splitting pipeline on split and nonsplit fixtures, with negative controls."""

import pytest

from z2nsuper import (
    CoeffExpr,
    EmbeddingFamily,
    GSeries,
    MissingPartition,
    Morphism,
    cocycle_mismatch,
    split,
    verify_result,
)
from z2nsuper.splitting import (
    build_base_embedding,
    build_module_splitting,
    lift_mismatch,
    solve_coboundary,
)

from conftest import (
    atlas_nonsplit_base_twist,
    atlas_nonsplit_frame_twist,
    atlas_scaled_frame_twist,
    atlas_split_two_charts,
    naive_overlap_mismatch,
    rho,
)

FIXTURES = (atlas_split_two_charts, atlas_nonsplit_base_twist, atlas_nonsplit_frame_twist)


def identity_lifts(atlas, order):
    sig = atlas.signature
    return {u: {fa: GSeries.generator(sig, fa, order) for fa in sig.formal_names}
            for u in atlas.charts}


def test_split_model_atlas_splits_trivially():
    atlas = atlas_split_two_charts()
    result = split(atlas, atlas.order)
    assert result.report.passed, str(result.report)
    ident = Morphism.identity(atlas.signature, atlas.order)
    for u in atlas.charts:
        assert result.iso[u] == ident
    for pair in result.bundle.matrices:
        assert atlas.transitions[pair] == result.split_atlas.transitions[pair]


def test_base_twist_mismatch_is_a_pure_order_two_derivation():
    atlas = atlas_nonsplit_base_twist()
    family = EmbeddingFamily.identity(atlas, 2)
    om = cocycle_mismatch(family, ("U", "V"), 2)
    # phi_U(x) - T_UV* phi_V(x) = -g(x) xi1 xi2 at order 2
    g = CoeffExpr.app("g", [CoeffExpr.var("x")])
    xi12 = GSeries.generator(atlas.signature, "xi1", 2) * \
        GSeries.generator(atlas.signature, "xi2", 2)
    assert om["x"] == -(xi12 * g)
    assert om["x"].j_order() == 2
    assert om["x"].is_homogeneous("0")


def test_frame_twist_lift_mismatch_at_order_two():
    atlas = atlas_nonsplit_frame_twist()
    family = EmbeddingFamily.identity(atlas, 2)
    lifts = identity_lifts(atlas, 2)
    got = {p: {fa: str(s) for fa, s in lift_mismatch(family, lifts, p, 2).items()}
           for p in [("U", "V"), ("V", "U")]}
    assert got == {
        ("U", "V"): {"xi": "h(x) * eta y", "eta": "0", "y": "0"},
        ("V", "U"): {"xi": "(-h(x)) * eta y", "eta": "0", "y": "0"},
    }


@pytest.mark.parametrize("make", FIXTURES)
def test_mismatches_agree_with_the_per_entry_oracle(make):
    atlas = make()
    result = split(atlas, 3)
    data = [
        (EmbeddingFamily.identity(atlas, 2), identity_lifts(atlas, 2), 2),
        (result.family.at_order(2), identity_lifts(atlas, 2), 2),
        (result.family, result.lifts, 3),
    ]
    pairs = [p for p in atlas.transitions if p[0] != p[1]]
    assert pairs
    for family, lifts, k in data:
        for pair in pairs:
            got = {**cocycle_mismatch(family, pair, k), **lift_mismatch(family, lifts, pair, k)}
            assert got == naive_overlap_mismatch(atlas, family.values, lifts, pair, k), pair


def test_mismatches_agree_with_the_oracle_over_a_scaled_base_map():
    # pure order-2 chart data that depends on x, over x -> 2x: the two
    # pullbacks do not commute, so their order shows
    atlas = atlas_scaled_frame_twist()
    sig = atlas.signature
    x, y, xi, eta = (GSeries.generator(sig, nm, 2) for nm in ("x", "y", "xi", "eta"))
    f = {u: CoeffExpr.app("f_" + u, [CoeffExpr.var("x")]) for u in atlas.charts}
    values = {u: {"x": x + y * y * f[u]} for u in atlas.charts}
    lifts = {u: {"xi": xi + y * eta * f[u], "eta": eta, "y": y} for u in atlas.charts}
    family = EmbeddingFamily(atlas, values, 2)
    for pair in [("U", "V"), ("V", "U")]:
        got = {**cocycle_mismatch(family, pair, 2), **lift_mismatch(family, lifts, pair, 2)}
        assert got == naive_overlap_mismatch(atlas, values, lifts, pair, 2)
        assert not got["x"].is_zero() and not got["xi"].is_zero()


def test_coboundary_solves_the_base_twist():
    atlas = atlas_nonsplit_base_twist()
    family = EmbeddingFamily.identity(atlas, 2)
    pairs = [("U", "V"), ("V", "U")]
    omegas = {p: cocycle_mismatch(family, p, 2) for p in pairs}
    etas = solve_coboundary(atlas, omegas, 2)
    corrected = EmbeddingFamily(atlas, {
        u: {bn: s + etas[u][bn] for bn, s in per.items()}
        for u, per in family.values.items()
    }, 2)
    for p in pairs:
        resid = cocycle_mismatch(corrected, p, 2)
        assert all(s.is_zero() for s in resid.values())


def test_coboundary_requires_partition():
    atlas = atlas_nonsplit_base_twist()
    atlas.partition = None
    family = EmbeddingFamily.identity(atlas, 2)
    omegas = {p: cocycle_mismatch(family, p, 2) for p in [("U", "V"), ("V", "U")]}
    with pytest.raises(MissingPartition):
        solve_coboundary(atlas, omegas, 2)


def test_frame_lift_correction_requires_partition():
    # no embedding mismatch here, so only the frame-lift correction needs rho
    atlas = atlas_nonsplit_frame_twist()
    atlas.partition = None
    with pytest.raises(MissingPartition):
        split(atlas, 3)


def test_split_base_twist_fixture():
    atlas = atlas_nonsplit_base_twist()
    result = split(atlas, 3)
    assert result.report.passed, str(result.report)
    # the embedding absorbs the twist: phi_U(x) = x + rho_V g(x) xi1 xi2
    g = CoeffExpr.app("g", [CoeffExpr.var("x")])
    sig = atlas.signature
    xi12 = GSeries.generator(sig, "xi1", 3) * GSeries.generator(sig, "xi2", 3)
    expected = GSeries.generator(sig, "x", 3) + xi12 * (rho("V") * g)
    assert atlas.reduce_series(result.family.values["U"]["x"] - expected).is_zero()


def test_split_frame_twist_fixture():
    atlas = atlas_nonsplit_frame_twist()
    result = split(atlas, 3)
    assert result.report.passed, str(result.report)
    # the frame lift absorbs the twist: lift_U(xi) = xi + rho_V h(x) y eta,
    # the same orientation as the transition's own twist term
    sig = atlas.signature
    h = CoeffExpr.app("h", [CoeffExpr.var("x")])
    yeta = GSeries.generator(sig, "y", 3) * GSeries.generator(sig, "eta", 3)
    expected = GSeries.generator(sig, "xi", 3) + yeta * (rho("V") * h)
    assert atlas.reduce_series(result.lifts["U"]["xi"] - expected).is_zero()


def test_iso_images_stay_homogeneous_and_augmented():
    for make in FIXTURES:
        atlas = make()
        result = split(atlas, 3)
        sig = atlas.signature
        for u in atlas.charts:
            for name, deg in sig.variables():
                assert result.iso[u].images[name].is_homogeneous(deg)
            for bn in sig.base_names:
                assert result.iso[u].images[bn].epsilon() == CoeffExpr.var(bn)


def test_verify_result_accepts_split_output():
    for make in FIXTURES:
        atlas = make()
        result = split(atlas, 3)
        report = verify_result(atlas, result.iso, 3)
        assert report.passed, str(report)


def test_verify_result_negative_control_localizes_corruption():
    atlas = atlas_nonsplit_base_twist()
    result = split(atlas, 3)
    sig = atlas.signature
    # corrupt one correction term in one chart's embedding value
    xi12 = GSeries.generator(sig, "xi1", 3) * GSeries.generator(sig, "xi2", 3)
    bad = dict(result.iso)
    images = dict(bad["U"].images)
    images["x"] = images["x"] + xi12
    bad["U"] = Morphism(sig, sig, images, 3)
    report = verify_result(atlas, bad, 3)
    assert not report.passed
    failures = report.failures()
    # the failure is localized: consistency on pairs involving U, with a
    # residual naming the corrupted coordinate
    assert all("U" in c.name for c in failures if "consistency" in c.name or
               "intertwines" in c.name)
    assert any("x" in c.detail for c in failures if c.detail)
    # the untouched chart still passes its chartwise checks
    assert all(c.passed for c in report.checks if c.name.endswith("on V")
               and "(" not in c.name)


def test_verify_result_negative_control_frame_lift():
    atlas = atlas_nonsplit_frame_twist()
    result = split(atlas, 3)
    sig = atlas.signature
    yeta = GSeries.generator(sig, "y", 3) * GSeries.generator(sig, "eta", 3)
    bad = dict(result.iso)
    images = dict(bad["V"].images)
    images["xi"] = images["xi"] + yeta * 5
    bad["V"] = Morphism(sig, sig, images, 3)
    report = verify_result(atlas, bad, 3)
    assert not report.passed
    assert any("frame-lift" in c.name or "intertwines" in c.name
               for c in report.failures())


def test_stagewise_builders_agree_with_pipeline():
    atlas = atlas_nonsplit_base_twist()
    family, rep1 = build_base_embedding(atlas, 3)
    assert rep1.passed, str(rep1)
    lifts, rep2 = build_module_splitting(atlas, family, 3)
    assert rep2.passed, str(rep2)
    result = split(atlas, 3)
    for u in atlas.charts:
        for bn in atlas.signature.base_names:
            assert family.values[u][bn] == result.family.values[u][bn]
        for fa in atlas.signature.formal_names:
            assert lifts[u][fa] == result.lifts[u][fa]
