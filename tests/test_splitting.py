"""The splitting pipeline on split and nonsplit fixtures, with negative controls."""

import random
from pathlib import Path

import pytest

from z2nsuper import (
    Atlas,
    AtlasError,
    CoeffExpr,
    EmbeddingFamily,
    GSeries,
    MissingPartition,
    Morphism,
    Signature,
    SplittingError,
    cocycle_mismatch,
    compose,
    split,
    verify_result,
)
from z2nsuper import splitting
from z2nsuper.atlas import Report
from z2nsuper.formats import parse_atlas, parse_series
from z2nsuper.splitting import (
    build_base_embedding,
    build_module_splitting,
    check_cech,
    lift_mismatch,
    solve_coboundary,
    verify_iso,
)

from conftest import (
    atlas_nonsplit_base_twist,
    atlas_nonsplit_frame_twist,
    atlas_scaled_frame_twist,
    atlas_split_two_charts,
    naive_overlap_mismatch,
    naive_pullback,
    rand_morphism,
    rand_opaque_coeff,
    rand_poly,
    rand_signature,
    rho,
    without_partition,
)

FIXTURES = (atlas_split_two_charts, atlas_nonsplit_base_twist, atlas_nonsplit_frame_twist)
GOLDEN = Path(__file__).parent / "golden"


def with_etas(images, etas):
    """chart -> {var -> GSeries}: the images with each chart's eta added on
    the variables it names."""
    return {u: {**per, **{nm: per[nm] + eta for nm, eta in etas[u].items()}}
            for u, per in images.items()}


def test_split_model_atlas_splits_trivially():
    atlas = atlas_split_two_charts()
    result = split(atlas)
    assert result.report.passed, str(result.report)
    ident = Morphism.identity(atlas.signature, atlas.order)
    for u in atlas.charts:
        assert result.iso[u] == ident
    for pair in result.bundle.matrices:
        assert atlas.transitions[pair] == result.split_atlas.transitions[pair]


def test_embedding_apply_is_the_pullback_through_the_chart_morphism_up_to_n4():
    rng = random.Random(45)
    shifted = 0
    for _ in range(30):
        sig = rand_signature(rng, n_max=4, q_max=4, nbase=rng.randint(1, 2))
        order = rng.randint(1, 4)
        atlas = Atlas(sig, order, ["U", "V"], [], [], {})
        images = {u: {**{bn: rand_morphism(rng, sig, order, max_terms=4).images[bn]
                         for bn in sig.base_names},
                      **{fa: GSeries.generator(sig, fa, order) for fa in sig.formal_names}}
                  for u in atlas.charts}
        family = EmbeddingFamily(atlas, images, order)
        for u in atlas.charts:
            c = rng.choice([rand_poly, rand_opaque_coeff])(rng, sig.base_names)
            f = GSeries.from_coeff(sig, order, c)
            got = family.apply(u, c)
            assert got == naive_pullback(family.as_morphism(u), f)
            shifted += got != f
    assert shifted >= 15


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
    got = {p: {fa: str(s) for fa, s in lift_mismatch(family, p, 2).items()}
           for p in [("U", "V"), ("V", "U")]}
    assert got == {
        ("U", "V"): {"xi": "h(x) * eta y", "eta": "0", "y": "0"},
        ("V", "U"): {"xi": "(-h(x)) * eta y", "eta": "0", "y": "0"},
    }


@pytest.mark.parametrize("make", FIXTURES)
def test_mismatches_agree_with_the_per_entry_oracle(make):
    atlas = make()
    embedding = build_base_embedding(atlas, Report())
    family3, _ = build_module_splitting(atlas, embedding, Report())
    data = [
        (EmbeddingFamily.identity(atlas, 2), 2),
        (EmbeddingFamily(atlas, embedding.images, 2), 2),
        (family3, 3),
    ]
    pairs = atlas.overlaps
    assert pairs
    for family, k in data:
        for pair in pairs:
            got = {**cocycle_mismatch(family, pair, k), **lift_mismatch(family, pair, k)}
            assert got == naive_overlap_mismatch(atlas, family.images, pair, k), pair


def test_mismatches_agree_with_the_oracle_over_a_scaled_base_map():
    # pure order-2 chart data that depends on x, over x -> 2x: the two
    # pullbacks do not commute, so their order shows
    atlas = atlas_scaled_frame_twist()
    sig = atlas.signature
    x, y, xi, eta = (GSeries.generator(sig, nm, 2) for nm in ("x", "y", "xi", "eta"))
    f = {u: CoeffExpr.app("f_" + u, [CoeffExpr.var("x")]) for u in atlas.charts}
    images = {u: {"x": x + y * y * f[u], "xi": xi + y * eta * f[u], "eta": eta, "y": y}
              for u in atlas.charts}
    family = EmbeddingFamily(atlas, images, 2)
    for pair in [("U", "V"), ("V", "U")]:
        got = {**cocycle_mismatch(family, pair, 2), **lift_mismatch(family, pair, 2)}
        assert got == naive_overlap_mismatch(atlas, images, pair, 2)
        assert not got["x"].is_zero() and not got["xi"].is_zero()


def test_coboundary_solves_the_base_twist():
    atlas = atlas_nonsplit_base_twist()
    family = EmbeddingFamily.identity(atlas, 2)
    pairs = [("U", "V"), ("V", "U")]
    omegas = {p: cocycle_mismatch(family, p, 2) for p in pairs}
    etas = solve_coboundary(atlas, omegas, 2)
    corrected = EmbeddingFamily(atlas, with_etas(family.images, etas), 2)
    for p in pairs:
        resid = cocycle_mismatch(corrected, p, 2)
        assert all(s.is_zero() for s in resid.values())


def test_coboundary_requires_partition():
    atlas = without_partition(atlas_nonsplit_base_twist())
    family = EmbeddingFamily.identity(atlas, 2)
    omegas = {p: cocycle_mismatch(family, p, 2) for p in [("U", "V"), ("V", "U")]}
    with pytest.raises(MissingPartition):
        solve_coboundary(atlas, omegas, 2)


def test_frame_lift_correction_requires_partition():
    # no embedding mismatch here, so only the frame-lift correction needs rho
    atlas = without_partition(atlas_nonsplit_frame_twist())
    with pytest.raises(MissingPartition):
        split(atlas)


def test_split_base_twist_fixture():
    atlas = atlas_nonsplit_base_twist()
    result = split(atlas)
    assert result.report.passed, str(result.report)
    # the embedding absorbs the twist: phi_U(x) = x + rho_V g(x) xi1 xi2
    g = CoeffExpr.app("g", [CoeffExpr.var("x")])
    sig = atlas.signature
    xi12 = GSeries.generator(sig, "xi1", 3) * GSeries.generator(sig, "xi2", 3)
    expected = GSeries.generator(sig, "x", 3) + xi12 * (rho("V") * g)
    assert atlas.reduce_series(result.iso["U"].images["x"] - expected).is_zero()


def test_split_frame_twist_fixture():
    atlas = atlas_nonsplit_frame_twist()
    result = split(atlas)
    assert result.report.passed, str(result.report)
    # the frame lift absorbs the twist: lift_U(xi) = xi + rho_V h(x) y eta,
    # the same orientation as the transition's own twist term
    sig = atlas.signature
    h = CoeffExpr.app("h", [CoeffExpr.var("x")])
    yeta = GSeries.generator(sig, "y", 3) * GSeries.generator(sig, "eta", 3)
    expected = GSeries.generator(sig, "xi", 3) + yeta * (rho("V") * h)
    assert atlas.reduce_series(result.iso["U"].images["xi"] - expected).is_zero()


def test_iso_images_stay_homogeneous_and_augmented():
    for make in FIXTURES:
        atlas = make()
        result = split(atlas)
        sig = atlas.signature
        for u in atlas.charts:
            for name, deg in sig.variables():
                assert result.iso[u].images[name].is_homogeneous(deg)
            for bn in sig.base_names:
                assert result.iso[u].images[bn].epsilon() == CoeffExpr.var(bn)


def test_verify_result_accepts_split_output():
    for make in FIXTURES:
        atlas = make()
        result = split(atlas)
        report = verify_result(atlas, result.iso)
        assert report.passed, str(report)


def test_verify_result_negative_control_localizes_corruption():
    atlas = atlas_nonsplit_base_twist()
    result = split(atlas)
    sig = atlas.signature
    # corrupt one correction term in one chart's embedding value
    xi12 = GSeries.generator(sig, "xi1", 3) * GSeries.generator(sig, "xi2", 3)
    bad = dict(result.iso)
    images = dict(bad["U"].images)
    images["x"] = images["x"] + xi12
    bad["U"] = Morphism(sig, sig, images, 3)
    report = verify_result(atlas, bad)
    assert not report.passed
    failures = [c for c in report.checks if not c.passed]
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
    result = split(atlas)
    sig = atlas.signature
    yeta = GSeries.generator(sig, "y", 3) * GSeries.generator(sig, "eta", 3)
    bad = dict(result.iso)
    images = dict(bad["V"].images)
    images["xi"] = images["xi"] + yeta * 5
    bad["V"] = Morphism(sig, sig, images, 3)
    report = verify_result(atlas, bad)
    assert not report.passed
    assert any("frame-lift" in c.name or "intertwines" in c.name
               for c in report.checks if not c.passed)


def test_stagewise_builders_agree_with_pipeline():
    atlas = atlas_nonsplit_base_twist()
    rep1, rep2 = Report(), Report()
    family = build_base_embedding(atlas, rep1)
    assert rep1.passed, str(rep1)
    lifted, composed = build_module_splitting(atlas, family, rep2)
    assert rep2.passed, str(rep2)
    result = split(atlas)
    for u in atlas.charts:
        for bn in atlas.signature.base_names:
            assert family.images[u][bn] == result.iso[u].images[bn]
        for fa in atlas.signature.formal_names:
            assert lifted.images[u][fa] == result.iso[u].images[fa]
    # the returned compositions are those of the returned family
    assert set(composed) == set(atlas.overlaps)
    for (u, v), r_uv in composed.items():
        assert r_uv == compose(result.iso[v], atlas.transition(u, v))


def test_failing_coboundary_check_names_its_residual():
    atlas = atlas_nonsplit_base_twist(order=2)
    family = EmbeddingFamily.identity(atlas, 2)
    omegas = {pair: cocycle_mismatch(family, pair, 2) for pair in [("U", "V"), ("V", "U")]}
    etas = solve_coboundary(atlas, omegas, 2)
    report = Report()
    check_cech(atlas, omegas, etas, 2, report, "t")
    assert report.passed
    sig = atlas.signature
    xi12 = GSeries.generator(sig, "xi1", 2) * GSeries.generator(sig, "xi2", 2)
    etas["U"]["x"] = etas["U"]["x"] + xi12
    report = Report()
    check_cech(atlas, omegas, etas, 2, report, "t")
    check = {c.name: c for c in report.checks}["t coboundary UV"]
    assert not check.passed
    assert check.detail.startswith("x: ")


def test_stage_one_cech_lines_fail_on_a_bent_cocycle():
    # the antisymmetry and triple-cocycle lines hold on every consistent
    # atlas; a cocycle bent on one entry of one pair fails exactly the lines
    # that read it, directly or through the coboundary solved from it
    atlas = parse_atlas((GOLDEN / "nonsplit_3charts_k3.atlas.txt").read_text())
    family = EmbeddingFamily.identity(atlas, 2)
    omegas = {pair: cocycle_mismatch(family, pair, 2) for pair in atlas.overlaps}

    def failing(omegas):
        report = Report()
        check_cech(atlas, omegas, solve_coboundary(atlas, omegas, 2), 2, report, "t")
        assert len(report.checks) == 18
        return {c.name for c in report.checks if not c.passed}

    assert failing(omegas) == set()
    sig = atlas.signature
    xi12 = GSeries.generator(sig, "xi1", 2) * GSeries.generator(sig, "xi2", 2)
    uv = omegas[("U", "V")]
    assert failing({**omegas, ("U", "V"): {**uv, "x": uv["x"] + xi12}}) == {
        "t antisymmetry UV", "t antisymmetry VU",
        "t triple-cocycle U,V,W", "t triple-cocycle U,W,V", "t triple-cocycle W,U,V",
        "t coboundary UV", "t coboundary UW", "t coboundary VU", "t coboundary WU",
    }


@pytest.mark.parametrize("a, b, invertible", [
    ("a + b", "a + b", False),  # singular, with ones on the diagonal
    ("b", "a", True),           # the swap, with zeros on the diagonal
])
def test_iso_invertibility_reads_the_whole_linear_block(a, b, invertible):
    sig = Signature(1, [("x", "0"), ("a", "1"), ("b", "1")])
    atlas = Atlas(sig, 2, ["U"], [], [], {})
    images = {nm: parse_series(text, sig, 2) for nm, text in (("x", "x"), ("a", a), ("b", b))}
    report = Report()
    verify_iso(atlas, atlas, {"U": Morphism(sig, sig, images, 2)}, report, {})
    check = {c.name: c for c in report.checks}["iso U: invertible modulo J^3"]
    assert check.passed is invertible


def test_block_diagonal_check_fails_on_an_order_two_formal_term():
    atlas = atlas_nonsplit_frame_twist()
    result = split(atlas)
    sig = atlas.signature
    name = "split-model transitions are block diagonal"
    assert {c.name: c.passed for c in result.report.checks}[name]
    # xi -> xi + y eta keeps the degree of xi but is no longer linear
    yeta = GSeries.generator(sig, "y", 3) * GSeries.generator(sig, "eta", 3)
    bent = dict(result.split_atlas.transitions)
    m = bent[("U", "V")]
    bent[("U", "V")] = Morphism(sig, sig, {**m.images, "xi": m.images["xi"] + yeta}, 3)
    split_atlas = Atlas(sig, 3, atlas.charts, atlas.pairs, [], bent, atlas.partition)
    report = Report()
    verify_iso(atlas, split_atlas, result.iso, report, {})
    assert {c.name: c.passed for c in report.checks}[name] is False


def test_frame_lift_check_fails_on_a_wrong_linear_row(monkeypatch):
    atlas = atlas_split_two_charts(order=2)
    family = build_base_embedding(atlas, Report())
    sig = atlas.signature
    raise_order = splitting._raise_order

    def bent(*args, **kwargs):
        # the Cech loop returns xi1 -> xi1 + xi2 on U: the right degree,
        # the wrong linear row
        lifts = raise_order(*args, **kwargs)
        lifts["U"]["xi1"] = lifts["U"]["xi1"] + GSeries.generator(sig, "xi2", 2)
        return lifts

    monkeypatch.setattr(splitting, "_raise_order", bent)
    report = Report()
    build_module_splitting(atlas, family, report)
    checks = {c.name: c.passed for c in report.checks}
    assert checks["frame lift on U projects to the identity on J/J^2"] is False
    assert checks["frame lift on V projects to the identity on J/J^2"] is True


def drop_first_chart_eta_at_order_two(monkeypatch):
    """Patch `splitting.solve_coboundary` to return, at order 2, zero in
    place of the first chart's eta; returns the etas it hands out per order."""
    solve, handed = splitting.solve_coboundary, {}

    def bent(atlas, omegas, order):
        etas = solve(atlas, omegas, order)
        if order == 2:
            u = atlas.charts[0]
            etas[u] = {nm: GSeries.zero(atlas.signature, order) for nm in etas[u]}
        handed[order] = etas
        return etas

    monkeypatch.setattr(splitting, "solve_coboundary", bent)
    return handed


def first_nonzero_naive_mismatch(atlas, images, names):
    """"(U, V) y: value" of the first nonzero entry of the naive overlap
    mismatch at order 2, over the pairs and then the names in order."""
    for u, v in atlas.overlaps:
        got = naive_overlap_mismatch(atlas, images, (u, v), 2)
        for y in names:
            if not got[y].is_zero():
                return "(%s, %s) %s: %s" % (u, v, y, got[y])
    return None


def test_a_bent_embedding_correction_fails_consistency_and_then_raises(monkeypatch):
    atlas = atlas_nonsplit_base_twist(3)
    sig = atlas.signature
    handed = drop_first_chart_eta_at_order_two(monkeypatch)
    report = Report()
    with pytest.raises(SplittingError) as err:
        build_base_embedding(atlas, report)
    assert str(err.value) == ("embedding mismatch on x for pair ('U', 'V') has terms "
                              "below order 3; input is inconsistent")
    images = with_etas(EmbeddingFamily.identity(atlas, 2).images, handed[2])
    check = {c.name: c for c in report.checks}["embedding order 2: consistency after correction"]
    assert not check.passed
    detail = first_nonzero_naive_mismatch(atlas, images, sig.base_names)
    assert detail is not None and check.detail == detail


def test_a_bent_frame_lift_correction_fails_consistency_and_then_raises(monkeypatch):
    atlas = atlas_nonsplit_frame_twist(3)
    sig = atlas.signature
    family = build_base_embedding(atlas, Report())
    handed = drop_first_chart_eta_at_order_two(monkeypatch)
    report = Report()
    with pytest.raises(SplittingError) as err:
        build_module_splitting(atlas, family, report)
    assert str(err.value) == ("frame-lift mismatch on xi for pair ('U', 'V') has terms "
                              "below order 3; input is inconsistent")
    images = with_etas(family.images, handed[2])
    check = {c.name: c for c in report.checks}["frame lift order 2: consistency after correction"]
    assert not check.passed
    detail = first_nonzero_naive_mismatch(atlas, images, sig.formal_names)
    assert detail is not None and check.detail == detail


@pytest.mark.parametrize("order", [0, 4])
def test_truncate_checks_its_order_against_the_atlas(order):
    atlas = atlas_nonsplit_base_twist(3)
    with pytest.raises(AtlasError) as exc:
        atlas.truncate(order)
    assert str(exc.value) == "cannot truncate an order-3 atlas to order %d" % order
