"""Morphisms: validation, pullbacks, composition, inversion, Jacobians."""

import gc
import random
from fractions import Fraction

import pytest

from z2nsuper import (
    CoeffExpr,
    GSeries,
    Morphism,
    MorphismError,
    Signature,
    SignatureMismatch,
    SingularBlock,
    compose,
    enumerate_monomials,
    invert,
    jacobian,
    morphisms,
    transformation_template,
)
from z2nsuper.degrees import enumerate_nonzero_degrees
from z2nsuper.gseries import normal_form

from conftest import (
    naive_pullback,
    rand_morphism,
    rand_opaque_coeff,
    rand_poly,
    rand_series,
    rand_signature,
    sig_n1,
    sig_n2,
)


def base_shift_morphism(sig, order):
    """x' = x + y^2 on the four-variable n = 2 signature."""
    y2 = GSeries.generator(sig, "y", order) ** 2
    images = {
        "x": GSeries.generator(sig, "x", order) + y2,
        "y": GSeries.generator(sig, "y", order),
        "xi": GSeries.generator(sig, "xi", order),
        "eta": GSeries.generator(sig, "eta", order),
    }
    return Morphism(sig, sig, images, order)


def test_validation_rejects_missing_and_inhomogeneous_images(sig2):
    imgs = {nm: GSeries.generator(sig2, nm, 3) for nm, _ in sig2.variables()}
    del imgs["y"]
    with pytest.raises(MorphismError):
        Morphism(sig2, sig2, imgs, 3)
    imgs["y"] = GSeries.generator(sig2, "xi", 3)  # wrong degree
    with pytest.raises(MorphismError):
        Morphism(sig2, sig2, imgs, 3)


def _images(sig, order):
    return {nm: GSeries.generator(sig, nm, order) for nm, _ in sig.variables()}


@pytest.mark.parametrize("refusal, kind, text", [
    (lambda: Morphism(sig_n1(), sig_n2(), _images(sig_n2(), 3), 3),
     SignatureMismatch, "source and target have different n"),
    (lambda: Morphism(sig_n2(), sig_n2(), {**_images(sig_n2(), 3), "x": CoeffExpr.var("x")}, 3),
     MorphismError, "image of 'x' is not a series"),
    (lambda: Morphism(sig_n2(), sig_n2(), {**_images(sig_n2(), 3), "x": _images(sig_n1(), 3)["x"]},
                      3),
     SignatureMismatch, "image of 'x' is not over the source"),
    (lambda: Morphism(sig_n2(), sig_n2(), {**_images(sig_n2(), 3), "x": _images(sig_n2(), 2)["x"]},
                      3),
     MorphismError, "image of 'x' has order 2 < morphism order 3"),
    (lambda: Morphism.identity(sig_n2(), 3).pullback(GSeries.one(sig_n1(), 3)),
     SignatureMismatch, "series is not over the morphism target"),
], ids=["n", "not-a-series", "foreign-image", "low-order-image", "foreign-series"])
def test_morphism_refusals_name_their_type_and_text(refusal, kind, text):
    with pytest.raises(kind) as exc:
        refusal()
    assert type(exc.value) is kind and str(exc.value) == text


def test_enumerate_monomials_caps_self_odd():
    sig = sig_n2()
    monos = enumerate_monomials(sig, 4)
    for mu in monos:
        assert mu[sig.formal_index("xi")] <= 1
        assert mu[sig.formal_index("eta")] <= 1
        assert sum(mu) <= 4
    # all y powers appear
    assert all(any(mu[sig.formal_index("y")] == k and sum(mu) == k for mu in monos)
               for k in range(5))


def test_enumerate_monomials_keeps_its_lexicographic_order():
    # generated atlases draw from this list, so their digests pin its order
    sig = Signature(2, [("x", "00"), ("y", "11"), ("xi", "10")])
    assert sig.formal_names == ["xi", "y"]
    assert enumerate_monomials(sig, 2) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]
    assert enumerate_monomials(sig, 2, "00") == [(0, 0), (0, 2)]
    assert enumerate_monomials(sig, 2, "01") == [(1, 1)]


def test_transformation_template_leaves_no_reference_cycle():
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        transformation_template(sig_n2(), 3)
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_pullback_of_smooth_function_is_taylor_expansion(sig2):
    m = base_shift_morphism(sig2, 6)
    F = GSeries.from_coeff(sig2, 6, CoeffExpr.app("F", [CoeffExpr.var("x")]))
    got = m.pullback(F)
    y = GSeries.generator(sig2, "y", 6)
    x = CoeffExpr.var("x")
    expected = GSeries.zero(sig2, 6)
    for a in range(4):
        deriv = CoeffExpr.app("F", [x], alpha=(a,))
        fact = 1
        for k in range(1, a + 1):
            fact *= k
        expected = expected + y ** (2 * a) * (deriv * Fraction(1, fact))
    assert got == expected


def test_pullback_is_an_algebra_morphism():
    rng = random.Random(21)
    for _ in range(25):
        sig = rng.choice([sig_n1(), sig_n2()])
        order = rng.randint(1, 4)
        m = rand_morphism(rng, sig, order)
        f = rand_series(rng, sig, order)
        g = rand_series(rng, sig, order)
        assert m.pullback(f + g) == m.pullback(f) + m.pullback(g)
        assert m.pullback(f * g) == m.pullback(f) * m.pullback(g)
        assert m.pullback(GSeries.one(sig, order)) == GSeries.one(sig, order)


def test_pullback_matches_substitution_oracle_on_polynomials():
    rng = random.Random(22)
    for _ in range(40):
        sig = rng.choice([sig_n1(), sig_n2()])
        order = rng.randint(1, 4)
        m = rand_morphism(rng, sig, order)
        f = rand_series(rng, sig, order)
        assert m.pullback(f) == naive_pullback(m, f)


def test_pullbacks_match_the_oracle_across_orders_up_to_n4():
    rng = random.Random(41)
    for _ in range(30):
        sig = rand_signature(rng, n_max=4, q_max=4, nbase=rng.randint(1, 2))
        order = rng.randint(1, 4)
        m = rand_morphism(rng, sig, order)
        # one batch mixes orders below, at and above the morphism's
        orders = [order, max(1, order - 1), order + 1, rng.randint(1, order + 1)]
        fs = [rand_series(rng, sig, k) for k in orders]
        assert m.pullbacks(fs) == [naive_pullback(m, f) for f in fs]


def test_pullbacks_of_opaque_coefficients_match_one_series_batches():
    rng = random.Random(42)
    for _ in range(20):
        sig = rand_signature(rng, n_max=4, q_max=4, nbase=rng.randint(1, 2))
        order = rng.randint(1, 4)
        m = rand_morphism(rng, sig, order)
        fs = [rand_series(rng, sig, rng.randint(1, order + 1), coeff=rand_opaque_coeff)
              for _ in range(4)]
        assert m.pullbacks(fs) == [m.pullbacks([f])[0] for f in fs]


def top_opaque_series(rng, sig, order):
    """A series whose monomials of the top two orders carry opaque
    coefficients with a nonzero base derivative, through k(x), and whose
    lower monomials carry nonzero constants."""
    monos = enumerate_monomials(sig, order)
    terms = {}
    for mu in rng.sample(monos, min(5, len(monos))):
        if sum(mu) >= order - 1:
            x = CoeffExpr.var(rng.choice(sig.base_names))
            terms[mu] = rand_opaque_coeff(rng, sig.base_names) + CoeffExpr.app("k", [x])
        else:
            terms[mu] = CoeffExpr.rational(rng.choice([-2, Fraction(1, 3), 5]))
    return GSeries(sig, order, terms)


def test_pullbacks_expand_each_term_to_the_order_its_monomial_leaves():
    """Each coefficient is expanded only to order K - |mu|, a constant not at
    all: pullbacks of series with opaque top terms and constant lower ones,
    in batches of mixed orders, match the oracle through morphisms with an
    identity base map and with x -> 2x + nilpotent terms."""
    rng = random.Random(48)
    for trial in range(16):
        # two formal variables of one degree make w0 w1 of degree 0, so every
        # base image gets a nilpotent shift
        n = rng.randint(1, 4)
        d, e = rng.sample(enumerate_nonzero_degrees(n) * 2, 2)
        variables = [("x", "0" * n), ("x1", "0" * n)][:rng.randint(1, 2)]
        sig = Signature(n, variables + [("w0", d), ("w1", d), ("w2", e)][:rng.randint(2, 3)])
        order = rng.randint(2, 6)
        m = rand_morphism(rng, sig, order, max_terms=2)
        w01 = tuple(int(v in ("w0", "w1")) for v in sig.formal_names)
        images = dict(m.images)
        for bn in sig.base_names:
            c = rand_poly(rng, [bn], 1, 2) * CoeffExpr.var(bn) + 1
            images[bn] = images[bn] + GSeries.monomial(sig, order, w01, c)
        if trial % 2:
            images["x"] = images["x"] + GSeries.generator(sig, "x", order)
        m = Morphism(sig, sig, images, order)
        assert m.is_base_identity() == (trial % 2 == 0)
        orders = [order, order - 1, order + 1, rng.randint(1, order)]
        fs = [top_opaque_series(rng, sig, k) for k in orders]
        assert m.pullbacks(fs) == [naive_pullback(m, f) for f in fs]


def test_pullback_coeff_matches_the_oracle_up_to_n4():
    rng = random.Random(44)
    shifted = 0
    for _ in range(60):
        sig = rand_signature(rng, n_max=4, q_max=4, nbase=rng.randint(1, 2))
        m = rand_morphism(rng, sig, rng.randint(1, 4), max_terms=4)
        c = rng.choice([rand_poly, rand_opaque_coeff])(rng, sig.base_names)
        f = GSeries.from_coeff(sig, m.order, c)
        got = m.pullback_coeff(c)
        assert got == naive_pullback(m, f)
        shifted += got != f
    # a base image with nilpotent terms makes the Taylor expansion nontrivial
    assert shifted >= 10


def test_pullbacks_leave_the_morphism_unchanged():
    rng = random.Random(43)
    for _ in range(10):
        sig = rand_signature(rng, n_max=4, q_max=4)
        order = rng.randint(1, 4)
        m = rand_morphism(rng, sig, order)
        before = dict(vars(m))
        images = dict(m.images)
        fs = [rand_series(rng, sig, order) for _ in range(3)]
        m.pullback(fs[0])
        m.pullbacks(fs)
        compose(rand_morphism(rng, sig, order), m)
        compose(m, rand_morphism(rng, sig, order))
        assert vars(m) == before
        assert m.images == images


def test_compose_is_contravariant():
    rng = random.Random(23)
    for _ in range(15):
        sig = rng.choice([sig_n1(), sig_n2()])
        order = rng.randint(1, 4)
        m1 = rand_morphism(rng, sig, order)
        m2 = rand_morphism(rng, sig, order)
        c = compose(m2, m1)
        f = rand_series(rng, sig, order)
        assert c.pullback(f) == m1.pullback(m2.pullback(f))


def test_compose_with_identity(sig2):
    m = base_shift_morphism(sig2, 4)
    ident = Morphism.identity(sig2, 4)
    assert compose(m, ident) == m
    assert compose(ident, m) == m


def test_invert_base_shift_round_trip(sig2):
    for order in (2, 4, 6):
        m = base_shift_morphism(sig2, order)
        minv = invert(m)
        ident = Morphism.identity(sig2, order)
        assert compose(m, minv) == ident
        assert compose(minv, m) == ident


def test_invert_randomized_round_trip():
    rng = random.Random(24)
    for _ in range(15):
        sig = rng.choice([sig_n1(), sig_n2()])
        order = rng.randint(1, 4)
        # identity linear part plus higher terms with rational coefficients
        images = {}
        for name, deg in sig.variables():
            img = GSeries.generator(sig, name, order)
            monos = [mu for mu in enumerate_monomials(sig, order, degree=deg) if sum(mu) >= 2]
            for _ in range(rng.randint(0, 2)):
                if not monos:
                    break
                mu = rng.choice(monos)
                img = img + GSeries.monomial(sig, order, mu, Fraction(rng.randint(-3, 3)))
            images[name] = img
        m = Morphism(sig, sig, images, order)
        minv = invert(m)
        ident = Morphism.identity(sig, order)
        assert compose(m, minv) == ident
        assert compose(minv, m) == ident


def test_invert_round_trip_up_to_n4():
    rng = random.Random(44)
    for _ in range(15):
        sig = rand_signature(rng, n_max=4, q_max=4)
        order = rng.randint(1, 4)
        m = rand_morphism(rng, sig, order, min_order=2)
        minv = invert(m)
        ident = Morphism.identity(sig, order)
        assert compose(m, minv) == ident
        assert compose(minv, m) == ident


def invertible_morphism(rng, sig, order, base_map):
    """An endomorphism with the given base map (base coordinate ->
    CoeffExpr), each formal variable scaled and mixed with the later ones of
    its degree, and two terms of order 2-3 with base-dependent coefficients
    on every image."""
    images = {}
    for name, deg in sig.variables():
        if sig.is_base(name):
            img = GSeries.from_coeff(sig, order, base_map[name])
        else:
            block = sig.formal_blocks[deg]
            img = GSeries.generator(sig, name, order) * rng.choice([2, -3, Fraction(1, 5)])
            for later in block[block.index(name) + 1:]:
                img = img + GSeries.generator(sig, later, order) * rng.randint(-2, 2)
        monos = [mu for mu in enumerate_monomials(sig, 3, degree=deg) if sum(mu) >= 2]
        for mu in rng.sample(monos, min(2, len(monos))):
            img = img + GSeries.monomial(sig, order, mu, rand_poly(rng, sig.base_names, 1, 2))
        images[name] = img
    return Morphism(sig, sig, images, order)


def test_invert_round_trip_at_the_benchmark_orders():
    rng = random.Random(57)
    for _ in range(12):
        n = rng.randint(2, 4)
        # one self-even, non-nilpotent degree, and one or two random ones
        degrees = ["11" + "0" * (n - 2)] + [str(d) for d in rng.sample(
            enumerate_nonzero_degrees(n), rng.randint(1, 2))]
        nbase = rng.randint(1, 2)
        bases = ["x", "z"][:nbase]
        sig = Signature(n, [(b, "0" * n) for b in bases]
                        + [("w%d" % i, d) for i, d in enumerate(degrees)])
        order = rng.randint(5, 7)
        x = CoeffExpr.var("x")
        if nbase == 1:
            # x -> 2x + 3, inverted by x -> (x - 3) / 2
            base_map = {"x": x * 2 + 3}
            base_inverse = {"x": (x - 3) * Fraction(1, 2)}
        else:
            # (x, z) -> (2x + z^2, z), inverted by (x, z) -> ((x - z^2) / 2, z)
            z = CoeffExpr.var("z")
            base_map = {"x": x * 2 + z * z, "z": z}
            base_inverse = {"x": (x - z * z) * Fraction(1, 2), "z": z}
        m = invertible_morphism(rng, sig, order, base_map)
        minv = invert(m, base_inverse=base_inverse)
        ident = Morphism.identity(sig, order)
        assert compose(m, minv) == ident
        assert compose(minv, m) == ident


@pytest.mark.parametrize("name, word", [
    # a term of xi's degree, 01 = 10 + 11, off the inverse
    ("xi", ["eta", "y"]),
    # a term of degree 00 on the base image
    ("x", ["y", "y"]),
    # a term of eta's degree, 10 = 01 + 3 * 11, at order K only
    ("eta", ["xi", "y", "y", "y"]),
], ids=["formal", "base", "order_K"])
def test_invert_refuses_a_corrupted_construction(sig2, monkeypatch, name, word):
    built = morphisms._inverse_by_orders

    def corrupted(*args):
        images = built(*args)
        images[name] = images[name] + normal_form(word + [5], sig2, 4)
        return images

    m = base_shift_morphism(sig2, 4)
    assert compose(m, invert(m)) == Morphism.identity(sig2, 4)
    monkeypatch.setattr(morphisms, "_inverse_by_orders", corrupted)
    with pytest.raises(MorphismError, match="does not compose to the identity"):
        invert(m)


def test_invert_leaves_no_reference_cycle():
    m = invertible_morphism(random.Random(5), sig_n2(), 6, {"x": CoeffExpr.var("x")})
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        invert(m)
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_invert_singular_block(sig1):
    images = {
        "x": GSeries.generator(sig1, "x", 3),
        "xi1": GSeries.generator(sig1, "xi1", 3),
        "xi2": GSeries.generator(sig1, "xi1", 3),  # rank-deficient linear block
    }
    m = Morphism(sig1, sig1, images, 3)
    with pytest.raises(SingularBlock):
        invert(m)


def zero_xi_block_morphism(sig, order):
    """An n = 2 morphism whose degree-01 linear block is zero (xi -> 0)."""
    images = {nm: GSeries.generator(sig, nm, order) for nm, _ in sig.variables()}
    images["xi"] = GSeries.zero(sig, order)
    return Morphism(sig, sig, images, order)


def test_invert_singular_block_n2(sig2):
    with pytest.raises(SingularBlock, match="degree 01 is singular"):
        invert(zero_xi_block_morphism(sig2, 3))


def test_invert_symbolic_block_n2(sig2):
    images = {nm: GSeries.generator(sig2, nm, 3) for nm, _ in sig2.variables()}
    images["eta"] = images["eta"] * CoeffExpr.var("x")
    m = Morphism(sig2, sig2, images, 3)
    with pytest.raises(SingularBlock, match="degree 10 is not rational"):
        invert(m)


def test_invert_degree_count_mismatch_n2(sig2):
    # the target has two degree-01 variables, the source only one
    target = Signature(2, [("x", "00"), ("y", "11"), ("xi", "01"), ("eta", "01")])
    images = {
        "x": GSeries.generator(sig2, "x", 3),
        "y": GSeries.generator(sig2, "y", 3),
        "xi": GSeries.generator(sig2, "xi", 3),
        "eta": GSeries.generator(sig2, "xi", 3),
    }
    m = Morphism(sig2, target, images, 3)
    with pytest.raises(SignatureMismatch, match="degree 01 count"):
        invert(m)


def test_invert_requires_base_inverse_for_nonidentity_base(sig1):
    images = {
        "x": GSeries.generator(sig1, "x", 3) * 2,
        "xi1": GSeries.generator(sig1, "xi1", 3),
        "xi2": GSeries.generator(sig1, "xi2", 3),
    }
    m = Morphism(sig1, sig1, images, 3)
    with pytest.raises(MorphismError):
        invert(m)
    minv = invert(m, base_inverse={"x": CoeffExpr.var("x") * Fraction(1, 2)})
    assert compose(m, minv) == Morphism.identity(sig1, 3)


def test_invert_rejects_a_base_inverse_that_does_not_invert(sig1):
    xi12 = GSeries.generator(sig1, "xi1", 3) * GSeries.generator(sig1, "xi2", 3)
    images = {
        "x": GSeries.generator(sig1, "x", 3) * 2 + xi12,
        "xi1": GSeries.generator(sig1, "xi1", 3),
        "xi2": GSeries.generator(sig1, "xi2", 3),
    }
    m = Morphism(sig1, sig1, images, 3)
    with pytest.raises(MorphismError, match="does not invert the base map at 'x'"):
        invert(m, base_inverse={"x": CoeffExpr.var("x")})
    with pytest.raises(MorphismError, match="no entry for 'x'"):
        invert(m, base_inverse={})
    minv = invert(m, base_inverse={"x": CoeffExpr.var("x") * Fraction(1, 2)})
    ident = Morphism.identity(sig1, 3)
    assert compose(m, minv) == ident
    assert compose(minv, m) == ident


def test_invert_raises_when_its_composition_is_not_the_identity(sig2, monkeypatch):
    m = base_shift_morphism(sig2, 3)
    # the composition never compares equal to the identity
    monkeypatch.setattr(Morphism, "__eq__", lambda self, other: False)
    with pytest.raises(MorphismError, match="does not compose to the identity"):
        invert(m)


def test_jacobian_entries_and_blocks(sig2):
    m = base_shift_morphism(sig2, 4)
    jac = jacobian(m)
    y = GSeries.generator(sig2, "y", 4)
    assert jac.entry("x", "y") == y * 2
    assert jac.entry("x", "x") == GSeries.one(sig2, 4)
    assert jac.entry("xi", "xi") == GSeries.one(sig2, 4)
    assert jac.check_blocks()
    for tv in jac.rows:
        for sv in jac.cols:
            e = jac.entry(tv, sv)
            assert e.is_homogeneous(jac.expected_degree(tv, sv))


def test_jacobian_chain_rule():
    """Composition differentiates through: d(m2 o m1) = pullback of d(m2) times d(m1)."""
    rng = random.Random(25)
    for _ in range(10):
        sig = rng.choice([sig_n1(), sig_n2()])
        order = rng.randint(2, 4)
        m1 = rand_morphism(rng, sig, order)
        m2 = rand_morphism(rng, sig, order)
        c = compose(m2, m1)
        jc = jacobian(c)
        j1 = jacobian(m1)
        j2 = jacobian(m2)
        names = [nm for nm, _ in sig.variables()]
        for tv in names:
            for sv in names:
                acc = GSeries.zero(sig, order)
                for mid in names:
                    # left derivatives: the inner Jacobian factor stands left
                    # of the pulled-back outer one
                    acc = acc + j1.entry(mid, sv) * m1.pullback(j2.entry(tv, mid))
                # derivatives are reliable one order below the truncation
                assert jc.entry(tv, sv).truncate(order - 1) == acc.truncate(order - 1)


def test_transformation_template_shapes(sig2):
    shapes, m = transformation_template(sig2, 3)
    # x images: even monomials of degree 00 up to order 3
    ix, ie, iy = (sig2.formal_index(v) for v in ("xi", "eta", "y"))
    for name, deg in sig2.variables():
        from z2nsuper.gseries import mono_degree

        for mu in shapes[name]:
            assert mono_degree(sig2, mu) == deg
            assert sum(mu) <= 3
        # the template morphism carries one fresh opaque symbol per shape
        img = m.images[name]
        assert sorted(img.terms) == sorted(shapes[name])
        syms = set()
        for c in img.terms.values():
            names = c.opaque_names()
            assert len(names) == 1
            syms |= names
        assert len(syms) == len(shapes[name])
