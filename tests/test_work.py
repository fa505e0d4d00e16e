"""Work pins: how many morphisms `split` and `verify_result` compose, how
many series they pull back and how many series and coefficient monomial
pairs they multiply, on committed atlases, and how many series and monomial
pairs `invert` pulls back and multiplies, on fixed morphisms.

A pullback's cost grows with the series pulled back, so the summed lengths
of the lists handed to `Morphism.pullbacks` (a composition's own pullback
included), the number of `compose` calls, the number of series products
(`GSeries.__mul__` calls), the number of `gseries.mul_monomials` calls and
the number of `coeffexpr._mono_mul` calls are the work of a run, read
without a profiler and the same on every machine.  Each pin is the count
the code made when it was set, asserted as an upper bound: a change that
does more work fails here, one that does less may lower the pin.
"""

import importlib
import pkgutil
import random
from pathlib import Path

import pytest

import z2nsuper
from z2nsuper import CoeffExpr, GSeries, Signature, invert
from z2nsuper import atlas as atlas_module
from z2nsuper import coeffexpr, gseries, morphisms, splitting
from z2nsuper.formats import parse_atlas
from z2nsuper.morphisms import Morphism, compose, enumerate_monomials
from z2nsuper.splitting import split, verify_result

from conftest import rand_poly, sig_n2

GOLDEN = Path(__file__).parent / "golden"


def package_modules():
    """Every module of the package, imported."""
    return [z2nsuper] + [importlib.import_module(info.name) for info in
                         pkgutil.iter_modules(z2nsuper.__path__, "z2nsuper.")]


def test_a_compose_call_from_any_package_module_is_counted(monkeypatch):
    bound = [mod for mod in package_modules()
             if getattr(mod, "compose", None) is morphisms.compose]
    assert {z2nsuper, morphisms, atlas_module, splitting} <= set(bound)
    identity = Morphism.identity(z2nsuper.Signature(1, [("x", "0"), ("xi", "1")]), 1)
    _, counts = count_work(monkeypatch, lambda: [mod.compose(identity, identity) for mod in bound])
    assert counts["compose"] == len(bound)


def count_work(monkeypatch, run, *args):
    """run(*args), and {"compose": calls, "pulled": series pulled back,
    "products": series products, "mul_monomials": monomial pairs multiplied,
    "mono_mul": coefficient monomial pairs multiplied} while it ran."""
    counts = {"compose": 0, "pulled": 0, "products": 0, "mul_monomials": 0, "mono_mul": 0}
    compose, pullbacks, mul = morphisms.compose, Morphism.pullbacks, gseries.mul_monomials
    mono_mul, product = coeffexpr._mono_mul, GSeries.__mul__

    def counted_compose(m2, m1):
        counts["compose"] += 1
        return compose(m2, m1)

    def counted_mul(sig, mu, nu):
        counts["mul_monomials"] += 1
        return mul(sig, mu, nu)

    def counted_mono_mul(m1, m2):
        counts["mono_mul"] += 1
        return mono_mul(m1, m2)

    def counted_product(self, other):
        counts["products"] += 1
        return product(self, other)

    def counted_pullbacks(self, fs):
        counts["pulled"] += len(fs)
        return pullbacks(self, fs)

    with monkeypatch.context() as m:
        # every package module that binds the name, so a call from any of
        # them is counted
        for module in package_modules():
            if getattr(module, "compose", None) is compose:
                m.setattr(module, "compose", counted_compose)
            if getattr(module, "mul_monomials", None) is mul:
                m.setattr(module, "mul_monomials", counted_mul)
        m.setattr(Morphism, "pullbacks", counted_pullbacks)
        # a product that truncates to zero multiplies no monomials, so only
        # this count sees it
        m.setattr(GSeries, "__mul__", counted_product)
        m.setattr(GSeries, "__rmul__", counted_product)
        # sum_of_products reads the name from its module at each call
        m.setattr(coeffexpr, "_mono_mul", counted_mono_mul)
        out = run(*args)
    return out, counts


# atlas, truncation order (None: as committed), then the split and the
# verify_result pins
PINS = [
    ("nonsplit_3charts_k3", None,
     {"compose": 21, "pulled": 360, "products": 365, "mul_monomials": 1482, "mono_mul": 15375},
     {"compose": 12, "pulled": 153, "products": 161, "mul_monomials": 655, "mono_mul": 6957}),
    ("nonsplit_n2_k4", None,
     {"compose": 5, "pulled": 120, "products": 115, "mul_monomials": 392, "mono_mul": 1017},
     {"compose": 4, "pulled": 54, "products": 62, "mul_monomials": 232, "mono_mul": 411}),
    ("nonsplit_n2_k4", 3,
     {"compose": 5, "pulled": 100, "products": 74, "mul_monomials": 174, "mono_mul": 377},
     {"compose": 4, "pulled": 54, "products": 50, "mul_monomials": 128, "mono_mul": 135}),
    ("nonsplit_4charts_k4", None,
     {"compose": 54, "pulled": 768, "products": 874, "mul_monomials": 4054, "mono_mul": 89445},
     {"compose": 24, "pulled": 204, "products": 214, "mul_monomials": 1102, "mono_mul": 29670}),
]


@pytest.mark.parametrize("name, order, split_pin, verify_pin", PINS)
def test_split_and_verify_do_no_more_work_than_pinned(monkeypatch, name, order,
                                                      split_pin, verify_pin):
    atlas = parse_atlas((GOLDEN / (name + ".atlas.txt")).read_text())
    atlas = atlas if order is None else atlas.truncate(order)
    result, split_work = count_work(monkeypatch, split, atlas)
    report, verify_work = count_work(monkeypatch, verify_result, atlas, result.iso)
    assert result.report.passed and report.passed
    assert all(split_work[k] <= n for k, n in split_pin.items()), split_work
    assert all(verify_work[k] <= n for k, n in verify_pin.items()), verify_work


def base_shift_n2_k6():
    """x' = x + y^2 on the four-variable n = 2 signature, at order 6."""
    sig = sig_n2()
    y2 = GSeries.generator(sig, "y", 6) ** 2
    images = {nm: GSeries.generator(sig, nm, 6) for nm, _ in sig.variables()}
    images["x"] = images["x"] + y2
    return Morphism(sig, sig, images, 6)


def test_pulling_x_back_through_a_base_shift_forms_no_shift_power_it_does_not_read(monkeypatch):
    """x' = x + y^2 pulls x back to x + y^2: the Taylor walk reads the shift
    powers 1 and y^2 only, so y^4 = y^2 * y^2 is never formed."""
    m = base_shift_n2_k6()
    x = GSeries.generator(m.target, "x", 6)
    (pulled,), work = count_work(monkeypatch, m.pullbacks, [x])
    assert pulled == m.images["x"]
    assert work["products"] == 0 and work["mul_monomials"] == 0, work


def seeded_n3_k7():
    """A seeded n = 3 morphism at order 7: identity base map, a distinct
    prime scale on each formal variable (of degrees 011, 101, 111 and 001)
    and three terms of order 2-3 with polynomial coefficients per image."""
    sig = Signature(3, [("x", "000"), ("u", "011"), ("v", "101"), ("w", "111"),
                        ("th", "001")])
    rng = random.Random(7)
    scales = dict(zip(sig.formal_names, (2, -3, 5, -7)))
    images = {}
    for name, deg in sig.variables():
        img = GSeries.generator(sig, name, 7) * scales.get(name, 1)
        monos = [mu for mu in enumerate_monomials(sig, 3, degree=deg) if sum(mu) >= 2]
        for mu in rng.sample(monos, min(3, len(monos))):
            img = img + GSeries.monomial(sig, 7, mu, rand_poly(rng, sig.base_names, 1, 1))
        images[name] = img
    return Morphism(sig, sig, images, 7)


def cubic_coefficient_n2_k6():
    """base_shift_n2_k6 with y' = y + x^3 xi eta: h has a coefficient whose
    second base derivative is nonzero, so `invert` builds the square of its
    base shift, whose parts above order K - 2 nothing reads."""
    m = base_shift_n2_k6()
    sig = m.source
    xi_eta = tuple(int(v in ("xi", "eta")) for v in sig.formal_names)
    images = dict(m.images)
    images["y"] = images["y"] + GSeries.monomial(sig, 6, xi_eta, CoeffExpr.var("x") ** 3)
    return Morphism(sig, sig, images, 6)


# morphism, then the invert pin
INVERT_PINS = [
    (base_shift_n2_k6, {"pulled": 4, "mul_monomials": 2}),
    (seeded_n3_k7, {"pulled": 5, "mul_monomials": 757}),
    (cubic_coefficient_n2_k6, {"pulled": 4, "mul_monomials": 27}),
]


@pytest.mark.parametrize("build, pin", INVERT_PINS, ids=lambda x: getattr(x, "__name__", ""))
def test_invert_does_no_more_work_than_pinned(monkeypatch, build, pin):
    m = build()
    psi, work = count_work(monkeypatch, invert, m)
    ident = Morphism.identity(m.source, m.order)
    assert compose(m, psi) == ident and compose(psi, m) == ident
    assert all(work[k] <= n for k, n in pin.items()), work
