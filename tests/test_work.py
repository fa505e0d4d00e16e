"""Work pins: how many morphisms `split` and `verify_result` compose and how
many series they pull back, on committed atlases.

A pullback's cost grows with the series pulled back, so the summed lengths
of the lists handed to `Morphism.pullbacks` (a composition's own pullback
included) and the number of `compose` calls are the work of a run, read
without a profiler and the same on every machine.  Each pin is the count the
code made when it was set, asserted as an upper bound: a change that does
more work fails here, one that does less may lower the pin.
"""

import importlib
import pkgutil
from pathlib import Path

import pytest

import z2nsuper
from z2nsuper import atlas as atlas_module
from z2nsuper import morphisms, splitting
from z2nsuper.formats import parse_atlas
from z2nsuper.morphisms import Morphism
from z2nsuper.splitting import split, verify_result

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
    """run(*args), and {"compose": calls, "pulled": series pulled back} while
    it ran."""
    counts = {"compose": 0, "pulled": 0}
    compose, pullbacks = morphisms.compose, Morphism.pullbacks

    def counted_compose(m2, m1):
        counts["compose"] += 1
        return compose(m2, m1)

    def counted_pullbacks(self, fs):
        counts["pulled"] += len(fs)
        return pullbacks(self, fs)

    with monkeypatch.context() as m:
        # every package module that binds the name, so a call from any of
        # them is counted
        for module in package_modules():
            if getattr(module, "compose", None) is compose:
                m.setattr(module, "compose", counted_compose)
        m.setattr(Morphism, "pullbacks", counted_pullbacks)
        out = run(*args)
    return out, counts


# atlas, truncation order (None: as committed), then the split and the
# verify_result pins
PINS = [
    ("nonsplit_3charts_k3", None, {"compose": 21, "pulled": 360}, {"compose": 12, "pulled": 153}),
    ("nonsplit_n2_k4", None, {"compose": 5, "pulled": 120}, {"compose": 4, "pulled": 54}),
    ("nonsplit_n2_k4", 3, {"compose": 5, "pulled": 100}, {"compose": 4, "pulled": 54}),
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
