"""Acceptance suite: one pass/fail line per criterion, all checks exact.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines on the terminal; without -s they still appear in captured output.
"""

import itertools
import random
import time
from fractions import Fraction

from z2nsuper import (
    CoeffExpr,
    Degree,
    GradedBundleData,
    GSeries,
    Morphism,
    Signature,
    build_split_model,
    check_graded_commutative,
    clifford_algebra,
    compose,
    extract_bundle,
    invert,
    jacobian,
    quaternion_algebra,
    search_degree_assignments,
    sign_factor,
    split,
    transformation_template,
    verify_result,
)
from z2nsuper.gseries import mono_degree

from conftest import (
    atlas_nonsplit_base_twist,
    atlas_nonsplit_frame_twist,
    atlas_split_two_charts,
    naive_pullback,
    naive_series_mul,
    rand_morphism,
    rand_series,
    rand_signature,
    sig_n2,
)


def report(criterion, ok, detail):
    line = "criterion %d [%s]: %s" % (criterion, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def test_criterion_1_sign_rule_table():
    checked = 0
    ok = True
    for n in range(1, 5):
        for a in itertools.product((0, 1), repeat=n):
            for b in itertools.product((0, 1), repeat=n):
                dot = sum(x * y for x, y in zip(a, b))
                ok = ok and sign_factor(Degree(a), Degree(b)) == (-1) ** dot
                checked += 1
    ok = ok and sign_factor(Degree.parse("110"), Degree.parse("101")) == -1
    ok = ok and sign_factor(Degree.parse("100"), Degree.parse("010")) == 1
    ok = ok and sign_factor(Degree.parse("110"), Degree.parse("110")) == 1
    report(1, ok, "sign rule exact on %d pairs (n <= 4) incl. the three hallmark cases"
           % checked)


def test_criterion_2_taylor_pullback():
    sig = sig_n2()
    K = 6
    y2 = GSeries.generator(sig, "y", K) ** 2
    images = {
        "x": GSeries.generator(sig, "x", K) + y2,
        "y": GSeries.generator(sig, "y", K),
        "xi": GSeries.generator(sig, "xi", K),
        "eta": GSeries.generator(sig, "eta", K),
    }
    m = Morphism(sig, sig, images, K)
    F = GSeries.from_coeff(sig, K, CoeffExpr.app("F", [CoeffExpr.var("x")]))
    got = m.pullback(F)
    expected = GSeries.zero(sig, K)
    y = GSeries.generator(sig, "y", K)
    fact = 1
    for a in range(4):
        if a:
            fact *= a
        deriv = CoeffExpr.app("F", [CoeffExpr.var("x")], alpha=(a,))
        expected = expected + y ** (2 * a) * (deriv * Fraction(1, fact))
    ok = got == expected
    report(2, ok, "pullback of F(x') through x' = x + y^2 at K=6 equals the "
           "3-term Taylor sum term for term")


def test_criterion_3_oracle_equivalence():
    rng = random.Random(31337)
    count = 0
    ok = True
    while count < 200:
        sig = rand_signature(rng, n_max=3, q_max=4)
        order = rng.randint(1, 5)
        a = rand_series(rng, sig, order)
        b = rand_series(rng, sig, order)
        ok = ok and a * b == naive_series_mul(a, b)
        m = rand_morphism(rng, sig, order)
        f = rand_series(rng, sig, order)
        ok = ok and m.pullback(f) == naive_pullback(m, f)
        count += 1
    report(3, ok, "%d randomized instances: multiply and pullback match the "
           "naive substitute-expand-sort oracle exactly" % count)


def test_criterion_4_template_shapes():
    sig = sig_n2()
    K = 7
    shapes, _ = transformation_template(sig, K)
    iy = sig.formal_index("y")
    ixi = sig.formal_index("xi")
    iet = sig.formal_index("eta")

    def mono(a, b, c):
        mu = [0, 0, 0]
        mu[iy], mu[ixi], mu[iet] = a, b, c
        return tuple(mu)

    # independent enumeration of the four expected families at order <= 7
    expected = {nm: set() for nm, _ in sig.variables()}
    for a in range(K + 1):
        for b in (0, 1):
            for c in (0, 1):
                if a + b + c > K:
                    continue
                deg = Degree.parse("11") if a % 2 else Degree.zero(2)
                if b:
                    deg = deg + Degree.parse("01")
                if c:
                    deg = deg + Degree.parse("10")
                for nm, want in sig.variables():
                    if deg == want:
                        expected[nm].add(mono(a, b, c))
    ok = all(set(shapes[nm]) == expected[nm] for nm, _ in sig.variables())
    sizes = {nm: len(shapes[nm]) for nm, _ in sig.variables()}
    report(4, ok, "template families on (x, y, xi, eta) at K=7 match the "
           "direct enumeration with no extras or omissions (%s)" % sizes)


def test_criterion_5_jacobian_block_law():
    rng = random.Random(555)
    sig = sig_n2()
    ok = True
    for _ in range(100):
        order = rng.randint(1, 3)
        m = rand_morphism(rng, sig, order, max_terms=2)
        jac = jacobian(m)
        for tv in jac.rows:
            for sv in jac.cols:
                want = sig.degree_of(tv) + sig.degree_of(sv)
                ok = ok and jac.entry(tv, sv).is_homogeneous(want)
    report(5, ok, "100 randomized morphisms on the n=2 signature: every 4x4 "
           "Jacobian entry homogeneous of deg(target)+deg(source)")


def test_criterion_6_round_trip_inversion():
    sig = sig_n2()
    ok = True
    for K in range(1, 7):
        y2 = GSeries.generator(sig, "y", K) ** 2
        images = {
            "x": GSeries.generator(sig, "x", K) + y2,
            "y": GSeries.generator(sig, "y", K),
            "xi": GSeries.generator(sig, "xi", K),
            "eta": GSeries.generator(sig, "eta", K),
        }
        m = Morphism(sig, sig, images, K)
        minv = invert(m)
        ident = Morphism.identity(sig, K)
        ok = ok and compose(m, minv) == ident and compose(minv, m) == ident
    report(6, ok, "invert(x' = x + y^2) composes to the identity both ways "
           "modulo J^(K+1) for K = 1..6")


def test_criterion_7_quaternion_certification():
    t0 = time.time()
    H = quaternion_algebra()
    found3 = search_degree_assignments(H, 3)
    ok = bool(found3)
    for asg in found3:
        passed, _ = check_graded_commutative(H, asg)
        ok = ok and passed
    ok = ok and search_degree_assignments(H, 1) == []
    cl = clifford_algebra(1, 1)
    ok = ok and bool(search_degree_assignments(cl, 3))
    dt = time.time() - t0
    ok = ok and dt < 10
    report(7, ok, "quaternions: %d certified assignments at n=3, none at n=1; "
           "Cl(1,1) nonempty at n=3; search took %.2fs" % (len(found3), dt))


def test_criterion_8_splitting_pipeline():
    t0 = time.time()
    ok = True
    details = []

    # (a) already-split fixture: expect the identity isomorphism
    atlas = atlas_split_two_charts()
    result = split(atlas)
    ident = Morphism.identity(atlas.signature, 3)
    a_ok = result.report.passed and all(result.iso[u] == ident for u in atlas.charts)
    ok = ok and a_ok
    details.append("split-model fixture: iso = id" if a_ok else "split-model FAILED")

    # (b) the two nonsplit fixtures
    for name, make in (("base twist", atlas_nonsplit_base_twist),
                       ("frame twist", atlas_nonsplit_frame_twist)):
        atlas = make()
        result = split(atlas)
        b_ok = result.report.passed
        b_ok = b_ok and verify_result(atlas, result.iso).passed
        ok = ok and b_ok
        details.append("%s: report + verify pass" % name if b_ok else "%s FAILED" % name)

    # negative control: corrupt one correction term
    atlas = atlas_nonsplit_base_twist()
    result = split(atlas)
    sig = atlas.signature
    xi12 = GSeries.generator(sig, "xi1", 3) * GSeries.generator(sig, "xi2", 3)
    bad = dict(result.iso)
    images = dict(bad["U"].images)
    images["x"] = images["x"] + xi12
    bad["U"] = Morphism(sig, sig, images, 3)
    neg = verify_result(atlas, bad)
    neg_ok = (not neg.passed) and any("x" in c.detail for c in neg.checks
                                      if not c.passed and c.detail)
    ok = ok and neg_ok
    details.append("negative control: localized residual" if neg_ok
                   else "negative control FAILED")

    dt = time.time() - t0
    ok = ok and dt < 120
    report(8, ok, "; ".join(details) + " (%.2fs)" % dt)


def test_criterion_9_bundle_round_trip():
    rng = random.Random(99)
    ok = True
    for case in range(20):
        n = rng.randint(1, 2)
        from z2nsuper.degrees import enumerate_nonzero_degrees

        nz = enumerate_nonzero_degrees(n)
        variables = [("x", Degree.zero(n))]
        idx = 0
        for d in nz:
            for _ in range(rng.randint(0, 2)):
                variables.append(("w%d" % idx, d))
                idx += 1
        if len(variables) == 1:
            variables.append(("w0", nz[0]))
        sig = Signature(n, variables)
        charts = ["U", "V"]
        pairs = [("U", "V"), ("V", "U")]
        x = CoeffExpr.var("x")

        def rand_invertible(rank):
            # triangular with nonzero rational diagonal: invertible by design
            mat = [[CoeffExpr.rational(0)] * rank for _ in range(rank)]
            for i in range(rank):
                mat[i][i] = CoeffExpr.rational(Fraction(rng.choice([1, 2, 3, -1]),
                                                        rng.choice([1, 2])))
                for j in range(i):
                    if rng.random() < 0.5:
                        mat[i][j] = x * rng.randint(-2, 2)
            return mat

        matrices = {}
        for pair in pairs:
            per = {}
            for d in nz:
                rank = sum(1 for _, dd in variables if dd == d)
                if rank:
                    per[d] = rand_invertible(rank)
            matrices[pair] = per
        identity = {bn: CoeffExpr.var(bn) for bn in sig.base_names}
        bundle = GradedBundleData(sig, charts, pairs, matrices, dict.fromkeys(pairs, identity))
        rebuilt = extract_bundle(build_split_model(bundle, 3))
        ok = ok and rebuilt == bundle
    report(9, ok, "extract_bundle(build_split_model(B)) == B on 20 randomized "
           "bundles (n <= 2, ranks <= 2), exact")
