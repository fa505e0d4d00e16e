"""The constructive splitting of a graded supermanifold atlas.

A two-chart atlas glued by  x -> x + g(x) xi1 xi2  is not in split form: the
transition mixes the base coordinate with nilpotents.  The splitting engine
repairs this order by order.  The overlap mismatch of the naive embedding is
a Cech 1-cocycle of derivations; a symbolic partition of unity trivializes
it, and the corrected embedding plus a frame lift assemble into per-chart
isomorphisms onto the split model of the underlying graded bundle.  Every
claim is re-verified symbolically and reported.
"""

from z2nsuper import CoeffExpr, GSeries, Morphism, Signature, split, verify_result
from z2nsuper.atlas import Atlas

sig = Signature(1, [("x", "0"), ("xi1", "1"), ("xi2", "1")])
K = 3

g = CoeffExpr.app("g", [CoeffExpr.var("x")])
xi12 = GSeries.generator(sig, "xi1", K) * GSeries.generator(sig, "xi2", K)


def glue(sign):
    return Morphism(sig, sig, {
        "x": GSeries.generator(sig, "x", K) + xi12 * (g * sign),
        "xi1": GSeries.generator(sig, "xi1", K),
        "xi2": GSeries.generator(sig, "xi2", K),
    }, K)


atlas = Atlas(sig, K, ["U", "V"], [("U", "V"), ("V", "U")], [],
              {("U", "V"): glue(1), ("V", "U"): glue(-1)},
              partition={"U": CoeffExpr.app("rho_U", [CoeffExpr.var("x")]),
                         "V": CoeffExpr.app("rho_V", [CoeffExpr.var("x")])})

print("Atlas: two charts glued by  x -> x + g(x) xi1 xi2")
print()

result = split(atlas)

print("Corrected embedding of the base coordinate (the twist is absorbed")
print("into the chart algebras via the partition of unity):")
for u in atlas.charts:
    print("  phi_%s(x) = %s" % (u, result.iso[u].images["x"]))
print()

print("Per-chart isomorphism onto the split model, chart U:")
for nm, _ in sig.variables():
    print("  %s -> %s" % (nm, result.iso["U"].images[nm]))
print()

print("Verification report:")
print(result.report)
print()

print("Independent re-verification from the iso data alone:",
      verify_result(atlas, result.iso).passed)
