#!/usr/bin/env python3
"""Support scans behind the level-structure theta lift at p = 11.

Four families of double-coset representatives act on the pair (e1, alpha);
the scan classifies every parameter tuple in a finite box as in-support,
canceled (its x-orbit under translation by 1/p stays in support, so the
additive character sums it away), or genuinely contributing.  The upshot:
only the origin tuples survive, with x integral and s + t integral in the
doubled-Weyl family.
"""

from kleinzeta.thetasupp import (ScanBox, archimedean_equivariance, char_sum, scan_type,
                                 stabilizer_invariance_check)

P = 11
box = ScanBox()
print(f"scanning p = {P}, box: |m|,|n|,|r| <= {box.radius}, "
      f"v(x) in [-{box.x_val_range}, {box.x_val_range}], units mod {P}^{box.x_res_exponent}")

for ty in ("I", "II", "III", "IV"):
    rep = scan_type(P, ty, box)
    print(f"\ntype {ty}: scanned {rep.combos_scanned} parameter families, "
          f"{len(rep.nonempty)} with nonempty support -> {rep.status}")
    for name, ok in rep.claims.items():
        print(f"    {name}: {ok}")
    survivors = [c for c in rep.nonempty if c.contributing["zero"]
                 or any(c.contributing["by_val"].values())]
    for c in survivors[:12]:
        print(f"    survivor (m,n,r,s,t) = ({c.m},{c.n},{c.r},{c.s},{c.t})")

print("\nadditive character sums over p^-v Z / Z (exact, read at zeta_p in Z[z]/(z^p - 1)):")
for v in range(0, 5):
    val = char_sum(P, v)
    print(f"  v = {v}:", "1" if v == 0 else ("0" if not any(val) else str(val)))

print("\nsupport stability under all of Gamma_0(p^2)^2, by valuations:",
      stabilizer_invariance_check(P))

residuals = archimedean_equivariance()
print("archimedean projector equivariance at both rotation generators (exact):",
      residuals or "no residual")
