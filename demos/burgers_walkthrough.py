"""End-to-end walkthrough on the Burgers system.

Starting from the two first-order equations alone, the conservation-law
multiplier route produces, mechanically: the determining system for
zeroth-order multipliers, its integration to an arbitrary-function family,
the factorization Lambda = v(X) Q J, the dependent part W of the mapping
from the augmented identity, the point transformation to a first-order heat
pair, and the exact verification of every identity along the way.

Run:  python3 demos/burgers_walkthrough.py
"""

from pdelin import Workspace, parse, to_text
from pdelin.conslaw import determining_system, reduce_determining_system
from pdelin.expr import is_zero
from pdelin.jets import PdeSystem
from pdelin.linearize import (augmented_identity, build_mapping,
                              match_multiplier_form, target_system,
                              verify_linearization)
from pdelin.mapping import apply_transformation

ws = Workspace("xt", ["u1", "u2"])
system = PdeSystem(ws, [parse("u2_x - 2*u1", ws),
                        parse("u2_t - 2*u1_x + u1^2", ws)])
print("system:")
for name, g in zip(system.names, system.equations):
    print(f"  {name}:  {to_text(g)} = 0")

print("\n1. determining system for multipliers L1, L2 of order 0:")
det = determining_system(system, 0)
for sigma, sig, eq in det.equations:
    print(f"  [E_{ws.dependents[sigma]}, coefficient of {sig}]  "
          f"{to_text(eq)} = 0")

print("\n2. heuristic integration:")
res = reduce_determining_system(det)
for step in res.steps:
    print(f"  - {step}")
fam = res.family
for i, c in enumerate(fam.components):
    print(f"  L{i+1} = {to_text(c)}")
print("  constraint:", to_text(fam.constraints.rows[0]), "= 0",
      "  (the backward heat equation)")

print("\n3. factored form and the augmented identity:")
cand = match_multiplier_form(fam, system)
print("  X =", [to_text(x) for x in cand.X], "  J =", to_text(cand.J))
rec = augmented_identity(cand)
print("  W =", [to_text(w) for w in rec.W])
print("  fluxes =", [to_text(f) for f in rec.fluxes])
print("  identity residual:", to_text(rec.residual))

print("\n4. the mapping and the linear target:")
tr = build_mapping(cand)
for i, p in enumerate(tr.psi):
    print(f"  w{i+1} = {to_text(p)}")
target = target_system(cand)
for e in target.equations:
    print("  target:", to_text(e), "= 0")

print("\n5. cross-check by change of variables:")
mapped = apply_transformation(system, tr)
for e in mapped.equations:
    print("  transformed:", to_text(e), "= 0")
report = verify_linearization(system, cand)
print("  verification:", "ok" if report.ok else "FAILED")
assert report.ok and is_zero(rec.residual)
