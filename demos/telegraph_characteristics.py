"""The nonlinear telegraph system: the multiplier family arrives in
potential form, f(x, t, u1, u2) with two first-order transport constraints
and one second-order constraint.  Integrating the transport pair by
characteristics produces the new coordinates X = x - u2, T = t - log(u1)
mechanically; after that the standard pipeline extracts the point
transformation w = (x, u1)-pair and the first-order linear target, and an
exponential rescaling connects it to the symmetric form.

Run:  python3 demos/telegraph_characteristics.py
"""

from pdelin import Workspace, parse, to_text
from pdelin.conslaw import (MultiplierFamily, reduce_family_constraints,
                            verify_multipliers)
from pdelin.constraints import LinearConstraints
from pdelin.jets import PdeSystem
from pdelin.linearize import (augmented_identity, build_mapping,
                              match_multiplier_form, target_system)
from pdelin.mapping import Transformation, apply_transformation

ws = Workspace("xt", ["u1", "u2"])
system = PdeSystem(ws, [parse("u2_t - u1_x", ws),
                        parse("u1_t + u1*(u1 - 1) - u1^2*u2_x", ws)])
x, t = ws.independents
u1, u2 = ws.lookup("u1"), ws.lookup("u2")
coords = (x, t, u1, u2)
constraints = LinearConstraints({"f": coords}, [
    parse("f_{1}(x,t,u1,u2) + f_{4}(x,t,u1,u2)", ws),
    parse("f_{2}(x,t,u1,u2) + u1*f_{3}(x,t,u1,u2)", ws),
    parse("u1^2*f_{3,3}(x,t,u1,u2) + 2*u1*f_{3}(x,t,u1,u2)"
          " - f_{4,4}(x,t,u1,u2)", ws)])
family = MultiplierFamily(
    components=[parse("f_{4}(x,t,u1,u2)", ws), parse("f_{3}(x,t,u1,u2)", ws)],
    function_names=["f"], coordinates=coords, definitions=coords,
    constraints=constraints)

print("potential form: L1 = f_u2, L2 = f_u1 with three constraints")
reduced, steps = reduce_family_constraints(family, system)
for s in steps:
    print("  -", s)
print("reduced coordinates:", [to_text(d) for d in reduced.definitions])
for i, c in enumerate(reduced.components):
    print(f"  L{i+1} = {to_text(c)}")
print("  constraint:", to_text(reduced.constraints.rows[0]), "= 0")

print("\nverification:", verify_multipliers(system, reduced).ok)
cand = match_multiplier_form(reduced, system)
print("Jacobian:", to_text(cand.J))
rec = augmented_identity(cand)
print("W =", [to_text(w) for w in rec.W],
      " residual:", to_text(rec.residual))
tr = build_mapping(cand)
target = target_system(cand)
print("target system:")
for e in target.equations:
    print("  ", to_text(e), "= 0")

print("\nknown transformation (x - u2, t - log u1, x, u1) applied directly:")
tgt = Workspace("XT", ["w1", "w2"])
tr12 = Transformation("point", ws, tgt,
                      (parse("x - u2", ws), parse("t - log(u1)", ws)),
                      (parse("x", ws), parse("u1", ws)))
mapped = apply_transformation(system, tr12)
for e in mapped.equations:
    print("  ", to_text(e), "= 0")
t13 = PdeSystem(tgt, [parse("w1_X - w2_T - w2", tgt),
                      parse("w2_X - w1_T", tgt)])
t6ws = Workspace("XT", ["a", "b"])
rescale = Transformation("point", tgt, t6ws,
                         (parse("X", tgt), parse("T", tgt)),
                         (parse("w1", tgt), parse("exp(T)*w2", tgt)))
mapped6 = apply_transformation(t13, rescale)
print("after the rescaling (w1, e^T w2):")
for e in mapped6.equations:
    print("  ", to_text(e), "= 0")
